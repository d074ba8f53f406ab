"""The three losses in the binary setting, as tables.

Tabulates the negative log likelihood next to the expected-error losses,
first as functions of the true-class probability, then composed with the
sigmoid as functions of the pre-activation score.  The derivative columns
show the story in one glance: at strongly negative scores the log loss
keeps a slope of about -1, the plain expected error flattens to zero, and
the leaky variant keeps exactly its alpha-sized leak.

Run:  python demos/01_loss_curves.py [out_dir]
"""

import sys

from expacc.cli import cmd_curves
from expacc.losses import emit_loss_curves


def show(header, table, picks):
    widths = [max(10, len(h) + 2) for h in header]
    print("".join(h.rjust(w) for h, w in zip(header, widths)))
    for i in picks:
        print("".join(f"{v: .4f}".rjust(w) for v, w in zip(table[i], widths)))
    print()


def main():
    header_a, table_a, header_b, table_b = emit_loss_curves(grid_size=21)

    print("Losses against the probability assigned to the true class")
    print("(accuracy-style losses translated to the 1-p error-rate form):\n")
    show(header_a, table_a, range(0, 21, 4))

    print("Composed with sigmoid over pre-activations, with derivatives:\n")
    show(header_b, table_b, range(0, 21, 4))

    row = table_b[0]
    print(f"at a = {row[0]:.0f}: d(neglog)/da = {row[4]:.4f}  "
          f"d(eerr)/da = {row[5]:.2e}  d(leerr)/da = {row[6]:.4f}")
    print("the leak is what keeps saturated instances trainable.\n")

    if len(sys.argv) > 1:
        print("wrote loss curves to", cmd_curves(sys.argv[1]))


if __name__ == "__main__":
    main()
