"""One measured `expacc run` in a fresh process.

Peak resident memory is a high-water mark, so every measured run gets its
own process.  The clock starts before `expacc` is imported: set-up is the
import, the config parse, the dataset load and the fold plan, and it ends
when `replicate` is entered.  The record goes to `--record` as JSON, and a
traced run's spans to the same name ending in `-spans.npz`; the file name
is the run id.  `--setup-only` stops the run where set-up ends, to sample
set-up time more often than whole runs allow.

    python3 child.py --src SRC --config CONFIG --record OUT.json [--trace | --setup-only]

Run it from the directory the config's relative paths start from.
"""

import argparse
import json
import os
import resource
import sys
import time


class SetupDone(BaseException):
    """Ends a `--setup-only` run where training would start; not an
    `Exception`, so the CLI's error handler lets it through."""


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    cpu0 = time.process_time()
    sys.path.insert(0, os.path.abspath(args.src))
    from expacc import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(args.src) + os.sep):
        raise SystemExit(f"imported expacc from {cli.__file__}, not from {args.src}")
    import tracer

    stem = os.path.splitext(args.record)[0]
    spans = tracer.Tracer(os.path.basename(stem))
    if args.setup_only:
        def stop(*_args, **_kwargs):
            raise SetupDone

        cli.replicate = spans.wrap("cli.replicate", stop)
    else:
        tracer.install(spans, tracer.SPAN_NAMES if args.trace else tracer.RUN_BOUNDARIES)
    try:
        rc = cli.main(["run", args.config])
    except SetupDone:
        rc = 0
    run_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    record = {"rc": rc, "setup_s": spans.starts[spans.names.index("cli.replicate")] - t0}
    if not args.setup_only:
        record.update(
            run_s=run_s, cpu_s=cpu_s, peak_rss_mb=peak_rss_mb, steps=spans.counts["steps"]
        )
    if args.trace:
        record["layers"] = tracer.layer_metrics(spans)
        record["span_calls"] = {
            name: entry["calls"] for name, entry in spans.layer_stats().items()
        }
        spans.save(stem + "-spans.npz")
    with open(args.record, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
