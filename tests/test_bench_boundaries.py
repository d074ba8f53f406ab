"""The names the benchmark in `perfbench/` patches from outside the package.

`perfbench/tracer.py` wraps expacc functions and methods by name, and reads
`train_run`'s arguments by position.  A rename in `src/` that breaks it
fails here, in the test suite, instead of only when the benchmark runs.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from expacc.harness import train_run

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_boundary_resolves_to_a_callable(tracer):
    for owner_path, attr, name, _ in tracer.BOUNDARIES:
        module_name, _, class_name = owner_path.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        assert callable(getattr(owner, attr, None)), f"{owner_path}.{attr} ({name})"


def test_train_run_keeps_the_argument_order_the_benchmark_reads():
    params = list(inspect.signature(train_run).parameters)
    assert params[:5] == ["model_kind", "train", "dev", "test", "cfg"]
