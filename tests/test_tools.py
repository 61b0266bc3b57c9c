import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name):
    """``tools/<name>.py``, loaded by path, as a script is not a package."""
    path = os.path.join(ROOT, "tools", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"tools_{name}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


sweep = _load("sweep")


def _recorded():
    with open(os.path.join(ROOT, "BENCH_sweep.json")) as f:
        return {p["name"]: p["answer"] for p in json.load(f)["points"]}


@pytest.mark.parametrize(
    "kind, arg", [("browder", [2, 2, 1]), ("syzygy", 1), ("tate", 5), ("hyper", 1)]
)
def test_sweep_smallest_points_give_the_recorded_answers(kind, arg):
    # the smallest point of each cheap kind, run in this interpreter,
    # answers what the recorded sweep says it answers
    (name,) = [n for n, k, a in sweep.points() if (k, a) == (kind, arg)]
    _, answer = sweep.run_point(kind, arg)
    assert answer == _recorded()[name]
