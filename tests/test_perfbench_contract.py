"""The benchmark in perfbench/ wraps src functions by attribute name, and
its workloads import src names directly; a name it uses must stay where it
looks for it, or every benchmark run fails before it measures anything."""

import importlib
import os
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def import_benchmark_module(name: str):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def wrap_points():
    return import_benchmark_module("layers").WRAP_POINTS


def test_every_wrap_point_is_an_attribute_of_its_owner(wrap_points):
    assert wrap_points
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in wrap_points if attr not in vars(owner)]
    assert missing == []


@pytest.mark.parametrize("name", ["layers", "spec", "workloads", "run"])
def test_benchmark_module_imports(name):
    environ = dict(os.environ)
    try:
        import_benchmark_module(name)
    finally:  # run pins the BLAS threads for the processes it starts
        os.environ.clear()
        os.environ.update(environ)
