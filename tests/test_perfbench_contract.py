"""The benchmark in perfbench/ wraps src functions by attribute name; a
name it wraps must stay where it looks for it, or every traced benchmark
run fails at install time."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def wrap_points():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
    finally:
        sys.path.remove(str(PERFBENCH))
    return layers.WRAP_POINTS


def test_every_wrap_point_is_an_attribute_of_its_owner(wrap_points):
    assert wrap_points
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in wrap_points if attr not in vars(owner)]
    assert missing == []
