"""The benchmark's tracer (perfbench/tracing.py) wraps phaselab functions by
name. A rename or deletion of one of them must fail here, not crash a traced
benchmark run."""

import importlib
import sys
from pathlib import Path

import pytest

from phaselab import gridtrain, training

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_wrapped_name_exists(tracing):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for targets in tracing._TARGETS.values()
        for owner, attr in targets
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_eval_span_closer_exists():
    for owner in (training, gridtrain):
        assert "censored_travel_time" in owner.__dict__, owner.__name__
