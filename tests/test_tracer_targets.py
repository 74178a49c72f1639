"""Every function the benchmark tracer wraps still exists.

perfbench/tracer.py lists the traced layers by module and attribute
name, and ``Tracer.install`` refuses to run when one is gone.  Checking
the list here makes a deleted or renamed traced function fail the test
suite, not only a traced benchmark run.
"""
import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import TARGETS  # noqa: E402


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.span)
def test_traced_function_exists(target):
    home = importlib.import_module(target.module)
    if target.cls is None:
        assert callable(getattr(home, target.attr, None))
    else:
        # install patches the class's own attribute, not an inherited one
        assert callable(vars(getattr(home, target.cls)).get(target.attr))
