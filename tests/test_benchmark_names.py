"""Every name the benchmark's tracer wraps must stay bound in the program.

perfbench/tracer.py times and counts calls by replacing module attributes
listed in its TIMED and COUNTED tables. A name that disappears is reported as
unmeasured by a traced benchmark run; this fast check catches it first. The
tracer module is loaded from its file (it imports only the standard library).
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracer = _load_tracer()


@pytest.mark.parametrize("module, name", sorted({*_tracer.TIMED, *_tracer.COUNTED}))
def test_traced_name_is_bound(module, name):
    assert hasattr(importlib.import_module(module), name)
