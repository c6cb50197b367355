"""The traced benchmark wraps autrep functions by name; renaming one must
fail here rather than silently drop its spans from the per-layer metrics."""

import importlib
import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_instruments():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.INSTRUMENTS


@pytest.mark.parametrize("module,path", [(m, p) for m, p, *_ in load_instruments()])
def test_instrumented_name_resolves(module, path):
    owner = importlib.import_module(f"autrep.{module}")
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)
