"""The benchmark calls autrep functions by name and position, and the traced
run wraps them by name.  Renaming one or cutting a positional parameter must
fail here: tier-1 does not run the benchmark, so it would otherwise go unseen."""

import importlib
import importlib.util
import inspect
import pathlib

import pytest

from autrep import density, dynamics, nonmixing, whitehead

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


# the call forms of bench/workloads.py, with placeholders for its arguments
BENCH_CALLS = [
    (nonmixing.demo_pipeline, (10, 50.0, 2, True), {}),
    (dynamics.steer, ("phi", "psi", 0.15, "budget", 0), {}),
    (density.strongly_redundant, ("phi", "budget", 0), {}),
    (density.certify_dense, ("gens", "budget", 0), {}),
    (density.replay_certificate, ("cert",), {}),
    (dynamics.random_walk, ("rep", "cfg"), {}),
    (whitehead.basic_lemma_sweep, (4, 8), {}),
    (whitehead.primitive_class_keys, (2, 20), {}),
    (density.SearchBudget, (5, 400, 30.0), {}),
    (dynamics.WalkConfig, (), dict(steps=20_000, seed=1, record_stride=10,
                                   overflow_guard=64.0, det_guard=1e-12)),
]


@pytest.mark.parametrize("fn,args,kwargs", BENCH_CALLS,
                         ids=[fn.__qualname__ for fn, *_ in BENCH_CALLS])
def test_bench_call_form_binds(fn, args, kwargs):
    inspect.signature(fn).bind(*args, **kwargs)
