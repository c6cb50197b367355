"""The benchmark calls autrep functions by name and position, and the traced
run wraps them by name.  Renaming one or cutting a positional parameter must
fail here: tier-1 does not run the benchmark, so it would otherwise go unseen."""

import importlib
import importlib.util
import inspect
import pathlib

import numpy as np
import pytest

from autrep import _engine, cli, density, dynamics, nonmixing, whitehead

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
    (nonmixing.PS2Report.write_csv, ("report", "path", 3, "line"), {}),
    (cli.RunManifest, ("nonmixing demo", {}, None), {}),
    (cli._emit, ("obj", "manifest", "path"), {}),
    (cli._manifest_line, ("manifest",), {}),
    (nonmixing.build_phi, (2, 1, "word"), {}),
    (whitehead.decide_primitive, ("word",), {}),
    (_engine.PackedEngine.connected_cutpoint_free_mask, ("engine", "W"), {}),
    (density.DensityCertificate.loads, ("text",), {}),
]


@pytest.mark.parametrize("fn,args,kwargs", BENCH_CALLS,
                         ids=[fn.__qualname__ for fn, *_ in BENCH_CALLS])
def test_bench_call_form_binds(fn, args, kwargs):
    inspect.signature(fn).bind(*args, **kwargs)


def test_probe_kernel_calls_carry_what_the_hooks_read(monkeypatch):
    # the traced run counts products from args[0] and axis pairs from
    # args[0] and args[2]; a keyword call, or a call on rows other than the
    # class rows, would miscount
    calls = {"_scaled_word_products": [], "_axis_checks": []}
    for name, log in calls.items():
        real = getattr(nonmixing, name)

        def recorder(*args, _real=real, _log=log, **kwargs):
            _log.append((args, kwargs))
            return _real(*args, **kwargs)
        monkeypatch.setattr(nonmixing, name, recorder)
    pair = nonmixing.twisted_pair(nonmixing.build_fuchsian_4punctured(), 2)
    report = nonmixing.ps2_probe(pair.rho1, pair.rho2, 4, K=50.0, window=2)
    b = _engine.bits_per_letter(3)
    want = sorted(tuple(row) for i in range(report.total_classes)
                  for row in _engine.unpack_keys(report.col_keys[i:i + 1],
                                                 int(report.col_length[i]), b))
    for name, log in calls.items():
        by_table = {}
        for args, kwargs in log:
            W, table = args[0], args[1]
            assert isinstance(W, np.ndarray) and W.ndim == 2 and W.dtype == np.uint8
            assert isinstance(table, np.ndarray) and table.shape[1:] == (2, 2)
            assert not {"W", "table", "window"} & set(kwargs)
            if name == "_axis_checks":
                assert args[2] == 2
            by_table.setdefault(table.tobytes(), []).extend(map(tuple, W))
        assert len(by_table) == 2
        for rows in by_table.values():
            assert sorted(rows) == want
