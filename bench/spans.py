"""Span recorder for the traced benchmark run.

The recorder times calls into autrep's modules by wrapping their functions
from outside: `Tracer.active` replaces each instrumented function in every
autrep module that binds it (modules import functions by name, so one
function can have several bindings) and puts the originals back when the
round ends.  Nothing in autrep itself changes, and an untraced round runs
the unwrapped code.

Spans are kept in memory as (name, start, end, parent, round) tuples and
written out after the run; counters are summed at the same call boundaries.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# The layers are autrep's modules; a span name is "<layer>.<what>".
LAYERS = ("engine", "whitehead", "freegroup", "nonmixing", "sl2", "density",
          "dynamics", "jsonio")


def _arr_rows(a) -> int:
    return int(a.shape[0])


def _axis_products(args) -> int:
    W, _table, window = args[0], args[1], args[2]
    T = window * W.shape[1]
    return W.shape[0] * T * (T + 1) // 2


# (module, attribute path, span name, counter hook).  A hook receives the
# call's positional arguments and its result and returns {counter: amount}.
INSTRUMENTS = [
    ("_engine", "PackedEngine.primitive_class_keys", "engine.enumerate",
     lambda a, out: {"engine.classes": sum(int(k.size) for k in out.values())}),
    ("_engine", "PackedEngine.orbit_keys", "engine.orbit",
     lambda a, out: {"engine.orbit_inputs": _arr_rows(a[1])}),
    ("_engine", "PackedEngine.apply_move", "engine.moves",
     lambda a, out: {"engine.candidates": sum(int(k.size) for _, k in out)}),
    ("_engine", "PackedEngine.length_deltas", "engine.deltas", None),
    ("_engine", "PackedEngine.connected_cutpoint_free_mask", "engine.predicate",
     lambda a, out: {"engine.graphs": _arr_rows(a[1])}),
    ("_engine", "unpack_keys", "engine.unpack", None),
    ("whitehead", "basic_lemma_sweep", "whitehead.sweep", None),
    ("whitehead", "decide_primitive", "whitehead.decide",
     lambda a, out: {"whitehead.decide_words": 1,
                     "whitehead.descent_steps": len(out.chain)}),
    ("freegroup", "apply", "freegroup.apply", None),
    ("nonmixing", "ps2_probe", "nonmixing.probe", None),
    ("nonmixing", "_scaled_word_products", "nonmixing.products",
     lambda a, out: {"nonmixing.products": a[0].shape[0] * a[0].shape[1]}),
    ("nonmixing", "_axis_checks", "nonmixing.axis",
     lambda a, out: {"nonmixing.axis_products": _axis_products(a)}),
    ("nonmixing", "_near_parabolic_recheck", "nonmixing.recheck", None),
    ("nonmixing", "find_twisting_exponent", "nonmixing.twist", None),
    ("nonmixing", "twisted_pair", "nonmixing.twist", None),
    ("nonmixing", "PS2Report.write_csv", "nonmixing.csv",
     lambda a, out: {"nonmixing.csv_rows": a[0].total_classes,
                     "nonmixing.csv_bytes": os.path.getsize(a[1])}),
    ("jsonio", "dumps", "jsonio.dumps", None),
    ("dynamics", "steer", "dynamics.steer", None),
    ("dynamics", "approximate_element", "dynamics.approximate",
     lambda a, out: {"dynamics.candidates": out.examined}),
    ("dynamics", "_sphere_levels", "dynamics.sphere",
     lambda a, out: {"dynamics.sphere_points":
                     1 + sum(int(m.shape[0]) for m in out[1])}),
    ("dynamics", "random_walk",
     lambda a: f"dynamics.walk_{a[0].field}",
     lambda a, out: {f"dynamics.walk_{a[0].field}_steps": a[1].steps,
                     "dynamics.walk_restarts": len(out.restarts)}),
    ("density", "certify_dense", "density.certify",
     lambda a, out: {"density.words_examined": out.report.get("words_examined", 0),
                     "density.truncated": int(bool(out.report.get("truncated")))}),
    ("density", "replay_certificate", "density.replay", None),
    ("sl2", "evaluate", "sl2.evaluate", None),
    ("sl2", "act", "sl2.act", None),
]


class Tracer:
    """In-memory spans and counters over any number of traced rounds."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.rounds = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, hook):
        spans, stack, counters = self.spans, self._stack, self.counters

        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (label, t0, t1, parent, self.rounds)
            if hook is not None:
                for key, amount in hook(args, out).items():
                    counters[key] += amount
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def active(self):
        """Wrap the instrumented functions for one traced round."""
        self._install()
        try:
            yield
        finally:
            self._uninstall()
            self.rounds += 1

    def _install(self) -> None:
        mods = {k: m for k, m in sys.modules.items()
                if k == "autrep" or k.startswith("autrep.")}
        for modname, path, name, hook in INSTRUMENTS:
            owner = mods[f"autrep.{modname}"]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                fn = owner.__dict__[attr]
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, hook))
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(fn, name, hook)
            for mod in mods.values():
                if getattr(mod, attr, None) is fn:
                    self._saved.append((mod, attr, fn))
                    setattr(mod, attr, wrapped)

    def _uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for i, (name, t0, t1, parent, rnd) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                    "parent": parent, "round": rnd}) + "\n")
            for key, value in sorted(self.counters.items()):
                f.write(json.dumps({"counter": key, "value": value}) + "\n")

    # -- derived metrics ------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Inclusive seconds and call counts per span name, and self seconds
        per layer (a span's duration minus the part its children cover)."""
        incl: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child: list[float] = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name.split(".")[0]] += (t1 - t0) - child[i]
            # inclusive time counts only the outermost span of a name
            ancestor = parent
            nested = False
            while ancestor >= 0:
                if self.spans[ancestor][0] == name:
                    nested = True
                    break
                ancestor = self.spans[ancestor][3]
            if not nested:
                incl[name] += t1 - t0
        return incl, calls, self_s

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, each per traced round (rates are work over the
        busy time of the span that did it)."""
        n = max(self.rounds, 1)
        incl, calls, self_s = self.totals()
        c = self.counters

        def per_round(x: float) -> float:
            return x / n

        def rate(work: float, span: str) -> float:
            return work / incl[span] if incl[span] > 0 else 0.0

        m = {
            "engine.enumerate_s": per_round(incl["engine.enumerate"]),
            "engine.classes_per_s": rate(c["engine.classes"], "engine.enumerate"),
            "engine.orbit_s": per_round(incl["engine.orbit"]),
            "engine.moves_s": per_round(incl["engine.moves"]),
            "engine.deltas_s": per_round(incl["engine.deltas"]),
            "engine.candidates": per_round(c["engine.candidates"]),
            "engine.orbit_inputs": per_round(c["engine.orbit_inputs"]),
            "engine.fresh_ratio": (c["engine.orbit_inputs"] / c["engine.candidates"]
                                   if c["engine.candidates"] else 0.0),
            "engine.predicate_s": per_round(incl["engine.predicate"]),
            "engine.graphs_per_s": rate(c["engine.graphs"], "engine.predicate"),
            "engine.unpack_s": per_round(incl["engine.unpack"]),
            "whitehead.sweep_s": per_round(incl["whitehead.sweep"]),
            "whitehead.decide_s": per_round(incl["whitehead.decide"]),
            "whitehead.decide_words_per_s": rate(c["whitehead.decide_words"],
                                                 "whitehead.decide"),
            "whitehead.descent_steps": per_round(c["whitehead.descent_steps"]),
            "freegroup.apply_s": per_round(incl["freegroup.apply"]),
            "freegroup.apply_calls": per_round(calls["freegroup.apply"]),
            "nonmixing.axis_s": per_round(incl["nonmixing.axis"]),
            "nonmixing.axis_products_per_s": rate(c["nonmixing.axis_products"],
                                                  "nonmixing.axis"),
            "nonmixing.products_s": per_round(incl["nonmixing.products"]),
            "nonmixing.products_per_s": rate(c["nonmixing.products"],
                                             "nonmixing.products"),
            "nonmixing.recheck_s": per_round(incl["nonmixing.recheck"]),
            "nonmixing.twist_s": per_round(incl["nonmixing.twist"]),
            "nonmixing.probe_s": per_round(incl["nonmixing.probe"]),
            "nonmixing.csv_s": per_round(incl["nonmixing.csv"]),
            "nonmixing.csv_rows_per_s": rate(c["nonmixing.csv_rows"], "nonmixing.csv"),
            "nonmixing.csv_bytes": per_round(c["nonmixing.csv_bytes"]),
            "jsonio.dumps_s": per_round(incl["jsonio.dumps"]),
            "dynamics.steer_s": per_round(incl["dynamics.steer"]),
            "dynamics.approximate_s": per_round(incl["dynamics.approximate"]),
            "dynamics.candidates_per_s": rate(c["dynamics.candidates"],
                                              "dynamics.approximate"),
            "dynamics.sphere_s": per_round(incl["dynamics.sphere"]),
            "dynamics.sphere_points": per_round(c["dynamics.sphere_points"]),
            "dynamics.walk_restarts": per_round(c["dynamics.walk_restarts"]),
            "density.certify_s": per_round(incl["density.certify"]),
            "density.certify_calls": per_round(calls["density.certify"]),
            "density.words_examined": per_round(c["density.words_examined"]),
            "density.words_per_s": rate(c["density.words_examined"], "density.certify"),
            "density.truncated": per_round(c["density.truncated"]),
            "density.replay_s": per_round(incl["density.replay"]),
            "sl2.evaluate_s": per_round(incl["sl2.evaluate"]),
            "sl2.evaluate_calls": per_round(calls["sl2.evaluate"]),
            "sl2.act_s": per_round(incl["sl2.act"]),
        }
        for field in ("su2", "real", "complex"):
            m[f"dynamics.walk_{field}_steps_per_s"] = rate(
                c[f"dynamics.walk_{field}_steps"], f"dynamics.walk_{field}")
        for layer in LAYERS:
            m[f"{layer}.self_s"] = per_round(self_s[layer])
        return m
