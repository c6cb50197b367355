"""The four benchmark workloads.

A workload builds its inputs from the benchmark seed in its constructor
(that is part of set-up), runs one round of pipeline calls in `run_round`,
passing each operation through `timed(op, fn, *args)`, and checks a
round's results in `check`.  Every round repeats the same
operations on the same inputs, so rounds must agree with each other:
`fingerprint` condenses a round to values that must be equal across rounds.

Default sizes keep one round to a few seconds, so that a run of the
benchmark repeats it several times; `full=True` selects the sizes of the
headline acceptance pipelines.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np
from scipy.linalg import expm

from autrep import _engine, cli, density, dynamics, freegroup, nonmixing, sl2, whitehead

import checks


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class SweepF4:
    """Exact layer only: the Basic-Lemma sweep over F4, an F2 enumeration,
    and the Whitehead descent on every short reduced F3 word."""

    def __init__(self, seed: int, full: bool):
        self.sweep_cap, self.f2_cap, self.decide_len = (9, 32, 6) if full else (8, 20, 5)
        self.ops = ["sweep", "f2-enumeration", "decide"]
        self.letters = list(checks.reduced_words(3, self.decide_len))
        self.words = [freegroup.Word(w, 3) for w in self.letters]
        # words for the graph-predicate check; from length 8 on, a graph on
        # the 8 vertices can be connected without cut vertices
        rng = np.random.default_rng([seed, 1])
        self.sample = checks.random_cyclic_words(rng, 4, 2000, (1, 16))

    def run_round(self, timed) -> dict:
        return {
            "sweep": timed("sweep", whitehead.basic_lemma_sweep, 4, self.sweep_cap),
            "f2-enumeration": timed("f2-enumeration", whitehead.primitive_class_keys,
                                    2, self.f2_cap),
            "decide": timed("decide", lambda: [whitehead.decide_primitive(w).primitive
                                               for w in self.words]),
        }

    def fingerprint(self, res: dict) -> dict:
        sw = res["sweep"]
        return {
            "sweep": (sw.total_classes, sw.violations, tuple(sw.counts_by_length.items())),
            "f2-enumeration": _digest(*res["f2-enumeration"].values()),
            "decide": _digest(np.array(res["decide"])),
        }

    def check(self, res: dict) -> dict[str, list[str]]:
        sw = res["sweep"]
        keys4 = whitehead.primitive_class_keys(4, self.sweep_cap)
        sweep = checks.check_violations(sw.violations)
        if {L: int(k.size) for L, k in keys4.items()} != sw.counts_by_length:
            sweep.append("sweep counts differ from the F4 enumeration")
        sweep += checks.check_exponent_gcd(keys4, 4)
        eng = _engine.PackedEngine(4)
        for L in sorted({len(w) for w in self.sample}):
            group = [w for w in self.sample if len(w) == L]
            mask = eng.connected_cutpoint_free_mask(checks.letters_to_nibbles(group))
            sweep += checks.check_predicate(group, mask, 4)
        f2 = {L: int(k.size) for L, k in res["f2-enumeration"].items()}
        member = whitehead.primitive_class_keys(3, self.decide_len)
        return {
            "sweep": sweep,
            "f2-enumeration": checks.check_f2_counts(f2, self.f2_cap),
            "decide": checks.check_decide(self.letters, res["decide"], member, 3),
        }

    def headline(self, res: dict) -> dict:
        sw = res["sweep"]
        return {"f4_classes": sw.total_classes, "violations": sw.violations,
                "f2_classes": sum(int(k.size) for k in res["f2-enumeration"].values()),
                "decide_words": len(self.words),
                "decide_primitive": int(sum(res["decide"]))}


class PS2:
    """The punctured-sphere pipeline: twist search, twisted pair, PS^2 probe.

    With the axis check it also writes the summary JSON and the per-class
    CSV the way `autrep nonmixing demo --out --csv` does."""

    G1 = (2, 3, -2, -3)
    G2 = (1, 3, -1, -3)

    def __init__(self, seed: int, full: bool, axis: bool, outdir: str):
        self.axis = axis
        self.cap = (10 if full else 8) if axis else (12 if full else 10)
        self.ops = ["probe", "artifacts"] if axis else ["probe"]
        self.rng = np.random.default_rng([seed, 2])
        self.json_path = os.path.join(outdir, "ps2.json")
        self.csv_path = os.path.join(outdir, "ps2.csv")

    def run_round(self, timed) -> dict:
        report, pair, m = timed("probe", nonmixing.demo_pipeline, self.cap, 50.0, 2,
                                self.axis)
        out = {"probe": (report, pair, m)}
        if self.axis:
            out["artifacts"] = timed("artifacts", self._write_artifacts, report, m)
        return out

    def _write_artifacts(self, report, m):
        manifest = cli.RunManifest("nonmixing demo",
                                   {"length_cap": self.cap, "K": 50.0, "window": 2,
                                    "m": None, "axis_check": True}, None)
        obj = report.to_obj()
        obj["twist_exponent"] = m
        cli._emit(obj, manifest, self.json_path)
        report.write_csv(self.csv_path, report.rank, cli._manifest_line(manifest))
        return self.json_path, self.csv_path

    def fingerprint(self, res: dict) -> dict:
        report, _, m = res["probe"]
        out = {"probe": (m, report.total_classes, report.min_max_ratio,
                         report.zero_ratio_count_1, report.zero_ratio_count_2,
                         report.axis_pass_count_1, report.axis_pass_count_2,
                         _digest(report.col_keys, report.col_l1, report.col_l2))}
        if self.axis:
            out["artifacts"] = (os.path.getsize(self.json_path) > 0,
                                os.path.getsize(self.csv_path) > 0)
        return out

    def _containment_at(self, k: int) -> bool:
        punctures = [p.canonical.letters
                     for p in nonmixing.build_fuchsian_4punctured().punctures]
        for variant, g in ((1, self.G1), (2, self.G2)):
            phi = nonmixing.build_phi(k, variant, freegroup.Word(g, 3))
            if not checks.containment_holds([w.letters for w in phi.images], punctures, g):
                return False
        return True

    def check(self, res: dict) -> dict[str, list[str]]:
        report, pair, m = res["probe"]
        ints = (pair.int_images_1, pair.int_images_2)
        sample = checks.probe_sample(report, self.rng, 2000)

        def is_primitive(w):
            return whitehead.decide_primitive(freegroup.Word(w, 3)).primitive

        probe = (checks.check_lengths(report, ints, sample)
                 + checks.check_min_ratio(report)
                 + checks.check_zero_ratio(report, ints, is_primitive)
                 + checks.check_twist(m, self._containment_at))
        out = {"probe": probe}
        if self.axis:
            probe += checks.check_axis_consistency(report)
            probe += checks.check_axis(report, ints,
                                       checks.probe_sample(report, self.rng, 100))
            out["artifacts"] = (checks.check_csv(self.csv_path, report, sample)
                                + checks.check_json(self.json_path, report, m))
        else:
            probe += checks.check_stability(report, self.cap)
        return out

    def headline(self, res: dict) -> dict:
        report, _, m = res["probe"]
        return {"length_cap": self.cap, "classes": report.total_classes, "m": m,
                "min_max_ratio": round(report.min_max_ratio, 6),
                "zero_ratio": [report.zero_ratio_count_1, report.zero_ratio_count_2]}


def haar_su2(rng: np.random.Generator) -> np.ndarray:
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    a, b = complex(q[0], q[1]), complex(q[2], q[3])
    return np.array([[a, b], [-b.conjugate(), a.conjugate()]])


def random_sl2(rng: np.random.Generator, field: str, scale: float) -> np.ndarray:
    """exp of a random traceless matrix with N(0, scale^2) coordinates."""
    c = rng.normal(scale=scale, size=3)
    if field == "complex":
        c = c + 1j * rng.normal(scale=scale, size=3)
    return expm(np.array([[c[0], c[1]], [c[2], -c[0]]]))


class SteerWalk:
    """Numeric layer only: strong redundancy and steering on SU(2) triples,
    the three walk fields, and density certificates with replay."""

    EPS = 0.15
    SR_BUDGET = density.SearchBudget(5, 400, 30.0)
    CERT_BUDGET = density.SearchBudget(6, 2000, 30.0)
    SANOV = [[[1, 2], [0, 1]], [[1, 0], [2, 1]]]
    ROTATION = [[[math.cos(0.5), -math.sin(0.5)], [math.sin(0.5), math.cos(0.5)]],
                [[2, 1], [1, 1]]]

    def __init__(self, seed: int, full: bool):
        self.budget = density.SearchBudget(160, 200_000 if full else 50_000, 120.0)
        steps = 100_000 if full else 20_000
        self.seed = seed
        # The steering triples are those of acceptance criterion 7 (triple i
        # drawn from seed i), not drawn from the benchmark seed: steer time
        # varies about 3x between triples, and at this budget a stage misses
        # eps on some triples (worst 0.129 of 0.15 over 100 seeded triples),
        # which a seeded draw would turn into rare failing operations.
        self.triples = []
        for i in range(4 if full else 2):
            rng = np.random.default_rng(i)
            mats = [haar_su2(rng) for _ in range(6)]
            self.triples.append((mats[:3], mats[3:]))
        self.triple_reps = [(self._rep(phi, "su2"), self._rep(psi, "su2"))
                            for phi, psi in self.triples]
        # The su2 walk is the fixed one of acceptance criterion 8: a KS test
        # at p > 0.01 rejects 1% of truly Haar-distributed walks, so a walk
        # drawn from the benchmark seed would fail on about one seed in 100.
        rng = np.random.default_rng(42)
        self.walks = {"su2": (self._rep([haar_su2(rng) for _ in range(3)], "su2"),
                              dynamics.WalkConfig(steps=100_000, seed=7, record_stride=50))}
        for j, field in enumerate(("real", "complex")):
            rng = np.random.default_rng([seed, 4, j])
            mats = [random_sl2(rng, field, 0.5) for _ in range(2)]
            self.walks[field] = (self._rep(mats, field),
                                 dynamics.WalkConfig(steps=steps, seed=seed,
                                                     record_stride=10, overflow_guard=64.0,
                                                     det_guard=1e-12))
        self.pairs = {name: [sl2.GroupElement(m) for m in mats]
                      for name, mats in (("sanov", self.SANOV), ("rotation", self.ROTATION))}
        self.ops = ([f"steer-{i}" for i in range(len(self.triples))]
                    + ["walk-su2", "walk-real", "walk-complex",
                       "certify-sanov", "certify-rotation"])

    @staticmethod
    def _rep(mats, field):
        return sl2.Representation([sl2.GroupElement(m, field) for m in mats])

    def _steer(self, phi, psi):
        sr = density.strongly_redundant(phi, self.SR_BUDGET, self.seed)
        return sr, dynamics.steer(phi, psi, self.EPS, self.budget, self.seed)

    def _certify(self, gens):
        v = density.certify_dense(gens, self.CERT_BUDGET, self.seed)
        replayed = None
        if v.certificate is not None:
            cert = density.DensityCertificate.loads(v.certificate.dumps())
            replayed = density.replay_certificate(cert)
        return v, replayed

    def run_round(self, timed) -> dict:
        out = {}
        for i, (phi, psi) in enumerate(self.triple_reps):
            out[f"steer-{i}"] = timed(f"steer-{i}", self._steer, phi, psi)
        for field, (rep, cfg) in self.walks.items():
            out[f"walk-{field}"] = timed(f"walk-{field}", dynamics.random_walk, rep, cfg)
        for name, gens in self.pairs.items():
            out[f"certify-{name}"] = timed(f"certify-{name}", self._certify, gens)
        return out

    def fingerprint(self, res: dict) -> dict:
        out = {}
        for op, r in res.items():
            if op.startswith("steer"):
                sr, st = r
                out[op] = (sr.strongly_redundant,
                           tuple(freegroup.format_word(w) for w in st.automorphism.images),
                           st.distances)
            elif op.startswith("walk"):
                out[op] = (_digest(r.trace_matrix()), tuple(r.restarts))
            else:
                v, replayed = r
                out[op] = (v.status, v.report["words_examined"], replayed)
        return out

    @staticmethod
    def _verdict_checks(v) -> list[str]:
        return ["verdict truncated by the time cap"] if v.report.get("truncated") else []

    @staticmethod
    def _certificate_checks(cert) -> list[str]:
        again = density.DensityCertificate.loads(cert.dumps())
        out = [] if density.replay_certificate(again) else ["certificate does not replay"]
        return out + checks.check_witness_angle([g.m for g in again.generators],
                                                again.witness)

    def check(self, res: dict) -> dict[str, list[str]]:
        out = {}
        for i, (phi, psi) in enumerate(self.triples):
            sr, st = res[f"steer-{i}"]
            errs = [] if sr.strongly_redundant else ["triple not strongly redundant"]
            for v in sr.subtuple_verdicts:
                errs += self._verdict_checks(v)
                if v.certificate is not None:
                    errs += self._certificate_checks(v.certificate)
            if not st.success:
                errs.append(f"steer reports failure, distances {st.distances}")
            errs += checks.check_steer(phi, psi,
                                       [w.letters for w in st.automorphism.inverse_images],
                                       st.distances, self.EPS)
            out[f"steer-{i}"] = errs
        out["walk-su2"] = checks.check_ks(res["walk-su2"].trace_matrix())
        for field in ("real", "complex"):
            out[f"walk-{field}"] = checks.check_fricke(res[f"walk-{field}"].trace_matrix())
        sanov, _ = res["certify-sanov"]
        out["certify-sanov"] = self._verdict_checks(sanov) + (
            ["Sanov pair certified dense"] if sanov.dense else [])
        rot, replayed = res["certify-rotation"]
        errs = self._verdict_checks(rot)
        if not rot.dense:
            errs.append(f"rotation pair not dense: {rot.status}")
        else:
            if not replayed:
                errs.append("rotation certificate does not replay")
            errs += self._certificate_checks(rot.certificate)
        out["certify-rotation"] = errs
        return out

    def headline(self, res: dict) -> dict:
        worst = max(max(res[f"steer-{i}"][1].distances) for i in range(len(self.triples)))
        return {"triples": len(self.triples), "worst_distance": round(worst, 6),
                "walk_restarts": {f: len(res[f"walk-{f}"].restarts)
                                  for f in ("su2", "real", "complex")},
                "sanov": res["certify-sanov"][0].status,
                "rotation": res["certify-rotation"][0].status}


def build(name: str, seed: int, full: bool, outdir: str):
    if name == "sweep-f4":
        return SweepF4(seed, full)
    if name == "ps2-axis":
        return PS2(seed, full, True, outdir)
    if name == "ps2-lengths":
        return PS2(seed, full, False, outdir)
    if name == "steer-walk":
        return SteerWalk(seed, full)
    raise ValueError(f"unknown workload {name!r}")
