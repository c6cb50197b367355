"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the measurements.
"""

import math
import time

import numpy as np
import pytest

from autrep.density import (
    DensityCertificate,
    SearchBudget,
    certify_dense,
    replay_certificate,
    strongly_redundant,
)
from autrep.dynamics import (
    WalkConfig,
    ks_against_haar_traces,
    random_walk,
    rejection_sample_su2_traces,
    replay_steer,
    steer,
)
from autrep.freegroup import ConjClass, Word, cyclic_reduce, reduce as reduce_word
from autrep.nonmixing import demo_pipeline, int_evaluate, pair_graph_check
from autrep.sl2 import GroupElement, Representation, random_element, random_su2
from autrep.whitehead import (
    basic_lemma_filter,
    basic_lemma_sweep,
    decide_primitive,
    enumerate_primitive_classes,
    exponent_gcd,
)

DEMO_CACHE = {}


def _demo():
    if "report" not in DEMO_CACHE:
        t0 = time.time()
        report, pair, m = demo_pipeline(length_cap=12, K=50.0, window=2,
                                        axis_check=True)
        DEMO_CACHE.update(report=report, pair=pair, m=m, elapsed=time.time() - t0)
    return DEMO_CACHE


class TestCriterion1BasicLemmaSweep:
    def test_zero_violations_rank3_and_rank4(self):
        t0 = time.time()
        rep3 = basic_lemma_sweep(3, 12)
        rep4 = basic_lemma_sweep(4, 10)
        elapsed = time.time() - t0
        print(f"\nACCEPTANCE 1: {'PASS' if rep3.violations == rep4.violations == 0 else 'FAIL'} "
              f"- Basic Lemma sweep: F3 L<=12 {rep3.total_classes} classes, "
              f"F4 L<=10 {rep4.total_classes} classes, "
              f"violations {rep3.violations}+{rep4.violations}, "
              f"{elapsed:.0f}s (target < 300s)")
        assert rep3.violations == 0
        assert rep4.violations == 0
        assert elapsed < 300


class TestCriterion2OracleEquivalence:
    def _all_reduced_words(self, n, max_len):
        alphabet = [v for i in range(1, n + 1) for v in (i, -i)]
        level = [(v,) for v in alphabet]
        for _ in range(max_len):
            for w in level:
                yield w
            level = [w + (v,) for w in level for v in alphabet if v != -w[-1]]

    def test_exhaustive_agreement_and_abelianization(self):
        t0 = time.time()
        total = 0
        for n in (2, 3):
            member = enumerate_primitive_classes(n, 6)
            for letters in self._all_reduced_words(n, 6):
                w = Word(letters, n, _checked=True)
                verdict = decide_primitive(w).primitive
                in_enum = ConjClass(w) in member
                assert verdict == in_enum, (n, letters)
                if verdict:
                    assert exponent_gcd(w) == 1, (n, letters)
                total += 1
        print(f"\nACCEPTANCE 2: PASS - decide_primitive == enumeration membership on "
              f"{total} reduced words (|w| <= 6, F2 and F3), gcd condition everywhere "
              f"[{time.time() - t0:.0f}s]")


class TestCriterion3InvariantConservation:
    @staticmethod
    def _walk_invariant_check(rep_mats, field, steps, guard, seed, tol):
        def tr_comm(ms):
            a, b = ms
            ainv = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]])
            binv = np.array([[b[1, 1], -b[0, 1]], [-b[1, 0], b[0, 0]]])
            m = a @ b @ ainv @ binv
            return m[0, 0] + m[1, 1]

        from autrep.dynamics import _move_programs
        rng = np.random.default_rng(seed)
        programs = _move_programs(2, "nielsen")
        init = [m.copy() for m in rep_mats]
        mats = [m.copy() for m in init]
        c0 = tr_comm(mats)
        worst = 0.0
        for step in range(1, steps + 1):
            prog = programs[rng.integers(len(programs))]
            new = list(mats)
            for (i, letters) in prog:
                acc = None
                for v in letters:
                    m = mats[abs(v) - 1]
                    if v < 0:
                        m = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])
                    acc = m if acc is None else acc @ m
                new[i] = acc
            mats = new
            # restart on entry overflow or determinant drift at scale; the
            # point is reset, never rescaled (renormalization stays off)
            escaped = False
            for m in mats:
                top = float(np.abs(m).max())
                det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
                if top > guard or abs(det - 1.0) > 1e-12 * max(1.0, top * top):
                    escaped = True
                    break
            if escaped:
                mats = [m.copy() for m in init]
            if step % 50 == 0 or step == steps:
                worst = max(worst, abs(tr_comm(mats) - c0))
        assert worst <= tol, worst
        return worst

    def test_invariant_constant_along_walks(self):
        t0 = time.time()
        worst = 0.0
        # the integer pair: exact arithmetic, invariant exactly 3
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        b = np.array([[1.0, 0.0], [1.0, 1.0]])
        w = self._walk_invariant_check([a, b], "real", 10_000, 1e3, 0, 0.0)
        assert w == 0.0
        # 100 random representations per field; guard 64 keeps the fresh
        # commutator-trace evaluation within float64 reach of 1e-8
        for field in ("real", "complex"):
            for ridx in range(100):
                rng = np.random.default_rng(10_000 + ridx)
                mats = [random_element(rng, field, 0.5).m for _ in range(2)]
                w = self._walk_invariant_check(mats, field, 10_000, 64.0,
                                               20_000 + ridx, 1e-8)
                worst = max(worst, w)
        print(f"\nACCEPTANCE 3: PASS - tr rho([x1,x2]) constant within 1e-8 along "
              f"10^4-step Nielsen walks on 100 reps x (real, complex); worst drift "
              f"{worst:.2e}; integer pair exactly 3 [{time.time() - t0:.0f}s]")


class TestCriterion4DensitySoundness:
    def test_soundness_100_seeded_budgets(self):
        t0 = time.time()
        discrete = [GroupElement([[1, 2], [0, 1]]), GroupElement([[1, 0], [2, 1]])]
        c, s = math.cos(0.5), math.sin(0.5)
        dense_pair = [GroupElement([[c, -s], [s, c]]), GroupElement([[2, 1], [1, 1]])]
        for seed in range(100):
            budget = SearchBudget(max_word_length=4 + seed % 3,
                                  max_candidates=200 + 13 * seed,
                                  time_cap_s=30.0)
            v = certify_dense(discrete, budget, seed=seed)
            assert v.status != "dense", (seed, v)
            v2 = certify_dense(dense_pair, budget, seed=seed)
            assert v2.dense, (seed, v2.status, v2.report)
            # bit-independent replay through the serialized form
            cert = DensityCertificate.loads(v2.certificate.dumps())
            assert replay_certificate(cert), seed
        print(f"\nACCEPTANCE 4: PASS - 100 seeded budgets: discrete pair never "
              f"Dense, irrational-rotation pair always Dense with replayable "
              f"certificate [{time.time() - t0:.0f}s]")


@pytest.mark.slow  # all three share the L=12 pipeline run, several minutes
class TestCriterion5HeadlinePipeline:
    def test_full_pipeline_at_L12(self):
        demo = _demo()
        report, pair, m, elapsed = (demo["report"], demo["pair"], demo["m"],
                                    demo["elapsed"])
        min12 = report.min_max_ratio
        min8 = report.min_max_ratio_at(8)
        ok = (min12 > 0 and report.zero_ratio_count_1 > 0
              and report.zero_ratio_count_2 > 0 and min12 >= 0.5 * min8
              and elapsed < 900)
        print(f"\nACCEPTANCE 5: {'PASS' if ok else 'FAIL'} - pipeline (m={m}): "
              f"L=12 min max-ratio {min12:.6f} > 0 over {report.total_classes} "
              f"classes; zero-ratio witnesses {report.zero_ratio_count_1}/"
              f"{report.zero_ratio_count_2} per slot; L=8->12 min ratio "
              f"{min8:.6f}->{min12:.6f} (decrease "
              f"{100 * (1 - min12 / min8):.1f}% < 50%); {elapsed:.0f}s "
              f"(target < 900s)")
        assert m == 2
        assert min12 > 0
        assert report.zero_ratio_count_1 > 0 and report.zero_ratio_count_2 > 0
        assert min12 >= 0.5 * min8
        assert elapsed < 900

    def test_zero_ratio_witnesses_are_parabolic_primitives(self):
        demo = _demo()
        report, pair = demo["report"], demo["pair"]
        from autrep.freegroup import parse_word
        for text in report.zero_ratio_examples_1:
            w = parse_word(text, 3)
            m = int_evaluate(pair.int_images_1, w.letters)
            assert abs(m[0][0] + m[1][1]) == 2
            assert decide_primitive(w).primitive

    def test_coverage_matches_independent_enumeration(self):
        from autrep.whitehead import primitive_class_count
        demo = _demo()
        report = demo["report"]
        assert report.counts_by_length == primitive_class_count(3, 12)


class TestCriterion6PairGraphLemma:
    def test_pair_graph_and_sampled_containing_words(self):
        t0 = time.time()
        g1 = Word((2, 3, -2, -3), 3)
        g2 = Word((1, 3, -1, -3), 3)
        assert pair_graph_check(g1, g2) is True
        from autrep.whitehead import build_graph, union
        target = union(build_graph([g1], 3), build_graph([g2], 3)).simple_edges()
        rng = np.random.default_rng(123)
        found = 0
        attempts = 0
        while found < 20 and attempts < 20_000:
            attempts += 1
            letters = []
            while len(letters) < 20:
                v = int(rng.integers(1, 4)) * (1 if rng.integers(2) else -1)
                if letters and letters[-1] == -v:
                    continue
                letters.append(v)
            w, _ = cyclic_reduce(reduce_word(letters, 3))
            if len(w) < 2:
                continue
            if target <= build_graph([w], 3).simple_edges():
                assert basic_lemma_filter(w) is False
                assert not decide_primitive(w).primitive
                found += 1
        assert found == 20
        print(f"\nACCEPTANCE 6: PASS - pair_graph_check true; 20 sampled words with "
              f"graphs containing the union all fail the Basic-Lemma filter and are "
              f"certified non-primitive ({attempts} samples) [{time.time() - t0:.0f}s]")


class TestCriterion7Steering:
    BUDGET = SearchBudget(max_word_length=160, max_candidates=200_000,
                          time_cap_s=120.0)

    @pytest.mark.slow
    def test_twenty_seeded_triples(self):
        t0 = time.time()
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            phi = Representation([random_su2(rng) for _ in range(3)])
            psi = Representation([random_su2(rng) for _ in range(3)])
            sr = strongly_redundant(phi, SearchBudget(5, 400, 30.0), seed=seed)
            assert sr.strongly_redundant, seed
            res = steer(phi, psi, 0.15, self.BUDGET, seed=seed)
            assert res.success, (seed, res.distances)
            replayed = replay_steer(res, phi, psi)
            assert all(abs(a - b) < 1e-9 for a, b in zip(replayed, res.distances))
            assert max(res.distances) <= 0.15
            worst = max(worst, max(res.distances))
        print(f"\nACCEPTANCE 7: PASS - steer succeeded on 20/20 seeded "
              f"strongly-redundant su2 triples at eps=0.15 (worst coordinate "
              f"distance {worst:.4f}); replay matches [{time.time() - t0:.0f}s]")

    def test_identity_case(self):
        rng = np.random.default_rng(99)
        phi = Representation([random_su2(rng) for _ in range(3)])
        res = steer(phi, phi, 0.15, self.BUDGET, seed=99)
        assert res.automorphism.is_identity()
        assert max(res.distances) < 1e-10


class TestCriterion8WalkEquidistribution:
    def test_ks_against_haar(self):
        t0 = time.time()
        # baseline cross-check: rejection sampler against the closed form
        rng = np.random.default_rng(0)
        baseline = ks_against_haar_traces(rejection_sample_su2_traces(rng, 20_000))
        assert baseline.pvalue > 0.01
        rng = np.random.default_rng(42)
        rep = Representation([random_su2(rng) for _ in range(3)])
        run = random_walk(rep, WalkConfig(steps=100_000, seed=7, record_stride=50))
        tm = run.trace_matrix().real
        burn = 20  # samples (1000 steps)
        pooled = np.concatenate([tm[burn:, i] for i in range(3)])
        res = ks_against_haar_traces(pooled)
        print(f"\nACCEPTANCE 8: {'PASS' if res.pvalue > 0.01 else 'FAIL'} - su2 "
              f"10^5-step walk: KS stat {res.statistic:.4f}, p = {res.pvalue:.4f} "
              f"> 0.01 on {pooled.size} trace samples (baseline rejection-sampler "
              f"p = {baseline.pvalue:.3f}) [{time.time() - t0:.0f}s]")
        assert res.pvalue > 0.01


class TestCriterion9HyperbolicNumerics:
    def test_translation_length_identities(self):
        from autrep.sl2 import (classify, IsometryType, translation_length,
                                translation_length_arccosh)
        t0 = time.time()
        worst_conj = worst_pow = worst_cross = 0.0
        for field in ("real", "complex"):
            rng = np.random.default_rng(5 if field == "real" else 6)
            for _ in range(10_000):
                g = random_element(rng, field, 0.8)
                h = random_element(rng, field, 0.8)
                l = translation_length(g)
                worst_conj = max(worst_conj,
                                 abs(translation_length(h @ g @ h.inverse()) - l))
                if classify(g).kind is IsometryType.HYPERBOLIC:
                    worst_cross = max(worst_cross,
                                      abs(translation_length_arccosh(g) - l))
            for _ in range(1000):
                g = random_element(rng, field, 0.6)
                l = translation_length(g)
                gk = g
                for k in range(2, 11):
                    gk = gk @ g
                    worst_pow = max(worst_pow,
                                    abs(translation_length(gk) - k * l))
        assert worst_conj < 1e-8
        assert worst_pow < 1e-8
        assert worst_cross < 1e-8
        print(f"\nACCEPTANCE 9a: PASS - translation-length identities on 10^4 "
              f"elements per field: conjugation {worst_conj:.2e}, powers "
              f"{worst_pow:.2e}, eigenvalue-vs-arccosh {worst_cross:.2e} "
              f"(all < 1e-8) [{time.time() - t0:.0f}s]")

    def test_h3_isometry(self):
        from autrep.sl2 import H3Point, h3_distance, mobius_act
        t0 = time.time()
        worst = 0.0
        for field in ("real", "complex"):
            rng = np.random.default_rng(7)
            for _ in range(10_000):
                g = random_element(rng, field, 0.8)
                im = rng.normal() if field == "complex" else 0.0
                p = H3Point(complex(rng.normal(), im), math.exp(rng.normal()))
                q = H3Point(complex(rng.normal(), -im), math.exp(rng.normal()))
                d0 = h3_distance(p, q)
                d1 = h3_distance(mobius_act(g, p), mobius_act(g, q))
                worst = max(worst, abs(d0 - d1) / max(1.0, d0))
        assert worst < 1e-9
        print(f"\nACCEPTANCE 9b: PASS - H3 isometry invariance within 1e-9 on "
              f"10^4 point pairs per field (worst {worst:.2e}) "
              f"[{time.time() - t0:.0f}s]")
