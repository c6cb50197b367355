import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from autrep import _engine
from autrep.density import (
    DensityCertificate,
    SearchBudget,
    TimeCapError,
    _levels,
    certify_dense,
    links,
    omega_member,
    omega_tilde_search,
    opnorm,
    rational_angle_margin,
    redundant_heuristic,
    replay_certificate,
    strongly_redundant,
)
from autrep.freegroup import Word, parse_word
from autrep.sl2 import (
    GroupElement,
    Representation,
    ad_span_rank,
    evaluate,
    generator_table,
    random_element,
    random_su2,
)

BUDGET = SearchBudget(max_word_length=5, max_candidates=400, time_cap_s=30.0)


def rotation(theta):
    return GroupElement([[math.cos(theta), -math.sin(theta)],
                         [math.sin(theta), math.cos(theta)]])


def sanov_pair():
    return [GroupElement([[1, 2], [0, 1]]), GroupElement([[1, 0], [2, 1]])]


def dense_real_pair():
    return [rotation(0.5), GroupElement([[2, 1], [1, 1]])]


def loxodromic_near_identity_pair():
    # certifies through the near-identity witness: x1 is within 8.5e-4 of 1
    a = cmath.exp(6e-4 * (1 + 1j))
    return [GroupElement(np.array([[a, 0], [0, 1 / a]]), "complex"),
            GroupElement(np.array([[2, 1j], [1j, 0]]), "complex")]


@st.composite
def generator_tuples(draw):
    """Seeded real, complex or SU(2) tuples of rank 1-3; a noncompact tuple
    may have its first generator replaced by one within about 1e-5..1e-3
    of the identity."""
    field_tag = draw(st.sampled_from(["real", "complex", "su2"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    S = [random_element(rng, field_tag, draw(st.sampled_from([0.3, 0.8, 1.5])))
         for _ in range(draw(st.integers(1, 3)))]
    if field_tag != "su2" and draw(st.booleans()):
        S[0] = random_element(rng, field_tag, 10 ** draw(st.floats(-5, -3)))
    return S


def _word_stream(k: int, budget: SearchBudget, seed: int):
    """Reduced words over k symbols in breadth-first order, deterministically
    subsampled per length once counts exceed the candidate budget.  The
    stream depends only on (k, budget, seed), never on matrix values."""
    rng = np.random.default_rng(seed)
    per_length = max(budget.max_candidates // budget.max_word_length, 2 * k)
    level = [(v,) for i in range(1, k + 1) for v in (i, -i)]
    total = 0
    while level:
        if len(level) > per_length:
            idx = rng.choice(len(level), size=per_length, replace=False)
            emit = [level[i] for i in sorted(idx)]
        else:
            emit = level
        for w in emit:
            total += 1
            yield w
            if total >= budget.max_candidates:
                return
        if len(emit[0]) >= budget.max_word_length:
            return
        level = [w + (v,) for w in emit for i in range(1, k + 1) for v in (i, -i)
                 if v != -w[-1]]


class TestLevelStream:
    """The certificate search's level stream against a tuple-per-word
    reference: same words in the same order, and products equal to
    evaluate's bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 4), seed=st.integers(0, 2**16),
           max_word_length=st.integers(1, 5), max_candidates=st.integers(1, 300),
           field_tag=st.sampled_from(["real", "complex", "su2"]))
    @example(k=4, seed=0, max_word_length=1, max_candidates=5, field_tag="real")
    @example(k=3, seed=1, max_word_length=4, max_candidates=10, field_tag="complex")
    @example(k=2, seed=2, max_word_length=5, max_candidates=300, field_tag="su2")
    def test_matches_word_stream(self, k, seed, max_word_length, max_candidates, field_tag):
        budget = SearchBudget(max_word_length, max_candidates)
        rng = np.random.default_rng(seed)
        S = [random_element(rng, field_tag) for _ in range(k)]
        rep = Representation(S)
        want = list(_word_stream(k, budget, seed))
        levels, got = [], []
        for nib, parent, mats in _levels(generator_table(S), budget, seed):
            levels.append((nib, parent))
            for i in range(nib.shape[0]):
                if len(got) == len(want):
                    break
                letters = _engine.backtrack(levels, len(levels) - 1, i)
                got.append(letters)
                ref = evaluate(rep, Word(letters, k)).m
                assert mats[i].dtype == ref.dtype
                assert mats[i].tobytes() == ref.tobytes()
        assert got == want


class TestRationalAngleMargin:
    def test_rational_angles_have_zero_margin(self):
        assert rational_angle_margin(math.pi / 2) < 1e-12
        assert rational_angle_margin(math.pi / 3) < 1e-12

    def test_irrational_angle(self):
        # best q <= 64 approximation of 0.5/pi is 7/44, about 6.4e-5 away
        assert 1e-5 < rational_angle_margin(0.5) < 1e-4

    @given(st.one_of(
        st.floats(-10.0, 10.0),
        # near-rational angles: p/q plus a tiny offset
        st.tuples(st.integers(-400, 400), st.integers(1, 250),
                  st.floats(-1e-6, 1e-6)).map(lambda t: math.pi * (t[0] / t[1] + t[2]))),
        st.integers(1, 200))
    @settings(max_examples=500)
    def test_matches_scan_over_denominators(self, theta, q_max):
        x = theta / math.pi
        want = min(abs(x - round(x * q) / q) for q in range(1, q_max + 1))
        assert rational_angle_margin(theta, q_max) == want


class TestOpnorm:
    def test_matches_svd(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            want = np.linalg.svd(m, compute_uv=False)[0]
            assert abs(opnorm(m) - want) < 1e-10


class TestCertifyDense:
    def test_identity_alone_elementary(self):
        v = certify_dense([GroupElement.identity()], BUDGET)
        assert v.status == "likely_not_dense" and v.reason == "elementary"

    def test_irrational_rotation_plus_hyperbolic_dense(self):
        v = certify_dense(dense_real_pair(), BUDGET, seed=0)
        assert v.dense
        assert v.report["ad_rank"] == 9
        assert replay_certificate(v.certificate)

    def test_discrete_pair_never_dense(self):
        for seed in range(10):
            v = certify_dense(sanov_pair(), BUDGET, seed=seed)
            assert v.status != "dense"

    def test_certificate_json_round_trip(self):
        v = certify_dense(dense_real_pair(), BUDGET, seed=1)
        text = v.certificate.dumps()
        back = DensityCertificate.loads(text)
        assert replay_certificate(back)
        assert back.dumps() == text

    @settings(max_examples=60, deadline=None)
    @given(S=generator_tuples(),
           budget=st.sampled_from([SearchBudget(5, 400), SearchBudget(6, 2000)]),
           seed=st.sampled_from([0, 2]))
    @example(S=[GroupElement(np.diag([cmath.exp(1e-4 * (1 + 1j)), cmath.exp(-1e-4 * (1 + 1j))]),
                             "complex"),
                GroupElement(np.array([[2, 1j], [1j, 0]]), "complex")],
             budget=SearchBudget(5, 400), seed=2)
    def test_dense_certificates_replay(self, S, budget, seed):
        v = certify_dense(S, budget, seed)
        if v.dense:
            assert replay_certificate(DensityCertificate.loads(v.certificate.dumps()))

    def test_tampered_certificate_fails(self):
        v = certify_dense(dense_real_pair(), BUDGET, seed=2)
        obj = v.certificate.to_obj()
        obj["spanning_words"] = obj["spanning_words"][:2]
        assert not replay_certificate(DensityCertificate.from_obj(obj))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("field", ["spanning_words", "witness"])
    def test_overflowing_word_on_integer_generators_fails(self, field):
        # x1 repeated 800 times has entries near 10^334: its float product overflows, and
        # the replay fails instead of raising
        v = certify_dense(dense_real_pair(), BUDGET, seed=0)
        obj = v.certificate.to_obj()
        obj["generators"] = [[[2, 1], [1, 1]], [[1, 2], [0, 1]]]
        if field == "witness":
            obj["witness"]["word"] = " ".join(["x1"] * 800)
        else:
            obj["spanning_words"][0] = " ".join(["x1"] * 800)
        assert replay_certificate(DensityCertificate.from_obj(obj)) is False

    @pytest.mark.parametrize("pair, key, value", [
        (dense_real_pair, "kind", None),
        (dense_real_pair, "angle", None),
        (dense_real_pair, "q_max", None),
        (dense_real_pair, "word", None),
        (dense_real_pair, "angle", "0.5"),
        (dense_real_pair, "q_max", "many"),
        (dense_real_pair, "word", 7),
        (loxodromic_near_identity_pair, "companion_index", None),
        (loxodromic_near_identity_pair, "companion_index", 5),
        (loxodromic_near_identity_pair, "companion_index", [1]),
    ])
    def test_malformed_witness_fails(self, pair, key, value):
        v = certify_dense(pair(), BUDGET, seed=2)
        assert replay_certificate(v.certificate)
        obj = v.certificate.to_obj()
        if value is None:
            del obj["witness"][key]
        else:
            obj["witness"][key] = value
        assert not replay_certificate(DensityCertificate.from_obj(obj))

    def test_weak_denominator_bound_fails(self):
        # SL2(Z) is discrete; with q_max = 1 the order-4 word x1 (angle pi/2)
        # would pass as an irrational rotation
        S = [GroupElement([[0, -1], [1, 0]]), GroupElement([[1, 1], [0, 1]])]
        words = [parse_word(t, 2) for t in
                 ["x1", "x2", "x1 x2", "x2 x1", "x2 x2", "x1 x2 x2", "x2 x2 x1",
                  "x2 x1 x2", "x1 x2 x1 x2", "x2 x2 x2", "x1 x2 x2 x2", "x2 x1 x2 x2"]]
        assert ad_span_rank([evaluate(Representation(S), w) for w in words]) == 9
        witness = {"kind": "elliptic-irrational", "word": "x1", "angle": math.pi / 2,
                   "margin": 0.5, "q_max": 1}
        assert not replay_certificate(DensityCertificate("real", S, words, witness))

    @pytest.mark.parametrize("key", ["field", "generators", "spanning_words", "witness"])
    def test_from_obj_names_missing_key(self, key):
        obj = certify_dense(dense_real_pair(), BUDGET, seed=2).certificate.to_obj()
        del obj[key]
        with pytest.raises(ValueError, match=repr(key)):
            DensityCertificate.from_obj(obj)

    def test_monotone_under_extension(self):
        S = dense_real_pair()
        v = certify_dense(S, BUDGET, seed=3)
        assert v.dense
        v2 = certify_dense(S + [GroupElement.identity()], BUDGET, seed=3)
        assert v2.dense

    def test_su2_pair_dense(self):
        rng = np.random.default_rng(4)
        v = certify_dense([random_su2(rng), random_su2(rng)], BUDGET, seed=4)
        assert v.dense
        assert v.certificate.witness["kind"] == "elliptic-irrational"

    def test_cyclic_group_not_dense(self):
        g = GroupElement([[2, 1], [1, 1]])
        v = certify_dense([g, g @ g], BUDGET, seed=5)
        assert v.status == "likely_not_dense"
        assert v.reason == "elementary"

    def test_reducible_span_reason(self):
        # common fixed point at infinity: upper triangular pair is elementary
        S = [GroupElement([[2, 1], [0, 0.5]]), GroupElement([[1, 1], [0, 1]])]
        v = certify_dense(S, BUDGET, seed=6)
        assert v.status == "likely_not_dense"
        assert v.reason in ("elementary", "reducible-span")

    def test_conjugation_equivariance(self):
        S = dense_real_pair()
        h = GroupElement([[1.5, 0.25], [1.0, 5 / 6]])
        Sc = [h @ g @ h.inverse() for g in S]
        v1 = certify_dense(S, BUDGET, seed=7)
        v2 = certify_dense(Sc, BUDGET, seed=7)
        assert v1.status == v2.status == "dense"
        # the searched word stream is value-independent, so the spanning
        # words coincide and the certificates are conjugate
        w1 = [str(w.letters) for w in v1.certificate.spanning_words]
        w2 = [str(w.letters) for w in v2.certificate.spanning_words]
        assert w1 == w2

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            certify_dense([], BUDGET)

    def test_time_cap_raises(self):
        # test_irrational_rotation_plus_hyperbolic_dense: dense at a 30 s cap
        capped = SearchBudget(max_word_length=5, max_candidates=400, time_cap_s=1e-9)
        with pytest.raises(TimeCapError, match=r"time cap of 1e-09 s hit after 0 words"):
            certify_dense(dense_real_pair(), capped, seed=0)

    @pytest.mark.parametrize("cap", [float("nan"), 0.0, -1.0])
    def test_time_cap_must_be_positive(self, cap):
        with pytest.raises(ValueError):
            SearchBudget(6, 2000, cap)

    def test_report_has_no_truncated_flag(self):
        v = certify_dense(sanov_pair(), BUDGET, seed=0)
        assert "truncated" not in v.report

    def test_mixed_fields_rejected(self):
        with pytest.raises(ValueError):
            certify_dense([GroupElement.identity("real"),
                           GroupElement.identity("complex")], BUDGET)


class TestOmega:
    def test_superset_of_dense_stays_dense(self):
        v = omega_member(dense_real_pair(), GroupElement.identity(), BUDGET, seed=0)
        assert v.dense

    def test_cyclic_power_not_dense(self):
        g = GroupElement([[2, 1], [1, 1]])
        v = omega_member([g], g @ g, BUDGET, seed=0)
        assert not v.dense

    def test_elliptic_plus_hyperbolic(self):
        v = omega_member([rotation(0.5)], GroupElement([[2, 1], [1, 1]]), BUDGET, seed=0)
        assert v.dense


class TestOmegaTilde:
    def test_strongly_redundant_triple_has_witness(self):
        rng = np.random.default_rng(9)
        trip = [random_su2(rng) for _ in range(3)]
        res = omega_tilde_search(trip, BUDGET, seed=9)
        assert res.witness is not None
        # replay: each drop-one subtuple plus the witness is dense
        for i in range(3):
            sub = [trip[j] for j in range(3) if j != i] + [res.witness]
            assert certify_dense(sub, BUDGET, seed=9).dense

    def test_triangular_family_still_completable(self):
        # a common fixed point of S does not block: each drop-one pair is
        # nondiscrete (parabolic cascade), so a generic completion exists
        S = [GroupElement([[2, 1], [0, 0.5]]), GroupElement([[1, 1], [0, 1]]),
             GroupElement([[3, 1], [0, 1 / 3]])]
        res = omega_tilde_search(S, SearchBudget(5, 300, 20.0), seed=0)
        assert res.witness is not None

    def test_identity_padding_blocks(self):
        # dropping the only nontrivial coordinate leaves <id, id, g> = <g>,
        # cyclic for every candidate: structurally impossible
        rot = GroupElement(np.array([[0.6 + 0.8j, 0], [0, 0.6 - 0.8j]]), "su2")
        S = [GroupElement.identity("su2"), GroupElement.identity("su2"), rot]
        res = omega_tilde_search(S, SearchBudget(4, 150, 10.0), seed=0, max_attempts=4)
        assert res.witness is None
        assert "blocking_counts" in res.report

    def test_dense_pair_plus_identity(self):
        rng = np.random.default_rng(10)
        S = [random_su2(rng), random_su2(rng), GroupElement.identity("su2")]
        res = omega_tilde_search(S, BUDGET, seed=10)
        assert res.witness is not None

    def test_small_tuple_rejected(self):
        with pytest.raises(ValueError):
            omega_tilde_search(dense_real_pair(), BUDGET)


class TestStronglyRedundant:
    def test_random_su2_triple(self):
        rng = np.random.default_rng(11)
        rep = Representation([random_su2(rng) for _ in range(3)])
        out = strongly_redundant(rep, BUDGET, seed=11)
        assert out.strongly_redundant
        assert len(out.subtuple_verdicts) == 3

    def test_all_equal_images_false(self):
        rng = np.random.default_rng(12)
        g = random_su2(rng)
        rep = Representation([g, g, g])
        out = strongly_redundant(rep, BUDGET, seed=12)
        assert not out.strongly_redundant

    def test_identity_coordinate_detail(self):
        rng = np.random.default_rng(13)
        rep = Representation([random_su2(rng), random_su2(rng),
                              GroupElement.identity("su2")])
        out = strongly_redundant(rep, BUDGET, seed=13)
        # dropping coordinate 3 leaves the dense pair; dropping a dense-pair
        # member leaves pair-with-identity, which is cyclic-like
        assert out.subtuple_verdicts[2].dense
        assert not out.strongly_redundant

    def test_rank_guard(self):
        with pytest.raises(ValueError):
            strongly_redundant(Representation(dense_real_pair()), BUDGET)


class TestRedundantHeuristic:
    def test_strongly_redundant_gives_identity_witness(self):
        rng = np.random.default_rng(14)
        rep = Representation([random_su2(rng) for _ in range(3)])
        res = redundant_heuristic(rep, BUDGET, seed=14)
        assert res.status == "redundant"
        assert res.automorphism.is_identity()
        assert replay_certificate(res.certificate)

    def test_duplicate_coordinate(self):
        rng = np.random.default_rng(15)
        g, h = random_su2(rng), random_su2(rng)
        rep = Representation([g, g, h])
        res = redundant_heuristic(rep, BUDGET, seed=15)
        assert res.status == "redundant"
        # replay through the witness automorphism: the claimed subtuple of
        # the transformed representation is dense
        from autrep.sl2 import act
        moved = act(res.automorphism, rep)
        sub = [moved.images[j] for j in range(3) if j != res.dropped_index]
        assert certify_dense(sub, BUDGET, seed=15).dense

    def test_schottky_not_found(self):
        rep = Representation(sanov_pair())
        res = redundant_heuristic(rep, SearchBudget(5, 150, 20.0), seed=16,
                                  max_chain_length=1)
        assert res.status == "not_found"

    def test_cyclic_not_found(self):
        g = GroupElement.identity("su2")
        rep = Representation([g, g, g])
        res = redundant_heuristic(rep, SearchBudget(4, 60, 10.0), seed=17,
                                  max_chain_length=1)
        assert res.status == "not_found"


class TestLinks:
    def test_strongly_redundant_links_itself(self):
        rng = np.random.default_rng(18)
        rep = Representation([random_su2(rng) for _ in range(3)])
        out = links(rep, rep, BUDGET, seed=18)
        assert out.links
        assert len(out.per_k) == 2

    def test_identity_psi_fails_structurally(self):
        rng = np.random.default_rng(19)
        phi = Representation([random_su2(rng) for _ in range(3)])
        psi = Representation([GroupElement.identity("su2")] * 3)
        out = links(phi, psi, BUDGET, seed=19)
        assert not out.links
        # k = n-1 mixed tuple is phi-prefix plus psi(x_n) = identity: that
        # one may be dense, but k = 1 uses only psi coordinates
        assert not out.per_k[0].dense

    def test_random_dense_pair_links(self):
        rng = np.random.default_rng(20)
        phi = Representation([random_su2(rng) for _ in range(3)])
        psi = Representation([random_su2(rng) for _ in range(3)])
        out = links(phi, psi, BUDGET, seed=20)
        assert out.links

    def test_rank_mismatch(self):
        rng = np.random.default_rng(21)
        phi = Representation([random_su2(rng) for _ in range(3)])
        psi = Representation([random_su2(rng) for _ in range(2)])
        with pytest.raises(ValueError):
            links(phi, psi, BUDGET)
