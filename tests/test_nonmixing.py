import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autrep import _engine, jsonio, nonmixing
from autrep.freegroup import FreeAutomorphism, Word, apply, compose, format_word, reduce
from autrep.nonmixing import (
    M_MAX,
    TWISTING_WORDS,
    TwistingPreconditionError,
    _check_twisting_word,
    _scaled_word_products,
    build_fuchsian_4punctured,
    build_phi,
    demo_pipeline,
    find_twisting_exponent,
    int_evaluate,
    pair_graph_check,
    ps2_probe,
    puncture_whitehead_containment,
    twisted_pair,
)
from autrep.sl2 import (
    BASEPOINT,
    DetDriftError,
    GroupElement,
    Representation,
    evaluate,
    generator_table,
    h3_distance,
    mobius_act,
    random_element,
    rep_from_obj,
    rep_to_obj,
    translation_length,
)
from autrep.whitehead import build_graph

G1 = Word((2, 3, -2, -3), 3)
G2 = Word((1, 3, -1, -3), 3)
COLUMNS = ("col_length", "col_keys", "col_l1", "col_l2",
           "col_axis1", "col_axis2", "col_kfit1", "col_kfit2")


@pytest.fixture(scope="module")
def demo9():
    return demo_pipeline(9, 50.0, 2, True)


def real_pair():
    """A real pair with classes at trace exactly +-2 and one non-integral
    generator, so it has no integer images."""
    par = GroupElement([[1, 1], [0, 1]])
    hyp = GroupElement([[2, 1], [1, 1]])
    other = random_element(np.random.default_rng(1), "real", 0.8)
    return Representation([par, hyp, other]), Representation([hyp, par, other])


class TestFuchsian:
    def test_traces_exactly_two(self):
        rho0 = build_fuchsian_4punctured()
        for m in rho0.int_images:
            assert m[0][0] + m[1][1] == 2
        prod = int_evaluate(rho0.int_images, (1, 2, 3))
        assert prod == ((5, -4), (4, -3))
        assert prod[0][0] + prod[1][1] == 2

    def test_determinants_exactly_one(self):
        rho0 = build_fuchsian_4punctured()
        for m in rho0.int_images:
            assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1

    def test_puncture_classes(self):
        rho0 = build_fuchsian_4punctured()
        assert [format_word(c.canonical) for c in rho0.punctures] == \
            ["x1", "x2", "x3", "x1 x2 x3"]


def nielsen_phi(m, variant, g):
    """The twisting automorphism as a composition of Nielsen moves x_i ->
    x_i x_v: one per letter v of g^m on the distinguished generator d, after
    one x_i -> x_i d per other generator."""
    d = 1 if variant == 1 else 2
    n = g.rank
    gens = tuple(Word.generator(i, n) for i in range(1, n + 1))

    def right_mult(i, v):
        fwd, bwd = list(gens), list(gens)
        fwd[i - 1], bwd[i - 1] = Word((i, v), n), Word((i, -v), n)
        return FreeAutomorphism(fwd, bwd)

    phi = FreeAutomorphism.identity(n)
    for v in (g ** m).letters:
        phi = compose(phi, right_mult(d, v))
    for i in range(1, n + 1):
        if i != d:
            phi = compose(phi, right_mult(i, d))
    return phi


def random_twisting_words(count, seed):
    """(variant, g) for count random words, taking ranks 3, 4, 5 in turn,
    that avoid the variant's distinguished generator and pass
    _check_twisting_word; a word over the 2(n - 1) other letters has
    2(n - 1) to 4(n - 1) letters."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n, variant = 3 + len(out) % 3, int(rng.integers(1, 3))
        letters = [v for i in range(1, n + 1) if i != variant for v in (i, -i)]
        size = int(rng.integers(2 * (n - 1), 4 * (n - 1) + 1))
        g = Word(rng.choice(letters, size=size).tolist(), n)
        try:
            _check_twisting_word(g, variant)
        except TwistingPreconditionError:
            continue
        out.append((variant, g))
    return out


class TestBuildPhi:
    def test_variant1_images(self):
        phi = build_phi(1, 1, G1)
        assert format_word(phi.images[0]) == "x1 x2 x3 x2^-1 x3^-1"
        assert format_word(phi.images[1]) == "x2 x1 x2 x3 x2^-1 x3^-1"
        assert format_word(phi.images[2]) == "x3 x1 x2 x3 x2^-1 x3^-1"

    def test_variant2_swaps_roles(self):
        phi = build_phi(1, 2, G2)
        assert format_word(phi.images[1]) == "x2 x1 x3 x1^-1 x3^-1"
        assert format_word(phi.images[0]) == "x1 x2 x1 x3 x1^-1 x3^-1"

    def test_invertibility(self):
        phi = build_phi(2, 1, G1)
        for i in range(3):
            assert apply(phi, phi.inverse_images[i]).letters == (i + 1,)
            assert apply(phi.inverse(), phi.images[i]).letters == (i + 1,)

    def test_m_power(self):
        phi = build_phi(3, 1, G1)
        assert len(phi.images[0]) == 1 + 3 * 4

    @pytest.mark.parametrize("variant", [1, 2])
    def test_equals_nielsen_composition(self, variant):
        g = TWISTING_WORDS[variant - 1]
        for m in range(1, M_MAX + 1):
            phi, want = build_phi(m, variant, g), nielsen_phi(m, variant, g)
            assert phi.images == want.images
            assert phi.inverse_images == want.inverse_images

    def test_random_words_equal_nielsen_composition(self):
        words = random_twisting_words(24, seed=27)
        assert {v for v, _ in words} == {1, 2}
        for variant, g in words:
            for m in (1, 2, 3):
                phi, want = build_phi(m, variant, g), nielsen_phi(m, variant, g)
                assert phi.images == want.images, (variant, g, m)
                assert phi.inverse_images == want.inverse_images, (variant, g, m)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            build_phi(0, 1, G1)
        with pytest.raises(TwistingPreconditionError):
            build_phi(1, 1, Word((1, 2), 3))  # uses the distinguished generator
        with pytest.raises(TwistingPreconditionError):
            build_phi(1, 1, Word((2,), 3))  # graph on {x2,x3} vertices disconnected
        with pytest.raises(TwistingPreconditionError):
            build_phi(1, 2, G1)  # variant 2 must avoid x2
        with pytest.raises(ValueError, match="variant must be 1 or 2"):
            build_phi(1, 3, G1)
        with pytest.raises(TwistingPreconditionError, match="nontrivial"):
            build_phi(1, 1, Word((), 3))


class TestContainment:
    def test_identity_fails(self):
        rho0 = build_fuchsian_4punctured()
        W1 = build_graph([G1], 3)
        ok, details = puncture_whitehead_containment(
            FreeAutomorphism.identity(3), rho0.punctures, W1)
        assert not ok
        assert any(d.missing_edges for d in details)

    def test_smallest_m_is_measured(self):
        rho0 = build_fuchsian_4punctured()
        m = find_twisting_exponent(rho0.punctures, G1, G2)
        assert m == 2
        W1 = build_graph([G1], 3)
        ok1, _ = puncture_whitehead_containment(build_phi(1, 1, G1), rho0.punctures, W1)
        assert not ok1
        ok2, _ = puncture_whitehead_containment(build_phi(2, 1, G1), rho0.punctures, W1)
        assert ok2

    def test_monotone_missing_edge_report(self):
        rho0 = build_fuchsian_4punctured()
        W1 = build_graph([G1], 3)
        _, details = puncture_whitehead_containment(build_phi(1, 1, G1),
                                                    rho0.punctures, W1)
        bad = [d for d in details if not d.contained]
        assert bad
        for d in bad:
            assert set(d.missing_edges) <= W1.simple_edges()


class TestPairGraphCheck:
    def test_default_pair_true(self):
        assert pair_graph_check(G1, G2) is True

    def test_words_missing_a_generator_false(self):
        # both words over x2, x3 only: x1^pm isolated in the union
        assert pair_graph_check(G1, Word((3, 2, -3, -2), 3)) is False

    def test_rank4_spanning_words(self):
        # positive 6-letter words whose graphs are 6-cycles on their factors
        g1 = Word((2, 3, 2, 4, 3, 4), 4)
        g2 = Word((1, 3, 1, 4, 3, 4), 4)
        assert pair_graph_check(g1, g2) is True

    def test_precondition_failure_reported(self):
        # the graph of x2 x3 is two disjoint edges on its own vertices
        with pytest.raises(TwistingPreconditionError) as ei:
            pair_graph_check(Word((2, 3), 3), G2)
        assert "g1" in str(ei.value)


class TestTwistedPair:
    def test_parabolicity_conserved_exactly(self):
        rho0 = build_fuchsian_4punctured()
        pair = twisted_pair(rho0, 2)
        for ints, phi in ((pair.int_images_1, pair.phi1), (pair.int_images_2, pair.phi2)):
            for c in rho0.punctures:
                img = apply(phi, c.canonical)
                m = int_evaluate(ints, img.letters)
                assert abs(m[0][0] + m[1][1]) == 2

    def test_puncture_images_evaluate_to_originals(self):
        rho0 = build_fuchsian_4punctured()
        pair = twisted_pair(rho0, 2)
        img = apply(pair.phi1, Word((1,), 3))
        assert int_evaluate(pair.int_images_1, img.letters) == rho0.int_images[0]

    def test_generic_word_not_parabolic(self):
        rho0 = build_fuchsian_4punctured()
        pair = twisted_pair(rho0, 2)
        m = int_evaluate(pair.int_images_1, (1, 2))
        assert abs(m[0][0] + m[1][1]) != 2

    def test_integer_entries_preserved(self):
        rho0 = build_fuchsian_4punctured()
        pair = twisted_pair(rho0, 2)
        for g in pair.rho1.images:
            assert np.array_equal(g.m, np.round(g.m))

    def test_containment_precondition_enforced(self):
        rho0 = build_fuchsian_4punctured()
        with pytest.raises(TwistingPreconditionError):
            twisted_pair(rho0, 1)


class TestScaledProducts:
    def test_matches_direct_products(self):
        rng = np.random.default_rng(0)
        table = generator_table([random_element(rng, "real", 0.6) for _ in range(2)])
        W = rng.integers(0, 4, size=(50, 6)).astype(np.uint8)
        P, E = _scaled_word_products(W, table)
        for r in range(50):
            direct = np.eye(2)
            for j in range(6):
                direct = direct @ table[W[r, j]]
            assert np.abs(P[r] * np.exp2(float(E[r])) - direct).max() < 1e-9 * max(
                1.0, float(np.abs(direct).max()))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["real", "complex"]), st.integers(0, 2**32 - 1),
           st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), min_size=1, max_size=30))
    def test_scaled_product_matches_evaluate(self, field, seed, letters):
        rng = np.random.default_rng(seed)
        rep = Representation([random_element(rng, field, 1.5) for _ in range(3)])
        w = reduce(letters, 3)
        if not w.letters:
            return
        W = np.array([[_engine.nib_of_letter(v) for v in w.letters]], dtype=np.uint8)
        P, E = _scaled_word_products(W, generator_table(rep.images))
        assert np.abs(P[0]).max() < 1.0 <= 2 * np.abs(P[0]).max()
        want = evaluate(rep, w).m
        # rounding grows at most with the product of the factor norms
        bound = math.prod(np.abs(rep.images[abs(v) - 1].m).sum() for v in w.letters)
        assert np.abs(P[0] * np.exp2(float(E[0])) - want).max() <= 1e-12 * bound

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["real", "complex"]), st.integers(0, 2**32 - 1),
           st.permutations([1, 2, 97]), st.integers(1, 12), st.integers(1, 12))
    def test_bits_match_allocating_reference(self, field, seed, sizes, l1, l2):
        # two calls of different widths: nothing may carry over between them
        rng = np.random.default_rng(seed)
        table = generator_table([random_element(rng, field, 1.5) for _ in range(3)])
        for N, l in ((sizes[0], l1), (sizes[1], l2)):
            W = rng.integers(0, 6, size=(N, l)).astype(np.uint8)
            P, E = _scaled_word_products(W, table)
            want_P, want_E = reference_word_products(W, table)
            assert P.tobytes() == want_P.tobytes()
            assert np.array_equal(E, want_E)

    def test_rejects_letters_beyond_the_table(self):
        table = generator_table([GroupElement.identity()] * 3)
        with pytest.raises(IndexError):
            _scaled_word_products(np.array([[0, 6]], dtype=np.uint8), table)
        with pytest.raises(IndexError):
            nonmixing._axis_checks(np.array([[0, 6]], dtype=np.uint8), table, 1, 5.0)

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(["real", "complex"]), st.integers(0, 2**32 - 1),
           st.integers(0, 40), st.integers(0, 9), st.integers(1, 4),
           st.sampled_from(["sorted", "drawn"]))
    def test_shared_prefixes_match_reference(self, field, seed, N, l, prefixes, order):
        # rows are one of a few prefixes cut at a random letter, then random
        # letters; drawn with replacement, so rows repeat, and either sorted
        # (as the probe's rows are) or left in drawn order
        rng = np.random.default_rng(seed)
        table = generator_table([random_element(rng, field, 1.5) for _ in range(3)])
        base = rng.integers(0, 6, size=(prefixes, l))[rng.integers(0, prefixes, size=N)]
        cut = rng.integers(0, l + 1, size=(N, 1))
        W = np.where(np.arange(l) < cut, base, rng.integers(0, 6, size=(N, l)))
        W = W[rng.integers(0, max(N, 1), size=N)].astype(np.uint8)
        if order == "sorted":
            W = W[sorted(range(N), key=lambda r: W[r].tobytes())]
        P, E = _scaled_word_products(W, table)
        want_P, want_E = reference_word_products(W, table)
        assert P.shape == want_P.shape and P.tobytes() == want_P.tobytes()
        assert E.dtype == want_E.dtype and np.array_equal(E, want_E)

    def test_each_distinct_prefix_is_stepped_once(self, monkeypatch):
        # per slot the steps cover each distinct (block, prefix) pair once:
        # 27,470 prefixes for the 122,655 letters of the F3 L<=8 class rows
        stepped = []
        step = nonmixing._scaled_step

        def spy(P, *args):
            stepped.append(P.shape[1])
            return step(P, *args)
        monkeypatch.setattr(nonmixing, "_scaled_step", spy)
        pair = twisted_pair(build_fuchsian_4punctured(), 2)
        report = ps2_probe(pair.rho1, pair.rho2, 8, axis_check=False)
        b = _engine.bits_per_letter(3)
        distinct = letters = 0
        for _, _, l, W in nonmixing._blocks(report.col_length, report.col_keys, b):
            rows = [tuple(row) for row in W.tolist()]
            distinct += len({row[:j] for row in rows for j in range(1, l + 1)})
            letters += len(rows) * l
        assert (distinct, letters) == (27_470, 122_655)
        assert sum(stepped) == 2 * distinct


def reference_word_products(W, table):
    """The scaled products with fresh arrays at every step: the four entry
    products stacked, then the power of two of each column's entry maximum
    moved into the exponent."""
    N, l = W.shape
    comp = table.reshape(-1, 4).T
    P = np.zeros((4, N), dtype=table.dtype)
    P[[0, 3]] = 1.0
    E = np.zeros(N, dtype=np.int64)
    for j in range(l):
        a, b, c, d = P
        ga, gb, gc, gd = comp[:, W[:, j]]
        P = np.stack((a * ga + b * gc, a * gb + b * gd, c * ga + d * gc, c * gb + d * gd))
        _, ex = np.frexp(np.abs(P).max(axis=0))
        E += ex
        P *= np.exp2(-ex.astype(float))
    return P.T.reshape(N, 2, 2), E


def _mul2(A, B):
    # written out: numpy's `@` on 2x2 float64 goes through BLAS, whose fused
    # multiply-adds round differently from a separate product and sum
    (a, b), (c, d) = A
    (e, f), (g, h) = B
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _distance(f2, e):
    # d = arccosh(||seg||_F^2 / 2) for seg = mant * 2^e, in log scale when long
    logX = np.log(np.maximum(f2 / 2.0, 1e-300)) + e * (2.0 * math.log(2.0))
    return np.where(logX < 30.0,
                    np.arccosh(np.maximum(np.exp(np.minimum(logX, 30.0)), 1.0)),
                    logX + math.log(2.0))


def scalar_axis_checks(W, table, window, K):
    """Every pair 0 <= s < t <= window*l, each segment multiplied out on its
    own from its letters, one row at a time, with a power-of-two rescale
    after every letter."""
    N, l = W.shape
    T = window * l
    mats = table.tolist()
    ok = np.ones(N, dtype=bool)
    kfit = np.zeros(N)
    for r in range(N):
        f2, exps, deltas = [], [], []
        for s in range(T):
            P, e = ((1.0, 0.0), (0.0, 1.0)), 0
            for t in range(s + 1, T + 1):
                P = _mul2(P, mats[W[r, (t - 1) % l]])
                ex = math.frexp(max(abs(x) for row in P for x in row))[1]
                e += ex
                P = tuple(tuple(x * 2.0 ** -ex for x in row) for row in P)
                f2.append(sum(abs(x) * abs(x) for row in P for x in row))
                exps.append(e)
                deltas.append(float(t - s))
        d = _distance(np.array(f2), np.array(exps, dtype=np.int64))
        delta = np.array(deltas)
        ok[r] = np.all((d <= K * delta + K) & (d >= delta / K - K))
        k_low = (-d + np.sqrt(d * d + 4.0 * delta)) / 2.0
        kfit[r] = max(0.0, float(np.max(np.maximum(d / (delta + 1.0), k_low))))
    return ok, kfit


def verdict_entries(rng, k, nb, where):
    """(k, nb) log X entries a few ulps apart per column: around values
    spread over [1e-6, 50], around 30 ("switch") or around 0 ("clamp")."""
    if where == "spread":
        base = 10.0 ** rng.uniform(-6, 1.7, size=nb)
        logX = base + rng.integers(-50, 51, size=(k, nb)) * np.spacing(base)
        logX[:, rng.random(nb) < 0.3] *= rng.uniform(0.2, 2.0)
        return logX
    base, ulp = (30.0, np.spacing(30.0)) if where == "switch" else (0.0, 2.0 ** -52)
    return base + rng.integers(-8, 9, size=(k, nb)) * ulp


def every_entry_verdicts(logX, delta, K):
    """Each column's interval test and fit from every entry's own distance,
    and the distances."""
    d = np.where(logX < 30.0,
                 np.arccosh(np.maximum(np.exp(np.minimum(logX, 30.0)), 1.0)),
                 logX + math.log(2.0))
    good = ((d <= K * delta + K) & (d >= delta / K - K)).all(axis=0)
    fit = np.maximum(d / (delta + 1.0), (-d + np.sqrt(d * d + 4.0 * delta)) / 2.0)
    return good, fit.max(axis=0), d


def cyclic_rows(rng, N, l, k2=6):
    """N random cyclically reduced rows of nibbles (nibble c ^ 1 inverts c)."""
    rows = []
    while len(rows) < N:
        row = [int(rng.integers(k2))]
        while len(row) < l:
            c = int(rng.integers(k2))
            if c != row[-1] ^ 1:
                row.append(c)
        if l == 1 or row[-1] != row[0] ^ 1:
            rows.append(row)
    return np.array(rows, dtype=np.uint8)


class TestAxisChecks:
    # the segment table holds words of up to 6, 5 and 4 letters at ranks 2,
    # 3 and 4, so T = window * l from 1 to 24 covers blocks that only look
    # up, and blocks that look up and then step
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["real", "complex"]), st.integers(0, 2**32 - 1),
           st.integers(1, 8), st.sampled_from([1, 2, 3]), st.integers(1, 4),
           st.sampled_from([2.0, 5.0, 50.0]), st.sampled_from([2, 3, 4]))
    def test_matches_scalar_oracle(self, field, seed, l, window, N, K, rank):
        rng = np.random.default_rng(seed)
        table = generator_table([random_element(rng, field, 1.0) for _ in range(rank)])
        W = cyclic_rows(rng, N, l, k2=2 * rank)
        ok, kfit = nonmixing._axis_checks(W, table, window, K)
        want_ok, want_kfit = scalar_axis_checks(W, table, window, K)
        assert np.array_equal(ok, want_ok)
        if field == "real":
            assert np.array_equal(kfit, want_kfit)
        else:
            np.testing.assert_allclose(kfit, want_kfit, rtol=1e-12, atol=0)

    def test_rows_across_block_seams(self):
        rng = np.random.default_rng(3)
        table = generator_table([random_element(rng, "real", 1.0) for _ in range(3)])
        l = 8
        N = 2 * (nonmixing.AXIS_BLOCK // l) + 3
        W = cyclic_rows(rng, N, l)
        ok, kfit = nonmixing._axis_checks(W, table, 1, 3.0)
        want_ok, want_kfit = scalar_axis_checks(W, table, 1, 3.0)
        assert 0 < ok.sum() < N
        assert np.array_equal(ok, want_ok)
        assert np.array_equal(kfit, want_kfit)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 6),
           st.integers(1, 24), st.sampled_from([2.0, 5.0, 50.0]),
           st.sampled_from(["spread", "switch", "clamp"]))
    def test_step_verdicts_equal_every_entry(self, seed, k, nb, delta, K, where):
        # entries a few ulps apart: the falling branch of the fit is not
        # monotone in rounding there, which reading it at the min alone misses.
        # "switch" puts columns on both sides of log X = 30, where the distance
        # changes formula; "clamp" puts them around 0, where exp(log X) meets
        # the max(., 1) clamp.
        logX = verdict_entries(np.random.default_rng(seed), k, nb, where)
        good, fit = nonmixing._step_verdicts([logX], np.array([delta]), K)
        want_good, want_fit, _ = every_entry_verdicts(logX, delta, K)
        assert np.array_equal(good[0], want_good)
        assert fit[0].tobytes() == want_fit.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 24), st.integers(1, 6),
           st.sampled_from([2.0, 5.0, 50.0]))
    def test_step_verdicts_over_many_deltas_equal_every_entry(self, seed, T, nb, K):
        # deltas 1..T in one call, each with its own number of offsets, as
        # _axis_checks makes it; one delta at least is "clamp", whose columns
        # are all near: the falling branch of the fit beats the rising one
        rng = np.random.default_rng(seed)
        wheres = rng.choice(["spread", "switch", "clamp"], size=T)
        wheres[rng.integers(T)] = "clamp"
        logX = [verdict_entries(rng, int(rng.integers(1, 9)), nb, w) for w in wheres]
        good, fit = nonmixing._step_verdicts(logX, np.arange(1, T + 1), K)
        assert good.shape == fit.shape == (T, nb)
        falling_wins = False
        for i, x in enumerate(logX):
            want_good, want_fit, d = every_entry_verdicts(x, i + 1, K)
            assert np.array_equal(good[i], want_good)
            assert fit[i].tobytes() == want_fit.tobytes()
            lo, hi = d.min(axis=0), d.max(axis=0)
            falling_wins |= bool(((-lo + np.sqrt(lo * lo + 4.0 * (i + 1))) / 2.0
                                  >= hi / (i + 2.0)).any())
        assert falling_wins

    def test_result_does_not_depend_on_axis_block(self, monkeypatch):
        # a short last block must not read what a longer one left behind
        rng = np.random.default_rng(5)
        c1, c2 = (Representation([random_element(rng, "complex", 0.8) for _ in range(3)])
                  for _ in range(2))
        # K at which some rows pass the axis check and some fail; L<=6 keeps
        # the one-row blocks to a few seconds
        probes = [lambda: demo_pipeline(6, 5.0)[0], lambda: ps2_probe(c1, c2, 5, K=2.0)]
        axis_columns = ("col_axis1", "col_axis2", "col_kfit1", "col_kfit2")
        # nor on the segment table: 1 entry holds only the empty word, so
        # every segment is stepped; 6^6 entries hold the words of up to 6
        # letters, so the blocks of lengths 1-3 (T = 2l <= 6) only look up
        patches = [("AXIS_BLOCK", 37), ("AXIS_BLOCK", 1), ("AXIS_TABLE", 1), ("AXIS_TABLE", 6 ** 6)]
        for probe in probes:
            want = probe()
            assert 0 < want.axis_pass_count_1 < want.total_classes
            for name, value in patches:
                monkeypatch.setattr(nonmixing, name, value)
                got = probe()
                for c in axis_columns:
                    assert getattr(got, c).tobytes() == getattr(want, c).tobytes(), (name, value, c)
                monkeypatch.undo()
        for cap, d0 in ((1, 0), (6 ** 6, 6), (6 ** 6 - 1, 5)):
            monkeypatch.setattr(nonmixing, "AXIS_TABLE", cap)
            logs, P, E = nonmixing._segment_table(np.zeros((6, 2, 2)))
            assert [x.size for x in logs] == [6 ** j for j in range(d0 + 1)]
            assert P.shape == (4, 6 ** d0) and E.shape == (6 ** d0,)


# nan, +-inf, +-0.0, the extreme subnormals and normals, and values on both
# sides of the switch of %.6g and %.17g to exponent form
EDGE_FLOATS = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
               2.2250738585072014e-308, 1.7976931348623157e308, 1e-4, 9.99999e-5, 1e-5,
               999999.4, 999999.5, 1e6, 1e16, 99999999999999984.0, 1e17, 0.1, 1 / 3]
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True,
                      width=64) | st.sampled_from(EDGE_FLOATS)


class TestFormatColumn:
    # arbitrary columns, and columns drawn from a pool of at most four values,
    # heavily repeated like the axis and K_fit columns, whose texts are
    # gathered from one text per distinct value; the reversed column is a
    # strided view, as the walk writer's real and imaginary parts are
    @given(st.one_of(st.lists(ANY_FLOAT, max_size=60),
                     st.lists(ANY_FLOAT, min_size=1, max_size=4).flatmap(
                         lambda pool: st.lists(st.sampled_from(pool), max_size=300))))
    @settings(max_examples=300, deadline=None)
    def test_bulk_formatter_equals_format(self, values):
        col = np.array(values, dtype=np.float64)
        for spec in (".17g", ".6g"):
            want = [f"{v:{spec}}" for v in values]
            assert jsonio.format_column(col, "%" + spec) == want
            assert jsonio.format_column(col[::-1], "%" + spec) == want[::-1]

    @given(st.lists(st.booleans(), max_size=50))
    def test_bool_column_as_digits(self, values):
        col = np.array(values, dtype=bool)
        want = [str(int(v)) for v in values]
        assert jsonio.format_column(col, "%d") == want


class TestProbe:
    def test_diagonal_oracle(self):
        # diagonal rep with prime eigenvalues: translation length of a class
        # is exactly 2|e1 ln2 + e2 ln3 + e3 ln5| from the exponent vector
        diag = [GroupElement(np.diag([float(p), 1.0 / p])) for p in (2, 3, 5)]
        rep = Representation(diag)
        rpt = ps2_probe(rep, rep, 5, K=60.0, window=2)
        logs = np.array([math.log(2), math.log(3), math.log(5)])
        b = _engine.bits_per_letter(3)
        for i in range(rpt.total_classes):
            l = int(rpt.col_length[i])
            row = _engine.unpack_keys(rpt.col_keys[i:i + 1], l, b)[0]
            e = np.zeros(3)
            for nib in row:
                v = _engine.letter_of_nib(int(nib))
                e[abs(v) - 1] += 1 if v > 0 else -1
            want = 2 * abs(float(e @ logs))
            assert abs(rpt.col_l1[i] - want) < 1e-8 * max(1.0, want)
        assert rpt.min_max_ratio > 0
        assert rpt.zero_ratio_count_1 == 0

    def test_parabolic_coordinate_gives_zero_witness(self):
        par = GroupElement([[1, 1], [0, 1]])
        hyp = GroupElement([[2, 1], [1, 1]])
        other = GroupElement([[1, 0], [1, 1]])
        rho1 = Representation([par, hyp, other])
        rho2 = Representation([hyp, par, other])
        rpt = ps2_probe(rho1, rho2, 3, K=50.0, window=2)
        assert rpt.zero_ratio_count_1 > 0
        assert "x1" in rpt.zero_ratio_examples_1
        assert "x2" in rpt.zero_ratio_examples_2

    def test_lengths_match_scalar_translation_length(self):
        rho0 = build_fuchsian_4punctured()
        pair = twisted_pair(rho0, 2)
        rpt = ps2_probe(pair.rho1, pair.rho2, 4, K=50.0, window=2)
        b = _engine.bits_per_letter(3)
        for i in range(rpt.total_classes):
            l = int(rpt.col_length[i])
            row = _engine.unpack_keys(rpt.col_keys[i:i + 1], l, b)[0]
            letters = tuple(_engine.letter_of_nib(int(x)) for x in row)
            m = int_evaluate(pair.int_images_1, letters)
            ge = GroupElement(np.array(m, dtype=float))
            assert abs(translation_length(ge) - rpt.col_l1[i]) < 1e-9 * max(
                1.0, rpt.col_l1[i])

    @staticmethod
    def _assert_lengths_match_translation_length(rep, length_cap):
        rpt = ps2_probe(rep, rep, length_cap, axis_check=False)
        b = _engine.bits_per_letter(rep.rank)
        for i in range(rpt.total_classes):
            W = _engine.unpack_keys(rpt.col_keys[i:i + 1], int(rpt.col_length[i]), b)
            want = translation_length(evaluate(rep, _engine.decode_rows(W, rep.rank)[0]))
            assert abs(rpt.col_l1[i] - want) < 1e-9 * max(1.0, want)
        return rpt

    @pytest.mark.parametrize("seed", [5, 6, 7, 8])
    def test_complex_lengths_match_scalar_translation_length(self, seed):
        rng = np.random.default_rng(seed)
        rep = Representation([random_element(rng, "complex", 0.8) for _ in range(3)])
        self._assert_lengths_match_translation_length(rep, 5)

    def test_trace_2i_is_loxodromic_not_parabolic(self):
        # |trace| = 2, but the eigenvalue i(1 + sqrt 2) has modulus 1 + sqrt 2
        lam = 1j * (1 + math.sqrt(2))
        rng = np.random.default_rng(9)
        rep = Representation([GroupElement(np.diag([lam, 1 / lam]), "complex")]
                             + [random_element(rng, "complex", 0.8) for _ in range(2)])
        rpt = self._assert_lengths_match_translation_length(rep, 3)
        assert rpt.zero_ratio_count_1 == 0
        assert np.isclose(rpt.col_l1, 2 * math.log(1 + math.sqrt(2)), rtol=1e-12).any()

    def test_float_lengths_are_pinned(self):
        # sha256 of col_l1 and col_l2 at L<=7 as computed when the probe also
        # ran a tolerance-band pass near trace +-2 without integer images;
        # the real triple has classes at trace exactly +-2 (x1, x2 parabolic)
        rng = np.random.default_rng(3)
        c1, c2 = (Representation([random_element(rng, "complex", 0.8) for _ in range(3)])
                  for _ in range(2))
        for rho1, rho2, digest in [
            (*real_pair(), "e0485e1b2a1abce23b53cf0cc613ab34856c92e8bb2448ebe064a325155fae44"),
            (c1, c2, "89557e4711203075a44037ef62a7ec6c4f490a4529797e38633229f4dcb383e6"),
        ]:
            rpt = ps2_probe(rho1, rho2, 7, axis_check=False)
            h = hashlib.sha256(rpt.col_l1.tobytes())
            h.update(rpt.col_l2.tobytes())
            assert rpt.total_classes == 4985
            assert h.hexdigest() == digest

    def test_recheck_gives_exact_hyperbolic_length(self):
        # forged float traces within 1e-3 of 2 at exponent 0: under the
        # Fuchsian images x1 x2 has exact trace -6, so it gets the hyperbolic
        # length of |t| = 6, and x1 exact trace 2, so it gets exactly 0
        ints = build_fuchsian_4punctured().int_images
        assert int_evaluate(ints, (1, 2)) == ((-7, 2), (-4, 1))
        for letters, want in (((1, 2), 2.0 * math.log(3.0 + 2.0 * math.sqrt(2.0))),
                              ((1,), 0.0)):
            W = np.array([[_engine.nib_of_letter(v) for v in letters]], dtype=np.uint8)
            lengths = np.array([1.0])
            nonmixing._near_parabolic_recheck(lengths, np.array([2.0 + 5e-4]),
                                              np.zeros(1, dtype=np.int64), W, ints)
            assert lengths[0] == want, letters

    def test_min_max_ratio_at_equals_smaller_caps(self):
        pair = twisted_pair(build_fuchsian_4punctured(), 2)
        rpt = ps2_probe(pair.rho1, pair.rho2, 7, axis_check=False)
        for cap in range(1, 8):
            want = ps2_probe(pair.rho1, pair.rho2, cap, axis_check=False).min_max_ratio
            assert rpt.min_max_ratio_at(cap) == want, cap

    def test_axis_distances_match_mobius(self):
        # moderate-entry representation: the orbit-point reference route is
        # numerically trustworthy there (for the twisted pair the points
        # converge to a boundary point and differencing them underflows;
        # the probe's segment-product route is the stable one)
        rho0 = build_fuchsian_4punctured()
        letters = (1, 2)
        pts = [BASEPOINT]
        cur = GroupElement.identity()
        for t in range(4):
            g = rho0.rep.images[letters[t % 2] - 1]
            cur = cur @ g
            pts.append(mobius_act(GroupElement(cur.m.astype(complex), "complex"),
                                  BASEPOINT))
        table = np.empty((6, 2, 2))
        for i, g in enumerate(rho0.rep.images):
            table[2 * i] = g.m
            table[2 * i + 1] = g.inverse().m
        from autrep.nonmixing import _axis_checks
        W = np.array([[0, 2]], dtype=np.uint8)
        ok, kfit = _axis_checks(W, table, 2, 1e9)
        assert ok[0]
        # the best-fit K must cover the true pairwise distances
        worst = 0.0
        for s in range(4):
            for t in range(s + 1, 5):
                d = h3_distance(pts[s], pts[t])
                delta = t - s
                worst = max(worst, d / (delta + 1.0),
                            (-d + math.sqrt(d * d + 4 * delta)) / 2.0)
        assert kfit[0] == pytest.approx(worst, rel=1e-9)

    def test_report_columns_cover_enumeration(self):
        from autrep.whitehead import primitive_class_count
        rho0 = build_fuchsian_4punctured()
        pair = twisted_pair(rho0, 2)
        rpt = ps2_probe(pair.rho1, pair.rho2, 5, K=50.0, window=2, axis_check=False)
        want = primitive_class_count(3, 5)
        assert rpt.counts_by_length == want
        assert rpt.total_classes == sum(want.values())

    def test_write_csv_rejects_another_rank(self, tmp_path):
        # rank 2 would decode the class x3 of this rank-3 report as x1
        pair = twisted_pair(build_fuchsian_4punctured(), 2)
        rpt = ps2_probe(pair.rho1, pair.rho2, 2, axis_check=False)
        with pytest.raises(ValueError, match="rank 2"):
            rpt.write_csv(str(tmp_path / "rows.csv"), 2)
        assert not (tmp_path / "rows.csv").exists()

    def test_columns_do_not_depend_on_block_rows(self, monkeypatch):
        pair = twisted_pair(build_fuchsian_4punctured(), 2)
        want = ps2_probe(pair.rho1, pair.rho2, 6, K=5.0, window=2)
        monkeypatch.setattr(nonmixing, "BLOCK_ROWS", 97)
        got = ps2_probe(pair.rho1, pair.rho2, 6, K=5.0, window=2)
        assert 0 < want.axis_pass_count_1 < want.total_classes
        for c in COLUMNS:
            assert np.array_equal(getattr(got, c), getattr(want, c)), c
        assert got.to_obj() == want.to_obj()

    def test_reports_compare_by_summary_and_columns(self):
        pair = twisted_pair(build_fuchsian_4punctured(), 2)
        a = ps2_probe(pair.rho1, pair.rho2, 3)
        b = ps2_probe(pair.rho1, pair.rho2, 3)
        assert a == b and not a != b
        b.col_l1 = b.col_l1.copy()
        b.col_l1[1] += 1.0
        assert a != b and b != a
        assert a.to_obj() == b.to_obj()
        assert a != a.to_obj()
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)

    def test_csv_and_json(self, tmp_path):
        rho0 = build_fuchsian_4punctured()
        pair = twisted_pair(rho0, 2)
        rpt = ps2_probe(pair.rho1, pair.rho2, 3, K=50.0, window=2)
        path = tmp_path / "rows.csv"
        rpt.write_csv(str(path), 3, "manifest: {}")
        lines = path.read_text().splitlines()
        assert len(lines) == 2 + rpt.total_classes
        assert lines[1].split(",")[0] == "class"
        # the block decoder against a row-by-row scalar decode
        b = _engine.bits_per_letter(3)
        for i, line in enumerate(lines[2:]):
            l = int(rpt.col_length[i])
            row = _engine.unpack_keys(rpt.col_keys[i:i + 1], l, b)[0]
            w = Word(tuple(_engine.letter_of_nib(int(x)) for x in row), 3)
            assert line.split(",")[:2] == [format_word(w), str(l)]
        obj = rpt.to_obj()
        assert obj["total_classes"] == rpt.total_classes

    @staticmethod
    def _per_row_csv(rpt, path, n, manifest_line):
        """The row-at-a-time f-string writer that write_csv replaced."""
        r1, r2 = rpt.ratios()
        mx = np.maximum(r1, r2)
        b = _engine.bits_per_letter(n)
        with open(path, "w") as f:
            f.write(f"# {manifest_line}\n")
            f.write("class,length,l1,l2,r1,r2,max_ratio,axis_pass_1,axis_pass_2,"
                    "K_fit_1,K_fit_2\n")
            for i in range(rpt.total_classes):
                l = int(rpt.col_length[i])
                w = _engine.decode_rows(_engine.unpack_keys(rpt.col_keys[i:i + 1], l, b), n)[0]
                f.write(f"{format_word(w)},{l},"
                        f"{rpt.col_l1[i]:.17g},{rpt.col_l2[i]:.17g},"
                        f"{r1[i]:.17g},{r2[i]:.17g},{mx[i]:.17g},"
                        f"{int(rpt.col_axis1[i])},{int(rpt.col_axis2[i])},"
                        f"{rpt.col_kfit1[i]:.6g},{rpt.col_kfit2[i]:.6g}\n")

    # K = 5 mixes passing and failing axis checks; 97 rows puts block seams
    # inside every length from 5 on, 1 row makes every block a single row,
    # while 40,000 rows (the writer cuts its blocks to 4096) exceed all 353
    # classes, so each length is one block; without the axis check every
    # K_fit is 0
    @pytest.mark.parametrize("K,block_rows,axis_check", [
        pytest.param(50.0, 40_000, True, id="50.0-40000"),
        pytest.param(5.0, 97, True, id="5.0-97"),
        pytest.param(5.0, 1, True, id="5.0-1"),
        pytest.param(50.0, 40_000, False, id="50.0-40000-no_axis_check")])
    def test_csv_bytes_equal_per_row_writer(self, tmp_path, monkeypatch, K, block_rows,
                                            axis_check):
        pair = twisted_pair(build_fuchsian_4punctured(), 2)
        rpt = ps2_probe(pair.rho1, pair.rho2, 5, K=K, window=2, axis_check=axis_check)
        assert (np.unique(rpt.col_kfit1).size == 1) == (not axis_check)
        want, got = tmp_path / "want.csv", tmp_path / "got.csv"
        self._per_row_csv(rpt, want, 3, "manifest: {}")
        monkeypatch.setattr(nonmixing, "BLOCK_ROWS", block_rows)
        rpt.write_csv(str(got), 3, "manifest: {}")
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("rho2", [
        Representation([GroupElement(np.diag([float(p), 1.0 / p])) for p in (2, 3)]),
        Representation([GroupElement(np.diag([float(p), 1.0 / p]), "complex")
                        for p in (2, 3, 5)]),
    ], ids=["rank", "field"])
    def test_rejects_a_mismatched_pair(self, rho2):
        rep = Representation([GroupElement(np.diag([float(p), 1.0 / p])) for p in (2, 3, 5)])
        with pytest.raises(ValueError, match="must share rank and field"):
            ps2_probe(rep, rho2, 3)

    @pytest.mark.parametrize("window", [2.0, True, 0, "2"])
    def test_rejects_a_window_before_enumerating(self, monkeypatch, window):
        def enumerate_(*args):
            raise AssertionError("enumerated")
        monkeypatch.setattr(_engine.PackedEngine, "primitive_class_keys", enumerate_)
        rep = Representation([GroupElement(np.diag([float(p), 1.0 / p])) for p in (2, 3, 5)])
        with pytest.raises(ValueError, match="window must be an integer >= 1"):
            ps2_probe(rep, rep, 3, window=window)

    @pytest.mark.parametrize("K", [True, False, "50", None, float("inf"), float("nan"), 0.5])
    def test_rejects_a_K_before_enumerating(self, monkeypatch, K):
        def enumerate_(*args):
            raise AssertionError("enumerated")
        monkeypatch.setattr(_engine.PackedEngine, "primitive_class_keys", enumerate_)
        rep = Representation([GroupElement(np.diag([float(p), 1.0 / p])) for p in (2, 3, 5)])
        with pytest.raises(ValueError, match="K must be a finite real >= 1"):
            ps2_probe(rep, rep, 3, K=K)

    def test_numpy_integer_window_reports_as_int(self):
        rep = Representation([GroupElement(np.diag([float(p), 1.0 / p])) for p in (2, 3, 5)])
        rpt = ps2_probe(rep, rep, 3, window=np.int64(2))
        assert type(rpt.window) is int and rpt == ps2_probe(rep, rep, 3, window=2)

    def test_non_finite_length_raises(self, monkeypatch):
        rep = Representation([GroupElement(np.diag([float(p), 1.0 / p])) for p in (2, 3, 5)])
        real = nonmixing._lengths_from_scaled_traces
        monkeypatch.setattr(nonmixing, "_lengths_from_scaled_traces",
                            lambda *a: np.where(real(*a) > 0, np.nan, 0.0))
        with pytest.raises(ValueError, match="non-finite"):
            ps2_probe(rep, rep, 3, axis_check=False)


class TestDemoPipeline:
    def test_small_cap_headline_properties(self, demo9):
        report, pair, m = demo9
        assert m == 2
        assert report.min_max_ratio > 0
        assert report.zero_ratio_count_1 > 0
        assert report.zero_ratio_count_2 > 0
        # the twisted first puncture is itself primitive and parabolic
        w1 = format_word(apply(pair.phi1, Word((1,), 3)))
        assert w1 in report.zero_ratio_examples_1
        assert report.check_ratio_axis_consistency() == 0

    @pytest.mark.parametrize("m", [None, 2])
    def test_runs_the_public_twist_functions(self, monkeypatch, m):
        calls = []
        for name in ("find_twisting_exponent", "twisted_pair"):
            real = getattr(nonmixing, name)
            monkeypatch.setattr(nonmixing, name, lambda *a, real=real, name=name:
                                calls.append((name, a)) or real(*a))
        _, pair, got_m = demo_pipeline(4, m=m)
        assert [name for name, _ in calls] == (
            ["find_twisting_exponent", "twisted_pair"] if m is None else ["twisted_pair"])
        assert calls[-1][1][1] == got_m == 2
        monkeypatch.undo()
        rho0 = build_fuchsian_4punctured()
        want = twisted_pair(rho0, find_twisting_exponent(rho0.punctures, *TWISTING_WORDS))
        for f in dataclasses.fields(want):
            got, exp = getattr(pair, f.name), getattr(want, f.name)
            if isinstance(exp, Representation):
                assert [g.m.tobytes() for g in got.images] == \
                    [g.m.tobytes() for g in exp.images], f.name
            else:
                assert got == exp, f.name


def artifact_digests(rpt, tmp_path):
    """sha256 of the eight columns in order, of the to_obj() JSON and of
    the CSV bytes."""
    cols = hashlib.sha256()
    for c in COLUMNS:
        cols.update(getattr(rpt, c).tobytes())
    csv = tmp_path / "rows.csv"
    rpt.write_csv(str(csv), rpt.rank, "manifest: {}")
    return (cols.hexdigest(), hashlib.sha256(jsonio.dumps(rpt.to_obj()).encode()).hexdigest(),
            hashlib.sha256(csv.read_bytes()).hexdigest())


class TestArtifactPins:
    # recorded when the probe concatenated per-block columns, built the
    # summary itself and took the twisted pair's integer images as an argument

    def test_demo_pipeline_to_9(self, demo9, tmp_path):
        assert artifact_digests(demo9[0], tmp_path) == (
            "64871e8f46a2256a564b19a7653eae94ec0e70e73a838073b46a49c3564d69f4",
            "f033616e1b45192056f14d7acff81af3caf5abd9c30110c29739a398f7356fb5",
            "18496d77a23f6a0cab0cfea9b26838f5125c991fb1ee8feb3482afe0623ee68b")

    def test_real_pair_to_7(self, tmp_path):
        rpt = ps2_probe(*real_pair(), 7)
        assert artifact_digests(rpt, tmp_path) == (
            "2c450fa596db6f5e417d80dc1b850da502a6b250c6634cf2b65293218c476aa4",
            "acaf683b0ae79b99e5c21aceb69d7c77f7a9964d7148153c5eb73fbe6df5b4cd",
            "c9471f0e24c758463b644c4a5633f0ebd8f6b0a9e6de828cfe1c740ed031bcdb")


class TestIntegerImages:
    def test_twisted_pair_images(self):
        pair = twisted_pair(build_fuchsian_4punctured(), 2)
        assert nonmixing._integer_images(pair.rho1) == pair.int_images_1
        assert nonmixing._integer_images(pair.rho2) == pair.int_images_2

    def test_complex_tag_with_zero_imaginary_part(self):
        rep = Representation([GroupElement([[2, 1], [1, 1]], "complex"),
                              GroupElement([[1, 0], [-3, 1]], "complex")])
        assert nonmixing._integer_images(rep) == [((2, 1), (1, 1)), ((1, 0), (-3, 1))]

    def test_no_images(self):
        hyp = GroupElement([[2, 1], [1, 1]])
        # given with int entries, an integer matrix of determinant 2 is no
        # GroupElement
        with pytest.raises(DetDriftError):
            GroupElement([[10 ** 8, 2], [4999999999999999, 10 ** 8]])
        # given as floats, it passes the relative test, and only the exact
        # determinant keeps it out of the integer images
        det2 = GroupElement(np.array([[1e8, 2], [4999999999999999, 1e8]]))
        half = GroupElement([[2, 1.5], [0, 0.5]])
        imag = GroupElement([[1, 1j], [0, 1]], "complex")
        assert nonmixing._integer_images(Representation([hyp, det2])) is None
        assert nonmixing._integer_images(Representation([hyp, half])) is None
        assert nonmixing._integer_images(real_pair()[0]) is None
        assert nonmixing._integer_images(
            Representation([GroupElement([[2, 1], [1, 1]], "complex"), imag])) is None

    def test_twisted_pair_json_round_trip(self):
        pair = twisted_pair(build_fuchsian_4punctured(), 2)
        for rho, ints in ((pair.rho1, pair.int_images_1), (pair.rho2, pair.int_images_2)):
            back = rep_from_obj(jsonio.loads(jsonio.dumps(rep_to_obj(rho))))
            assert all(np.array_equal(g.m, h.m) for g, h in zip(back.images, rho.images))
            assert nonmixing._integer_images(back) == ints
            for g in back.images:
                assert np.array_equal((g @ g.inverse()).m, np.eye(2))

    def test_probe_rechecks_with_derived_images(self, monkeypatch):
        pair = twisted_pair(build_fuchsian_4punctured(), 2)
        seen = []
        real = nonmixing._near_parabolic_recheck

        def recorder(lengths, tr_mant, exp, W, int_mats):
            seen.append(int_mats)
            real(lengths, tr_mant, exp, W, int_mats)
        monkeypatch.setattr(nonmixing, "_near_parabolic_recheck", recorder)
        rpt = ps2_probe(pair.rho1, pair.rho2, 8)
        assert seen[:2] == [pair.int_images_1, pair.int_images_2]
        assert all(m in (pair.int_images_1, pair.int_images_2) for m in seen)
        monkeypatch.undo()
        want = demo_pipeline(8)[0]
        for c in COLUMNS:
            assert np.array_equal(getattr(rpt, c), getattr(want, c)), c
