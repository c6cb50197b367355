import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from autrep import jsonio
from autrep.freegroup import FreeAutomorphism, Word, compose
from autrep.sl2 import (
    BASEPOINT,
    DetDriftError,
    GroupElement,
    H3Point,
    IsometryType,
    Representation,
    Tolerances,
    act,
    ad_span_rank,
    adjoint,
    classify,
    evaluate,
    h3_distance,
    mobius_act,
    random_element,
    rep_from_obj,
    rep_to_obj,
    rotation_angle,
    translation_length,
    translation_length_arccosh,
)


def rotation(theta):
    return GroupElement([[math.cos(theta), -math.sin(theta)],
                         [math.sin(theta), math.cos(theta)]])


class TestGroupElement:
    def test_det_validation(self):
        with pytest.raises(DetDriftError):
            GroupElement([[2, 0], [0, 1]])

    def test_mul_inverse_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = random_element(rng, "real", 0.8)
            assert (g @ g.inverse()).distance_to(GroupElement.identity()) < 1e-12

    def test_identity_neutral(self):
        g = GroupElement([[2, 1], [1, 1]])
        assert (GroupElement.identity() @ g).distance_to(g) == 0

    def test_direct_arithmetic(self):
        a = GroupElement([[1, 1], [0, 1]])
        b = GroupElement([[1, 0], [1, 1]])
        assert np.array_equal((a @ b).m, np.array([[2.0, 1.0], [1.0, 1.0]]))

    @pytest.mark.parametrize("field", ["real", "complex", "su2"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, field, bad):
        # NaN fails every comparison, and inf makes the det scale inf
        with pytest.raises(ValueError, match="finite"):
            GroupElement([[bad, 0], [0, 1]], field)
        with pytest.raises(ValueError, match="finite"):
            GroupElement([[1, bad], [0, 1]], field)

    def test_field_mismatch(self):
        a = GroupElement([[1, 1], [0, 1]], "real")
        b = GroupElement([[1, 0], [1, 1]], "complex")
        with pytest.raises(ValueError):
            a @ b


class TestClassify:
    def test_parabolic_exact_trace_two(self):
        assert classify(GroupElement([[1, 1], [0, 1]])).kind is IsometryType.PARABOLIC

    def test_elliptic_rotation(self):
        assert classify(rotation(math.pi / 8)).kind is IsometryType.ELLIPTIC

    def test_hyperbolic_diag(self):
        assert classify(GroupElement([[2, 0], [0, 0.5]])).kind is IsometryType.HYPERBOLIC

    def test_identity_like(self):
        assert classify(GroupElement.identity()).kind is IsometryType.IDENTITY_LIKE
        assert classify(GroupElement(-np.eye(2))).kind is IsometryType.IDENTITY_LIKE

    def test_complex_loxodromic(self):
        g = GroupElement(np.array([[2j, 0], [0, -0.5j]]), "complex")
        assert classify(g).kind is IsometryType.HYPERBOLIC

    def test_complex_elliptic(self):
        g = GroupElement(np.array([[cmath.exp(0.7j), 0], [0, cmath.exp(-0.7j)]]),
                         "complex")
        assert classify(g).kind is IsometryType.ELLIPTIC


class TestTranslationLength:
    def test_diag_e(self):
        g = GroupElement([[math.e, 0], [0, 1 / math.e]])
        assert abs(translation_length(g) - 2.0) < 1e-12

    def test_parabolic_zero_exactly(self):
        assert translation_length(GroupElement([[1, 1], [0, 1]])) == 0.0

    def test_trace_three(self):
        g = GroupElement([[2, 1], [1, 1]])
        want = 2 * math.log((3 + math.sqrt(5)) / 2)
        assert abs(translation_length(g) - want) < 1e-12

    def test_class_function(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            g = random_element(rng, "real", 1.0)
            h = random_element(rng, "real", 1.0)
            conj = h @ g @ h.inverse()
            assert abs(translation_length(g) - translation_length(conj)) < 1e-9

    def test_power_additivity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            g = random_element(rng, "complex", 0.8)
            l1 = translation_length(g)
            gk = g
            for k in range(2, 11):
                gk = gk @ g
                assert abs(translation_length(gk) - k * l1) < 1e-8 * max(1, k * l1)

    def test_arccosh_cross_formula(self):
        rng = np.random.default_rng(3)
        for field in ("real", "complex"):
            for _ in range(300):
                g = random_element(rng, field, 1.0)
                a = translation_length(g)
                b = translation_length_arccosh(g)
                if classify(g).kind is IsometryType.HYPERBOLIC:
                    assert abs(a - b) < 1e-8
                else:
                    assert a == 0.0 and b < 1e-6

    def test_displacement_approaches_length(self):
        g = GroupElement([[2, 1], [1, 1]])
        l = translation_length(g)
        rng = np.random.default_rng(4)
        best = math.inf
        for _ in range(4000):
            z = complex(rng.normal(scale=0.8), 0.0)
            t = math.exp(rng.normal(scale=0.8))
            p = H3Point(z, t)
            best = min(best, h3_distance(p, mobius_act(g, p)))
        assert best >= l - 1e-9
        assert best < l + 0.05


class TestRotationAngle:
    def test_pi_over_three(self):
        assert abs(rotation_angle(rotation(math.pi / 3)) - math.pi / 3) < 1e-12

    def test_near_pi(self):
        g = rotation(math.pi - 5e-4)
        assert rotation_angle(g) > 3.0

    def test_conjugation_invariant(self):
        rng = np.random.default_rng(5)
        g = rotation(0.9)
        for _ in range(30):
            h = random_element(rng, "real", 0.7)
            assert abs(rotation_angle(h @ g @ h.inverse()) - 0.9) < 1e-9

    def test_nonelliptic_rejected(self):
        with pytest.raises(ValueError):
            rotation_angle(GroupElement([[2, 1], [1, 1]]))


class TestAdjoint:
    def test_identity(self):
        assert np.allclose(adjoint(GroupElement.identity()), np.eye(3))

    def test_center_in_kernel(self):
        assert np.allclose(adjoint(GroupElement(-np.eye(2))), np.eye(3))

    def test_homomorphism(self):
        rng = np.random.default_rng(6)
        for field in ("real", "complex", "su2"):
            for _ in range(60):
                g = random_element(rng, field, 0.9)
                h = random_element(rng, field, 0.9)
                assert np.abs(adjoint(g @ h) - adjoint(g) @ adjoint(h)).max() < 1e-10

    def test_det_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = random_element(rng, "real", 1.0)
            assert abs(np.linalg.det(adjoint(g)) - 1) < 1e-9


class TestAdSpanRank:
    def test_identity_alone(self):
        assert ad_span_rank([GroupElement.identity()]) == 1

    def test_sanov_words_span(self):
        a = GroupElement([[1, 1], [0, 1]])
        b = GroupElement([[1, 0], [1, 1]])
        rep = Representation([a, b])
        mats = []
        for l in range(1, 5):
            for tup in itertools.product([1, -1, 2, -2], repeat=l):
                if all(tup[i] != -tup[i + 1] for i in range(l - 1)):
                    mats.append(evaluate(rep, Word(tup, 2)))
        assert ad_span_rank(mats) == 9

    def test_commuting_family_bounded(self):
        fam = [GroupElement(np.diag([2.0 ** k, 2.0 ** -k])) for k in (1, 2, 3, 4)]
        assert ad_span_rank(fam) <= 3

    def test_never_exceeds_nine(self):
        rng = np.random.default_rng(8)
        mats = [random_element(rng, "su2") for _ in range(40)]
        assert ad_span_rank(mats) <= 9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ad_span_rank([])


class TestEvaluateAct:
    def test_empty_word(self):
        rep = Representation([GroupElement([[1, 1], [0, 1]])])
        assert evaluate(rep, Word((), 1)).distance_to(GroupElement.identity()) == 0

    def test_single_generator(self):
        a = GroupElement([[1, 1], [0, 1]])
        rep = Representation([a, GroupElement([[1, 0], [1, 1]])])
        assert evaluate(rep, Word((1,), 2)).distance_to(a) == 0

    def test_commutator_trace_three(self):
        rep = Representation([GroupElement([[1, 1], [0, 1]]),
                              GroupElement([[1, 0], [1, 1]])])
        g = evaluate(rep, Word((1, 2, -1, -2), 2))
        assert np.array_equal(g.m, np.array([[3.0, -1.0], [1.0, 0.0]]))

    def test_morphism_property(self):
        rng = np.random.default_rng(9)
        rep = Representation([random_element(rng, "real") for _ in range(2)])
        u = Word((1, 2, -1), 2)
        v = Word((2, 2, 1), 2)
        lhs = evaluate(rep, u * v)
        rhs = evaluate(rep, u) @ evaluate(rep, v)
        assert lhs.distance_to(rhs) < 1e-9

    def test_act_identity(self):
        rng = np.random.default_rng(10)
        rep = Representation([random_element(rng, "su2") for _ in range(3)])
        out = act(FreeAutomorphism.identity(3), rep)
        assert all(out.images[i].distance_to(rep.images[i]) == 0 for i in range(3))

    def test_act_transposition_swaps(self):
        rng = np.random.default_rng(11)
        rep = Representation([random_element(rng, "su2") for _ in range(2)])
        swap = FreeAutomorphism((Word((2,), 2), Word((1,), 2)),
                                (Word((2,), 2), Word((1,), 2)))
        out = act(swap, rep)
        assert out.images[0].distance_to(rep.images[1]) == 0
        assert out.images[1].distance_to(rep.images[0]) == 0

    def test_act_group_action(self):
        rng = np.random.default_rng(12)
        rep = Representation([random_element(rng, "su2") for _ in range(2)])
        a = FreeAutomorphism((Word((1, 2), 2), Word((2,), 2)),
                             (Word((1, -2), 2), Word((2,), 2)))
        back = act(a, act(a.inverse(), rep))
        assert all(back.images[i].distance_to(rep.images[i]) < 1e-10 for i in range(2))

    def test_act_respects_composition(self):
        rng = np.random.default_rng(13)
        rep = Representation([random_element(rng, "su2") for _ in range(2)])
        a = FreeAutomorphism((Word((1, 2), 2), Word((2,), 2)),
                             (Word((1, -2), 2), Word((2,), 2)))
        b = FreeAutomorphism((Word((1,), 2), Word((2, 1), 2)),
                             (Word((1,), 2), Word((2, -1), 2)))
        lhs = act(compose(a, b), rep)
        rhs = act(a, act(b, rep))
        assert all(lhs.images[i].distance_to(rhs.images[i]) < 1e-12 for i in range(2))


class TestH3:
    def test_distance_to_self(self):
        p = H3Point(0.3 + 0.2j, 1.7)
        assert h3_distance(p, p) == 0.0

    def test_vertical_geodesic(self):
        assert abs(h3_distance(H3Point(0j, 1.0), H3Point(0j, math.e)) - 1.0) < 1e-12

    def test_diag_scaling(self):
        g = GroupElement([[math.exp(0.5), 0], [0, math.exp(-0.5)]])
        q = mobius_act(g, BASEPOINT)
        assert abs(q.z) < 1e-15 and abs(q.t - math.e) < 1e-12

    def test_isometry(self):
        rng = np.random.default_rng(14)
        for field in ("real", "complex"):
            for _ in range(400):
                g = random_element(rng, field, 1.0)
                p = H3Point(complex(rng.normal(), rng.normal() if field != "real" else 0.0),
                            math.exp(rng.normal()))
                q = H3Point(complex(rng.normal(), rng.normal() if field != "real" else 0.0),
                            math.exp(rng.normal()))
                d0 = h3_distance(p, q)
                d1 = h3_distance(mobius_act(g, p), mobius_act(g, q))
                assert abs(d0 - d1) < 1e-9 * max(1.0, d0)

    def test_nonpositive_height_rejected(self):
        with pytest.raises(ValueError):
            H3Point(0j, 0.0)


class TestSerialization:
    def test_round_trip_all_fields(self):
        rng = np.random.default_rng(15)
        for field in ("real", "complex", "su2"):
            rep = Representation([random_element(rng, field) for _ in range(3)])
            text = jsonio.dumps(rep_to_obj(rep))
            back = rep_from_obj(jsonio.loads(text))
            assert back.field == rep.field and back.rank == rep.rank
            for i in range(3):
                assert back.images[i].distance_to(rep.images[i]) == 0.0

    def test_seventeen_digit_floats(self):
        # non-dyadic entries must round-trip exactly through the text form
        rep = Representation([GroupElement([[4 / 3, 1], [1, 3 / 2]])])
        text = jsonio.dumps(rep_to_obj(rep))
        assert "1.3333333333333333" in text
        back = rep_from_obj(jsonio.loads(text))
        assert np.array_equal(back.images[0].m, rep.images[0].m)


    def test_json_nan_rejected(self):
        text = '{"field": "real", "rank": 1, "images": [[[NaN, 0.0], [0.0, 1.0]]]}'
        with pytest.raises(ValueError, match="finite"):
            rep_from_obj(jsonio.loads(text))


finite = st.floats(allow_nan=False, allow_infinity=False)


class TestJsonio:
    @given(st.lists(finite, max_size=8), st.dictionaries(st.text(max_size=5), finite,
                                                        max_size=4))
    def test_finite_floats_round_trip_exactly(self, xs, d):
        obj = {"xs": xs, "nested": [d, {"x": xs[:1]}]}
        for indent in (None, 2):
            back = jsonio.loads(jsonio.dumps(obj, indent=indent))
            assert back == obj
            # equal values and the same sign of zero
            assert [math.copysign(1.0, x) for x in back["xs"]] == \
                [math.copysign(1.0, x) for x in xs]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises(self, bad):
        for indent in (None, 2):
            with pytest.raises(ValueError):
                jsonio.dumps({"a": [1.0, bad]}, indent=indent)

    def test_compact_and_indented_layout(self):
        assert jsonio.dumps({"a": [1, 2.5], "b": None}) == '{"a":[1,2.5],"b":null}'
        assert jsonio.dumps({"a": [1]}, indent=2) == '{\n  "a": [\n    1\n  ]\n}'


class TestToleranceOverrides:
    def test_custom_parabolic_band(self):
        tol = Tolerances(tol_par=0.2)
        g = GroupElement([[1.05, 1], [0.0, 1 / 1.05]])
        assert classify(g, tol).kind in (IsometryType.PARABOLIC, IsometryType.IDENTITY_LIKE)
        assert classify(g).kind is IsometryType.HYPERBOLIC
