import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from autrep import _engine
from autrep.freegroup import (
    ConjClass,
    Word,
    apply,
    cyclic_reduce,
    nielsen_generators,
    reduce,
    whitehead_automorphism,
    whitehead_moves_second_kind,
)
from autrep.whitehead import (
    PrimitivityBudgetError,
    WhiteheadGraph,
    basic_lemma_filter,
    basic_lemma_sweep,
    build_graph,
    cutpoints,
    decide_primitive,
    enumerate_primitive_classes,
    exponent_gcd,
    is_connected,
    primitive_class_count,
    replay_chain,
    to_dot,
    union,
    whitehead_length_delta,
)


def random_cyclic_word(rng, n, length):
    letters = []
    while len(letters) < length:
        v = rng.choice([s * i for i in range(1, n + 1) for s in (1, -1)])
        if letters and letters[-1] == -v:
            continue
        letters.append(v)
    core, _ = cyclic_reduce(reduce(letters, n))
    return core


def scalar_orbit_bfs(n, cap):
    """Independent oracle: breadth-first closure of the generator classes
    under all second-kind Whitehead automorphisms applied via the word
    algebra (no packed arithmetic, no length-delta shortcut)."""
    moves = [whitehead_automorphism(Y, a, n) for (Y, a) in whitehead_moves_second_kind(n)]
    seen = {ConjClass(Word((i,), n)) for i in range(1, n + 1)}
    frontier = list(seen)
    while frontier:
        new = []
        for c in frontier:
            for mv in moves:
                img = ConjClass(apply(mv, c.canonical))
                if img.cyclic_length() <= cap and not img.canonical.is_identity() \
                        and img not in seen:
                    seen.add(img)
                    new.append(img)
        frontier = new
    return seen


class TestBuildGraph:
    def test_length_one_word_gives_inverse_edge(self):
        g = build_graph([Word((1,), 2)], 2)
        assert g.simple_edges() == {(1, -1)}

    def test_empty_set(self):
        g = build_graph([], 2)
        assert not g.edges

    def test_commutator_four_cycle(self):
        g = build_graph([Word((1, 2, -1, -2), 2)], 2)
        want = {(1, -2), (1, 2), (-1, 2), (-1, -2)}
        assert g.simple_edges() == want

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            build_graph([Word((1,), 3)], 2)

    def test_defensive_cyclic_reduction(self):
        straight = build_graph([Word((2, 2), 2)], 2)
        conjugated = build_graph([Word((1, 2, 2, -1), 2)], 2)
        assert straight == conjugated


class TestUnion:
    def test_union_with_empty(self):
        g = build_graph([Word((1, 2), 2)], 2)
        assert union(g, WhiteheadGraph(2)) == g

    def test_idempotent_in_simple_view(self):
        g = build_graph([Word((1, 2), 2)], 2)
        assert union(g, g) == g

    def test_two_four_cycles_connected_cutpoint_free(self):
        g1 = build_graph([Word((2, 3, -2, -3), 3)], 3)
        g2 = build_graph([Word((1, 3, -1, -3), 3)], 3)
        u = union(g1, g2)
        assert is_connected(u)
        assert cutpoints(u) == set()

    def test_homomorphism_property(self):
        rng = random.Random(0)
        for _ in range(40):
            ws1 = [random_cyclic_word(rng, 3, rng.randint(1, 8)) for _ in range(2)]
            ws2 = [random_cyclic_word(rng, 3, rng.randint(1, 8)) for _ in range(2)]
            ws1 = [w for w in ws1 if len(w)]
            ws2 = [w for w in ws2 if len(w)]
            joint = build_graph(ws1 + ws2, 3)
            assert joint == union(build_graph(ws1, 3), build_graph(ws2, 3))


class TestConnectivityCutpoints:
    def test_empty_graph_disconnected(self):
        assert not is_connected(WhiteheadGraph(2))

    def test_four_cycle_connected_no_cutpoints(self):
        g = build_graph([Word((1, 2, -1, -2), 2)], 2)
        assert is_connected(g)
        assert cutpoints(g) == set()

    def test_path_with_isolated_vertex(self):
        # path x1 - x2 - x1^-1 plus isolated x2^-1
        from collections import Counter
        g = WhiteheadGraph(2, Counter({(1, 2): 1, (-1, 2): 1}))
        assert not is_connected(g)
        assert cutpoints(g, [1, 2, -1]) == {2}


class TestBasicLemmaFilter:
    def test_generator_passes(self):
        assert basic_lemma_filter(Word((1,), 2)) is True

    def test_commutator_fails(self):
        assert basic_lemma_filter(Word((1, 2, -1, -2), 2)) is False

    def test_x1x2_passes(self):
        assert basic_lemma_filter(Word((1, 2), 2)) is True


class TestLengthDelta:
    def test_matches_actual_application(self):
        rng = random.Random(3)
        for n in (2, 3):
            moves = whitehead_moves_second_kind(n)
            for _ in range(300):
                w = random_cyclic_word(rng, n, rng.randint(1, 10))
                if not len(w):
                    continue
                Y, a = moves[rng.randrange(len(moves))]
                aut = whitehead_automorphism(Y, a, n)
                image_core, _ = cyclic_reduce(apply(aut, w))
                assert len(image_core) == len(w) + whitehead_length_delta(w, Y, a)


class TestDecidePrimitive:
    def test_generator_primitive_empty_chain(self):
        v = decide_primitive(Word((1,), 2))
        assert v.primitive and v.chain == []

    def test_commutator_not_primitive(self):
        v = decide_primitive(Word((1, 2, -1, -2), 2))
        assert not v.primitive
        assert len(v.terminal) > 1

    def test_x1_x2sq_is_primitive_with_replayable_chain(self):
        # {x1 x2^2, x2} is a basis, so this word is primitive; the chain
        # must replay down to a single generator
        w = Word((1, 2, 2), 2)
        v = decide_primitive(w)
        assert v.primitive
        assert replay_chain(w, v.chain).cyclic_length() == 1

    def test_x1sq_x2sq_not_primitive(self):
        v = decide_primitive(Word((1, 1, 2, 2), 2))
        assert not v.primitive

    def test_trivial_word_rejected(self):
        with pytest.raises(ValueError):
            decide_primitive(Word((), 2))

    def test_budget_error_distinct(self):
        with pytest.raises(PrimitivityBudgetError):
            decide_primitive(Word((1, 2, 1, 2, 2), 2), budget=0)

    def test_chain_replays_for_all_small_primitives(self):
        for c in enumerate_primitive_classes(2, 5):
            v = decide_primitive(c.canonical)
            assert v.primitive
            assert replay_chain(c.canonical, v.chain).cyclic_length() == 1

    @given(st.integers(2, 4).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.sampled_from([s * i for i in range(1, n + 1) for s in (1, -1)]),
                             min_size=1, max_size=12))))
    @settings(deadline=None)
    def test_chain_matches_scalar_descent(self, n_letters):
        n, letters = n_letters
        w = reduce(letters, n)
        assume(w.cyclic_length() > 0)
        v = decide_primitive(w)
        primitive, chain, terminal = scalar_descent(w)
        assert (v.primitive, v.chain, v.terminal) == (primitive, chain, terminal)

    def test_chain_matches_scalar_descent_on_primitives(self):
        for n, cap in ((3, 5), (4, 4)):
            for c in enumerate_primitive_classes(n, cap):
                v = decide_primitive(c.canonical)
                assert (v.primitive, v.chain, v.terminal) == scalar_descent(c.canonical)

    def test_rank_8(self):
        # beyond the packed engine's rank limit; x8 occurs once, so primitive
        w = Word((1, 2, -1, -2, 3, 4, 5, 6, 7, 8, 3), 8)
        v = decide_primitive(w)
        assert v.primitive
        assert replay_chain(w, v.chain).cyclic_length() == 1
        square = decide_primitive(Word((1, 1), 8))
        assert not square.primitive and square.chain == []


def scalar_descent(w):
    """Whitehead descent by a scalar scan: apply the first second-kind move,
    in (a, Y) order, whose whitehead_length_delta is negative."""
    core, _ = cyclic_reduce(w)
    moves = whitehead_moves_second_kind(w.rank)
    chain = []
    while len(core) > 1:
        for Y, a in moves:
            if whitehead_length_delta(core, Y, a) < 0:
                chain.append(whitehead_automorphism(Y, a, w.rank))
                core, _ = cyclic_reduce(apply(chain[-1], core))
                break
        else:
            return False, chain, core
    return True, chain, core


class TestEnumeration:
    def test_rank2_length1(self):
        got = enumerate_primitive_classes(2, 1)
        assert got == {ConjClass(Word((1,), 2)), ConjClass(Word((2,), 2))}

    def test_rank2_length2_contains_x1x2(self):
        got = enumerate_primitive_classes(2, 2)
        assert ConjClass(Word((1, 2), 2)) in got
        assert ConjClass(Word((1, -2), 2)) in got

    def test_matches_exhaustive_filter_rank2_L5(self):
        got = enumerate_primitive_classes(2, 5)
        want = set()
        for l in range(1, 6):
            for bits in range(4 ** l):
                letters = []
                x = bits
                for _ in range(l):
                    letters.append([1, -1, 2, -2][x % 4])
                    x //= 4
                w = reduce(letters, 2)
                if len(w) != l:
                    continue
                core, _ = cyclic_reduce(w)
                if len(core) != l:
                    continue
                if decide_primitive(w).primitive:
                    want.add(ConjClass(w))
        assert got == want

    def test_matches_independent_scalar_bfs(self):
        for n, cap in ((2, 7), (3, 5)):
            got = enumerate_primitive_classes(n, cap)
            want = scalar_orbit_bfs(n, cap)
            assert got == want

    def test_nielsen_chain_certificates_are_members(self):
        # one-sided oracle: every bounded Nielsen-chain image of x1 is
        # primitive and must appear in the enumeration
        cap = 5
        got = enumerate_primitive_classes(2, cap)
        moves = nielsen_generators(2)
        frontier = [Word((1,), 2)]
        seen = {ConjClass(Word((1,), 2))}
        for _ in range(4):
            new = []
            for w in frontier:
                for mv in moves:
                    img = apply(mv, w)
                    c = ConjClass(img)
                    if c.cyclic_length() <= cap and c not in seen:
                        seen.add(c)
                        new.append(c.canonical)
            frontier = new
        assert seen <= got

    def test_abelianization_gcd_one(self):
        for c in enumerate_primitive_classes(3, 6):
            assert exponent_gcd(c.canonical) == 1

    def test_basic_lemma_zero_violations_small(self):
        rep = basic_lemma_sweep(3, 7)
        assert rep.violations == 0
        assert rep.total_classes == sum(rep.counts_by_length.values())

    def test_counts_match_enumeration(self):
        cnt = primitive_class_count(2, 6)
        assert sum(cnt.values()) == len(enumerate_primitive_classes(2, 6))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            enumerate_primitive_classes(1, 3)
        with pytest.raises(ValueError):
            enumerate_primitive_classes(2, 0)


class TestVectorizedPredicate:
    def test_matches_scalar_graph_route(self):
        rng = random.Random(11)
        for n in (2, 3, 4):
            eng = _engine.PackedEngine(n)
            words = [random_cyclic_word(rng, n, rng.randint(1, 9)) for _ in range(150)]
            words = [w for w in words if len(w)]
            by_len = {}
            for w in words:
                by_len.setdefault(len(w), []).append(w)
            for l, ws in by_len.items():
                W = np.array([[_engine.nib_of_letter(v) for v in w.letters] for w in ws],
                             dtype=np.uint8)
                got = eng.connected_cutpoint_free_mask(W)
                for w, flag in zip(ws, got):
                    g = build_graph([w], n)
                    assert bool(flag) == (is_connected(g) and not cutpoints(g))


class TestDot:
    def test_deterministic_and_labeled(self):
        g = build_graph([Word((1, 2, -1, -2), 2)], 2)
        dot = to_dot(g)
        assert dot == to_dot(g)
        assert '"x1\'"' in dot
        assert dot.startswith("graph whitehead {")
        assert dot.count("--") == 4

    def test_multiplicity_label(self):
        g = build_graph([Word((1, 2), 2), Word((1, 2), 2)], 2)
        assert 'label="2"' in to_dot(g)
