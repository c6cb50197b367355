"""Parity tests: the packed engine against the plain word algebra."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autrep import _engine
from autrep.freegroup import (
    ConjClass,
    apply,
    cyclic_reduce,
    format_word,
    reduce,
    whitehead_automorphism,
)
from autrep.whitehead import basic_lemma_filter


def random_core(rng, n, length):
    letters = []
    while len(letters) < length:
        v = rng.choice([s * i for i in range(1, n + 1) for s in (1, -1)])
        if letters and letters[-1] == -v:
            continue
        letters.append(v)
    core, _ = cyclic_reduce(reduce(letters, n))
    return core


def nib_row(w):
    return np.array([[_engine.nib_of_letter(v) for v in w.letters]], dtype=np.uint8)


def canonical_nibbles(w):
    """Scalar canonical form in nibble space: min over rotations of the word
    and its inverse."""
    t = tuple(_engine.nib_of_letter(v) for v in w.letters)
    if not t:
        return t
    iv = tuple(x ^ 1 for x in reversed(t))
    cands = [t[i:] + t[:i] for i in range(len(t))]
    cands += [iv[i:] + iv[:i] for i in range(len(iv))]
    return min(cands)


class TestPacking:
    def test_round_trip(self):
        rng = random.Random(0)
        for n in (2, 3, 4):
            b = _engine.bits_per_letter(n)
            for _ in range(100):
                w = random_core(rng, n, rng.randint(1, _engine.max_pack_length(n)))
                if not len(w):
                    continue
                row = nib_row(w)
                keys = _engine.pack_rows(row, b)
                back = _engine.unpack_keys(keys, len(w), b)
                assert np.array_equal(back, row)

    def test_lex_order_matches_numeric_order(self):
        b = _engine.bits_per_letter(2)
        rows = np.array([[0, 1, 2], [0, 2, 1], [1, 0, 0]], dtype=np.uint8)
        keys = _engine.pack_rows(rows, b)
        assert list(np.argsort(keys)) == [0, 1, 2]

    def test_invert_keys(self):
        rng = random.Random(1)
        b = _engine.bits_per_letter(3)
        for _ in range(100):
            w = random_core(rng, 3, rng.randint(1, 10))
            if not len(w):
                continue
            keys = _engine.pack_rows(nib_row(w), b)
            inv = _engine.invert_keys(keys, len(w), b)
            want = _engine.pack_rows(nib_row(w.inverse()), b)
            assert inv[0] == want[0]

    def test_canonical_keys_match_scalar(self):
        rng = random.Random(2)
        for n in (2, 3, 4):
            b = _engine.bits_per_letter(n)
            for _ in range(150):
                w = random_core(rng, n, rng.randint(1, 10))
                if not len(w):
                    continue
                keys = _engine.canonical_keys(_engine.pack_rows(nib_row(w), b), len(w), b)
                got = tuple(_engine.unpack_keys(keys, len(w), b)[0])
                assert got == canonical_nibbles(w)


    @given(st.integers(2, 4).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.sampled_from([s * i for i in range(1, n + 1) for s in (1, -1)]),
                             min_size=1, max_size=_engine.max_pack_length(n)))))
    def test_decode_canonical_keys_matches_conj_class(self, n_letters):
        n, letters = n_letters
        w, _ = cyclic_reduce(reduce(letters, n))
        if not w.letters:
            return
        b = _engine.bits_per_letter(n)
        keys = _engine.canonical_keys(_engine.pack_rows(nib_row(w), b), len(w), b)
        [got] = _engine.decode_rows(_engine.unpack_keys(keys, len(w), b), n)
        want = ConjClass(w)
        assert got == want.canonical
        assert ConjClass(got) == want
        assert format_word(got) == format_word(want.canonical)


TOP = 2**64 - 1


class TestSortedUnique:
    @given(st.lists(st.one_of(st.integers(0, 40), st.integers(TOP - 40, TOP),
                              st.integers(0, TOP)), max_size=60))
    def test_matches_np_unique(self, values):
        keys = np.array(values, dtype=np.uint64)
        got = _engine.sorted_unique(keys)
        want = np.unique(keys)
        assert got.dtype == np.uint64
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("values", [[], [TOP], [5, 5, 5], [TOP, 0, TOP - 1, TOP, 0]])
    def test_edge_cases(self, values):
        keys = np.array(values, dtype=np.uint64)
        assert np.array_equal(_engine.sorted_unique(keys), np.unique(keys))


class TestMoveTable:
    def test_one_table_per_rank(self):
        eng = _engine.PackedEngine(3)
        table = _engine.move_table(3)
        assert eng.Ytab is table.Ytab and eng.moves is table.moves
        assert not table.Ytab.flags.writeable

    def test_rows_and_automorphisms_follow_move_order(self):
        table = _engine.move_table(3)
        for m, (Y, a) in enumerate(table.moves):
            assert set(np.flatnonzero(table.Ytab[m])) == {_engine.nib_of_letter(v) for v in Y}
            assert table.a_nib[m] == _engine.nib_of_letter(a)
            assert table.automorphism(m) == whitehead_automorphism(Y, a, 3)
        assert table.automorphism(7) is table.automorphism(7)


def cyclic_words(ranks, max_len):
    """Hypothesis strategy: (rank, nonempty cyclically reduced word)."""
    def words(n):
        letters = st.lists(st.sampled_from([s * i for i in range(1, n + 1) for s in (1, -1)]),
                           min_size=1, max_size=max_len)
        return letters.map(lambda ls: cyclic_reduce(reduce(ls, n))[0])
    return (st.sampled_from(ranks).flatmap(lambda n: st.tuples(st.just(n), words(n)))
            .filter(lambda nw: len(nw[1]) > 0))


class TestGraphPredicate:
    @given(cyclic_words((3, 4), 16))
    @settings(max_examples=200)
    def test_mask_matches_basic_lemma_filter(self, nw):
        n, w = nw
        [flag] = _engine.PackedEngine(n).connected_cutpoint_free_mask(nib_row(w))
        assert bool(flag) == (not basic_lemma_filter(w))

    def test_distinct_graph_count_matches_mask_sum(self):
        rng = random.Random(12)
        for n in (2, 3, 4):
            eng = _engine.PackedEngine(n)
            # [x1, x2] ... [x1, xn] is not primitive, and its graph is
            # connected and free of cutpoints
            comm = reduce([v for j in range(2, n + 1) for v in (1, j, -1, -j)], n)
            l = len(comm)
            assert not basic_lemma_filter(comm)
            words = [comm] + [w for w in (random_core(rng, n, l) for _ in range(300))
                              if len(w) == l]
            rows = []
            for w in words:
                row = [_engine.nib_of_letter(v) for v in w.letters]
                r = rng.randrange(l)
                rows += [row, row[r:] + row[:r]]  # a rotation has the same graph
            W = np.array(rows, dtype=np.uint8)
            want = int(eng.connected_cutpoint_free_mask(W).sum())
            assert want > 0
            assert np.unique(eng.edge_masks(W)).size < W.shape[0]
            assert eng.count_connected_cutpoint_free(W) == want
            assert eng.count_connected_cutpoint_free(W[:0]) == 0

    def test_verdicts_carry_across_calls(self):
        rng = random.Random(5)
        n = 4
        comm = reduce([v for j in range(2, n + 1) for v in (1, j, -1, -j)], n)
        words = [comm] + [w for w in (random_core(rng, n, 12) for _ in range(400))
                          if len(w) == 12]
        W = np.array([[_engine.nib_of_letter(v) for v in w.letters] for w in words],
                     dtype=np.uint8)
        eng = _engine.PackedEngine(n)
        want = int(eng.connected_cutpoint_free_mask(W).sum())
        tested = []
        real = eng.connected_cutpoint_free_mask
        eng.connected_cutpoint_free_mask = lambda rows: (tested.append(rows.shape[0]),
                                                         real(rows))[1]
        half = W.shape[0] // 2
        got = eng.count_connected_cutpoint_free(W[:half])
        got += eng.count_connected_cutpoint_free(np.roll(W[half:], 3, axis=1))
        assert got == want > 0
        assert sum(tested) == np.unique(eng.edge_masks(W)).size
        assert eng.count_connected_cutpoint_free(W) == want
        assert sum(tested[2:]) == 0

    @given(cyclic_words((2, 3, 4), 12))
    def test_edge_masks_are_the_simple_graph(self, nw):
        n, w = nw
        [mask] = _engine.PackedEngine(n).edge_masks(nib_row(w))
        pairs = list(itertools.combinations(range(2 * n), 2))
        got = {pairs[k] for k in range(len(pairs)) if int(mask) >> k & 1}
        c = [_engine.nib_of_letter(v) for v in w.letters]
        want = {tuple(sorted((c[i], c[(i + 1) % len(c)] ^ 1))) for i in range(len(c))}
        assert got == want


class TestMoves:
    def test_apply_move_matches_word_algebra(self):
        rng = random.Random(3)
        for n in (2, 3, 4):
            eng = _engine.PackedEngine(n)
            for _ in range(250):
                w = random_core(rng, n, rng.randint(1, 11))
                if not len(w):
                    continue
                m = rng.randrange(len(eng.moves))
                Y, a = eng.moves[m]
                aut = whitehead_automorphism(Y, a, n)
                img, _ = cyclic_reduce(apply(aut, w))
                got = eng.apply_move(nib_row(w), m)
                want = canonical_nibbles(img)
                if not want:
                    assert all(keys.size == 0 for _, keys in got)
                    continue
                assert len(got) == 1
                lp, keys = got[0]
                assert lp == len(want)
                assert tuple(_engine.unpack_keys(keys, lp, eng.b)[0]) == want

    def test_length_deltas_match(self):
        rng = random.Random(4)
        for n in (2, 3):
            eng = _engine.PackedEngine(n)
            for _ in range(60):
                w = random_core(rng, n, rng.randint(1, 10))
                if not len(w):
                    continue
                deltas = eng.length_deltas(nib_row(w))
                for m, (Y, a) in enumerate(eng.moves):
                    aut = whitehead_automorphism(Y, a, n)
                    img, _ = cyclic_reduce(apply(aut, w))
                    assert deltas[m, 0] == len(img) - len(w)


class TestOrbits:
    def test_orbit_closure_under_translation(self):
        eng = _engine.PackedEngine(3)
        rng = random.Random(5)
        w = random_core(rng, 3, 6)
        keys = _engine.canonical_keys(
            _engine.pack_rows(nib_row(w), eng.b), len(w), eng.b)
        members, reps = eng.orbit_keys(keys, len(w))
        # translating any member by any table must land inside the orbit
        for t in eng.perms[:10]:
            moved = _engine.canonical_keys(
                _engine.translate_keys(members, len(w), eng.b, t), len(w), eng.b)
            assert np.isin(moved, members).all()
        assert reps[0] == members.min()

    def test_rank_cap_guard(self):
        with pytest.raises(ValueError):
            _engine.PackedEngine(3).primitive_class_keys(25)
