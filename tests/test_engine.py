"""Parity tests: the packed engine against the plain word algebra."""

import functools
import hashlib
import itertools
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from autrep import _engine
from autrep.freegroup import (
    ConjClass,
    Word,
    apply,
    cyclic_reduce,
    format_word,
    reduce,
    whitehead_automorphism,
    whitehead_moves_second_kind,
)
from autrep.whitehead import basic_lemma_filter, decide_primitive


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


class TestSphereExpander:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_reduced_words_in_bfs_order(self, k):
        # reference: tuple breadth-first search over x1, x1^-1, x2, ...
        want = [(v,) for i in range(1, k + 1) for v in (i, -i)]
        levels, last = [], None
        for depth in range(4):
            levels.append(_engine.sphere_children(last, 2 * k))
            last = levels[-1][0]
            got = [_engine.backtrack(levels, depth, i) for i in range(last.shape[0])]
            assert got == want
            assert all(reduce(list(w), k).letters == w for w in got)
            assert len(got) == 2 * k * (2 * k - 1) ** depth
            want = [w + (v,) for w in want for i in range(1, k + 1) for v in (i, -i)
                    if v != -w[-1]]

    def test_empty_word_is_level_minus_one(self):
        assert _engine.backtrack([], -1, 0) == ()


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

    @given(st.integers(2, 5).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, 4 * n * n - 1), min_size=1, max_size=300))))
    @example((2, [3, 8, 6, 13]))  # x1 x2 x1^-1 x2^-1: no move shortens it
    @settings(max_examples=150, deadline=None)
    def test_packed_sums_match_the_junction_table(self, n_rows):
        # any junction rows, repeats included; (c, d) is the edge {c, d^-1}
        n, rows = n_rows
        table = _engine.move_table(n)
        n2 = 2 * n
        pairs = [(_engine.letter_of_nib(r // n2), -_engine.letter_of_nib(r % n2)) for r in rows]
        m = table.first_shorter(sum(table.packed_rows[p] for p in pairs), len(rows))
        want = np.flatnonzero(table.junction[rows].sum(0, dtype=np.int64) < 0)[:1]
        assert want.tolist() == ([m] if m >= 0 else [])


def cyclic_words(ranks, max_len):
    """Hypothesis strategy: (rank, nonempty cyclically reduced word)."""
    def words(n):
        letters = st.lists(st.sampled_from([s * i for i in range(1, n + 1) for s in (1, -1)]),
                           min_size=1, max_size=max_len)
        return letters.map(lambda ls: cyclic_reduce(reduce(ls, n))[0])
    return (st.sampled_from(ranks).flatmap(lambda n: st.tuples(st.just(n), words(n)))
            .filter(lambda nw: len(nw[1]) > 0))


@st.composite
def cyclic_nib_rows(draw, n, l):
    """Nibble row of a cyclically reduced rank-n word of length l, reduced
    by construction."""
    row = [draw(st.integers(0, 2 * n - 1))]
    for i in range(1, l):
        banned = {row[-1] ^ 1, row[0] ^ 1} if i == l - 1 else {row[-1] ^ 1}
        row.append(draw(st.sampled_from([c for c in range(2 * n) if c not in banned])))
    return row


class TestGraphPredicate:
    @given(cyclic_words((3, 4), 16))
    @settings(max_examples=200)
    def test_mask_matches_basic_lemma_filter(self, nw):
        n, w = nw
        [flag] = _engine.PackedEngine(n).connected_cutpoint_free_mask(nib_row(w))
        assert bool(flag) == (not basic_lemma_filter(w))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_mask_matches_networkx(self, n):
        # a third of the rows use only the first k < n generators, so their
        # graphs miss the other 2(n - k) vertices; short rows miss their own
        rng = random.Random(20 + n)
        for l in range(1, 11):
            rows = []
            while len(rows) < 200:
                k = rng.choice([rng.randint(1, n - 1), n, n])
                w = random_core(rng, k, l)
                if len(w) == l:
                    rows.append([_engine.nib_of_letter(v) for v in w.letters])
            want = []
            for row in rows:
                g = nx.Graph()
                g.add_nodes_from(range(2 * n))
                g.add_edges_from((row[j], row[(j + 1) % l] ^ 1) for j in range(l))
                want.append(nx.is_connected(g) and not list(nx.articulation_points(g)))
            got = _engine.PackedEngine(n).connected_cutpoint_free_mask(
                np.array(rows, dtype=np.uint8))
            assert got.tolist() == want

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

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_length_deltas_match_word_algebra(self, data):
        n = data.draw(st.integers(2, 5))
        l = data.draw(st.integers(1, 9))
        W = np.array(data.draw(st.lists(cyclic_nib_rows(n, l), min_size=1, max_size=5)),
                     dtype=np.uint8)
        table = _engine.move_table(n)
        deltas = table.length_deltas(W)
        assert deltas.shape == (len(table.moves), W.shape[0])
        for i, w in enumerate(_engine.decode_rows(W, n)):
            want = [len(cyclic_reduce(apply(aut, w))[0]) - l for aut in move_automorphisms(n)]
            assert deltas[:, i].tolist() == want
            # the descent's single-word form: one junction row per cyclic pair
            r = W[i].tolist()
            rows = [r[j] * 2 * n + (r[(j + 1) % l] ^ 1) for j in range(l)]
            single = table.length_deltas(W[i:i + 1])[:, 0]
            assert np.array_equal(table.junction[rows].sum(axis=0), single)
            assert np.array_equal(single, deltas[:, i])

    @given(st.data())
    @settings(max_examples=150)
    def test_per_row_moves_match_single_move_calls(self, data):
        n = data.draw(st.sampled_from((2, 3, 4)))
        eng = _engine.PackedEngine(n)
        l = data.draw(st.integers(1, 8))
        rows = data.draw(st.lists(cyclic_nib_rows(n, l), min_size=1, max_size=12))
        ms = data.draw(st.lists(st.integers(0, len(eng.moves) - 1),
                                min_size=len(rows), max_size=len(rows)))
        self.check_batched(eng, np.array(rows, dtype=np.uint8), np.array(ms))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_per_row_moves_on_short_words(self, n):
        # every move on every cyclic word of length 2, so that some images
        # shrink to length 1
        eng = _engine.PackedEngine(n)
        words = [w for w in (cyclic_reduce(reduce([u, v], n))[0]
                             for u in range(-n, n + 1) for v in range(-n, n + 1) if u and v)
                 if len(w) == 2]
        W = np.array([[_engine.nib_of_letter(v) for v in w.letters] for w in words],
                     dtype=np.uint8)
        M = len(eng.moves)
        got = self.check_batched(eng, np.repeat(W, M, axis=0), np.tile(np.arange(M), len(W)))
        assert {1, 2, 3} <= got

    @staticmethod
    def check_batched(eng, W, ms):
        """apply_move with one move per row against one call per row; keys
        of each length come in row order.  Returns the image lengths."""
        want = {}
        for row, m in zip(W, ms):
            for lp, keys in eng.apply_move(row[None, :], int(m)):
                want.setdefault(lp, []).append(keys)
        got = dict(eng.apply_move(W, ms))
        assert sorted(got) == sorted(want)
        for lp, keys in got.items():
            assert keys.dtype == np.uint64
            assert np.array_equal(keys, np.concatenate(want[lp]))
        return set(got)


@functools.cache
def move_automorphisms(n):
    """whitehead_automorphism of every second-kind move, in move order."""
    return [whitehead_automorphism(Y, a, n) for Y, a in whitehead_moves_second_kind(n)]


def translate_keys(keys, l, b, table):
    """Relabel letters through a nibble map (uint8 array of size 2n), one
    packed letter at a time: the reference for orbit_keys' gather."""
    m = np.uint64((1 << b) - 1)
    sb = np.uint64(b)
    t64 = table.astype(np.uint64)
    out = np.zeros_like(keys)
    k = keys.copy()
    for i in range(l):
        out |= t64[(k & m).astype(np.int64)] << np.uint64(b * i)
        k >>= sb
    return out


def orbit_keys_by_permutation(eng, keys, l):
    """orbit_keys as one translate_keys pass per signed permutation."""
    A = np.empty((eng.perms.shape[0], keys.shape[0]), dtype=np.uint64)
    for i, t in enumerate(eng.perms):
        A[i] = _engine.canonical_keys(translate_keys(keys, l, eng.b, t), l, eng.b)
    return _engine.sorted_unique(A.ravel()), A.min(axis=0)


def keys_digest(classes):
    h = hashlib.sha256()
    for l in sorted(classes):
        h.update(l.to_bytes(1, "little"))
        h.update(classes[l].astype("<u8").tobytes())
    return h.hexdigest()


def all_moves_closure(eng, cap):
    """Breadth-first closure of the generator classes under every second-kind
    move that stays within the cap, shortening and length-keeping moves
    included, revisiting a length whenever new classes turn up there."""
    seen = {l: np.empty(0, dtype=np.uint64) for l in range(1, cap + 1)}
    pending = {l: [] for l in seen}
    seen[1], reps = eng.orbit_keys(np.zeros(1, dtype=np.uint64), 1)
    pending[1].append(reps)
    while any(pending.values()):
        l = min(l for l, parts in pending.items() if parts)
        reps, pending[l] = np.unique(np.concatenate(pending[l])), []
        W = _engine.unpack_keys(reps, l, eng.b)
        ms, rows = np.nonzero(eng.length_deltas(W) <= cap - l)
        for lp, keys in eng.apply_move(W[rows], ms):
            fresh = np.setdiff1d(keys, seen[lp])
            if fresh.size:
                members, new_reps = eng.orbit_keys(fresh, lp)
                seen[lp] = np.union1d(seen[lp], members)
                pending[lp].append(new_reps)
    return {l: keys for l, keys in seen.items() if keys.size}


def descent_corpus(name):
    """All 4,686 reduced F3 words of length <= 5, or 1,000 seeded F4 words of
    length <= 12 with nonzero cyclic length."""
    if name == "f3_reduced_le5":
        alphabet = [1, -1, 2, -2, 3, -3]
        return [Word(t, 3) for l in range(1, 6) for t in itertools.product(alphabet, repeat=l)
                if all(t[i] != -t[i + 1] for i in range(l - 1))]
    rng = random.Random(41)
    alphabet = [s * i for i in range(1, 5) for s in (1, -1)]
    words = []
    while len(words) < 1000:
        w = reduce([rng.choice(alphabet) for _ in range(rng.randint(1, 12))], 4)
        if w.cyclic_length() > 0:
            words.append(w)
    return words


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
                translate_keys(members, len(w), eng.b, t), len(w), eng.b)
            assert np.isin(moved, members).all()
        assert reps[0] == members.min()

    @pytest.mark.parametrize("n,l,count", [(2, 7, 300), (3, 5, 1000), (4, 4, 200)])
    def test_gather_matches_per_permutation_loop(self, monkeypatch, n, l, count):
        eng = _engine.PackedEngine(n)
        rng = random.Random(n * 100 + l)
        words = [w for w in (random_core(rng, n, l) for _ in range(3 * count))
                 if len(w) == l][:count]
        W = np.array([[_engine.nib_of_letter(v) for v in w.letters] for w in words],
                     dtype=np.uint8)
        keys = _engine.canonical_keys(_engine.pack_rows(W, eng.b), l, eng.b)
        want_members, want_reps = orbit_keys_by_permutation(eng, keys, l)
        # the default batch, and one that splits the keys unevenly
        for batch in (_engine.BATCH, 5 * eng.perms.shape[0] + 3):
            monkeypatch.setattr(_engine, "BATCH", batch)
            members, reps = eng.orbit_keys(keys, l)
            assert np.array_equal(members, want_members)
            assert np.array_equal(reps, want_reps)

    def test_rank_cap_guard(self):
        with pytest.raises(ValueError):
            _engine.PackedEngine(3).primitive_class_keys(25)


class TestEnumeration:
    # sha256 of the keys, length by length, as the per-move enumeration
    # (one apply_move call per move and block) produced them
    @pytest.mark.parametrize("n,cap,total,digest", [
        (3, 9, 57_341, "e3c1feab63093d303b64f98aec8c6e5e131d5218fb8e36358761b4dbeed33116"),
        (4, 7, 62_752, "e3cc46228ba247bdda451161b1b161472a53f353b2d82a5c66b59b810fd422b1"),
    ])
    def test_class_keys_are_pinned(self, n, cap, total, digest):
        classes = _engine.PackedEngine(n).primitive_class_keys(cap)
        assert sum(k.size for k in classes.values()) == total
        assert keys_digest(classes) == digest

    # sha256 of (primitive, chain move indices, terminal letters) per word,
    # as the descent produced them from one length_deltas row per step
    @pytest.mark.parametrize("corpus,digest", [
        ("f3_reduced_le5", "63cf8f40e84806d8efb5a91e02d85917b4d7ce0270c28ad826424fe636da2521"),
        ("f4_seeded_le12", "d5c3a2baf2ab84ec68e0b83c03cd4f87505945f2bc790c871266ab82891adbb6"),
    ], ids=["f3_reduced_le5", "f4_seeded_le12"])
    def test_descent_is_pinned(self, corpus, digest):
        words = descent_corpus(corpus)
        table = _engine.move_table(words[0].rank)
        index = {table.automorphism(m): m for m in range(len(table.moves))}
        h = hashlib.sha256()
        for w in words:
            v = decide_primitive(w)
            h.update(repr((v.primitive, tuple(index[a] for a in v.chain),
                           v.terminal.letters)).encode())
        assert h.hexdigest() == digest

    def test_tiny_batches_give_the_same_keys(self, monkeypatch):
        want = _engine.PackedEngine(3).primitive_class_keys(8)
        monkeypatch.setattr(_engine, "BATCH", 7)
        got = _engine.PackedEngine(3).primitive_class_keys(8)
        assert keys_digest(got) == keys_digest(want)

    @pytest.mark.parametrize("batch", [_engine.BATCH, 1000])
    def test_no_move_call_exceeds_the_batch(self, monkeypatch, batch):
        monkeypatch.setattr(_engine, "BATCH", batch)
        eng = _engine.PackedEngine(4)
        sizes = []
        real = eng.apply_move
        eng.apply_move = lambda W, m: (sizes.append(W.shape[0]), real(W, m))[1]
        eng.primitive_class_keys(7)
        assert 0 < max(sizes) <= batch

    @pytest.mark.parametrize("n,cap", [(2, 14), (3, 7), (4, 6), (5, 5)])
    def test_keys_match_the_all_moves_closure(self, n, cap):
        eng = _engine.PackedEngine(n)
        want = all_moves_closure(eng, cap)
        got = eng.primitive_class_keys(cap)
        assert sorted(got) == sorted(want)
        for l in want:
            assert got[l].dtype == want[l].dtype
            assert np.array_equal(got[l], want[l])

    @pytest.mark.parametrize("n,cap", [(2, 12), (3, 8), (4, 6)])
    def test_every_applied_move_lengthens(self, n, cap):
        eng = _engine.PackedEngine(n)
        pairs = 0
        real = eng.apply_move

        def spy(W, m):
            nonlocal pairs
            deltas = eng.length_deltas(W)[m, np.arange(W.shape[0])]
            assert deltas.min() >= 1
            assert W.shape[1] + deltas.max() <= cap
            out = real(W, m)
            # one key per row, at length l + delta
            want = np.bincount(W.shape[1] + deltas)
            got = np.zeros_like(want)
            for lp, keys in out:
                got[lp] = keys.size
            assert np.array_equal(got, want)
            pairs += W.shape[0]
            return out

        eng.apply_move = spy
        eng.primitive_class_keys(cap)
        assert pairs > 0
