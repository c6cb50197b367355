"""Parity tests: the packed engine against the plain word algebra."""

import random

import numpy as np
import pytest
from hypothesis import given
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
