import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autrep.freegroup import (
    ConjClass,
    FreeAutomorphism,
    Word,
    apply,
    commutator,
    compose,
    cyclic_reduce,
    format_word,
    nielsen_generators,
    parse_word,
    reduce,
    signed_permutations,
    whitehead_automorphism,
    whitehead_automorphisms,
    whitehead_moves_second_kind,
)


def letters_strategy(rank, max_len=12):
    alphabet = [v for i in range(1, rank + 1) for v in (i, -i)]
    return st.lists(st.sampled_from(alphabet), max_size=max_len)


def word_strategy(rank, max_len=12):
    return letters_strategy(rank, max_len).map(lambda ls: reduce(ls, rank))


def automorphism_strategy(rank):
    gens = nielsen_generators(rank)
    return st.lists(st.integers(0, len(gens) - 1), min_size=0, max_size=5).map(
        lambda idxs: _compose_all([gens[i] for i in idxs], rank))


def _compose_all(auts, rank):
    out = FreeAutomorphism.identity(rank)
    for a in auts:
        out = compose(a, out)
    return out


class TestReduce:
    def test_adjacent_cancellation(self):
        assert reduce([1, 2, -2, 1], 2).letters == (1, 1)

    def test_empty_is_identity(self):
        assert reduce([], 2).is_identity()

    def test_full_cancellation(self):
        assert reduce([1, -1], 2).is_identity()

    def test_out_of_range_letter(self):
        with pytest.raises(ValueError):
            reduce([3], 2)
        with pytest.raises(ValueError):
            reduce([0], 2)

    @given(letters_strategy(3))
    @settings(max_examples=200)
    def test_idempotent(self, ls):
        w = reduce(ls, 3)
        assert reduce(w.letters, 3) == w


class TestCyclicReduce:
    def test_single_layer(self):
        core, conj = cyclic_reduce(Word((1, 2, -1), 2))
        assert core.letters == (2,) and conj.letters == (1,)

    def test_already_reduced(self):
        core, conj = cyclic_reduce(Word((1, 2), 2))
        assert core.letters == (1, 2) and conj.is_identity()

    def test_two_layer_verified_by_multiplying_out(self):
        w = Word((1, 2, 2, -1), 2)
        core, conj = cyclic_reduce(w)
        assert core.letters == (2, 2) and conj.letters == (1,)
        assert conj * core * conj.inverse() == w

    @given(word_strategy(3))
    @settings(max_examples=200)
    def test_reassembles(self, w):
        core, conj = cyclic_reduce(w)
        assert conj * core * conj.inverse() == w
        assert len(core) < 2 or core.letters[0] != -core.letters[-1]


class TestApplyCompose:
    def test_identity_fixes_everything(self):
        a = FreeAutomorphism.identity(2)
        w = Word((1, 2, -1), 2)
        assert apply(a, w) == w

    def test_definitional_image(self):
        a = FreeAutomorphism((Word((1, 2), 2), Word((2,), 2)),
                             (Word((1, -2), 2), Word((2,), 2)))
        assert apply(a, Word((1,), 2)).letters == (1, 2)
        assert apply(a, Word((-1,), 2)).letters == (-2, -1)

    def test_rank_mismatch(self):
        a = FreeAutomorphism.identity(2)
        with pytest.raises(ValueError):
            apply(a, Word((1,), 3))

    def test_compose_with_inverse_is_identity(self):
        a = FreeAutomorphism((Word((1, 2), 2), Word((2,), 2)),
                             (Word((1, -2), 2), Word((2,), 2)))
        assert compose(a, a.inverse()).is_identity()
        assert compose(a.inverse(), a).is_identity()

    def test_compose_identity_neutral(self):
        b = FreeAutomorphism((Word((1,), 2), Word((2, 1), 2)),
                             (Word((1,), 2), Word((2, -1), 2)))
        assert compose(FreeAutomorphism.identity(2), b) == b

    def test_two_nielsen_moves_by_hand(self):
        a = FreeAutomorphism((Word((1, 2), 2), Word((2,), 2)),
                             (Word((1, -2), 2), Word((2,), 2)))
        b = FreeAutomorphism((Word((1,), 2), Word((2, 1), 2)),
                             (Word((1,), 2), Word((2, -1), 2)))
        c = compose(a, b)
        assert [format_word(w) for w in c.images] == ["x1 x2", "x2 x1 x2"]

    def test_invalid_inverse_rejected(self):
        with pytest.raises(ValueError):
            FreeAutomorphism((Word((1, 2), 2), Word((2,), 2)),
                             (Word((1, 2), 2), Word((2,), 2)))

    @given(automorphism_strategy(3), automorphism_strategy(3), word_strategy(3, 8))
    @settings(max_examples=60, deadline=None)
    def test_apply_respects_composition(self, a, b, w):
        assert apply(compose(a, b), w) == apply(a, apply(b, w))

    @given(st.data(), st.integers(2, 4), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_composite_carries_a_two_sided_inverse(self, data, n, moves):
        # compose skips the inverse check: its inverse images are exact by
        # construction, which the explicit check confirms on random chains
        pool = nielsen_generators(n) + whitehead_automorphisms(n)
        chain = data.draw(st.lists(st.sampled_from(pool), min_size=moves, max_size=moves))
        c = FreeAutomorphism.identity(n)
        for a in chain:
            b = c
            c = compose(a, b)
            c._verify_inverse()
            w = data.draw(word_strategy(n, 8))
            assert apply(c, w) == apply(a, apply(b, w))
            assert apply(c.inverse(), apply(c, w)) == w

    @given(automorphism_strategy(3), word_strategy(3, 8), word_strategy(3, 4))
    @settings(max_examples=60, deadline=None)
    def test_cyclic_length_is_class_function(self, a, w, u):
        conj = u * w * u.inverse()
        assert apply(a, w).cyclic_length() == apply(a, conj).cyclic_length()


class TestConjClass:
    @given(word_strategy(3, 8), word_strategy(3, 5))
    @settings(max_examples=150)
    def test_conjugation_invariance(self, w, u):
        assert ConjClass(w) == ConjClass(u * w * u.inverse())

    @given(word_strategy(3, 8))
    @settings(max_examples=150)
    def test_inversion_invariance(self, w):
        assert ConjClass(w) == ConjClass(w.inverse())

    def test_canonical_is_cyclically_reduced(self):
        c = ConjClass(Word((1, 2, 2, -1), 2))
        assert c.canonical.letters == (2, 2)


class TestGeneratingSets:
    def test_nielsen_contains_right_multiplication(self):
        gens = nielsen_generators(2)
        images = {tuple(format_word(w) for w in a.images) for a in gens}
        assert ("x1 x2", "x2") in images

    def test_nielsen_all_invertible(self):
        for a in nielsen_generators(2):
            assert compose(a, a.inverse()).is_identity()

    def test_nielsen_count_rank3(self):
        # transpositions C(3,2)=3, inversions 3, multiplications 4*3*2=24
        assert len(nielsen_generators(3)) == 3 + 3 + 24 == 30

    def test_nielsen_requires_rank_2(self):
        with pytest.raises(ValueError):
            nielsen_generators(1)

    def test_whitehead_second_kind_membership(self):
        auts = whitehead_automorphisms(2)
        images = {tuple(format_word(w) for w in a.images) for a in auts}
        assert ("x1 x2", "x2") in images

    def test_whitehead_all_invertible(self):
        for a in whitehead_automorphisms(2):
            assert compose(a, a.inverse()).is_identity()

    def test_whitehead_second_kind_count_by_enumeration(self):
        # brute force: multipliers a over X^pm, subsets of X^pm \ {a, a^-1},
        # excluding the empty extra set (the identity move)
        n = 2
        alphabet = [v for i in range(1, n + 1) for v in (i, -i)]
        count = 0
        for a in alphabet:
            rest = [v for v in alphabet if v not in (a, -a)]
            for r in range(1, len(rest) + 1):
                count += len(list(itertools.combinations(rest, r)))
        assert len(whitehead_moves_second_kind(2)) == count == 12

    def test_whitehead_move_images(self):
        # (Y={x2, x1^-1}, a=x2): x1 -> x2^-1 x1 (head only)
        a = whitehead_automorphism(frozenset({2, -1}), 2, 2)
        assert format_word(a.images[0]) == "x2^-1 x1"
        assert format_word(a.images[1]) == "x2"

    def test_signed_permutations_count(self):
        assert len(signed_permutations(2)) == 8
        assert len(signed_permutations(3)) == 48


class TestTextSyntax:
    @given(word_strategy(3))
    @settings(max_examples=150)
    def test_round_trip(self, w):
        assert parse_word(format_word(w), 3) == w

    def test_parse_examples(self):
        assert parse_word("x1 x2^-1 x1", 2).letters == (1, -2, 1)
        assert parse_word("", 2).is_identity()
        with pytest.raises(ValueError):
            parse_word("y1", 2)
        with pytest.raises(ValueError):
            parse_word("x3", 2)

    def test_commutator_helper(self):
        w = commutator(Word((1,), 2), Word((2,), 2))
        assert w.letters == (1, 2, -1, -2)
