"""Exact word algebra in the free group F_n and its automorphisms.

Letters are nonzero signed integers: ``i`` is the generator x_i and ``-i``
its inverse, with 1 <= |i| <= rank.  Words are stored freely reduced; the
empty word is the identity.  Automorphisms carry verified two-sided
inverses, so every constructed map really is invertible.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence


def _letter_key(v: int) -> tuple[int, int]:
    # order x1 < x1^-1 < x2 < x2^-1 < ... ; shared with the packed engine
    return (abs(v), 0 if v > 0 else 1)


def _reduce_letters(letters: Iterable[int], rank: int) -> tuple[int, ...]:
    out: list[int] = []
    for v in letters:
        if not isinstance(v, int) or v == 0 or abs(v) > rank:
            raise ValueError(f"letter {v!r} out of range for rank {rank}")
        if out and out[-1] == -v:
            out.pop()
        else:
            out.append(v)
    return tuple(out)


class Word:
    """A freely reduced word in F_rank. Immutable and hashable."""

    __slots__ = ("letters", "rank")

    def __init__(self, letters: Sequence[int], rank: int, _checked: bool = False):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        if _checked:
            self.letters = tuple(letters)
        else:
            self.letters = _reduce_letters(letters, rank)
        self.rank = rank

    @classmethod
    def identity(cls, rank: int) -> Word:
        return cls((), rank, _checked=True)

    @classmethod
    def generator(cls, i: int, rank: int) -> Word:
        if not 1 <= abs(i) <= rank:
            raise ValueError(f"generator index {i} out of range for rank {rank}")
        return cls((i,), rank, _checked=True)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Word) and self.rank == other.rank
                and self.letters == other.letters)

    def __hash__(self) -> int:
        return hash((self.letters, self.rank))

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r}, rank={self.rank})"

    def __mul__(self, other: Word) -> Word:
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return Word(self.letters + other.letters, self.rank)

    def __pow__(self, k: int) -> Word:
        if k < 0:
            return self.inverse() ** (-k)
        out = Word.identity(self.rank)
        for _ in range(k):
            out = out * self
        return out

    def inverse(self) -> Word:
        return Word(tuple(-v for v in reversed(self.letters)), self.rank, _checked=True)

    def is_identity(self) -> bool:
        return not self.letters

    def cyclic_length(self) -> int:
        return len(cyclic_reduce(self)[0])


def reduce(letters: Iterable[int], rank: int) -> Word:
    """Freely reduce a raw letter sequence into a Word."""
    return Word(_reduce_letters(letters, rank), rank, _checked=True)


def cyclic_core(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The cyclically reduced core of a freely reduced letter tuple."""
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == -letters[j - 1]:
        i += 1
        j -= 1
    return letters[i:j]


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split w = conjugator * core * conjugator^-1 with core cyclically reduced."""
    core = cyclic_core(w.letters)
    conj = w.letters[:(len(w.letters) - len(core)) // 2]
    return Word(core, w.rank, _checked=True), Word(conj, w.rank, _checked=True)


def commutator(u: Word, v: Word) -> Word:
    return u * v * u.inverse() * v.inverse()


class ConjClass:
    """Conjugacy class of a word, up to inversion.

    The canonical representative is the lexicographically least cyclic
    rotation of the cyclically reduced core and of its inverse, under the
    letter order x1 < x1^-1 < x2 < x2^-1 < ...
    """

    __slots__ = ("canonical",)

    def __init__(self, w: Word):
        core, _ = cyclic_reduce(w)
        c = core.letters
        if not c:
            self.canonical = core
            return
        inv = tuple(-v for v in reversed(c))
        cands = [c[i:] + c[:i] for i in range(len(c))]
        cands += [inv[i:] + inv[:i] for i in range(len(inv))]
        best = min(cands, key=lambda t: tuple(map(_letter_key, t)))
        self.canonical = Word(best, w.rank, _checked=True)

    def cyclic_length(self) -> int:
        return len(self.canonical)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ConjClass) and self.canonical == other.canonical

    def __hash__(self) -> int:
        return hash(("ConjClass", self.canonical))

    def __repr__(self) -> str:
        return f"ConjClass({format_word(self.canonical)!r}, rank={self.canonical.rank})"


class FreeAutomorphism:
    """Automorphism of F_n given by generator images plus a verified inverse."""

    __slots__ = ("rank", "images", "inverse_images")

    def __init__(self, images: Sequence[Word], inverse_images: Sequence[Word],
                 _checked: bool = False):
        if not images:
            raise ValueError("need at least one generator image")
        rank = images[0].rank
        if len(images) != rank or len(inverse_images) != rank:
            raise ValueError("image count must equal rank")
        if any(w.rank != rank for w in itertools.chain(images, inverse_images)):
            raise ValueError("rank mismatch among images")
        self.rank = rank
        self.images = tuple(images)
        self.inverse_images = tuple(inverse_images)
        if not _checked:
            self._verify_inverse()

    def _verify_inverse(self) -> None:
        for i in range(1, self.rank + 1):
            fwd = apply_letters(self.images, self.inverse_images[i - 1].letters, self.rank)
            bwd = apply_letters(self.inverse_images, self.images[i - 1].letters, self.rank)
            if fwd.letters != (i,) or bwd.letters != (i,):
                raise ValueError("images and inverse_images are not two-sided inverses")

    @classmethod
    def identity(cls, rank: int) -> FreeAutomorphism:
        gens = tuple(Word.generator(i, rank) for i in range(1, rank + 1))
        return cls(gens, gens, _checked=True)

    def inverse(self) -> FreeAutomorphism:
        return FreeAutomorphism(self.inverse_images, self.images, _checked=True)

    def is_identity(self) -> bool:
        return all(w.letters == (i + 1,) for i, w in enumerate(self.images))

    def __eq__(self, other: object) -> bool:
        # image equality is sound and complete for automorphisms of F_n
        return (isinstance(other, FreeAutomorphism) and self.rank == other.rank
                and self.images == other.images)

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        imgs = ", ".join(format_word(w) or "1" for w in self.images)
        return f"FreeAutomorphism[{imgs}]"


def apply_letters(images: Sequence[Word], letters: Sequence[int], rank: int) -> Word:
    out: list[int] = []
    for v in letters:
        img = images[abs(v) - 1].letters
        seq = img if v > 0 else tuple(-u for u in reversed(img))
        for u in seq:
            if out and out[-1] == -u:
                out.pop()
            else:
                out.append(u)
    return Word(tuple(out), rank, _checked=True)


def apply(a: FreeAutomorphism, w: Word) -> Word:
    """Image of w under a, freely reduced."""
    if a.rank != w.rank:
        raise ValueError("rank mismatch")
    return apply_letters(a.images, w.letters, a.rank)


def compose(a: FreeAutomorphism, b: FreeAutomorphism) -> FreeAutomorphism:
    """a after b: compose(a, b)(w) = a(b(w))."""
    if a.rank != b.rank:
        raise ValueError("rank mismatch")
    images = tuple(apply(a, w) for w in b.images)
    inverse_images = tuple(apply(b.inverse(), w) for w in a.inverse_images)
    return FreeAutomorphism(images, inverse_images)


def nielsen_generators(n: int) -> list[FreeAutomorphism]:
    """The standard finite generating set of Aut(F_n): transpositions,
    single-generator inversions, and the four one-sided multiplications
    x_i -> x_i x_j^±1, x_i -> x_j^±1 x_i for i != j.
    """
    if n < 2:
        raise ValueError("rank must be >= 2")
    gens = [Word.generator(i, n) for i in range(1, n + 1)]
    out: list[FreeAutomorphism] = []

    def replace(imgs, i, w):
        new = list(imgs)
        new[i - 1] = w
        return tuple(new)

    for i, j in itertools.combinations(range(1, n + 1), 2):
        imgs = list(gens)
        imgs[i - 1], imgs[j - 1] = gens[j - 1], gens[i - 1]
        out.append(FreeAutomorphism(tuple(imgs), tuple(imgs), _checked=True))
    for i in range(1, n + 1):
        imgs = replace(gens, i, Word((-i,), n, _checked=True))
        out.append(FreeAutomorphism(imgs, imgs, _checked=True))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            for s in (1, -1):
                # x_i -> x_i x_j^s ; inverse: x_i -> x_i x_j^-s
                fwd = replace(gens, i, Word((i, s * j), n, _checked=True))
                bwd = replace(gens, i, Word((i, -s * j), n, _checked=True))
                out.append(FreeAutomorphism(fwd, bwd, _checked=True))
                # x_i -> x_j^s x_i ; inverse: x_i -> x_j^-s x_i
                fwd = replace(gens, i, Word((s * j, i), n, _checked=True))
                bwd = replace(gens, i, Word((-s * j, i), n, _checked=True))
                out.append(FreeAutomorphism(fwd, bwd, _checked=True))
    return out


def signed_permutations(n: int) -> list[FreeAutomorphism]:
    """All 2^n n! permutation/inversion automorphisms (identity included)."""
    out = []
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            images = tuple(Word((signs[i] * perm[i],), n, _checked=True) for i in range(n))
            inv_images: list[Word] = [None] * n  # type: ignore[list-item]
            for i in range(n):
                inv_images[perm[i] - 1] = Word((signs[i] * (i + 1),), n, _checked=True)
            out.append(FreeAutomorphism(images, tuple(inv_images), _checked=True))
    return out


def whitehead_moves_second_kind(n: int) -> list[tuple[frozenset[int], int]]:
    """Second-kind Whitehead moves as (Y, a) pairs: a in Y, -a not in Y,
    Y != {a} (which would be the identity map).  Deterministic order:
    multiplier a by letter order, then subsets lexicographically.
    """
    if n < 2:
        raise ValueError("rank must be >= 2")
    alphabet = sorted((v for i in range(1, n + 1) for v in (i, -i)), key=_letter_key)
    moves = []
    for a in alphabet:
        rest = [v for v in alphabet if v != a and v != -a]
        for r in range(1, len(rest) + 1):
            for extra in itertools.combinations(rest, r):
                moves.append((frozenset((a,) + extra), a))
    return moves


def whitehead_automorphism(Y: frozenset[int], a: int, n: int) -> FreeAutomorphism:
    """The second-kind move (Y, a): a -> a and, for x not in {a, a^-1},
    x -> a^-1 x when x^-1 in Y, x -> x a when x in Y (both when both hold).
    """

    def image(i: int, mult: int) -> Word:
        if i == abs(mult):
            return Word.generator(i, n)
        seq: list[int] = []
        if -i in Y:
            seq.append(-mult)
        seq.append(i)
        if i in Y:
            seq.append(mult)
        return Word(seq, n)

    images = tuple(image(i, a) for i in range(1, n + 1))
    inverse_images = tuple(image(i, -a) for i in range(1, n + 1))
    return FreeAutomorphism(images, inverse_images)


def whitehead_automorphisms(n: int) -> list[FreeAutomorphism]:
    """The complete list of Whitehead automorphisms of rank n, both kinds.

    First kind: nontrivial permutation/inversion maps.  Second kind: the
    (Y, a) moves from whitehead_moves_second_kind.  The identity map is
    omitted from both kinds.
    """
    if n < 2:
        raise ValueError("rank must be >= 2")
    first = [a for a in signed_permutations(n) if not a.is_identity()]
    second = [whitehead_automorphism(Y, a, n) for (Y, a) in whitehead_moves_second_kind(n)]
    return first + second


def parse_word(text: str, rank: int) -> Word:
    """Parse the token syntax ``x1 x2^-1 x1``; empty input is the identity."""
    letters = []
    for tok in text.split():
        body, inv = (tok[:-3], True) if tok.endswith("^-1") else (tok, False)
        if not body.startswith("x"):
            raise ValueError(f"bad token {tok!r}: expected x<i> or x<i>^-1")
        try:
            i = int(body[1:])
        except ValueError:
            raise ValueError(f"bad token {tok!r}: expected x<i> or x<i>^-1") from None
        if not 1 <= i <= rank:
            raise ValueError(f"generator index {i} out of range for rank {rank}")
        letters.append(-i if inv else i)
    return reduce(letters, rank)


def format_word(w: Word) -> str:
    return " ".join(f"x{abs(v)}" if v > 0 else f"x{abs(v)}^-1" for v in w.letters)
