"""The punctured-sphere twisting construction and PS^2 probes.

A 4-punctured sphere group is realized as an explicit rank-3 integer
representation whose three generators and their product are parabolic
(trace exactly 2).  Twisting automorphisms multiply every generator by a
high power of a commutator word whose Whitehead graph is connected and
cutpoint-free on its own letters; precomposing with their inverses yields
a pair of representations whose parabolic conjugacy classes have Whitehead
graphs containing that word's graph.  The probe then measures, for every
primitive conjugacy class up to a length cap, translation-length ratios
and quasi-geodesic behavior of the orbit map under each representation.

All length computations run in scaled float arithmetic (mantissa times
power of two) so long products never overflow; near-parabolic traces are
re-verified exactly when the generators are integer matrices of determinant 1.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from . import _engine, jsonio
from .freegroup import (
    ConjClass,
    FreeAutomorphism,
    Word,
    apply,
    apply_letters,
    cyclic_reduce,
    format_word,
)
from .sl2 import TOL_PAR, GroupElement, Representation, generator_table, integer_entries
from .whitehead import WhiteheadGraph, build_graph, connected_cutpoint_free, union

IntMatrix = tuple[tuple[int, int], tuple[int, int]]

# the twisting words [x2, x3] and [x1, x3] of the two variants
TWISTING_WORDS = (Word((2, 3, -2, -3), 3), Word((1, 3, -1, -3), 3))
# largest twist exponent find_twisting_exponent tries
M_MAX = 10
# rows per block of the probe's products and of the CSV decoder
BLOCK_ROWS = 20_000
# format_word text of the one-letter word of every uint8 nibble
_TOKEN_OF_NIB = np.array([format_word(Word((v,), abs(v), _checked=True))
                          for v in map(_engine.letter_of_nib, range(256))], dtype=object)
# entries per entry array in one block of _axis_checks
AXIS_BLOCK = 10_000
# entries per length at most in _segment_table, the products of every word
# of at most d0 letters that _axis_checks looks its short segments up in
AXIS_TABLE = 2 ** 13


def _int_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return ((a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
            (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]))


def _int_inv(a: IntMatrix) -> IntMatrix:
    # adjugate; exact inverse for determinant 1
    return ((a[1][1], -a[0][1]), (-a[1][0], a[0][0]))


def int_evaluate(mats: list[IntMatrix], letters) -> IntMatrix:
    out: IntMatrix = ((1, 0), (0, 1))
    for v in letters:
        m = mats[abs(v) - 1]
        out = _int_mul(out, m if v > 0 else _int_inv(m))
    return out


def _int_rep(mats: list[IntMatrix]) -> Representation:
    return Representation([GroupElement(m) for m in mats])


@dataclass
class PuncturedSphereRep:
    """Rank n = k-1 representation of a k-punctured sphere group: the n
    generators and their product are the puncture classes, all parabolic
    with trace exactly 2 (integer matrices)."""
    rep: Representation
    punctures: list[ConjClass]
    int_images: list[IntMatrix]


def build_fuchsian_4punctured() -> PuncturedSphereRep:
    """The explicit discrete faithful 4-punctured-sphere representation.

    Generators X1 = [[1,2],[0,1]], X2 = [[1,0],[-4,1]], X3 = [[-3,2],[-8,5]]
    form a basis (A, B^-2, B A B^-1) of an index-2 subgroup of the Sanov
    group <[[1,2],[0,1]], [[1,0],[2,1]]>, which is free and discrete; the
    three generators and their product X1 X2 X3 = [[5,-4],[4,-3]] are all
    parabolic (trace 2).  Discreteness and faithfulness are classical facts
    about this integer group, documented rather than re-proved at runtime.
    """
    mats: list[IntMatrix] = [((1, 2), (0, 1)), ((1, 0), (-4, 1)), ((-3, 2), (-8, 5))]
    for m in mats:
        assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1
        assert m[0][0] + m[1][1] == 2
    prod = int_evaluate(mats, (1, 2, 3))
    assert prod == ((5, -4), (4, -3)) and prod[0][0] + prod[1][1] == 2
    punctures = [ConjClass(Word((i,), 3)) for i in (1, 2, 3)]
    punctures.append(ConjClass(Word((1, 2, 3), 3)))
    return PuncturedSphereRep(_int_rep(mats), punctures, mats)


class TwistingPreconditionError(ValueError):
    """The twisting word fails its Whitehead-graph precondition."""


def _check_twisting_word(g: Word, distinguished: int) -> None:
    core, _ = cyclic_reduce(g)
    if core.letters != g.letters:
        raise TwistingPreconditionError("twisting word must be cyclically reduced")
    if not g.letters:
        raise TwistingPreconditionError("twisting word must be nontrivial")
    if any(abs(v) == distinguished for v in g.letters):
        raise TwistingPreconditionError(
            f"twisting word must avoid generator x{distinguished}")
    others = [v for i in range(1, g.rank + 1) if i != distinguished for v in (i, -i)]
    if not connected_cutpoint_free(build_graph([g], g.rank), others):
        raise TwistingPreconditionError(
            "twisting word's Whitehead graph must be connected and cutpoint-free "
            "on the non-distinguished vertices")


def build_phi(m: int, variant: int, g: Word) -> FreeAutomorphism:
    """The twisting automorphism: with d the distinguished generator (x1 for
    variant 1, x2 for variant 2), d -> d g^m and x_i -> x_i d g^m for the
    others.  Its inverse sends x_i -> x_i d^-1 for the others and d ->
    d h^-m, with h the word g after that substitution; the constructor
    verifies that the two are two-sided inverses.
    """
    if m < 1:
        raise ValueError("twisting exponent m must be >= 1")
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    d = 1 if variant == 1 else 2
    _check_twisting_word(g, d)
    n = g.rank
    gm = g ** m
    gens = [Word.generator(i, n) for i in range(1, n + 1)]
    x_d = gens[d - 1]
    images = [x_d * gm if x == x_d else x * x_d * gm for x in gens]
    inverse_images = [x if x == x_d else x * x_d.inverse() for x in gens]
    h_m = apply_letters(inverse_images, gm.letters, n)
    inverse_images[d - 1] = x_d * h_m.inverse()
    return FreeAutomorphism(images, inverse_images)


@dataclass
class ContainmentDetail:
    puncture: ConjClass
    image: Word
    missing_edges: list[tuple[int, int]]

    @property
    def contained(self) -> bool:
        return not self.missing_edges


def puncture_whitehead_containment(phi: FreeAutomorphism, punctures: list[ConjClass],
                                   W: WhiteheadGraph) -> tuple[bool, list[ContainmentDetail]]:
    """Does the Whitehead graph of every twisted puncture contain W edgewise
    (simple-graph view)?  Details list the missing edges per puncture."""
    target = W.simple_edges()
    details = []
    for c in punctures:
        img = apply(phi, c.canonical)
        graph = build_graph([img], phi.rank)
        missing = sorted(target - graph.simple_edges())
        details.append(ContainmentDetail(c, img, missing))
    return all(d.contained for d in details), details


def pair_graph_check(g1: Word, g2: Word) -> bool:
    """Combinatorial core of the two-handlebody construction: intended for
    g1 in the free factor <x_2..x_n> and g2 in <x_1, x_3..x_n>.

    Precondition (reported per input): each word's graph is connected and
    cutpoint-free on the vertices of its own letters.  Returns whether the
    union graph over all 2n vertices is connected without cutpoints; words
    that jointly miss a generator leave isolated vertices and yield False."""
    if g1.rank != g2.rank:
        raise ValueError("rank mismatch")
    n = g1.rank
    problems = []
    for label, g in (("g1", g1), ("g2", g2)):
        support = sorted({v for x in g.letters for v in (x, -x)})
        if not connected_cutpoint_free(build_graph([g], n), support):
            problems.append(label)
    if problems:
        raise TwistingPreconditionError(
            f"precondition failed for {', '.join(problems)}: graph must be "
            "connected and cutpoint-free on its own letters' vertices")
    u = union(build_graph([g1], n), build_graph([g2], n))
    return connected_cutpoint_free(u)


def _twists(m: int, punctures: list[ConjClass], g1: Word, g2: Word
            ) -> tuple[list[FreeAutomorphism], list[ConjClass]]:
    """Both variants' twisting automorphisms at exponent m, and the punctures
    whose twisted Whitehead graph misses the graph of the variant's word."""
    phis, bad = [], []
    for variant, g in ((1, g1), (2, g2)):
        phis.append(build_phi(m, variant, g))
        _, details = puncture_whitehead_containment(phis[-1], punctures,
                                                    build_graph([g], g.rank))
        bad += [d.puncture for d in details if not d.contained]
    return phis, bad


def find_twisting_exponent(punctures: list[ConjClass], g1: Word, g2: Word) -> int:
    """Smallest m for which both variants' twisted punctures have Whitehead
    graphs containing the respective twisting word's graph.  The value is a
    measured artifact output, not assumed."""
    for m in range(1, M_MAX + 1):
        if not _twists(m, punctures, g1, g2)[1]:
            return m
    raise ValueError(f"no twisting exponent <= {M_MAX} passes containment")


@dataclass
class TwistedPair:
    rho1: Representation
    rho2: Representation
    phi1: FreeAutomorphism
    phi2: FreeAutomorphism
    m: int
    int_images_1: list[IntMatrix]
    int_images_2: list[IntMatrix]


def twisted_pair(rho0: PuncturedSphereRep, m: int) -> TwistedPair:
    """rho_i = rho0 after the inverse twist by TWISTING_WORDS[i-1]:
    coordinate j is rho0 evaluated on phi_i^-1(x_j).  Parabolic conjugacy
    classes of rho_i are exactly the phi_i images of the punctures; their
    traces stay +-2 in exact integer arithmetic, which is checked."""
    (phi1, phi2), bad = _twists(m, rho0.punctures, *TWISTING_WORDS)
    if bad:
        raise TwistingPreconditionError(
            f"puncture containment fails at m={m} for {bad}; increase m")
    out = []
    for phi in (phi1, phi2):
        ints = [int_evaluate(rho0.int_images, w.letters) for w in phi.inverse_images]
        for c0 in rho0.punctures:
            c = ConjClass(apply(phi, c0.canonical))
            tr_direct = int_evaluate(rho0.int_images, c0.canonical.letters)
            tr_twist = int_evaluate(ints, c.canonical.letters)
            t1 = tr_direct[0][0] + tr_direct[1][1]
            t2 = tr_twist[0][0] + tr_twist[1][1]
            if abs(t2) != 2 or abs(t1) != 2:
                raise AssertionError("parabolicity lost through twisting")
        out.append(ints)
    ints1, ints2 = out
    return TwistedPair(_int_rep(ints1), _int_rep(ints2), phi1, phi2, m, ints1, ints2)


# -- the PS^2 probe -----------------------------------------------------------


def _runs(col_length: np.ndarray) -> list[int]:
    """Boundaries of the runs of one length in a sorted length column."""
    return [0, *(np.flatnonzero(np.diff(col_length)) + 1).tolist(), col_length.size]


def _blocks(col_length: np.ndarray, col_keys: np.ndarray, b: int, rows: int | None = None):
    """(lo, hi, l, nibble rows) per block of <= rows (default BLOCK_ROWS)
    classes of length l."""
    bounds = sorted({*_runs(col_length), *range(0, col_length.size, rows or BLOCK_ROWS)})
    for lo, hi in zip(bounds, bounds[1:]):
        l = int(col_length[lo])
        yield lo, hi, l, _engine.unpack_keys(col_keys[lo:hi], l, b)


@dataclass
class PS2Report:
    rank: int
    field: str
    length_cap: int
    K: float
    window: int
    total_classes: int = field(init=False)
    counts_by_length: dict[int, int] = field(init=False)
    min_max_ratio: float = field(init=False)
    argmin_class: str = field(init=False)
    zero_ratio_count_1: int = field(init=False)
    zero_ratio_count_2: int = field(init=False)
    zero_ratio_examples_1: list[str] = field(init=False)
    zero_ratio_examples_2: list[str] = field(init=False)
    axis_pass_count_1: int = field(init=False)
    axis_pass_count_2: int = field(init=False)
    axis_pass_either: int = field(init=False)
    # per-class columns (numpy arrays, aligned): internal but public for tests
    col_length: np.ndarray = field(repr=False)
    col_keys: np.ndarray = field(repr=False)
    col_l1: np.ndarray = field(repr=False)
    col_l2: np.ndarray = field(repr=False)
    col_axis1: np.ndarray = field(repr=False)
    col_axis2: np.ndarray = field(repr=False)
    col_kfit1: np.ndarray = field(repr=False)
    col_kfit2: np.ndarray = field(repr=False)

    def __post_init__(self):
        mx = np.maximum(*self.ratios())
        imin = int(np.argmin(mx))
        zeros1 = np.flatnonzero(self.col_l1 == 0.0)
        zeros2 = np.flatnonzero(self.col_l2 == 0.0)
        bounds = _runs(self.col_length)
        self.total_classes = int(self.col_length.size)
        self.counts_by_length = {int(self.col_length[lo]): hi - lo
                                 for lo, hi in zip(bounds, bounds[1:])}
        self.min_max_ratio = float(mx[imin])
        self.argmin_class = self._class_text(imin)
        self.zero_ratio_count_1 = int(zeros1.size)
        self.zero_ratio_count_2 = int(zeros2.size)
        self.zero_ratio_examples_1 = [self._class_text(i) for i in zeros1[:5]]
        self.zero_ratio_examples_2 = [self._class_text(i) for i in zeros2[:5]]
        self.axis_pass_count_1 = int(self.col_axis1.sum())
        self.axis_pass_count_2 = int(self.col_axis2.sum())
        self.axis_pass_either = int((self.col_axis1 | self.col_axis2).sum())

    def __eq__(self, other: object) -> bool:
        # the generated __eq__ takes the truth value of an array comparison
        return isinstance(other, PS2Report) and self.to_obj() == other.to_obj() and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name), equal_nan=True)
            for f in fields(self) if not f.repr)

    __hash__ = None  # unhashable, as the generated class was

    def _class_text(self, i: int) -> str:
        W = _engine.unpack_keys(self.col_keys[i:i + 1], int(self.col_length[i]),
                                _engine.bits_per_letter(self.rank))
        return " ".join(_TOKEN_OF_NIB[W[0]].tolist())

    def ratios(self) -> tuple[np.ndarray, np.ndarray]:
        L = self.col_length.astype(float)
        return self.col_l1 / L, self.col_l2 / L

    def min_max_ratio_at(self, cap: int) -> float:
        """Minimum over classes of length <= cap of max(r1, r2); lets one
        probe run answer stability questions for every smaller cap."""
        mask = self.col_length <= cap
        r1, r2 = self.ratios()
        return float(np.maximum(r1[mask], r2[mask]).min())

    def to_obj(self) -> dict:
        """The summary fields, in field order; the col_* columns are left out."""
        obj = {f.name: getattr(self, f.name) for f in fields(self) if f.repr}
        obj["counts_by_length"] = {str(k): v for k, v in self.counts_by_length.items()}
        return obj

    def write_csv(self, path: str, n: int, manifest_line: str | None = None) -> None:
        if n != self.rank:
            raise ValueError(f"rank {n} does not match the report's rank {self.rank}")
        r1, r2 = self.ratios()
        first = r1 >= r2  # max_ratio is the r1 text there, the r2 text elsewhere
        with open(path, "w") as f:
            if manifest_line is not None:
                f.write(f"# {manifest_line}\n")
            f.write("class,length,l1,l2,r1,r2,max_ratio,axis_pass_1,axis_pass_2,"
                    "K_fit_1,K_fit_2\n")
            # blocks of at most 4096 rows bound the column texts held at once
            for lo, hi, l, W in _blocks(self.col_length, self.col_keys,
                                        _engine.bits_per_letter(n), min(BLOCK_ROWS, 4096)):
                # one % pass per column; max_ratio reuses the r1 and r2 texts
                g17 = [jsonio.format_column(c[lo:hi], "%.17g")
                       for c in (self.col_l1, self.col_l2, r1, r2)]
                cols = [map(" ".join, _TOKEN_OF_NIB[W].tolist()), [str(l)] * (hi - lo), *g17,
                        [a if f else b for a, b, f in zip(g17[2], g17[3], first[lo:hi].tolist())]]
                cols += [jsonio.format_column(c[lo:hi], fmt)
                         for c, fmt in ((self.col_axis1, "%d"), (self.col_axis2, "%d"),
                                        (self.col_kfit1, "%.6g"), (self.col_kfit2, "%.6g"))]
                f.write("".join([",".join(row) + "\n" for row in zip(*cols)]))

    def check_ratio_axis_consistency(self) -> int:
        """Count records where an axis check passed but the translation
        ratio undercuts the lower quasi-geodesic bound at period spacing:
        ratio >= 1/K - K/||c|| must hold whenever the axis check passes."""
        L = self.col_length.astype(float)
        bound = 1.0 / self.K - self.K / L
        r1, r2 = self.ratios()
        bad1 = int((self.col_axis1 & (r1 < bound - 1e-9)).sum())
        bad2 = int((self.col_axis2 & (r2 < bound - 1e-9)).sum())
        return bad1 + bad2


def _step_buffers(n: int, dtype) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """Two (4, n) products to ping-pong between, and _scaled_step's scratch:
    one row of products, the (4, n) entry magnitudes, the exponents.  The
    two products share one allocation: allocated apart, large arrays can all
    start at the same offset in a page (mmap'd blocks do), and the axis
    check's steps measured about 1.5x slower that way."""
    P, Q = np.empty((2, 4, n), dtype)
    return P, Q, (np.empty(n, dtype), np.empty((4, n)), np.empty(n, np.intc))


def _scaled_step(P: np.ndarray, E: np.ndarray, G: np.ndarray, out: np.ndarray,
                 scratch: tuple[np.ndarray, ...]) -> None:
    """One step of scaled products mant * 2^E; rows 0-3 of P, G and out hold
    the entries 00, 01, 10, 11.  Writes P times G into out, then moves the
    power of two of each entry maximum into E (in place): an exact rescale to
    unit scale.  Allocates nothing: the caller passes the scratch, laid out
    as _step_buffers gives it."""
    tmp, mag, ex = scratch
    a, b, c, d = P
    ga, gb, gc, gd = G
    for o, x, y, u, v in ((out[0], a, ga, b, gc), (out[1], a, gb, b, gd),
                          (out[2], c, ga, d, gc), (out[3], c, gb, d, gd)):
        np.multiply(x, y, out=o)
        np.multiply(u, v, out=tmp)
        o += tmp
    np.abs(out, out=mag)
    top = mag[0]
    for row in mag[1:]:
        np.maximum(top, row, out=top)
    np.frexp(top, out=(top, ex))
    E += ex
    np.negative(ex, out=ex)
    np.exp2(ex, out=top)
    out *= top


def _scaled_word_products(W: np.ndarray, table: np.ndarray):
    """Scaled products of table matrices along rows of W: returns (mant, exp)
    with true matrix = mant * 2^exp, so arbitrarily long products never
    overflow.

    Each distinct prefix of the rows is multiplied once.  At letter j a row
    is a head when its first j + 1 letters differ from the previous row's;
    only heads are stepped, each from its parent, the product of its first j
    letters (the identity at j = 0).  Rows sorted by their letters, as the
    probe's class rows are, share most prefixes with their neighbours.
    _scaled_step works column by column and rescales by exact powers of two,
    so every row gets the bits it would get multiplied out alone, whatever
    the order, repetition or batching of the rows."""
    for P, E, heads in _prefix_products(W, table):
        pass
    if P.shape[1] < W.shape[0]:  # repeated rows: map each row to its node
        node = np.cumsum(heads) - 1
        P, E = P[:, node], E[node]
    return P.T.reshape(W.shape[0], 2, 2), E


def _prefix_products(W: np.ndarray, table: np.ndarray):
    """The trie loop of _scaled_word_products: yields, before the first
    letter and after each letter j, the (4, k) scaled products and k
    exponents of the k distinct prefixes of j + 1 letters in row order (one
    identity before the first), and the mask of the rows that head them.
    The yielded arrays are overwritten at the next letter."""
    N, l = W.shape
    comp = table.reshape(-1, 4).T.copy()  # comp[e, c]: entry e of table[c]
    if W.size and W.max() >= comp.shape[1]:  # np.take's "clip" below would not raise
        raise IndexError(f"W has letter indices beyond the {comp.shape[1]} table matrices")
    Wt = W.T.copy()  # Wt[j]: letter j of every row, contiguous
    # flat buffers: the first 4k entries viewed as (4, k) are contiguous, so
    # np.take writes into them in place; each its own allocation, so the
    # returned views keep no other buffer alive
    n = max(N, 1)
    prod, par, G = (np.empty(4 * n, table.dtype) for _ in range(3))
    tmp, mag, ex = np.empty(n, table.dtype), np.empty(4 * n), np.empty(n, np.intc)
    E, E_par = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    prod[:4] = (1.0, 0.0, 0.0, 1.0)  # before letter 0: one node, the identity
    heads = np.zeros(N, dtype=bool)
    heads[:1] = True
    k = min(N, 1)
    yield prod[:4 * k].reshape(4, k), E[:k], heads
    for j in range(l):
        new = np.empty(N, dtype=bool)
        new[:1] = True
        np.not_equal(Wt[j, 1:], Wt[j, :-1], out=new[1:])
        new |= heads
        parent = np.cumsum(heads[new])  # each head's node at letter j - 1
        parent -= 1
        prev_P, prev_E = prod[:4 * k].reshape(4, k), E[:k]
        heads, k = new, parent.size
        src, Gk, out, magk = (b[:4 * k].reshape(4, k) for b in (par, G, prod, mag))
        np.take(prev_P, parent, axis=1, out=src, mode="clip")
        np.take(prev_E, parent, out=E_par[:k], mode="clip")
        np.take(comp, Wt[j][heads], axis=1, out=Gk, mode="clip")
        _scaled_step(src, E_par[:k], Gk, out, (tmp[:k], magk, ex[:k]))
        E, E_par = E_par, E
        yield out, E[:k], heads


_LN2 = math.log(2.0)


def _complex_lengths(t: np.ndarray) -> np.ndarray:
    """sl2.translation_length from complex traces t of determinant-1
    matrices: 2 ln |lambda| of the sign-aligned large root, and 0 in the
    parabolic bands at t = +-2 and the elliptic band of real t in (-2, 2)."""
    half = t / 2.0
    s = np.sqrt(half * half - 1.0)
    s = np.where((half.conj() * s).real < 0.0, -s, s)
    out = 2.0 * np.abs(np.log(np.abs(half + s)))
    out[(np.abs(t - 2.0) <= TOL_PAR) | (np.abs(t + 2.0) <= TOL_PAR)
        | ((np.abs(t.imag) <= TOL_PAR) & (np.abs(t.real) < 2.0 - TOL_PAR))] = 0.0
    return out


def _lengths_from_scaled_traces(tr_mant: np.ndarray, exp: np.ndarray) -> np.ndarray:
    """Translation lengths 2 ln |lambda_max| from scaled traces t*2^e."""
    a = np.abs(tr_mant)
    log_t = np.where(a > 0, np.log(np.maximum(a, 1e-300)), -np.inf) + exp * _LN2
    out = np.empty(a.shape, dtype=float)
    big = log_t > 60.0  # |t| so large that lambda ~ |t| to double precision
    out[big] = 2.0 * log_t[big]
    small = ~big
    if np.iscomplexobj(tr_mant):
        out[small] = _complex_lengths(tr_mant[small] * np.exp2(exp[small].astype(float)))
        return out
    t = np.exp(log_t[small])
    hyp = t > 2.0 + TOL_PAR
    half = t / 2.0
    lam = np.where(hyp, half + np.sqrt(np.maximum(half * half - 1.0, 0.0)), 1.0)
    out[small] = 2.0 * np.log(lam)
    return out


def _distances(logX: np.ndarray) -> np.ndarray:
    """d = arccosh(X) from log X, as log X + ln 2 where X is beyond exp's reach."""
    return np.where(logX < 30.0, np.arccosh(np.maximum(np.exp(np.minimum(logX, 30.0)), 1.0)),
                    logX + _LN2)


def _log_x(P: np.ndarray, E: np.ndarray, m: np.ndarray) -> np.ndarray:
    """log X = log(||seg||_F^2 / 2) per column of the (4, k) scaled products P
    with exponents E, adding the entries' |.|^2 in the order 00, 01, 10, 11.
    Works in m, (4, k) float scratch, and returns its row 0."""
    f2, e2 = m[0], m[1]
    np.square(np.abs(P, out=m), out=m)
    for row in m[1:]:
        f2 += row
    f2 /= 2.0
    logX = np.log(np.maximum(f2, 1e-300, out=f2), out=f2)
    logX += np.multiply(E, 2 * _LN2, out=e2)
    return logX


def _segment_table(table: np.ndarray) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Every word of at most d0 letters over the k table matrices, with d0 the
    largest length such that k^d0 <= AXIS_TABLE: logs[delta][code] is log X
    of the word of delta letters with code = sum of letter_j k^(delta-1-j)
    (logs[0] holds the empty word's), and (P, E) are the (4, k^d0) scaled
    products and exponents of the words of d0 letters.

    The words of d0 letters in code order go through _prefix_products; their
    prefixes of delta letters are every word of delta letters in code order,
    each stepped by _scaled_step from the identity, so each entry has the
    bits _axis_checks gets stepping that word."""
    k = table.shape[0]
    d0 = 0
    while k ** (d0 + 1) <= AXIS_TABLE:
        d0 += 1
    words = np.indices((k,) * d0, dtype=np.uint8).reshape(d0, k ** d0).T
    logs = []
    for P, E, _ in _prefix_products(words, table):
        logs.append(_log_x(P, E, np.empty((4, E.size))).copy())
    return logs, P, E


def _step_verdicts(logX, delta, K: float) -> tuple[np.ndarray, np.ndarray]:
    """The interval test delta/K - K <= d <= K*delta + K over each column of
    logX (one row per offset s), and the column's largest fit
    max(d/(delta+1), (-d + sqrt(d^2 + 4 delta))/2), as if every entry had
    been tested and fitted on its own.  logX is a list of (k, nb) arrays and
    delta an array of their deltas; the results are (len(delta), nb), row i
    for delta[i].

    d is non-decreasing in log X, so the test holds for the column exactly
    when it holds at the column's min and max of log X, and the rising branch
    d/(delta+1) peaks at the max.  That d keeps its order as evaluated is
    not guaranteed by exp and arccosh, whose float64 versions may err by a
    few ulps; it was checked on consecutive floats around the formula switch
    at 30 and the clamp at 0, and on 4M sorted values in [0, 40].
    The falling branch peaks at the min in real arithmetic, but rounding can
    lift it at a larger d by up to 2^-51 sqrt(d_max^2 + 4 delta); in the
    columns where it comes within four times that of the rising branch, it
    is taken over every entry."""
    dl = np.asarray(delta, dtype=float)[:, None]
    ends = np.stack([x.min(axis=0) for x in logX] + [x.max(axis=0) for x in logX])
    d_min, d_max = np.split(_distances(ends), 2)
    good = (d_max <= K * dl + K) & (d_min >= dl / K - K)
    rising = d_max / (dl + 1.0)
    falling = (-d_min + np.sqrt(d_min * d_min + 4.0 * dl)) / 2.0
    near = falling + 2.0 ** -49 * np.sqrt(d_max * d_max + 4.0 * dl) >= rising
    for i in np.flatnonzero(near.any(axis=1)):
        d = _distances(logX[i][:, near[i]])
        falling[i, near[i]] = ((-d + np.sqrt(d * d + 4.0 * dl[i])) / 2.0).max(axis=0)
    return good, np.maximum(rising, falling)


def _axis_checks(W: np.ndarray, table: np.ndarray, window: int, K: float, segs=None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided K-quasi-geodesic test over all axis-point pairs (s, t),
    s < t <= window*||c||; returns (pass mask, best-fitting K) per row.

    d(tau(s), tau(t)) = arccosh(||seg||_F^2 / 2) from the height-1 basepoint,
    in log scale when long; seg is multiplied out from its own letters (a
    quotient of prefixes would cancel catastrophically).  Position t reads
    letter (t-1) mod ||c||, so seg(s, t) depends only on (s mod ||c||, t - s)
    and, the verdict being an AND and the fit a max, only offsets s < ||c||
    are computed, advancing together in blocks of about AXIS_BLOCK entries.
    Each step rescales by an exact power of two, so every segment gets the
    mantissa and exponent it would get multiplied out alone.

    A segment of delta <= d0 letters is a word of the table matrices, so its
    log X is read from segs, the _segment_table of table (built here when
    not given), at its running code code * k + letter; at delta = d0 + 1 the
    segments start from the table's products of d0 letters.

    log X = log(||seg||_F^2 / 2) is kept for every segment, but the verdict
    and the fit are read from each row's min and max of log X per delta, in
    one _step_verdicts pass per block: d is non-decreasing in log X, the
    interval test is a bound on each side, and the fit is a branch rising in
    d plus one falling in d (see _step_verdicts for the rounding of the
    falling one).  So only those two values per row and delta need arccosh,
    and, as long as d keeps the order of log X as evaluated, the result is
    the same bits as testing and fitting every segment."""
    N, l = W.shape
    T = window * l
    ok = np.ones(N, dtype=bool)
    kfit = np.zeros(N, dtype=float)
    k = table.shape[0]
    if W.size and W.max() >= k:  # a running code would not raise
        raise IndexError(f"W has letter indices beyond the {k} table matrices")
    if not T:  # no pairs: every row passes
        return ok, kfit
    logs, P0, E0 = _segment_table(table) if segs is None else segs
    d0 = min(len(logs) - 1, T)
    comp = table.reshape(-1, 4).T.copy()
    rows = max(1, AXIS_BLOCK // max(l, 1))
    for lo in range(0, N, rows):
        Wb = W[lo:lo + rows]
        nb = Wb.shape[0]
        at = Wb.T[np.arange(T) % l]  # at[t, r]: the letter at position t + 1 of row r
        code = np.zeros(l * nb, dtype=np.intp)  # column s*nb + r: offset s, row r
        logX = []  # per delta, (offsets, nb)
        for delta in range(1, d0 + 1):
            live = min(l, T - delta + 1) * nb
            code = code[:live]
            code *= k
            code += at[delta - 1:].reshape(-1)[:live]
            logX.append(logs[delta][code].reshape(-1, nb))
        if d0 < T:
            code = code[:min(l, T - d0) * nb]
            P, Q, scratch = _step_buffers(code.size, table.dtype)
            np.take(P0, code, axis=1, out=P, mode="clip")
            E = E0[code]
            G = np.take(comp, at[d0:], axis=1).reshape(4, -1)
            for delta in range(d0 + 1, T + 1):
                live = min(l, T - delta + 1) * nb
                E = E[:live]
                _scaled_step(P[:, :live], E, G[:, (delta - 1 - d0) * nb:][:, :live], Q[:, :live],
                             tuple(s[..., :live] for s in scratch))
                P, Q = Q[:, :live], P[:, :live]
                logX.append(_log_x(P, E, scratch[1][:, :live]).reshape(-1, nb).copy())
        good, fit = _step_verdicts(logX, np.arange(1, T + 1), K)
        ok[lo:lo + nb] = good.all(axis=0)
        kfit[lo:lo + nb] = fit.max(axis=0)
    return ok, kfit


def _near_parabolic_recheck(lengths: np.ndarray, tr_mant: np.ndarray,
                            exp: np.ndarray, W: np.ndarray,
                            int_mats: list[IntMatrix] | None) -> None:
    """Classes whose float trace sits near +-2 get re-evaluated exactly in
    integer arithmetic (trace +-2 -> length exactly 0) given the generators'
    integer images.  Without them there is nothing to add: the lengths already
    carry the tolerance bands at +-2.  Mutates lengths in place."""
    if int_mats is None:
        return
    t = tr_mant * np.exp2(np.clip(exp, None, 64).astype(float))
    gap = np.minimum(np.abs(t - 2.0), np.abs(t + 2.0))
    suspects = np.nonzero((exp <= 8) & (gap < 1e-3))[0]
    for i, w in zip(suspects, _engine.decode_rows(W[suspects], len(int_mats))):
        m = int_evaluate(int_mats, w.letters)
        t = m[0][0] + m[1][1]
        if abs(t) <= 2:
            lengths[i] = 0.0
        else:
            half = abs(t) / 2.0
            lengths[i] = 2.0 * math.log(half + math.sqrt(half * half - 1.0))


def _integer_images(rep: Representation) -> list[IntMatrix] | None:
    """The generators as integer matrices, or None unless each entry is a real
    integer below 2^53 and each determinant exactly 1 (a generator given as
    floats passed only GroupElement's relative test)."""
    ents = [integer_entries(g.m.ravel().tolist()) for g in rep.images]
    if None in ents or any(a * d - b * c != 1 for a, b, c, d in ents):
        return None
    return [((a, b), (c, d)) for a, b, c, d in ents]


def ps2_probe(rho1: Representation, rho2: Representation, length_cap: int,
              K: float = 50.0, window: int = 2, axis_check: bool = True) -> PS2Report:
    """For every primitive conjugacy class c with ||c|| <= length_cap,
    measure translation lengths in both representations, their ratios to
    ||c||, and (optionally) the two-sided K-quasi-geodesic inequalities for
    the orbit of the Cayley-graph axis over window*||c|| steps from the
    height-1 basepoint.  Reports the minimum over classes of the larger
    ratio and the classes where an individual ratio vanishes.  Near-parabolic
    traces are re-verified exactly for integer generators of determinant 1.

    Classes go through in blocks of at most BLOCK_ROWS rows of one length,
    sorted by packed key, so neighbouring rows share long prefixes; each
    block's products multiply every distinct prefix once (see
    _scaled_word_products), with the bits of each row multiplied out alone.
    With the axis check, each slot's _segment_table is built once, before the
    first block.
    """
    if rho1.rank != rho2.rank or rho1.field != rho2.field:
        raise ValueError("representations must share rank and field")
    if isinstance(window, bool) or not isinstance(window, numbers.Integral) or window < 1:
        raise ValueError(f"window must be an integer >= 1, got {window!r}")
    window = int(window)
    if (isinstance(K, bool) or not isinstance(K, numbers.Real)
            or not (math.isfinite(K) and K >= 1.0)):
        raise ValueError(f"K must be a finite real >= 1, got {K!r}")
    n = rho1.rank
    eng = _engine.PackedEngine(n)
    keys = sorted(eng.primitive_class_keys(length_cap).items())
    col_keys = np.concatenate([k for _, k in keys])
    col_length = np.concatenate([np.full(k.size, l, dtype=np.int32) for l, k in keys])
    del keys
    total = col_keys.size
    col_l1, col_l2 = np.empty(total), np.empty(total)
    col_axis1, col_axis2 = np.zeros(total, dtype=bool), np.zeros(total, dtype=bool)
    col_kfit1, col_kfit2 = np.zeros(total), np.zeros(total)
    slots = []
    for rho, cols in ((rho1, (col_l1, col_axis1, col_kfit1)), (rho2, (col_l2, col_axis2, col_kfit2))):
        table = generator_table(rho.images)
        segs = _segment_table(table) if axis_check else None
        slots.append((table, _integer_images(rho), segs, *cols))
    for lo, hi, l, W in _blocks(col_length, col_keys, eng.b):
        for table, int_mats, segs, col_l, col_axis, col_kfit in slots:
            P, E = _scaled_word_products(W, table)
            trm = P[:, 0, 0] + P[:, 1, 1]
            lengths = col_l[lo:hi]
            lengths[:] = _lengths_from_scaled_traces(trm, E)
            _near_parabolic_recheck(lengths, trm, E, W, int_mats)
            if not np.isfinite(lengths).all():
                raise ValueError(f"non-finite translation length at length {l}")
            if axis_check:
                col_axis[lo:hi], col_kfit[lo:hi] = _axis_checks(W, table, window, K, segs=segs)
    return PS2Report(rank=n, field=rho1.field, length_cap=length_cap, K=K, window=window,
                     col_length=col_length, col_keys=col_keys, col_l1=col_l1, col_l2=col_l2,
                     col_axis1=col_axis1, col_axis2=col_axis2,
                     col_kfit1=col_kfit1, col_kfit2=col_kfit2)


def demo_pipeline(length_cap: int = 12, K: float = 50.0, window: int = 2,
                  axis_check: bool = True, m: int | None = None
                  ) -> tuple[PS2Report, TwistedPair, int]:
    """The full real-case pipeline: explicit 4-punctured-sphere group,
    twisting words [x2,x3] and [x1,x3], smallest containment-passing twist
    exponent (unless given), twisted pair, and the PS^2 probe."""
    rho0 = build_fuchsian_4punctured()
    if m is None:
        m = find_twisting_exponent(rho0.punctures, *TWISTING_WORDS)
    pair = twisted_pair(rho0, m)
    report = ps2_probe(pair.rho1, pair.rho2, length_cap, K=K, window=window,
                       axis_check=axis_check)
    return report, pair, m
