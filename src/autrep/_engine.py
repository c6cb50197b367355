"""Packed-word engine for bulk Whitehead-orbit enumeration.

Words are packed little-int arrays: each letter occupies a fixed number of
bits (nibble), the first letter in the most significant position, so that
lexicographic order on words of equal length coincides with numeric order
on the packed uint64 keys.  Nibble encoding of a signed letter v is
``2*(|v|-1) + (1 if v < 0 else 0)``, matching the canonical letter order
x1 < x1^-1 < x2 < x2^-1 < ... used by ConjClass.

The breadth-first search runs on one representative per signed-permutation
orbit: conjugating a second-kind Whitehead move by a permutation/inversion
map is again a second-kind move, so move images of a representative cover
every orbit reachable from the orbit itself.  Discovered orbits are
expanded eagerly and all member keys recorded, which keeps the scan
frontier a few hundred times smaller than the class count.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .freegroup import FreeAutomorphism, Word, whitehead_automorphism, whitehead_moves_second_kind

U64 = np.uint64

# keys per block in PackedEngine.orbit_keys and in primitive_class_keys' move scan
ORBIT_BLOCK = 65_536
SCAN_BLOCK = 8_192


def bits_per_letter(n: int) -> int:
    return max(2, (2 * n - 1).bit_length())


def max_pack_length(n: int) -> int:
    return 64 // bits_per_letter(n)


def nib_of_letter(v: int) -> int:
    return 2 * (abs(v) - 1) + (1 if v < 0 else 0)


def letter_of_nib(nib: int) -> int:
    return (nib // 2 + 1) * (-1 if nib % 2 else 1)


# letter of every uint8 nibble, so a block of rows decodes in one lookup
_LETTER_OF_NIB = np.array([letter_of_nib(c) for c in range(256)], dtype=np.int64)


def decode_rows(W: np.ndarray, n: int) -> list[Word]:
    """The rank-n words spelled by the (N, l) nibble rows of W, such as a
    block from unpack_keys."""
    return [Word(tuple(r), n, _checked=True) for r in _LETTER_OF_NIB[W].tolist()]


def sphere_children(last_nibs: np.ndarray | None, k2: int) -> tuple[np.ndarray, np.ndarray]:
    """The reduced one-letter extensions of a word-sphere level whose words
    end in the nibbles last_nibs (None: the level holding only the empty
    word), over an alphabet of k2 nibbles: (nib, parent) arrays,
    parent-major and nibble-minor."""
    if last_nibs is None:
        last_nibs = np.full(1, -1, dtype=np.int16)
    nib = np.tile(np.arange(k2, dtype=np.int16), last_nibs.shape[0])
    parent = np.repeat(np.arange(last_nibs.shape[0], dtype=np.int64), k2)
    keep = last_nibs[parent] != nib ^ 1
    return nib[keep], parent[keep]


def backtrack(levels, level: int, index: int) -> tuple[int, ...]:
    """Letters of the word at levels[level][index], where each level is a
    (nib, parent) pair from sphere_children; level -1 is the empty word."""
    nibs_rev = []
    for lev in range(level, -1, -1):
        nibs, parents = levels[lev]
        nibs_rev.append(int(nibs[index]))
        index = int(parents[index])
    return tuple(letter_of_nib(c) for c in reversed(nibs_rev))


def pack_rows(rows: np.ndarray, b: int) -> np.ndarray:
    """(N, l) uint8 nibble rows -> (N,) uint64 keys."""
    out = np.zeros(rows.shape[0], dtype=U64)
    sb = U64(b)
    for i in range(rows.shape[1]):
        out = (out << sb) | rows[:, i].astype(U64)
    return out


def unpack_keys(keys: np.ndarray, l: int, b: int) -> np.ndarray:
    """(N,) uint64 keys -> (N, l) uint8 nibble rows."""
    out = np.empty((keys.shape[0], l), dtype=np.uint8)
    m = U64((1 << b) - 1)
    for i in range(l):
        out[:, l - 1 - i] = (keys >> U64(b * i)) & m
    return out


def invert_keys(keys: np.ndarray, l: int, b: int) -> np.ndarray:
    """Key of the inverse word: reversed letters, each sign-flipped."""
    m = U64((1 << b) - 1)
    one = U64(1)
    sb = U64(b)
    out = np.zeros_like(keys)
    k = keys.copy()
    for _ in range(l):
        out = (out << sb) | ((k & m) ^ one)
        k >>= sb
    return out


def canonical_keys(keys: np.ndarray, l: int, b: int) -> np.ndarray:
    """Least key over all rotations of the word and of its inverse."""
    if l <= 1:
        inv = invert_keys(keys, l, b) if l == 1 else keys
        return np.minimum(keys, inv)
    mask = U64((1 << (b * l)) - 1)
    inv = invert_keys(keys, l, b)
    best = np.minimum(keys, inv)
    for r in range(1, l):
        sl, sr = U64(b * r), U64(b * (l - r))
        np.minimum(best, ((keys << sl) & mask) | (keys >> sr), out=best)
        np.minimum(best, ((inv << sl) & mask) | (inv >> sr), out=best)
    return best


def translate_keys(keys: np.ndarray, l: int, b: int, table: np.ndarray) -> np.ndarray:
    """Relabel letters through a nibble map (uint8 array of size 2n)."""
    m = U64((1 << b) - 1)
    sb = U64(b)
    t64 = table.astype(U64)
    out = np.zeros_like(keys)
    k = keys.copy()
    for i in range(l):
        out |= t64[(k & m).astype(np.int64)] << U64(b * i)
        k >>= sb
    return out


def signed_perm_tables(n: int) -> np.ndarray:
    """All 2^n n! signed-permutation nibble maps, shape (K, 2n) uint8."""
    tabs = []
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((0, 1), repeat=n):
            t = np.empty(2 * n, dtype=np.uint8)
            for i in range(n):
                img = 2 * perm[i] + signs[i]
                t[2 * i] = img
                t[2 * i + 1] = img ^ 1
            tabs.append(t)
    return np.array(tabs, dtype=np.uint8)


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """np.unique of a 1-D array by sort and adjacent difference; numpy's
    hash-based unique is many times slower on uint64 keys."""
    s = np.sort(keys)
    if s.size < 2:
        return s
    keep = np.empty(s.size, dtype=bool)
    keep[0] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def _isin_sorted(values: np.ndarray, sorted_arr: np.ndarray) -> np.ndarray:
    if sorted_arr.size == 0:
        return np.zeros(values.shape, dtype=bool)
    idx = np.searchsorted(sorted_arr, values)
    idx[idx == sorted_arr.size] = sorted_arr.size - 1
    return sorted_arr[idx] == values


class MoveTable:
    """The second-kind Whitehead moves of rank n, in whitehead_moves_second_kind
    order, with their letter sets as an (M, 2n) nibble table, their multiplier
    nibbles and, built on first use, their automorphisms."""

    def __init__(self, n: int):
        self.n = n
        self.moves = tuple(whitehead_moves_second_kind(n))
        M = len(self.moves)
        self.Ytab = np.zeros((M, 2 * n), dtype=bool)
        rows = np.repeat(np.arange(M), [len(Y) for Y, _ in self.moves])
        cols = np.fromiter((nib_of_letter(v) for Y, _ in self.moves for v in Y),
                           dtype=np.intp, count=rows.size)
        self.Ytab[rows, cols] = True
        self.a_nib = np.array([nib_of_letter(a) for _, a in self.moves], dtype=np.uint8)
        self.Ytab.setflags(write=False)
        self.a_nib.setflags(write=False)
        self._auts: dict[int, FreeAutomorphism] = {}

    def automorphism(self, m: int) -> FreeAutomorphism:
        aut = self._auts.get(m)
        if aut is None:
            Y, a = self.moves[m]
            aut = self._auts[m] = whitehead_automorphism(Y, a, self.n)
        return aut

    def length_deltas(self, W: np.ndarray) -> np.ndarray:
        """Cyclic-length change of every move on every cyclically reduced
        nibble row of W: (M, N) int64.

        Equals crossing-edge count E(Y, Y^c) of the Whitehead graph minus
        the degree of the multiplier vertex.
        """
        N, l = W.shape
        n2 = 2 * self.n
        u = W
        v = np.concatenate([W[:, 1:], W[:, :1]], axis=1) ^ 1
        E = (self.Ytab[:, u] ^ self.Ytab[:, v]).sum(axis=2, dtype=np.int64)
        # vertex degrees of each row's graph: one count over row * 2n + vertex
        ends = np.concatenate([u, v], axis=1).astype(np.int64)
        ends += (np.arange(N, dtype=np.int64) * n2)[:, None]
        cnt = np.bincount(ends.ravel(), minlength=N * n2).reshape(N, n2)
        return E - cnt[:, self.a_nib].T


@functools.cache
def move_table(n: int) -> MoveTable:
    """The one MoveTable of rank n, shared by the engine and the descent.
    Kept for the life of the process: 2n(2^(2n-2) - 1) moves, about 200 MB
    at rank 8."""
    return MoveTable(n)


class PackedEngine:
    """Whitehead second-kind move machinery over packed words of rank n."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("rank must be >= 2")
        if 2 * n > 14:
            raise ValueError("packed engine supports rank <= 7")
        self.n = n
        self.b = bits_per_letter(n)
        table = move_table(n)
        self.moves, self.Ytab, self.a_nib = table.moves, table.Ytab, table.a_nib
        self._table = table
        self.perms = signed_perm_tables(n)
        # sorted edge masks and their verdicts; the last, 2^64 - 1, is no graph
        self._verdicts = (np.array([~U64(0)]), np.zeros(1, dtype=bool))

    # -- moves ---------------------------------------------------------

    def length_deltas(self, W: np.ndarray) -> np.ndarray:
        """Cyclic-length change of every move on every row: (M, N) int64."""
        return self._table.length_deltas(W)

    def apply_move(self, W: np.ndarray, m: int) -> list[tuple[int, np.ndarray]]:
        """Apply move m to rows of W; returns canonical keys grouped by new
        cyclic length as [(length, keys)].  Rows are cyclically reduced words;
        images are cyclically reduced by construction (cancellations in a
        Whitehead-move image are disjoint adjacent multiplier pairs).
        """
        Yt = self.Ytab[m]
        a = int(self.a_nib[m])
        ainv = a ^ 1
        N, l = W.shape
        is_a = (W == a) | (W == ainv)
        head = Yt[W ^ 1] & ~is_a
        tail = Yt[W] & ~is_a
        c_next = np.concatenate([W[:, 1:], W[:, :1]], axis=1)
        head_n = np.concatenate([head[:, 1:], head[:, :1]], axis=1)
        cancel = (tail & head_n) \
            | (tail & ~head_n & (c_next == ainv)) \
            | (~tail & head_n & (W == a))
        cancel_prev = np.concatenate([cancel[:, -1:], cancel[:, :-1]], axis=1)
        head_keep = head & ~cancel_prev
        mid_keep = ~((cancel_prev & ~head & (W == ainv)) | (cancel & ~tail & (W == a)))
        tail_keep = tail & ~cancel
        emit = np.empty((N, 3 * l), dtype=np.uint8)
        emit[:, 0::3] = ainv
        emit[:, 1::3] = W
        emit[:, 2::3] = a
        valid = np.empty((N, 3 * l), dtype=bool)
        valid[:, 0::3] = head_keep
        valid[:, 1::3] = mid_keep
        valid[:, 2::3] = tail_keep
        new_len = valid.sum(axis=1)
        out = []
        for lp in np.unique(new_len):
            lp = int(lp)
            if lp == 0:
                continue
            rows = np.nonzero(new_len == lp)[0]
            v = valid[rows]
            e = emit[rows]
            compact = np.empty((rows.shape[0], lp), dtype=np.uint8)
            pos = np.cumsum(v, axis=1) - 1
            rr, cc = np.nonzero(v)
            compact[rr, pos[rr, cc]] = e[rr, cc]
            out.append((lp, canonical_keys(pack_rows(compact, self.b), lp, self.b)))
        return out

    # -- orbits --------------------------------------------------------

    def orbit_keys(self, keys: np.ndarray, l: int) -> tuple[np.ndarray, np.ndarray]:
        """All signed-permutation orbit members of the given canonical keys.

        Returns (all_member_keys sorted unique, orbit representative per
        input key) where the representative is the orbit minimum.
        """
        members = []
        reps = np.empty_like(keys)
        for lo in range(0, keys.shape[0], ORBIT_BLOCK):
            ks = keys[lo:lo + ORBIT_BLOCK]
            A = np.empty((self.perms.shape[0], ks.shape[0]), dtype=U64)
            for i, t in enumerate(self.perms):
                A[i] = canonical_keys(translate_keys(ks, l, self.b, t), l, self.b)
            reps[lo:lo + ORBIT_BLOCK] = A.min(axis=0)
            members.append(sorted_unique(A.ravel()))
        return sorted_unique(np.concatenate(members)), reps

    # -- enumeration ---------------------------------------------------

    def primitive_class_keys(self, length_cap: int) -> dict[int, np.ndarray]:
        """All conjugacy classes of primitive elements (up to inversion) with
        cyclic length <= length_cap, as sorted canonical key arrays per length.

        Breadth-first closure of the generator classes under second-kind
        Whitehead moves with the length cap; Whitehead's peak-reduction
        theorem guarantees every primitive class of length <= cap is reached
        through intermediates of length <= cap.
        """
        if length_cap < 1:
            raise ValueError("length cap must be >= 1")
        if length_cap > max_pack_length(self.n):
            raise ValueError(
                f"length cap {length_cap} exceeds packed limit "
                f"{max_pack_length(self.n)} for rank {self.n}")
        seen: dict[int, np.ndarray] = {l: np.empty(0, dtype=U64)
                                       for l in range(1, length_cap + 1)}
        pending: dict[int, list[np.ndarray]] = {l: [] for l in range(1, length_cap + 1)}
        gen_keys = np.array([0], dtype=U64)  # the class of x1
        members, reps = self.orbit_keys(gen_keys, 1)
        seen[1] = members
        pending[1].append(sorted_unique(reps))
        while True:
            todo = [l for l in pending if pending[l]]
            if not todo:
                break
            l = min(todo)
            reps = sorted_unique(np.concatenate(pending[l]))
            pending[l] = []
            for lo in range(0, reps.shape[0], SCAN_BLOCK):
                W = unpack_keys(reps[lo:lo + SCAN_BLOCK], l, self.b)
                deltas = self.length_deltas(W)
                fresh_by_len: dict[int, list[np.ndarray]] = {}
                for m in range(deltas.shape[0]):
                    rows = np.nonzero(l + deltas[m] <= length_cap)[0]
                    if rows.size == 0:
                        continue
                    for lp, keys in self.apply_move(W[rows], m):
                        fresh_by_len.setdefault(lp, []).append(keys)
                for lp, parts in sorted(fresh_by_len.items()):
                    cand = sorted_unique(np.concatenate(parts))
                    cand = cand[~_isin_sorted(cand, seen[lp])]
                    if cand.size == 0:
                        continue
                    members, reps2 = self.orbit_keys(cand, lp)
                    seen[lp] = sorted_unique(np.concatenate([seen[lp], members]))
                    pending[lp].append(sorted_unique(reps2))
        return {l: keys for l, keys in seen.items() if keys.size}

    # -- whole-graph predicates -----------------------------------------

    def edge_masks(self, W: np.ndarray) -> np.ndarray:
        """The simple Whitehead graph of each cyclically reduced row as a
        uint64 bitmask over the vertex pairs {i < j} (28 bits for rank 4)."""
        n2 = 2 * self.n
        if n2 * (n2 - 1) // 2 > 64:
            raise ValueError("edge masks support rank <= 5")
        bit = np.zeros((n2, n2), dtype=U64)
        for k, (i, j) in enumerate(itertools.combinations(range(n2), 2)):
            bit[i, j] = bit[j, i] = U64(1) << U64(k)
        out = np.zeros(W.shape[0], dtype=U64)
        for j in range(W.shape[1]):
            out |= bit[W[:, j], W[:, (j + 1) % W.shape[1]] ^ 1]
        return out

    def count_connected_cutpoint_free(self, W: np.ndarray) -> int:
        """connected_cutpoint_free_mask(W).sum(), running the predicate once
        per simple graph not met in earlier calls and weighting each verdict
        by the number of rows that share that graph.  Exact: the predicate
        only reads the simple graph."""
        masks = self.edge_masks(W)
        graphs = sorted_unique(masks)
        which = np.searchsorted(graphs, masks)
        known, verdicts = self._verdicts
        pos = np.searchsorted(known, graphs)
        seen = known[pos] == graphs
        hit = seen & verdicts[pos]
        rep = np.empty(graphs.size, dtype=np.int64)
        rep[which] = np.arange(W.shape[0])  # any row of each graph will do
        fresh = ~seen
        hit[fresh] = self.connected_cutpoint_free_mask(W[rep[fresh]])
        self._verdicts = (np.insert(known, pos[fresh], graphs[fresh]),
                          np.insert(verdicts, pos[fresh], hit[fresh]))
        return int(np.bincount(which, minlength=graphs.size)[hit].sum())

    def connected_cutpoint_free_mask(self, W: np.ndarray) -> np.ndarray:
        """For each cyclically reduced row: is its Whitehead graph connected
        on all 2n vertices AND free of cutpoints?  (Basic-Lemma violations
        for primitive inputs.)  Requires 2n <= 8.
        """
        n2 = 2 * self.n
        if n2 > 8:
            raise ValueError("bitmask predicate supports rank <= 4")
        N, l = W.shape
        u = W
        v = np.concatenate([W[:, 1:], W[:, :1]], axis=1) ^ 1
        adj = np.zeros((N, n2), dtype=np.uint8)
        rows = np.arange(N)
        for j in range(l):
            np.bitwise_or.at(adj, (rows, u[:, j]), np.uint8(1) << v[:, j])
            np.bitwise_or.at(adj, (rows, v[:, j]), np.uint8(1) << u[:, j])
        full = np.uint8((1 << n2) - 1)

        def closure(adjm: np.ndarray, start: np.ndarray) -> np.ndarray:
            reach = start.copy()
            for _ in range(n2):
                prev = reach.copy()
                for vtx in range(n2):
                    sel = ((reach >> vtx) & 1).astype(bool)
                    if sel.any():
                        reach[sel] |= adjm[sel, vtx]
                if np.array_equal(prev, reach):
                    break
            return reach

        start = np.full(N, 1, dtype=np.uint8)
        connected = closure(adj, start) == full
        result = np.zeros(N, dtype=bool)
        idx = np.nonzero(connected)[0]
        if idx.size == 0:
            return result
        sub = adj[idx]
        no_cut = np.ones(idx.shape[0], dtype=bool)
        for r in range(n2):
            keep = np.uint8(((1 << n2) - 1) & ~(1 << r))
            adjr = (sub & keep).copy()
            adjr[:, r] = 0
            s = 1 if r == 0 else 0
            reach = closure(adjr, np.full(idx.shape[0], np.uint8(1 << s)))
            no_cut &= (reach == keep)
        result[idx] = no_cut
        return result
