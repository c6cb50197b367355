"""Packed-word engine for bulk Whitehead-orbit enumeration.

Words are packed little-int arrays: each letter occupies a fixed number of
bits (nibble), the first letter in the most significant position, so that
lexicographic order on words of equal length coincides with numeric order
on the packed uint64 keys.  Nibble encoding of a signed letter v is
``2*(|v|-1) + (1 if v < 0 else 0)``, matching the canonical letter order
x1 < x1^-1 < x2 < x2^-1 < ... used by ConjClass.

The enumeration scans one representative per signed-permutation orbit:
conjugating a second-kind Whitehead move by a permutation/inversion map is
again a second-kind move, so move images of a representative cover every
orbit reachable from the orbit itself.  It applies only moves that strictly
lengthen, one length at a time in increasing order; Whitehead's theorem,
on which the primitivity descent also stands, says that this reaches every
primitive class (see primitive_class_keys).  Discovered orbits are
expanded eagerly and all member keys recorded, which keeps the scan
frontier a few hundred times smaller than the class count.  Move images
run as one apply_move call per chunk of at most BATCH (move, row) pairs,
and orbit images as one gather over all K signed permutations of at most
max(BATCH, K) images: one key's K images at ranks 6 and 7, where K =
46,080 and 645,120.  Each orbit is expanded about once, not once per
candidate key: a batch is a strided pick from the candidates still to do,
and the candidates it covers are dropped before the next.

The orbit minima the scan collects stay on the engine (orbit_minima), and
basic_lemma_sweep runs the Whitehead-graph predicate on them alone, once
per signed-permutation orbit rather than once per class.  That is exact:
a signed permutation sends the junction edge {c, d^-1} to
{sigma c, (sigma d)^-1}, so it only relabels the graph's vertices, and
rotating or inverting the cyclic word keeps its junction edges.

The cyclic-length change of a second-kind move is a sum over the word's
cyclic junctions: a junction (c, d) is the Whitehead-graph edge
{c, d^-1}, and it contributes one if the move's letter set Y separates its
ends, less one for each end that is the multiplier.  MoveTable.junction
holds that contribution for every edge and move, so the length changes of
a block of words are l row gathers and a sum.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .freegroup import FreeAutomorphism, Word, whitehead_automorphism, whitehead_moves_second_kind

U64 = np.uint64

# rows per block of primitive_class_keys' move scan, and (move, row) pairs
# per apply_move call or orbit images per gather in orbit_keys
SCAN_BLOCK = 8_192
BATCH = 32_768


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
    mask = U64((1 << (b * l)) - 1)
    inv = invert_keys(keys, l, b)
    best = np.minimum(keys, inv)
    for r in range(1, l):
        sl, sr = U64(b * r), U64(b * (l - r))
        np.minimum(best, ((keys << sl) & mask) | (keys >> sr), out=best)
        np.minimum(best, ((inv << sl) & mask) | (inv >> sr), out=best)
    return best


def signed_perm_tables(n: int) -> np.ndarray:
    """All 2^n n! signed-permutation nibble maps, shape (K, 2n) uint8: row
    (p, s) sends letter x_(i+1) to x_(perm_p(i)+1), inverted when bit n-1-i
    of s is set, permutations in itertools order and sign masks s = 0 .. 2^n - 1
    within each."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.uint8)
    signs = (np.arange(1 << n)[:, None] >> (n - 1 - np.arange(n))) & 1
    img = 2 * perms[:, None, :] + signs.astype(np.uint8)[None]
    tabs = np.empty(img.shape[:2] + (2 * n,), dtype=np.uint8)
    tabs[..., 0::2] = img
    tabs[..., 1::2] = img ^ 1
    return tabs.reshape(-1, 2 * n)


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


def _letter_sets(moves, n2: int) -> np.ndarray:
    """(M, n2) bool table: entry (m, c) says whether nibble c is in move m's Y.
    A function of its own so that its index arrays, about 30 MB at rank 8, are
    freed before MoveTable builds the junction table."""
    Ytab = np.zeros((len(moves), n2), dtype=bool)
    rows = np.repeat(np.arange(len(moves)), [len(Y) for Y, _ in moves])
    cols = np.fromiter((nib_of_letter(v) for Y, _ in moves for v in Y),
                       dtype=np.intp, count=rows.size)
    Ytab[rows, cols] = True
    return Ytab


class _PackedRows(dict):
    """Junction rows as Python ints keyed by letter pair, packed on first use
    (see MoveTable)."""

    def __init__(self, junction: np.ndarray, n2: int):
        super().__init__()
        self._junction, self._n2 = junction, n2

    def __missing__(self, pair: tuple[int, int]) -> int:
        c, d = pair
        row = self._junction[nib_of_letter(c) * self._n2 + nib_of_letter(-d)]
        # int8 -2..1 wraps to 0..3 in uint32
        packed = self[pair] = int.from_bytes((row.astype("<u4") + 2).tobytes(), "little")
        return packed


class MoveTable:
    """The second-kind Whitehead moves of rank n, in whitehead_moves_second_kind
    order, with their letter sets as an (M, 2n) nibble table, their multiplier
    nibbles, their junction table and, built on first use, their automorphisms.

    junction is (4n^2, M) int8: row u*2n + v holds, for every move (Y, a),
    the length change that one cyclic junction with Whitehead-graph edge
    (u, v) contributes, [u in Y] xor [v in Y] - [u == a] - [v == a].  A
    cyclically reduced word's length change under a move is the sum of its
    junctions' entries: the crossing edges E(Y, Y^c) less deg(a).

    For the descent of one word at a time the same rows come packed into
    Python ints: packed_rows[(c, d)] is the junction row of the letter pair
    (c, d), the edge {c, d^-1}, with the entry for move m plus 2 in the
    32-bit field m (bits 32m to 32m + 31).  unit has a 1 in every field and
    top the top bit of every field.  Rows are packed on first use.
    """

    def __init__(self, n: int):
        self.n = n
        self.moves = tuple(whitehead_moves_second_kind(n))
        M = len(self.moves)
        n2 = 2 * n
        self.Ytab = _letter_sets(self.moves, n2)
        self.a_nib = np.array([nib_of_letter(a) for _, a in self.moves], dtype=np.uint8)
        # one (2n, M) block per first vertex u, so no (2n, 2n, M) transient
        inY = np.ascontiguousarray(self.Ytab.T, dtype=np.int8)
        is_a = (np.arange(n2)[:, None] == self.a_nib[None, :]).astype(np.int8)
        self.junction = np.empty((n2 * n2, M), dtype=np.int8)
        for u in range(n2):
            blk = self.junction[u * n2:(u + 1) * n2]
            np.bitwise_xor(inY[u], inY, out=blk)
            blk -= is_a[u]
            blk -= is_a
        for arr in (self.Ytab, self.a_nib, self.junction):
            arr.setflags(write=False)
        self._auts: dict[int, FreeAutomorphism] = {}
        self._images: dict[int, dict[int, tuple[int, ...]]] = {}
        self.packed_rows = _PackedRows(self.junction, n2)
        self.unit = int.from_bytes(b"\x01\x00\x00\x00" * M, "little")
        self.top = self.unit << 31

    def automorphism(self, m: int) -> FreeAutomorphism:
        aut = self._auts.get(m)
        if aut is None:
            Y, a = self.moves[m]
            aut = self._auts[m] = whitehead_automorphism(Y, a, self.n)
        return aut

    def letter_images(self, m: int) -> dict[int, tuple[int, ...]]:
        """Move m's image of every letter, inverses included, as letter tuples."""
        images = self._images.get(m)
        if images is None:
            images = {}
            for i, w in enumerate(self.automorphism(m).images, 1):
                images[i] = w.letters
                images[-i] = tuple(-v for v in reversed(w.letters))
            self._images[m] = images
        return images

    def first_shorter(self, total: int, length: int) -> int:
        """The first move that shortens a cyclically reduced word of cyclic
        length `length` whose packed junction rows add up to `total`, or -1
        if none does.  Field m of total is delta_m + 2 * length, so adding
        2^31 - 2 * length to every field leaves its top bit clear exactly
        when delta_m < 0.  No field carries into the next while
        length <= 2^30."""
        neg = ~(total + ((1 << 31) - 2 * length) * self.unit) & self.top
        return ((neg & -neg).bit_length() - 1) // 32 if neg else -1

    def length_deltas(self, W: np.ndarray) -> np.ndarray:
        """Cyclic-length change of every move on every cyclically reduced
        nibble row of W: (M, N) int16, one junction-row gather per letter."""
        v = np.concatenate([W[:, 1:], W[:, :1]], axis=1) ^ 1
        idx = W.astype(np.intp) * (2 * self.n) + v
        acc = np.zeros((W.shape[0], len(self.moves)), dtype=np.int16)
        for i in range(W.shape[1]):
            acc += self.junction[idx[:, i]]
        return acc.T


@functools.cache
def move_table(n: int) -> MoveTable:
    """The one MoveTable of rank n, shared by the engine and the descent.
    Kept for the life of the process: 2n(2^(2n-2) - 1) moves, about 285 MiB
    resident at rank 8, 64 MiB of it the junction table.  The descent adds
    the packed rows it meets, 4 bytes per move each and at most 4n^2 of
    them (about 1 MiB per row at rank 8), and the letter images of the
    moves it applies."""
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
        # the last primitive_class_keys call's orbit minima, by length
        self.orbit_minima: dict[int, np.ndarray] = {}

    # -- moves ---------------------------------------------------------

    def length_deltas(self, W: np.ndarray) -> np.ndarray:
        """Cyclic-length change of every move on every row: (M, N) int16."""
        return self._table.length_deltas(W)

    def apply_move(self, W: np.ndarray, m) -> list[tuple[int, np.ndarray]]:
        """Apply move m, one move index or an array of one per row, to rows
        of W; returns canonical keys grouped by new cyclic length as
        [(length, keys)].  Rows are cyclically reduced words; images are
        cyclically reduced by construction (cancellations in a
        Whitehead-move image are disjoint adjacent multiplier pairs).
        """
        N, l = W.shape
        m = np.broadcast_to(m, (N,))
        Yt = self.Ytab[m]
        a = self.a_nib[m][:, None]
        ainv = a ^ 1
        is_a = (W == a) | (W == ainv)
        head = np.take_along_axis(Yt, W ^ 1, axis=1) & ~is_a
        tail = np.take_along_axis(Yt, W, axis=1) & ~is_a
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
        for lp in np.unique(new_len).tolist():
            rows = new_len == lp
            # every row here keeps lp letters, read off in row-major order
            compact = emit[rows][valid[rows]].reshape(-1, lp)
            out.append((lp, canonical_keys(pack_rows(compact, self.b), lp, self.b)))
        return out

    # -- orbits --------------------------------------------------------

    def orbit_keys(self, keys: np.ndarray, l: int) -> tuple[np.ndarray, np.ndarray]:
        """All signed-permutation orbit members of the given canonical keys.

        Returns (all member keys, sorted unique; the orbit minima, sorted
        unique): one minimum per orbit met, not one per input key.  Keys are
        expanded in batches of max(1, BATCH // K), at most max(BATCH, K)
        images per gather (one key's K at ranks 6 and 7), each batch a
        strided pick from the keys still to do, since keys of one orbit sit
        next to each other in sorted order; after each batch the keys among
        its members are dropped unexpanded, so each orbit is expanded about once.
        """
        K = self.perms.shape[0]
        step = max(1, BATCH // K)
        empty = np.empty(0, dtype=U64)
        members, minima = [empty], [empty]
        todo = keys
        while todo.size:
            W = unpack_keys(todo[::-(-todo.size // step)], l, self.b)
            images = pack_rows(np.take(self.perms, W, axis=1).reshape(-1, l), self.b)
            A = canonical_keys(images, l, self.b).reshape(K, -1)
            minima.append(A.min(axis=0))
            members.append(sorted_unique(A.ravel()))
            todo = todo[~_isin_sorted(todo, members[-1])]
        return sorted_unique(np.concatenate(members)), sorted_unique(np.concatenate(minima))

    # -- enumeration ---------------------------------------------------

    def primitive_class_keys(self, length_cap: int) -> dict[int, np.ndarray]:
        """All conjugacy classes of primitive elements (up to inversion) with
        cyclic length <= length_cap, as sorted canonical key arrays per length.

        Closure of the generator classes under strictly lengthening
        second-kind Whitehead moves, one length at a time in increasing order.
        By Whitehead's theorem, on which the primitivity descent also stands,
        a primitive class of length L > 1 is shortened by some second-kind
        move (Y, a); the inverse move (Y - a + a^-1, a^-1) is again second
        kind, so every class of length L is a lengthening image of a shorter one.

        Leaves the least key of every signed-permutation orbit met in
        self.orbit_minima, one sorted array per length as in the result.
        """
        if length_cap < 1:
            raise ValueError("length cap must be >= 1")
        if length_cap > max_pack_length(self.n):
            raise ValueError(
                f"length cap {length_cap} exceeds packed limit "
                f"{max_pack_length(self.n)} for rank {self.n}")
        seen = {l: np.empty(0, dtype=U64) for l in range(1, length_cap + 1)}
        pending: dict[int, list[np.ndarray]] = {l: [seen[l]] for l in seen}
        gen_keys = np.array([0], dtype=U64)  # the class of x1
        seen[1], reps = self.orbit_keys(gen_keys, 1)
        pending[1].append(reps)
        # no move takes a class of length length_cap to one within the cap
        minima = {}
        for l in range(1, length_cap):
            reps = minima[l] = sorted_unique(np.concatenate(pending[l]))
            for lo in range(0, reps.shape[0], SCAN_BLOCK):
                W = unpack_keys(reps[lo:lo + SCAN_BLOCK], l, self.b)
                # (move, row) pairs with 1 <= delta <= cap - l, move-major, in
                # windows of BATCH so no pair index array outgrows a window
                d = self.length_deltas(W).ravel()
                ok = (d >= 1) & (d <= length_cap - l)
                fresh_by_len: dict[int, list[np.ndarray]] = {}
                for p in range(0, ok.size, BATCH):
                    ms, rows = np.divmod(np.flatnonzero(ok[p:p + BATCH]) + p, W.shape[0])
                    for lp, keys in self.apply_move(W[rows], ms):
                        fresh_by_len.setdefault(lp, []).append(keys)
                for lp, parts in sorted(fresh_by_len.items()):
                    cand = sorted_unique(np.concatenate(parts))
                    cand = cand[~_isin_sorted(cand, seen[lp])]
                    if cand.size == 0:
                        continue
                    members, reps2 = self.orbit_keys(cand, lp)
                    seen[lp] = sorted_unique(np.concatenate([seen[lp], members]))
                    pending[lp].append(reps2)
        minima[length_cap] = sorted_unique(np.concatenate(pending[length_cap]))
        self.orbit_minima = {l: m for l, m in minima.items() if m.size}
        return {l: keys for l, keys in seen.items() if keys.size}

    # -- whole-graph predicates -----------------------------------------

    def connected_cutpoint_free_mask(self, W: np.ndarray) -> np.ndarray:
        """For each cyclically reduced row: is its Whitehead graph connected
        on all 2n vertices AND free of cutpoints?  (Basic-Lemma violations
        for primitive inputs.)  Adjacency rows are uint16 bitmasks, wide
        enough for every rank the engine packs.
        """
        n2 = 2 * self.n
        N, l = W.shape
        u = W
        v = np.concatenate([W[:, 1:], W[:, :1]], axis=1) ^ 1
        adj = np.zeros((N, n2), dtype=np.uint16)
        rows = np.arange(N)
        for j in range(l):
            np.bitwise_or.at(adj, (rows, u[:, j]), np.uint16(1) << v[:, j])
            np.bitwise_or.at(adj, (rows, v[:, j]), np.uint16(1) << u[:, j])
        full = np.uint16((1 << n2) - 1)

        def closure(col: np.ndarray, start: np.ndarray) -> np.ndarray:
            # col[vtx] is the neighbour mask of vtx in every row; 0 - bit is
            # all ones where vtx is reached and 0 elsewhere, so no masked gather
            reach = start.copy()
            for _ in range(n2):
                prev = reach.copy()
                for vtx in range(n2):
                    reach |= col[vtx] & (0 - ((reach >> vtx) & 1))
                if np.array_equal(prev, reach):
                    break
            return reach

        col = np.ascontiguousarray(adj.T)
        connected = closure(col, np.ones(N, dtype=np.uint16)) == full
        result = np.zeros(N, dtype=bool)
        idx = np.nonzero(connected)[0]
        if idx.size == 0:
            return result
        sub = col[:, idx]
        no_cut = np.ones(idx.shape[0], dtype=bool)
        for r in range(n2):
            keep = np.uint16(((1 << n2) - 1) & ~(1 << r))
            colr = sub & keep
            colr[r] = 0
            s = 1 if r == 0 else 0
            reach = closure(colr, np.full(idx.shape[0], np.uint16(1 << s)))
            no_cut &= (reach == keep)
        result[idx] = no_cut
        return result
