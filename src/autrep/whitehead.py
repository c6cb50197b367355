"""Whitehead graphs, primitivity decision, and primitive-class enumeration.

The Whitehead graph of a set A of cyclically reduced words has vertex set
{x_i, x_i^-1} and an edge {c, d^-1} for every cyclically adjacent letter
pair (c, d) in a word of A; a length-1 word a contributes the edge
{a, a^-1}.  Connectivity and cutpoint queries run on the underlying simple
graph; an isolated vertex counts as disconnecting.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import _engine
from .freegroup import (
    ConjClass,
    FreeAutomorphism,
    Word,
    _letter_key,
    apply,
    cyclic_core,
    cyclic_reduce,
)


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if _letter_key(u) <= _letter_key(v) else (v, u)


class WhiteheadGraph:
    """Unoriented multigraph on the 2n vertices x_1^±, ..., x_n^±."""

    __slots__ = ("rank", "edges")

    def __init__(self, rank: int, edges: Counter[tuple[int, int]] | None = None):
        self.rank = rank
        self.edges = Counter() if edges is None else edges

    def vertices(self) -> list[int]:
        return [v for i in range(1, self.rank + 1) for v in (i, -i)]

    def simple_edges(self) -> set[tuple[int, int]]:
        return set(self.edges)

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.vertices()}
        for (u, v) in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, WhiteheadGraph) and self.rank == other.rank
                and self.simple_edges() == other.simple_edges())

    def __repr__(self) -> str:
        return f"WhiteheadGraph(rank={self.rank}, edges={sorted(self.edges)})"


def build_graph(words, rank: int) -> WhiteheadGraph:
    """Whitehead graph of a collection of words (cyclically reduced first)."""
    edges: Counter[tuple[int, int]] = Counter()
    for w in words:
        if w.rank != rank:
            raise ValueError("rank mismatch among words")
        core, _ = cyclic_reduce(w)
        c = core.letters
        if not c:
            continue
        if len(c) == 1:
            edges[_edge(c[0], -c[0])] += 1
            continue
        for i in range(len(c)):
            edges[_edge(c[i], -c[(i + 1) % len(c)])] += 1
    return WhiteheadGraph(rank, edges)


def union(g1: WhiteheadGraph, g2: WhiteheadGraph) -> WhiteheadGraph:
    """Graph union; duplicate edges are identified in the simple-graph view."""
    if g1.rank != g2.rank:
        raise ValueError("rank mismatch")
    return WhiteheadGraph(g1.rank, g1.edges + g2.edges)


def _components(adj: dict[int, set[int]], vertices: list[int]) -> int:
    seen: set[int] = set()
    comps = 0
    for v in vertices:
        if v in seen:
            continue
        comps += 1
        stack = [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen and w in adj:
                    seen.add(w)
                    stack.append(w)
    return comps


def is_connected(g: WhiteheadGraph, vertices: list[int] | None = None) -> bool:
    """Connectivity over the full vertex set (or a given subset); isolated
    vertices disconnect."""
    verts = g.vertices() if vertices is None else list(vertices)
    if not verts:
        return True
    adj = g.adjacency()
    sub = {v: {u for u in adj.get(v, set()) if u in verts} for v in verts}
    return _components(sub, verts) == 1


def cutpoints(g: WhiteheadGraph, vertices: list[int] | None = None) -> set[int]:
    """Articulation vertices of the simple graph (restricted to a vertex
    subset when given): removal increases the component count."""
    verts = g.vertices() if vertices is None else list(vertices)
    adj = g.adjacency()
    sub = {v: {u for u in adj.get(v, set()) if u in verts} for v in verts}
    base = _components(sub, verts)
    out = set()
    for r in verts:
        if not sub[r]:
            continue  # removing an isolated vertex only drops a component
        rest = [v for v in verts if v != r]
        radj = {v: {u for u in sub[v] if u != r} for v in rest}
        if _components(radj, rest) > base:
            out.add(r)
    return out


def connected_cutpoint_free(g: WhiteheadGraph, vertices: list[int] | None = None) -> bool:
    """Is g connected and free of cutpoints over the full vertex set (or a
    given subset)?  The scalar oracle of
    PackedEngine.connected_cutpoint_free_mask."""
    return is_connected(g, vertices) and not cutpoints(g, vertices)


def basic_lemma_filter(w: Word) -> bool:
    """Necessary condition for primitivity: the Whitehead graph of w is
    disconnected or has a cutpoint.  False certifies non-primitivity."""
    return not connected_cutpoint_free(build_graph([w], w.rank))


def whitehead_length_delta(w: Word, Y: frozenset[int], a: int) -> int:
    """Cyclic-length change of the second-kind move (Y, a) on w, computed
    from the Whitehead graph: crossing edges E(Y, Y^c) minus deg(a)."""
    core, _ = cyclic_reduce(w)
    c = core.letters
    if not c:
        return 0
    pairs = ([(c[0], -c[0])] if len(c) == 1
             else [(c[i], -c[(i + 1) % len(c)]) for i in range(len(c))])
    E = 0
    deg = 0
    for (u, v) in pairs:
        if (u in Y) != (v in Y):
            E += 1
        if u == a:
            deg += 1
        if v == a:
            deg += 1
    return E - deg


@dataclass
class PrimitivityVerdict:
    primitive: bool
    chain: list[FreeAutomorphism] = field(default_factory=list)
    terminal: Word | None = None

    @property
    def status(self) -> str:
        return "Primitive" if self.primitive else "NotPrimitive"


def decide_primitive(w: Word) -> PrimitivityVerdict:
    """Whitehead's greedy descent: repeatedly apply the first automorphism
    that strictly reduces cyclic length.  Terminal length 1 means primitive;
    otherwise the terminal word is Whitehead-minimal of length > 1.  Every
    step shortens the word, so the chain has at most len(core) - 1 moves.

    First-kind automorphisms preserve cyclic length, so only second-kind
    moves are scanned for a strict reduction (in deterministic (a, Y) order).
    Each step runs on Python ints: the word's packed junction rows add up to
    every move's length change at once (MoveTable.first_shorter), and the
    move's letter images are substituted and freely reduced on a stack.
    """
    core, _ = cyclic_reduce(w)
    if core.is_identity():
        raise ValueError("the trivial word is not an input for primitivity")
    n = w.rank
    table = _engine.move_table(n)
    rows = table.packed_rows
    letters = core.letters
    chain: list[FreeAutomorphism] = []
    while len(letters) > 1:
        # one packed row per cyclic junction (c, d)
        total = sum(map(rows.__getitem__, zip(letters, letters[1:] + letters[:1])))
        m = table.first_shorter(total, len(letters))
        if m < 0:
            return PrimitivityVerdict(False, chain, Word(letters, n, _checked=True))
        chain.append(table.automorphism(m))
        images = table.letter_images(m)
        out: list[int] = []
        for v in letters:
            for u in images[v]:
                if out and out[-1] == -u:
                    out.pop()
                else:
                    out.append(u)
        letters = cyclic_core(tuple(out))
    return PrimitivityVerdict(True, chain, Word(letters, n, _checked=True))


def replay_chain(w: Word, chain: list[FreeAutomorphism]) -> Word:
    """Re-run a verdict's automorphism chain; returns the terminal core."""
    core, _ = cyclic_reduce(w)
    for aut in chain:
        core, _ = cyclic_reduce(apply(aut, core))
    return core


def abelianization(w: Word) -> tuple[int, ...]:
    e = [0] * w.rank
    for v in w.letters:
        e[abs(v) - 1] += 1 if v > 0 else -1
    return tuple(e)


def exponent_gcd(w: Word) -> int:
    return math.gcd(*abelianization(w)) if w.letters else 0


# -- enumeration -----------------------------------------------------------

def primitive_class_keys(n: int, length_cap: int) -> dict[int, np.ndarray]:
    """Packed canonical keys of every primitive conjugacy class (up to
    inversion) of cyclic length <= length_cap, grouped by length."""
    return _engine.PackedEngine(n).primitive_class_keys(length_cap)


def primitive_class_count(n: int, length_cap: int) -> dict[int, int]:
    return {l: int(k.size) for l, k in primitive_class_keys(n, length_cap).items()}


def enumerate_primitive_classes(n: int, length_cap: int) -> set[ConjClass]:
    """The set of primitive conjugacy classes with ||c|| <= length_cap, up to
    inversion.  Materializes ConjClass objects; intended for desk scale
    (use the key/count variants for multi-million-class sweeps).
    """
    b = _engine.bits_per_letter(n)
    return {ConjClass(w) for l, keys in primitive_class_keys(n, length_cap).items()
            for w in _engine.decode_rows(_engine.unpack_keys(keys, l, b), n)}


@dataclass
class SweepReport:
    rank: int
    length_cap: int
    total_classes: int
    violations: int
    counts_by_length: dict[int, int]


def basic_lemma_sweep(n: int, length_cap: int) -> SweepReport:
    """Check every primitive class of cyclic length <= length_cap against the
    Basic Lemma: its Whitehead graph must be disconnected or have a cutpoint.
    Returns the violation count (expected 0) over the full enumeration.

    The predicate runs once per signed-permutation orbit, on the orbit minima
    the enumeration leaves in eng.orbit_minima.  The verdict is the same on
    the whole orbit: a signed permutation only relabels the vertices of the
    Whitehead graph, and rotating or inverting the cyclic word leaves the
    graph as it is.  A minimum that violates counts every class of its orbit.
    """
    eng = _engine.PackedEngine(n)
    counts = {l: int(k.size) for l, k in sorted(eng.primitive_class_keys(length_cap).items())}
    violations = 0
    for l, minima in eng.orbit_minima.items():
        bad = minima[eng.connected_cutpoint_free_mask(_engine.unpack_keys(minima, l, eng.b))]
        violations += eng.orbit_keys(bad, l)[0].size
    return SweepReport(n, length_cap, sum(counts.values()), violations, counts)


# -- DOT export -------------------------------------------------------------


def vertex_label(v: int) -> str:
    return f"x{abs(v)}" + ("'" if v < 0 else "")


def to_dot(g: WhiteheadGraph, name: str = "whitehead") -> str:
    """Deterministic DOT rendering; inverse vertices are primed labels and
    duplicate edges carry a multiplicity label."""
    lines = [f"graph {name} {{"]
    for v in sorted(g.vertices(), key=_letter_key):
        lines.append(f'  "{vertex_label(v)}";')
    for (u, v) in sorted(g.edges, key=lambda e: (_letter_key(e[0]), _letter_key(e[1]))):
        mult = g.edges[(u, v)]
        suffix = f' [label="{mult}"]' if mult > 1 else ""
        lines.append(f'  "{vertex_label(u)}" -- "{vertex_label(v)}"{suffix};')
    lines.append("}")
    return "\n".join(lines) + "\n"
