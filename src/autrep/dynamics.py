"""Product-replacement walks, trace diagnostics, and constructive steering.

Walks apply i.i.d. uniform Nielsen (or Whitehead) moves to a representation
tuple and record generator and pair traces.  In the noncompact fields the
representation space has infinite volume and walks escape; an overflow
guard restarts the walk from the initial tuple and logs the excursion, so
the diagnostics stay honest about that caveat.

Steering realizes the coordinate-by-coordinate construction: stage k
multiplies coordinate k by a word in the other coordinates approximating
the required correction, assuming (and checking) that those coordinates
generate a dense subgroup at each stage.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import _engine
from .density import DensityVerdict, SearchBudget, TimeCapError, certify_dense, opnorm
from .freegroup import (
    FreeAutomorphism,
    Word,
    compose,
    format_word,
    nielsen_generators,
    whitehead_automorphisms,
)
from .sl2 import (
    GroupElement,
    Representation,
    act,
    evaluate,
    generator_table,
)


@dataclass(frozen=True)
class WalkConfig:
    steps: int
    seed: int = 0
    move_set: str = "nielsen"  # "nielsen" | "whitehead"
    record_stride: int = 1
    overflow_guard: float = 1e12
    # determinant rounding amplifies multiplicatively along the moves
    # (log-dets add like a random Fibonacci sequence) and would destroy a
    # tuple within a few hundred steps; su2 walks re-project to the unitary
    # group every step, while noncompact walks restart (logged, never a
    # silent rescale) once a coordinate's det drifts beyond det_guard at
    # its entry scale.  Low-flying walks need this: they can wander under
    # the overflow guard indefinitely.
    det_guard: float = 1e-10

    def __post_init__(self):
        if self.steps < 0 or self.record_stride < 1:
            raise ValueError("steps must be >= 0 and stride positive")
        if self.move_set not in ("nielsen", "whitehead"):
            raise ValueError("move_set must be 'nielsen' or 'whitehead'")
        for name in ("overflow_guard", "det_guard"):
            _check_positive(name, getattr(self, name))


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass
class WalkSample:
    step: int
    gen_traces: tuple
    pair_traces: tuple  # tr(rho(x_i x_j)) for i < j, row-major


@dataclass
class WalkRun:
    config: WalkConfig
    rank: int
    field: str
    samples: list[WalkSample]
    restarts: list[int] = field(default_factory=list)

    def trace_matrix(self) -> np.ndarray:
        """(num_samples, n + n(n-1)/2) array of recorded traces."""
        return np.array([list(s.gen_traces) + list(s.pair_traces)
                         for s in self.samples])


def _trace_sample(step: int, mats: list[tuple], field_tag: str) -> WalkSample:
    """Traces of the 4-tuple matrices (a, b, c, d) and of their pair
    products: tr(pq) = p0 q0 + p1 q2 + p2 q1 + p3 q3."""
    cast = float if field_tag == "real" else complex
    gens = tuple(cast(m[0] + m[3]) for m in mats)
    pairs = tuple(cast(p[0] * q[0] + p[1] * q[2] + p[2] * q[1] + p[3] * q[3])
                  for i, p in enumerate(mats) for q in mats[i + 1:])
    return WalkSample(step, gens, pairs)


def _move_programs(rank: int, move_set: str) -> list[list[tuple[int, tuple[int, ...]]]]:
    """Each program lists (coordinate, inverse-image letters) for coordinates
    the move actually changes; applying it implements the act() convention."""
    moves = (nielsen_generators(rank) if move_set == "nielsen"
             else whitehead_automorphisms(rank))
    programs = []
    for a in moves:
        prog = []
        for i, w in enumerate(a.inverse_images):
            if w.letters != (i + 1,):
                prog.append((i, w.letters))
        programs.append(prog)
    return programs


# moves drawn per rng.integers call; numpy draws bounded integers one at a
# time, so chunked draws give the same stream as one call per step
WALK_DRAW_CHUNK = 4096


def _walk_step(mats: list[tuple], prog, is_su2: bool) -> list[tuple]:
    """One move on 4-tuple matrices (a, b, c, d), in scalar arithmetic with a
    fixed operation order: products (a e + b g, a f + b h, c e + d g,
    c f + d h) letter by letter, inverses (d, -b, -c, a), and for su2 the
    re-projection of the first row (a, b) / sqrt(|a|^2 + |b|^2)."""
    new = list(mats)
    for i, letters in prog:
        v = letters[0]
        a, b, c, d = mats[abs(v) - 1]
        if v < 0:
            a, b, c, d = d, -b, -c, a
        for v in letters[1:]:
            e, f, g, h = mats[abs(v) - 1]
            if v < 0:
                e, f, g, h = h, -f, -g, e
            a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
        if is_su2:
            s = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
            a, b = a / s, b / s
            c, d = -b.conjugate(), a.conjugate()
        new[i] = (a, b, c, d)
    return new


def _escaped(mats: list[tuple], guard: float, det_guard: float) -> bool:
    """Some entry exceeds the overflow guard, or some determinant drifted
    beyond det_guard at its entry scale (a NaN determinant counts as drift)."""
    for a, b, c, d in mats:
        top = max(abs(a), abs(b), abs(c), abs(d))
        if top > guard or not abs(a * d - b * c - 1.0) <= det_guard * max(1.0, top * top):
            return True
    return False


def random_walk(rep: Representation, cfg: WalkConfig) -> WalkRun:
    """Deterministic-under-seed product-replacement walk.

    Records a sample at step 0 and after every record_stride further steps.
    When any matrix entry exceeds the overflow guard (noncompact fields),
    the tuple restarts from the initial representation and the step index
    is logged.

    Matrices are 4-tuples of Python scalars stepped by _walk_step, whose
    correctly rounded operations in a fixed order make a seed give the same
    walk on every machine.  Moves are drawn WALK_DRAW_CHUNK at a time with
    rng.integers(len(programs), size=...), the same stream as one draw per
    step, so memory stays bounded for any number of steps.
    """
    rng = np.random.default_rng(cfg.seed)
    programs = _move_programs(rep.rank, cfg.move_set)
    init = [tuple(g.m.ravel().tolist()) for g in rep.images]
    mats = init
    run = WalkRun(cfg, rep.rank, rep.field, [])
    run.samples.append(_trace_sample(0, mats, rep.field))
    is_su2 = rep.field == "su2"
    written = [[i for i, _ in prog] for prog in programs]
    # a coordinate the move did not write passed the guard at an earlier
    # step, unless it is still that of an initial tuple that fails it
    init_escaped = not is_su2 and _escaped(init, cfg.overflow_guard, cfg.det_guard)
    check_all = init_escaped
    step = 0
    while step < cfg.steps:
        for p in rng.integers(len(programs), size=min(WALK_DRAW_CHUNK, cfg.steps - step)).tolist():
            step += 1
            mats = _walk_step(mats, programs[p], is_su2)
            if not is_su2 and _escaped(mats if check_all else [mats[i] for i in written[p]],
                                       cfg.overflow_guard, cfg.det_guard):
                run.restarts.append(step)
                mats = init
                check_all = init_escaped
            else:
                check_all = False
            if step % cfg.record_stride == 0:
                run.samples.append(_trace_sample(step, mats, rep.field))
    return run


def walk_to_csv(run: WalkRun, path: str, manifest_line: str | None = None) -> None:
    n = run.rank
    cols = ["step"]
    is_real = run.field == "real"
    for i in range(1, n + 1):
        cols += [f"tr{i}"] if is_real else [f"tr{i}_re", f"tr{i}_im"]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            cols += [f"tr{i}{j}"] if is_real else [f"tr{i}{j}_re", f"tr{i}{j}_im"]
    with open(path, "w") as f:
        if manifest_line is not None:
            f.write(f"# {manifest_line}\n")
        f.write(",".join(cols) + "\n")
        for s in run.samples:
            vals: list[str] = [str(s.step)]
            for t in list(s.gen_traces) + list(s.pair_traces):
                if is_real:
                    vals.append(f"{t:.17g}")
                else:
                    vals += [f"{t.real:.17g}", f"{t.imag:.17g}"]
            f.write(",".join(vals) + "\n")


def commutator_trace(rep: Representation):
    """tr rho([x1, x2]) - the rank-2 conjugation-walk invariant."""
    if rep.rank != 2:
        raise ValueError("commutator_trace needs a rank-2 representation")
    return evaluate(rep, Word((1, 2, -1, -2), 2)).trace


# -- Haar trace baseline (su2) ------------------------------------------------


def su2_trace_pdf(t):
    t = np.asarray(t, dtype=float)
    return np.sqrt(np.maximum(4.0 - t * t, 0.0)) / (2.0 * math.pi)


def su2_trace_cdf(t):
    t = np.clip(np.asarray(t, dtype=float), -2.0, 2.0)
    return (t * np.sqrt(4.0 - t * t) / 2.0 + 2.0 * np.arcsin(t / 2.0)) / (2.0 * math.pi) + 0.5


def rejection_sample_su2_traces(rng: np.random.Generator, size: int) -> np.ndarray:
    """Haar trace samples by rejection from the uniform envelope on [-2, 2]."""
    out = np.empty(size)
    have = 0
    while have < size:
        t = rng.uniform(-2.0, 2.0, size=2 * (size - have))
        u = rng.uniform(0.0, 1.0, size=t.shape[0])
        acc = t[u < np.sqrt(4.0 - t * t) / 2.0]
        take = min(acc.shape[0], size - have)
        out[have:have + take] = acc[:take]
        have += take
    return out


def ks_against_haar_traces(samples: Iterable[float]):
    """Kolmogorov-Smirnov test of trace samples against the Haar law.

    scipy.stats is imported here, on first call, because importing it costs
    more than the rest of autrep's start-up together."""
    from scipy import stats

    arr = np.asarray(list(samples), dtype=float)
    return stats.kstest(arr, su2_trace_cdf)


# -- element approximation ----------------------------------------------------


@dataclass
class ApproxResult:
    word: Word
    distance: float
    success: bool
    examined: int


def _su2_quat(batch: np.ndarray) -> np.ndarray:
    """SU(2) matrices as unit quaternions (Re a, Im a, Re b, Im b); the
    operator norm between two SU(2) matrices equals the Euclidean distance
    between their quaternions (difference matrices are conformal)."""
    return np.stack([batch[:, 0, 0].real, batch[:, 0, 0].imag,
                     batch[:, 0, 1].real, batch[:, 0, 1].imag], axis=1)


def _sphere_products(mats: np.ndarray, table: np.ndarray, nib: np.ndarray,
                     parent: np.ndarray) -> np.ndarray:
    """np.einsum("bij,bjk->bik", mats[parent], table[nib]) bit for bit: every
    parent times every table entry (as scalars), picked out in sphere_children's
    parent-major order.  Complex products are split real, as einsum's loop forms
    them (numpy's * and @ round otherwise); + 0.0 matches its sum's +0.0 start."""
    pick = nib.astype(np.int64) * mats.shape[0] + parent
    out = np.empty((pick.shape[0], 2, 2), dtype=mats.dtype)
    split = mats.dtype.kind == "c"
    planes = out.view(np.float64).reshape(-1, 2, 2, 2) if split else out[..., None]
    # pr[i, j] is the column of parent entries (i, j); tr[:, j, k] the table's
    pr, tr = mats.real.transpose(1, 2, 0).copy(), table.real[..., None]
    if split:
        pi, ti = mats.imag.transpose(1, 2, 0).copy(), table.imag[..., None]
    for i in range(2):
        for k in range(2):
            if split:
                re = ((pr[i, 0] * tr[:, 0, k] - pi[i, 0] * ti[:, 0, k])
                      + (pr[i, 1] * tr[:, 1, k] - pi[i, 1] * ti[:, 1, k]))
                im = ((pr[i, 0] * ti[:, 0, k] + pi[i, 0] * tr[:, 0, k])
                      + (pr[i, 1] * ti[:, 1, k] + pi[i, 1] * tr[:, 1, k]))
                planes[:, i, k, 1] = im.ravel()[pick]
            else:
                re = pr[i, 0] * tr[:, 0, k] + pr[i, 1] * tr[:, 1, k]
            planes[:, i, k, 0] = re.ravel()[pick]
    out += 0.0
    return out


def _sphere_levels(table: np.ndarray, max_level: int, cap: int, resolution: float):
    """Breadth-first word spheres with global dedup of discretized group
    elements, up to max_level letters or cap distinct points.

    Dedup keeps the first (shortest) word per discretized quaternion.  For
    generic generator pairs levels grow geometrically and the cap binds at
    modest depth; for pairs near a finite or thin subgroup the frontier
    collapses and the search automatically runs much deeper, which is where
    naive sphere coverage fails."""
    def quat_keys(batch: np.ndarray) -> np.ndarray:
        # mixed 64-bit hash of the discretized quaternion; a rare collision
        # only drops one redundant point from the cover
        q = np.round(_su2_quat(batch) / resolution).astype(np.int64).view(np.uint64)
        h = q[:, 0] * np.uint64(0x9E3779B97F4A7C15)
        h ^= q[:, 1] * np.uint64(0xBF58476D1CE4E5B9)
        h ^= (q[:, 2] << np.uint64(1)) * np.uint64(0x94D049BB133111EB)
        h ^= (q[:, 3] << np.uint64(2)) * np.uint64(0xD6E8FEB86659FD93)
        return h

    levels: list[tuple[np.ndarray, np.ndarray]] = []
    mats_levels: list[np.ndarray] = []
    mats = np.eye(2, dtype=table.dtype)[None]
    seen = np.sort(quat_keys(mats))
    total = 1
    for _ in range(max_level):
        child_nib, parent = _engine.sphere_children(levels[-1][0] if levels else None,
                                                    table.shape[0])
        child = _sphere_products(mats, table, child_nib, parent)
        keys = quat_keys(child)
        _, first = np.unique(keys, return_index=True)
        pos = np.minimum(np.searchsorted(seen, keys[first]), seen.size - 1)
        fresh = np.sort(first[seen[pos] != keys[first]])
        if fresh.size == 0:
            break
        child, child_nib, parent = child[fresh], child_nib[fresh], parent[fresh]
        levels.append((child_nib, parent))
        mats_levels.append(child)
        seen = _engine.sorted_unique(np.concatenate([seen, keys[fresh]]))
        mats = child
        total += child.shape[0]
        if total >= cap:
            break
    return levels, mats_levels


def _uh_t_quats(mats: np.ndarray, tm: np.ndarray) -> np.ndarray:
    """Quaternions of u^-1 tm for unitary u in mats: the first rows of u^H tm,
    conj(u00) t0k + conj(u10) t1k, in the arithmetic of _sphere_products."""
    col = mats[:, :, 0].T.copy()
    ur, ui = col.real, col.imag
    out = np.empty((4, mats.shape[0]))
    for k in range(2):
        (xr, yr), (xi, yi) = tm[:, k].real, tm[:, k].imag
        out[2 * k] = (ur[0] * xr + ui[0] * xi) + (ur[1] * yr + ui[1] * yi)
        out[2 * k + 1] = (ur[0] * xi - ui[0] * xr) + (ur[1] * yi - ui[1] * yr)
    out += 0.0
    return out.T


# every MEET_SAMPLE_STRIDE-th left factor is queried first; its nearest
# distance bounds the query over all left factors
MEET_SAMPLE_STRIDE = 256


def _approximate_su2_meet(S: Sequence[GroupElement], target: GroupElement,
                          epsilon: float, budget: SearchBudget) -> ApproxResult:
    """Meet-in-the-middle basic approximation for the compact field: any
    product u*v with u, v in a word sphere is scored as the quaternion
    distance from v to u^-1 target, found by one nearest-neighbor query per
    u.  Covers |sphere|^2 candidate words at KD-tree cost.

    Only the best (u, v) pair is used, so the query runs in two passes: the
    strided sample of left factors gives a distance the true minimum cannot
    exceed, and the query over all u is bounded just above it.  No u at the
    minimum is pruned, so the pair, word, distance and `examined` are those
    of the unbounded query."""
    from scipy.spatial import cKDTree

    t0 = time.monotonic()
    k = len(S)
    table = generator_table(S)
    half = max(budget.max_word_length // 2, 1)
    cap = max(2 * k + 1, min(budget.max_candidates, 200_000))
    # cell size scaled to the tolerance: coarse cells merge the clusters
    # that generators near finite-order elements produce, letting the
    # breadth-first growth run deep instead of saturating the budget
    resolution = max(epsilon / 8.0, 1e-5)
    levels, mats_levels = _sphere_levels(table, half, cap, resolution)
    if time.monotonic() - t0 > budget.time_cap_s:
        raise TimeCapError(budget.time_cap_s, 0)
    all_mats = np.concatenate([np.eye(2, dtype=np.complex128)[None]] + mats_levels)
    # level j occupies all_mats[starts[j]:starts[j + 1]]; index 0 is the empty word
    starts = np.cumsum([1] + [m.shape[0] for m in mats_levels])

    def word_at(i: int) -> tuple[int, ...]:
        lev = int(np.searchsorted(starts, i, side="right")) - 1
        return _engine.backtrack(levels, lev, i - int(starts[lev]))

    quats = _su2_quat(all_mats)
    # queries are exact on any tree shape; this build is the cheapest
    tree = cKDTree(quats, balanced_tree=False, compact_nodes=False)
    tm = target.m.astype(np.complex128)
    uq = _uh_t_quats(all_mats, tm)
    sample_min = float(tree.query(uq[::MEET_SAMPLE_STRIDE], k=1)[0].min())
    # the bound is strict; an exact match (distance 0) queries unbounded
    bound = sample_min * (1.0 + 1e-9) or np.inf
    # u -> u^-1 target is an isometry: in the tree's point order,
    # consecutive queries visit nearby cells
    order = tree.indices
    dists, idxs = np.empty(uq.shape[0]), np.empty(uq.shape[0], dtype=np.intp)
    dists[order], idxs[order] = tree.query(uq[order], k=1, distance_upper_bound=bound)
    if time.monotonic() - t0 > budget.time_cap_s:
        raise TimeCapError(budget.time_cap_s, quats.shape[0] ** 2)
    best_u = int(np.argmin(dists))
    best_v = int(idxs[best_u])
    word = Word(word_at(best_u) + word_at(best_v), k)
    claimed = opnorm(all_mats[best_u] @ all_mats[best_v] - tm)
    return ApproxResult(word, claimed, claimed < epsilon, quats.shape[0] ** 2)


def _opnorms(batch: np.ndarray) -> np.ndarray:
    """Operator norms of a (N, 2, 2) batch, closed form.

    Search-ranking use only: carries ~1e-9 absolute noise when the two
    singular values coincide; reported distances go through the stable
    svd-backed opnorm instead."""
    f2 = (np.abs(batch) ** 2).sum(axis=(1, 2))
    det = batch[:, 0, 0] * batch[:, 1, 1] - batch[:, 0, 1] * batch[:, 1, 0]
    inner = np.maximum(f2 * f2 - 4.0 * np.abs(det) ** 2, 0.0)
    return np.sqrt((f2 + np.sqrt(inner)) / 2.0)


# matrices kept per level once a noncompact word sphere outgrows the budget
BEAM_WIDTH = 512


def approximate_element(S: Sequence[GroupElement], target: GroupElement,
                        epsilon: float, budget: SearchBudget = SearchBudget()) -> ApproxResult:
    """Search over word spheres for a word w over S with
    ||w(S) - target|| < epsilon in operator norm.

    Compact field: meet-in-the-middle over two word spheres; SU(2) elements
    are unit quaternions and the operator norm is their Euclidean distance,
    so one nearest-neighbor query per left factor scores every product.

    Noncompact fields: spheres are explored exhaustively while they fit in
    the candidate budget (pruning low spheres starves coverage); deeper
    levels keep a distance-sorted beam of near-distinct matrices.  Words
    are recovered by parent pointers, so whole levels stay in numpy arrays.

    When the count budgets run out, returns the best candidate found,
    flagged unsuccessful; a search in any field that passes
    budget.time_cap_s raises TimeCapError.  The identity target yields the
    empty word; an exact generator match yields a length-1 word.
    """
    _check_positive("epsilon", epsilon)
    k = len(S)
    if k == 0:
        raise ValueError("S must be nonempty")
    if any(g.field != S[0].field for g in S):
        raise ValueError("mixed field tags")
    if target.field != S[0].field:
        raise ValueError(f"target field {target.field!r} differs from the field "
                         f"{S[0].field!r} of S")
    tm = target.m.astype(S[0].m.dtype)
    d0 = opnorm(np.eye(2) - tm)
    if d0 < epsilon or d0 == 0.0:
        return ApproxResult(Word.identity(k), d0, True, 0)
    if S[0].field == "su2":
        return _approximate_su2_meet(S, target, epsilon, budget)
    table = generator_table(S)
    exhaust_cap = max(BEAM_WIDTH, min(budget.max_candidates, 2_000_000))
    levels: list[tuple[np.ndarray, np.ndarray]] = []  # (last_nib, parent) per level
    mats = np.eye(2, dtype=table.dtype)[None]
    best_dist = d0
    best_level = -1
    best_index = 0
    examined = 0

    t0 = time.monotonic()
    for _ in range(budget.max_word_length):
        if time.monotonic() - t0 > budget.time_cap_s:
            raise TimeCapError(budget.time_cap_s, examined)
        child_nib, parent = _engine.sphere_children(levels[-1][0] if levels else None,
                                                    table.shape[0])
        child = _sphere_products(mats, table, child_nib, parent)
        dists = _opnorms(child - tm)
        examined += child.shape[0]
        imin = int(np.argmin(dists))
        if dists[imin] < best_dist:
            # the ranking norm carries ~1e-9 noise; pin the claim stably
            best_dist = opnorm(child[imin] - tm)
            best_level = len(levels)
            best_index = imin
        if best_dist < epsilon:
            levels.append((child_nib, parent))
            break
        if child.shape[0] <= exhaust_cap:
            levels.append((child_nib, parent))
            mats = child
            continue
        # prune: nearest BEAM_WIDTH after matrix dedup at coarse resolution
        order = np.argsort(dists, kind="stable")
        rounded = np.round(child[order].reshape(-1, 4), 3)
        view = np.ascontiguousarray(rounded).view([("", rounded.dtype)] * rounded.shape[1])
        _, first = np.unique(view, return_index=True)
        keep = order[np.sort(first)[: 4 * BEAM_WIDTH]]
        keep = keep[np.argsort(dists[keep], kind="stable")][:BEAM_WIDTH]
        levels.append((child_nib[keep], parent[keep]))
        if best_level == len(levels) - 1:
            # the nearest candidate always survives pruning; track its new slot
            best_index = int(np.nonzero(keep == best_index)[0][0])
        mats = child[keep]
    if best_level < 0:
        return ApproxResult(Word.identity(k), d0, False, examined)
    word = Word(_engine.backtrack(levels, best_level, best_index), k, _checked=True)
    return ApproxResult(word, best_dist, best_dist < epsilon, examined)


# -- steering -----------------------------------------------------------------


class SteerStageError(RuntimeError):
    def __init__(self, stage: int, verdict: DensityVerdict):
        self.stage = stage
        self.verdict = verdict
        super().__init__(
            f"stage {stage}: density prerequisite failed "
            f"({verdict.status}{': ' + verdict.reason if verdict.reason else ''})")


@dataclass
class SteerStage:
    coordinate: int
    multiplier_word: Word  # letters index the full generator set
    multiplier_distance: float


@dataclass
class SteerResult:
    automorphism: FreeAutomorphism
    distances: tuple[float, ...]
    stages: list[SteerStage]
    success: bool

    def to_obj(self) -> dict:
        return {
            "images": [format_word(w) for w in self.automorphism.images],
            "inverse_images": [format_word(w) for w in self.automorphism.inverse_images],
            "distances": list(self.distances),
            "stages": [{"coordinate": s.coordinate,
                        "multiplier_word": format_word(s.multiplier_word),
                        "multiplier_distance": s.multiplier_distance}
                       for s in self.stages],
            "success": self.success,
        }


def steer(phi: Representation, psi: Representation, epsilon: float,
          budget: SearchBudget = SearchBudget(), seed: int = 0) -> SteerResult:
    """Find an automorphism moving phi coordinatewise within epsilon of psi.

    Stage k (k = n..1) right-multiplies coordinate k by a word in the other
    current coordinates approximating rho(x_k)^-1 psi(x_k); the stage
    requires those coordinates to generate a dense subgroup, which is
    certified as the stages proceed (SteerStageError on failure).  A stage
    that passes budget.time_cap_s raises TimeCapError, in every field.

    Best demonstrated in the compact su2 field; in the noncompact fields
    approximation quality for distant targets is budget-limited, so keep
    targets in a bounded region.
    """
    _check_positive("epsilon", epsilon)
    if phi.rank != psi.rank or phi.field != psi.field:
        raise ValueError("representations must share rank and field")
    n = phi.rank
    current = phi
    total = FreeAutomorphism.identity(n)
    stages: list[SteerStage] = []
    gens = [Word.generator(i, n) for i in range(1, n + 1)]
    for k in range(n, 0, -1):
        others = [i for i in range(1, n + 1) if i != k]
        S = [current.images[i - 1] for i in others]
        verdict = certify_dense(S, budget, seed)
        if not verdict.dense:
            raise SteerStageError(k, verdict)
        target = current.images[k - 1].inverse() @ psi.images[k - 1]
        approx = approximate_element(S, target, epsilon, budget)
        # remap the word over S to full generator indices
        remapped = Word(tuple((1 if v > 0 else -1) * others[abs(v) - 1]
                              for v in approx.word.letters), n)
        stages.append(SteerStage(k, remapped, approx.distance))
        if not remapped.is_identity():
            images = list(gens)
            images[k - 1] = Word((k,), n) * remapped.inverse()
            inverse_images = list(gens)
            inverse_images[k - 1] = Word((k,), n) * remapped
            sigma = FreeAutomorphism(tuple(images), tuple(inverse_images))
            current = act(sigma, current)
            total = compose(sigma, total)
    distances = tuple(opnorm(current.images[i].m - psi.images[i].m) for i in range(n))
    return SteerResult(total, distances, stages, all(d <= epsilon for d in distances))


def replay_steer(result: SteerResult, phi: Representation,
                 psi: Representation) -> tuple[float, ...]:
    """Recompute the coordinatewise distances of act(automorphism, phi) to
    psi; must reproduce the recorded values."""
    moved = act(result.automorphism, phi)
    return tuple(opnorm(moved.images[i].m - psi.images[i].m)
                 for i in range(moved.rank))
