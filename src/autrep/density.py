"""Budgeted, certificate-producing density decision procedures.

A subgroup of SL2(R) or SL2(C) is dense iff it is nondiscrete and its
adjoint images span the full 9-dimensional matrix algebra.  Spanning is
directly checkable (numerical rank); nondiscreteness is not decidable in
floating point, so the certifier accepts two replayable witness shapes:

  * an elliptic word whose rotation angle is far from every rational
    multiple of pi with denominator <= q_max (infinite-order heuristic), or
  * a word close to (but distinct from) +-identity together with a
    companion word it visibly fails to commute with.

For the compact su2 field the infinite-order witness alone suffices: an
infinite subgroup of SU(2) with full adjoint span has dense closure.

Every Dense verdict carries a certificate that replays through the sl2
module; everything else is an explicit obstruction or an honest Unknown.
A search stopped by its time cap raises TimeCapError instead of returning,
so every verdict depends only on the inputs, the seed and the count budgets.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _engine, jsonio
from .freegroup import (
    FreeAutomorphism,
    Word,
    compose,
    format_word,
    nielsen_generators,
    parse_word,
)
from .sl2 import (
    TOL_PAR,
    GroupElement,
    IsometryType,
    Representation,
    act,
    ad_span_rank,
    adjoint,
    classify,
    elements_from_obj,
    elements_to_obj,
    evaluate,
    generator_table,
    random_element,
    rotation_angle,
    span_rank,
)


@dataclass(frozen=True)
class SearchBudget:
    max_word_length: int = 6
    max_candidates: int = 2000
    time_cap_s: float = 60.0

    def __post_init__(self):
        if self.max_word_length < 1 or self.max_candidates < 1 or not self.time_cap_s > 0:
            raise ValueError("budget fields must be positive")


class TimeCapError(RuntimeError):
    """A search hit its wall-clock cap before its count budgets ran out."""

    def __init__(self, cap_s: float, examined: int):
        self.cap_s = cap_s
        self.examined = examined
        super().__init__(f"time cap of {cap_s:g} s hit after {examined} words examined")


# witness thresholds: an elliptic word's angle/pi must sit DELTA_IRR away from
# every rational of denominator <= Q_MAX; a near-identity word lies within
# (NEAR_LO, NEAR_HI) of +-1 and fails to commute with a generator by more
# than NONCOMMUTE_FLOOR
DELTA_IRR = 1e-6
Q_MAX = 64
NEAR_LO = 1e-9
NEAR_HI = 1e-3
NONCOMMUTE_FLOOR = 1e-6


def rational_angle_margin(theta: float, q_max: int = Q_MAX) -> float:
    """Distance from theta/pi to the nearest rational with denominator <= q_max,
    found by continued fractions in time logarithmic in q_max."""
    # imported here to keep fractions and decimal off autrep's import path
    from fractions import Fraction

    x = theta / math.pi
    q = Fraction(x).limit_denominator(q_max).denominator
    return abs(x - round(x * q) / q)


def opnorm(m: np.ndarray) -> float:
    """Operator (spectral) norm of a 2x2 matrix.

    Backed by SVD: the closed form in terms of the Frobenius norm and
    determinant loses ~1e-9 absolute accuracy precisely when the singular
    values coincide, which is the generic case for differences of nearby
    unitaries."""
    return float(np.linalg.svd(np.asarray(m), compute_uv=False)[0])


def _identity_distance(m: np.ndarray) -> float:
    """Operator-norm distance from a 2x2 matrix to the nearer of +-1."""
    eye = np.eye(2)
    return min(opnorm(m - eye), opnorm(m + eye))


def _noncommute(a: np.ndarray, b: np.ndarray) -> float:
    """Largest entry of the commutator difference ab - ba."""
    return float(np.abs(a @ b - b @ a).max())


@dataclass
class DensityCertificate:
    """Replayable witness for a Dense verdict: spanning words plus a
    nondiscreteness (or infinite-order) witness."""
    field_tag: str
    generators: list[GroupElement]
    spanning_words: list[Word]
    witness: dict

    def to_obj(self) -> dict:
        return {
            "field": self.field_tag,
            "generators": elements_to_obj(self.generators, self.field_tag),
            "spanning_words": [format_word(w) for w in self.spanning_words],
            "witness": self.witness,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> DensityCertificate:
        for key in ("field", "generators", "spanning_words", "witness"):
            if key not in obj:
                raise ValueError(f"certificate has no {key!r} field")
        gens = elements_from_obj(obj["generators"], obj["field"])
        k = len(gens)
        words = [parse_word(t, k) for t in obj["spanning_words"]]
        return cls(obj["field"], gens, words, dict(obj["witness"]))

    def dumps(self) -> str:
        return jsonio.dumps(self.to_obj(), indent=2)

    @classmethod
    def loads(cls, text: str) -> DensityCertificate:
        return cls.from_obj(jsonio.loads(text))


@dataclass
class DensityVerdict:
    status: str  # "dense" | "likely_not_dense" | "unknown"
    certificate: DensityCertificate | None = None
    reason: str | None = None  # discrete-schottky-like | elementary | reducible-span
    report: dict = field(default_factory=dict)

    @property
    def dense(self) -> bool:
        return self.status == "dense"


def _levels(table: np.ndarray, budget: SearchBudget, seed: int):
    """The word spheres that certify_dense walks over the table's k
    generators: each level's (nib, parent) from sphere_children and its
    matrices, a level being subsampled by the seeded rng once it exceeds
    its share of the candidate budget."""
    k = table.shape[0] // 2
    rng = np.random.default_rng(seed)
    per_length = max(budget.max_candidates // budget.max_word_length, 2 * k)
    nib = None
    mats = np.eye(2, dtype=table.dtype)[None]
    for _ in range(budget.max_word_length):
        nib, parent = _engine.sphere_children(nib, 2 * k)
        if nib.shape[0] > per_length:
            idx = np.sort(rng.choice(nib.shape[0], size=per_length, replace=False))
            nib, parent = nib[idx], parent[idx]
        # batched @ reproduces evaluate's left-to-right products bit for bit
        mats = mats[parent] @ table[nib]
        yield nib, parent, mats


def _common_eigenvector(mats: list[np.ndarray]) -> bool:
    """Do all matrices share a fixed point on CP^1 (common eigenvector)?"""
    base = next((m for m in mats if np.abs(m - np.eye(2)).max() > TOL_PAR
                 and np.abs(m + np.eye(2)).max() > TOL_PAR), None)
    if base is None:
        return True  # everything central
    _, vecs = np.linalg.eig(base.astype(np.complex128))
    for j in range(2):
        v = vecs[:, j]
        ok = True
        for m in mats:
            mv = m.astype(np.complex128) @ v
            wedge = abs(mv[0] * v[1] - mv[1] * v[0])
            if wedge > TOL_PAR * max(1.0, float(np.abs(m).max())):
                ok = False
                break
        if ok:
            return True
    return False


def certify_dense(S: Sequence[GroupElement], budget: SearchBudget = SearchBudget(),
                  seed: int = 0) -> DensityVerdict:
    """Budgeted search for a density certificate for <S>.

    Dense requires (a) adjoint span of rank 9 over short words and (b) a
    nondiscreteness witness (infinite-order witness alone for su2).  Without
    both, structural obstructions are reported as LikelyNotDense and
    anything else as Unknown.  Raises TimeCapError if budget.time_cap_s
    passes before the word stream is done.

    The stream walks the reduced words over k = len(S) symbols breadth-first,
    deterministically subsampled per length once counts exceed the candidate
    budget; it depends only on (k, budget, seed), never on matrix values.
    Each word's matrix is formed once from its parent's.  A word joins the
    spanning words only when its adjoint row raises sl2.span_rank of the rows
    kept so far: the rank test that replay_certificate applies, to rows that
    replay rebuilds bit for bit, so the span part of a Dense certificate
    replays by construction.
    """
    S = list(S)
    if not S:
        raise ValueError("S must be nonempty")
    field_tag = S[0].field
    if any(g.field != field_tag for g in S):
        raise ValueError("mixed field tags")
    k = len(S)
    t0 = time.monotonic()

    eye = np.eye(2)
    nontrivial = [g.m for g in S
                  if np.abs(g.m - eye).max() > NEAR_LO
                  and np.abs(g.m + eye).max() > NEAR_LO]
    if not nontrivial:
        return DensityVerdict("likely_not_dense", reason="elementary",
                              report={"detail": "all generators are central",
                                      "words_examined": 0})

    target_rank = 9
    rows: list[np.ndarray] = []       # adjoint rows of the spanning words, of full rank
    spanning: list[Word] = []
    witness: dict | None = None
    near_identity: list[tuple[Word, np.ndarray, float]] = []
    words_examined = 0
    saw_elliptic = False
    min_distance = math.inf

    levels: list[tuple[np.ndarray, np.ndarray]] = []

    def products():
        for nib, parent, mats in _levels(generator_table(S), budget, seed):
            levels.append((nib, parent))
            yield from enumerate(mats)

    def word(i: int) -> Word:
        # the i-th word of the newest level, decoded only when recorded
        return Word(_engine.backtrack(levels, len(levels) - 1, i), k, _checked=True)

    for i, m in itertools.islice(products(), budget.max_candidates):
        if time.monotonic() - t0 > budget.time_cap_s:
            raise TimeCapError(budget.time_cap_s, words_examined)
        words_examined += 1
        g = GroupElement(m, field_tag)
        if len(rows) < target_rank:
            vec = adjoint(g).reshape(9)
            if span_rank(np.array(rows + [vec])) > len(rows):
                rows.append(vec)
                spanning.append(word(i))
        d_id = _identity_distance(g.m)
        if d_id > NEAR_LO:
            min_distance = min(min_distance, d_id)
        if witness is None:
            if classify(g).kind is IsometryType.ELLIPTIC:
                saw_elliptic = True
                theta = rotation_angle(g)
                margin = rational_angle_margin(theta)
                if margin > DELTA_IRR:
                    witness = {"kind": "elliptic-irrational", "angle": theta,
                               "margin": margin, "q_max": Q_MAX,
                               "word": format_word(word(i))}
            if witness is None and field_tag != "su2" and NEAR_LO < d_id < NEAR_HI:
                near_identity.append((word(i), g.m, d_id))
        if len(rows) >= target_rank and witness is not None:
            break

    # small-element + noncommuting-companion witness (noncompact fields)
    if witness is None and near_identity:
        for (w, m, d_id) in near_identity:
            for gi, h in enumerate(S):
                comm = _noncommute(m, h.m)
                if comm > NONCOMMUTE_FLOOR:
                    witness = {"kind": "near-identity", "word": format_word(w),
                               "distance": d_id, "noncommute": comm,
                               "companion_index": gi}
                    break
            if witness is not None:
                break

    rank = len(rows)
    report = {
        "words_examined": words_examined,
        "ad_rank": rank,
        "saw_elliptic": saw_elliptic,
        "min_nontrivial_distance": None if math.isinf(min_distance) else min_distance,
        "elapsed_s": time.monotonic() - t0,
    }

    if rank == target_rank and witness is not None:
        cert = DensityCertificate(field_tag, S, spanning, witness)
        return DensityVerdict("dense", certificate=cert, report=report)

    if _common_eigenvector([g.m for g in S]):
        return DensityVerdict("likely_not_dense", reason="elementary", report=report)
    if rank < target_rank:
        return DensityVerdict("likely_not_dense", reason="reducible-span", report=report)
    # here rank == target_rank and there is no witness
    if field_tag == "su2" or (not saw_elliptic and min_distance >= 0.1):
        return DensityVerdict("likely_not_dense", reason="discrete-schottky-like",
                              report=report)
    return DensityVerdict("unknown", report=report)


def replay_certificate(cert: DensityCertificate) -> bool:
    """Re-verify a certificate from its own data: spanning words must give
    adjoint rank 9 and the witness numerics must reproduce.  A malformed
    word or a missing or ill-typed witness field fails the replay."""
    rep = Representation(cert.generators)
    w = cert.witness
    try:
        if ad_span_rank([evaluate(rep, u) for u in cert.spanning_words]) != 9:
            return False
        m = evaluate(rep, parse_word(w["word"], rep.rank))
        if w["kind"] == "elliptic-irrational":
            if classify(m).kind is not IsometryType.ELLIPTIC:
                return False
            theta = rotation_angle(m)
            # a denominator bound below Q_MAX would pass rational angles
            q_max = int(w["q_max"])
            return (abs(theta - w["angle"]) <= 1e-9 and q_max >= Q_MAX
                    and rational_angle_margin(theta, q_max) > DELTA_IRR)
        if w["kind"] == "near-identity":
            h = cert.generators[int(w["companion_index"])]
            return (NEAR_LO < _identity_distance(m.m) < NEAR_HI
                    and _noncommute(m.m, h.m) > NONCOMMUTE_FLOOR)
    except (AttributeError, LookupError, TypeError, ValueError):
        return False
    return False


def omega_member(S: Sequence[GroupElement], g: GroupElement,
                 budget: SearchBudget = SearchBudget(), seed: int = 0) -> DensityVerdict:
    """Is g in Omega(S): does S together with g generate a dense subgroup?"""
    return certify_dense(list(S) + [g], budget, seed)


@dataclass
class OmegaTildeResult:
    witness: GroupElement | None
    verdicts: list[DensityVerdict]  # per dropped index, for the successful candidate
    attempts: int
    report: dict


# radius of the random perturbations in omega_tilde_search
PERTURBATION = 0.05


def omega_tilde_search(S: Representation | Sequence[GroupElement],
                       budget: SearchBudget = SearchBudget(), seed: int = 0,
                       max_attempts: int = 40) -> OmegaTildeResult:
    """Search for g in the intersection of Omega(S minus one coordinate) over
    all coordinates: g must complete every drop-one subtuple to a dense set.

    Candidates are products of the coordinates perturbed by small random
    elements near the identity.  The perturbation radius is a heuristic with
    no effective bound; it is echoed in the report.
    """
    elems = list(S.images) if isinstance(S, Representation) else list(S)
    n = len(elems)
    if n < 3:
        raise ValueError("need an n-tuple with n >= 3")
    field_tag = elems[0].field
    rng = np.random.default_rng(seed)
    attempts = 0
    blocked: dict[int, int] = {}
    report = {"perturbation": PERTURBATION,
              "note": "perturbation radius is an untuned heuristic"}
    products = [elems[i].m @ elems[(i + 1) % n].m for i in range(n)] + \
               [g.m for g in elems]
    while attempts < max_attempts:
        base = products[attempts % len(products)]
        pert = random_element(rng, field_tag, scale=PERTURBATION)
        cand = GroupElement(base, field_tag) @ pert
        attempts += 1
        verdicts = []
        ok = True
        for i in range(n):
            sub = [elems[j] for j in range(n) if j != i] + [cand]
            v = certify_dense(sub, budget, seed)
            verdicts.append(v)
            if not v.dense:
                blocked[i] = blocked.get(i, 0) + 1
                ok = False
                break
        if ok:
            return OmegaTildeResult(cand, verdicts, attempts, report)
    return OmegaTildeResult(None, [], attempts, {**report, "blocking_counts": blocked})


@dataclass
class StrongRedundancyReport:
    strongly_redundant: bool
    unknown: bool
    subtuple_verdicts: list[DensityVerdict]


def strongly_redundant(rep: Representation, budget: SearchBudget = SearchBudget(),
                       seed: int = 0) -> StrongRedundancyReport:
    """True iff every (n-1)-subtuple certifies dense; Unknown subtuples make
    the overall answer a flagged False."""
    if rep.rank < 3:
        raise ValueError("strong redundancy needs rank >= 3")
    verdicts = []
    for i in range(rep.rank):
        sub = [rep.images[j] for j in range(rep.rank) if j != i]
        verdicts.append(certify_dense(sub, budget, seed))
    ok = all(v.dense for v in verdicts)
    unknown = any(v.status == "unknown" for v in verdicts)
    return StrongRedundancyReport(ok, unknown and not ok, verdicts)


@dataclass
class RedundancyResult:
    status: str  # "redundant" | "not_found"
    automorphism: FreeAutomorphism | None = None
    dropped_index: int | None = None
    certificate: DensityCertificate | None = None
    chains_tried: int = 0


def redundant_heuristic(rep: Representation, budget: SearchBudget = SearchBudget(),
                        seed: int = 0, max_chain_length: int = 2) -> RedundancyResult:
    """Look for a free-factor witness of redundancy: an automorphism sigma and
    an index i such that dropping coordinate i of sigma . rep leaves a dense
    subtuple.  Direct subtuple checks first, then bounded Nielsen chains.
    Redundancy is existentially quantified over all bases, so failure is
    reported as NotFound (inconclusive), never as a refutation.
    """
    if rep.rank < 2:
        raise ValueError("redundancy needs rank >= 2")

    def direct(r: Representation, aut: FreeAutomorphism, tried: int) -> RedundancyResult | None:
        for i in range(r.rank):
            sub = [r.images[j] for j in range(r.rank) if j != i]
            v = certify_dense(sub, budget, seed)
            if v.dense:
                return RedundancyResult("redundant", aut, i, v.certificate, tried)
        return None

    ident = FreeAutomorphism.identity(rep.rank)
    hit = direct(rep, ident, 0)
    if hit is not None:
        return hit
    moves = nielsen_generators(rep.rank)
    frontier = [(ident, rep)]
    tried = 0
    for _ in range(max_chain_length):
        new = []
        for (aut, r) in frontier:
            for mv in moves:
                tried += 1
                if tried > budget.max_candidates:
                    return RedundancyResult("not_found", chains_tried=tried)
                aut2 = compose(mv, aut)
                r2 = act(mv, r)
                hit = direct(r2, aut2, tried)
                if hit is not None:
                    return hit
                new.append((aut2, r2))
        frontier = new
    return RedundancyResult("not_found", chains_tried=tried)


@dataclass
class LinksResult:
    links: bool
    per_k: list[DensityVerdict]


def links(phi: Representation, psi: Representation,
          budget: SearchBudget = SearchBudget(), seed: int = 0) -> LinksResult:
    """psi links phi when for every k < n the mixed tuple
    (phi(x_1)..phi(x_{k-1}), psi(x_{k+1})..psi(x_n)) generates a dense
    subgroup."""
    if phi.rank != psi.rank:
        raise ValueError("rank mismatch")
    if phi.field != psi.field:
        raise ValueError("field mismatch")
    n = phi.rank
    out = []
    for k in range(1, n):
        mixed = [phi.images[i] for i in range(k - 1)] + \
                [psi.images[i] for i in range(k, n)]
        out.append(certify_dense(mixed, budget, seed))
    return LinksResult(all(v.dense for v in out), out)
