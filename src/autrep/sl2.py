"""Numerical 2x2 unit-determinant matrix groups and hyperbolic geometry.

Three field tags share one element type: "real" (SL2(R), float entries),
"complex" (SL2(C)), and "su2" (the compact unitary subgroup of SL2(C)).
All classification and rank thresholds live in a Tolerances policy; the
mathematics is exact, the artifact manages floating point.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .freegroup import FreeAutomorphism, Word

Field = str  # "real" | "complex" | "su2"

_FIELDS = ("real", "complex", "su2")


@dataclass(frozen=True)
class Tolerances:
    """Central tolerance policy.

    det tolerance scales with the squared Frobenius norm: the determinant of
    a float matrix with entries of size g carries rounding of order g^2 eps,
    so an absolute bound is unattainable for large entries.
    """
    tol_det: float = 1e-9
    tol_par: float = 1e-8
    sv_rel_cutoff: float = 1e-8


DEFAULT_TOL = Tolerances()


class DetDriftError(ValueError):
    """Determinant strayed beyond the tolerance policy."""


def _dtype_for(field: Field):
    return np.float64 if field == "real" else np.complex128


class GroupElement:
    """A 2x2 matrix of determinant 1 over the tagged scalar field."""

    __slots__ = ("m", "field")

    def __init__(self, m, field: Field = "real", tol: Tolerances = DEFAULT_TOL):
        if field not in _FIELDS:
            raise ValueError(f"unknown field tag {field!r}")
        arr = np.array(m, dtype=_dtype_for(field))
        if arr.shape != (2, 2):
            raise ValueError("expected a 2x2 matrix")
        top = float(np.abs(arr).max())  # max propagates NaN
        if not math.isfinite(top):
            raise ValueError("matrix entries must be finite")
        scale = max(1.0, top ** 2)
        det = arr[0, 0] * arr[1, 1] - arr[0, 1] * arr[1, 0]
        if abs(det - 1.0) > tol.tol_det * scale:
            raise DetDriftError(f"determinant {det} drifted beyond tolerance")
        arr.setflags(write=False)
        self.m = arr
        self.field = field

    @classmethod
    def identity(cls, field: Field = "real") -> GroupElement:
        return cls(np.eye(2), field)

    @property
    def trace(self):
        t = self.m[0, 0] + self.m[1, 1]
        return float(t.real) if self.field == "real" else complex(t)

    def __matmul__(self, other: GroupElement) -> GroupElement:
        if self.field != other.field:
            raise ValueError("field tag mismatch")
        return GroupElement(self.m @ other.m, self.field)

    __mul__ = __matmul__

    def inverse(self) -> GroupElement:
        a, b, c, d = self.m.ravel()
        return GroupElement(np.array([[d, -b], [-c, a]]), self.field)

    def renormalize(self) -> GroupElement:
        """Explicitly rescale to determinant exactly 1 (no silent calls)."""
        det = self.m[0, 0] * self.m[1, 1] - self.m[0, 1] * self.m[1, 0]
        root = cmath.sqrt(det) if self.field != "real" else math.sqrt(det.real)
        return GroupElement(self.m / root, self.field)

    def distance_to(self, other: GroupElement) -> float:
        return float(np.abs(self.m - other.m).max())

    def __repr__(self) -> str:
        return f"GroupElement({self.m.tolist()!r}, field={self.field!r})"


class IsometryType(enum.Enum):
    IDENTITY_LIKE = "identity-like"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"  # loxodromic over the complex field


class Classification(NamedTuple):
    kind: IsometryType
    trace: complex


def classify(g: GroupElement, tol: Tolerances = DEFAULT_TOL) -> Classification:
    """Trace-based isometry type with the banded tolerance policy."""
    t = g.m[0, 0] + g.m[1, 1]
    eye = np.eye(2)
    if np.abs(g.m - eye).max() <= tol.tol_par or np.abs(g.m + eye).max() <= tol.tol_par:
        return Classification(IsometryType.IDENTITY_LIKE, complex(t))
    if g.field == "real":
        tr = float(t.real)
        if abs(abs(tr) - 2.0) <= tol.tol_par:
            return Classification(IsometryType.PARABOLIC, tr)
        if abs(tr) < 2.0 - tol.tol_par:
            return Classification(IsometryType.ELLIPTIC, tr)
        return Classification(IsometryType.HYPERBOLIC, tr)
    tc = complex(t)
    if abs(tc - 2.0) <= tol.tol_par or abs(tc + 2.0) <= tol.tol_par:
        return Classification(IsometryType.PARABOLIC, tc)
    if abs(tc.imag) <= tol.tol_par and abs(tc.real) < 2.0 - tol.tol_par:
        return Classification(IsometryType.ELLIPTIC, tc)
    return Classification(IsometryType.HYPERBOLIC, tc)


def translation_length(g: GroupElement, tol: Tolerances = DEFAULT_TOL) -> float:
    """2 ln of the largest eigenvalue modulus; exactly 0 for elliptic,
    parabolic, and identity-like classifications.

    The large root of z^2 - tr z + det is formed with a sign-aligned square
    root (no cancellation for large traces) and the matrix's actual
    determinant, so powers stay additive to near machine precision."""
    kind = classify(g, tol).kind
    if kind is not IsometryType.HYPERBOLIC:
        return 0.0
    half = complex(g.m[0, 0] + g.m[1, 1]) / 2.0
    det = complex(g.m[0, 0] * g.m[1, 1] - g.m[0, 1] * g.m[1, 0])
    s = cmath.sqrt(half * half - det)
    if (half.conjugate() * s).real < 0.0:
        s = -s
    mod = abs(half + s)
    if mod < 1.0:  # |lambda| = 1 edge inside the hyperbolic band
        mod = 1.0 / mod
    return 2.0 * math.log(mod)


def translation_length_arccosh(g: GroupElement) -> float:
    """Cross-check formula: 2 |Re arccosh(tr/2)|, nonnegative-real branch."""
    half = complex(g.m[0, 0] + g.m[1, 1]) / 2.0
    return 2.0 * abs(cmath.acosh(half).real)


def rotation_angle(g: GroupElement, tol: Tolerances = DEFAULT_TOL) -> float:
    """Angle theta in (0, pi] with tr = 2 cos(theta); elliptic input only."""
    c = classify(g, tol)
    if c.kind is not IsometryType.ELLIPTIC:
        raise ValueError(f"rotation_angle needs an elliptic element, got {c.kind.value}")
    tr = c.trace.real if isinstance(c.trace, complex) else c.trace
    return math.acos(max(-1.0, min(1.0, tr / 2.0)))


# -- adjoint representation --------------------------------------------------

# sl2 basis H, E, F; a traceless [[h, e], [f, -h]] has coordinates (h, e, f).
_SL2_BASIS = (
    np.array([[1.0, 0.0], [0.0, -1.0]]),
    np.array([[0.0, 1.0], [0.0, 0.0]]),
    np.array([[0.0, 0.0], [1.0, 0.0]]),
)

# su(2) basis i*sigma_z, sigma_minus-style, i*sigma_x: [[ia, b+ic], [-b+ic, -ia]]
_SU2_BASIS = (
    np.array([[1j, 0.0], [0.0, -1j]]),
    np.array([[0.0, 1.0], [-1.0, 0.0]]),
    np.array([[0.0, 1j], [1j, 0.0]]),
)


def adjoint(g: GroupElement) -> np.ndarray:
    """Matrix of v -> g v g^-1 on the Lie algebra in a fixed basis.

    For the real and complex fields the basis is (H, E, F) of sl2; entries
    are real/complex accordingly.  For su2 the basis spans su(2) and the
    matrix is real (a rotation).
    """
    ginv = g.inverse()
    if g.field == "su2":
        cols = []
        for b in _SU2_BASIS:
            M = g.m @ b @ ginv.m
            cols.append([M[0, 0].imag, M[0, 1].real, M[0, 1].imag])
        return np.array(cols).T
    cols = []
    for b in _SL2_BASIS:
        M = g.m @ b @ ginv.m
        cols.append([M[0, 0], M[0, 1], M[1, 0]])
    A = np.array(cols).T
    return A.real.copy() if g.field == "real" else A


def ad_span_rank(elements: Sequence[GroupElement],
                 tol: Tolerances = DEFAULT_TOL) -> int:
    """Dimension of the span of {Ad(g)} inside the 9-dimensional matrix
    algebra: real dimension for the real and su2 fields, complex dimension
    for the complex field.  9 means the adjoint images span everything.
    """
    if not elements:
        raise ValueError("need at least one element")
    rows = np.array([adjoint(g).reshape(9) for g in elements])
    sv = np.linalg.svd(rows, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int((sv > tol.sv_rel_cutoff * sv[0]).sum())


# -- representations ---------------------------------------------------------


class Representation:
    """A point of Hom(F_n, G) = G^n: ordered images of the generators."""

    __slots__ = ("rank", "images", "field")

    def __init__(self, images: Sequence[GroupElement]):
        if not images:
            raise ValueError("need at least one generator image")
        field = images[0].field
        if any(g.field != field for g in images):
            raise ValueError("mixed field tags")
        self.images = tuple(images)
        self.rank = len(self.images)
        self.field = field

    def __getitem__(self, i: int) -> GroupElement:
        return self.images[i]

    def __repr__(self) -> str:
        return f"Representation(rank={self.rank}, field={self.field!r})"


def generator_table(elements: Sequence[GroupElement]) -> np.ndarray:
    """(2k, 2, 2) matrices of k generators and their inverses, indexed like
    the packed engine's nibbles: c is generator c//2+1, inverted when c is odd."""
    table = np.empty((2 * len(elements), 2, 2), dtype=_dtype_for(elements[0].field))
    for i, g in enumerate(elements):
        table[2 * i] = g.m
        table[2 * i + 1] = g.inverse().m
    return table


def evaluate(rep: Representation, w: Word) -> GroupElement:
    """Product of generator images along the word."""
    if w.rank != rep.rank:
        raise ValueError("rank mismatch")
    out = np.eye(2, dtype=_dtype_for(rep.field))
    for v in w.letters:
        g = rep.images[abs(v) - 1]
        out = out @ (g.m if v > 0 else g.inverse().m)
    return GroupElement(out, rep.field)


def act(a: FreeAutomorphism, rep: Representation) -> Representation:
    """The automorphism action: coordinate i becomes the value of the
    inverse image word a^-1(x_i) in the representation."""
    if a.rank != rep.rank:
        raise ValueError("rank mismatch")
    return Representation([evaluate(rep, w) for w in a.inverse_images])


# -- hyperbolic 3-space (upper half-space model) ------------------------------


@dataclass(frozen=True)
class H3Point:
    z: complex
    t: float

    def __post_init__(self):
        if not self.t > 0:
            raise ValueError("height must be positive")


BASEPOINT = H3Point(0j, 1.0)


def mobius_act(g: GroupElement, p: H3Point) -> H3Point:
    """Extension of the fractional-linear action to upper half-space."""
    a, b, c, d = (complex(x) for x in g.m.ravel())
    den = abs(c * p.z + d) ** 2 + abs(c) ** 2 * p.t ** 2
    if den == 0.0:
        raise ZeroDivisionError("point maps to infinity")
    z = ((a * p.z + b) * (c * p.z + d).conjugate() + a * c.conjugate() * p.t ** 2) / den
    return H3Point(z, p.t / den)


def h3_distance(p: H3Point, q: H3Point) -> float:
    """cosh d = 1 + (|z1-z2|^2 + (t1-t2)^2) / (2 t1 t2)."""
    num = abs(p.z - q.z) ** 2 + (p.t - q.t) ** 2
    return math.acosh(1.0 + num / (2.0 * p.t * q.t))


# -- sampling -----------------------------------------------------------------


def random_su2(rng: np.random.Generator) -> GroupElement:
    """Haar-uniform SU(2) via a uniform point of the unit 3-sphere."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    a = q[0] + 1j * q[1]
    b = q[2] + 1j * q[3]
    return GroupElement(np.array([[a, b], [-b.conjugate(), a.conjugate()]]), "su2")


def _expm_traceless(X: np.ndarray) -> np.ndarray:
    # exp of traceless 2x2: cosh(mu) I + sinh(mu)/mu X with mu^2 = -det X
    mu2 = X[0, 0] * X[0, 0] + X[0, 1] * X[1, 0]
    mu = cmath.sqrt(complex(mu2))
    if abs(mu) < 1e-12:
        coef = 1.0 + mu2 / 6.0
        return np.eye(2, dtype=X.dtype) + coef * X
    ch, sh = cmath.cosh(mu), cmath.sinh(mu) / mu
    out = ch * np.eye(2) + sh * X
    return out.real if np.isrealobj(X) else out


def random_element(rng: np.random.Generator, field: Field = "real",
                   scale: float = 1.0) -> GroupElement:
    """Random element as exp of a random Lie algebra vector (or Haar for su2)."""
    if field == "su2":
        return random_su2(rng)
    if field == "real":
        coef = rng.normal(scale=scale, size=3)
        X = coef[0] * _SL2_BASIS[0] + coef[1] * _SL2_BASIS[1] + coef[2] * _SL2_BASIS[2]
    else:
        coef = rng.normal(scale=scale, size=3) + 1j * rng.normal(scale=scale, size=3)
        X = (coef[0] * _SL2_BASIS[0] + coef[1] * _SL2_BASIS[1]
             + coef[2] * _SL2_BASIS[2]).astype(np.complex128)
    g = _expm_traceless(X)
    return GroupElement(g, field).renormalize()


# -- serialization ------------------------------------------------------------


def _entry_to_json(x, field: Field):
    if field == "real":
        return float(x.real)
    return [float(x.real), float(x.imag)]


def _entry_from_json(e, field: Field):
    if field == "real":
        return float(e)
    return complex(e[0], e[1])


def rep_to_obj(rep: Representation) -> dict:
    return {"field": rep.field, "rank": rep.rank,
            "images": elements_to_obj(rep.images, rep.field)}


def rep_from_obj(obj: dict) -> Representation:
    rep = Representation(elements_from_obj(obj["images"], obj["field"]))
    if rep.rank != obj["rank"]:
        raise ValueError("rank field disagrees with image count")
    return rep


def elements_to_obj(elements: Iterable[GroupElement], field: Field) -> list:
    return [[[_entry_to_json(g.m[i, j], field) for j in (0, 1)]
             for i in (0, 1)] for g in elements]


def elements_from_obj(obj: list, field: Field) -> list[GroupElement]:
    return [GroupElement(np.array(
        [[_entry_from_json(row[0], field), _entry_from_json(row[1], field)]
         for row in mat]), field) for mat in obj]
