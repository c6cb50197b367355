"""Correctness checks for the benchmark workloads.

Every check returns a list of failure messages, empty when it passes.  A
check recomputes what it tests apart from the code under test (plain
Python integers, numpy products, networkx, scipy) or tests a property the
method must have; none compares against a stored copy of earlier output.
Packed class keys are decoded here from their documented bit layout
rather than through autrep's own decoder.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

# -- words and packed keys -------------------------------------------------------


def bits_per_letter(rank: int) -> int:
    return max(2, (2 * rank - 1).bit_length())


def decode_keys(keys: np.ndarray, length: int, rank: int) -> np.ndarray:
    """Packed class keys -> (N, length) signed letters.  A letter v is the
    nibble 2(|v|-1) + (v < 0); the first letter sits in the top nibble."""
    b = bits_per_letter(rank)
    keys = np.asarray(keys, dtype=np.uint64)
    shifts = np.array([b * (length - 1 - j) for j in range(length)], dtype=np.uint64)
    nib = ((keys[:, None] >> shifts[None, :]) & np.uint64((1 << b) - 1)).astype(np.int64)
    return (nib // 2 + 1) * np.where(nib % 2 == 1, -1, 1)


def word_text(letters) -> str:
    return " ".join(f"x{v}" if v > 0 else f"x{-v}^-1" for v in letters)


def parse_text(text: str) -> tuple[int, ...]:
    return tuple(-int(tok[1:-3]) if tok.endswith("^-1") else int(tok[1:])
                 for tok in text.split())


def cyclic_core(letters) -> tuple[int, ...]:
    w = list(letters)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def class_canonical(letters) -> tuple[int, ...]:
    """Least rotation of the cyclic core and of its inverse, letters ordered
    x1 < x1^-1 < x2 < x2^-1 < ..."""
    core = cyclic_core(letters)
    inv = tuple(-v for v in reversed(core))
    order = lambda t: tuple(2 * (abs(v) - 1) + (v < 0) for v in t)  # noqa: E731
    cands = [c[i:] + c[:i] for c in (core, inv) for i in range(len(c))]
    return min(cands, key=order)


def reduced_words(rank: int, max_len: int):
    """Every freely reduced word of length 1..max_len, shortest first."""
    alphabet = [v for i in range(1, rank + 1) for v in (i, -i)]
    level = [(v,) for v in alphabet]
    for _ in range(max_len):
        yield from level
        level = [w + (v,) for w in level for v in alphabet if v != -w[-1]]


def random_cyclic_words(rng: np.random.Generator, rank: int, count: int,
                        lengths: tuple[int, int]) -> list[tuple[int, ...]]:
    """Random cyclically reduced words with lengths in [lo, hi]."""
    out = []
    while len(out) < count:
        n = int(rng.integers(lengths[0], lengths[1] + 1))
        w: list[int] = []
        while len(w) < n:
            v = int(rng.integers(1, rank + 1)) * (1 if rng.integers(2) else -1)
            if w and w[-1] == -v:
                continue
            w.append(v)
        if len(w) >= 2 and w[0] == -w[-1]:
            continue
        out.append(tuple(w))
    return out


def letters_to_nibbles(words: list[tuple[int, ...]]) -> np.ndarray:
    return np.array([[2 * (abs(v) - 1) + (v < 0) for v in w] for w in words],
                    dtype=np.uint8)


# -- exact integer matrices ------------------------------------------------------


def int_mul(a, b):
    return ((a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
            (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]))


def int_inverse(a):
    return ((a[1][1], -a[0][1]), (-a[1][0], a[0][0]))


def int_word(mats, letters):
    out = ((1, 0), (0, 1))
    for v in letters:
        m = mats[abs(v) - 1]
        out = int_mul(out, m if v > 0 else int_inverse(m))
    return out


def length_from_int_trace(t: int) -> float:
    """Translation length 2 acosh(|t|/2), and 0 for |t| <= 2."""
    a = abs(t)
    if a <= 2:
        return 0.0
    if a > 2 ** 60:  # acosh(x) = log(2x) to double precision
        return 2.0 * math.log(a)
    return 2.0 * math.acosh(a / 2)


# -- sweep-f4 ----------------------------------------------------------------------


def euler_phi(n: int) -> int:
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


def check_f2_counts(counts: dict[int, int], cap: int) -> list[str]:
    """Primitive classes of F2 up to inversion: 2 at length 1, 2 phi(L) at L >= 2."""
    want = {1: 2, **{L: 2 * euler_phi(L) for L in range(2, cap + 1)}}
    bad = [L for L in want if counts.get(L, 0) != want[L]]
    extra = sorted(set(counts) - set(want))
    if bad or extra:
        return [f"F2 class counts wrong at lengths {bad + extra}"]
    return []


def check_exponent_gcd(keys_by_length: dict[int, np.ndarray], rank: int) -> list[str]:
    """A primitive class has exponent sums with gcd 1."""
    bad = 0
    for L, keys in keys_by_length.items():
        rows = decode_keys(keys, L, rank)
        sums = np.stack([(rows == i).sum(axis=1) - (rows == -i).sum(axis=1)
                         for i in range(1, rank + 1)], axis=1)
        bad += int((np.gcd.reduce(np.abs(sums), axis=1) != 1).sum())
    return [f"{bad} classes with exponent-sum gcd != 1"] if bad else []


def whitehead_edges(letters) -> set[tuple[int, int]]:
    """Simple Whitehead graph of a cyclic word: an edge {c, d^-1} per
    cyclically adjacent pair (c, d); a length-1 word a gives {a, a^-1}."""
    w = cyclic_core(letters)
    if len(w) == 1:
        return {tuple(sorted((w[0], -w[0])))}
    return {tuple(sorted((w[i], -w[(i + 1) % len(w)]))) for i in range(len(w))}


def networkx_basic_lemma_violation(letters, rank: int) -> bool:
    """Connected on all 2n vertices and without a cut vertex."""
    import networkx as nx
    g = nx.Graph()
    g.add_nodes_from(v for i in range(1, rank + 1) for v in (i, -i))
    g.add_edges_from(whitehead_edges(letters))
    return nx.is_connected(g) and not any(True for _ in nx.articulation_points(g))


def check_predicate(words: list[tuple[int, ...]], mask: np.ndarray, rank: int) -> list[str]:
    want = [networkx_basic_lemma_violation(w, rank) for w in words]
    bad = [w for w, a, b in zip(words, want, mask) if a != bool(b)]
    if bad:
        return [f"graph predicate disagrees with networkx on {len(bad)} of "
                f"{len(words)} words, e.g. {word_text(bad[0])}"]
    return []


def check_violations(violations: int) -> list[str]:
    return [f"{violations} Basic-Lemma violations"] if violations else []


def check_decide(words: list[tuple[int, ...]], verdicts: list[bool],
                 member_keys: dict[int, np.ndarray], rank: int) -> list[str]:
    """decide_primitive on a word must say whether its class is enumerated."""
    if len(words) != len(verdicts):
        return [f"{len(verdicts)} verdicts for {len(words)} words"]
    members = set()
    for L, keys in member_keys.items():
        members.update(map(tuple, decode_keys(keys, L, rank).tolist()))
    bad = [w for w, v in zip(words, verdicts) if v != (class_canonical(w) in members)]
    if bad:
        return [f"decide_primitive disagrees with enumeration on {len(bad)} words, "
                f"e.g. {word_text(bad[0])}"]
    return []


# -- ps2 ------------------------------------------------------------------------


def probe_sample(report, rng: np.random.Generator, size: int) -> np.ndarray:
    """A seeded sample of class indices plus the argmin and every zero-ratio class."""
    r1, r2 = report.col_l1 / report.col_length, report.col_l2 / report.col_length
    special = np.concatenate([[int(np.argmin(np.maximum(r1, r2)))],
                              np.nonzero(report.col_l1 == 0.0)[0],
                              np.nonzero(report.col_l2 == 0.0)[0]])
    drawn = rng.choice(report.total_classes, size=min(size, report.total_classes),
                       replace=False)
    return np.unique(np.concatenate([special, drawn]).astype(np.int64))


def class_letters(report, i: int, rank: int) -> tuple[int, ...]:
    L = int(report.col_length[i])
    return tuple(decode_keys(report.col_keys[i:i + 1], L, rank)[0].tolist())


def check_lengths(report, ints: tuple[list, list], sample: np.ndarray,
                  rel: float = 1e-9) -> list[str]:
    """Both length columns against exact integer traces on the sample."""
    bad = []
    for i in sample:
        w = class_letters(report, int(i), report.rank)
        for col, mats in ((report.col_l1, ints[0]), (report.col_l2, ints[1])):
            m = int_word(mats, w)
            exact = length_from_int_trace(m[0][0] + m[1][1])
            got = float(col[i])
            ok = abs(got - exact) <= rel * exact if exact else got == 0.0
            if not ok:
                bad.append((word_text(w), got, exact))
    if bad:
        return [f"{len(bad)} lengths disagree with exact traces, e.g. {bad[0]}"]
    return []


def check_min_ratio(report) -> list[str]:
    L = report.col_length.astype(float)
    mx = float(np.maximum(report.col_l1 / L, report.col_l2 / L).min())
    out = []
    if not mx > 0.0:
        out.append(f"min max-ratio {mx} is not positive")
    if abs(mx - report.min_max_ratio) > 1e-12 * mx:
        out.append(f"reported min max-ratio {report.min_max_ratio} != columns' {mx}")
    return out


def check_zero_ratio(report, ints: tuple[list, list], is_primitive) -> list[str]:
    """Each slot has a zero-ratio class; each is parabolic in integers and primitive."""
    out = []
    for slot, (col, mats) in enumerate(((report.col_l1, ints[0]),
                                        (report.col_l2, ints[1])), start=1):
        zeros = np.nonzero(col == 0.0)[0]
        if zeros.size == 0:
            out.append(f"slot {slot} has no zero-ratio class")
        for i in zeros:
            w = class_letters(report, int(i), report.rank)
            m = int_word(mats, w)
            if abs(m[0][0] + m[1][1]) != 2:
                out.append(f"slot {slot}: {word_text(w)} has trace {m[0][0] + m[1][1]}")
            elif not is_primitive(w):
                out.append(f"slot {slot}: {word_text(w)} is not primitive")
    return out


def apply_images(images: list[tuple[int, ...]], letters) -> tuple[int, ...]:
    """Image of a word under the substitution x_i -> images[i-1], freely reduced."""
    out: list[int] = []
    for v in letters:
        img = images[abs(v) - 1]
        for u in (img if v > 0 else tuple(-x for x in reversed(img))):
            if out and out[-1] == -u:
                out.pop()
            else:
                out.append(u)
    return tuple(out)


def containment_holds(images: list[tuple[int, ...]], punctures, twist_word) -> bool:
    """Every twisted puncture's Whitehead graph contains the twisting word's."""
    target = whitehead_edges(twist_word)
    return all(target <= whitehead_edges(apply_images(images, p)) for p in punctures)


def check_twist(m: int, containment_at) -> list[str]:
    """containment_at(k) -> bool for exponent k; m passes and m-1 fails."""
    out = []
    if not containment_at(m):
        out.append(f"twist exponent {m} fails containment")
    if m > 1 and containment_at(m - 1):
        out.append(f"twist exponent {m - 1} already passes containment")
    return out


def check_stability(report, cap: int) -> list[str]:
    lo = cap - 4
    L = report.col_length.astype(float)
    mx = np.maximum(report.col_l1 / L, report.col_l2 / L)
    at_cap, at_lo = float(mx.min()), float(mx[report.col_length <= lo].min())
    if at_cap < 0.5 * at_lo:
        return [f"min ratio {at_cap} at L<={cap} below half of {at_lo} at L<={lo}"]
    return []


def check_axis_consistency(report) -> list[str]:
    bad = report.check_ratio_axis_consistency()
    return [f"{bad} ratio/axis inconsistencies"] if bad else []


def axis_pass_exact(mats, letters, window: int, K: float, margin: float = 1e-6
                    ) -> bool | None:
    """Two-sided K-quasi-geodesic test with exact integer segments:
    d(s, t) = acosh(||seg||_F^2 / 2).  None when some pair sits within the
    float margin of a bound (the float verdict may go either way)."""
    n = len(letters)
    T = window * n
    ok = True
    close = False
    for s in range(T):
        seg = ((1, 0), (0, 1))
        for t in range(s + 1, T + 1):
            v = letters[(t - 1) % n]
            m = mats[abs(v) - 1]
            seg = int_mul(seg, m if v > 0 else int_inverse(m))
            f2 = sum(x * x for row in seg for x in row)
            d = math.acosh(f2 / 2) if f2 < 2 ** 60 else math.log(f2)
            delta = float(t - s)
            for gap in (K * delta + K - d, d - (delta / K - K)):
                if abs(gap) <= margin * max(1.0, abs(d)):
                    close = True
                elif gap < 0:
                    ok = False
    if close and ok:
        return None
    return ok


def check_axis(report, ints: tuple[list, list], sample: np.ndarray) -> list[str]:
    bad = []
    for i in sample:
        w = class_letters(report, int(i), report.rank)
        for col, mats in ((report.col_axis1, ints[0]), (report.col_axis2, ints[1])):
            want = axis_pass_exact(mats, w, report.window, report.K)
            if want is not None and want != bool(col[i]):
                bad.append(word_text(w))
    if bad:
        return [f"axis flags disagree with exact segments on {len(bad)} classes, "
                f"e.g. {bad[0]}"]
    return []


def check_csv(path: str, report, sample: np.ndarray) -> list[str]:
    """One row per class; sampled rows parse back to their class and lengths."""
    with open(path) as f:
        rows = [r for r in csv.reader(line for line in f if not line.startswith("#"))]
    header, body = rows[0], rows[1:]
    if len(body) != report.total_classes:
        return [f"CSV has {len(body)} rows for {report.total_classes} classes"]
    col = {name: j for j, name in enumerate(header)}
    bad = []
    for i in sample:
        row = body[int(i)]
        w = class_letters(report, int(i), report.rank)
        if (parse_text(row[col["class"]]) != w or int(row[col["length"]]) != len(w)
                or float(row[col["l1"]]) != float(report.col_l1[i])
                or float(row[col["l2"]]) != float(report.col_l2[i])):
            bad.append(int(i))
    return [f"{len(bad)} sampled CSV rows do not parse back, e.g. row {bad[0]}"] if bad else []


def check_json(path: str, report, m: int) -> list[str]:
    with open(path) as f:
        obj = json.load(f)
    want = json.loads(json.dumps(report.to_obj()))
    diff = [k for k, v in want.items() if obj.get(k) != v]
    if obj.get("twist_exponent") != m:
        diff.append("twist_exponent")
    return [f"JSON summary differs in {diff}"] if diff else []


# -- steer-walk ------------------------------------------------------------------


def np_word(mats: list[np.ndarray], letters) -> np.ndarray:
    out = np.eye(2, dtype=np.complex128)
    for v in letters:
        m = mats[abs(v) - 1]
        if v < 0:
            m = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])
        out = out @ m
    return out


def check_steer(phi: list[np.ndarray], psi: list[np.ndarray], inverse_images,
                distances, eps: float) -> list[str]:
    """Re-evaluate the automorphism's inverse-image words on phi."""
    out = []
    for i, letters in enumerate(inverse_images):
        d = float(np.linalg.norm(np_word(phi, letters) - psi[i], 2))
        if d > eps:
            out.append(f"coordinate {i + 1}: distance {d} > {eps}")
        if abs(d - distances[i]) > 1e-9:
            out.append(f"coordinate {i + 1}: reported {distances[i]}, recomputed {d}")
    return out


def rational_margin(theta: float, q_max: int = 64) -> float:
    x = theta / math.pi
    return min(abs(x - round(x * q) / q) for q in range(1, q_max + 1))


def check_witness_angle(gens: list[np.ndarray], witness: dict) -> list[str]:
    """An elliptic witness's angle, from our own product, is irrational-looking."""
    if witness.get("kind") != "elliptic-irrational":
        return []
    m = np_word(gens, parse_text(witness["word"]))
    theta = math.acos(max(-1.0, min(1.0, float((m[0, 0] + m[1, 1]).real) / 2.0)))
    out = []
    if abs(theta - witness["angle"]) > 1e-9:
        out.append(f"witness angle {witness['angle']} recomputes to {theta}")
    if not rational_margin(theta) > 1e-6:
        out.append(f"witness angle {theta} is within 1e-6 of a rational multiple of pi")
    return out


def haar_trace_cdf(t):
    """Law of tr g for Haar g in SU(2): density sqrt(4 - t^2) / (2 pi)."""
    t = np.clip(np.asarray(t, dtype=float), -2.0, 2.0)
    return (t * np.sqrt(4.0 - t * t) / 2.0 + 2.0 * np.arcsin(t / 2.0)) / (2.0 * math.pi) + 0.5


def check_ks(traces: np.ndarray, burn: int = 20) -> list[str]:
    from scipy import stats
    pooled = np.concatenate([traces[burn:, i] for i in range(traces.shape[1])]).real
    p = float(stats.kstest(pooled, haar_trace_cdf).pvalue)
    return [] if p > 0.01 else [f"KS against the Haar trace law: p = {p:.4g} <= 0.01"]


def check_fricke(traces: np.ndarray, rel: float = 1e-6) -> list[str]:
    """tr[a,b] = tr(a)^2 + tr(b)^2 + tr(ab)^2 - tr(a)tr(b)tr(ab) - 2 stays
    constant along a rank-2 walk; rounding grows with the square of the
    trace size, so the tolerance is rel * max(1, |tr|)^2 per sample."""
    a, b, ab = traces[:, 0], traces[:, 1], traces[:, 2]
    k = a * a + b * b + ab * ab - a * b * ab - 2
    scale = np.maximum(1.0, np.abs(traces).max(axis=1))
    worst = int(np.argmax(np.abs(k - k[0]) / scale ** 2))
    if abs(k[worst] - k[0]) > rel * scale[worst] ** 2:
        return [f"Fricke invariant drifts by {abs(k[worst] - k[0]):.3g} at sample {worst}"]
    return []
