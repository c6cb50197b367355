"""Each benchmark check passes on a real result and fails on a corrupted one.

    python3 -m pytest bench/test_checks.py -q
"""

import copy
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from autrep import _engine, cli, density, dynamics, freegroup, nonmixing, whitehead  # noqa: E402


@pytest.fixture(scope="module")
def probe():
    report, pair, m = nonmixing.demo_pipeline(8, axis_check=True)
    ints = (pair.int_images_1, pair.int_images_2)
    sample = checks.probe_sample(report, np.random.default_rng(0), 300)
    return report, ints, m, sample


@pytest.fixture
def artifacts(probe, tmp_path):
    report, _, m, _ = probe
    manifest = cli.RunManifest("nonmixing demo", {}, None)
    obj = report.to_obj()
    obj["twist_exponent"] = m
    json_path, csv_path = str(tmp_path / "r.json"), str(tmp_path / "r.csv")
    cli._emit(obj, manifest, json_path)
    report.write_csv(csv_path, report.rank, cli._manifest_line(manifest))
    return json_path, csv_path


def _is_primitive(w):
    return whitehead.decide_primitive(freegroup.Word(w, 3)).primitive


# -- perturbed length column ---------------------------------------------------


def test_lengths_check_catches_a_perturbed_length(probe):
    report, ints, _, sample = probe
    assert checks.check_lengths(report, ints, sample) == []
    bad = copy.copy(report)
    bad.col_l2 = report.col_l2.copy()
    bad.col_l2[sample[-1]] *= 1 + 1e-7
    assert checks.check_lengths(bad, ints, sample)


def test_min_ratio_check_catches_a_perturbed_argmin(probe):
    report, _, _, _ = probe
    assert checks.check_min_ratio(report) == []
    bad = copy.copy(report)
    L = report.col_length.astype(float)
    i = int(np.argmin(np.maximum(report.col_l1 / L, report.col_l2 / L)))
    bad.col_l1, bad.col_l2 = report.col_l1.copy(), report.col_l2.copy()
    bad.col_l1[i] *= 0.5
    bad.col_l2[i] *= 0.5
    assert checks.check_min_ratio(bad)


def test_zero_ratio_check_catches_a_hyperbolic_class_at_length_zero(probe):
    report, ints, _, _ = probe
    assert checks.check_zero_ratio(report, ints, _is_primitive) == []
    bad = copy.copy(report)
    bad.col_l1 = report.col_l1.copy()
    bad.col_l1[int(np.argmax(report.col_l1))] = 0.0
    assert checks.check_zero_ratio(bad, ints, _is_primitive)


def test_stability_check_catches_collapsing_long_classes(probe):
    report, _, _, _ = probe
    assert checks.check_stability(report, 8) == []
    bad = copy.copy(report)
    long = report.col_length > 4
    bad.col_l1 = np.where(long, report.col_l1 * 0.1, report.col_l1)
    bad.col_l2 = np.where(long, report.col_l2 * 0.1, report.col_l2)
    assert checks.check_stability(bad, 8)


def test_csv_check_catches_a_perturbed_length(probe, artifacts):
    report, _, _, sample = probe
    _, csv_path = artifacts
    assert checks.check_csv(csv_path, report, sample) == []
    bad = copy.copy(report)
    bad.col_l1 = report.col_l1.copy()
    bad.col_l1[sample[0]] = np.nextafter(report.col_l1[sample[0]], np.inf)
    assert checks.check_csv(csv_path, bad, sample)


def test_axis_checks_catch_flipped_flags(probe):
    report, ints, _, sample = probe
    small = sample[:40]
    assert checks.check_axis(report, ints, small) == []
    assert checks.check_axis_consistency(report) == []
    bad = copy.copy(report)
    bad.col_axis1 = report.col_axis1.copy()
    bad.col_axis1[small] = ~bad.col_axis1[small]
    assert checks.check_axis(bad, ints, small)


def test_json_check_catches_an_edited_summary(probe, artifacts):
    report, _, m, _ = probe
    json_path, _ = artifacts
    assert checks.check_json(json_path, report, m) == []
    with open(json_path) as f:
        text = f.read()
    with open(json_path, "w") as f:
        f.write(text.replace('"total_classes": ', '"total_classes": 1'))
    assert checks.check_json(json_path, report, m)


def test_twist_check_needs_the_smallest_passing_exponent():
    ps2 = workloads.PS2(0, False, False, ".")
    assert checks.check_twist(2, ps2._containment_at) == []
    assert checks.check_twist(3, ps2._containment_at)
    assert checks.check_twist(1, ps2._containment_at)


# -- dropped class ---------------------------------------------------------------


def test_f2_count_check_catches_a_dropped_class():
    keys = whitehead.primitive_class_keys(2, 14)
    counts = {L: int(k.size) for L, k in keys.items()}
    assert checks.check_f2_counts(counts, 14) == []
    counts[9] -= 1
    assert checks.check_f2_counts(counts, 14)


def test_decide_check_catches_a_dropped_class():
    words = list(checks.reduced_words(3, 4))
    verdicts = [whitehead.decide_primitive(freegroup.Word(w, 3)).primitive for w in words]
    member = whitehead.primitive_class_keys(3, 4)
    assert checks.check_decide(words, verdicts, member, 3) == []
    dropped = dict(member)
    dropped[3] = member[3][1:]
    assert checks.check_decide(words, verdicts, dropped, 3)


def test_csv_check_catches_a_dropped_row(probe, artifacts):
    report, _, _, sample = probe
    _, csv_path = artifacts
    with open(csv_path) as f:
        lines = f.readlines()
    with open(csv_path, "w") as f:
        f.writelines(lines[:-1])
    assert checks.check_csv(csv_path, report, sample)


def test_gcd_check_catches_a_non_primitive_class():
    keys = whitehead.primitive_class_keys(4, 4)
    assert checks.check_exponent_gcd(keys, 4) == []
    square = _engine.pack_rows(np.array([[0, 0]], dtype=np.uint8), 3)  # x1 x1
    bad = dict(keys)
    bad[2] = np.concatenate([keys[2], square])
    assert checks.check_exponent_gcd(bad, 4)


def test_predicate_check_catches_a_flipped_verdict():
    words = checks.random_cyclic_words(np.random.default_rng(0), 4, 200, (12, 12))
    mask = _engine.PackedEngine(4).connected_cutpoint_free_mask(
        checks.letters_to_nibbles(words))
    assert 0 < mask.sum() < len(words)
    assert checks.check_predicate(words, mask, 4) == []
    flipped = mask.copy()
    flipped[0] = ~flipped[0]
    assert checks.check_predicate(words, flipped, 4)


def test_violation_check():
    assert checks.check_violations(0) == []
    assert checks.check_violations(1)


# -- wrong steering distance -----------------------------------------------------


@pytest.fixture(scope="module")
def steered():
    wl = workloads.SteerWalk(0, False)
    phi, psi = wl.triples[0]
    phi_r, psi_r = wl.triple_reps[0]
    res = dynamics.steer(phi_r, psi_r, 0.15, density.SearchBudget(160, 50_000, 120.0))
    return phi, psi, res


def test_steer_check_catches_a_wrong_distance(steered):
    phi, psi, res = steered
    inv = [w.letters for w in res.automorphism.inverse_images]
    assert checks.check_steer(phi, psi, inv, res.distances, 0.15) == []
    wrong = list(res.distances)
    wrong[1] += 1e-6
    assert checks.check_steer(phi, psi, inv, wrong, 0.15)


def test_steer_check_catches_a_wrong_automorphism(steered):
    phi, psi, res = steered
    inv = [w.letters for w in res.automorphism.inverse_images]
    inv[0] = inv[0] + (2,)
    assert checks.check_steer(phi, psi, inv, res.distances, 0.15)


def test_witness_angle_check_catches_a_rational_angle():
    c, s = math.cos(0.5), math.sin(0.5)
    rot = np.array([[c, -s], [s, c]])
    assert checks.check_witness_angle([rot], {"kind": "elliptic-irrational",
                                              "word": "x1", "angle": 0.5}) == []
    third = np.array([[0.5, -math.sqrt(3) / 2], [math.sqrt(3) / 2, 0.5]])
    assert checks.check_witness_angle([third], {"kind": "elliptic-irrational",
                                                "word": "x1", "angle": math.pi / 3})
    assert checks.check_witness_angle([rot], {"kind": "elliptic-irrational",
                                              "word": "x1", "angle": 0.6})


def test_ks_check_catches_a_non_haar_sample():
    rng = np.random.default_rng(0)
    # Haar traces: 2 cos(theta) with theta of density (2/pi) sin^2(theta) on [0, pi]
    theta = np.empty(9000)
    have = 0
    while have < theta.size:
        t = rng.uniform(0, math.pi, size=4 * theta.size)
        t = t[rng.uniform(size=t.size) < np.sin(t) ** 2]
        take = min(t.size, theta.size - have)
        theta[have:have + take] = t[:take]
        have += take
    assert checks.check_ks(2 * np.cos(theta).reshape(3000, 3), burn=0) == []
    assert checks.check_ks(rng.uniform(-2, 2, size=(3000, 3)), burn=0)


def test_fricke_check_catches_a_perturbed_trace():
    run = dynamics.random_walk(workloads.SteerWalk(0, False).walks["real"][0],
                               dynamics.WalkConfig(steps=2000, seed=0, record_stride=10,
                                                   overflow_guard=64.0, det_guard=1e-12))
    tm = run.trace_matrix()
    assert checks.check_fricke(tm) == []
    tm[50, 2] += 1e-3
    assert checks.check_fricke(tm)


# -- the span recorder ------------------------------------------------------------


def test_tracer_restores_functions_and_nests_spans():
    original = whitehead.decide_primitive
    tracer = spans.Tracer()
    with tracer.active():
        assert whitehead.decide_primitive is not original
        whitehead.basic_lemma_sweep(3, 3)
    assert whitehead.decide_primitive is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "whitehead.sweep" and "engine.enumerate" in names
    assert all(s[3] == 0 for s in tracer.spans if s[0] == "engine.enumerate")
    m = tracer.metrics()
    assert m["whitehead.sweep_s"] >= m["engine.enumerate_s"] > 0
    assert m["engine.candidates"] > 0 and tracer.rounds == 1
