import hashlib
import json
import math
import os

import numpy as np
import pytest
import scipy.spatial
from hypothesis import given, settings
from hypothesis import strategies as st

from autrep import _engine, dynamics
from autrep.density import SearchBudget, TimeCapError, strongly_redundant
from autrep.dynamics import (
    SteerStageError,
    WalkConfig,
    _approximate_su2_meet,
    _compile_program,
    _move_programs,
    _walk_step,
    approximate_element,
    commutator_trace,
    ks_against_haar_traces,
    random_walk,
    rejection_sample_su2_traces,
    replay_steer,
    steer,
    su2_trace_cdf,
    su2_trace_pdf,
    walk_to_csv,
)
from autrep.freegroup import Word
from autrep.sl2 import (
    GroupElement,
    Representation,
    _expm_traceless,
    act,
    evaluate,
    generator_table,
    mul,
    opnorm,
    random_element,
    random_su2,
    sphere_products,
)

BUDGET = SearchBudget(max_word_length=40, max_candidates=200_000, time_cap_s=60.0)


def sanov_rep():
    return Representation([GroupElement([[1, 1], [0, 1]]),
                           GroupElement([[1, 0], [1, 1]])])


class TestWalk:
    def test_zero_steps_initial_sample_only(self):
        run = random_walk(sanov_rep(), WalkConfig(steps=0, seed=1))
        assert len(run.samples) == 1
        assert run.samples[0].step == 0

    def test_determinism(self):
        cfg = WalkConfig(steps=400, seed=9, record_stride=7, overflow_guard=1e6)
        r1 = random_walk(sanov_rep(), cfg)
        r2 = random_walk(sanov_rep(), cfg)
        assert np.array_equal(r1.trace_matrix(), r2.trace_matrix())
        assert r1.restarts == r2.restarts

    def test_sample_count_exact(self):
        run = random_walk(sanov_rep(), WalkConfig(steps=100, seed=2, record_stride=10))
        assert len(run.samples) == 11
        assert [s.step for s in run.samples] == list(range(0, 101, 10))

    def test_restarts_logged_for_noncompact(self):
        run = random_walk(sanov_rep(), WalkConfig(steps=2000, seed=3,
                                                  overflow_guard=1e4))
        assert len(run.restarts) > 0

    def test_su2_walk_stays_unitary(self):
        rng = np.random.default_rng(4)
        rep = Representation([random_su2(rng) for _ in range(3)])
        run = random_walk(rep, WalkConfig(steps=3000, seed=4, record_stride=50))
        tm = run.trace_matrix()
        assert np.abs(tm.imag).max() < 1e-9
        assert np.abs(tm.real).max() <= 2.0 + 1e-9
        assert run.restarts == []

    def test_whitehead_move_set(self):
        rng = np.random.default_rng(5)
        rep = Representation([random_su2(rng) for _ in range(3)])
        run = random_walk(rep, WalkConfig(steps=200, seed=5, move_set="whitehead"))
        assert len(run.samples) == 201

    def test_csv_round_trip(self, tmp_path):
        run = random_walk(sanov_rep(), WalkConfig(steps=50, seed=6, record_stride=5,
                                                  overflow_guard=1e6))
        path = tmp_path / "walk.csv"
        walk_to_csv(run, str(path), "manifest: {}")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# manifest")
        assert lines[1] == "step,tr1,tr2,tr12"
        assert len(lines) == 2 + len(run.samples)
        step0 = lines[2].split(",")
        assert step0[0] == "0"
        assert float(step0[1]) == run.samples[0].gen_traces[0]

    @staticmethod
    def _per_sample_csv(run, path, manifest_line):
        """The sample-at-a-time f-string writer that walk_to_csv replaced."""
        n, is_real = run.rank, run.field == "real"
        cols = ["step"]
        for i in range(1, n + 1):
            cols += [f"tr{i}"] if is_real else [f"tr{i}_re", f"tr{i}_im"]
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                cols += [f"tr{i}{j}"] if is_real else [f"tr{i}{j}_re", f"tr{i}{j}_im"]
        with open(path, "w") as f:
            f.write(f"# {manifest_line}\n")
            f.write(",".join(cols) + "\n")
            for s in run.samples:
                vals = [str(s.step)]
                for t in list(s.gen_traces) + list(s.pair_traces):
                    vals += [f"{t:.17g}"] if is_real else [f"{t.real:.17g}", f"{t.imag:.17g}"]
                f.write(",".join(vals) + "\n")

    @pytest.mark.parametrize("field", ["real", "complex", "su2"])
    def test_csv_bytes_equal_per_sample_writer(self, tmp_path, field):
        rep, kw = _pin_walk_inputs(field)
        run = random_walk(rep, WalkConfig(seed=61, **kw))
        want, got = tmp_path / "want.csv", tmp_path / "got.csv"
        self._per_sample_csv(run, want, "manifest: {}")
        walk_to_csv(run, str(got), "manifest: {}")
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("guard", ["overflow_guard", "det_guard"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_guards_must_be_finite_and_positive(self, guard, value):
        with pytest.raises(ValueError, match=guard):
            WalkConfig(steps=10, **{guard: value})

    def test_unknown_move_set_rejected(self):
        with pytest.raises(ValueError, match="move_set must be"):
            WalkConfig(steps=10, move_set="x")


def _oracle_step(mats, prog, is_su2):
    """The numpy step the scalar kernel replaced: 2x2 arrays multiplied with
    @, su2 products re-projected by normalizing the first row."""
    new = list(mats)
    for (i, letters) in prog:
        acc = None
        for v in letters:
            m = mats[abs(v) - 1]
            if v < 0:
                a, b, c, d = m.ravel()
                m = np.array([[d, -b], [-c, a]])
            acc = m if acc is None else acc @ m
        if is_su2:
            a, b = acc[0, 0], acc[0, 1]
            s = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
            a, b = a / s, b / s
            acc = np.array([[a, b], [-b.conjugate(), a.conjugate()]])
        new[i] = acc
    return new


def _escaped(mats, guard, det_guard):
    """The walk guard on every given matrix: an entry above guard, or a
    determinant beyond det_guard at its entry scale (NaN counts)."""
    for a, b, c, d in mats:
        top = max(abs(a), abs(b), abs(c), abs(d))
        if top > guard or not abs(a * d - b * c - 1.0) <= det_guard * max(1.0, top * top):
            return True
    return False


def _full_check_walk(rep, cfg):
    """random_walk with one draw per step and the guard run on every
    coordinate after every step: (restarts, samples)."""
    programs = [_compile_program(prog) for prog in _move_programs(rep.rank, cfg.move_set)]
    draws = np.random.default_rng(cfg.seed)
    init = [tuple(g.m.ravel().tolist()) for g in rep.images]
    mats, restarts = init, []
    samples = [dynamics._trace_sample(0, mats, rep.field)]
    for step in range(1, cfg.steps + 1):
        prog = programs[draws.integers(len(programs))]
        mats = _walk_step(mats, prog, False, math.inf, math.inf)
        if mats is None or _escaped(mats, cfg.overflow_guard, cfg.det_guard):
            restarts.append(step)
            mats = init
        if step % cfg.record_stride == 0:
            samples.append(dynamics._trace_sample(step, mats, rep.field))
    return restarts, samples


class TestScalarWalkKernel:
    @settings(max_examples=150, deadline=None)
    @given(field=st.sampled_from(["real", "complex", "su2"]), rank=st.integers(2, 3),
           move_set=st.sampled_from(["nielsen", "whitehead"]),
           seed=st.integers(0, 2**32 - 1), scale=st.floats(0.05, 3.0),
           guard=st.sampled_from([math.inf, 2.0, 8.0]),
           det_guard=st.sampled_from([math.inf, 1e-12, 1e-15]), data=st.data())
    def test_step_matches_numpy_oracle(self, field, rank, move_set, seed, scale, guard,
                                       det_guard, data):
        rng = np.random.default_rng(seed)
        reps = [random_su2(rng) if field == "su2" else random_element(rng, field, scale)
                for _ in range(rank)]
        programs = _move_programs(rank, move_set)
        prog = programs[data.draw(st.integers(0, len(programs) - 1))]
        mats = [tuple(g.m.ravel().tolist()) for g in reps]
        got = _walk_step(mats, _compile_program(prog), field == "su2", math.inf, math.inf)
        want = _oracle_step([g.m for g in reps], prog, field == "su2")
        for (i, letters) in prog:
            # rounding of a product is relative to its entrywise |A1|...|Ak|
            # scale, which cancellation can leave far above single entries
            scale_i = np.linalg.multi_dot(
                [np.abs(reps[v - 1].m if v > 0 else reps[-v - 1].inverse().m)
                 for v in letters] + [np.eye(2)])
            assert np.allclose(np.array(got[i]), want[i].ravel(), rtol=0.0,
                               atol=1e-12 * scale_i.max())
        assert all(got[j] == tuple(g.m.ravel().tolist()) for j, g in enumerate(reps)
                   if j not in {i for i, _ in prog})
        # the guard is the full check on the written coordinates; su2 has none
        guarded = _walk_step(mats, _compile_program(prog), field == "su2", guard, det_guard)
        escaped = field != "su2" and _escaped([got[i] for i, _ in prog], guard, det_guard)
        assert guarded == (None if escaped else got)

    @pytest.mark.parametrize("rank", [2, 3, 4])
    @pytest.mark.parametrize("move_set", ["nielsen", "whitehead"])
    def test_chunked_draws_equal_per_step_draws(self, rank, move_set):
        n = len(_move_programs(rank, move_set))
        total = dynamics.WALK_DRAW_CHUNK + 37
        per_step = np.random.default_rng(rank)
        want = [int(per_step.integers(n)) for _ in range(total)]
        chunked = np.random.default_rng(rank)
        got = []
        while len(got) < total:
            got += chunked.integers(n, size=min(dynamics.WALK_DRAW_CHUNK,
                                                total - len(got))).tolist()
        assert got == want

    def test_walk_across_a_chunk_boundary_matches_per_step_walk(self):
        rng = np.random.default_rng(20)
        rep = Representation([random_element(rng, "real", 0.5) for _ in range(2)])
        steps = dynamics.WALK_DRAW_CHUNK + 50
        cfg = WalkConfig(steps=steps, seed=20, record_stride=7, overflow_guard=64.0)
        run = random_walk(rep, cfg)
        restarts, samples = _full_check_walk(rep, cfg)
        assert run.restarts == restarts and len(restarts) > 0
        assert run.samples == samples

    @pytest.mark.parametrize("move_set", ["nielsen", "whitehead"])
    @pytest.mark.parametrize("bad", ["overflow", "det", None])
    def test_guard_on_written_coordinates_matches_full_check(self, move_set, bad):
        """random_walk guards only the coordinates a move wrote; the walk
        that checks every coordinate after every step must agree, also when
        the initial tuple itself fails the guard."""
        rng = np.random.default_rng(21)
        images = [random_element(rng, "real", 0.8) for _ in range(3)]
        if bad == "overflow":
            images[0] = GroupElement(np.diag([70.0, 1 / 70.0]))
        elif bad == "det":
            # within GroupElement's tolerance, beyond the walk's det_guard
            images[0] = GroupElement([[1.0 + 5e-10, 0.5], [0.0, 1.0]])
        rep = Representation(images)
        cfg = WalkConfig(steps=3000, seed=21, move_set=move_set, record_stride=3,
                         overflow_guard=64.0)
        run = random_walk(rep, cfg)
        restarts, samples = _full_check_walk(rep, cfg)
        assert run.restarts == restarts
        assert run.samples == samples
        assert 0 < len(restarts) < cfg.steps


def _su2_first_row(t, p, q):
    """(a, b) = (cos t e^{ip}, sin t e^{iq}), from Python math alone."""
    return (complex(math.cos(t) * math.cos(p), math.cos(t) * math.sin(p)),
            complex(math.sin(t) * math.cos(q), math.sin(t) * math.sin(q)))


def _pin_walk_inputs(field):
    """Walk inputs built from literals and Python math, so that the digests
    do not depend on the SIMD level numpy's linear algebra dispatches to."""
    if field == "su2":
        mats = []
        for t, p, q in ((0.4, 1.1, -0.3), (1.2, -0.7, 2.5)):
            a, b = _su2_first_row(t, p, q)
            mats.append([[a, b], [-b.conjugate(), a.conjugate()]])
        # a second row off (-conj(b), conj(a)) by a relative 2^-40: the step
        # reads the stored d of an inverted first letter and the stored
        # (c, d) of every later letter
        a, b = _su2_first_row(0.7, 0.5, -1.3)
        mats.append([[a, b], [-b.conjugate() * (1 + 2.0 ** -40),
                              a.conjugate() * (1 - 2.0 ** -40)]])
        return Representation([GroupElement(m, "su2") for m in mats]), {
            "steps": 3000, "record_stride": 7}
    c, s = math.cos(0.5), math.sin(0.5)
    if field == "real":
        mats = ([[c, -s], [s, c]], [[2.0, 1.0], [1.0, 1.0]], [[1.0, 0.5], [0.0, 1.0]])
        stride = 3
    else:
        mats = ([[1.0, 0.5 + 0.25j], [0.0, 1.0]],
                [[complex(c, s), 0.0], [0.0, complex(c, -s)]], [[1.0, 0.0], [-0.75j, 1.0]])
        stride = 5
    return Representation([GroupElement(m, field) for m in mats]), {
        "steps": 3000, "record_stride": stride, "overflow_guard": 64.0}


# sha256 of trace_matrix() bytes and restarts, recorded before the compiled
# move programs and the first-row SU(2) step replaced the letter-by-letter
# kernel; the real and complex walks restart 150, 151, 101 and 97 times
WALK_PINS = {
    ("su2", "nielsen"): "027625711273441addd24e37a17923d62fc4c1ed8eaf6e780b00b42819ddffb4",
    ("su2", "whitehead"): "3e99d3813baee79b4c27c4208312672dcec1d3cc943f442fba02b6709b526286",
    ("real", "nielsen"): "bd4ed0b8a52c40466894aa13830647037b52e44dbe9ed8a3c59c599441d81955",
    ("real", "whitehead"): "3afc2b6229d8b302e37e5b20d9667b201820638b2c34f5231b801635cf44d5f2",
    ("complex", "nielsen"): "44960fe88989f9661d9fb82e0c3bc02e4f101a82894f8511c8d3eb7c21ecc43a",
    ("complex", "whitehead"): "5d23007bded5c410f38c650dd29d369b142472d74db1b456001e7b929a54bf7e",
}


class TestWalkPins:
    @pytest.mark.parametrize("field,move_set", list(WALK_PINS))
    def test_walk_is_pinned(self, field, move_set):
        rep, kw = _pin_walk_inputs(field)
        run = random_walk(rep, WalkConfig(seed=61, move_set=move_set, **kw))
        assert (len(run.restarts) > 0) == (field != "su2")
        h = hashlib.sha256(run.trace_matrix().tobytes())
        h.update(repr(run.restarts).encode())
        assert h.hexdigest() == WALK_PINS[field, move_set]


class TestCommutatorTrace:
    def test_commuting_pair_gives_two(self):
        rep = Representation([GroupElement([[2, 0], [0, 0.5]]),
                              GroupElement([[3, 0], [0, 1 / 3]])])
        assert abs(commutator_trace(rep) - 2.0) < 1e-12

    def test_sanov_pair_gives_three(self):
        assert commutator_trace(sanov_rep()) == 3.0

    def test_invariant_under_moves(self):
        from autrep.freegroup import nielsen_generators
        rng = np.random.default_rng(7)
        rep = Representation([random_element(rng, "complex", 0.5) for _ in range(2)])
        c0 = commutator_trace(rep)
        for mv in nielsen_generators(2):
            assert abs(commutator_trace(act(mv, rep)) - c0) < 1e-9

    def test_rank_guard(self):
        rng = np.random.default_rng(8)
        rep = Representation([random_su2(rng) for _ in range(3)])
        with pytest.raises(ValueError):
            commutator_trace(rep)


class TestHaarBaseline:
    def test_cdf_endpoints(self):
        assert su2_trace_cdf(-2.0) == pytest.approx(0.0, abs=1e-12)
        assert su2_trace_cdf(2.0) == pytest.approx(1.0, abs=1e-12)

    def test_pdf_integrates_to_one(self):
        t = np.linspace(-2, 2, 20001)
        assert np.trapezoid(su2_trace_pdf(t), t) == pytest.approx(1.0, abs=1e-6)

    def test_rejection_sampler_matches_cdf(self):
        rng = np.random.default_rng(9)
        res = ks_against_haar_traces(rejection_sample_su2_traces(rng, 5000))
        assert res.pvalue > 0.01

    def test_haar_sampler_matches_cdf(self):
        rng = np.random.default_rng(10)
        traces = [random_su2(rng).trace.real for _ in range(5000)]
        res = ks_against_haar_traces(traces)
        assert res.pvalue > 0.01


class TestApproximateElement:
    def test_identity_target_empty_word(self):
        rng = np.random.default_rng(11)
        S = [random_su2(rng) for _ in range(2)]
        res = approximate_element(S, GroupElement.identity("su2"), 0.1, BUDGET)
        assert res.word.is_identity() and res.success and res.distance < 1e-12

    def test_generator_target_length_one(self):
        rng = np.random.default_rng(12)
        S = [random_su2(rng) for _ in range(2)]
        res = approximate_element(S, S[0], 0.1, BUDGET)
        assert res.success and len(res.word) <= 1

    def test_random_target_su2(self):
        rng = np.random.default_rng(13)
        S = [random_su2(rng) for _ in range(2)]
        for trial in range(5):
            target = random_su2(rng)
            res = approximate_element(S, target, 0.1, BUDGET)
            assert res.success, (trial, res.distance)
            assert len(res.word) <= BUDGET.max_word_length

    def test_claimed_distance_reverifies(self):
        rng = np.random.default_rng(14)
        S = [random_su2(rng) for _ in range(2)]
        target = random_su2(rng)
        res = approximate_element(S, target, 0.1, BUDGET)
        rep = Representation(S)
        got = evaluate(rep, res.word)
        assert abs(opnorm(got.m - target.m) - res.distance) < 1e-12

    def test_budget_failure_returns_best(self):
        rng = np.random.default_rng(15)
        S = [random_su2(rng) for _ in range(2)]
        tiny = SearchBudget(max_word_length=2, max_candidates=10, time_cap_s=5.0)
        res = approximate_element(S, random_su2(rng), 1e-6, tiny)
        assert not res.success
        assert res.distance > 0


    @staticmethod
    def _free_sanov(field):
        return [GroupElement([[1, 2], [0, 1]], field), GroupElement([[1, 0], [2, 1]], field)]

    def test_exact_noncompact_target(self):
        S = self._free_sanov("real")
        w = Word((1, 2, -1, 2), 2)
        res = approximate_element(S, evaluate(Representation(S), w), 1e-9, SearchBudget(8, 600, 60))
        assert res.success and res.distance == 0.0 and res.word == w
        # levels of 4, 12, 36 and 108 words; the match ends the level it is on
        assert res.examined == 160

    @pytest.mark.parametrize("field,letters", [("real", (2, 2, 2, 2, 2, 2, 1, 1)),
                                               ("complex", (1, 2, 1, 2, 1, 2, 1))])
    def test_beam_past_the_exhaustive_levels(self, field, letters):
        # 600 candidates: levels 1-5 (4, 12, 36, 108, 324 words) are kept
        # whole; level 6 (972) is pruned to the beam, whose 3 * BEAM_WIDTH
        # children make each later level
        S = self._free_sanov(field)
        rep = Representation(S)
        w = Word(letters, 2)
        nudge = GroupElement(_expm_traceless(np.array([[1e-3, 2e-3], [-1e-3, -1e-3]])), field)
        target = evaluate(rep, w) @ nudge
        res = approximate_element(S, target, 1e-9, SearchBudget(8, 600, 60))
        assert not res.success and res.word == w
        assert res.distance == pytest.approx(opnorm(evaluate(rep, res.word).m - target.m),
                                             rel=1e-12)
        assert res.examined == sum(4 * 3 ** j for j in range(6)) + 2 * 3 * dynamics.BEAM_WIDTH

    def test_time_cap_raises_noncompact(self):
        target = GroupElement([[3, 1], [2, 1]])
        capped = SearchBudget(max_word_length=12, max_candidates=200_000, time_cap_s=1e-9)
        with pytest.raises(TimeCapError, match="time cap"):
            approximate_element(list(sanov_rep().images), target, 1e-3, capped)

    def test_time_cap_raises_su2(self):
        rng = np.random.default_rng(7)
        S = [random_su2(rng) for _ in range(2)]
        capped = SearchBudget(40, 200_000, 1e-9)
        with pytest.raises(TimeCapError, match="time cap"):
            approximate_element(S, random_su2(rng), 1e-9, capped)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, 0.0, -0.1])
    def test_epsilon_must_be_finite_and_positive(self, epsilon):
        rng = np.random.default_rng(21)
        S = [random_su2(rng) for _ in range(2)]
        with pytest.raises(ValueError, match="epsilon"):
            approximate_element(S, random_su2(rng), epsilon, BUDGET)

    def test_empty_generating_set_rejected(self):
        with pytest.raises(ValueError, match="S must be nonempty"):
            approximate_element([], GroupElement.identity("su2"), 0.1, BUDGET)

    def test_target_field_must_match(self):
        # a complex target over real S would be cast to its real part
        rng = np.random.default_rng(22)
        real = list(sanov_rep().images)
        with pytest.raises(ValueError, match="target field"):
            approximate_element(real, random_element(rng, "complex", 0.5), 1e-3, BUDGET)
        with pytest.raises(ValueError, match="mixed field"):
            approximate_element([real[0], random_su2(rng)], real[1], 1e-3, BUDGET)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


# entries that make products of exact zeros, signed zeros included
_ENTRY = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                   st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False))


class TestSphereProductKernel:
    """The split-real kernels against the einsum they replace, and the scalar
    twin sl2.mul against the batch kernel, bit for bit."""

    @staticmethod
    def _table(data, kind, k):
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        if kind == "su2":
            return generator_table([random_su2(rng) for _ in range(k)])
        if data.draw(st.booleans()):
            return generator_table([random_element(rng, kind, 0.7) for _ in range(k)])
        # arbitrary entries, not group elements: the kernel only multiplies
        shape = (2 * k, 2, 2)
        table = np.array(data.draw(st.lists(_ENTRY, min_size=8 * k, max_size=8 * k)))
        table = table.reshape(shape)
        if kind == "complex":
            imag = data.draw(st.lists(_ENTRY, min_size=8 * k, max_size=8 * k))
            table = table + 1j * np.array(imag).reshape(shape)
        return table

    @given(st.data(), st.sampled_from(["real", "complex", "su2"]), st.integers(1, 3),
           st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_sphere_products_equal_einsum(self, data, kind, k, depth):
        table = self._table(data, kind, k)
        mats = np.eye(2, dtype=table.dtype)[None]
        nib = None
        for _ in range(depth):
            nib, parent = _engine.sphere_children(nib, 2 * k)
            if nib.shape[0] > 1000:
                # a parent-major subset, as the beam and the subsampled
                # levels keep
                keep = np.sort(np.random.default_rng(depth).choice(nib.shape[0], 1000, False))
                nib, parent = nib[keep], parent[keep]
            want = np.einsum("bij,bjk->bik", mats[parent], table[nib])
            got = sphere_products(mats, table, nib, parent)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(_bits(got), _bits(want))
            mats = want

    @given(st.data(), st.sampled_from(["complex", "su2"]), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_first_row_of_uh_t_equals_einsum(self, data, kind, k):
        mats = self._table(data, kind, k).astype(np.complex128)
        tm = self._table(data, kind, 1)[0].astype(np.complex128)
        want = np.einsum("nji,jk->nik", mats.conj(), tm)[:, 0]
        got = dynamics._uh_t_quats(mats, tm)
        assert np.array_equal(_bits(got), _bits(want.view(np.float64)))

    @pytest.mark.parametrize("seed", range(4))
    def test_signed_zeros_equal_einsum(self, seed):
        # entries of ±0 and ±1 in both parts: many sums of two -0.0 products,
        # which einsum's zero-started sum turns into +0.0
        rng = np.random.default_rng(seed)
        parts = rng.choice([0.0, -0.0, 1.0, -1.0], size=(2, 4096 + 6, 2, 2))
        cplx = np.empty(parts.shape[1:], dtype=np.complex128)
        cplx.real, cplx.imag = parts
        mats, table = cplx[:4096], cplx[4096:]
        last = rng.integers(0, 6, size=4096).astype(np.int16)
        nib, parent = _engine.sphere_children(last, 6)
        want = np.einsum("bij,bjk->bik", mats[parent], table[nib])
        assert np.array_equal(_bits(sphere_products(mats, table, nib, parent)), _bits(want))
        want = np.einsum("bij,bjk->bik", parts[0][:4096][parent], parts[0][4096:][nib])
        assert np.array_equal(_bits(sphere_products(
            parts[0][:4096], parts[0][4096:], nib, parent)), _bits(want))
        want = np.einsum("nji,jk->nik", mats.conj(), table[0])[:, 0]
        assert np.array_equal(_bits(dynamics._uh_t_quats(mats, table[0])),
                              _bits(want.view(np.float64)))

    @given(st.data(), st.sampled_from(["real", "complex", "su2"]), st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_scalar_twin_equals_batch(self, data, kind, k):
        # every parent times every table entry; the arbitrary entries of
        # _table make signed zeros
        table, mats = self._table(data, kind, k), self._table(data, kind, 2)
        nib, parent = np.divmod(np.arange(table.shape[0] * mats.shape[0]), mats.shape[0])
        got = sphere_products(mats, table, nib, parent)
        for i, (j, p) in enumerate(zip(nib, parent)):
            want = np.array(mul(mats[p].ravel().tolist(), table[j].ravel().tolist()))
            assert want.dtype == got.dtype
            assert np.array_equal(_bits(got[i].ravel()), _bits(want))


def _old_beam(child, dists):
    """The beam prune as two selections: a window of 4 * BEAM_WIDTH
    deduplicated rows, then a second stable sort by distance."""
    order = np.argsort(dists, kind="stable")
    rounded = np.round(child[order].reshape(-1, 4), 3)
    view = np.ascontiguousarray(rounded).view([("", rounded.dtype)] * rounded.shape[1])
    _, first = np.unique(view, return_index=True)
    keep = order[np.sort(first)[: 4 * dynamics.BEAM_WIDTH]]
    return keep[np.argsort(dists[keep], kind="stable")][:dynamics.BEAM_WIDTH]


class TestBeam:
    @given(n=st.integers(1, 3000), distinct_rows=st.integers(1, 3000),
           distinct_dists=st.integers(1, 3000), complex_=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_one_selection_equals_the_two_step_rule(self, n, distinct_rows, distinct_dists,
                                                     complex_, seed):
        # few distinct distances make ties, few distinct rows make rows that
        # round alike
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(distinct_rows, 2, 2))
        if complex_:
            rows = rows + 1j * rng.normal(size=rows.shape)
        child = rows[rng.integers(0, distinct_rows, n)] + 1e-6 * rng.normal(size=(n, 2, 2))
        dists = rng.integers(0, distinct_dists, n) / 8.0
        keep = dynamics._beam(child, dists)
        assert np.array_equal(keep, _old_beam(child, dists))
        # the nearest candidate (the first at the minimum) heads the beam
        assert keep[0] == np.argmin(dists)


def _quat_su2(w, x, y, z):
    """The SU(2) matrix of the unit quaternion w + xi + yj + zk: first row
    (w + xi, y + zi)."""
    a, b = complex(w, x), complex(y, z)
    return GroupElement([[a, b], [-b.conjugate(), a.conjugate()]], "su2")


_R = math.sqrt(0.5)
_PHI = (1 + math.sqrt(5)) / 2
# generators of the binary tetrahedral, octahedral and icosahedral groups
_POLYHEDRAL = [(0.0, 1.0, 0.0, 0.0), (0.5, 0.5, 0.5, 0.5), (_R, _R, 0.0, 0.0),
               (_PHI / 2, 1 / (2 * _PHI), 0.5, 0.0)]


@st.composite
def _finite_order_su2(draw):
    """A rotation by 2 pi p / m about a drawn axis, an element of order
    dividing 2m, or a generator of a binary polyhedral group."""
    if draw(st.booleans()):
        return _quat_su2(*draw(st.sampled_from(_POLYHEDRAL)))
    m = draw(st.integers(2, 12))
    theta = math.pi * draw(st.integers(1, m - 1)) / m
    axis = [draw(st.floats(-1.0, 1.0)) for _ in range(3)]
    norm = math.sqrt(sum(v * v for v in axis))
    if norm < 1e-3:
        axis, norm = [0.0, 0.0, 1.0], 1.0
    x, y, z = (math.sin(theta) * v / norm for v in axis)
    return _quat_su2(math.cos(theta), x, y, z)


def _levels_with_np_unique(table, max_level, cap, resolution):
    """_sphere_levels with the first word per key picked by
    np.unique(keys, return_index=True), as it was before the unstable sort."""
    levels, mats_levels = [], []
    mats = np.eye(2, dtype=table.dtype)[None]
    seen = np.sort(dynamics._quat_keys(mats, resolution))
    total = 1
    for _ in range(max_level):
        child_nib, parent = _engine.sphere_children(levels[-1][0] if levels else None,
                                                    table.shape[0])
        child = sphere_products(mats, table, child_nib, parent)
        keys = dynamics._quat_keys(child, resolution)
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


class TestSphereDedup:
    @given(gens=st.lists(_finite_order_su2(), min_size=1, max_size=3),
           resolution=st.sampled_from([1e-5, 1e-3, 0.05, 0.3, 1.0]),
           max_level=st.integers(1, 12), cap=st.integers(3, 3000))
    @settings(max_examples=80, deadline=None)
    def test_same_levels_as_np_unique(self, gens, resolution, max_level, cap):
        table = generator_table(gens)
        levels, mats_levels = dynamics._sphere_levels(table, max_level, cap, resolution)
        want_levels, want_mats = _levels_with_np_unique(table, max_level, cap, resolution)
        assert len(levels) == len(want_levels) == len(mats_levels) == len(want_mats)
        for (nib, parent), (want_nib, want_parent) in zip(levels, want_levels):
            assert np.array_equal(nib, want_nib) and np.array_equal(parent, want_parent)
        for got, want in zip(mats_levels, want_mats):
            assert np.array_equal(_bits(got), _bits(want))


# sha256 of steer and approximate_element outputs, recorded after every 2x2
# product and norm in the numeric layer became sl2's written-out formulas:
# they hold under any OpenBLAS core and SIMD level, and any change to the
# arithmetic or to the nearest-neighbour answers that moves a word shows here
STEER_PIN = "58e342a03e13138bf5e5119da9f87c029b1e9a67394709d3c567e0cadf99f621"
APPROX_PINS = {
    "su2": "47bd7b24ee2d79e5dd2233662ecb0d778c0d12682f3d35c2c4148bcb26966a95",
    "real": "06a8ef4d30757e396cb8c1bcc7b5655c34fe03308977fb0692cb982d2b76ab88",
    "complex": "f4dc5d5aa7ec5b8a71595aac2fdbcc51678057020fdb382a0fa089cbde65608b",
}
PIN_BUDGET = SearchBudget(24, 20_000, 60.0)


class TestOutputPins:
    def test_steer(self):
        h = hashlib.sha256()
        for seed in (31, 32):
            rng = np.random.default_rng(seed)
            phi = Representation([random_su2(rng) for _ in range(3)])
            psi = Representation([random_su2(rng) for _ in range(3)])
            res = steer(phi, psi, 0.15, PIN_BUDGET, seed=seed)
            h.update(json.dumps(res.to_obj(), sort_keys=True).encode())
        assert h.hexdigest() == STEER_PIN

    @pytest.mark.parametrize("field", ["su2", "real", "complex"])
    def test_approximate_element(self, field):
        rng = np.random.default_rng({"su2": 41, "real": 42, "complex": 43}[field])
        if field == "su2":
            S = [random_su2(rng) for _ in range(2)]
            targets = [random_su2(rng) for _ in range(5)]
            epsilon = 0.05
        else:
            # targets a small step from random words: the beam has to find them
            S = [random_element(rng, field, 0.7) for _ in range(2)]
            targets = []
            for _ in range(5):
                letters = rng.choice([1, 2, -1, -2], size=int(rng.integers(3, 9)))
                w = Word(tuple(int(v) for v in letters), 2)
                a, b, c = 0.02 * rng.normal(size=3)
                # no scipy expm and no numpy @: both depend on the BLAS kernel
                nudge = GroupElement(_expm_traceless(np.array([[a, b], [c, -a]])), field)
                targets.append(evaluate(Representation(S), w) @ nudge)
            epsilon = 0.01
        h = hashlib.sha256()
        for target in targets:
            r = approximate_element(S, target, epsilon, SearchBudget(10, 2000, 60.0))
            h.update(repr((r.word.letters, r.distance, r.success, r.examined)).encode())
        assert h.hexdigest() == APPROX_PINS[field]


class TestWordLengthCap:
    def test_one_letter_su2_meet(self):
        u = _quat_su2(math.cos(0.3), math.sin(0.3), 0.0, 0.0)
        res = approximate_element([u], u @ u, 0.1, SearchBudget(1, 100, 10.0))
        assert res.word.letters == (1,) and not res.success

    def test_odd_cap_su2_meet_reaches_the_cap(self):
        # at max_word_length 3 the right factors have two letters: 5 left
        # factors (at most one letter) against 17 points, where a cap of 2
        # meets 5 against 5
        rng = np.random.default_rng(7)
        S = [random_su2(rng) for _ in range(2)]
        target = S[0] @ S[1] @ S[0]
        at2, at3 = (approximate_element(S, target, 1e-9, SearchBudget(cap, 1000, 60.0))
                    for cap in (2, 3))
        assert (at2.examined, at3.examined) == (25, 85)
        assert not at2.success
        assert at3.word.letters == (1, 2, 1) and at3.success

    @pytest.mark.parametrize("field", ["su2", "real", "complex"])
    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_word_within_max_word_length(self, field, cap):
        rng = np.random.default_rng(50 + cap)
        S = [random_su2(rng) if field == "su2" else random_element(rng, field, 0.7)
             for _ in range(2)]
        targets = [S[0] @ S[0], S[0] @ S[1].inverse() @ S[0], S[1] @ S[1] @ S[1] @ S[0],
                   random_su2(rng) if field == "su2" else random_element(rng, field, 0.7)]
        for target in targets:
            res = approximate_element(S, target, 1e-9, SearchBudget(cap, 1000, 60.0))
            assert len(res.word) <= cap


class _UnboundedTree(scipy.spatial.cKDTree):
    """The tree with every query unbounded: the reference for the bounded
    meet query."""

    def query(self, x, k=1, **kwargs):
        kwargs.pop("distance_upper_bound", None)
        return super().query(x, k, **kwargs)


class TestBoundedMeetQuery:
    def _both(self, monkeypatch, S, target, budget):
        bounded = _approximate_su2_meet(S, target, 0.1, budget)
        with monkeypatch.context() as m:
            m.setattr(scipy.spatial, "cKDTree", _UnboundedTree)
            unbounded = _approximate_su2_meet(S, target, 0.1, budget)
        return bounded, unbounded

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("budget", [SearchBudget(40, 50_000, 60.0),
                                        SearchBudget(2, 2000, 60.0),
                                        SearchBudget(8, 2000, 60.0)],
                             ids=["large", "below-stride", "mid"])
    def test_same_result_as_unbounded_query(self, monkeypatch, seed, budget):
        rng = np.random.default_rng(100 + seed)
        S = [random_su2(rng) for _ in range(2)]
        # below the stride the sample holds only the identity, which is the
        # random target's best left factor on seeds 1 and 2: a bound with no
        # headroom above the sample minimum would prune it there
        targets = [random_su2(rng), GroupElement.identity("su2"), S[0], S[1].inverse()]
        for target in targets:
            bounded, unbounded = self._both(monkeypatch, S, target, budget)
            assert bounded.word == unbounded.word
            assert bounded.distance == unbounded.distance
            assert bounded.success == unbounded.success
            assert bounded.examined == unbounded.examined


COVER_SEEDS = pytest.mark.parametrize("seed", range(2))
COVER_BUDGETS = pytest.mark.parametrize("budget", [SearchBudget(40, 50_000, 60.0),
                                                   SearchBudget(2, 2000, 60.0),
                                                   SearchBudget(7, 2000, 60.0)],
                                        ids=["large", "below-stride", "odd"])


def cover_case(seed):
    """Two SU(2) generators and five targets: two random, the identity, a
    generator and another's inverse."""
    rng = np.random.default_rng(200 + seed)
    S = [random_su2(rng) for _ in range(2)]
    return S, [random_su2(rng), random_su2(rng), GroupElement.identity("su2"),
               S[0], S[1].inverse()]


class WorkersSpy:
    """A KD-tree that records the workers= of each query it answers."""

    def __init__(self, tree):
        self.tree, self.workers = tree, []

    def __getattr__(self, name):
        return getattr(self.tree, name)

    def query(self, *args, **kwargs):
        self.workers.append(kwargs["workers"])
        return self.tree.query(*args, **kwargs)


class TestSU2Cover:
    @COVER_SEEDS
    @COVER_BUDGETS
    def test_one_cover_serves_every_target(self, seed, budget):
        S, targets = cover_case(seed)
        cover = dynamics._SU2Cover(S, 0.1, budget)
        for target in targets:
            got, fresh = cover.query(target, 0.1), _approximate_su2_meet(S, target, 0.1, budget)
            assert got.word == fresh.word
            assert got.distance == fresh.distance
            assert got.success == fresh.success
            assert got.examined == fresh.examined

    @COVER_SEEDS
    @COVER_BUDGETS
    def test_answer_does_not_depend_on_worker_count(self, seed, budget, monkeypatch):
        # both tree queries take one worker per CPU in the affinity mask, read
        # at each query: a count fixed at import would pass the real mask's
        # size after the patch
        S, targets = cover_case(seed)
        cover = dynamics._SU2Cover(S, 0.1, budget)
        cover.tree = spy = WorkersSpy(cover.tree)
        usable = len(os.sched_getaffinity(0))
        every = [cover.query(target, 0.1) for target in targets]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        one = [cover.query(target, 0.1) for target in targets]
        assert spy.workers == [usable] * 2 * len(targets) + [1] * 2 * len(targets)
        for a, b in zip(every, one):
            assert b.word == a.word
            assert b.distance == a.distance
            assert b.success == a.success
            assert b.examined == a.examined

    def test_usable_cpus_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert dynamics._usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert dynamics._usable_cpus() == 1

    def test_meet_peak_memory_per_cover_point(self):
        # the peak is the sphere build's, about 178 B per point; a meet that
        # holds the level matrices through the query reads about 240
        import tracemalloc

        rng = np.random.default_rng(5)
        S, target = [random_su2(rng) for _ in range(2)], random_su2(rng)
        budget = SearchBudget(160, 50_000, 120.0)
        points = dynamics._SU2Cover(S, 0.15, budget).tree.n
        tracemalloc.start()
        try:
            _approximate_su2_meet(S, target, 0.15, budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 230 * points, peak / points


class TestSteer:
    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, 0.0, -0.1])
    def test_epsilon_must_be_finite_and_positive(self, epsilon):
        rng = np.random.default_rng(22)
        phi = Representation([random_su2(rng) for _ in range(3)])
        with pytest.raises(ValueError, match="epsilon"):
            steer(phi, phi, epsilon, BUDGET)

    def test_identity_case(self):
        rng = np.random.default_rng(16)
        phi = Representation([random_su2(rng) for _ in range(3)])
        res = steer(phi, phi, 0.15, BUDGET, seed=16)
        assert res.success
        assert max(res.distances) < 1e-10
        assert res.automorphism.is_identity()

    def test_random_target_and_replay(self):
        rng = np.random.default_rng(17)
        phi = Representation([random_su2(rng) for _ in range(3)])
        psi = Representation([random_su2(rng) for _ in range(3)])
        res = steer(phi, psi, 0.15, BUDGET, seed=17)
        assert res.success
        assert max(res.distances) <= 0.15
        replayed = replay_steer(res, phi, psi)
        assert all(abs(a - b) < 1e-9 for a, b in zip(replayed, res.distances))

    def test_stage_error_on_elementary_subtuple(self):
        # coordinates 2..n all identity: the stage-n density prerequisite
        # <phi(x_i) : i != n> fails structurally
        eye = GroupElement.identity("su2")
        rng = np.random.default_rng(18)
        phi = Representation([eye, eye, random_su2(rng)])
        psi = Representation([random_su2(rng) for _ in range(3)])
        with pytest.raises(SteerStageError) as ei:
            steer(phi, psi, 0.15, BUDGET, seed=18)
        assert ei.value.stage == 3
        assert not ei.value.verdict.dense

    def test_stage_error_below_n_real(self):
        # phi is strongly redundant and stage 3 passes, but the tuple stage 2
        # certifies, <phi(x_1), psi'(x_3)> with psi'(x_3) the steered third
        # coordinate, looks discrete
        rng = np.random.default_rng([2, 77])
        phi = Representation([random_element(rng, "real", 0.8) for _ in range(3)])
        psi = Representation([random_element(rng, "real", 0.8) for _ in range(3)])
        budget = SearchBudget(8, 5000, 30.0)
        assert strongly_redundant(phi, budget, seed=2).strongly_redundant
        with pytest.raises(SteerStageError) as ei:
            steer(phi, psi, 0.15, budget, seed=2)
        assert ei.value.stage == 2
        assert ei.value.verdict.reason == "discrete-schottky-like"

    @pytest.mark.parametrize("field,rank", [("su2", 4), ("real", 3)])
    def test_mismatched_pair_rejected(self, field, rank):
        rng = np.random.default_rng(24)
        phi = Representation([random_su2(rng) for _ in range(3)])
        psi = Representation([random_element(rng, field) for _ in range(rank)])
        with pytest.raises(ValueError, match="must share rank and field"):
            steer(phi, psi, 0.15, BUDGET)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_rank_below_three_rejected(self, rank):
        rng = np.random.default_rng(23)
        phi = Representation([random_su2(rng) for _ in range(rank)])
        with pytest.raises(ValueError, match=r"steering needs rank >= 3"):
            steer(phi, phi, 0.15, BUDGET)

    def test_result_serialization(self):
        rng = np.random.default_rng(19)
        phi = Representation([random_su2(rng) for _ in range(3)])
        res = steer(phi, phi, 0.15, BUDGET, seed=19)
        obj = res.to_obj()
        assert obj["success"] is True
        assert len(obj["images"]) == 3
