import hashlib
import json
import math

import numpy as np
import pytest
import scipy.spatial
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from autrep import _engine, dynamics
from autrep.density import SearchBudget, TimeCapError, opnorm
from autrep.dynamics import (
    SteerStageError,
    WalkConfig,
    _approximate_su2_meet,
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
    act,
    evaluate,
    generator_table,
    random_element,
    random_su2,
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

    @pytest.mark.parametrize("guard", ["overflow_guard", "det_guard"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_guards_must_be_finite_and_positive(self, guard, value):
        with pytest.raises(ValueError, match=guard):
            WalkConfig(steps=10, **{guard: value})


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


class TestScalarWalkKernel:
    @settings(max_examples=150, deadline=None)
    @given(field=st.sampled_from(["real", "complex", "su2"]), rank=st.integers(2, 3),
           move_set=st.sampled_from(["nielsen", "whitehead"]),
           seed=st.integers(0, 2**32 - 1), scale=st.floats(0.05, 3.0), data=st.data())
    def test_step_matches_numpy_oracle(self, field, rank, move_set, seed, scale, data):
        rng = np.random.default_rng(seed)
        reps = [random_su2(rng) if field == "su2" else random_element(rng, field, scale)
                for _ in range(rank)]
        programs = _move_programs(rank, move_set)
        prog = programs[data.draw(st.integers(0, len(programs) - 1))]
        got = _walk_step([tuple(g.m.ravel().tolist()) for g in reps], prog, field == "su2")
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
        programs = _move_programs(2, "nielsen")
        draws = np.random.default_rng(20)
        init = [tuple(g.m.ravel().tolist()) for g in rep.images]
        mats, restarts, finals = init, [], []
        for step in range(1, steps + 1):
            mats = _walk_step(mats, programs[draws.integers(len(programs))], False)
            if dynamics._escaped(mats, cfg.overflow_guard, cfg.det_guard):
                restarts.append(step)
                mats = init
            if step % 7 == 0:
                finals.append(mats[0][0] + mats[0][3])
        assert run.restarts == restarts and len(restarts) > 0
        assert [s.gen_traces[0] for s in run.samples[1:]] == finals

    @pytest.mark.parametrize("move_set", ["nielsen", "whitehead"])
    @pytest.mark.parametrize("bad", ["overflow", "det", None])
    def test_guard_on_written_coordinates_matches_full_check(self, move_set, bad):
        """random_walk checks only the coordinates a move wrote; the walk
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
        programs = _move_programs(3, move_set)
        draws = np.random.default_rng(21).integers(len(programs), size=cfg.steps).tolist()
        init = [tuple(g.m.ravel().tolist()) for g in rep.images]
        mats, restarts = init, []
        samples = [dynamics._trace_sample(0, mats, "real")]
        for step, p in enumerate(draws, 1):
            mats = _walk_step(mats, programs[p], False)
            if dynamics._escaped(mats, cfg.overflow_guard, cfg.det_guard):
                restarts.append(step)
                mats = init
            if step % 3 == 0:
                samples.append(dynamics._trace_sample(step, mats, "real"))
        assert run.restarts == restarts
        assert run.samples == samples
        assert 0 < len(restarts) < cfg.steps


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
        from autrep.sl2 import evaluate
        from autrep.density import opnorm
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
        nudge = expm(np.array([[1e-3, 2e-3], [-1e-3, -1e-3]]))
        target = GroupElement(evaluate(rep, w).m @ nudge, field)
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
    """The split-real kernels against the einsum they replace, bit for bit."""

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
            got = dynamics._sphere_products(mats, table, nib, parent)
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
        assert np.array_equal(_bits(dynamics._sphere_products(mats, table, nib, parent)),
                              _bits(want))
        want = np.einsum("bij,bjk->bik", parts[0][:4096][parent], parts[0][4096:][nib])
        assert np.array_equal(_bits(dynamics._sphere_products(
            parts[0][:4096], parts[0][4096:], nib, parent)), _bits(want))
        want = np.einsum("nji,jk->nik", mats.conj(), table[0])[:, 0]
        assert np.array_equal(_bits(dynamics._uh_t_quats(mats, table[0])),
                              _bits(want.view(np.float64)))


# sha256 of steer and approximate_element outputs, recorded before the
# split-real kernels, the first-row meet and the unbalanced tree replaced
# the einsum products and the balanced tree: any change to the arithmetic
# or to the nearest-neighbour answers that moves a word shows here
STEER_PIN = "1b8ffe21ddd4b2549ca7ab9390d444bcb461b7faf7238b74dcb97f18186940d1"
APPROX_PINS = {
    "su2": "5cf168b699a962eecc9e26fad1d55acb7f6c21cd91d920b29408f3c3469c75ba",
    "real": "9bf55e00649488a87f80a0117803d07f43316f26f484ac2f2a170114e551314d",
    "complex": "f988b20aec0c4444a03b532ff9183721719216025b398672dcda124f199ba22f",
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
                nudge = expm(np.array([[a, b], [c, -a]]))
                targets.append(GroupElement(evaluate(Representation(S), w).m @ nudge, field))
            epsilon = 0.01
        h = hashlib.sha256()
        for target in targets:
            r = approximate_element(S, target, epsilon, SearchBudget(10, 2000, 60.0))
            h.update(repr((r.word.letters, r.distance, r.success, r.examined)).encode())
        assert h.hexdigest() == APPROX_PINS[field]


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
        assert ei.value.stage in (1, 2, 3)
        assert not ei.value.verdict.dense

    def test_result_serialization(self):
        rng = np.random.default_rng(19)
        phi = Representation([random_su2(rng) for _ in range(3)])
        res = steer(phi, phi, 0.15, BUDGET, seed=19)
        obj = res.to_obj()
        assert obj["success"] is True
        assert len(obj["images"]) == 3
