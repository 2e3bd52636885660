"""Gradient oracles: exactness, noise contracts, certified constants."""

import tracemalloc

import numpy as np
import pytest

from coopsgd import objectives
from coopsgd.cli import SpecError, oracle_from_dict
from coopsgd.engine import AlgorithmConfig
from coopsgd.mixing import make_fully_connected
from coopsgd.objectives import LogisticProblem, OracleError, QuadraticProblem
from peak_memory import FIXED_BYTES, traced_peak
from reference_objectives import (
    d_major,
    make_diag_quadratic,
    make_rotated_quadratic,
    reference_logistic_objective_and_grads,
    reference_logistic_sampler,
    reference_quadratic_objective_and_grads,
)


def worker_rng_table(seeds: list[int], m: int) -> list[list[np.random.Generator]]:
    """One rng per (seed, worker), spawned as `run_many` spawns them."""
    return [[np.random.default_rng(c) for c in np.random.SeedSequence(s).spawn(m)]
            for s in seeds]


def draws(oracle, x: np.ndarray, rng: np.random.Generator, trials: int):
    """`trials` stochastic gradients at x from one sampler on one stream."""
    sample = oracle.batch_gradient_sampler([[rng]], trials)
    x_col = x[None, :, None]
    grads = oracle.batch_objective_and_grads(x_col)[1]
    for _ in range(trials):
        yield sample(x_col, grads)[0, :, 0]


def central_difference_gradient(oracle, x: np.ndarray) -> np.ndarray:
    """Independent finite-difference oracle for full gradients."""
    step = 1e-5 * (1.0 + np.linalg.norm(x))
    grad = np.empty_like(x)
    for i in range(len(x)):
        hi, lo = x.copy(), x.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (oracle.objective_value(hi) - oracle.objective_value(lo)) / (2 * step)
    return grad


class TestQuadratic:
    def test_identity_gradient(self):
        q = QuadraticProblem(np.eye(2), np.zeros(2))
        assert np.allclose(q.full_gradient([3.0, 4.0]), [3.0, 4.0], atol=0)

    def test_stationary_at_minimizer(self):
        q = QuadraticProblem(np.diag([2.0, 1.0]), np.array([2.0, 1.0]))
        assert np.allclose(q.full_gradient([1.0, 1.0]), [0.0, 0.0], atol=0)

    def test_objective_values(self):
        q = QuadraticProblem(np.eye(2), np.zeros(2))
        assert q.objective_value(np.zeros(2)) == 0.0 == q.f_inf
        assert q.objective_value([1.0, 1.0]) == pytest.approx(1.0, abs=0)

    def test_lipschitz_is_max_eigenvalue(self):
        assert QuadraticProblem(np.diag([4.0, 1.0]), np.zeros(2)).lipschitz == pytest.approx(4.0)
        assert QuadraticProblem(np.eye(7), np.zeros(7)).lipschitz == pytest.approx(1.0)

    def test_f_inf_is_global_minimum(self):
        rng = np.random.default_rng(0)
        basis, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        a = basis @ np.diag([0.2, 0.5, 1.0, 2.0, 3.0]) @ basis.T
        a = 0.5 * (a + a.T)
        q = QuadraticProblem(a, rng.standard_normal(5))
        for _ in range(100):
            x = rng.standard_normal(5) * 3
            assert q.objective_value(x) >= q.f_inf - 1e-12

    def test_f_inf_unbounded_when_b_leaves_the_range(self):
        assert QuadraticProblem(np.diag([1.0, 0.0]), np.array([0.0, 1.0])).f_inf == -np.inf
        # b inside the range of a singular A: F is bounded, with minimum -0.5 b^T A^+ b
        assert QuadraticProblem(np.diag([2.0, 0.0]), np.array([1.0, 0.0])).f_inf == -0.25

    def test_noiseless_stochastic_is_exact(self):
        q = make_diag_quadratic(4, sigma_sq=0.0)
        rng = np.random.default_rng(1)
        x = np.array([1.0, -2.0, 0.5, 3.0])
        assert np.array_equal(q.stochastic_gradient(x, rng), q.full_gradient(x))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        basis, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        a = basis @ np.diag([0.3, 0.6, 1.0, 1.5, 2.0, 2.5]) @ basis.T
        q = QuadraticProblem(0.5 * (a + a.T), rng.standard_normal(6))
        for _ in range(5):
            x = rng.standard_normal(6) * 2
            analytic = q.full_gradient(x)
            numeric = central_difference_gradient(q, x)
            denom = max(1.0, np.linalg.norm(analytic))
            assert np.linalg.norm(analytic - numeric) / denom < 1e-5

    def test_rejects_nonfinite_point(self):
        q = make_diag_quadratic(3)
        with pytest.raises(OracleError):
            q.full_gradient(np.array([1.0, np.inf, 0.0]))

    def test_rejects_asymmetric_or_indefinite(self):
        with pytest.raises(OracleError):
            QuadraticProblem(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))
        with pytest.raises(OracleError):
            QuadraticProblem(np.diag([1.0, -0.5]), np.zeros(2))

    @pytest.mark.parametrize("beta,sigma_sq", [(0.0, 0.0), (0.0, 0.5), (0.3, 0.0), (0.3, 0.5)])
    def test_batched_pair_matches_per_column_views(self, monkeypatch, beta, sigma_sq):
        # (3 seeds, d, 4 workers) stacks, so seed/worker axis or stream-order
        # mix-ups show; noise follows the per-call transcription bit for bit,
        # across many of the sampler's block boundaries (the budget holds 20
        # steps of one normal per stream, so 2 or 3 steps of d or d+1), and
        # each stream must end where per-step draws leave it
        d, m, steps = 6, 4, 300
        monkeypatch.setattr(objectives, "NOISE_BUFFER_BYTES", 8 * 3 * m * 20)
        q = make_diag_quadratic(d, sigma_sq=sigma_sq, beta=beta)
        rngs, ref_rngs = worker_rng_table([3, 4, 5], m), worker_rng_table([3, 4, 5], m)
        sample = q.batch_gradient_sampler(rngs, steps)
        points = np.random.default_rng(0)
        for _ in range(steps):
            X = points.standard_normal((3, d, m))
            vals, grads = q.batch_objective_and_grads(X)
            G = sample(X, grads)  # must leave grads as evaluated
            for s in range(3):
                for i in range(m):
                    g = q.full_gradient(X[s, :, i])
                    assert vals[s, i] == q.objective_value(X[s, :, i])
                    assert np.array_equal(grads[s, :, i], g)
                    rng = ref_rngs[s][i]
                    if beta > 0.0:
                        g = g * (1.0 + np.sqrt(beta) * rng.standard_normal())
                    if sigma_sq > 0.0:
                        g = g + rng.normal(0.0, np.sqrt(sigma_sq / d), d)
                    assert np.array_equal(G[s, :, i], g)
        for row, ref_row in zip(rngs, ref_rngs):
            for rng, ref_rng in zip(row, ref_row):
                assert rng.standard_normal(3).tobytes() == ref_rng.standard_normal(3).tobytes()

    @pytest.mark.parametrize("dense, shape", [
        (True, (4, 256, 18)),  # the wide-elastic stack: 4 seeds, 16 workers, anchor, mean
        (False, (20, 10, 8)),  # a preset's stack: 20 seeds at d = 10
        (True, (1, 256, 1)),   # one column, as the single-vector forms pass
        (False, (1, 10, 1)),
    ])
    def test_evaluation_matches_per_seed_products_bit_for_bit(self, dense, shape):
        # one GEMM over all seeds rounds like one product per seed, on a
        # C-ordered stack (copied to d-major order) and on the engine's d-major view
        d = shape[1]
        base = make_rotated_quadratic(d, 0.1, 1.0, seed=5) if dense else make_diag_quadratic(d)
        q = QuadraticProblem(base.A, np.random.default_rng(6).standard_normal(d))
        X = np.random.default_rng(7).standard_normal(shape)
        ref_vals, ref_grads = reference_quadratic_objective_and_grads(q, X)
        for stack in (X, d_major(X)):
            vals, grads = q.batch_objective_and_grads(stack)
            assert vals.tobytes() == ref_vals.tobytes()
            assert np.ascontiguousarray(grads).tobytes() == ref_grads.tobytes()


def bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


class TestZeroLinearTerm:
    """A b of +0.0 entries skips the b-terms with the bits of the formula that has them."""

    @staticmethod
    def with_b_terms(q, X):
        """The evaluation with its b-terms, on the package's own product."""
        ax = objectives._gemm_over_seeds(q.A, X.transpose(1, 0, 2))
        vals = 0.5 * np.einsum("sij,sij->sj", X, ax) - np.einsum("i,sij->sj", q.b, X)
        return vals, ax - q.b[:, None]

    @pytest.mark.parametrize("b, b_terms", [
        ([0.0, 0.0, 0.0], False),
        ([0.0, -0.0, 0.0], True),
        ([0.0, 0.0, 5e-324], True),
        ([np.nan, 0.0, 0.0], True),
    ])
    def test_only_a_b_of_positive_zeros_skips_the_terms(self, b, b_terms):
        assert QuadraticProblem(np.eye(3), b)._b_terms is b_terms

    @pytest.mark.parametrize("dense, shape", [(True, (4, 256, 18)), (False, (20, 10, 8))])
    def test_random_stacks(self, dense, shape):
        d = shape[1]
        base = make_rotated_quadratic(d, 0.1, 1.0, seed=5) if dense else make_diag_quadratic(d)
        X = np.random.default_rng(7).standard_normal(shape)
        for stack in (X, d_major(X)):
            for got, want in zip(base.batch_objective_and_grads(stack),
                                 self.with_b_terms(base, stack)):
                assert bits(got) == bits(want)

    def test_singular_matrix_at_zero_objective(self):
        # diag(1, 0) and states (+-0.0, t): every product and F are zeros,
        # whose sign the b-terms could flip
        q = QuadraticProblem(np.diag([1.0, 0.0]), np.zeros(2))
        rng = np.random.default_rng(3)
        X = np.stack([np.where(rng.random((6, 5)) < 0.5, -0.0, 0.0),
                      rng.standard_normal((6, 5))], axis=1)
        vals, grads = q.batch_objective_and_grads(X)
        assert not vals.any()
        want_vals, want_grads = self.with_b_terms(q, X)
        assert bits(vals) == bits(want_vals)
        assert bits(grads) == bits(want_grads)

    def test_non_finite_states_stay_non_finite(self):
        q = QuadraticProblem(np.diag([1.0, 0.5, 0.0]), np.zeros(3))
        X = np.random.default_rng(4).standard_normal((5, 3, 4))
        X[0, 0, 0] = np.inf
        X[1, 2, 1] = -np.inf  # in the null space of A
        X[2, 1, 2] = np.nan
        X[3, :, 3] = [np.inf, np.nan, -np.inf]
        with np.errstate(invalid="ignore"):
            evaluations = zip(q.batch_objective_and_grads(X), self.with_b_terms(q, X))
        for got, want in evaluations:
            finite = np.isfinite(want)
            assert not finite.all()
            assert np.array_equal(np.isfinite(got), finite)
            assert bits(got[finite]) == bits(want[finite])


class TestQuadraticNoise:
    def test_single_draw_variance(self):
        q = make_diag_quadratic(10, sigma_sq=1.0)
        rng = np.random.default_rng(123)
        x = np.full(10, 0.7)
        g_full = q.full_gradient(x)
        trials = 100_000
        acc = 0.0
        for g in draws(q, x, rng, trials):
            dev = g - g_full
            acc += dev @ dev
        assert acc / trials == pytest.approx(1.0, rel=0.05)

    def test_averaged_draw_variance_quarters_at_m4(self):
        q = make_diag_quadratic(10, sigma_sq=1.0)
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(9).spawn(4)]
        x = np.linspace(-1, 1, 10)
        g_full = q.full_gradient(x)
        x_cols = np.tile(x[None, :, None], (1, 1, 4))
        g_cols = q.batch_objective_and_grads(x_cols)[1]
        trials = 100_000
        sample = q.batch_gradient_sampler([rngs], trials)
        acc = 0.0
        for _ in range(trials):
            g_bar = sample(x_cols, g_cols)[0].mean(axis=1)
            dev = g_bar - g_full
            acc += dev @ dev
        assert acc / trials == pytest.approx(0.25, rel=0.05)

    def test_unbiasedness_three_standard_errors(self):
        q = make_diag_quadratic(6, sigma_sq=2.0)
        rng_points = np.random.default_rng(77)
        per_coord_sd = np.sqrt(2.0 / 6)
        trials = 100_000
        for _ in range(3):
            x = rng_points.standard_normal(6)
            total = np.zeros(6)
            for g in draws(q, x, np.random.default_rng(5), trials):
                total += g
            err = total / trials - q.full_gradient(x)
            assert np.all(np.abs(err) <= 3 * per_coord_sd / np.sqrt(trials))

    def test_multiplicative_mode_matches_contract_with_equality(self):
        q = make_diag_quadratic(6, sigma_sq=0.5, beta=0.3)
        rng = np.random.default_rng(21)
        x = np.full(6, 1.5)
        g_full = q.full_gradient(x)
        expected = 0.3 * float(g_full @ g_full) + 0.5
        trials = 200_000
        acc = 0.0
        for g in draws(q, x, rng, trials):
            dev = g - g_full
            acc += dev @ dev
        assert acc / trials == pytest.approx(expected, rel=0.05)


@pytest.fixture(scope="module")
def problem():
    return LogisticProblem.synthetic(100, 10, seed=7, l2_reg=0.01, batch_size=8)


class TestLogistic:
    def test_gradient_matches_finite_differences(self, problem):
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = rng.standard_normal(10)
            analytic = problem.full_gradient(x)
            numeric = central_difference_gradient(problem, x)
            denom = max(1.0, np.linalg.norm(analytic))
            assert np.linalg.norm(analytic - numeric) / denom < 1e-5

    def test_zero_weights_loss_is_log_two(self, problem):
        assert problem.objective_value(np.zeros(10)) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_lipschitz_bound_on_sampled_pairs(self, problem):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            x, y = rng.standard_normal((2, 10)) * 2
            lhs = np.linalg.norm(problem.full_gradient(x) - problem.full_gradient(y))
            assert lhs <= problem.lipschitz * np.linalg.norm(x - y) * (1 + 1e-12)

    def test_minimum_found(self, problem):
        # f_inf certified by running full-gradient descent to tolerance
        rng = np.random.default_rng(4)
        for _ in range(50):
            assert problem.objective_value(rng.standard_normal(10)) >= problem.f_inf - 1e-9

    def test_f_inf_without_regularization_is_zero(self):
        # the loss is nonnegative, so 0 bounds it below; the infimum 0 of
        # separable data is approached only as the weights grow without bound
        assert LogisticProblem.synthetic(1, 3, 5, l2_reg=0.0, batch_size=1).f_inf == 0.0

    def test_f_inf_is_the_strong_convexity_bound_at_the_descent_end(self, problem):
        # F(w) - ||grad F(w)||^2 / (2 l2) <= inf F for every w; with descent run
        # to gradient norm 1e-10 it rounds to F at the descent's end point
        w = np.zeros(10)
        for _ in range(500_000):
            g = problem.full_gradient(w)
            if np.linalg.norm(g) < 1e-10:
                break
            w = w - g / problem.lipschitz
        f_end = problem.objective_value(w)
        assert problem.f_inf == f_end - np.linalg.norm(g) ** 2 / (2 * problem.l2_reg)
        assert f_end - 1e-15 <= problem.f_inf <= f_end

    def test_minibatch_unbiased(self, problem):
        x = np.full(10, 0.3)
        g_full = problem.full_gradient(x)
        rng = np.random.default_rng(6)
        trials = 50_000
        total = np.zeros(10)
        acc_sq = 0.0
        for g in draws(problem, x, rng, trials):
            total += g
            dev = g - g_full
            acc_sq += dev @ dev
        mean_dev = total / trials - g_full
        mc_sd = np.sqrt(acc_sq / trials / trials)
        assert np.linalg.norm(mean_dev) <= 4 * mc_sd

    def test_variance_within_certified_constant(self, problem):
        rng = np.random.default_rng(8)
        for _ in range(3):
            x = rng.standard_normal(10)
            g_full = problem.full_gradient(x)
            trials = 20_000
            acc = 0.0
            for g in draws(problem, x, rng, trials):
                dev = g - g_full
                acc += dev @ dev
            measured = acc / trials
            budget = problem.beta * float(g_full @ g_full) + problem.sigma_sq
            assert measured <= budget + 3 * measured / np.sqrt(trials)

    def test_batched_pair_matches_per_column_views(self, problem):
        m, steps = 4, 100
        sample = problem.batch_gradient_sampler(worker_rng_table([3, 4, 5], m), steps)
        ref_rngs = worker_rng_table([3, 4, 5], m)
        points = np.random.default_rng(9)

        def close(batched, single):
            return np.max(np.abs(batched - single)) <= 1e-13 * np.max(np.abs(single))

        for _ in range(steps):
            X = points.standard_normal((3, 10, m))
            vals, grads = problem.batch_objective_and_grads(X)
            G = sample(X, grads)
            for s in range(3):
                for i in range(m):
                    x = X[s, :, i]
                    assert close(vals[s, i], problem.objective_value(x))
                    assert close(grads[s, :, i], problem.full_gradient(x))
                    assert close(G[s, :, i], problem.stochastic_gradient(x, ref_rngs[s][i]))

    def test_evaluation_matches_reference_bit_for_bit(self, problem):
        # alternating shapes make the workspace reallocate between calls, and
        # every earlier result must survive the later calls untouched; the
        # second stack of each shape is the engine's d-major view
        points = np.random.default_rng(10)
        earlier = []
        for shape, layout in [((1, 10, 1), np.asarray), ((3, 10, 5), np.asarray),
                              ((3, 10, 5), d_major), ((1, 10, 1), d_major)]:
            W = points.standard_normal(shape) * 3.0
            vals, grads = problem.batch_objective_and_grads(layout(W))
            ref_vals, ref_grads = reference_logistic_objective_and_grads(problem, W)
            assert vals.tobytes() == ref_vals.tobytes()
            assert np.ascontiguousarray(grads).tobytes() == ref_grads.tobytes()
            for (old_vals, old_grads), (kept_vals, kept_grads) in earlier:
                assert np.array_equal(old_vals, kept_vals)
                assert np.array_equal(old_grads, kept_grads)
            earlier.append(((vals, grads), (vals.copy(), grads.copy())))

    @pytest.mark.parametrize("l2", [0.0, 0.01])
    def test_evaluation_matches_reference_at_workload_shape(self, l2):
        # the logistic-gossip engine stack (4 seeds, d = 20, 8 workers and
        # their mean) on 1000 samples, where the sample mean adds the samples
        # in order, and a single column, whose sample axis the reference sums
        # pairwise; each as a C-ordered array and as the engine's d-major view
        p = LogisticProblem.synthetic(1000, 20, seed=13, l2_reg=l2, batch_size=8)
        points = np.random.default_rng(14)
        for shape in [(4, 20, 9), (1, 20, 1)]:
            W = points.standard_normal(shape)
            ref_vals, ref_grads = reference_logistic_objective_and_grads(p, W)
            for stack in (W, d_major(W)):
                vals, grads = p.batch_objective_and_grads(stack)
                assert vals.tobytes() == ref_vals.tobytes()
                assert np.ascontiguousarray(grads).tobytes() == ref_grads.tobytes()

    def test_sampler_matches_reference_at_workload_shape(self):
        # 4 seeds, 8 workers, batch 8 on (1000, 20) data: a block of
        # NOISE_BUFFER_BYTES holds 102 steps, so 250 steps read three blocks
        seeds, m, steps = [3, 4, 5, 6], 8, 250
        p = LogisticProblem.synthetic(1000, 20, seed=13, l2_reg=0.01, batch_size=8)
        assert objectives.noise_block_steps(len(seeds), 8 * 20, m, steps) < steps / 2
        rngs, ref_rngs = worker_rng_table(seeds, m), worker_rng_table(seeds, m)
        sample = p.batch_gradient_sampler(rngs, steps)
        ref_sample = reference_logistic_sampler(p, ref_rngs)
        points = np.random.default_rng(15)
        for _ in range(steps):
            W = points.standard_normal((len(seeds), 20, m))
            grads = p.batch_objective_and_grads(W)[1]
            assert sample(W, grads).tobytes() == ref_sample(W, grads).tobytes()
        for row, ref_row in zip(rngs, ref_rngs):
            for rng, ref_rng in zip(row, ref_row):
                assert np.array_equal(rng.integers(0, 1000, size=9),
                                      ref_rng.integers(0, 1000, size=9))

    @pytest.mark.parametrize("block", [1, 7, 25])
    def test_block_draws_match_per_step_draws(self, monkeypatch, block):
        # 20 steps in blocks of 1, 7 (a short last block) or all at once;
        # an odd batch, and each stream must end where per-step draws leave it
        m, steps = 3, 20
        p = LogisticProblem.synthetic(50, 4, seed=12, l2_reg=0.01, batch_size=5)
        monkeypatch.setattr(objectives, "NOISE_BUFFER_BYTES", 8 * 2 * m * 5 * 4 * block)
        rngs, ref_rngs = worker_rng_table([3, 4], m), worker_rng_table([3, 4], m)
        sample = p.batch_gradient_sampler(rngs, steps)
        ref_sample = reference_logistic_sampler(p, ref_rngs)
        points = np.random.default_rng(11)
        for _ in range(steps):
            W = points.standard_normal((2, 4, m))
            grads = p.batch_objective_and_grads(W)[1]
            assert sample(W, grads).tobytes() == ref_sample(W, grads).tobytes()
        for row, ref_row in zip(rngs, ref_rngs):
            for rng, ref_rng in zip(row, ref_row):
                assert np.array_equal(rng.integers(0, 50, size=9), ref_rng.integers(0, 50, size=9))

    def test_evaluation_allocates_no_sample_sized_array(self):
        # a (4, 20, 9) stack on 1000 samples: a warm call runs in the workspace
        # and allocates less than one (seeds, N) column of 32,000 bytes, so
        # neither a (seeds, N, cols) array nor a reduction's buffer
        p = LogisticProblem.synthetic(1000, 20, seed=13, l2_reg=0.01, batch_size=8)
        W = np.random.default_rng(12).standard_normal((4, 20, 9))
        p.batch_objective_and_grads(W)
        tracemalloc.start()
        try:
            p.batch_objective_and_grads(W)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 4 * 1000

    def test_labels_validated(self):
        with pytest.raises(OracleError):
            LogisticProblem(np.ones((4, 2)), np.array([1.0, 2.0, -1.0, 1.0]), 0.0, 1)


class TestByteEstimates:
    """Each oracle's `run_bytes` covers the peak of its part of a run: being
    built, and at every step evaluating the (seeds, d, n + 1) stack and
    sampling the workers' gradients from that evaluation."""

    @staticmethod
    def peak(build, seeds: int, d: int, n: int, m: int, steps: int) -> int:
        table = worker_rng_table(list(range(seeds)), m)  # generators are the engine's to count
        X = np.random.default_rng(0).standard_normal((seeds, d, n + 1))
        held = np.empty_like(X)  # the engine's block row, which the engine's estimate counts

        def run():
            oracle = build()
            sample = oracle.batch_gradient_sampler(table, steps)
            for _ in range(steps):
                held[...] = oracle.batch_objective_and_grads(X)[1]
                sample(X[:, :, :m], held[:, :, :m])

        return traced_peak(run)

    @pytest.mark.parametrize("sigma_sq, beta, steps", [(1.0, 0.5, 300), (1.0, 0.0, 3000),
                                                       (0.0, 0.3, 300), (0.0, 0.0, 300)])
    def test_quadratic(self, sigma_sq, beta, steps):
        # 3000 steps of d normals fill several blocks of NOISE_BUFFER_BYTES
        seeds, d, n, m = 4, 20, 9, 8
        A = np.diag(np.linspace(0.1, 1.0, d))
        peak = self.peak(lambda: QuadraticProblem(A, np.zeros(d), sigma_sq, beta),
                         seeds, d, n, m, steps)
        estimate = QuadraticProblem.run_bytes(d, sigma_sq, beta, seeds, n, m, steps)
        assert peak <= estimate + FIXED_BYTES

    @pytest.mark.parametrize("samples, d, batch, seeds, n, m, steps", [
        (1000, 20, 8, 4, 8, 8, 300),   # the logistic-gossip sizes, over three blocks
        (8, 1, 8, 20, 16, 16, 200),    # indices outweigh everything else at d = 1
        (50, 4, 5, 2, 4, 3, 20),       # one auxiliary column
    ])
    def test_logistic(self, samples, d, batch, seeds, n, m, steps):
        peak = self.peak(lambda: LogisticProblem.synthetic(samples, d, 3, l2_reg=0.01, batch_size=batch),
                         seeds, d, n, m, steps)
        estimate = LogisticProblem.run_bytes(samples, d, batch, seeds, n, m, steps)
        assert peak <= estimate + FIXED_BYTES

    def test_logistic_workspace_is_replaced_not_added(self):
        # a run evaluates the mean column alone before the tail and all n + 1
        # columns on it: the one-column workspace is released before the wider
        # one is allocated, so the switch peaks no higher than a wide
        # evaluation alone (holding both would add the 96 KB narrow workspace)
        seeds, n, samples = 4, 9, 1000
        X = np.random.default_rng(0).standard_normal((seeds, 20, n + 1))
        data = LogisticProblem.synthetic(samples, 20, 3, l2_reg=0.01, batch_size=8)

        def evaluate(stacks):
            def run():
                oracle = LogisticProblem(data.X, data.y, l2_reg=0.01, batch_size=8)
                for W in stacks:
                    oracle.batch_objective_and_grads(W)
            return run

        wide = traced_peak(evaluate([X]))
        switch = traced_peak(evaluate([X[:, :, n:], X]))
        assert switch <= wide


class TestSerialization:
    """`oracle_from_dict` returns the oracle, its echo, which reads back to
    the same oracle and the same echo, and the run's byte estimate."""

    CONFIG = AlgorithmConfig(tau=1, mixing=make_fully_connected(2), v=0, eta=0.1, steps=10)

    def read_twice(self, payload):
        first, echo, _ = oracle_from_dict(payload, 2, self.CONFIG)
        again, echo_again, _ = oracle_from_dict(echo, 2, self.CONFIG)
        assert echo_again == echo
        return first, echo, again

    def test_quadratic_round_trip(self):
        q, echo, again = self.read_twice({"type": "quadratic", "A": [[1, 0], [0, 2]],
                                          "b": [0.5, -0.5], "sigma_sq": 1})
        assert echo == {"type": "quadratic", "A": [[1.0, 0.0], [0.0, 2.0]], "b": [0.5, -0.5],
                        "sigma_sq": 1.0, "beta": 0.0}
        for p in (q, again):
            assert np.array_equal(p.A, np.diag([1.0, 2.0]))
            assert np.array_equal(p.b, [0.5, -0.5])
            assert (p.sigma_sq, p.beta) == (1.0, 0.0)

    def test_logistic_round_trip_reproduces_data(self):
        p, echo, again = self.read_twice({"type": "logistic", "n": 60, "d": 5, "seed": 11,
                                          "l2": 0.02, "batch": 4})
        assert echo == {"type": "logistic", "n": 60, "d": 5, "seed": 11, "l2": 0.02, "batch": 4}
        expected = LogisticProblem.synthetic(60, 5, seed=11, l2_reg=0.02, batch_size=4)
        for q in (p, again):
            assert np.array_equal(q.X, expected.X)
            assert np.array_equal(q.y, expected.y)
            assert (q.l2_reg, q.batch_size) == (0.02, 4)
        assert again.f_inf == pytest.approx(p.f_inf, abs=1e-14)

    def test_unknown_fields_rejected(self):
        with pytest.raises(SpecError, match="bogus"):
            oracle_from_dict({"type": "quadratic", "A": [[1.0]], "b": [0.0], "bogus": 1},
                             2, self.CONFIG)
        with pytest.raises(SpecError, match="mystery"):
            oracle_from_dict({"type": "mystery"}, 2, self.CONFIG)
