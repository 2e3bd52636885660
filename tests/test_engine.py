"""Engine semantics: configuration checks, run traces, blocked recording,
and the trace CSV that `cli` writes from them.

The special-case equivalence of `run_many` with the classical update rules
is acceptance criterion 01 (tests/test_acceptance.py)."""

import csv

import numpy as np
import pytest
from peak_memory import FIXED_BYTES, traced_peak
from reference_objectives import make_diag_quadratic, make_rotated_quadratic
from reference_updates import BlindOracle, PoisonedOracle, RecordingOracle, reference_run_many

from coopsgd import engine as eng
from coopsgd import mixing as mx
from coopsgd.cli import TRACE_CSV_COLUMNS, ClockText, write_trace_csv
from coopsgd.objectives import LogisticProblem, QuadraticProblem


class TestEffectiveLearningRate:
    def test_values(self):
        assert eng.effective_lr(0.1, 8, 1) == pytest.approx(0.8 / 9, abs=1e-15)
        assert eng.effective_lr(0.3, 5, 0) == 0.3
        assert eng.effective_lr(0.1, 2, 2) == pytest.approx(0.05, abs=1e-15)


class TestConfigValidation:
    def test_horizon_must_divide(self):
        with pytest.raises(eng.ConfigError, match="nearest valid"):
            eng.AlgorithmConfig(tau=7, mixing=mx.make_fully_connected(4), v=0,
                                eta=0.1, steps=100)

    def test_mixing_size_vs_v(self):
        with pytest.raises(eng.ConfigError):
            eng.AlgorithmConfig(tau=1, mixing=mx.make_fully_connected(2), v=2,
                                eta=0.1, steps=10)

    def test_rule_names(self):
        with pytest.raises(eng.ConfigError):
            eng.AlgorithmConfig(tau=1, mixing=mx.make_fully_connected(2), v=0,
                                eta=0.1, steps=10, rule="sideways")


class TestRun:
    def test_plain_gradient_descent_converges(self):
        q = make_diag_quadratic(10, 0.5, 1.0)
        cfg = eng.AlgorithmConfig(tau=1, mixing=mx.make_fully_connected(4), v=0,
                                  eta=1.0, steps=500)
        trace = eng.run_many(cfg, q, [0], x0=3.0)[0]
        assert not trace.diverged
        assert trace.grad_norm_sq[-1] < 1e-20

    def test_network_error_zero_exactly_on_sync_rows(self):
        q = make_diag_quadratic(6, 0.5, 1.0, sigma_sq=1.0)
        cfg = eng.AlgorithmConfig(tau=4, mixing=mx.make_fully_connected(5), v=0,
                                  eta=0.05, steps=48)
        trace = eng.run_many(cfg, q, [2], x0=1.0)[0]
        for k in range(0, 49, 4):
            assert trace.network_error[k] <= 1e-20
        between = [trace.network_error[k] for k in range(49) if k % 4 != 0]
        assert min(between) > 1e-6

    def test_fully_synchronous_network_error_identically_zero(self):
        q = make_diag_quadratic(6, 0.5, 1.0, sigma_sq=1.0)
        cfg = eng.AlgorithmConfig(tau=1, mixing=mx.make_fully_connected(5), v=0,
                                  eta=0.05, steps=200)
        trace = eng.run_many(cfg, q, [4], x0=1.0)[0]
        assert np.max(trace.network_error) <= 1e-20

    def test_overcoupled_elastic_diverges(self):
        q = make_diag_quadratic(10, 0.1, 1.0, sigma_sq=1.0)
        cfg = eng.AlgorithmConfig(tau=1, mixing=mx.make_easgd(8, 0.23), v=1,
                                  eta=0.1, steps=20000, rule="pre")
        trace = eng.run_many(cfg, q, [1], x0=1.0)[0]
        assert trace.diverged
        assert trace.rows < 20001
        assert np.isfinite(trace.loss).all()

    def test_averaged_model_recursion_both_rules(self):
        q = make_diag_quadratic(8, 0.2, 1.0, sigma_sq=1.0)
        for rule in ("post", "pre"):
            cfg = eng.AlgorithmConfig(tau=2, mixing=mx.make_easgd(5, 0.2), v=1,
                                      eta=0.05, steps=400, rule=rule)
            trace = eng.run_many(cfg, q, [6], x0=1.5)[0]
            assert trace.recursion_defect_max <= 1e-13

    def test_determinism_bit_identical(self):
        q = make_diag_quadratic(5, 0.3, 1.0, sigma_sq=0.5)
        cfg = eng.AlgorithmConfig(tau=2, mixing=mx.make_ring(4), v=0,
                                  eta=0.05, steps=100)
        a, b = eng.run_many(cfg, q, [9], x0=1.0)[0], eng.run_many(cfg, q, [9], x0=1.0)[0]
        for name in ("loss", "grad_norm_sq", "network_error",
                     "worker_loss_mean", "worker_grad_norm_sq_mean"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_oracle_evaluates_one_reused_d_major_stack(self):
        # every evaluation receives a view of the same d-major buffer, on which
        # the oracle's product over all seeds is one GEMM: the (seeds, d, n + 1)
        # stack of the columns and their mean, or, for a sampler that reads no
        # gradients, at row 0 the (seeds, d, 1) view of the mean and before the
        # tail packs of the means of n + 1 rows from row 1 in the first
        # columns, the last pack cut at the tail's first row, 16: rows 1..6,
        # 7..12 and 13..15. Such a sampler never receives gradients
        class StackRecorder(RecordingOracle):
            """Also keeps each evaluated stack itself, not a copy."""

            def __init__(self, oracle):
                super().__init__(oracle)
                self.stacks = []

            def batch_objective_and_grads(self, X):
                self.stacks.append(X)
                return super().batch_objective_and_grads(X)

        cfg = eng.AlgorithmConfig(tau=2, mixing=mx.make_easgd(4, 0.2), v=1, eta=0.05, steps=20)
        n, tail = cfg.mixing.n, eng.tail_start(cfg.steps)
        assert (n, tail) == (5, 16)
        for oracle in (make_diag_quadratic(5, 0.3, 1.0, sigma_sq=0.5),
                       LogisticProblem.synthetic(40, 5, 3, l2_reg=0.01, batch_size=4)):
            recorder = StackRecorder(oracle)
            eng.run_many(cfg, recorder, [1, 2, 3])
            stacks, reads = recorder.stacks, oracle.sampler_reads_gradients
            # (first buffer column, columns) of each evaluation
            tail_stacks = [(0, n + 1)] * (cfg.steps + 1 - tail)
            expected = ([(0, n + 1)] * (cfg.steps + 1) if reads
                        else [(n, 1), (0, 6), (0, 6), (0, 3)] + tail_stacks)
            buffer = stacks[0].base
            assert buffer.shape == (5, 3, n + 1) and buffer.flags.c_contiguous
            layout = buffer.transpose(1, 0, 2)
            for X, (first, cols) in zip(stacks, expected, strict=True):
                assert X.base is buffer and X.strides == layout.strides
                assert X.shape == (3, 5, cols)
                assert X.ctypes.data == layout[:, :, first:].ctypes.data
            assert [grads is not None for grads in recorder.sampled_grads] == [reads] * cfg.steps

    @pytest.mark.parametrize("steps", [1, 2, 8, 20, 55])
    def test_oracle_call_count(self, steps):
        # K + 1 evaluations for a sampler that reads gradients; otherwise row 0,
        # then one per pack of n + 1 = 6 rows before the tail, then one per tail
        # row. The tail starts at row 1, 2, 7, 16 and 44: no pack, one pack of
        # one row, one whole pack, and packs whose last is cut short
        cfg = eng.AlgorithmConfig(tau=1, mixing=mx.make_ring(5), v=0, eta=0.05, steps=steps)
        n, tail = cfg.mixing.n, eng.tail_start(steps)
        packs = -(-(tail - 1) // (n + 1))
        quadratic = make_diag_quadratic(3, 0.3, 1.0, sigma_sq=0.5)
        for oracle, calls in ((quadratic, steps + 1),
                              (BlindOracle(quadratic), 1 + packs + steps + 1 - tail),
                              (LogisticProblem.synthetic(40, 3, 3, l2_reg=0.01, batch_size=4),
                               1 + packs + steps + 1 - tail)):
            recorder = RecordingOracle(oracle)
            eng.run_many(cfg, recorder, [1, 2])
            assert len(recorder.evaluations) == calls

    def test_batch_divergence_is_per_seed(self):
        # a step too large for the top curvature mode diverges regardless of seed,
        # so instead mix one stable and one unstable configuration seed-wise via
        # the overcoupled matrix and check truncation points differ
        q = make_diag_quadratic(10, 0.1, 1.0, sigma_sq=1.0)
        cfg = eng.AlgorithmConfig(tau=1, mixing=mx.make_easgd(8, 0.23), v=1,
                                  eta=0.1, steps=12000, rule="pre")
        traces = eng.run_many(cfg, q, [1, 2, 3], x0=1.0)
        assert all(t.diverged for t in traces)
        assert len({t.rows for t in traces}) > 1

    def test_nonfinite_state_stops_only_its_seed(self):
        # one infinite gradient coordinate of seed 1 at step 5, and of seed 2 at
        # step 18, on the tail from row 16, makes that seed's state non-finite:
        # that state's row is not emitted, and the other seeds run on
        q = make_diag_quadratic(4, 0.5, 1.0, sigma_sq=1.0)
        cfg = eng.AlgorithmConfig(tau=2, mixing=mx.make_fully_connected(3), v=0,
                                  eta=0.05, steps=20)
        assert eng.tail_start(cfg.steps) == 16

        clean = eng.run_many(cfg, q, [7, 8, 9], x0=1.0)
        traces = eng.run_many(cfg, PoisonedOracle(q, {5: 1, 18: 2}), [7, 8, 9], x0=1.0)
        assert traces[1].diverged and traces[1].rows == 5
        assert traces[2].diverged and traces[2].rows == 18
        # an infinite coordinate of one worker makes every recorded metric of its
        # row non-finite: before the tail those of the column mean alone
        assert traces[1].nonfinite == eng.METRIC_NAMES[:3]
        assert traces[2].nonfinite == eng.METRIC_NAMES
        for s, rows in ((1, 5), (2, 18)):
            assert np.isfinite(traces[s].metrics).all()
            assert np.isfinite(traces[s].worker_metrics).all()
            assert len(traces[s].worker_grad_norm_sq_mean) == max(rows - 16, 0)
            assert np.array_equal(traces[s].metrics, clean[s].metrics[:, :rows])
            assert np.array_equal(traces[s].worker_metrics,
                                  clean[s].worker_metrics[:, :max(rows - 16, 0)])
        assert not traces[0].diverged and traces[0].rows == 21 and traces[0].nonfinite == ()
        assert np.array_equal(traces[0].metrics, clean[0].metrics)
        assert np.array_equal(traces[0].worker_metrics, clean[0].worker_metrics)

    def test_worker_metrics_cover_the_tail(self):
        # the three metrics of the column mean cover every recorded row, and
        # the two worker metrics, in an array of their own, the recorded rows
        # of the tail from row 16 of 20. Three seeds complete, one diverges at
        # row 5, before the tail, and one at row 18, inside it; neither array
        # holds an entry that was not recorded
        q = make_diag_quadratic(4, 0.5, 1.0, sigma_sq=1.0)
        cfg = eng.AlgorithmConfig(tau=2, mixing=mx.make_fully_connected(3), v=0,
                                  eta=0.05, steps=20)
        tail = eng.tail_start(cfg.steps)
        assert tail == 16
        seeds = [3, 4, 5, 6, 7]
        traces = eng.run_many(cfg, PoisonedOracle(q, {5: 1, 18: 2}), seeds, x0=1.0)
        assert [t.rows for t in traces] == [21, 5, 18, 21, 21]
        for trace in traces:
            assert trace.metrics.shape == (3, trace.rows)
            assert trace.worker_metrics.shape == (2, max(0, trace.rows - tail))
            assert not np.isnan(trace.metrics).any() and not np.isnan(trace.worker_metrics).any()
            assert trace.worker_loss_mean.tobytes() == trace.worker_metrics[0].tobytes()
            assert trace.worker_grad_norm_sq_mean.tobytes() == trace.worker_metrics[1].tobytes()
        # the seed mean of the completed seeds holds the bits of np.mean over
        # the stack of each array
        completed = [t for t in traces if not t.diverged]
        mean = eng.average_traces(completed)
        assert mean.metrics.tobytes() == np.mean([t.metrics for t in completed], axis=0).tobytes()
        assert mean.worker_metrics.tobytes() == np.mean(
            [t.worker_metrics for t in completed], axis=0).tobytes()

    def test_summary_metric_counts_gradient_states(self):
        q = make_diag_quadratic(4, 0.5, 1.0)
        cfg = eng.AlgorithmConfig(tau=1, mixing=mx.make_fully_connected(3), v=0,
                                  eta=0.5, steps=10)
        trace = eng.run_many(cfg, q, [0], x0=1.0)[0]
        assert trace.rows == 11
        assert trace.mean_grad_norm_sq == pytest.approx(trace.grad_norm_sq[:10].mean(), abs=0)


class TestBlockedRecording:
    """Recording in blocks of steps changes no result: `run_many` matches the
    per-step reference bit for bit at one-step blocks, 7-step blocks (which
    do not divide K) and one block longer than the run. A run whose sampler
    reads no gradients rounds these down to whole packs of n + 1 rows, and
    at least one."""

    @pytest.fixture(params=[1, 7, None], ids=["block1", "block7", "block_gt_K"])
    def block_steps(self, request, monkeypatch):
        def set_block(config, oracle, seeds):
            rows = request.param or config.steps + 1
            row = eng.record_row_bytes(len(seeds), oracle.d, config.mixing.n)
            monkeypatch.setattr(eng, "RECORD_BLOCK_BYTES", rows * row + row - 1)
        return set_block

    @staticmethod
    def block_end(config, block: int, row: int) -> int:
        """Last row of the block that holds `row`: blocks of `block` rows start
        at row 1 and at the tail's first row, and none straddles it."""
        tail = eng.tail_start(config.steps)
        first, last = (1, tail - 1) if row < tail else (tail, config.steps)
        return min(last, first - 1 + -(-(row - first + 1) // block) * block)

    @staticmethod
    def assert_same(config, oracle, seeds, x0=1.0, engine_oracle=None):
        expected = reference_run_many(config, oracle, seeds, x0=x0)
        got = eng.run_many(config, engine_oracle or oracle, seeds, x0=x0)
        for a, b in zip(got, expected, strict=True):
            assert a.rows == b.rows and a.diverged == b.diverged and a.nonfinite == b.nonfinite
            assert np.array_equal(a.metrics, b.metrics)
            assert np.array_equal(a.worker_metrics, b.worker_metrics)
            assert a.recursion_defect_max == b.recursion_defect_max
        return got

    @pytest.mark.parametrize("rule, mixing, v, tau", [
        ("post", mx.make_ring(5), 0, 3),
        ("pre", mx.make_ring(5), 0, 2),
        ("post", mx.make_easgd(4, 0.2), 1, 2),
        ("pre", mx.make_easgd(4, 0.2), 1, 1),
    ])
    def test_rules_match_reference(self, block_steps, rule, mixing, v, tau):
        q = make_diag_quadratic(6, 0.2, 1.0, sigma_sq=1.0)
        cfg = eng.AlgorithmConfig(tau=tau, mixing=mixing, v=v, eta=0.05, steps=60, rule=rule)
        block_steps(cfg, q, [1, 2, 3])
        self.assert_same(cfg, q, [1, 2, 3], x0=1.5)

    def test_poisoned_seeds_match_reference(self, block_steps):
        # with 7-step blocks, row 11 lies inside the block of rows 8..14 and
        # row 8 is that block's first row
        q = make_diag_quadratic(4, 0.5, 1.0, sigma_sq=1.0)
        cfg = eng.AlgorithmConfig(tau=2, mixing=mx.make_fully_connected(3), v=0,
                                  eta=0.05, steps=20)
        block_steps(cfg, q, [7, 8, 9, 10])
        traces = self.assert_same(cfg, PoisonedOracle(q, {11: 1, 8: 2}), [7, 8, 9, 10])
        assert [t.rows for t in traces] == [21, 11, 8, 21]

    @pytest.mark.parametrize("rule, mixing, v", [
        ("post", mx.make_dense_with_zeta(4, 0.5), 0),
        ("pre", mx.make_easgd(4, 0.2), 1),
    ])
    def test_logistic_matches_reference(self, block_steps, rule, mixing, v):
        # the means alone are evaluated before the tail, in packs of n + 1 rows
        # (5 for the dense matrix, 6 for the elastic one), and from row 16 on
        # the columns too: 7-step blocks become blocks of one pack, and with
        # one-step blocks too. Seed 1 turns non-finite before the tail, at the
        # first row of a pack or inside one, seed 2 on it
        oracle = LogisticProblem.synthetic(40, 5, 3, l2_reg=0.01, batch_size=4)
        cfg = eng.AlgorithmConfig(tau=4, mixing=mixing, v=v, eta=0.1, steps=20, rule=rule)
        assert eng.tail_start(cfg.steps) == 16
        block_steps(cfg, oracle, [1, 2, 3])
        self.assert_same(cfg, oracle, [1, 2, 3], x0=0.5)
        traces = self.assert_same(cfg, PoisonedOracle(oracle, {6: 1, 17: 2}), [1, 2, 3], x0=0.5)
        assert [t.rows for t in traces] == [21, 6, 17]
        assert [len(t.nonfinite) for t in traces] == [0, 3, 5]

    def test_divergence_inside_a_pack_matches_reference(self, block_steps):
        # a quadratic whose sampler reads no gradients packs its evaluations
        # like the logistic one: n + 1 = 6 rows from row 1, so that rows
        # 289..294 form one pack. An unstable step makes seeds 1 and 2 turn
        # non-finite at its second row and seed 3 at its first, with only the
        # network error overflowing
        q = make_diag_quadratic(4, 0.5, 1.0, sigma_sq=1.0)
        cfg = eng.AlgorithmConfig(tau=1, mixing=mx.make_easgd(4, 0.3), v=1, eta=4.0,
                                  steps=600, rule="pre")
        assert eng.tail_start(cfg.steps) == 480
        oracle = BlindOracle(q)
        block_steps(cfg, oracle, [1, 2, 3])
        traces = self.assert_same(cfg, oracle, [1, 2, 3])
        assert [t.rows for t in traces] == [290, 290, 289]
        assert [t.nonfinite for t in traces] == [eng.METRIC_NAMES[:3]] * 2 + [("network_error",)]

    @pytest.mark.parametrize("v", [0, 1])
    @pytest.mark.parametrize("rule", ["post", "pre"])
    def test_each_state_gradient_is_computed_once(self, block_steps, rule, v):
        # one evaluation per state, and sampler call k receives the worker
        # columns and gradients of the evaluation of state k - 1, bit for bit
        q = make_rotated_quadratic(6, 0.2, 1.0, seed=4, sigma_sq=1.0)
        mixing = mx.make_easgd(4, 0.2) if v else mx.make_ring(4)
        cfg = eng.AlgorithmConfig(tau=2, mixing=mixing, v=v, eta=0.05, steps=20, rule=rule)
        block_steps(cfg, q, [1, 2, 3])
        recorder = RecordingOracle(q)
        eng.run_many(cfg, recorder, [1, 2, 3], x0=1.5)
        assert len(recorder.evaluations) == cfg.steps + 1
        assert len(recorder.sampled_grads) == cfg.steps
        m = cfg.m
        for k, (Xw, grads) in enumerate(zip(recorder.worker_columns, recorder.sampled_grads), 1):
            state, evaluated = recorder.evaluations[k - 1]
            assert Xw.tobytes() == state[:, :, :m].tobytes()
            assert grads.tobytes() == evaluated[:, :, :m].tobytes()

    def test_parked_seed_never_steps_with_a_nonfinite_gradient(self, block_steps):
        # seed 1 turns non-finite at step 5 and runs on to the end of its
        # block; from then on the sampler sees it at zero with zero gradients
        q = make_diag_quadratic(4, 0.5, 1.0, sigma_sq=1.0)
        cfg = eng.AlgorithmConfig(tau=2, mixing=mx.make_fully_connected(3), v=0,
                                  eta=0.05, steps=20)
        block_steps(cfg, q, [7, 8, 9])
        recorder = RecordingOracle(PoisonedOracle(q, {5: 1}))
        eng.run_many(cfg, recorder, [7, 8, 9], x0=1.0)
        block = eng.record_block_rows(3, q.d, cfg.mixing.n, cfg.steps)
        parked = self.block_end(cfg, block, 5)  # the step whose block finds it dead
        sampled = [grads[1] for grads in recorder.sampled_grads]
        assert all(not np.isfinite(g).all() for g in sampled[5:parked])
        assert all(np.isfinite(g).all() for g in sampled[parked:])
        if parked < cfg.steps:
            assert not sampled[parked].any()

    def test_all_diverged_early_stop_matches_reference(self, block_steps):
        q = make_diag_quadratic(10, 0.1, 1.0, sigma_sq=1.0)
        cfg = eng.AlgorithmConfig(tau=1, mixing=mx.make_easgd(8, 0.23), v=1,
                                  eta=0.1, steps=6000, rule="pre")
        block_steps(cfg, q, [1, 2, 3])
        recorder = RecordingOracle(q)
        traces = self.assert_same(cfg, q, [1, 2, 3], engine_oracle=recorder)
        assert all(t.diverged for t in traces)
        # the run stops at the end of the block holding the last first bad row
        block = eng.record_block_rows(3, q.d, cfg.mixing.n, cfg.steps)
        last = max(t.rows for t in traces)
        assert len(recorder.worker_columns) == self.block_end(cfg, block, last)


class TestByteEstimate:
    @pytest.mark.parametrize("n_seeds, d, mixing, v, steps, rule", [
        (20, 10, mx.make_easgd(8, 0.2), 1, 2000, "post"),  # the metric array dominates
        (4, 256, mx.make_easgd(16, 0.1), 1, 20, "pre"),    # the step arrays dominate
        (3, 50, mx.make_fully_connected(2), 0, 500, "post"),  # the recording block dominates
        (4, 256, mx.make_easgd(16, 0.1), 1, 20, "post"),   # the step arrays dominate
        (20, 2, mx.make_fully_connected(2), 0, 20_000, "post"),  # the metric arrays dominate
    ])
    def test_estimate_covers_the_peak(self, n_seeds, d, mixing, v, steps, rule):
        # a noiseless quadratic draws no block, so its part of the peak is the
        # evaluation's and sampling's arrays, which its own estimate counts; its
        # d x d matrix is built before the traced call and is left out, so that
        # at d = 256 the matrix's 512 KiB cannot hide a missing step array
        q = make_diag_quadratic(d, 0.1, 1.0)
        cfg = eng.AlgorithmConfig(tau=1, mixing=mixing, v=v, eta=0.01, steps=steps, rule=rule)
        peak = traced_peak(lambda: eng.run_many(cfg, q, list(range(n_seeds))))
        shape = (n_seeds, mixing.n, cfg.m, steps)
        estimate = eng.run_many_bytes(n_seeds, d, *shape[1:]) + QuadraticProblem.run_bytes(
            d, 0.0, 0.0, *shape) - q.A.nbytes
        assert peak <= estimate + FIXED_BYTES


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        q = make_diag_quadratic(4, 0.5, 1.0, sigma_sq=1.0)
        cfg = eng.AlgorithmConfig(tau=2, mixing=mx.make_fully_connected(3), v=0,
                                  eta=0.05, steps=20)
        trace = eng.run_many(cfg, q, [3], x0=1.0)[0]
        clock = np.linspace(0.0, 3.0, trace.rows)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, ClockText(clock), path)
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == TRACE_CSV_COLUMNS
        data = np.array(rows, dtype=float).T
        for column, expected in zip(data, [np.arange(trace.rows), trace.loss, trace.grad_norm_sq,
                                           trace.network_error, clock]):
            assert np.array_equal(column, expected)

    def test_header_exact(self, tmp_path):
        q = make_diag_quadratic(2, 1.0, 1.0)
        cfg = eng.AlgorithmConfig(tau=1, mixing=mx.make_fully_connected(2), v=0,
                                  eta=0.1, steps=2)
        path = tmp_path / "t.csv"
        write_trace_csv(eng.run_many(cfg, q, [0])[0], ClockText(np.zeros(3)), path)
        first = path.read_text().splitlines()[0]
        assert first == "k,loss,grad_norm_sq,network_error,wall_clock_s"


class TestAverageTraces:
    def test_mean_of_fields(self):
        # the traces are summed in order without a stack; every metric row, of
        # the column mean's and of the tail's worker metrics, must hold the bits
        # of np.mean over the stack, also on a subset of the seeds
        q = make_diag_quadratic(4, 0.5, 1.0, sigma_sq=1.0)
        cfg = eng.AlgorithmConfig(tau=1, mixing=mx.make_fully_connected(3), v=0,
                                  eta=0.05, steps=50)
        traces = eng.run_many(cfg, q, list(range(20)), x0=1.0)
        for subset in (traces, traces[:7] + traces[8:]):
            mean = eng.average_traces(subset)
            for name in ("metrics", "worker_metrics"):
                stacked = np.mean([getattr(t, name) for t in subset], axis=0)
                assert getattr(mean, name).tobytes() == stacked.tobytes()
