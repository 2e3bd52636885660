"""Wall-clock model: sync costs, amortization, straggler averaging."""

import warnings

import numpy as np
import pytest

from coopsgd import mixing as mx
from coopsgd.cli import SpecError, delay_from_dict
from coopsgd.timeline import (
    DelayModel,
    TimelineError,
    simulate_timeline,
    simulate_timeline_bytes,
    sync_cost,
)

from peak_memory import FIXED_BYTES, traced_peak


def constant_delay(**overrides) -> DelayModel:
    base = dict(compute_base=0.5, compute_jitter_mean=0.0,
                comm_latency=1.0, comm_per_neighbor=0.1, nonblocking_aux=False)
    base.update(overrides)
    return DelayModel(**base)


class TestSyncCost:
    def test_all_to_all_degree(self):
        cost = sync_cost(mx.make_fully_connected(8), constant_delay())
        assert cost == pytest.approx(1.7, abs=1e-15)

    def test_ring_degree_two(self):
        cost = sync_cost(mx.make_ring(8), constant_delay())
        assert cost == pytest.approx(1.2, abs=1e-15)

    def test_elastic_worker_overlaps_anchor_when_nonblocking(self):
        w = mx.make_easgd(8, 0.2)
        blocking = sync_cost(w, constant_delay(), v=1)
        overlapped = sync_cost(w, constant_delay(nonblocking_aux=True), v=1)
        assert blocking == pytest.approx(1.1, abs=1e-15)  # one anchor partner
        assert overlapped == pytest.approx(1.0, abs=1e-15)

    def test_degree_counts_exact_zeros_only(self):
        w = mx.make_dense_with_zeta(7, 0.75)  # dense blend: all partners present
        assert sync_cost(w, constant_delay()) == pytest.approx(1.6, abs=1e-15)


class TestConstantTimeline:
    def test_fully_sync_per_iteration(self):
        w = mx.make_fully_connected(8)
        tl = simulate_timeline(100, 1, w, constant_delay(comm_per_neighbor=0.25), seed=0)
        assert np.all(tl.per_iteration == 0.5 + 2.75)

    def test_amortization_identity_exact(self):
        w = mx.make_fully_connected(8)
        delay = constant_delay(comm_per_neighbor=0.25)
        cost = sync_cost(w, delay)
        for tau in (1, 2, 5, 10):
            tl = simulate_timeline(100, tau, w, delay, seed=0)
            assert np.all(tl.per_iteration == 0.5 + cost / tau)

    def test_comm_time_scales_inversely_with_tau(self):
        w = mx.make_fully_connected(8)
        delay = constant_delay(comm_per_neighbor=0.25)
        full = simulate_timeline(20_000, 1, w, delay, seed=0)
        periodic = simulate_timeline(20_000, 10, w, delay, seed=0)
        assert full.total_comm_time == 10.0 * periodic.total_comm_time

    def test_cumulative_aligned_with_trace_rows(self):
        tl = simulate_timeline(40, 4, mx.make_ring(4), constant_delay(), seed=0)
        assert len(tl.cumulative) == 41
        assert tl.cumulative[0] == 0.0
        assert np.all(np.diff(tl.cumulative) > 0)

    def test_no_idle_without_jitter(self):
        tl = simulate_timeline(40, 4, mx.make_ring(4), constant_delay(), seed=0)
        assert np.all(tl.idle_fraction == 0.0)


class TestJitteredTimeline:
    def test_deterministic_per_seed(self):
        w = mx.make_fully_connected(4)
        delay = constant_delay(compute_jitter_mean=0.2)
        a = simulate_timeline(400, 4, w, delay, seed=5)
        b = simulate_timeline(400, 4, w, delay, seed=5)
        assert np.array_equal(a.per_iteration, b.per_iteration)
        c = simulate_timeline(400, 4, w, delay, seed=6)
        assert not np.array_equal(a.per_iteration, c.per_iteration)

    def test_local_steps_reduce_idle_fraction(self):
        # tau local steps average out stragglers, so waiting shrinks
        w = mx.make_fully_connected(8)
        delay = constant_delay(compute_jitter_mean=0.5)
        rounds = 10_000
        sync1 = simulate_timeline(rounds, 1, w, delay, seed=7)
        sync4 = simulate_timeline(4 * rounds, 4, w, delay, seed=7)
        assert sync4.idle_fraction.mean() < sync1.idle_fraction.mean()

    def test_nonblocking_never_slower_same_seed(self):
        w = mx.make_easgd(6, 0.2)
        for seed in range(5):
            blocking = simulate_timeline(200, 2, w, constant_delay(compute_jitter_mean=0.3),
                                         seed=seed, v=1)
            overlapped = simulate_timeline(200, 2, w,
                                           constant_delay(compute_jitter_mean=0.3,
                                                          nonblocking_aux=True),
                                           seed=seed, v=1)
            assert overlapped.total_time <= blocking.total_time


class TestByteEstimate:
    @pytest.mark.parametrize("mixing, v, tau, steps, jitter", [
        (mx.make_easgd(255, 0.005), 1, 1, 2000, 0.2),  # the draws dominate
        (mx.make_generalized_elastic(mx.make_ring(16), 0.1), 1, 1, 20_000, 0.2),
        (mx.make_fully_connected(8), 0, 4, 4000, 0.2),  # fewer rounds than steps
        (mx.make_ring(16), 0, 1, 20_000, 0.0),  # constant delay: no draws
    ], ids=["m255_tau1", "m16_tau1", "m8_tau4", "constant"])
    def test_estimate_covers_the_peak(self, mixing, v, tau, steps, jitter):
        delay = constant_delay(compute_jitter_mean=jitter)
        peak = traced_peak(lambda: simulate_timeline(steps, tau, mixing, delay, seed=3, v=v))
        m = mixing.n - v
        assert peak <= simulate_timeline_bytes(steps, tau, mixing.n, m) + FIXED_BYTES


class TestPeriodVsSparsity:
    def test_large_period_beats_gossip_in_constant_model(self):
        # with tau >= m and per-partner cost at most the latency, amortized
        # periodic averaging is never slower than every-step gossip over a
        # sparse graph; holds in the constant model by direct calculation
        for m in (4, 8, 16):
            full = mx.make_fully_connected(m)
            ring = mx.make_ring(m)
            for p in (0.0, 0.5, 1.0):
                delay = constant_delay(comm_per_neighbor=p)
                pasgd = simulate_timeline(m * 10, m, full, delay, seed=0)
                gossip = simulate_timeline(m * 10, 1, ring, delay, seed=0)
                assert pasgd.total_time <= gossip.total_time


class TestSerialization:
    def test_round_trip(self):
        first, echo = delay_from_dict({"compute": 0.5, "jitter": 0.1, "latency": 1,
                                       "per_neighbor": 0.1, "nonblocking_aux": True})
        again, echo_again = delay_from_dict(echo)
        assert echo_again == echo
        assert echo == {"compute": 0.5, "jitter": 0.1, "latency": 1.0, "per_neighbor": 0.1,
                        "nonblocking_aux": True}
        assert first == again == constant_delay(compute_jitter_mean=0.1, nonblocking_aux=True)

    def test_unknown_fields_rejected(self):
        with pytest.raises(SpecError, match="warp"):
            delay_from_dict({"compute": 1.0, "warp": 9})

    def test_negative_rejected(self):
        with pytest.raises(TimelineError):
            DelayModel(compute_base=-1.0)


class TestSummary:
    def test_fractions(self):
        tl = simulate_timeline(100, 10, mx.make_fully_connected(4),
                               constant_delay(comm_per_neighbor=0.25), seed=0)
        payload = tl.to_dict()
        assert set(payload) == {"total_time_s", "idle_fraction", "comm_fraction"}
        assert payload["comm_fraction"] == pytest.approx(
            tl.total_comm_time / tl.total_time, abs=1e-15)


class TestOverflow:
    @pytest.mark.parametrize("delay", [
        constant_delay(compute_base=1e308, comm_latency=1e308),
        constant_delay(compute_jitter_mean=1e308),
    ], ids=["constant", "jittered"])
    def test_overflowing_clock_rejected(self, delay):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the jitter's sums overflow silently
            with pytest.raises(TimelineError, match="overflows the float range"):
                simulate_timeline(50, 2, mx.make_fully_connected(4), delay, seed=1)
