"""Closed-form bounds: formula values, identities, monotonicity."""

import numpy as np
import pytest

from coopsgd import engine as eng
from coopsgd import mixing as mx
from coopsgd import theory as th

import reference_bounds as ref
from reference_objectives import make_diag_quadratic


def inputs(**overrides) -> th.BoundInputs:
    base = dict(f1_minus_finf=1.0, lipschitz=1.0, sigma_sq=1.0, m=4, v=0,
                tau=2, zeta=0.0, eta=0.01, steps=10_000, beta=0.0)
    base.update(overrides)
    return th.BoundInputs(**base)


def close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class TestLrCondition:
    def test_formula_value(self):
        lhs, ok = th.lr_condition(inputs(m=1, eta=0.1, tau=2))
        assert lhs == pytest.approx(0.3, abs=1e-12)
        assert ok

    def test_vanishing_step_always_ok(self):
        lhs, ok = th.lr_condition(inputs(eta=1e-9))
        assert lhs < 1e-8 and ok

    def test_violated_regime(self):
        lhs, ok = th.lr_condition(inputs(m=1, eta=0.2, tau=8, zeta=0.5))
        assert lhs == pytest.approx(51.4, abs=1e-10)
        assert not ok

    def test_zeta_at_one_rejected(self):
        with pytest.raises(th.TheoryError):
            th.lr_condition(inputs(zeta=1.0))

    def test_general_form_reduces_gracefully(self):
        # beta > 0 switches to the unsimplified condition, which is tighter
        simple, _ = th.lr_condition(inputs(m=1, eta=0.1, tau=2))
        general, _ = th.lr_condition(inputs(m=1, eta=0.1, tau=2, beta=1e-12))
        assert general < simple

    def test_general_form_hand_value(self):
        # tau=1, zeta=0 kill every term except eta L (1 + beta/m) and the
        # 2 eta^2 L^2 beta tau / (1 - zeta^2) correction
        lhs, ok = th.lr_condition(inputs(m=1, eta=0.1, tau=1, zeta=0.0, beta=2.0))
        assert lhs == pytest.approx(0.34, abs=1e-14)
        assert ok


class TestTheorem1:
    def test_term_by_term_example(self):
        rep = th.theorem1_bound(inputs())
        assert rep.opt_term == pytest.approx(0.02, abs=1e-15)
        assert rep.stat_term == pytest.approx(0.0025, abs=1e-15)
        assert rep.network_term == pytest.approx(0.0001, abs=1e-15)
        assert rep.bound == pytest.approx(0.0226, abs=1e-14)

    def test_fully_synchronous_has_no_network_term(self):
        rep = th.theorem1_bound(inputs(tau=1, zeta=0.0, v=0))
        assert rep.network_term == 0.0

    def test_noiseless_bound_is_pure_optimization(self):
        rep = th.theorem1_bound(inputs(sigma_sq=0.0))
        assert rep.floor == 0.0
        assert rep.bound == rep.opt_term

    def test_floor_is_infinite_horizon_limit(self):
        rep = th.theorem1_bound(inputs())
        assert rep.bound - rep.floor == pytest.approx(rep.opt_term, abs=1e-15)

    def test_decomposition_sums(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            rep = th.theorem1_bound(inputs(
                f1_minus_finf=float(rng.uniform(0.1, 5)),
                eta=float(rng.uniform(0.001, 0.05)),
                tau=int(rng.integers(1, 20)),
                zeta=float(rng.uniform(0, 0.95)),
                m=int(rng.integers(1, 16)),
                v=int(rng.integers(0, 3)),
            ))
            assert close(rep.bound, rep.opt_term + rep.stat_term + rep.network_term)


class TestFloorMonotonicity:
    def test_increasing_in_tau_and_zeta(self):
        taus = [1, 2, 4, 8, 16, 32]
        zetas = [0.0, 0.1, 0.3, 0.5, 0.7, 0.9]
        for zeta in zetas:
            floors = [th.theorem1_bound(inputs(tau=t, zeta=zeta)).floor for t in taus]
            assert all(b > a for a, b in zip(floors, floors[1:]))
        for tau in taus:
            floors = [th.theorem1_bound(inputs(tau=tau, zeta=z)).floor for z in zetas]
            assert all(b > a for a, b in zip(floors, floors[1:]))


class TestCorollary1:
    """Checks of the Corollary 1 transcription in `reference_bounds`."""

    def test_thresholds(self):
        rep = ref.corollary1_bound(1.0, 1.0, 1.0, m=4, v=0, tau=2, zeta=0.0, steps=10_000)
        assert rep.k_min == 160
        assert rep.k_min_tight == 256

    def test_prescribed_step(self):
        rep = ref.corollary1_bound(1.0, 2.0, 1.0, m=4, v=1, tau=2, zeta=0.0, steps=400)
        assert rep.eta == pytest.approx((5 / 8) * np.sqrt(4 / 400), abs=1e-15)

    def test_network_part_vanishes_fully_sync(self):
        steps = 4_000_000
        rep = ref.corollary1_bound(1.0, 1.0, 1.0, m=4, v=0, tau=1, zeta=0.0, steps=steps)
        expected = (2 * 1.0 * 1.0 + 1.0) / np.sqrt(4 * steps)
        assert rep.bound == pytest.approx(expected, rel=1e-12)

    def test_bound_equals_theorem1_at_its_step(self):
        rep = ref.corollary1_bound(1.5, 2.0, 0.7, m=6, v=1, tau=3, zeta=0.4, steps=50_000)
        general = th.theorem1_bound(th.BoundInputs(1.5, 2.0, 0.7, m=6, v=1, tau=3, zeta=0.4,
                                                   eta=rep.eta, steps=50_000))
        assert rep.bound == pytest.approx(general.bound, rel=1e-12)


class TestSpecializationIdentities:
    """Hand values of the specialised transcriptions in `reference_bounds`.

    That each equals `theorem1_bound` on random inputs is criterion 09.
    """

    def test_dpsgd_condition_example(self):
        ok, _ = ref.dpsgd_bound(1.0, 1.0, 1.0, m=4, zeta=1/3, eta=0.1, steps=100)
        assert ok  # lhs = 0.1 + 0.01 * 1 * (0.25 + 1.5) = 0.1175

    def test_pasgd_condition_example(self):
        ok, _ = ref.pasgd_bound(1.0, 1.0, 1.0, m=4, tau=4, eta=0.1, steps=100)
        assert ok  # lhs = 0.1 + 0.01 * 12 = 0.22

    def test_pasgd_tau_one_is_fully_sync(self):
        _, bound = ref.pasgd_bound(1.0, 1.0, 1.0, m=4, tau=1, eta=0.01, steps=1000)
        rep = th.theorem1_bound(th.BoundInputs(1.0, 1.0, 1.0, m=4, v=0, tau=1,
                                               zeta=0.0, eta=0.01, steps=1000))
        assert close(bound, rep.opt_term + rep.stat_term)

    def test_elastic_coefficient_m8(self):
        # network coefficient at m=8 collapses to (m+1)/2 = 4.5
        bound = ref.easgd_bound(0.0, 1.0, 1.0, m=8, eta_tilde=0.1, steps=1000)
        assert bound == pytest.approx(0.1 / 8 + 0.5 * 0.01 * 9, abs=1e-14)

    def test_elastic_noiseless(self):
        bound = ref.easgd_bound(2.0, 1.0, 0.0, m=8, eta_tilde=0.1, steps=100)
        assert bound == pytest.approx(2 * 2.0 / (0.1 * 100), abs=1e-14)


class TestZetaThreshold:
    def test_values(self):
        assert th.zeta_threshold(1) == 0.0
        assert th.zeta_threshold(3) == pytest.approx(np.sqrt(0.5), abs=1e-15)
        assert th.zeta_threshold(199) == pytest.approx(np.sqrt(0.99), abs=1e-15)

    def test_equalizes_network_terms(self):
        for tau in (1, 2, 3, 8, 33, 200):
            decentralized = th.theorem1_bound(inputs(tau=1, zeta=th.zeta_threshold(tau)))
            periodic = th.theorem1_bound(inputs(tau=tau, zeta=0.0))
            assert decentralized.network_term == pytest.approx(periodic.network_term, rel=1e-12)


class TestMaxStableEta:
    def test_sits_on_the_boundary(self):
        for tau, zeta, m, v in [(1, 0.0, 8, 0), (32, 0.8, 8, 0), (15, 0.75, 7, 0), (1, 0.8, 8, 1)]:
            et = th.max_stable_eta_tilde(1.0, tau, zeta, m, v)
            eta = et * (m + v) / m
            lhs, _ = th.lr_condition(th.BoundInputs(1.0, 1.0, 1.0, m=m, v=v, tau=tau,
                                                    zeta=zeta, eta=eta, steps=tau))
            assert lhs == pytest.approx(1.0, abs=1e-9)
            shrunk = 0.9 * th.max_stable_eta_tilde(1.0, tau, zeta, m, v)
            _, ok = th.lr_condition(th.BoundInputs(1.0, 1.0, 1.0, m=m, v=v, tau=tau,
                                                   zeta=zeta, eta=shrunk * (m + v) / m,
                                                   steps=tau))
            assert ok


class TestEmpiricalDecomposition:
    def test_noiseless_fully_sync_reduces_and_holds(self):
        q = make_diag_quadratic(6, 0.5, 1.0)
        cfg = eng.AlgorithmConfig(tau=1, mixing=mx.make_fully_connected(4), v=0,
                                  eta=0.5, steps=200)
        trace = eng.run_many(cfg, q, [0], x0=2.0)[0]
        bi = th.BoundInputs(trace.initial_loss - q.f_inf, q.lipschitz, 0.0,
                            m=4, v=0, tau=1, zeta=0.0, eta=0.5, steps=200)
        rep = ref.empirical_decomposition_bound(trace, bi)
        assert rep.applicable
        assert rep.rhs == pytest.approx(2 * bi.f1_minus_finf / (0.5 * 200), rel=1e-12)
        assert rep.holds

    def test_seed_averaged_run_holds(self):
        q = make_diag_quadratic(10, 0.5, 1.0, sigma_sq=1.0)
        w = mx.make_dense_with_zeta(4, 1/3)
        eta = 0.9 * th.max_stable_eta_tilde(1.0, 4, 1/3, 4, 0)
        cfg = eng.AlgorithmConfig(tau=4, mixing=w, v=0, eta=eta, steps=2000)
        traces = eng.run_many(cfg, q, list(range(20)), x0=2.0)
        avg = eng.average_traces(traces)
        bi = th.BoundInputs(avg.initial_loss - q.f_inf, q.lipschitz, 1.0,
                            m=4, v=0, tau=4, zeta=w.zeta, eta=eta, steps=2000)
        rep = ref.empirical_decomposition_bound(avg, bi)
        assert rep.applicable
        assert rep.holds

    def test_inapplicable_flagged(self):
        q = make_diag_quadratic(4, 0.5, 1.0)
        cfg = eng.AlgorithmConfig(tau=1, mixing=mx.make_fully_connected(2), v=0,
                                  eta=1.5, steps=10)
        trace = eng.run_many(cfg, q, [0], x0=1.0)[0]
        bi = th.BoundInputs(trace.initial_loss - q.f_inf, q.lipschitz, 0.0,
                            m=2, v=0, tau=1, zeta=0.0, eta=1.5, steps=10)
        rep = ref.empirical_decomposition_bound(trace, bi)
        assert not rep.applicable
