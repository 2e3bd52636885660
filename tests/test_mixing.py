"""Mixing-matrix constructors and spectral identities."""

import json

import numpy as np
import pytest

from coopsgd import mixing as mx
from coopsgd.cli import SpecError, _json_batches, mixing_from_dict

from reference_mixing import (
    generalized_elastic_zeta,
    is_valid,
    make_hierarchical,
    power_deviation_norm,
    random_doubly_stochastic,
)


def circulant_ring_zeta(m: int) -> float:
    """Independent oracle: eigenvalues of the 1/3-weighted ring are
    1/3 + (2/3) cos(2 pi k / m); returns the largest magnitude below 1."""
    ks = np.arange(1, m)
    vals = 1.0 / 3.0 + (2.0 / 3.0) * np.cos(2.0 * np.pi * ks / m)
    return float(np.max(np.abs(vals)))


def easgd_zeta(m: int, alpha: float) -> float:
    """Closed-form zeta of the elastic matrix, as the bordered identity."""
    return generalized_elastic_zeta(mx.make_identity(m).zeta, m, alpha)


class TestFullyConnected:
    def test_two_nodes(self):
        w = mx.make_fully_connected(2)
        assert np.array_equal(w.entries, [[0.5, 0.5], [0.5, 0.5]])
        assert abs(w.zeta) < 1e-12

    def test_single_node_degenerate(self):
        w = mx.make_fully_connected(1)
        assert np.array_equal(w.entries, [[1.0]])
        assert w.zeta == 0.0

    def test_rank_one_projector_spectrum(self):
        w = mx.make_fully_connected(4)
        assert np.all(w.entries == 0.25)
        vals = np.sort(np.linalg.eigvalsh(w.entries))
        assert np.allclose(vals, [0, 0, 0, 1], atol=1e-12)

    def test_zero_nodes_rejected(self):
        with pytest.raises(mx.MixingError):
            mx.make_fully_connected(0)


class TestElasticMatrix:
    def test_direct_substitution(self):
        w = mx.make_easgd(2, 0.25)
        expected = [[0.75, 0.0, 0.25], [0.0, 0.75, 0.25], [0.25, 0.25, 0.5]]
        assert np.allclose(w.entries, expected, atol=0)

    def test_minimal_zeta_at_m8(self):
        assert abs(mx.make_easgd(8, 0.2).zeta - 0.8) < 1e-9

    def test_alpha_zero_disconnects(self):
        w = mx.make_easgd(8, 0.0)
        assert np.array_equal(w.entries, np.eye(9))
        assert abs(w.zeta - 1.0) < 1e-12
        assert not is_valid(w)

    def test_rows_sum_to_one(self):
        for m, alpha in [(1, 0.3), (5, 0.11), (16, 0.02)]:
            w = mx.make_easgd(m, alpha)
            assert np.max(np.abs(w.entries.sum(axis=1) - 1.0)) < 1e-12


class TestElasticZetaClosedForm:
    def test_empirical_alpha_choice(self):
        assert easgd_zeta(8, 0.1125) == pytest.approx(0.8875, abs=1e-15)

    def test_optimal_alpha(self):
        assert easgd_zeta(8, 0.2) == pytest.approx(0.8, abs=1e-12)

    def test_nonconvergent_region_returned_as_is(self):
        assert easgd_zeta(8, 0.23) == pytest.approx(1.07, abs=1e-12)

    def test_matches_eigendecomposition_on_grid(self):
        for m in (2, 5, 8, 33):
            alphas = np.linspace(0.0, 2.0 / (m + 1), 50, endpoint=False)[1:]
            for alpha in alphas:
                numeric = mx.make_easgd(m, float(alpha)).zeta
                assert abs(easgd_zeta(m, float(alpha)) - numeric) < 1e-9

    def test_single_worker_matches_eigensolve(self):
        # I_1 has no non-leading eigenvalue, so the bordered closed form uses
        # zeta = 0 there: |1 - 2 alpha|, optimal at alpha = 1/2 with zeta 0
        for alpha in np.linspace(0.0, 1.0, 21):
            numeric = mx.make_easgd(1, float(alpha)).zeta
            assert abs(easgd_zeta(1, float(alpha)) - numeric) < 1e-9
        assert mx.best_easgd_alpha(1) == (0.5, 0.0)
        assert mx.make_easgd(1, 0.5).zeta == pytest.approx(0.0, abs=1e-12)


class TestBestElasticAlpha:
    def test_m8(self):
        alpha, zeta = mx.best_easgd_alpha(8)
        assert alpha == pytest.approx(0.2, abs=1e-15)
        assert zeta == pytest.approx(0.8, abs=1e-15)

    def test_m2(self):
        assert mx.best_easgd_alpha(2) == pytest.approx((0.5, 0.5), abs=1e-15)

    def test_grid_scan_oracle(self):
        # brute-force scan of the closed form over [0, 0.22] locates the optimum
        grid = np.arange(0.0, 0.22, 1e-4)
        zetas = [easgd_zeta(8, float(a)) for a in grid]
        best = grid[int(np.argmin(zetas))]
        assert abs(best - 0.2) <= 1e-4 + 1e-12


class TestGeneralizedElastic:
    def test_direct_substitution_on_j2(self):
        w = mx.make_generalized_elastic(mx.make_fully_connected(2), 0.25)
        expected = [[0.375, 0.375, 0.25], [0.375, 0.375, 0.25], [0.25, 0.25, 0.5]]
        assert np.allclose(w.entries, expected, atol=0)

    def test_alpha_zero_is_disconnected(self):
        w = mx.make_generalized_elastic(mx.make_ring(5), 0.0)
        assert abs(w.zeta - 1.0) < 1e-12
        assert not is_valid(w)

    def test_scaled_ring7_numeric_cross_check(self):
        # blend ring(7) toward identity until zeta is exactly 0.75, then
        # check the bordered matrix against the closed form
        ring = mx.make_ring(7)
        lam2 = 1.0 / 3.0 + (2.0 / 3.0) * np.cos(2.0 * np.pi / 7.0)
        a = (1.0 - 0.75) / (1.0 - lam2)
        blended = mx.as_mixing(a * ring.entries + (1.0 - a) * np.eye(7))
        assert blended.zeta == pytest.approx(0.75, abs=1e-12)
        bordered = mx.make_generalized_elastic(blended, 0.2)
        assert bordered.zeta == pytest.approx(0.6, abs=1e-9)
        assert generalized_elastic_zeta(0.75, 7, 0.2) == pytest.approx(0.6, abs=1e-12)

    def test_identity_base_is_elastic_averaging(self):
        # zeta(I_4) = 1 no longer rejects the base: the border gives EASGD
        w = mx.make_generalized_elastic(mx.make_identity(4), 0.2)
        expected = np.zeros((5, 5))
        expected[:4, :4] = 0.8 * np.eye(4)
        expected[:4, 4] = expected[4, :4] = 0.2
        expected[4, 4] = 1.0 - 4 * 0.2
        assert np.array_equal(w.entries, expected)
        assert w.zeta == pytest.approx(0.8, abs=1e-12)


class TestGeneralizedElasticZeta:
    def test_formula_evaluation(self):
        assert generalized_elastic_zeta(0.75, 7, 0.2) == pytest.approx(0.6, abs=1e-15)
        alpha, zeta_p = mx.best_generalized_elastic_alpha(0.75, 7)
        assert alpha == pytest.approx(1.75 / 8.75, abs=1e-15)
        assert zeta_p == pytest.approx(0.6, abs=1e-15)

    def test_perfect_mixing_base(self):
        for m in (1, 3, 9):
            assert generalized_elastic_zeta(0.0, m, 1.0 / (m + 1)) == 0.0

    def test_grid_scan_matches_optimum(self):
        grid = np.arange(0.0, 0.4, 1e-4)
        vals = [generalized_elastic_zeta(0.5, 4, float(a)) for a in grid]
        best = grid[int(np.argmin(vals))]
        assert abs(best - 1.5 / 5.5) <= 1e-4 + 1e-12
        assert min(vals) == pytest.approx(2.0 / 5.5, abs=1e-4)

    def test_optimal_alpha_equalizes_branches(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            zeta = float(rng.uniform(0.0, 0.999))
            m = int(rng.integers(1, 40))
            alpha, _ = mx.best_generalized_elastic_alpha(zeta, m)
            assert abs((1 - alpha) * zeta - abs(1 - (m + 1) * alpha)) < 1e-10


class TestSpectralGap:
    def test_projector_is_zero(self):
        for n in (1, 2, 7):
            assert mx.make_fully_connected(n).zeta < 1e-12

    def test_identity_is_one(self):
        assert mx.make_identity(4).zeta == pytest.approx(1.0, abs=1e-12)

    def test_ring4_against_circulant_oracle(self):
        assert circulant_ring_zeta(4) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert mx.as_mixing(mx.make_ring(4).entries).zeta == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_rejects_asymmetric_input(self):
        with pytest.raises(mx.MixingError, match="not symmetric"):
            mx.as_mixing(np.array([[0.5, 0.5], [0.2, 0.8]]))


class TestPowerDeviationNorm:
    def test_projector_powers_vanish(self):
        w = mx.make_fully_connected(5)
        for j in (1, 3, 7):
            assert power_deviation_norm(w, j) < 1e-12

    def test_power_zero_is_projector_norm(self):
        for w in (mx.make_ring(6), mx.make_easgd(4, 0.3)):
            assert power_deviation_norm(w, 0) == pytest.approx(1.0, abs=1e-12)

    def test_ring4_squared(self):
        w = mx.make_ring(4)
        assert power_deviation_norm(w, 2) == pytest.approx(1.0 / 9.0, abs=1e-8)

    def test_identity_against_zeta_powers(self):
        rng = np.random.default_rng(42)
        mats = [mx.make_ring(9), mx.make_easgd(6, 0.15),
                random_doubly_stochastic(8, rng), mx.make_dense_with_zeta(5, 0.4)]
        for w in mats:
            for j in range(13):
                assert abs(power_deviation_norm(w, j) - w.zeta ** j) < 1e-8


class TestRing:
    def test_triangle_coincides_with_projector(self):
        w = mx.make_ring(3)
        assert np.allclose(w.entries, 1.0 / 3.0, atol=1e-15)
        assert w.zeta < 1e-12

    def test_zeta_matches_circulant_oracle(self):
        for m in (4, 5, 8, 16):
            assert mx.make_ring(m).zeta == pytest.approx(circulant_ring_zeta(m), abs=1e-12)

    def test_ring16_frozen_oracle_value(self):
        # 1/3 + (2/3) cos(pi/8), from the circulant eigenvalue oracle
        assert mx.make_ring(16).zeta == pytest.approx(0.949253021674191, abs=1e-12)

    def test_too_small_rejected(self):
        with pytest.raises(mx.MixingError):
            mx.make_ring(2)


class TestHierarchical:
    def test_single_group_reduces_to_elastic(self):
        one = mx.make_fully_connected(1)
        for m, alpha in [(3, 0.2), (6, 0.1)]:
            hier = make_hierarchical([m], alpha, one)
            assert np.allclose(hier.entries, mx.make_easgd(m, alpha).entries, atol=0)

    def test_two_singleton_groups_structure(self):
        w = make_hierarchical([1, 1], 0.5, mx.make_fully_connected(2))
        assert w.n == 4
        assert np.max(np.abs(w.entries.sum(axis=1) - 1.0)) < 1e-12
        assert np.max(np.abs(w.entries - w.entries.T)) == 0.0

    def test_two_groups_of_four_regression_zeta(self):
        # frozen from the first numeric eigensolve of this construction
        w = make_hierarchical([4, 4], 0.2, mx.make_fully_connected(2))
        assert is_valid(w)
        assert w.zeta == pytest.approx(0.9656854249492379, abs=1e-10)

    def test_unequal_groups_stay_symmetric_stochastic(self):
        w = make_hierarchical([2, 3, 4], 0.08, mx.make_fully_connected(3))
        assert np.max(np.abs(w.entries - w.entries.T)) < 1e-15
        assert np.max(np.abs(w.entries.sum(axis=1) - 1.0)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(mx.MixingError):
            make_hierarchical([2, 2], 0.1, mx.make_fully_connected(3))


class TestValidation:
    def test_projector_valid(self):
        w = mx.make_fully_connected(4)
        assert is_valid(w) and w.zeta < 1e-12

    def test_identity_invalid(self):
        w = mx.make_identity(4)
        assert not is_valid(w)
        assert w.zeta == pytest.approx(1.0, abs=1e-12)

    def test_overcoupled_elastic_invalid(self):
        w = mx.make_easgd(8, 0.23)
        assert not is_valid(w)
        assert w.zeta == pytest.approx(1.07, abs=1e-9)

    def test_reports_defects_on_raw_arrays(self):
        with pytest.raises(mx.MixingError, match=r"not symmetric \(max defect 1\.000e-01\)"):
            mx.as_mixing(np.array([[0.6, 0.4], [0.3, 0.7]]))
        with pytest.raises(mx.MixingError, match=r"row sums deviate .* 1\.000e-01"):
            mx.as_mixing(np.array([[0.6, 0.5], [0.5, 0.4]]))
        # rows of +-1e308 sum to inf - inf: a NaN defect must still fail the check
        signs = np.array([1.0, 1.0, -1.0, -1.0] * 2)
        with pytest.raises(mx.MixingError, match="row sums .* nan"):
            mx.as_mixing(1e308 * np.outer(signs, signs))

    def test_every_constructor_passes_structural_checks(self):
        rng = np.random.default_rng(3)
        candidates = [
            mx.make_fully_connected(6),
            mx.make_easgd(5, 0.12),
            mx.make_generalized_elastic(mx.make_ring(5), 0.2),
            mx.make_ring(7),
            mx.make_dense_with_zeta(6, 0.3),
            make_hierarchical([2, 2], 0.15, mx.make_fully_connected(2)),
            random_doubly_stochastic(9, rng),
        ]
        for w in candidates:
            assert np.max(np.abs(w.entries - w.entries.T)) <= 1e-12
            assert np.max(np.abs(w.entries.sum(axis=1) - 1.0)) <= 1e-12
            assert mx.as_mixing(w.entries).zeta == w.zeta


class TestRandomDoublyStochastic:
    def test_balanced_and_contracting(self):
        rng = np.random.default_rng(11)
        for n in (3, 5, 12):
            w = random_doubly_stochastic(n, rng)
            assert is_valid(w)
            assert np.max(np.abs(w.entries.sum(axis=0) - 1.0)) < 1e-12

    def test_lemma2_randomized(self):
        # closed form vs numeric on random bases, reduced version of the
        # acceptance sweep
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(3, 13))
            base = random_doubly_stochastic(n, rng)
            for _ in range(5):
                alpha = float(rng.uniform(0.0, 1.0))
                closed = generalized_elastic_zeta(base.zeta, n, alpha)
                numeric = mx.make_generalized_elastic(base, alpha).zeta
                assert abs(closed - numeric) < 1e-8


class TestSerialization:
    def test_round_trip(self):
        # the payload's zeta is informational: the echo holds the recomputed
        # one, and the validated entries as an array, which the summary
        # writer turns back into the same JSON
        w = mx.make_easgd(4, 0.18)
        first, echo = mixing_from_dict({"n": 5, "entries": w.entries.reshape(-1).tolist(),
                                        "zeta": 0.5})
        text = "".join(_json_batches(echo))
        again, echo_again = mixing_from_dict(json.loads(text))
        assert "".join(_json_batches(echo_again)) == text
        assert isinstance(echo["entries"], np.ndarray)
        assert json.loads(text) == {"n": 5, "entries": w.entries.reshape(-1).tolist(),
                                    "zeta": w.zeta}
        for m in (first, again):
            assert np.array_equal(m.entries, w.entries)
            assert m.zeta == w.zeta

    def test_unknown_fields_rejected(self):
        with pytest.raises(SpecError, match="extra"):
            mixing_from_dict({"n": 2, "entries": [0.5] * 4, "extra": 1})


class TestMixingStep:
    """One mixing round X -> X W on raw arrays, as the engine applies it."""

    @staticmethod
    def dispersion(x):
        return float(((x - x.mean(axis=1, keepdims=True)) ** 2).sum())

    def test_mixing_preserves_mean(self):
        rng = np.random.default_rng(0)
        for w in (mx.make_ring(6), mx.make_easgd(5, 0.25), random_doubly_stochastic(7, rng)):
            x = rng.standard_normal((4, w.n)) * 5
            assert np.max(np.abs((x @ w.entries).mean(axis=1) - x.mean(axis=1))) < 1e-12

    def test_consensus_contraction(self):
        rng = np.random.default_rng(1)
        for w in (mx.make_ring(8), mx.make_dense_with_zeta(6, 0.5),
                  random_doubly_stochastic(5, rng)):
            for _ in range(20):
                x = rng.standard_normal((3, w.n)) * 4
                assert self.dispersion(x @ w.entries) <= w.zeta ** 2 * self.dispersion(x) + 1e-12
