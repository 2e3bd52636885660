"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own pass/fail report.
"""

import json

import numpy as np
import pytest

from coopsgd import engine as eng
from coopsgd import mixing as mx
from coopsgd import theory as th
from coopsgd import presets
from coopsgd.cli import parse_experiment_spec, run_experiment
from coopsgd.engine import tail_start
from coopsgd.presets import FLOOR_TAUS, FLOOR_ZETAS, run_preset
from coopsgd.timeline import DelayModel, simulate_timeline, sync_cost

import reference_bounds as ref_bounds
import reference_expectations as ref_exp
import reference_updates as ref
from reference_mixing import (
    generalized_elastic_zeta,
    is_valid,
    make_hierarchical,
    power_deviation_norm,
    random_doubly_stochastic,
)
from reference_objectives import make_diag_quadratic, make_rotated_quadratic

SEEDS = list(range(101, 121))  # 20 evaluation seeds


def report(criterion: int, message: str) -> None:
    print(f"[criterion {criterion:02d}] PASS: {message}")


def worker_rngs(seed: int, m: int):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(m)]


# -------------------------------------------------------------------------
# 1. Special-case trajectory equivalence over 1000 shared-noise steps
# -------------------------------------------------------------------------

def test_criterion_01_special_case_equivalence():
    # eigenvalues in [0.5, 1] keep every mode well contracted, so floating
    # point drift between the two arithmetics cannot accumulate
    diagonal = make_diag_quadratic(10, 0.5, 1.0, sigma_sq=1.0)
    # with a dense A and few workers, BLAS may round the product on the
    # worker columns differently from the product on the engine's whole stack
    dense = make_rotated_quadratic(10, 0.5, 1.0, seed=29, sigma_sq=1.0)
    ring = mx.make_ring(8)
    fullsync = lambda x, eta, g, k: ref.reference_fullsync_step(x, eta, g)
    pasgd = lambda x, eta, g, k: ref.reference_pasgd_step(x, eta, g, k, 5)
    cases = {
        "fully synchronous": (diagonal, mx.make_fully_connected(4), 0, 1, "post", fullsync),
        "periodic averaging tau=5": (diagonal, mx.make_fully_connected(4), 0, 5, "post", pasgd),
        "gossip ring(8)": (diagonal, ring, 0, 1, "pre",
                           lambda x, eta, g, k: ref.reference_dpsgd_step(x, eta, g, ring.entries)),
        "elastic anchor": (diagonal, mx.make_easgd(8, 0.2), 1, 1, "pre",
                           lambda x, eta, g, k: ref.reference_easgd_step(x, eta, g, 0.2)),
        "dense A, one worker": (dense, mx.make_fully_connected(1), 0, 1, "post", fullsync),
        "dense A, tau=5 on 4 workers": (dense, mx.make_fully_connected(4), 0, 5, "post", pasgd),
    }
    worst = {}
    for name, (oracle, w, v, tau, rule, reference) in cases.items():
        cols, net_err = ref.engine_vs_reference(oracle, w, v, tau, rule, reference,
                                                steps=1000, eta=0.05, seed=29, x0=2.0)
        assert cols < 1e-12, f"{name}: worker-column deviation {cols:.3e}"
        assert net_err < 1e-12, f"{name}: network-error deviation {net_err:.3e}"
        worst[name] = max(cols, net_err)
    detail = ", ".join(f"{name} {dev:.1e}" for name, dev in worst.items())
    report(1, f"1000-step run_many trajectories match the reference updates ({detail})")


# -------------------------------------------------------------------------
# 2. Optimal elasticity closed form for every m in 2..64
# -------------------------------------------------------------------------

def test_criterion_02_optimal_elasticity_closed_form():
    worst_zeta_err = 0.0
    for m in range(2, 65):
        alpha_star, zeta_star = mx.best_easgd_alpha(m)
        assert alpha_star == pytest.approx(2.0 / (m + 2), abs=1e-15)
        numeric = mx.make_easgd(m, alpha_star).zeta
        worst_zeta_err = max(worst_zeta_err, abs(numeric - zeta_star))
        assert abs(numeric - zeta_star) < 1e-9
        grid = np.linspace(0.0, 2.0 / (m + 1), 202)[1:-1]
        closed = np.empty(len(grid))
        for i, alpha in enumerate(grid):
            closed[i] = generalized_elastic_zeta(1.0, m, float(alpha))  # zeta of I_m
            numeric_a = mx.make_easgd(m, float(alpha)).zeta
            assert abs(closed[i] - numeric_a) < 1e-9
        spacing = grid[1] - grid[0]
        assert abs(grid[int(np.argmin(closed))] - alpha_star) <= spacing + 1e-12
        assert closed.min() >= zeta_star - 1e-12
        assert closed.min() <= zeta_star + (m + 1) * spacing
    report(2, f"m in 2..64: closed form matches eigensolves "
              f"(worst defect {worst_zeta_err:.1e}); grid scans confirm the optimum")


# -------------------------------------------------------------------------
# 3. Bordered-matrix spectrum on random bases
# -------------------------------------------------------------------------

def test_criterion_03_bordered_matrix_spectrum():
    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 13))
        base = random_doubly_stochastic(n, rng)
        for _ in range(20):
            alpha = float(rng.uniform(0.0, 1.0))
            closed = generalized_elastic_zeta(base.zeta, n, alpha)
            numeric = mx.make_generalized_elastic(base, alpha).zeta
            worst = max(worst, abs(closed - numeric))
            assert abs(closed - numeric) < 1e-8
        alpha_star, zeta_min = mx.best_generalized_elastic_alpha(base.zeta, n)
        branch_gap = abs((1 - alpha_star) * base.zeta - abs(1 - (n + 1) * alpha_star))
        assert branch_gap < 1e-10
        assert abs(mx.make_generalized_elastic(base, alpha_star).zeta - zeta_min) < 1e-8
    report(3, f"100 random bases x 20 alphas: closed form within {worst:.1e} of eigensolves; "
              f"optimal alpha equalizes both branches")


# -------------------------------------------------------------------------
# 4. Operator-norm power identity ||W^j - J|| = zeta^j
# -------------------------------------------------------------------------

def test_criterion_04_power_deviation_identity():
    rng = np.random.default_rng(7)
    mats = [mx.make_fully_connected(n) for n in (2, 4, 8)]
    mats += [mx.make_ring(m) for m in (3, 5, 8, 16)]
    mats += [mx.make_easgd(m, mx.best_easgd_alpha(m)[0]) for m in (2, 5, 8)]
    mats += [mx.make_generalized_elastic(mx.make_ring(6), 0.2),
             mx.make_dense_with_zeta(7, 0.75),
             make_hierarchical([3, 3], 0.15, mx.make_fully_connected(2))]
    mats += [random_doubly_stochastic(int(rng.integers(3, 13)), rng) for _ in range(10)]
    worst = 0.0
    for w in mats:
        assert is_valid(w)
        for j in range(13):
            err = abs(power_deviation_norm(w, j) - w.zeta ** j)
            worst = max(worst, err)
            assert err < 1e-8
    report(4, f"{len(mats)} matrices x powers 0..12: worst defect {worst:.1e}")


# -------------------------------------------------------------------------
# 5. Exact averaged-model recursion under both update rules
# -------------------------------------------------------------------------

def test_criterion_05_averaged_model_recursion():
    oracle = make_diag_quadratic(10, 0.1, 1.0, sigma_sq=1.0)
    worst = 0.0
    for rule in ("post", "pre"):
        for tau, w, v in [(1, mx.make_fully_connected(8), 0),
                          (4, mx.make_dense_with_zeta(8, 0.8), 0),
                          (2, mx.make_easgd(5, 0.2), 1),
                          (5, mx.make_ring(6), 0)]:
            cfg = eng.AlgorithmConfig(tau=tau, mixing=w, v=v, eta=0.01,
                                      steps=2000, rule=rule)
            traces = eng.run_many(cfg, oracle, SEEDS[:5], x0=2.0)
            for t in traces:
                worst = max(worst, t.recursion_defect_max)
                assert t.recursion_defect_max <= 1e-13
    report(5, f"both rules, 8 configurations x 5 seeds: worst per-step defect {worst:.1e}")


# -------------------------------------------------------------------------
# 6. General convergence bound envelopes the measured gradient norms
# -------------------------------------------------------------------------

def test_criterion_06_convergence_bound_envelope(tmp_path):
    # each case runs as a spec through the path that publishes bounds, and
    # the measurement and its bound are read from the summary it writes;
    # every case has the same seeds, so each run replaces the last one's files
    oracle = make_diag_quadratic(10, 0.1, 1.0, sigma_sq=1.0)
    problem = {"type": "quadratic", "A": oracle.A.tolist(), "b": oracle.b.tolist(),
               "sigma_sq": oracle.sigma_sq}
    # horizons stay divisible by tau, so the tau=15 cell uses 20010 steps
    cases = [
        ("tau=1 zeta=0",   1, mx.make_fully_connected(8), 0, 20000),
        ("tau=4 zeta=0",   4, mx.make_fully_connected(8), 0, 20000),
        ("tau=1 ring(4)",  1, mx.make_ring(4), 0, 20000),
        ("tau=1 elastic",  1, mx.make_easgd(8, 0.2), 1, 20000),
        ("tau=15 z=0.75", 15, mx.make_dense_with_zeta(7, 0.75), 0, 20010),
    ]
    margins = []
    for name, tau, w, v, steps in cases:
        m = w.n - v
        eta_tilde = 0.9 * th.max_stable_eta_tilde(oracle.lipschitz, tau, w.zeta, m, v)
        eta = eta_tilde * (m + v) / m
        spec = parse_experiment_spec({
            "problem": problem,
            "algorithm": {"tau": tau, "eta": eta, "K": steps, "v": v, "init": 2.0,
                          "mixing": {"n": w.n, "entries": w.entries.ravel().tolist()}},
            "delay": {"compute": 1.0},
            "seeds": SEEDS,
            "output_dir": str(tmp_path),
        })
        assert run_experiment(spec) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["diverged_seeds"] == []
        measured, rep = summary["mean_grad_norm_sq"], summary["bound_report"]
        assert rep["lr_ok"]
        assert measured <= rep["bound"], f"{name}: {measured} > {rep['bound']}"
        margins.append(f"{name} {rep['bound'] / measured:.1f}x")
    report(6, f"20-seed means sit inside the published bound ({', '.join(margins)})")


# -------------------------------------------------------------------------
# 7 and 8. Preset-level floor behavior
# -------------------------------------------------------------------------

@pytest.fixture(scope="module")
def floor_sweep_summary(tmp_path_factory):
    """The preset's summary, and the directory holding each cell's outputs."""
    out = tmp_path_factory.mktemp("floor_sweep")
    return run_preset("floor-sweep", str(out)), out


@pytest.fixture(scope="module")
def easgd_sweep_summary(tmp_path_factory):
    """The preset's summary, and the directory holding each cell's outputs."""
    out = tmp_path_factory.mktemp("easgd_sweep")
    return run_preset("easgd-alpha-sweep", str(out)), out


def test_criterion_07_error_floor_monotonicity(floor_sweep_summary):
    s, out = floor_sweep_summary
    assert s["nondecreasing_in_tau"]
    assert s["nondecreasing_in_zeta"]
    assert s["extremes_strictly_ordered"]
    floors = s["floors"]
    lo, hi = floors["tau01_zeta000"], floors["tau32_zeta080"]
    assert hi > 1.3 * lo  # strict with real margin, not a tie
    # every bound a cell publishes holds for the measurement it is published with
    certified = []
    for path in sorted(out.glob("*/summary.json")):
        cell = json.loads(path.read_text())
        bound = cell["bound_report"]
        if bound is not None and bound["lr_ok"]:
            assert cell["mean_grad_norm_sq"] <= bound["bound"]
            certified.append(bound["bound"] / cell["mean_grad_norm_sq"])
    assert len(certified) == len(floors)
    report(7, f"12 measured floors ordered in tau and zeta; extremes {lo:.2e} -> {hi:.2e}; "
              f"published bounds hold at bound/measured {min(certified):.3f}-{max(certified):.3f}")


def test_criterion_08_elasticity_sweep(easgd_sweep_summary):
    s, _ = easgd_sweep_summary
    assert s["best_alpha"] == pytest.approx(0.2)
    assert s["diverged"]["0.23"] is True
    losses = s["tail_worker_loss"]
    assert losses["0.2"] < losses["0.1125"] < losses["0.05"]
    report(8, f"best long-run loss at alpha=0.2 "
              f"({losses['0.2']:.3e} < {losses['0.1125']:.3e} < {losses['0.05']:.3e}); "
              f"alpha=0.23 flagged divergent")


# -------------------------------------------------------------------------
# 9. The general bound against the specialised transcriptions
# -------------------------------------------------------------------------

def test_criterion_09_cross_formula_identities():
    rng = np.random.default_rng(909)

    def close(a, b):
        return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))

    def general(f1, lip, sig, m, v, tau, zeta, eta, steps):
        return th.theorem1_bound(th.BoundInputs(f1, lip, sig, m=m, v=v, tau=tau, zeta=zeta,
                                                eta=eta, steps=steps)).bound

    for _ in range(100):
        f1 = float(rng.uniform(0.1, 5))
        lip = float(rng.uniform(0.5, 4))
        sig = float(rng.uniform(0.0, 2))
        m = int(rng.integers(1, 24))
        tau = int(rng.integers(1, 40))
        zeta = float(rng.uniform(0.0, 0.95))
        eta = float(rng.uniform(0.001, 0.05))
        steps = int(rng.integers(100, 100_000))
        _, pasgd = ref_bounds.pasgd_bound(f1, lip, sig, m=m, tau=tau, eta=eta, steps=steps)
        assert close(pasgd, general(f1, lip, sig, m, 0, tau, 0.0, eta, steps))
        _, dpsgd = ref_bounds.dpsgd_bound(f1, lip, sig, m=m, zeta=zeta, eta=eta, steps=steps)
        assert close(dpsgd, general(f1, lip, sig, m, 0, 1, zeta, eta, steps))
        eta_tilde = float(rng.uniform(0.001, 0.05))
        elastic = ref_bounds.easgd_bound(f1, lip, sig, m=m, eta_tilde=eta_tilde, steps=steps)
        assert close(elastic, general(f1, lip, sig, m, 1, 1, m / (m + 2.0),
                                      eta_tilde * (m + 1) / m, steps))
        v = int(rng.integers(0, 3))
        horizon = ref_bounds.corollary1_bound(f1, lip, sig, m=m, v=v, tau=tau, zeta=zeta,
                                              steps=steps)
        assert close(horizon.bound, general(f1, lip, sig, m, v, tau, zeta, horizon.eta, steps))

    for tau in range(1, 201):
        zeta = th.zeta_threshold(tau)
        _, p_bound = ref_bounds.pasgd_bound(0.0, 1.0, 1.0, m=8, tau=tau, eta=0.1, steps=1000)
        assert close(general(0.0, 1.0, 1.0, 8, 0, 1, zeta, 0.1, 1000), p_bound)
    report(9, "theorem1_bound equals the periodic, decentralized, elastic and Corollary 1 "
              "transcriptions on 100 random inputs; at tau=1 with the threshold zeta it "
              "equals the tau-periodic bound for tau in 1..200")


# -------------------------------------------------------------------------
# 10. Gradient-noise contract and its 1/m averaging
# -------------------------------------------------------------------------

def test_criterion_10_noise_variance_monte_carlo():
    # draws come from the sampler `run_many` uses, on its per-worker streams
    oracle = make_diag_quadratic(10, 0.1, 1.0, sigma_sq=1.0)
    x = np.full(10, 0.7)
    g_full = oracle.full_gradient(x)
    trials = 100_000

    def mean_sq_deviation(seed: int, m: int) -> float:
        sample = oracle.batch_gradient_sampler([worker_rngs(seed, m)], trials)
        x_cols = np.tile(x[None, :, None], (1, 1, m))
        g_cols = oracle.batch_objective_and_grads(x_cols)[1]
        acc = 0.0
        for _ in range(trials):
            dev = sample(x_cols, g_cols)[0].mean(axis=1) - g_full
            acc += dev @ dev
        return acc / trials

    single = mean_sq_deviation(1234, 1)
    assert single == pytest.approx(1.0, rel=0.05)

    averaged = {}
    for m in (2, 4, 8):
        averaged[m] = mean_sq_deviation(1000 + m, m)
        assert averaged[m] == pytest.approx(1.0 / m, rel=0.05)
    detail = ", ".join(f"m={m}: {v:.4f} vs {1 / m:.4f}" for m, v in averaged.items())
    report(10, f"single-draw deviation {single:.4f} vs 1.0; averaged draws {detail}")


# -------------------------------------------------------------------------
# 11. Wall-clock identities in the constant-delay model
# -------------------------------------------------------------------------

def test_criterion_11_timeline_identities():
    w = mx.make_fully_connected(8)
    delay = DelayModel(compute_base=0.5, comm_latency=1.0, comm_per_neighbor=0.25)
    cost = sync_cost(w, delay)
    for tau in (1, 2, 10):
        tl = simulate_timeline(20_000, tau, w, delay, seed=0)
        assert np.all(tl.per_iteration == 0.5 + cost / tau)

    full = simulate_timeline(20_000, 1, w, delay, seed=0)
    periodic = simulate_timeline(20_000, 10, w, delay, seed=0)
    assert full.total_comm_time == 10.0 * periodic.total_comm_time

    anchor = mx.make_easgd(6, 0.25)
    jitter = DelayModel(compute_base=0.5, compute_jitter_mean=0.3,
                        comm_latency=1.0, comm_per_neighbor=0.25)
    overlap = DelayModel(compute_base=0.5, compute_jitter_mean=0.3,
                         comm_latency=1.0, comm_per_neighbor=0.25, nonblocking_aux=True)
    for seed in range(10):
        blocking = simulate_timeline(400, 2, anchor, jitter, seed=seed, v=1)
        nonblocking = simulate_timeline(400, 2, anchor, overlap, seed=seed, v=1)
        assert nonblocking.total_time <= blocking.total_time
    report(11, f"per-iteration time equals compute + sync/tau exactly; "
               f"comm time at tau=10 is exactly 10x smaller "
               f"({full.total_comm_time:.0f}s vs {periodic.total_comm_time:.0f}s); "
               f"non-blocking never slower on 10 seeds")


# -------------------------------------------------------------------------
# 12. Preset reruns are byte-identical
# -------------------------------------------------------------------------

def test_criterion_12_byte_identical_reruns(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    run_preset("hybrid-compare", str(first), seeds=[3, 4])
    run_preset("hybrid-compare", str(second), seeds=[3, 4])
    csvs = sorted(p.relative_to(first) for p in first.rglob("*.csv"))
    assert len(csvs) == 9  # 3 configs x (2 seeds + 1 mean)
    for rel in csvs:
        assert (first / rel).read_bytes() == (second / rel).read_bytes()
    report(12, f"{len(csvs)} CSV files byte-identical across re-runs")


# -------------------------------------------------------------------------
# 13. Exact expected network error on the floor-sweep cells
# -------------------------------------------------------------------------

def network_error_column(path, first_row: int = 0) -> np.ndarray:
    """The `network_error` column of a trace CSV from row `first_row` on."""
    return np.loadtxt(path, delimiter=",", skiprows=1 + first_row, usecols=3)


def test_criterion_13_exact_network_error(floor_sweep_summary):
    # reads the outputs of criterion 07's run; no new simulation
    _, out = floor_sweep_summary
    ratios, margins = [], []
    for zeta, label in FLOOR_ZETAS:
        for tau in FLOOR_TAUS:
            name = presets.floor_cell(tau, label)
            cell = json.loads((out / name / "summary.json").read_text())
            problem, algo = cell["config_echo"]["problem"], cell["config_echo"]["algorithm"]
            A, m, steps = np.array(problem["A"]), algo["mixing"]["n"], algo["K"]
            spectrum = np.diag(A)
            # the exact recursion's assumptions hold in this cell
            assert np.array_equal(A, np.diag(spectrum)) and not any(problem["b"])
            assert problem["beta"] == 0.0 and algo["rule"] == "post" and algo["v"] == 0
            assert algo["tau"] == tau
            assert np.array_equal(np.reshape(algo["mixing"]["entries"], (m, m)),
                                  mx.make_dense_with_zeta(m, zeta).entries)
            exact = ref_exp.post_network_error(spectrum, problem["sigma_sq"], m, tau, zeta,
                                               algo["eta"], steps)

            # the tail seed mean lies within 5% of its exact expectation
            tail = tail_start(steps)
            expected = exact[tail:].mean()
            if expected > 0.0:
                measured = network_error_column(out / name / "trace_mean.csv", tail).mean()
                per_seed = [network_error_column(out / name / f"trace_seed{seed}.csv", tail).mean()
                            for seed in cell["averaged_over_seeds"]]
                stderr = np.std(per_seed, ddof=1) / np.sqrt(len(per_seed)) / expected
                ratio = measured / expected
                assert abs(ratio - 1.0) <= 0.05, f"{name}: ratio {ratio:.4f} (se {stderr:.4f})"
                ratios.append(f"{name} {ratio:.4f}+-{stderr:.4f}")

            # the exact dispersion term sits at or below the published network term
            bound = cell["bound_report"]
            if bound["lr_ok"]:
                lipschitz = spectrum.max()
                dispersion = lipschitz ** 2 / steps * exact[:steps].sum() / m
                assert dispersion <= bound["network_term"], (
                    f"{name}: dispersion {dispersion:.4e} > {bound['network_term']:.4e}")
                if dispersion > 0.0:
                    margins.append(bound["network_term"] / dispersion)
    assert len(ratios) == 11 and len(margins) == 11  # only tau=1 at zeta 0 keeps no spread
    report(13, f"tail network error / exact expectation (20-seed standard error): "
               f"{', '.join(ratios)}; network_term / exact dispersion "
               f"{min(margins):.2f}-{max(margins):.2f}")


# -------------------------------------------------------------------------
# 14. Exact expected network error on the elastic cells
# -------------------------------------------------------------------------

def test_general_network_error_recursion_matches_the_post_rule_form():
    # on every floor-sweep cell's shape, over eight of its longest periods
    cells = presets.floor_sweep_specs("unused", [1])
    shapes = [(tau, zeta, label) for zeta, label in FLOOR_ZETAS for tau in FLOOR_TAUS]
    for (name, spec), (tau, zeta, label) in zip(cells, shapes, strict=True):
        assert name == presets.floor_cell(tau, label)
        problem, algo = spec["problem"], spec["algorithm"]
        spectrum, m = np.diag(problem["A"]), algo["mixing"]["n"]
        special = ref_exp.post_network_error(spectrum, problem["sigma_sq"], m, tau, zeta,
                                             algo["eta"], 256)
        general = ref_exp.network_error(spectrum, problem["sigma_sq"],
                                        np.reshape(algo["mixing"]["entries"], (m, m)), algo["v"],
                                        algo["tau"], algo["rule"], algo["eta"], 256, algo["init"])
        np.testing.assert_allclose(general, special, rtol=1e-12, atol=1e-15, err_msg=name)


def test_criterion_14_exact_network_error_elastic(easgd_sweep_summary):
    # reads the outputs of criterion 08's run; no new simulation
    s, out = easgd_sweep_summary
    ratios = []
    for alpha in presets.EASGD_ALPHAS:
        if s["diverged"][str(alpha)]:
            continue
        name = presets.easgd_cell(alpha)
        cell = json.loads((out / name / "summary.json").read_text())
        problem, algo = cell["config_echo"]["problem"], cell["config_echo"]["algorithm"]
        A, n, steps = np.array(problem["A"]), algo["mixing"]["n"], algo["K"]
        spectrum = np.diag(A)
        # the exact recursion's assumptions hold in this cell
        assert np.array_equal(A, np.diag(spectrum)) and not any(problem["b"])
        assert problem["beta"] == 0.0 and isinstance(algo["init"], float)
        assert algo["rule"] == "pre" and algo["v"] == 1
        exact = ref_exp.network_error(spectrum, problem["sigma_sq"],
                                      np.reshape(algo["mixing"]["entries"], (n, n)), algo["v"],
                                      algo["tau"], algo["rule"], algo["eta"], steps, algo["init"])

        # the tail seed mean lies within 5% of its exact expectation
        tail = tail_start(steps)
        expected = exact[tail:].mean()
        measured = network_error_column(out / name / "trace_mean.csv", tail).mean()
        per_seed = [network_error_column(out / name / f"trace_seed{seed}.csv", tail).mean()
                    for seed in cell["averaged_over_seeds"]]
        stderr = np.std(per_seed, ddof=1) / np.sqrt(len(per_seed)) / expected
        ratio = measured / expected
        assert abs(ratio - 1.0) <= 0.05, f"{name}: ratio {ratio:.4f} (se {stderr:.4f})"
        ratios.append(f"{name} {ratio:.4f}+-{stderr:.4f}")
    assert len(ratios) == 3  # alpha = 0.23 diverges (criterion 08)
    report(14, f"elastic tail network error / exact expectation (20-seed standard error): "
               f"{', '.join(ratios)}")
