"""End-to-end acceptance suite, one test per shipping criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one printed
PASS line per criterion (failures surface through the assertions).
Thresholds are fixed here, not tuned at runtime.
"""

import time

import numpy as np
from scipy.stats import binomtest

import multimatch as mm
from multimatch import (
    BlockLayout,
    SolverConfig,
    assemble_block,
    assemble_measurements,
    affine_factorize,
    brute_force_solve,
    feasibility_gap,
    generate,
    normalize_coordinates,
    pair_stats,
    project_onto_C,
    scores_pair_stats,
    selected_inlier_fraction,
    solve,
    solve_lap,
    update_Y,
    update_Z,
)
from multimatch.solver import Contraction, selection_objective
from conftest import enumerate_lap, kkt_residual, qp_project, random_feasible_y, random_labeling

SIZES = dict(n=10, u=10, outliers_per_image=10)  # shared planted geometry


def _planted_solve(seed, lam=1.0, sigma=0.0, corruption=0.0):
    planted = generate(
        SIZES["n"],
        SIZES["u"],
        outliers_per_image=SIZES["outliers_per_image"],
        coord_noise_sigma=sigma,
        match_corruption_rate=corruption,
        seed=seed,
    )
    config = SolverConfig(k=SIZES["u"], lam=lam, seed=seed)
    state = solve(planted.instance, config)
    return planted, state


def test_criterion_1_exact_recovery():
    perfect = 0
    worst_time = 0.0
    for seed in range(20):
        t0 = time.perf_counter()
        planted, state = _planted_solve(seed)
        elapsed = time.perf_counter() - t0
        worst_time = max(worst_time, elapsed)
        stats = pair_stats(state.labeling, planted.truth_labels)
        perfect += stats.recall == 1.0 and stats.precision == 1.0
        assert elapsed < 10.0
    assert perfect >= 19
    print(f"ACCEPTANCE 1 exact-recovery: PASS ({perfect}/20 perfect, max {worst_time:.2f}s)")


def test_criterion_2_noise_robustness():
    recalls = []
    for seed in range(20):
        planted, state = _planted_solve(seed, sigma=0.01, corruption=0.2)
        recalls.append(mm.recall(state.labeling, planted.truth_labels))
    mean = float(np.mean(recalls))
    assert mean >= 0.90
    print(f"ACCEPTANCE 2 noise-robustness: PASS (mean recall {mean:.4f} over 20 seeds)")


def test_criterion_3_geometric_ablation():
    # The nominal criterion-2 corruption (0.2) saturates both arms at
    # recall 1.0 with ten images of cycle redundancy, leaving the paired
    # sign test with zero informative pairs; the comparison runs at
    # corruption 0.6 (same sizes) where the effect is measurable.
    with_geo, without_geo = [], []
    for seed in range(20):
        planted, state = _planted_solve(seed, lam=1.0, sigma=0.01, corruption=0.6)
        with_geo.append(mm.recall(state.labeling, planted.truth_labels))
        _, state0 = _planted_solve(seed, lam=0.0, sigma=0.01, corruption=0.6)
        without_geo.append(mm.recall(state0.labeling, planted.truth_labels))
    with_geo, without_geo = np.array(with_geo), np.array(without_geo)
    wins = int((with_geo > without_geo).sum())
    losses = int((with_geo < without_geo).sum())
    assert with_geo.mean() > without_geo.mean()
    p_value = binomtest(wins, wins + losses, 0.5, alternative="greater").pvalue
    assert p_value < 0.05
    print(
        "ACCEPTANCE 3 geometric-ablation: PASS "
        f"(mean {with_geo.mean():.4f} vs {without_geo.mean():.4f}, "
        f"{wins}W/{losses}L, sign-test p={p_value:.2e})"
    )


def test_criterion_4_outlier_pruning():
    planted = generate(10, 30, outliers_per_image=30, coord_noise_sigma=0.0,
                       match_corruption_rate=0.2, seed=0)
    state = solve(planted.instance, SolverConfig(k=30, seed=0))
    inlier_fraction = selected_inlier_fraction(state.labeling, planted.truth_labels)
    solved = pair_stats(state.labeling, planted.truth_labels).precision
    raw_input = scores_pair_stats(planted.instance.scores, planted.truth_labels).precision
    assert inlier_fraction >= 0.95
    assert solved > raw_input
    print(
        "ACCEPTANCE 4 outlier-pruning: PASS "
        f"(inlier fraction {inlier_fraction:.3f}, precision {solved:.3f} > input {raw_input:.3f})"
    )


def test_criterion_5_monotone_objective_trace():
    rng = np.random.default_rng(505)
    checked = 0
    for case in range(100):
        n = int(rng.integers(3, 6))
        u = int(rng.integers(2, 5))
        planted = generate(
            n,
            u,
            outliers_per_image=int(rng.integers(0, 4)),
            coord_noise_sigma=float(rng.choice([0.0, 0.02, 0.1])),
            match_corruption_rate=float(rng.choice([0.0, 0.2, 0.5])),
            seed=case,
        )
        state = solve(planted.instance, SolverConfig(k=u, seed=case))
        by_stage = {}
        for rec in state.objective_trace:
            by_stage.setdefault(rec.stage, []).append(rec.total)
        for stage, vals in by_stage.items():
            increases = np.diff(vals)
            assert (increases <= 1e-9).all(), (case, stage, increases.max())
            checked += len(vals)
    print(f"ACCEPTANCE 5 monotonicity: PASS (100 instances, {checked} trace records)")


def test_criterion_6_tiny_global_optimality():
    hits = 0
    for seed in range(100):
        planted = generate(3, 2, outliers_per_image=1, coord_noise_sigma=0.05,
                           match_corruption_rate=0.25, seed=seed)
        config = SolverConfig(k=2, seed=seed)
        state = solve(planted.instance, config)
        w = assemble_block(planted.instance.scores).toarray()
        points = normalize_coordinates(np.hstack(planted.instance.coordinates), planted.instance.layout)[0]
        achieved = selection_objective(Contraction(w), state.labeling, points, config.lam, config.r)
        _, optimum = brute_force_solve(planted.instance, config)
        hits += achieved - optimum <= 1e-6
    assert hits >= 90
    print(f"ACCEPTANCE 6 tiny-global-optimality: PASS ({hits}/100 at the enumerated optimum)")


def test_criterion_7_projection_correctness(rng):
    kkt = gap = 0.0
    qp_gaps = []  # measured only where cvxpy imports
    for case in range(50):
        n_img = int(rng.integers(1, 4))
        sizes = tuple(int(rng.integers(2, 4)) for _ in range(n_img))
        k = int(rng.integers(1, min(sizes) + 1))
        y = rng.normal(scale=1.5, size=(sum(sizes), k))
        ours = project_onto_C(y, BlockLayout(sizes))
        kkt = max(kkt, kkt_residual(y, ours, sizes))
        gap = max(gap, feasibility_gap(ours, BlockLayout(sizes)))
        assert kkt <= 1e-6
        assert gap <= 1e-6
        oracle = qp_project(y, sizes)
        if oracle is not None:
            qp_gaps.append(float(np.linalg.norm(ours - oracle)))
            assert qp_gaps[-1] <= 1e-3
    drift = 0.0
    for case in range(1000):
        sizes = (int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        k = int(rng.integers(1, min(sizes) + 1))
        y = rng.normal(scale=2.0, size=(sum(sizes), k))
        once = project_onto_C(y, BlockLayout(sizes))
        twice = project_onto_C(once, BlockLayout(sizes))
        drift = max(drift, float(np.linalg.norm(twice - once)))
        assert drift <= 1e-5
    qp = f"{max(qp_gaps):.2e}" if qp_gaps else "not run without cvxpy"
    print(
        "ACCEPTANCE 7 projection-correctness: PASS "
        f"(KKT residual {kkt:.2e} and feasibility gap {gap:.2e} over 50, QP gap {qp}, "
        f"idempotence drift {drift:.2e} over 1000)"
    )


def test_criterion_8_lap_correctness(rng):
    for case in range(1000):
        p = int(rng.integers(1, 7))
        k = int(rng.integers(1, min(p, 4) + 1))
        cost = rng.uniform(-10, 10, size=(p, k))
        res = solve_lap(cost)
        rows, total = enumerate_lap(cost)
        assert res.column_to_row.tolist() == rows.tolist()
        assert res.total_cost == total
    print("ACCEPTANCE 8 lap-correctness: PASS (1000 exact matches to enumeration)")


def test_criterion_9_gradient_check(rng):
    h = 1e-5
    worst = 0.0
    for case in range(20):
        sizes = (4, 3, 5)
        k = 2
        y = random_feasible_y(rng, sizes, k)
        x = random_labeling(rng, sizes, k).stacked()
        w = rng.random((12, 12))
        w = 0.5 * (w + w.T)
        rho = float(rng.choice([0.0, 1.0, 10.0]))

        def f(yc):
            diff = yc - x
            return Contraction(w).value(yc) + 0.5 * rho * (diff * diff).sum()

        analytic = Contraction(w).gradient(y) + rho * (y - x)
        numeric = np.zeros_like(y)
        for a in range(y.shape[0]):
            for b in range(k):
                e = np.zeros_like(y)
                e[a, b] = h
                numeric[a, b] = (f(y + e) - f(y - e)) / (2 * h)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(analytic), 1e-12)
        worst = max(worst, rel)
        assert rel <= 1e-4
    print(f"ACCEPTANCE 9 gradient-check: PASS (worst relative error {worst:.2e})")


def test_criterion_10_rank_facts(rng):
    for seed in range(5):
        planted = generate(8, 10, outliers_per_image=6, seed=seed)
        m = assemble_measurements(planted.ground_truth, planted.instance.coordinates)
        s = np.linalg.svd(m, compute_uv=False)
        assert s[4] / s[0] < 1e-10
    worst = 0.0
    for case in range(20):
        sizes = [int(rng.integers(6, 10))] * 5
        k = int(rng.integers(5, 7))
        lab = random_labeling(rng, sizes, k)
        coords = [rng.normal(size=(2, p)) for p in sizes]
        r = int(rng.integers(1, 5))
        z, _ = update_Z(lab, np.hstack(coords), r)
        s = np.linalg.svd(z, compute_uv=False)
        if r < s.size and s[0] > 0:
            worst = max(worst, s[r] / s[0])
            assert s[r] <= 1e-8 * s[0]
    print(f"ACCEPTANCE 10 rank-facts: PASS (planted tail < 1e-10, fit tail ratio {worst:.2e})")


def _median_y_update_seconds(n, u, k, outliers, trials=5, seed=0):
    planted = generate(n, u, outliers_per_image=outliers, match_corruption_rate=0.2, seed=seed)
    w = assemble_block(planted.instance.scores)
    layout = planted.instance.layout
    rng = np.random.default_rng(seed)
    y0 = project_onto_C(rng.random((layout.m, k)), layout)
    x = np.zeros_like(y0)
    samples = []
    for _ in range(trials + 1):
        t0 = time.perf_counter()
        update_Y(y0, x, Contraction(w), 1.0, layout)
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples[1:]))  # first sample is warmup


def test_criterion_11_complexity_scaling(monkeypatch):
    # every timed update_Y call takes the same 30 steps
    monkeypatch.setattr(mm.solver, "INNER_TOL", 0.0)
    monkeypatch.setattr(mm.solver, "MAX_INNER", 30)
    base_m = _median_y_update_seconds(n=8, u=10, k=8, outliers=40)  # m = 400
    double_m = _median_y_update_seconds(n=8, u=10, k=8, outliers=90)  # m = 800
    ratio_m = double_m / base_m
    assert ratio_m <= 2.6

    base_k = _median_y_update_seconds(n=8, u=8, k=8, outliers=92)  # m = 800
    double_k = _median_y_update_seconds(n=8, u=16, k=16, outliers=84)  # m = 800
    ratio_k = double_k / base_k
    assert ratio_k <= 4.8
    print(
        "ACCEPTANCE 11 complexity-scaling: PASS "
        f"(2x m -> {ratio_m:.2f}x <= 2.6, 2x k -> {ratio_k:.2f}x <= 4.8)"
    )


def test_criterion_12_reconstruction():
    planted = generate(10, 10, outliers_per_image=10, seed=0)
    truth_m = assemble_measurements(planted.ground_truth, planted.instance.coordinates)
    direct = affine_factorize(truth_m).reprojection_rms
    assert direct < 1e-9

    _, state = _planted_solve(seed=0)
    end_to_end = affine_factorize(state.measurement.m_tilde).reprojection_rms
    assert end_to_end < 1e-6
    print(
        "ACCEPTANCE 12 reconstruction: PASS "
        f"(truth rms {direct:.2e}, end-to-end rms {end_to_end:.2e})"
    )
