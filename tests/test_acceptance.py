"""Acceptance gate: every criterion asserted at its stated tolerance.

Each test prints one `ACCEPTANCE <id> ...: PASS/FAIL` line (visible with
``pytest -s`` or in captured output).  The benchmark-grid criteria share one
module-scoped computation of the accuracy table.
"""

import math
import statistics
import time

import numpy as np
import pytest

from sphshepard import (
    InverseMultiquadric,
    ShepardConfig,
    evaluate,
    fit,
    geodesic_distance,
    normalize,
    random_uniform_sphere,
    rrmse,
    sh_basis,
    sh_dim,
    spiral_points,
    split_cross_validation,
    synthetic_geomagnetic,
)
from sphshepard import datasets
from sphshepard.cli import main as cli_main
from sphshepard.localfit import solve_saddle_batch
from sphshepard.zones import build_zones, compute_delta

SEEDS = [0, 1, 2, 3, 4]
DEGREES = [-1, 0, 1, 2]
EVAL_COUNT = 600

# Published RRMSE table for f1 (IMQ, gamma=0.5, n_Z=15, n_W=10, 600 spiral
# evaluation points); medians must land within one order of magnitude.
PUBLISHED_F1 = {
    1000: {-1: 3.4759e-4, 0: 2.5466e-4, 1: 1.0109e-4, 2: 2.3277e-5},
    4000: {-1: 2.8568e-5, 0: 1.8057e-5, 1: 8.2052e-6, 2: 1.3413e-6},
    16000: {-1: 1.7244e-6, 0: 1.2770e-6, 1: 8.1097e-7, 2: 4.3374e-8},
}


def report(cid, name, ok, detail=""):
    print(f"\nACCEPTANCE {cid} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


def run_cell(fid, n, seed, degree, spiral, truth):
    nodes = random_uniform_sphere(n, seed).points
    values = datasets.test_function(fid, nodes)
    model = fit(nodes, values, ShepardConfig(degree=degree))
    return rrmse(evaluate(model, spiral), truth)


@pytest.fixture(scope="module")
def spiral600():
    return spiral_points(EVAL_COUNT).points


@pytest.fixture(scope="module")
def f1_table(spiral600):
    """Per-seed RRMSEs for f1 over n x L, plus wall times per n."""
    truth = datasets.test_function("f1", spiral600)
    table = {}
    times = {}
    for n in (1000, 4000, 16000):
        t0 = time.perf_counter()
        for degree in DEGREES:
            table[n, degree] = [
                run_cell("f1", n, seed, degree, spiral600, truth) for seed in SEEDS
            ]
        times[n] = time.perf_counter() - t0
    return table, times


@pytest.fixture(scope="module")
def f2_table(spiral600):
    truth = datasets.test_function("f2", spiral600)
    return {
        degree: [run_cell("f2", 1000, seed, degree, spiral600, truth) for seed in SEEDS]
        for degree in (-1, 2)
    }


def medians(table, n):
    return {degree: statistics.median(table[n, degree]) for degree in DEGREES}


def test_criterion_1_published_accuracy(f1_table):
    table, times = f1_table
    lines, ok = [], True
    for n in (1000, 4000):
        med = medians(table, n)
        for degree in DEGREES:
            ratio = med[degree] / PUBLISHED_F1[n][degree]
            ok &= 0.1 <= ratio <= 10.0
            lines.append(f"n={n} L={degree:+d}: median={med[degree]:.3e} "
                         f"published={PUBLISHED_F1[n][degree]:.3e} ratio={ratio:.2f}")
    grid_time = times[1000] + times[4000]
    ok &= grid_time < 60.0
    report("1", "published accuracy reproduction", ok,
           f"(grid time {grid_time:.1f}s < 60s)\n" + "\n".join(lines))
    assert ok


def test_criterion_2_augmentation_benefit_f1(f1_table):
    table, _ = f1_table
    ok = True
    details = []
    for n in (1000, 4000):
        med = medians(table, n)
        ok &= med[2] < med[-1]
        middle = " > ".join(
            f"L={d:+d}:{med[d]:.3e}" for d in DEGREES
        )
        monotone = all(med[a] > med[b] for a, b in zip(DEGREES, DEGREES[1:]))
        details.append(f"n={n}: {middle} (fully monotone: {monotone})")
    report("2", "augmentation benefit for f1 (L=-1 vs L=2)", ok, "\n" + "\n".join(details))
    assert ok


def test_criterion_3_augmentation_benefit_f2(f2_table):
    med_plain = statistics.median(f2_table[-1])
    med_aug = statistics.median(f2_table[2])
    ok = med_aug < med_plain
    report("3", "augmentation benefit for f2 at n=1000", ok,
           f"(L=-1 median {med_plain:.3e} vs L=2 median {med_aug:.3e})")
    assert ok


def test_criterion_4_refinement_trend(f1_table):
    table, times = f1_table
    ok = times[16000] < 300.0
    details = [f"n=16000 grid time {times[16000]:.1f}s < 300s"]
    for degree in DEGREES:
        m1 = statistics.median(table[1000, degree])
        m4 = statistics.median(table[4000, degree])
        m16 = statistics.median(table[16000, degree])
        ok &= m1 > m4 > m16
        details.append(f"L={degree:+d}: {m1:.3e} > {m4:.3e} > {m16:.3e}")
        # per-seed refinement holds in at least 4 of 5 trials
        wins = sum(
            e4 < e1 for e1, e4 in zip(table[1000, degree], table[4000, degree])
        )
        ok &= wins >= 4
        details[-1] += f" (per-seed 1000->4000 wins: {wins}/5)"
    report("4", "refinement trend 1000 -> 4000 -> 16000", ok, "\n" + "\n".join(details))
    assert ok


def test_criterion_5_exactness_suite():
    nodes = random_uniform_sphere(500, 11).points
    values = datasets.test_function("f1", nodes)
    model = fit(nodes, values, ShepardConfig(degree=2))

    # (a) interpolation at the nodes
    at_nodes = evaluate(model, nodes)
    interp_err = np.max(np.abs(at_nodes - values) / (1.0 + np.abs(values)))
    ok_a = interp_err <= 1e-7

    # (b) partition of unity at random evaluation points
    from sphshepard.shepard import weights

    index = build_zones(nodes, compute_delta(500, 10, 1))
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(200):
        x = normalize(rng.normal(size=3))
        found = index.nearest_m(x, 10)
        w = weights(x, model, found.ids, found.distances)
        worst = max(worst, abs(w.sum() - 1.0))
    ok_b = worst <= 1e-12

    # (c) harmonic reproduction for L = 0, 1, 2
    ok_c = True
    pts = spiral_points(300).points
    recon = []
    for degree in (0, 1, 2):
        coeffs = np.random.default_rng(20 + degree).normal(size=sh_dim(degree))
        g_nodes = sh_basis(nodes, degree) @ coeffs
        g_pts = sh_basis(pts, degree) @ coeffs
        model_g = fit(nodes, g_nodes, ShepardConfig(degree=degree))
        err = rrmse(evaluate(model_g, pts), g_pts)
        recon.append(err)
        ok_c &= err <= 1e-7

    ok = ok_a and ok_b and ok_c
    report("5", "exactness suite", ok,
           f"(node interp {interp_err:.2e} <= 1e-7; unity dev {worst:.2e} <= 1e-12; "
           f"harmonic rrmse {['%.2e' % e for e in recon]} <= 1e-7)")
    assert ok


def test_criterion_6_search_oracle_equivalence():
    pts = random_uniform_sphere(500, 13).points
    index = build_zones(pts, compute_delta(500, 15, 1))
    rng = np.random.default_rng(14)
    agree = 0
    total = 0
    for q in range(50):
        center = normalize(rng.normal(size=3))
        # radii span the escalation path: from tiny caps up to delta = pi
        radius = compute_delta(500, 15, int(rng.integers(1, 1200)))
        found = set(index.query_cap(center, max(radius, 1e-3)).ids.tolist())
        d = geodesic_distance(pts, center)
        want = set(np.nonzero(d <= max(radius, 1e-3))[0].tolist())
        agree += found == want
        total += 1
    for m in (1, 5, 15, 100, 250, 500):
        for q in range(10):
            center = normalize(rng.normal(size=3))
            found = index.nearest_m(center, m)
            d = geodesic_distance(pts, center)
            want = np.lexsort((np.arange(500), d))[:m]
            agree += np.array_equal(found.ids, want)
            total += 1
    ok = agree == total
    report("6", "search-structure oracle equivalence", ok, f"({agree}/{total} queries agree)")
    assert ok


def test_criterion_7_local_solver_conditions():
    # 200 neighborhoods as the fit stage produces them: n_Z=15 nearest nodes
    # in a 1000-node random cloud, smooth field values.
    nodes = random_uniform_sphere(1000, 15).points
    values = datasets.test_function("f1", nodes)
    index = build_zones(nodes, compute_delta(1000, 15, 1))
    ids = np.stack([index.nearest_m(nodes[j], 15).ids for j in range(200)])
    pts, vals = nodes[ids], values[ids]
    kernel = InverseMultiquadric(0.5)
    a, b, _ = solve_saddle_batch(kernel, 2, pts, vals)

    from sphshepard import harmonics

    Y = harmonics.sh_basis(pts, 2)
    A = kernel.at_cos(np.clip(np.einsum("nik,njk->nij", pts, pts), -1.0, 1.0))
    interp = np.linalg.norm(
        np.einsum("nij,nj->ni", A, a) + np.einsum("niu,nu->ni", Y, b) - vals, axis=1
    ) / np.linalg.norm(vals, axis=1)
    moment = np.abs(np.einsum("niu,ni->nu", Y, a))
    bound = 1e-8 * np.linalg.norm(a, axis=1)[:, None] * np.abs(Y).max(axis=1)
    ok = bool(np.all(interp <= 1e-8) and np.all(moment <= bound))
    report("7", "local solver conditions on 200 neighborhoods", ok,
           f"(max interp resid {interp.max():.2e} <= 1e-8; "
           f"max moment ratio {(moment / bound).max():.2e} <= 1)")
    assert ok


def test_criterion_8_geomagnetic_cross_validation():
    results = {-1: [], 0: []}
    for seed in SEEDS:
        data = synthetic_geomagnetic(2084, seed)
        train, test = split_cross_validation(data, 200, seed)
        for degree in (-1, 0):
            config = ShepardConfig(
                n_z=12, n_w=10, kernel=InverseMultiquadric(0.96), degree=degree
            )
            model = fit(train.points, train.values, config)
            results[degree].append(rrmse(evaluate(model, test.points), test.values))
    med_plain = statistics.median(results[-1])
    med_aug = statistics.median(results[0])
    ok = med_aug <= med_plain
    report("8", "geomagnetic-style cross-validation", ok,
           f"(median L=0 {med_aug:.3e} <= median L=-1 {med_plain:.3e})")
    assert ok


def test_criterion_9_gamma_sweep_sanity(tmp_path):
    out = tmp_path / "sweep"
    code = cli_main([
        "benchmark", "--function", "f1", "--n", "1000", "--s", str(EVAL_COUNT),
        "--seeds", "1", "--degrees=-1,2", "--out", str(out),
    ])
    rows = (out / "gamma_sweep.csv").read_text().splitlines()[1:]
    gammas = sorted({float(r.split(",")[4]) for r in rows})
    errors = [float(r.split(",")[5]) for r in rows]
    expected_grid = [round(0.05 * i, 2) for i in range(1, 20)]
    ok = (
        code == 0
        and gammas == expected_grid
        and all(math.isfinite(e) for e in errors)
    )
    report("9", "shape-parameter sweep sanity", ok,
           f"(gamma grid {gammas[0]}..{gammas[-1]} x {len(rows)} rows, all finite: "
           f"{all(math.isfinite(e) for e in errors)})")
    assert ok
