"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria are property- and oracle-based at desk scale; stated runtime
limits are asserted where the criterion gives one.
"""
import math
import time

import numpy as np
import pytest

from ascoding.capacity import CapacityConfig, capacity_curve, select_model
from ascoding.cli import main as cli_main
from ascoding import comms
from ascoding.comms import error_rate_grid, generate_codebook
from ascoding.core import build_correspondence
from ascoding.costs import JointCost, KMeansCost
from ascoding.datagen import MixtureSpec, draw_paired_samples
from ascoding.exact import enumerate_costs, exact_log_partition, exact_moments, joint_cost_table
from ascoding.capacity import make_cost
from ascoding.thermo import default_beta_grid, thermo_integrate_logZ

LN2 = math.log(2)


def report(num: int, passed: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if passed else 'FAIL'}: {detail}")


def instance(seed, n=8, d=2, k_true=2, sigma=0.8, sep=5.0):
    spec = MixtureSpec(n=n, d=d, k_true=k_true, noise_sigma=sigma, separation=sep,
                       seed=seed, balanced=True)
    x1, x2, _ = draw_paired_samples(spec)
    return x1, x2


def set_size(table, gamma):
    """|C_gamma|: k per slice member."""
    return table.k * int(table.members(gamma).sum())


def decoded_intersection(table1, table2, corr, gamma):
    """The channel decoder's score of the identity codeword when table2 is
    the received table: the two-sample approximation-set intersection."""
    identity = comms.Codebook(sigmas=np.arange(table1.n)[None], rate_bits=0.0, seed=0)
    (score,) = comms._overlap_scores(table2.members(gamma),
                                     comms._shifted_member_digits(table1, gamma),
                                     comms._codeword_weights(identity, corr, table1.k))
    return int(score)


def test_criterion_1_oracle_equivalence_partition_functions():
    """Sampled logZ and logDZ match exact within 0.05 n on 5 instances x 2
    cost functions; under 2 minutes."""
    t0 = time.time()
    tol = 0.05 * 8
    worst = 0.0
    for seed in range(5):
        x1, x2 = instance(seed)
        corr = build_correspondence(x1, x2)
        for family in ("kmeans", "pairwise"):
            c1 = make_cost(family, x1, 2)
            c2 = make_cost(family, x2, 2)
            grid = default_beta_grid(c1, points=16, seed=0)
            cfg = CapacityConfig(beta_grid=grid, sweeps_burnin=40, sweeps_measure=200,
                                 chains=3, seed=11)
            table1 = enumerate_costs(c1)
            joint_table = joint_cost_table(table1, enumerate_costs(c2), corr)
            curve = thermo_integrate_logZ(c1, cfg)
            err_z = max(abs(curve.log_z[i] - exact_log_partition(table1, b))
                        for i, b in enumerate(grid))
            joint = thermo_integrate_logZ(JointCost(c1, c2, corr), cfg)
            err_dz = max(abs(joint.log_z[i] - exact_log_partition(joint_table, b))
                         for i, b in enumerate(grid))
            worst = max(worst, err_z, err_dz)
    elapsed = time.time() - t0
    ok = worst <= tol and elapsed < 120
    report(1, ok, f"worst |logZ error| = {worst:.3f} (tol {tol}), {elapsed:.0f}s (limit 120s)")
    assert worst <= tol
    assert elapsed < 120


def test_criterion_2_beta_zero_analytic_identity():
    """First capacity point satisfies I(0) = H(type) - log k to 1e-9 with the
    asymptotic type-count option; balanced type gives exactly 0."""
    x1, x2 = instance(1)
    cfg = CapacityConfig(nsigma="asymptotic", beta_grid=(0.0,))
    curve = capacity_curve(x1, x2, "kmeans", 2, engine="exact", cfg=cfg)
    p0 = curve.points[0]
    identity_gap = abs(p0.info - (p0.log_nsigma / 8 - LN2))
    balanced_gap = abs(p0.info)  # balanced blobs: H = log 2
    ok = identity_gap <= 1e-9 and balanced_gap <= 1e-9
    report(2, ok, f"|I(0) - (H - log k)| = {identity_gap:.2e}, balanced I(0) = {p0.info:.2e}")
    assert identity_gap <= 1e-9
    assert balanced_gap <= 1e-9


@pytest.mark.xfail(
    strict=True,
    reason=(
        "Unattainable as stated: with identical samples the joint term obeys "
        "logDZ - logZ1 - logZ2 <= -log g where g >= 2 counts the label-swap-"
        "degenerate minimizers, so sup_beta I = (1 - 1/n) log 2 = 0.9375 log 2 "
        "at n=16, below the required 0.95 log 2."
    ),
)
def test_criterion_3_noise_free_ceiling():
    """X2 = X1, two well-separated balanced blobs, n=16, k=2, exact engine:
    the criterion demands max_beta I >= 0.95 log 2 per object."""
    t0 = time.time()
    spec = MixtureSpec(n=16, d=2, k_true=2, noise_sigma=0.5, separation=10.0,
                       seed=7, balanced=True)
    x1, _, _ = draw_paired_samples(spec)
    cfg = CapacityConfig(nsigma="asymptotic", grid_points=30)
    curve = capacity_curve(x1, x1, "kmeans", 2, engine="exact", cfg=cfg)
    best = max(p.info for p in curve.points)
    elapsed = time.time() - t0
    ok = best >= 0.95 * LN2 and elapsed < 60
    report(3, ok, f"max_beta I = {best:.6f} = {best / LN2:.4f} log2 "
                  f"(needs >= 0.95 log2 = {0.95 * LN2:.6f}); analytic ceiling "
                  f"(1 - 1/16) log2 = {15 / 16 * LN2:.6f}; {elapsed:.1f}s")
    assert elapsed < 60
    assert best >= 0.95 * LN2


def test_criterion_4_monotonicity_suite():
    """Approximation-set size nondecreasing in gamma; mean cost nonincreasing in
    beta with d logZ/d beta = -<R> at 1e-4 relative; gamma(beta)
    nonincreasing. Checked over random instances."""
    rng = np.random.default_rng(0)
    checked = 0
    for seed in range(5):
        x1, x2 = instance(seed, sigma=float(rng.uniform(0.5, 1.5)))
        table = enumerate_costs(KMeansCost(x1, 2))
        gammas = np.linspace(0.0, float(table.costs.max() - table.r_min) * 1.1, 25)
        sizes = [set_size(table, g) for g in gammas]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] == 2**8

        betas = np.geomspace(1e-3, 5.0, 12)
        means = [table.r_min + exact_moments(table, b)[1] for b in betas]
        assert all(a >= b - 1e-12 for a, b in zip(means, means[1:]))
        for b in (0.05, 0.5, 2.0):
            h = b * 1e-4
            fd = (exact_log_partition(table, b + h) - exact_log_partition(table, b - h)) / (2 * h)
            assert fd == pytest.approx(-(table.r_min + exact_moments(table, b)[1]), rel=1e-4)

        curve = capacity_curve(x1, x2, "kmeans", 2, engine="exact",
                               cfg=CapacityConfig(grid_points=15))
        gs = [p.gamma for p in curve.points]
        assert all(a >= b - 1e-9 for a, b in zip(gs, gs[1:]))
        checked += 1
    report(4, True, f"set sizes, mean costs, derivative identity, gamma(beta) on {checked} instances")


def test_criterion_5_error_bound_consistency():
    """n=8, k=2, m in {2,4,8}, 5-point gamma grid, 500 trials each:
    empirical error <= bound + Wilson half-width wherever bound < 1;
    zero-noise runs decode error-free. Under 10 minutes."""
    t0 = time.time()
    spec = MixtureSpec(n=8, d=2, k_true=2, noise_sigma=1.0, separation=6.0,
                       seed=1, balanced=True)
    gammas = (0.0, 2.0, 5.0, 10.0, 20.0)
    checked = violations = 0
    sizes = (2, 4, 8)
    codebooks = [generate_codebook(8, math.log2(m) / 8, seed=1) for m in sizes]
    grid = error_rate_grid(codebooks, spec, "kmeans", 2, gammas, trials=500,
                           seed=7, compute_bound=True)
    for m, row in zip(sizes, grid):
        for gamma, res in zip(gammas, row):
            if res.bound < 1.0:
                checked += 1
                halfwidth = 0.5 * (res.wilson_high - res.wilson_low)
                if res.p_hat > res.bound + halfwidth:
                    violations += 1
                    print(f"  violation: m={m} gamma={gamma} p={res.p_hat:.4f} "
                          f"bound={res.bound:.4f} hw={halfwidth:.4f}")

    zero_spec = MixtureSpec(n=8, d=2, k_true=2, noise_sigma=0.0, separation=6.0,
                            seed=1, balanced=True)
    zero_rates = []
    for m in (2, 4, 8):
        codebook = generate_codebook(8, math.log2(m) / 8, seed=1)
        [[res]] = error_rate_grid([codebook], zero_spec, "kmeans", 2, [0.0], trials=500, seed=7)
        zero_rates.append(res.p_hat)
    elapsed = time.time() - t0
    ok = violations == 0 and all(p == 0.0 for p in zero_rates) and elapsed < 600
    report(5, ok, f"{checked} grid points with bound < 1, {violations} violations; "
                  f"zero-noise p_hat = {zero_rates}; {elapsed:.0f}s (limit 600s)")
    assert violations == 0
    assert all(p == 0.0 for p in zero_rates)
    assert elapsed < 600


def test_criterion_6_model_order_recovery():
    """3 balanced blobs (separation/noise = 6), n=9, candidates k in 1..4,
    exact engine, 20 seeds: k=3 selected at least 16 times. Under 5 min."""
    t0 = time.time()
    wins = 0
    for seed in range(20):
        spec = MixtureSpec(n=9, d=3, k_true=3, noise_sigma=1.0, separation=6.0,
                           seed=seed, balanced=True)
        x1, x2, _ = draw_paired_samples(spec)
        result = select_model([("kmeans", k) for k in (1, 2, 3, 4)], x1, x2,
                              engine="exact", cfg=CapacityConfig(grid_points=20))
        if result.best.k == 3:
            wins += 1
        else:
            scores = {s.k: round(s.info_star, 4) for s in result.ranking}
            print(f"  seed {seed} selected k={result.best.k}; info_star by k: {scores}")
    elapsed = time.time() - t0
    ok = wins >= 16 and elapsed < 300
    report(6, ok, f"k=3 selected in {wins}/20 seeds (needs >= 16); {elapsed:.0f}s (limit 300s)")
    assert wins >= 16
    assert elapsed < 300


def test_criterion_7_cli_determinism(tmp_path):
    """Every CLI subcommand rerun with identical flags and seed reproduces
    byte-identical outputs."""
    def snapshot(out):
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def check(name, *argv):
        out = tmp_path / name
        argv = [str(a) for a in argv] + ["--out", str(out)]
        assert cli_main(argv) == 0
        first = snapshot(out)
        assert cli_main(argv) == 0
        assert snapshot(out) == first, f"{name} outputs changed on rerun"

    check("gen", "gen", "--n", 8, "--k-true", 2, "--sep", 6, "--sigma", 0.5,
          "--seed", 3, "--balanced")
    data = tmp_path / "gen"
    check("cap_exact", "capacity", "--train", data / "train.csv",
          "--test", data / "test.csv", "--cost", "kmeans", "--k", 2,
          "--engine", "exact", "--seed", 3)
    check("cap_sampled", "capacity", "--train", data / "train.csv",
          "--test", data / "test.csv", "--cost", "kmeans", "--k", 2,
          "--engine", "sampled", "--beta-grid", "0,0.1,0.4", "--chains", 2,
          "--burnin", 15, "--sweeps", 60, "--restarts", 10, "--seed", 3)
    check("select", "select", "--train", data / "train.csv",
          "--test", data / "test.csv", "--cost", "kmeans", "--k", "1,2",
          "--engine", "exact", "--seed", 3)
    check("simulate", "simulate", "--n", 8, "--k-true", 2, "--sep", 6,
          "--sigma", 1.0, "--balanced", "--cost", "kmeans", "--k", 2,
          "--gammas", "0,2", "--codebook-sizes", "2,4", "--trials", 30, "--seed", 3)
    report(7, True, "gen, capacity (exact & sampled), select, simulate byte-identical on rerun")


def test_criterion_8_intersection_bounds():
    """Intersection never exceeds the training set size; equals it for
    identical samples with identity correspondence; logDZ <= logZ1."""
    worst_gap = 0.0
    for seed in range(5):
        x1, x2 = instance(seed, sigma=1.0)
        c1, c2 = KMeansCost(x1, 2), KMeansCost(x2, 2)
        corr = build_correspondence(x1, x2)
        t1, t2 = enumerate_costs(c1), enumerate_costs(c2)
        joint = joint_cost_table(t1, t2, corr)
        span = float(t1.costs.max() - t1.r_min)
        for gamma in np.linspace(0.0, span, 12):
            assert decoded_intersection(t1, t2, corr, gamma) <= set_size(t1, gamma)
        ident = build_correspondence(x1, x1)
        for gamma in np.linspace(0.0, span, 8):
            assert decoded_intersection(t1, t1, ident, gamma) == set_size(t1, gamma)
        for beta in (0.0, 0.2, 1.0, 4.0):
            gap = exact_log_partition(joint, beta) - exact_log_partition(t1, beta)
            worst_gap = max(worst_gap, gap)
            assert gap <= 1e-12
    report(8, True, f"bounds hold on 5 instances; max(logDZ - logZ1) = {worst_gap:.2e}")
