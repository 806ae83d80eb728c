import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ascoding.capacity import CapacityConfig
from ascoding.core import Correspondence, Dataset, build_correspondence
from ascoding.costs import JointCost, KMeansCost, PairwiseCost
from ascoding.datagen import MixtureSpec, dissimilarity_from_vectors, draw_paired_samples
from ascoding.exact import (
    decode_indices,
    enumerate_costs,
    exact_log_partition,
    exact_moments,
    joint_cost_table,
)
from ascoding.rng import derive_rng
from ascoding.thermo import (
    FreeEnergyCurve,
    default_beta_grid,
    thermo_integrate_logZ,
)


def vecs(*rows):
    return Dataset.from_vectors(np.array(rows, dtype=float))


def mean_cost(table, beta):
    """Boltzmann average of the cost at beta."""
    return table.r_min + exact_moments(table, beta)[1]


@pytest.fixture(scope="module")
def instance():
    spec = MixtureSpec(n=8, d=2, k_true=2, noise_sigma=0.8, separation=5.0, seed=4, balanced=True)
    x1, x2, _ = draw_paired_samples(spec)
    return x1, x2


@pytest.fixture(scope="module")
def cfg_for(instance):
    x1, _ = instance
    grid = default_beta_grid(KMeansCost(x1, 2), points=21, seed=0)
    return CapacityConfig(beta_grid=grid, sweeps_burnin=40, sweeps_measure=250, chains=3,
                          seed=5)


@pytest.fixture(scope="module")
def km_curve(instance, cfg_for):
    x1, _ = instance
    return thermo_integrate_logZ(KMeansCost(x1, 2), cfg_for)


class TestGibbsSweep:
    """The batched Gibbs kernel, `ReplicaState.sweep`, one replica per row."""

    def test_beta_zero_resamples_uniformly(self):
        cost = KMeansCost(vecs([0.0], [1.0], [5.0], [6.0]), 2)
        rng = derive_rng(1)
        replicas = 2000
        state = cost.replica_state(np.zeros((replicas, 4), dtype=np.int64))
        state.sweep(np.zeros(replicas), rng.random((replicas, 4)))
        zeros = int((state.labels[:, 0] == 0).sum())
        # site 0 label ~ Binomial(2000, 1/2) over replicas; allow 4 sigma
        assert abs(zeros - 1000) < 4 * math.sqrt(2000 * 0.25)

    def test_zero_temperature_descends_and_freezes(self):
        data = vecs([0.0], [0.1], [10.0], [10.1])
        cost = KMeansCost(data, 2)
        rng = derive_rng(2)
        state = cost.replica_state(np.array([[0, 1, 0, 1], [1, 1, 1, 1]]))
        beta = np.full(2, 1e6)
        for _ in range(30):
            state.sweep(beta, rng.random((2, 4)))
        frozen = state.labels.copy()
        for labels in frozen:
            assert cost.evaluate(labels + 1) == pytest.approx(0.01, abs=1e-9)
        for _ in range(10):
            assert state.sweep(beta, rng.random((2, 4))) == 0
        assert np.array_equal(state.labels, frozen)

    def test_detailed_balance_two_site_chain(self):
        # empirical state frequencies vs exact Boltzmann weights, n=2, k=2
        data = vecs([0.0], [1.0])
        cost = KMeansCost(data, 2)
        beta = 1.7
        costs = cost.evaluate_batch(decode_indices(np.arange(4), 2, 2))  # all four states
        assert np.array_equal(enumerate_costs(cost).costs, costs[::2])
        weights = np.exp(-beta * costs)
        target = weights / weights.sum()
        rng = derive_rng(3)
        replicas, sweeps = 2000, 50
        state = cost.replica_state(np.zeros((replicas, 2), dtype=np.int64))
        betas = np.full(replicas, beta)
        for _ in range(5):  # burn-in from the all-zero start
            state.sweep(betas, rng.random((replicas, 2)))
        counts = np.zeros(4)
        for _ in range(sweeps):
            state.sweep(betas, rng.random((replicas, 2)))
            counts += np.bincount(state.labels[:, 0] + 2 * state.labels[:, 1], minlength=4)
        freq = counts / (replicas * sweeps)
        # 3 sigma multinomial tolerance per state
        tol = 3 * np.sqrt(target * (1 - target) / (replicas * sweeps))
        assert np.all(np.abs(freq - target) <= tol + 0.005)


class TestEstimateMeanCost:
    """Point estimates of the Boltzmann mean cost at one beta: grid (0, beta)."""

    def test_beta_zero_matches_uniform_mean(self, instance):
        x1, _ = instance
        cost = KMeansCost(x1, 2)
        table = enumerate_costs(cost)
        cfg = CapacityConfig(beta_grid=(0.0, 1.0), sweeps_burnin=10, sweeps_measure=400,
                             chains=4, seed=1)
        curve = thermo_integrate_logZ(cost, cfg)
        mean, err = curve.mean_cost[0], curve.stderr[0]
        assert abs(mean - mean_cost(table, 0.0)) <= 3 * err + 0.05

    def test_matches_exact_oracle_mid_beta(self, instance):
        x1, _ = instance
        cost = KMeansCost(x1, 2)
        table = enumerate_costs(cost)
        beta = 0.2
        cfg = CapacityConfig(beta_grid=(0.0, beta), sweeps_burnin=100, sweeps_measure=600,
                             chains=4, seed=2)
        curve = thermo_integrate_logZ(cost, cfg)
        mean, err = curve.mean_cost[1], curve.stderr[1]
        assert abs(mean - mean_cost(table, beta)) <= 3 * err + 0.05

    def test_constant_zero_cost(self):
        cost = KMeansCost(vecs([1.0], [1.0], [1.0]), 2)
        cfg = CapacityConfig(beta_grid=(0.0, 1.0), sweeps_burnin=5, sweeps_measure=50,
                             chains=2, seed=0)
        curve = thermo_integrate_logZ(cost, cfg)
        assert curve.mean_cost[1] == 0.0 and curve.stderr[1] == 0.0

    def test_deterministic(self, instance):
        x1, _ = instance
        cost = KMeansCost(x1, 2)
        cfg = CapacityConfig(beta_grid=(0.0, 0.5), sweeps_burnin=20, sweeps_measure=100,
                             chains=2, seed=9)
        a, b = thermo_integrate_logZ(cost, cfg), thermo_integrate_logZ(cost, cfg)
        assert np.array_equal(a.mean_cost, b.mean_cost)
        assert np.array_equal(a.stderr, b.stderr)


def _one_sample(costs, sweeps=200, chains=32):
    """How far one sample can move a level's mean: at high beta every chain
    may sit in the ground state for the whole run (zero spread), while the
    exact mean carries excitations rarer than one in all the level's
    samples."""
    return (costs.max() - costs.min()) / (sweeps * chains)


class TestReplicaExchangeMeans:
    """At n <= 8 every level's chain-averaged mean cost matches the exact
    Boltzmann mean from the full table within 4 standard errors. The error
    is estimated from the spread of the chains, so there are enough of them
    (32) for 4 of its units to mean about 4 sigma."""

    @pytest.mark.parametrize("family,n,k,seed", [
        ("kmeans", 6, 2, 0), ("pairwise", 6, 2, 1), ("kmeans", 6, 3, 2), ("pairwise", 6, 3, 3),
    ])
    def test_means_match_exact_boltzmann(self, family, n, k, seed):
        spec = MixtureSpec(n=n, d=2, k_true=2, noise_sigma=1.0, separation=4.0, seed=seed,
                           balanced=True)
        x1, _, _ = draw_paired_samples(spec)
        cost = KMeansCost(x1, k) if family == "kmeans" else \
            PairwiseCost(dissimilarity_from_vectors(x1), k)
        table = enumerate_costs(cost)
        grid = default_beta_grid(cost, points=8, seed=seed)
        curve = thermo_integrate_logZ(cost, CapacityConfig(
            beta_grid=grid, sweeps_burnin=50, sweeps_measure=200, chains=32, seed=seed))
        exact = np.array([mean_cost(table, b) for b in grid])
        assert np.all(np.abs(curve.mean_cost - exact) <= 4 * curve.stderr
                      + _one_sample(table.costs))

    def test_joint_means_match_exact_boltzmann(self, instance):
        x1, x2 = instance
        c1, c2 = KMeansCost(x1, 2), KMeansCost(x2, 2)
        corr = build_correspondence(x1, x2)
        joint = JointCost(c1, c2, corr)
        costs = np.array([joint.evaluate(np.array(c))
                          for c in itertools.product((1, 2), repeat=8)])
        grid = default_beta_grid(joint, points=8, seed=0)
        curve = thermo_integrate_logZ(joint, CapacityConfig(
            beta_grid=grid, sweeps_burnin=50, sweeps_measure=200, chains=32, seed=4))
        low = costs.min()
        exact = []
        for b in grid:
            w = np.exp(-b * (costs - low))
            exact.append((costs * w).sum() / w.sum())
        assert np.all(np.abs(curve.mean_cost - exact) <= 4 * curve.stderr
                      + _one_sample(costs))


class TestThermoIntegration:
    def test_grid_required(self):
        # CapacityConfig's None grid means "pick one"; the integrator cannot
        with pytest.raises(ValueError, match="beta_grid"):
            thermo_integrate_logZ(KMeansCost(vecs([0.0], [3.0]), 2), CapacityConfig())

    def test_single_point_grid(self):
        cost = KMeansCost(vecs([0.0], [3.0]), 2)
        cfg = CapacityConfig(beta_grid=(0.0,), sweeps_burnin=5, sweeps_measure=20,
                             chains=2, seed=0)
        curve = thermo_integrate_logZ(cost, cfg)
        assert curve.log_z[0] == 2 * math.log(2)

    def test_against_exact_oracle(self, instance, km_curve):
        x1, _ = instance
        table = enumerate_costs(KMeansCost(x1, 2))
        exact = np.array([exact_log_partition(table, b) for b in km_curve.betas])
        assert np.abs(km_curve.log_z - exact).max() <= 0.05 * 8

    def test_pairwise_against_exact_oracle(self, instance, cfg_for):
        x1, _ = instance
        cost = PairwiseCost(dissimilarity_from_vectors(x1), 2)
        table = enumerate_costs(cost)
        curve = thermo_integrate_logZ(cost, cfg_for)
        exact = np.array([exact_log_partition(table, b) for b in curve.betas])
        assert np.abs(curve.log_z - exact).max() <= 0.05 * 8

    def test_constant_zero_cost_flat(self):
        cost = KMeansCost(vecs([2.0], [2.0], [2.0]), 2)
        cfg = CapacityConfig(beta_grid=(0.0, 1.0, 2.0), sweeps_burnin=5, sweeps_measure=30,
                             chains=2, seed=0)
        curve = thermo_integrate_logZ(cost, cfg)
        assert np.allclose(curve.log_z, 3 * math.log(2))

    def test_log_z_is_the_trapezoid_rule(self, km_curve):
        betas, means = km_curve.betas.tolist(), km_curve.mean_cost.tolist()
        expected = [8 * math.log(2)]
        for i in range(1, len(betas)):
            area = (betas[i] - betas[i - 1]) * (means[i] + means[i - 1]) / 2
            expected.append(expected[-1] - area)
        assert km_curve.log_z.tolist() == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_invariants(self, km_curve):
        assert km_curve.log_z[0] == 8 * math.log(2)
        assert np.all(np.diff(km_curve.log_z) <= 1e-12)
        assert km_curve.monotonicity_violations() == 0


class TestJointIntegration:
    def test_identical_sample_collapse(self, instance, cfg_for):
        x1, _ = instance
        cost = KMeansCost(x1, 2)
        table = enumerate_costs(cost)
        curve = thermo_integrate_logZ(JointCost(cost, cost, Correspondence.identity(8)), cfg_for)
        exact = np.array([exact_log_partition(table, 2 * b) for b in curve.betas])
        assert np.abs(curve.log_z - exact).max() <= 0.05 * 8

    def test_beta_zero(self, instance, cfg_for):
        x1, x2 = instance
        curve = thermo_integrate_logZ(
            JointCost(KMeansCost(x1, 2), KMeansCost(x2, 2), build_correspondence(x1, x2)), cfg_for
        )
        assert curve.log_z[0] == 8 * math.log(2)

    def test_against_exact_oracle(self, instance, cfg_for):
        x1, x2 = instance
        c1, c2 = KMeansCost(x1, 2), KMeansCost(x2, 2)
        corr = build_correspondence(x1, x2)
        joint = joint_cost_table(enumerate_costs(c1), enumerate_costs(c2), corr)
        curve = thermo_integrate_logZ(JointCost(c1, c2, corr), cfg_for)
        exact = np.array([exact_log_partition(joint, b) for b in curve.betas])
        assert np.abs(curve.log_z - exact).max() <= 0.05 * 8


class TestFreeEnergyCurve:
    def test_smoothed_mean_cost_is_isotonic(self):
        noisy = np.array([10.0, 6.1, 6.3, 2.0])  # non-monotone wiggle
        curve = FreeEnergyCurve(betas=np.arange(4.0), log_z=np.zeros(4), mean_cost=noisy,
                                stderr=np.full(4, 0.2), n=4, k=2)
        smoothed = curve.smoothed_mean_cost()
        assert smoothed == pytest.approx([10.0, 6.2, 6.2, 2.0], abs=1e-12)
        assert np.all(np.diff(smoothed) <= 0.0)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([-3.0, -0.5, 0.0, 0.25, 1.0, 4.0])
                    | st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=12))
    @example([2.5])
    @example([1.0, 3.0])
    @example([3.0, 1.0])
    @example([0.7] * 6)
    @example([5.0, 4.0, 4.0, 1.0, -2.0])
    def test_smoothed_mean_cost_matches_min_max_formula(self, ys):
        # the nonincreasing least-squares fit is
        # f_i = min over a <= i of max over b >= i of mean(y[a..b])
        n = len(ys)
        curve = FreeEnergyCurve(betas=np.arange(float(n)), log_z=np.zeros(n),
                                mean_cost=np.array(ys), stderr=np.zeros(n), n=n, k=2)
        smoothed = curve.smoothed_mean_cost()
        reference = [min(max(math.fsum(ys[a:b + 1]) / (b + 1 - a) for b in range(i, n))
                         for a in range(i + 1)) for i in range(n)]
        assert smoothed.shape == (n,)
        assert smoothed == pytest.approx(reference, abs=1e-12 * max(1.0, *map(abs, ys)))
        assert np.all(np.diff(smoothed) <= 0.0)


def test_default_grid_shape(instance):
    x1, _ = instance
    grid = default_beta_grid(KMeansCost(x1, 2), points=10, seed=0)
    assert grid[0] == 0.0 and len(grid) == 10
    assert all(b2 > b1 for b1, b2 in zip(grid, grid[1:]))


def test_curve_determinism(instance, cfg_for, km_curve):
    x1, _ = instance
    again = thermo_integrate_logZ(KMeansCost(x1, 2), cfg_for)
    assert np.array_equal(again.log_z, km_curve.log_z)
    assert np.array_equal(again.mean_cost, km_curve.mean_cost)
