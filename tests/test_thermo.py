import math

import numpy as np
import pytest

from ascoding.core import Correspondence, Dataset, build_correspondence
from ascoding.costs import KMeansCost, PairwiseCost
from ascoding.datagen import MixtureSpec, dissimilarity_from_vectors, draw_paired_samples
from ascoding.exact import (
    enumerate_costs,
    exact_joint_log_partition,
    exact_log_partition,
    exact_mean_cost,
)
from ascoding.rng import derive_rng
from ascoding.thermo import (
    FreeEnergyCurve,
    GibbsConfig,
    default_beta_grid,
    _sweep,
    estimate_mean_cost,
    joint_thermo_integrate,
    thermo_integrate_logZ,
)


def vecs(*rows):
    return Dataset.from_vectors(np.array(rows, dtype=float))


@pytest.fixture(scope="module")
def instance():
    spec = MixtureSpec(n=8, d=2, k_true=2, noise_sigma=0.8, separation=5.0, seed=4, balanced=True)
    x1, x2, _ = draw_paired_samples(spec)
    return x1, x2


@pytest.fixture(scope="module")
def cfg_for(instance):
    x1, _ = instance
    grid = default_beta_grid(KMeansCost(x1, 2), points=21, seed=0)
    return GibbsConfig(beta_grid=grid, sweeps_burnin=40, sweeps_measure=250, chains=3, seed=5)


@pytest.fixture(scope="module")
def km_curve(instance, cfg_for):
    x1, _ = instance
    return thermo_integrate_logZ(KMeansCost(x1, 2), cfg_for)


class TestGibbsConfig:
    def test_grid_must_start_at_zero(self):
        with pytest.raises(ValueError):
            GibbsConfig(beta_grid=(0.5, 1.0))

    def test_grid_strictly_increasing(self):
        with pytest.raises(ValueError):
            GibbsConfig(beta_grid=(0.0, 1.0, 1.0))

    def test_counts_positive(self):
        with pytest.raises(ValueError):
            GibbsConfig(beta_grid=(0.0, 1.0), chains=0)


class TestGibbsSweep:
    def test_beta_zero_resamples_uniformly(self):
        cost = KMeansCost(vecs([0.0], [1.0], [5.0], [6.0]), 2)
        rng = derive_rng(1)
        state = cost.site_state(np.array([1, 1, 1, 1]))
        counts = np.zeros(2)
        for _ in range(2000):
            _sweep(state, 0.0, rng, cost.n)
            counts[state.labels[0] - 1] += 1
        # site 0 frequency ~ Binomial(2000, 1/2); allow 4 sigma
        assert abs(counts[0] - 1000) < 4 * math.sqrt(2000 * 0.25)

    def test_zero_temperature_descends_and_freezes(self):
        data = vecs([0.0], [0.1], [10.0], [10.1])
        cost = KMeansCost(data, 2)
        rng = derive_rng(2)
        state = cost.site_state(np.array([1, 2, 1, 2]))
        for _ in range(30):
            _sweep(state, 1e6, rng, cost.n)
        frozen = state.labels.copy()
        assert cost.evaluate(frozen) == pytest.approx(0.01, abs=1e-9)
        for _ in range(10):
            _sweep(state, 1e6, rng, cost.n)
        assert np.array_equal(state.labels, frozen)

    def test_detailed_balance_two_site_chain(self):
        # empirical state frequencies vs exact Boltzmann weights, n=2, k=2
        data = vecs([0.0], [1.0])
        cost = KMeansCost(data, 2)
        beta = 1.7
        table = enumerate_costs(cost)
        weights = np.exp(-beta * table.costs)
        target = weights / weights.sum()
        rng = derive_rng(3)
        state = cost.site_state(np.array([1, 1]))
        counts = np.zeros(4)
        sweeps = 100_000
        for _ in range(sweeps):
            _sweep(state, beta, rng, 2)
            idx = (state.labels[0] - 1) + 2 * (state.labels[1] - 1)
            counts[idx] += 1
        freq = counts / sweeps
        # 3 sigma multinomial tolerance per state
        tol = 3 * np.sqrt(target * (1 - target) / sweeps)
        assert np.all(np.abs(freq - target) <= tol + 0.005)


class TestEstimateMeanCost:
    def test_beta_zero_matches_uniform_mean(self, instance):
        x1, _ = instance
        cost = KMeansCost(x1, 2)
        table = enumerate_costs(cost)
        cfg = GibbsConfig(beta_grid=(0.0, 1.0), sweeps_burnin=10, sweeps_measure=400,
                          chains=4, seed=1)
        mean, err = estimate_mean_cost(cost, 0.0, cfg)
        assert abs(mean - exact_mean_cost(table, 0.0)) <= 3 * err + 0.05

    def test_matches_exact_oracle_mid_beta(self, instance):
        x1, _ = instance
        cost = KMeansCost(x1, 2)
        table = enumerate_costs(cost)
        cfg = GibbsConfig(beta_grid=(0.0, 1.0), sweeps_burnin=100, sweeps_measure=600,
                          chains=4, seed=2)
        beta = 0.2
        mean, err = estimate_mean_cost(cost, beta, cfg)
        assert abs(mean - exact_mean_cost(table, beta)) <= 3 * err + 0.05

    def test_constant_zero_cost(self):
        cost = KMeansCost(vecs([1.0], [1.0], [1.0]), 2)
        cfg = GibbsConfig(beta_grid=(0.0, 1.0), sweeps_burnin=5, sweeps_measure=50,
                          chains=2, seed=0)
        mean, err = estimate_mean_cost(cost, 1.0, cfg)
        assert mean == 0.0 and err == 0.0

    def test_deterministic(self, instance):
        x1, _ = instance
        cost = KMeansCost(x1, 2)
        cfg = GibbsConfig(beta_grid=(0.0, 1.0), sweeps_burnin=20, sweeps_measure=100,
                          chains=2, seed=9)
        assert estimate_mean_cost(cost, 0.5, cfg) == estimate_mean_cost(cost, 0.5, cfg)


class TestThermoIntegration:
    def test_single_point_grid(self):
        cost = KMeansCost(vecs([0.0], [3.0]), 2)
        cfg = GibbsConfig(beta_grid=(0.0,), sweeps_burnin=5, sweeps_measure=20,
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
        cfg = GibbsConfig(beta_grid=(0.0, 1.0, 2.0), sweeps_burnin=5, sweeps_measure=30,
                          chains=2, seed=0)
        curve = thermo_integrate_logZ(cost, cfg)
        assert np.allclose(curve.log_z, 3 * math.log(2))

    def test_invariants(self, km_curve):
        assert km_curve.log_z[0] == 8 * math.log(2)
        assert np.all(np.diff(km_curve.log_z) <= 1e-12)
        assert km_curve.monotonicity_violations() == 0


class TestJointIntegration:
    def test_identical_sample_collapse(self, instance, cfg_for):
        x1, _ = instance
        cost = KMeansCost(x1, 2)
        table = enumerate_costs(cost)
        curve = joint_thermo_integrate(cost, cost, Correspondence.identity(8), cfg_for)
        exact = np.array([exact_log_partition(table, 2 * b) for b in curve.betas])
        assert np.abs(curve.log_z - exact).max() <= 0.05 * 8

    def test_beta_zero(self, instance, cfg_for):
        x1, x2 = instance
        curve = joint_thermo_integrate(
            KMeansCost(x1, 2), KMeansCost(x2, 2), build_correspondence(x1, x2), cfg_for
        )
        assert curve.log_z[0] == 8 * math.log(2)

    def test_against_exact_oracle(self, instance, cfg_for):
        x1, x2 = instance
        c1, c2 = KMeansCost(x1, 2), KMeansCost(x2, 2)
        corr = build_correspondence(x1, x2)
        table1 = enumerate_costs(c1)
        curve = joint_thermo_integrate(c1, c2, corr, cfg_for)
        exact = np.array(
            [exact_joint_log_partition(table1, c2, corr, b) for b in curve.betas]
        )
        assert np.abs(curve.log_z - exact).max() <= 0.05 * 8


class TestFreeEnergyCurve:
    def test_smoothed_mean_cost_is_isotonic(self):
        noisy = np.array([10.0, 6.1, 6.3, 2.0])  # non-monotone wiggle
        curve = FreeEnergyCurve(betas=np.arange(4.0), log_z=np.zeros(4), mean_cost=noisy,
                                stderr=np.full(4, 0.2), n=4, k=2)
        smoothed = curve.smoothed_mean_cost()
        assert smoothed == pytest.approx([10.0, 6.2, 6.2, 2.0], abs=1e-12)
        assert np.all(np.diff(smoothed) <= 0.0)


def test_default_grid_shape(instance):
    x1, _ = instance
    grid = default_beta_grid(KMeansCost(x1, 2), points=10, seed=0)
    assert grid[0] == 0.0 and len(grid) == 11
    assert all(b2 > b1 for b1, b2 in zip(grid, grid[1:]))


def test_curve_determinism(instance, cfg_for, km_curve):
    x1, _ = instance
    again = thermo_integrate_logZ(KMeansCost(x1, 2), cfg_for)
    assert np.array_equal(again.log_z, km_curve.log_z)
    assert np.array_equal(again.mean_cost, km_curve.mean_cost)
