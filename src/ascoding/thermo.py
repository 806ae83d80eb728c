"""Monte-Carlo estimation of log-partition functions and Boltzmann mean
costs.

log Z(beta) is recovered by thermodynamic integration of the identity
d log Z / d beta = -<R>_beta over a beta grid starting at 0, where
log Z(0) = n log k is known analytically. Mean costs at each grid point come
from independent single-site Gibbs chains whose generators are derived from
the master seed and chain index (standalone point estimates add a stream
index), so runs are reproducible bit-for-bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.optimize import isotonic_regression

from .core import Correspondence
from .costs import CostFunction, JointCost, SiteState
from .rng import derive_rng

__all__ = [
    "GibbsConfig",
    "FreeEnergyCurve",
    "estimate_mean_cost",
    "thermo_integrate_logZ",
    "joint_thermo_integrate",
    "default_beta_grid",
]


@dataclass(frozen=True)
class GibbsConfig:
    """Chain counts and the beta grid for thermodynamic integration."""

    beta_grid: tuple[float, ...]
    sweeps_burnin: int = 100
    sweeps_measure: int = 400
    chains: int = 4
    seed: int = 0

    def __post_init__(self):
        grid = tuple(float(b) for b in self.beta_grid)
        if not grid or grid[0] != 0.0:
            raise ValueError("beta_grid must start at 0")
        if any(b2 <= b1 for b1, b2 in zip(grid, grid[1:])):
            raise ValueError("beta_grid must be strictly increasing")
        if min(self.sweeps_burnin, self.sweeps_measure, self.chains) < 1:
            raise ValueError("sweep and chain counts must be >= 1")
        object.__setattr__(self, "beta_grid", grid)


@dataclass(frozen=True)
class FreeEnergyCurve:
    """Per-beta log-partition and mean-cost estimates."""

    betas: np.ndarray
    log_z: np.ndarray
    mean_cost: np.ndarray
    stderr: np.ndarray
    n: int
    k: int

    def __post_init__(self):
        for name in ("betas", "log_z", "mean_cost", "stderr"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        shape = self.betas.shape
        if self.betas.ndim != 1 or any(
            getattr(self, name).shape != shape for name in ("log_z", "mean_cost", "stderr")
        ):
            raise ValueError("curve columns must be 1-d and equally long")
        if self.betas[0] != 0.0:
            raise ValueError("curve must start at beta=0")

    def smoothed_mean_cost(self) -> np.ndarray:
        """Nonincreasing (isotonic) fit of the mean-cost estimates; keeps the
        gamma read off the curve monotone in beta despite Monte-Carlo noise."""
        return isotonic_regression(self.mean_cost, increasing=False).x

    def monotonicity_violations(self, z: float = 2.0) -> int:
        """Count of successive mean-cost increases beyond z combined standard
        errors; nonzero values flag under-sampling."""
        rise = np.diff(self.mean_cost)
        tol = z * np.sqrt(self.stderr[:-1] ** 2 + self.stderr[1:] ** 2)
        return int((rise > tol).sum())


def _sweep(state: SiteState, beta: float, rng: np.random.Generator, n: int) -> None:
    """One in-place Gibbs sweep: each site resampled in order from the
    conditional proportional to exp(-beta * delta)."""
    for i in range(n):
        d = state.deltas(i)
        w = np.exp(-beta * (d - d.min()))
        cs = np.cumsum(w)
        j = int(np.searchsorted(cs, rng.random() * cs[-1], side="right"))
        new = min(j, cs.size - 1) + 1
        if new != state.labels[i]:
            state.move(i, new)


def estimate_mean_cost(
    cost: CostFunction, beta: float, cfg: GibbsConfig, stream: int = 0
) -> tuple[float, float]:
    """Chain-averaged Boltzmann mean cost with a standard error across
    independent chains (0.0 for a single chain)."""
    chain_means = np.empty(cfg.chains)
    for chain in range(cfg.chains):
        rng = derive_rng(cfg.seed, stream, chain)
        state = cost.site_state(rng.integers(1, cost.k + 1, size=cost.n))
        for _ in range(cfg.sweeps_burnin):
            _sweep(state, beta, rng, cost.n)
        total = 0.0
        for _ in range(cfg.sweeps_measure):
            _sweep(state, beta, rng, cost.n)
            total += state.cost
        chain_means[chain] = total / cfg.sweeps_measure
    mean = float(chain_means.mean())
    err = float(chain_means.std(ddof=1) / np.sqrt(cfg.chains)) if cfg.chains > 1 else 0.0
    return mean, err


def thermo_integrate_logZ(cost: CostFunction, cfg: GibbsConfig) -> FreeEnergyCurve:
    """Estimate mean costs on the grid and integrate them into log Z(beta),
    anchored at the analytic log Z(0) = n log k.

    Each chain is warm-started along the beta ladder (annealed from beta=0
    upward); cold restarts at large beta can freeze above the ground state,
    which would bias the integral far beyond the Monte-Carlo error.
    """
    betas = np.asarray(cfg.beta_grid)
    per_chain = np.empty((cfg.chains, betas.size))
    for chain in range(cfg.chains):
        rng = derive_rng(cfg.seed, chain)
        state = cost.site_state(rng.integers(1, cost.k + 1, size=cost.n))
        for gi, beta in enumerate(betas):
            b = float(beta)
            for _ in range(cfg.sweeps_burnin):
                _sweep(state, b, rng, cost.n)
            total = 0.0
            for _ in range(cfg.sweeps_measure):
                _sweep(state, b, rng, cost.n)
                total += state.cost
            per_chain[chain, gi] = total / cfg.sweeps_measure
    means = per_chain.mean(axis=0)
    if cfg.chains > 1:
        errs = per_chain.std(axis=0, ddof=1) / np.sqrt(cfg.chains)
    else:
        errs = np.zeros_like(means)
    log_z = cost.n * np.log(cost.k) - cumulative_trapezoid(means, betas, initial=0.0)
    return FreeEnergyCurve(betas=betas, log_z=log_z, mean_cost=means, stderr=errs,
                           n=cost.n, k=cost.k)


def joint_thermo_integrate(
    cost1: CostFunction, cost2: CostFunction, corr: Correspondence, cfg: GibbsConfig
) -> FreeEnergyCurve:
    """Same machinery applied to the combined two-sample cost
    R(c, X1) + R(pushforward(c), X2) over training assignments."""
    return thermo_integrate_logZ(JointCost(cost1, cost2, corr), cfg)


def default_beta_grid(
    cost: CostFunction, points: int = 25, seed: int = 0, span: float = 1000.0
) -> tuple[float, ...]:
    """Geometric grid after 0, reaching the beta at which the mean acceptance
    of cost-increasing single-site moves drops to about 1%."""
    rng = derive_rng(seed, 104729)  # fixed pilot stream
    ups: list[float] = []
    for _ in range(64):
        state = cost.site_state(rng.integers(1, cost.k + 1, size=cost.n))
        for i in range(cost.n):
            d = state.deltas(i)
            ups.extend(d[d > 0].tolist())
        if len(ups) >= 256:
            break
    if not ups:  # flat cost landscape: any scale works
        return (0.0, *np.geomspace(0.1, 10.0, points))
    deltas = np.asarray(ups)

    def acceptance(beta: float) -> float:
        return float(np.exp(-beta * deltas).mean())

    hi = 1.0 / deltas.mean()
    while acceptance(hi) > 0.01:
        hi *= 2.0
    lo = 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if acceptance(mid) > 0.01:
            lo = mid
        else:
            hi = mid
    return (0.0, *np.geomspace(hi / span, hi, points))
