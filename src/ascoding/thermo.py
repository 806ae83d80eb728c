"""Monte-Carlo estimation of log-partition functions by thermodynamic
integration over a ladder of replicas.

log Z(beta) is recovered by integrating the identity d log Z / d beta =
-<R>_beta over a beta grid starting at 0, where log Z(0) = n log k is known
analytically. Every chain keeps one replica per grid point, and all
chains x grid points replicas move together through one batched Gibbs
kernel (`ReplicaState.sweep`), one uniform per replica and site. After each
sweep, replicas at adjacent grid points of a chain swap levels with
probability min(1, exp(dbeta * dE)), dE the colder replica's cost minus the
hotter one's (replica exchange, Hukushima & Nemoto 1996), in one round per
grid step, even pairs and odd pairs in turn. Configurations thus reach high
beta from the well-mixed low-beta end instead of freezing where they start.
After burn-in each replica's cost counts toward the level it occupies. All
draws come from one generator derived from the config seed, so runs are
reproducible bit-for-bit. The grid, sweep and chain counts and the seed
come from a validated `capacity.CapacityConfig`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .costs import COST_RESOLUTION, CostFunction
from .rng import derive_rng

if TYPE_CHECKING:
    from .capacity import CapacityConfig

__all__ = [
    "FreeEnergyCurve",
    "thermo_integrate_logZ",
    "default_beta_grid",
]

_PILOT_REPLICAS = 64  # random assignments whose site deltas set the grid's top
_GRID_SPAN = 1000.0  # ratio of the default grid's top beta to its first nonzero one


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
        gamma read off the curve monotone in beta despite Monte-Carlo noise.
        Pool-adjacent-violators: a block whose mean exceeds its left
        neighbour's merges into it."""
        sums: list[float] = []
        counts: list[int] = []
        for y in self.mean_cost.tolist():
            sums.append(y)
            counts.append(1)
            while len(sums) > 1 and sums[-2] / counts[-2] < sums[-1] / counts[-1]:
                total, count = sums.pop(), counts.pop()
                sums[-1] += total
                counts[-1] += count
        return np.repeat(np.divide(sums, counts), counts)

    def monotonicity_violations(self) -> int:
        """Count of successive mean-cost increases beyond 2 combined standard
        errors and beyond the costs' rounding noise; nonzero values flag
        under-sampling."""
        rise = np.diff(self.mean_cost)
        # replicas in one ground state report costs a few ulps apart, from
        # the rounding their statistics picked up along different moves
        tol = 2.0 * np.sqrt(self.stderr[:-1] ** 2 + self.stderr[1:] ** 2)
        tol += COST_RESOLUTION * np.abs(self.mean_cost).max()
        return int((rise > tol).sum())


def _level_means(cost: CostFunction, cfg: CapacityConfig) -> np.ndarray:
    """Mean cost of each chain at each grid point, shape (chains, levels),
    sampled by the replica-exchange ladder."""
    betas = np.asarray(cfg.beta_grid)
    chains, levels = cfg.chains, betas.size
    rng = derive_rng(cfg.seed)
    state = cost.replica_state(rng.integers(0, cost.k, size=(chains * levels, cost.n)))
    beta = np.tile(betas, chains)  # the beta of each replica's level
    # ladder[c, l] = (cost, index) of the replica at level l of chain c
    ladder = np.zeros((chains, levels, 2))
    ladder[:, :, 1] = np.arange(chains * levels).reshape(chains, levels)
    dbeta = np.diff(betas)
    # even, then odd pairs of adjacent levels as (hotter, colder, dbeta),
    # the first two views into the ladder
    pairs = []
    for start in (0, 1):
        stop = start + 2 * ((levels - start) // 2)
        if stop > start:
            pairs.append((ladder[:, start:stop:2], ladder[:, start + 1:stop:2],
                          dbeta[start:stop:2]))
    # levels - 1 swap rounds per sweep, even and odd pairs in turn, let a
    # configuration cross the whole ladder in one sweep: one quenched in a
    # poor local minimum at a cold level reaches the levels that melt it
    # within the burn-in
    rounds = [pairs[i % len(pairs)] for i in range(levels - 1)]
    total = np.zeros((chains, levels))
    for sweep in range(cfg.sweeps_burnin + cfg.sweeps_measure):
        state.sweep(beta, rng.random(state.labels.shape))
        ladder[:, :, 0] = state.cost[ladder[:, :, 1].astype(np.int64)]
        log_u = np.log(rng.random((len(rounds), chains, levels // 2)))
        for (hot, cold, gap), log_ui in zip(rounds, log_u):
            swap = (log_ui[:, :gap.size] < gap * (cold[:, :, 0] - hot[:, :, 0]))[:, :, None]
            hot[...], cold[...] = np.where(swap, cold, hot), np.where(swap, hot, cold)
        beta[ladder[:, :, 1].astype(np.int64)] = betas
        if sweep >= cfg.sweeps_burnin:
            total += ladder[:, :, 0]
    return total / cfg.sweeps_measure


def thermo_integrate_logZ(cost: CostFunction, cfg: CapacityConfig) -> FreeEnergyCurve:
    """Estimate mean costs on cfg's beta grid and integrate them by the
    trapezoid rule into log Z(beta), anchored at the analytic log Z(0) =
    n log k. The standard error at each grid point is taken across chains
    (0.0 for a single chain)."""
    if cfg.beta_grid is None:
        raise ValueError("thermodynamic integration needs an explicit beta_grid")
    betas = np.asarray(cfg.beta_grid)
    per_chain = _level_means(cost, cfg)
    means = per_chain.mean(axis=0)
    if cfg.chains > 1:
        errs = per_chain.std(axis=0, ddof=1) / np.sqrt(cfg.chains)
    else:
        errs = np.zeros_like(means)
    areas = np.cumsum(np.diff(betas) * (means[1:] + means[:-1]) / 2.0)
    log_z = cost.n * np.log(cost.k) - np.concatenate(([0.0], areas))
    return FreeEnergyCurve(betas=betas, log_z=log_z, mean_cost=means, stderr=errs,
                           n=cost.n, k=cost.k)


def default_beta_grid(cost: CostFunction, points: int = 25, seed: int = 0) -> tuple[float, ...]:
    """points betas: 0, then a geometric grid reaching the beta at which the
    mean acceptance of cost-increasing single-site moves drops to about 1%,
    over every site of _PILOT_REPLICAS uniform random assignments."""
    rng = derive_rng(seed, 104729)  # fixed pilot stream
    state = cost.replica_state(rng.integers(0, cost.k, size=(_PILOT_REPLICAS, cost.n)))
    deltas = np.concatenate([state.deltas(i).ravel() for i in range(cost.n)])
    deltas = deltas[deltas > 0]
    if not deltas.size:  # flat cost landscape: any scale works
        return (0.0, *np.geomspace(0.1, 10.0, points - 1))

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
    return (0.0, *np.geomspace(hi / _GRID_SPAN, hi, points - 1))
