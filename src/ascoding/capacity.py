"""Approximation-capacity curves and model selection.

For each inverse temperature beta on a grid, the per-object information rate
is assembled from four log-counts:

    info(beta) = (log_nsigma + logDZ - logZ1 - logZ2) / n

where log_nsigma counts the label vectors sharing the training minimizer's
type, logZ1/logZ2 are the single-sample log partition functions, and logDZ
is the joint (two-sample overlap) log partition function. The approximation
width gamma(beta) is the training Boltzmann mean cost in excess of the
empirical minimum, so sweeping beta sweeps gamma monotonically; the optimal
precision is the grid point of maximal info. `CapacityPoint.info` is this
formula, read off the point's log-counts. Every setting of both engines is
validated once, when its `CapacityConfig` is built, before any table is
enumerated or any chain runs.
"""
from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import exact as ex
from .core import (
    Assignment,
    Correspondence,
    Dataset,
    Kind,
    build_correspondence,
    log_type_class_size,
    type_distribution,
)
from .costs import (
    COST_RESOLUTION,
    DEFAULT_BUDGET,
    CostFunction,
    JointCost,
    KMeansCost,
    PairwiseCost,
    erm_search,
)
from .datagen import dissimilarity_from_vectors, write_csv_rows
from .errors import BudgetError
from .rng import derive_seed
from .thermo import FreeEnergyCurve, default_beta_grid, thermo_integrate

__all__ = [
    "CapacityPoint",
    "CapacityCurve",
    "CapacityConfig",
    "CandidateScore",
    "SelectionResult",
    "make_cost",
    "capacity_curve",
    "exact_points",
    "optimal_gamma",
    "select_model",
]

COST_FAMILIES = ("kmeans", "pairwise")


@dataclass(frozen=True)
class CapacityPoint:
    beta: float
    gamma: float
    log_nsigma: float
    log_z1: float
    log_z2: float
    log_dz: float
    n: int

    @property
    def info(self) -> float:
        """The per-object information rate of the module docstring."""
        return (self.log_nsigma + self.log_dz - self.log_z1 - self.log_z2) / self.n


@dataclass(frozen=True)
class CapacityCurve:
    points: tuple[CapacityPoint, ...]
    engine: str
    cost_name: str
    n: int
    k: int
    warnings: tuple[str, ...] = ()  # sampled self-check breaches

    def __post_init__(self):
        if not self.points:
            raise ValueError("curve must contain at least one point")
        gammas = [p.gamma for p in self.points]
        if any(g2 > g1 + 1e-9 for g1, g2 in zip(gammas, gammas[1:])):
            raise ValueError("gamma must be nonincreasing along the beta ordering")

    @property
    def best(self) -> CapacityPoint:
        """Info-maximizing point; ties resolve toward smaller gamma."""
        return min(self.points, key=lambda p: (-p.info, p.gamma))

    def write_csv(self, path: str) -> None:
        write_csv_rows(path, "beta,gamma,logZ1,logZ2,logDZ,log_nsigma,info",
                       ((p.beta, p.gamma, p.log_z1, p.log_z2, p.log_dz, p.log_nsigma, p.info)
                        for p in self.points))


@dataclass(frozen=True)
class CapacityConfig:
    """Grid, budget and sampler settings shared by both engines, validated
    once here. An explicit beta_grid starts at 0, is finite and strictly
    increasing, and is stored as a tuple of floats; None asks each engine
    for its own grid of grid_points betas."""

    beta_grid: tuple[float, ...] | None = None
    grid_points: int = 25
    budget: int = DEFAULT_BUDGET
    nsigma: str = "multinomial"  # or "asymptotic": exp(n H) in the exponent
    seed: int = 0
    chains: int = 4
    sweeps_burnin: int = 100
    sweeps_measure: int = 400
    restarts: int = 50

    def __post_init__(self):
        if self.nsigma not in ("multinomial", "asymptotic"):
            raise ValueError("nsigma must be 'multinomial' or 'asymptotic'")
        if self.beta_grid is not None:
            grid = tuple(float(b) for b in self.beta_grid)
            # `<` is false for NaN, so a NaN anywhere fails the order check
            if not (grid and grid[0] == 0.0 and grid[-1] < np.inf
                    and all(b1 < b2 for b1, b2 in zip(grid, grid[1:]))):
                raise ValueError("beta_grid must be finite, strictly increasing and start "
                                 f"at 0, got {self.beta_grid!r}")
            object.__setattr__(self, "beta_grid", grid)
        if self.grid_points < 2:
            raise ValueError(f"grid_points must be >= 2, got {self.grid_points}")
        for name in ("chains", "sweeps_burnin", "sweeps_measure", "restarts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


def make_cost(cost_family: str, data: Dataset, k: int) -> CostFunction:
    """Bind a named cost family to a dataset; pairwise costs on vector data
    use squared Euclidean dissimilarities."""
    if cost_family == "kmeans":
        return KMeansCost(data, k)
    if cost_family == "pairwise":
        if data.kind is Kind.VECTORS:
            data = dissimilarity_from_vectors(data)
        return PairwiseCost(data, k)
    raise ValueError(f"unknown cost family {cost_family!r}; expected one of {COST_FAMILIES}")


def _log_nsigma_of(minimizer: Assignment, nsigma: str) -> float:
    return log_type_class_size(type_distribution(minimizer), asymptotic=nsigma == "asymptotic")


def exact_points(tables: ex.ExactTables | Sequence[ex.ExactTables], betas,
                 nsigma: str) -> tuple[CapacityPoint, ...]:
    """Exact capacity points, one per beta, from three stacked passes (the
    training moments, the test log Z and the joint log Z of every point).
    tables is one ExactTables for every beta or one per beta; log_nsigma
    counts the type class of each point's training minimizer."""
    betas = [float(b) for b in betas]
    if isinstance(tables, ex.ExactTables):
        tables = [tables] * len(betas)
    lz1, gammas, _ = ex.stacked_moments([t.table1 for t in tables], betas)
    lz2 = ex.stacked_log_partition([t.table2 for t in tables], betas)
    ldz = ex.stacked_log_partition([t.joint for t in tables], betas)
    distinct = {id(t): t for t in tables}
    log_ns = {key: _log_nsigma_of(t.minimizer, nsigma) for key, t in distinct.items()}
    return tuple(
        CapacityPoint(beta=beta, gamma=gamma, log_nsigma=log_ns[id(t)], log_z1=a, log_z2=b,
                      log_dz=c, n=t.table1.n)
        for t, beta, gamma, a, b, c in zip(tables, betas, gammas.tolist(), lz1.tolist(),
                                           lz2.tolist(), ldz.tolist()))


def _check_engine(engine: str) -> None:
    if engine not in ("auto", "exact", "sampled"):
        raise ValueError(f"unknown engine {engine!r}")


def _pick_engine(engine: str, n: int, k: int, budget: int) -> str:
    _check_engine(engine)
    if engine == "auto":
        return "exact" if k**n <= budget else "sampled"
    return engine


def capacity_curve(
    train: Dataset,
    test: Dataset,
    cost_family: str,
    k: int,
    engine: str = "auto",
    cfg: CapacityConfig = CapacityConfig(),
    corr: Correspondence | None = None,
) -> CapacityCurve:
    """Information rate vs beta (equivalently gamma) for one model.

    engine="exact" enumerates the hypothesis class (k^n within budget);
    engine="sampled" estimates all three log partition functions by
    thermodynamic integration of Gibbs-sampled mean costs.
    """
    if train.n != test.n:
        raise ValueError("samples must share n")
    cost1 = make_cost(cost_family, train, k)
    cost2 = make_cost(cost_family, test, k)
    if corr is None:
        corr = build_correspondence(train, test)
    mode = _pick_engine(engine, train.n, k, cfg.budget)

    if mode == "exact":
        tables = ex.ExactTables.enumerate(cost1, cost2, corr, cfg.budget)
        grid = cfg.beta_grid or tables.auto_grid(cfg.grid_points)
        return CapacityCurve(points=exact_points(tables, grid, cfg.nsigma), engine="exact",
                             cost_name=cost_family, n=train.n, k=k)

    minimizer, r_min = erm_search(cost1, restarts=cfg.restarts, seed=cfg.seed)
    log_ns = _log_nsigma_of(minimizer, cfg.nsigma)
    grid = cfg.beta_grid or default_beta_grid(cost1, points=cfg.grid_points, seed=cfg.seed)

    # one ladder per cost, each on its own stream
    curve1, curve2, joint = thermo_integrate(
        (cost1, cost2, JointCost(cost1, cost2, corr)), dataclasses.replace(cfg, beta_grid=grid),
        seeds=[derive_seed(cfg.seed, salt) for salt in (1, 2, 3)])
    gammas = np.maximum(curve1.smoothed_mean_cost() - r_min, 0.0)
    # an excess below the costs' rounding noise is the ground state: levels
    # that all sit in it then tie at gamma 0, and the lowest beta wins
    gammas[gammas < COST_RESOLUTION * (abs(r_min) + gammas[0])] = 0.0
    points = tuple(CapacityPoint(
        beta=float(beta), gamma=float(gammas[i]), log_nsigma=log_ns,
        log_z1=float(curve1.log_z[i]), log_z2=float(curve2.log_z[i]),
        log_dz=float(joint.log_z[i]), n=train.n,
    ) for i, beta in enumerate(grid))
    r_joint = r_min + cost2.evaluate(minimizer.labels[corr.nu])
    warnings = _sampled_warnings(points, curve1, curve2, joint, r_min, r_joint)
    return CapacityCurve(points=points, engine="sampled", cost_name=cost_family,
                         n=train.n, k=k, warnings=warnings)


# the accuracy the sampled engine is validated to: 0.05 n nats in each
# log-partition estimate, so 3 x 0.05 nats per object in info, which sums three
_SAMPLED_SLACK = 0.05


def _sampled_warnings(points: tuple[CapacityPoint, ...], curve1: FreeEnergyCurve,
                      curve2: FreeEnergyCurve, joint: FreeEnergyCurve, r1: float,
                      r_joint: float) -> tuple[str, ...]:
    """Breaches of bounds that hold exactly, by more than the sampled
    engine's accuracy: log Z1 >= -beta R1(c) and log dZ >= -beta R_joint(c)
    at the ERM minimizer c, info <= log_nsigma / n at each of the curve's
    points; plus mean-cost rises beyond 2 standard errors in any of the
    three curves sampled by more than one chain."""
    n, betas = curve1.n, curve1.betas
    found = []

    def worst(name, excess, allowed, what):
        i = int(np.argmax(excess))
        if excess[i] > allowed:
            found.append(f"{name} {what} by {excess[i]:.6g} at beta={float(betas[i])!r}")

    worst("logZ1", -betas * r1 - curve1.log_z, _SAMPLED_SLACK * n,
          "below -beta R1(ERM minimizer)")
    worst("logDZ", -betas * r_joint - joint.log_z, _SAMPLED_SLACK * n,
          "below -beta (R1 + R2)(ERM minimizer)")
    worst("info", np.array([p.info - p.log_nsigma / n for p in points]), 3 * _SAMPLED_SLACK,
          "above log_nsigma/n")
    for name, curve in (("logZ1", curve1), ("logZ2", curve2), ("logDZ", joint)):
        # a single chain's curve has no standard error to measure rises by
        rises = curve.monotonicity_violations() if curve.stderr.any() else 0
        if rises:
            found.append(f"{name} mean cost rises with beta beyond 2 stderr at {rises} "
                         f"grid step{'s' if rises > 1 else ''}")
    return tuple(found)


def optimal_gamma(curve: CapacityCurve) -> tuple[float, float, float]:
    """(gamma_star, beta_star, info_star) at the curve's argmax."""
    p = curve.best
    return p.gamma, p.beta, p.info


@dataclass(frozen=True)
class CandidateScore:
    cost_family: str
    k: int
    curve: CapacityCurve

    @property
    def info_star(self) -> float:
        return self.curve.best.info

    def summary(self) -> dict:
        best = self.curve.best
        out = {
            "candidate": {"cost": self.cost_family, "k": self.k},
            "info_star": best.info,
            "gamma_star": best.gamma,
            "beta_star": best.beta,
        }
        if self.curve.warnings:
            out["warnings"] = list(self.curve.warnings)
        return out


@dataclass(frozen=True)
class SelectionResult:
    ranking: tuple[CandidateScore, ...]
    failures: tuple[tuple[str, int, str], ...]  # (cost_family, k, message)

    @property
    def best(self) -> CandidateScore:
        if not self.ranking:
            raise ValueError("no candidate succeeded")
        return self.ranking[0]


def select_model(
    candidates: list[tuple[str, int]],
    train: Dataset,
    test: Dataset,
    engine: str = "auto",
    cfg: CapacityConfig = CapacityConfig(),
    corr: Correspondence | None = None,
) -> SelectionResult:
    """Rank (cost_family, k) candidates by their approximation capacity.

    Configuration errors (an empty candidate list, an unknown engine, and
    every setting `CapacityConfig` validates when it is built) are raised
    before any candidate runs. Candidates that cannot be scored (unknown
    family, budget exceeded, bad input for the cost) are recorded and
    excluded; any other exception propagates. Ties keep candidate order.
    """
    if not candidates:
        raise ValueError("candidate list is empty")
    _check_engine(engine)
    scores: list[CandidateScore] = []
    failures: list[tuple[str, int, str]] = []
    for ci, (family, k) in enumerate(candidates):
        cand_cfg = dataclasses.replace(cfg, seed=derive_seed(cfg.seed, ci))
        try:
            curve = capacity_curve(train, test, family, k, engine=engine,
                                   cfg=cand_cfg, corr=corr)
        except (BudgetError, ValueError) as e:  # the candidate cannot be scored here
            failures.append((family, k, str(e)))
            continue
        scores.append(CandidateScore(cost_family=family, k=k, curve=curve))
    return SelectionResult(ranking=_rank(scores), failures=tuple(failures))


_TIE_RTOL = 1e-12  # info_star values this close (relative) are equal


def _rank(scores: list[CandidateScore]) -> tuple[CandidateScore, ...]:
    """Highest info_star first. Values within _TIE_RTOL of the best left are
    ties, and ties keep candidate order: capacities that are equal in exact
    arithmetic differ in their last bits by summation order."""
    order = sorted(range(len(scores)), key=lambda i: -scores[i].info_star)
    ranked = []
    while order:
        lead = scores[order[0]].info_star
        tied = sum(abs(scores[i].info_star - lead) <= _TIE_RTOL * abs(lead) for i in order)
        ranked += sorted(order[:tied])
        order = order[tied:]
    return tuple(scores[i] for i in ranked)
