"""Exhaustive-enumeration engine: exact approximation-set cardinalities,
partition functions, two-sample intersections, and Boltzmann averages.

Assignments are encoded as mixed-radix integers with object 0 as the least
significant digit (labels 1..k map to digits 0..k-1). The engine serves as
the trusted oracle for the sampling machinery.

Tables are built by halves (meet in the middle). With h = n // 2, index
lo + k^h * hi pairs the assignment `lo` of objects 0..h-1 with the
assignment `hi` of objects h..n-1. Each cost's per-cluster statistics are
additive over disjoint object sets, so every row of the table combines the
statistics of one low-half and one high-half assignment (see
costs.SplitHalf) instead of decoding and scoring its label vector. The
push-forward index of a training assignment is linear in its digits,
sum_j digit_j * w_j with w_j = sum of k^i over test objects i mapped to j,
so the joint table is table1 plus table2 gathered at p_lo[lo] + p_hi[hi].
Every reduction over a table uses numpy's own summation, never a BLAS dot,
so results do not depend on the BLAS thread count.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import Correspondence
from .costs import CostFunction, DEFAULT_BUDGET
from .errors import BudgetError

__all__ = [
    "CostTable",
    "GAMMA_SLACK",
    "decode_indices",
    "enumerate_costs",
    "pushforward_weights",
    "approx_set_size",
    "exact_log_partition",
    "log_partition_of_costs",
    "exact_mean_cost",
    "exact_log_partition_and_mean",
    "joint_cost_table",
    "exact_joint_log_partition",
    "exact_set_intersection",
]

GAMMA_SLACK = 1e-12  # absolute float slack on the approximation threshold
_BLOCK = 1 << 15


def decode_indices(indices: np.ndarray, n: int, k: int) -> np.ndarray:
    """Indices -> m x n label matrix (labels 1..k)."""
    radix = k ** np.arange(n, dtype=np.int64)
    return (np.asarray(indices, dtype=np.int64)[:, None] // radix[None, :]) % k + 1


@dataclass(frozen=True)
class CostTable:
    """All k^n costs of one cost function, in encoding order."""

    costs: np.ndarray
    n: int
    k: int
    r_min: float
    argmin_index: int

    @staticmethod
    def from_costs(costs: np.ndarray, n: int, k: int) -> "CostTable":
        costs = np.ascontiguousarray(costs, dtype=np.float64)
        if costs.size != k**n:
            raise ValueError(f"table length {costs.size} != k^n = {k**n}")
        costs.flags.writeable = False
        arg = int(np.argmin(costs))  # lowest index among exact ties
        return CostTable(costs=costs, n=n, k=k, r_min=float(costs[arg]), argmin_index=arg)

    def minimizer_labels(self) -> np.ndarray:
        return decode_indices(np.array([self.argmin_index]), self.n, self.k)[0]


@functools.lru_cache(maxsize=16)
def _half_labels(m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Digits (k^m x m, values 0..k-1) and per-label masks (k x k^m x m) of
    every assignment of m objects; cached and shared, hence read-only."""
    digits = decode_indices(np.arange(k**m, dtype=np.int64), m, k) - 1
    masks = (digits[None, :, :] == np.arange(k)[:, None, None]).astype(np.float64)
    digits.flags.writeable = False
    masks.flags.writeable = False
    return digits, masks


def _blocks(rows: int, cols: int):
    """(hi, lo) slice pairs tiling a rows x cols table in blocks of at most
    _BLOCK entries."""
    step_lo = min(cols, _BLOCK)
    step_hi = max(1, _BLOCK // step_lo)
    for h0 in range(0, rows, step_hi):
        for l0 in range(0, cols, step_lo):
            yield slice(h0, min(h0 + step_hi, rows)), slice(l0, min(l0 + step_lo, cols))


def enumerate_costs(cost: CostFunction, budget: int = DEFAULT_BUDGET) -> CostTable:
    """Materialize the full cost table of a hypothesis class from the
    split-half statistics of the cost."""
    if cost.k**cost.n > budget:
        raise BudgetError(f"k^n = {cost.k**cost.n} exceeds enumeration budget {budget}")
    h = cost.n // 2
    _, lo_masks = _half_labels(h, cost.k)
    _, hi_masks = _half_labels(cost.n - h, cost.k)
    halves = cost.split_half(lo_masks, hi_masks)
    out = np.empty((hi_masks.shape[1], lo_masks.shape[1]))
    for hi, lo in _blocks(*out.shape):
        out[hi, lo] = halves.block(lo, hi)
    return CostTable.from_costs(out.ravel(), cost.n, cost.k)


def pushforward_weights(nu: np.ndarray, k: int) -> np.ndarray:
    """w[..., j] = sum of k^i over test objects i with nu[..., i] = j, so the
    push-forward of training assignment c has index sum_j digit_j(c) w[j]."""
    nu = np.asarray(nu, dtype=np.int64)
    rows = nu.reshape(-1, nu.shape[-1])
    w = np.zeros(rows.shape, dtype=np.int64)
    np.add.at(w, (np.arange(rows.shape[0])[:, None], rows),
              k ** np.arange(rows.shape[1], dtype=np.int64))
    return w.reshape(nu.shape)


def _split_pushforward(corr: Correspondence, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(p_lo, p_hi) with pushforward(lo + k^h hi) = p_lo[lo] + p_hi[hi]."""
    h = n // 2
    w = pushforward_weights(corr.nu, k)
    lo_digits, _ = _half_labels(h, k)
    hi_digits, _ = _half_labels(n - h, k)
    return lo_digits @ w[:h], hi_digits @ w[h:]


def check_gamma(gamma: float) -> None:
    """Reject a negative or NaN approximation width; +inf admits every
    assignment."""
    if not gamma >= 0:
        raise ValueError(f"gamma must be >= 0, got {gamma!r}")


def approx_set_size(table: CostTable, gamma: float) -> int:
    """|{c : R(c) <= r_min + gamma}| with a small absolute slack on the
    threshold so boundary members are not lost to summation noise."""
    check_gamma(gamma)
    return int((table.costs <= table.r_min + gamma + GAMMA_SLACK).sum())


def _boltzmann_sums(costs: np.ndarray, r_min: float, beta: float,
                    with_mean: bool) -> tuple[float, float]:
    """(sum_c w(c), sum_c R(c) w(c)) with w(c) = exp(-beta (R(c) - r_min)),
    accumulated over chunks of _BLOCK entries in one reused buffer: fresh
    table-sized temporaries cost more than the arithmetic."""
    buf = np.empty(min(costs.size, _BLOCK))
    z = moment = 0.0
    for start in range(0, costs.size, _BLOCK):
        chunk = costs[start : start + _BLOCK]
        w = buf[: chunk.size]
        np.subtract(chunk, r_min, out=w)
        np.multiply(w, -beta, out=w)
        np.exp(w, out=w)
        z += w.sum()
        if with_mean:
            moment += np.multiply(w, chunk, out=w).sum()
    return z, moment


def log_partition_of_costs(costs: np.ndarray, r_min: float, beta: float) -> float:
    """Stable log sum exp(-beta * costs) given the minimum cost."""
    z, _ = _boltzmann_sums(costs, r_min, beta, with_mean=False)
    return float(-beta * r_min + np.log(z))


def _check_beta(beta: float) -> None:
    if beta < 0 or not np.isfinite(beta):
        raise ValueError("beta must be finite and >= 0")


def exact_log_partition(table: CostTable, beta: float) -> float:
    """log sum_c exp(-beta R(c)), max-subtracted; exactly n log k at beta=0."""
    _check_beta(beta)
    if beta == 0.0:
        return table.n * float(np.log(table.k))
    return log_partition_of_costs(table.costs, table.r_min, beta)


def exact_log_partition_and_mean(table: CostTable, beta: float) -> tuple[float, float]:
    """(log Z, Boltzmann mean cost) at beta from one pass over the table;
    log Z is exactly n log k at beta=0."""
    _check_beta(beta)
    z, moment = _boltzmann_sums(table.costs, table.r_min, beta, with_mean=True)
    mean = float(moment / z)
    if beta == 0.0:
        return table.n * float(np.log(table.k)), mean
    return float(-beta * table.r_min + np.log(z)), mean


def exact_mean_cost(table: CostTable, beta: float) -> float:
    """Boltzmann average of the cost at inverse temperature beta."""
    return exact_log_partition_and_mean(table, beta)[1]


def joint_cost_table(table1: CostTable, table2: CostTable, corr: Correspondence) -> np.ndarray:
    """Combined costs R(c, X1) + R(pushforward(c), X2) over all training
    assignments c, in table1's encoding order."""
    if table2.n != table1.n or table2.k != table1.k:
        raise ValueError("tables must share n and k")
    p_lo, p_hi = _split_pushforward(corr, table1.n, table1.k)
    costs1 = table1.costs.reshape(p_hi.size, p_lo.size)
    out = np.empty(costs1.shape)
    for hi, lo in _blocks(*out.shape):
        out[hi, lo] = costs1[hi, lo] + table2.costs[p_hi[hi, None] + p_lo[None, lo]]
    return out.ravel()


def exact_joint_log_partition(
    table1: CostTable,
    cost2: CostFunction,
    corr: Correspondence,
    beta: float,
    budget: int = DEFAULT_BUDGET,
) -> float:
    """log sum_c exp(-beta R(c, X1)) exp(-beta R(pushforward(c), X2)).

    The sum runs over training assignments; when the correspondence is a
    bijection this coincides with summing over test assignments.
    """
    _check_beta(beta)
    if beta == 0.0:
        return table1.n * float(np.log(table1.k))
    combined = joint_cost_table(table1, enumerate_costs(cost2, budget=budget), corr)
    return log_partition_of_costs(combined, float(combined.min()), beta)


def exact_set_intersection(
    table1: CostTable,
    table2: CostTable,
    corr: Correspondence,
    gamma: float,
) -> int:
    """#{c in C_gamma(X1) : pushforward(c) in C_gamma(X2)}, counted over
    training assignments (pushforward collisions are not collapsed)."""
    check_gamma(gamma)
    if table2.n != table1.n or table2.k != table1.k:
        raise ValueError("tables must share n and k")
    thresh1 = table1.r_min + gamma + GAMMA_SLACK
    member2 = table2.costs <= table2.r_min + gamma + GAMMA_SLACK
    p_lo, p_hi = _split_pushforward(corr, table1.n, table1.k)
    costs1 = table1.costs.reshape(p_hi.size, p_lo.size)
    count = 0
    for hi, lo in _blocks(*costs1.shape):
        sel = costs1[hi, lo] <= thresh1
        if sel.any():
            count += int(member2[(p_hi[hi, None] + p_lo[None, lo])[sel]].sum())
    return count
