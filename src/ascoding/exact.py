"""Exhaustive-enumeration engine: exact cost tables, approximation-set
membership, partition functions and Boltzmann moments.

Assignments are encoded as mixed-radix integers with object 0 as the least
significant digit (labels 1..k map to digits 0..k-1). The engine serves as
the trusted oracle for the sampling machinery.

Tables are built by halves (meet in the middle). With h = max(1, n // 2),
index lo + k^h * hi pairs the assignment `lo` of objects 0..h-1 with the
assignment `hi` of objects h..n-1. Each cost's per-cluster statistics are
additive over disjoint object sets, so every row of the table combines the
statistics of one low-half and one high-half assignment (see
costs.SplitHalf) instead of decoding and scoring its label vector. The
push-forward index of a training assignment is linear in its digits,
sum_j digit_j * w_j with w_j = sum of k^i over test objects i mapped to j,
so the joint table is table1 plus table2 gathered at one term per half.

Costs, memberships and overlaps do not change when the k clusters are
relabeled, so every table is one label-symmetry slice: the k^(n-1)
assignments with object 0 in cluster 1, every k-th index of the encoding
(the low-half assignments lo_masks[:, ::k]). Each relabeling orbit meets
the slice in exactly 1/k of its members, so partition functions and counts
are k times the slice's, and Boltzmann averages are equal. The joint table
gathers table2 at the slice form of each push-forward: every label shifted
by minus the label of test object 0 (at k = 2, idx -> 2^n - 1 - idx).

ExactTables holds the training, test and joint tables of one sample pair
and calibrates beta for a target gamma on the training table; capacity
curves, point queries and the channel bound each build one per pair.

Boltzmann sums are taken over stacks of equal-length tables, each row at
its own beta (stacked_moments, stacked_log_partition): tables of at most
_BLOCK entries share numpy calls, and every row sums exactly what a pass
over its table alone sums, so stacking never changes a value.
calibrate_betas advances many beta calibrations in lock-step on such
stacks; exact_moments, exact_log_partition and
ExactTables.beta_for_gamma are their one-table cases.

Every reduction over a table uses numpy's own summation, never a BLAS dot,
so results do not depend on the BLAS thread count.
"""
from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import Assignment, Correspondence
from .costs import COST_RESOLUTION, DEFAULT_BUDGET, CostFunction
from .errors import BudgetError

__all__ = [
    "CostTable",
    "ExactTables",
    "GAMMA_SLACK",
    "calibrate_betas",
    "decode_indices",
    "enumerate_costs",
    "pushforward_weights",
    "exact_log_partition",
    "exact_moments",
    "joint_cost_table",
    "stacked_log_partition",
    "stacked_moments",
]

GAMMA_SLACK = 1e-12  # absolute float slack on the approximation threshold
_BLOCK = 1 << 15
_TILE = 1 << 13  # 64 KiB, below glibc's mmap threshold: tiles reuse heap pages


def decode_indices(indices: np.ndarray, n: int, k: int) -> np.ndarray:
    """Indices -> m x n label matrix (labels 1..k)."""
    radix = k ** np.arange(n, dtype=np.int64)
    return (np.asarray(indices, dtype=np.int64)[:, None] // radix[None, :]) % k + 1


def _lowest_in_orbit(indices: np.ndarray, n: int, k: int) -> np.ndarray:
    """Lowest index among the relabelings of each assignment: labels
    renumbered 0, 1, ... in order of first appearance from object n-1 (the
    most significant digit) down."""
    digits = decode_indices(indices, n, k) - 1
    rows = np.arange(len(digits))
    relabel = np.full((len(digits), k), -1, dtype=np.int64)
    fresh = np.zeros(len(digits), dtype=np.int64)
    for i in range(n - 1, -1, -1):
        d = digits[:, i]
        new = relabel[rows, d] < 0
        relabel[rows[new], d[new]] = fresh[new]
        fresh += new
        digits[:, i] = relabel[rows, d]
    return digits @ k ** np.arange(n, dtype=np.int64)


@dataclass(frozen=True)
class CostTable:
    """Costs of one cost function on the slice: the k^(n-1) assignments with
    object 0 in cluster 1, entry i holding encoding index k * i. argmin_index,
    computed on first read, is an encoding index: the lowest member of the
    relabeling orbits of the tied minima, which is the lowest tied index of
    all k^n assignments whenever relabelings cost the same bits (at k <= 2
    the cluster costs add commutatively; at k >= 3 they are summed in label
    order, so relabelings can differ by an ulp)."""

    costs: np.ndarray
    n: int
    k: int
    r_min: float

    @staticmethod
    def from_costs(costs: np.ndarray, n: int, k: int) -> "CostTable":
        costs = np.ascontiguousarray(costs, dtype=np.float64)
        if costs.size != k ** (n - 1):
            raise ValueError(f"table length {costs.size} != {k ** (n - 1)}")
        costs.flags.writeable = False
        return CostTable(costs=costs, n=n, k=k, r_min=float(costs.min()))

    @functools.cached_property
    def argmin_index(self) -> int:
        # every tied orbit meets the slice; its lowest member may not
        tied = np.flatnonzero(self.costs == self.r_min) * self.k
        return min(int(_lowest_in_orbit(tied[i : i + _BLOCK], self.n, self.k).min())
                   for i in range(0, tied.size, _BLOCK))

    def minimizer_labels(self) -> np.ndarray:
        return decode_indices(np.array([self.argmin_index]), self.n, self.k)[0]

    def members(self, gamma: float) -> np.ndarray:
        """Mask of the slice's gamma-approximation set: costs within gamma
        of the minimum, with a small absolute slack on the threshold so
        boundary members are not lost to summation noise."""
        check_gamma(gamma)
        return self.costs <= self.r_min + gamma + GAMMA_SLACK


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
    _TILE entries."""
    step_lo = min(cols, _TILE)
    step_hi = max(1, _TILE // step_lo)
    for h0 in range(0, rows, step_hi):
        for l0 in range(0, cols, step_lo):
            yield slice(h0, min(h0 + step_hi, rows)), slice(l0, min(l0 + step_lo, cols))


def _low_half(n: int) -> int:
    """Objects in the low half; at least object 0, which fixes the slice."""
    return max(1, n // 2)


def enumerate_costs(cost: CostFunction, budget: int = DEFAULT_BUDGET) -> CostTable:
    """Materialize the cost table of a hypothesis class on its slice from
    the split-half statistics of the cost; budget bounds k^n."""
    if cost.k**cost.n > budget:
        raise BudgetError(f"k^n = {cost.k**cost.n} exceeds enumeration budget {budget}")
    h = _low_half(cost.n)
    lo_masks = _half_labels(h, cost.k)[1][:, :: cost.k]
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


def _pushforward_index(corr: Correspondence, n: int, k: int):
    """index(hi, lo): for the block [hi, lo] of a table laid out as (hi, lo)
    halves, the entries of a second table that hold the push-forwards of its
    assignments."""
    h = _low_half(n)
    w = pushforward_weights(corr.nu, k)
    hi_digits, _ = _half_labels(n - h, k)
    lo_digits = _half_labels(h, k)[0][::k]
    # Shifting every label by -s is a relabeling; with s the label of
    # training object j0 = nu[0], which test object 0 inherits, it puts the
    # push-forward on the slice. Test object 0 is the only one whose weight
    # k^0 is not a multiple of k, so the half without j0 contributes a
    # multiple of k at every shift, and the half with j0 does at its own s.
    shifts = np.arange(k)[:, None, None]
    q_lo = ((lo_digits - shifts) % k) @ w[:h] // k
    q_hi = ((hi_digits - shifts) % k) @ w[h:] // k
    j0 = int(corr.nu[0])
    if j0 < h:  # s follows the low-half assignment
        s = lo_digits[:, j0]
        own = q_lo[s, np.arange(len(s))]
        other = np.ascontiguousarray(q_hi.T)
        return lambda hi, lo: np.take(other[hi], s[lo], axis=1) + own[None, lo]
    s = hi_digits[:, j0 - h]
    own = q_hi[s, np.arange(len(s))]
    return lambda hi, lo: q_lo[:, lo][s[hi]] + own[hi, None]


def check_gamma(gamma: float) -> None:
    """Reject a negative or NaN approximation width; +inf admits every
    assignment."""
    if not gamma >= 0:
        raise ValueError(f"gamma must be >= 0, got {gamma!r}")


def _stacked(tables: Sequence[CostTable]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(costs, r_min, rows) of equal-length tables: the distinct tables as the
    rows of one array (a view of the table when there is one), and per given
    table its row and its minimum."""
    slot: dict[int, int] = {}
    distinct: list[CostTable] = []
    for t in tables:
        if slot.setdefault(id(t), len(distinct)) == len(distinct):
            distinct.append(t)
    rows = np.array([slot[id(t)] for t in tables], dtype=np.intp)
    if not distinct:
        costs = np.empty((0, 1))
    elif len(distinct) == 1:
        costs = distinct[0].costs[None]
    else:
        costs = np.stack([t.costs for t in distinct])
    return costs, np.array([t.r_min for t in tables], dtype=np.float64), rows


def _boltzmann_sums(costs: np.ndarray, r_min: np.ndarray, rows: np.ndarray, beta: np.ndarray,
                    order: int) -> np.ndarray:
    """sums[j, i] = sum_c w(c) x(c)^j for j = 0..order over the table
    costs[rows[i]], with x(c) = R(c) - r_min[i] and w(c) = exp(-beta[i] x(c));
    in excess form, minima contribute x = 0 exactly. Every beta is checked
    before any pass.

    Tables of at most _BLOCK entries are evaluated _BLOCK // N rows per numpy
    call; a longer table one row at a time, over chunks of _BLOCK entries.
    Buffers are reused and never exceed _BLOCK entries: fresh table-sized
    temporaries cost more than the arithmetic. A row sums exactly the chunks
    a one-table pass sums, so its sums do not depend on the rows beside it."""
    if beta.shape != rows.shape:
        raise ValueError(f"{beta.size} betas for {rows.size} tables")
    if not (np.isfinite(beta).all() and (beta >= 0).all()):
        raise ValueError("beta must be finite and >= 0")
    size = costs.shape[1]
    sums = np.zeros((order + 1, rows.size))
    if size > _BLOCK:
        x_buf, w_buf = np.empty(_BLOCK), np.empty(_BLOCK)
        for i in range(rows.size):
            for start in range(0, size, _BLOCK):
                chunk = costs[rows[i], start : start + _BLOCK]
                x, w = x_buf[: chunk.size], w_buf[: chunk.size]
                np.subtract(chunk, r_min[i], out=x)
                np.multiply(x, -beta[i], out=w)
                np.exp(w, out=w)
                sums[0, i] += w.sum()
                for j in range(1, order + 1):
                    sums[j, i] += np.multiply(w, x, out=w).sum()
        return sums
    step = _BLOCK // size
    entries = min(rows.size, step) * size
    x_buf, w_buf = np.empty(entries), np.empty(entries)
    for first in range(0, rows.size, step):
        part = slice(first, first + step)
        x = x_buf[: rows[part].size * size].reshape(-1, size)
        w = w_buf[: x.size].reshape(x.shape)
        np.take(costs, rows[part], axis=0, out=x, mode="clip")  # "raise" would buffer
        x -= r_min[part, None]
        np.multiply(x, -beta[part, None], out=w)
        np.exp(w, out=w)
        sums[0, part] = w.sum(axis=1)
        for j in range(1, order + 1):
            sums[j, part] = np.multiply(w, x, out=w).sum(axis=1)
    return sums


def _excess_moments(z: np.ndarray, m1: np.ndarray,
                    m2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mean excess cost <R> - r_min, variance of R) from a pass's sums."""
    excess = m1 / z
    return excess, m2 / z - excess * excess


def _log_z(tables: Sequence[CostTable], beta: np.ndarray, z: np.ndarray) -> np.ndarray:
    """log sum_c exp(-beta R(c)) from each pass's sum of weights z, exactly
    n log k at beta = 0. The logarithm is taken of one scalar at a time, as a
    one-table pass takes it: numpy's vector log may round differently."""
    return np.array([
        t.n * float(np.log(t.k)) if b == 0.0
        else float(-b * t.r_min + np.log(zi)) + float(np.log(t.k))
        for t, b, zi in zip(tables, beta, z)
    ])


def stacked_moments(tables: Sequence[CostTable],
                    betas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """exact_moments of tables[i] at betas[i] for every i, as three arrays
    (log Z, mean excess, variance), from one stacked pass over the distinct
    tables; each value is bit for bit the one its (table, beta) gives alone."""
    beta = np.asarray(betas, dtype=np.float64)
    costs, r_min, rows = _stacked(tables)
    sums = _boltzmann_sums(costs, r_min, rows, beta, 2)
    return (_log_z(tables, beta, sums[0]), *_excess_moments(*sums))


def stacked_log_partition(tables: Sequence[CostTable], betas) -> np.ndarray:
    """exact_log_partition of tables[i] at betas[i] for every i, from one
    stacked pass over the points at beta > 0."""
    beta = np.asarray(betas, dtype=np.float64)
    hot = np.flatnonzero(beta != 0.0)  # NaN included: the pass rejects it
    z = np.ones(beta.size)
    if hot.size:
        costs, r_min, rows = _stacked([tables[i] for i in hot])
        z[hot] = _boltzmann_sums(costs, r_min, rows, beta[hot], 0)[0]
    return _log_z(tables, beta, z)


def exact_log_partition(table: CostTable, beta: float) -> float:
    """log sum_c exp(-beta R(c)), max-subtracted; exactly n log k at beta=0."""
    return float(stacked_log_partition([table], [beta])[0])


def exact_moments(table: CostTable, beta: float) -> tuple[float, float, float]:
    """(log Z, mean excess cost <R> - r_min, variance of R) at beta from one
    pass over the table; log Z is exactly n log k at beta=0."""
    log_z, excess, variance = stacked_moments([table], [beta])
    return float(log_z[0]), float(excess[0]), float(variance[0])


def _by_halves(table: CostTable, values: np.ndarray) -> np.ndarray:
    """Per-entry values of a table as a (hi, lo) matrix."""
    return values.reshape(table.k ** (table.n - _low_half(table.n)), -1)


def _check_pair(table1: CostTable, table2: CostTable) -> None:
    if (table2.n, table2.k) != (table1.n, table1.k):
        raise ValueError("tables must share n and k")


def joint_cost_table(table1: CostTable, table2: CostTable, corr: Correspondence) -> CostTable:
    """Combined costs R(c, X1) + R(pushforward(c), X2) over the training
    assignments c of table1, in its encoding order; r_min is the joint
    minimum."""
    _check_pair(table1, table2)
    index = _pushforward_index(corr, table1.n, table1.k)
    costs1 = _by_halves(table1, table1.costs)
    out = np.empty(costs1.shape)
    for hi, lo in _blocks(*out.shape):
        out[hi, lo] = costs1[hi, lo] + table2.costs[index(hi, lo)]
    return CostTable.from_costs(out.ravel(), table1.n, table1.k)


_NEWTON_TOL = 2.0**-50  # relative Newton step at which a calibration stops


class ExactTables:
    """The training, test and joint tables of one sample pair, with the beta
    calibration on the training table: the exact capacity curve, the point
    queries and the channel bound all read one such set."""

    def __init__(self, table1: CostTable, table2: CostTable, corr: Correspondence):
        self.table1, self.table2 = table1, table2
        self.joint = joint_cost_table(table1, table2, corr)
        self.minimizer = Assignment(table1.minimizer_labels(), table1.k)

    @classmethod
    def enumerate(cls, cost1: CostFunction, cost2: CostFunction, corr: Correspondence,
                  budget: int = DEFAULT_BUDGET) -> "ExactTables":
        return cls(enumerate_costs(cost1, budget=budget),
                   enumerate_costs(cost2, budget=budget), corr)

    @functools.cached_property
    def span(self) -> float:
        """Mean-cost excess at beta = 0, the widest gamma any beta reaches."""
        _cache_spans([self])
        return self.__dict__["span"]

    @functools.cached_property
    def resolution(self) -> float:
        """The smallest gamma beta_for_gamma resolves: calibrating below the
        costs' rounding noise would need a beta so large that the
        log-partitions lose all precision."""
        return COST_RESOLUTION * (abs(self.table1.r_min) + self.span)

    def beta_for_gamma(self, target: float) -> float:
        """Smallest beta, to relative precision _NEWTON_TOL, whose mean-cost
        excess is <= target (a target below the resolution counts as the
        resolution); 0 once target reaches the span. See _newton_search."""
        return calibrate_betas([self], [target])[0]

    def auto_grid(self, points: int) -> tuple[float, ...]:
        """Geometric beta grid spanning mean-cost excess from ~90% down to
        ~0.1% of the full cost range."""
        span = self.span
        if span <= 0.0:  # flat landscape
            return (0.0, *np.geomspace(0.1, 10.0, points - 1))
        beta_lo, beta_hi = calibrate_betas([self, self], [0.9 * span, 1e-3 * span])
        return (0.0, *np.geomspace(beta_lo, beta_hi, points - 1))


def _cache_spans(tables: Sequence[ExactTables]) -> None:
    """Fill the span of every ExactTables that lacks one, from one stacked
    pass at beta = 0 over their training tables."""
    todo = list({id(t): t for t in tables if "span" not in t.__dict__}.values())
    if not todo:
        return
    costs, r_min, rows = _stacked([t.table1 for t in todo])
    excess, _ = _excess_moments(*_boltzmann_sums(costs, r_min, rows, np.zeros(len(todo)), 2))
    for t, span in zip(todo, excess):
        t.__dict__["span"] = float(span)  # where functools.cached_property keeps it


def _newton_search(target: float, span: float, resolution: float):
    """The beta calibration of one target, as a generator: it yields each
    beta at which it needs the training table's (mean excess, variance), is
    sent that pair back, and returns the smallest beta, to relative
    precision _NEWTON_TOL, whose mean excess is <= target.

    beta doubles or halves from 1 until gamma crosses the target; then
    safeguarded Newton steps on gamma(log beta), whose slope -beta Var(R)
    comes from the same pass as gamma (the rtsafe scheme of Numerical
    Recipes, section 9.4), shrink that bracket: a step that leaves it, or
    is not half the step before last, bisects instead. A converged step
    from above the target returns; from below it is stretched, doubling
    each time, until it crosses the root.
    """
    target = max(target, resolution)
    if target >= span:
        return 0.0
    beta = prev = 1.0
    gamma, var = yield beta
    above = gamma > target
    while (gamma > target) == above:
        prev, beta = beta, beta * (2.0 if above else 0.5)
        gamma, var = yield beta
    lo, hi = sorted((prev, beta))
    step = step_old = hi - lo
    stretch = _NEWTON_TOL
    while True:
        newton = beta * float(np.exp(np.divide(gamma - target, beta * var)))
        if abs(newton - beta) < _NEWTON_TOL * beta:
            if gamma <= target:
                return beta
            newton, stretch = beta * (1.0 + stretch), 2.0 * stretch
        elif not (lo < newton < hi and abs(newton - beta) <= 0.5 * abs(step_old)):
            newton = 0.5 * (lo + hi)
        if not lo < newton < hi:  # the bracket is at float resolution
            return hi
        step_old, step = step, newton - beta
        beta = newton
        gamma, var = yield beta
        if gamma > target:
            lo = beta
        else:
            hi = beta


def calibrate_betas(tables: Sequence[ExactTables], targets: Sequence[float]) -> list[float]:
    """tables[i].beta_for_gamma(targets[i]) for every i, the searches
    advanced in lock-step: each step evaluates the moments that every
    unfinished search needs in one stacked pass over the distinct training
    tables. Each search sees exactly the values it sees alone, so each beta
    is bit for bit the one it gets alone. Every target is checked before any
    pass."""
    if len(tables) != len(targets):
        raise ValueError(f"{len(targets)} targets for {len(tables)} tables")
    for target in targets:
        check_gamma(target)  # a NaN target never brackets
    _cache_spans(tables)
    searches = [_newton_search(target, t.span, t.resolution) for t, target in zip(tables, targets)]
    costs, r_min, rows = _stacked([t.table1 for t in tables])
    betas = [0.0] * len(searches)
    wanted: dict[int, float] = {}  # search -> the beta it waits on

    def advance(i, values):
        try:
            wanted[i] = searches[i].send(values)
        except StopIteration as done:
            betas[i] = done.value
            wanted.pop(i, None)

    # an overflowing weight exponent gives exp(-inf) = 0; a vanishing
    # variance gives a non-finite Newton step, which bisects
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for i in range(len(searches)):
            advance(i, None)
        while wanted:
            live = list(wanted)
            beta = np.array([wanted[i] for i in live])
            excess, var = _excess_moments(*_boltzmann_sums(costs, r_min[live], rows[live], beta, 2))
            for i, gamma, v in zip(live, excess.tolist(), var.tolist()):
                advance(i, (gamma, v))
    return betas
