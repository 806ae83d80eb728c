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

ExactTables holds the training, test and joint tables of one sample pair,
its training minimizer and its span, all computed when ExactTables.stack
builds it; capacity curves, point queries and the channel bound each build
one per pair and calibrate beta for a target gamma on its training table.

Work on many tables of one n and k is stacked, and each table is bit for
bit what it is alone, so a single table or pair is a stack of one.
enumerate_costs builds the tables of several costs from split-half
statistics stacked over their datasets, joint_cost_table joins many pairs
with one push-forward gather, and ExactTables.stack builds many pairs' sets
with one search of the relabeling orbits of their tied training minima.
Boltzmann sums are taken over stacks of equal-length tables, each row at
its own beta (stacked_moments, stacked_log_partition), and calibrate_betas
advances many beta calibrations in lock-step on such stacks. Every stacked
loop chunks its work by one rule (blocks): as many whole items of the
leading axis as fit under the loop's entry limit, at least one; an item
past the limit is cut by the same rule along its own axes, by a nested
loop. Each loop keeps its own limit (_TILE to build tables, BLOCK for
passes and orbit searches), as a block's shape can reach a matrix product,
whose BLAS blocking could change bits. A row sums its chunks in order,
exactly what a pass over its table alone sums.

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
    "BLOCK",
    "CostTable",
    "ExactTables",
    "GAMMA_SLACK",
    "blocks",
    "calibrate_betas",
    "decode_indices",
    "enumerate_costs",
    "pushforward_weights",
    "joint_cost_table",
    "stacked_log_partition",
    "stacked_moments",
]

GAMMA_SLACK = 1e-12  # absolute float slack on the approximation threshold
BLOCK = 1 << 15  # entries of one block of a stacked pass
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
    object 0 in cluster 1, entry i holding encoding index k * i."""

    costs: np.ndarray
    n: int
    k: int
    r_min: float

    @staticmethod
    def from_costs(costs: np.ndarray, n: int, k: int) -> "CostTable":
        costs = np.ascontiguousarray(costs, dtype=np.float64)
        if costs.size != k ** (n - 1):
            raise ValueError(f"table length {costs.size} != {k ** (n - 1)}")
        r_min = float(costs.min())
        if not (np.isfinite(r_min) and np.isfinite(costs.max())):
            raise ValueError("costs are not finite: the data's scale overflows float64")
        costs.flags.writeable = False
        return CostTable(costs=costs, n=n, k=k, r_min=r_min)

    def threshold(self, gamma: float) -> float:
        """The largest cost in the gamma-approximation set: the set holds the
        entries whose costs are within gamma of the minimum, with a small
        absolute slack on the threshold so boundary members are not lost to
        summation noise."""
        check_gamma(gamma)
        return self.r_min + gamma + GAMMA_SLACK


@functools.lru_cache(maxsize=16)
def _half_labels(m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Digits (k^m x m, values 0..k-1) and per-label masks (k x k^m x m) of
    every assignment of m objects; cached and shared, hence read-only."""
    digits = decode_indices(np.arange(k**m, dtype=np.int64), m, k) - 1
    masks = (digits[None, :, :] == np.arange(k)[:, None, None]).astype(np.float64)
    digits.flags.writeable = False
    masks.flags.writeable = False
    return digits, masks


def _minimizers(tables: Sequence[CostTable]) -> np.ndarray:
    """The minimizer of each of a non-empty stack of tables of one n and k,
    as a row of labels: the lowest member of the relabeling orbits of its
    tied minima, from one _lowest_in_orbit pass over the tied minima of all
    the tables, in blocks of BLOCK ties. That is the lowest tied index of
    all k^n assignments whenever relabelings cost the same bits (at k <= 2
    the cluster costs add commutatively; at k >= 3 they are summed in label
    order, so relabelings can differ by an ulp)."""
    n, k = tables[0].n, tables[0].k
    # every tied orbit meets the slice; its lowest member may not
    tied = [np.flatnonzero(t.costs == t.r_min) for t in tables]
    indices = np.concatenate(tied) * k
    lowest = np.concatenate([_lowest_in_orbit(indices[part], n, k)
                             for part in blocks(indices.size, 1, BLOCK)])
    starts = np.cumsum([0] + [ties.size for ties in tied[:-1]])
    return decode_indices(np.minimum.reduceat(lowest, starts), n, k)


def _cost_rows(tables: Sequence[CostTable]) -> np.ndarray:
    """The costs of equal-length tables as the rows of one array, a view of
    the table when there is one."""
    if len(tables) == 1:
        return tables[0].costs[None]
    return np.stack([t.costs for t in tables])


def blocks(count: int, size: int, limit: int) -> list[slice]:
    """The one chunking rule of stacked work: slices of range(count), in order,
    of as many items of `size` entries as fit in `limit` entries, at least one."""
    step = max(1, limit // size)
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


def _low_half(n: int) -> int:
    """Objects in the low half; at least object 0, which fixes the slice."""
    return max(1, n // 2)


def enumerate_costs(*costs: CostFunction, budget: int = DEFAULT_BUDGET) -> list[CostTable]:
    """Materialize the cost tables of costs of one n and k on their slice, one
    per cost, from split-half statistics stacked over the costs of each
    family and data shape; budget bounds k^n and is checked before any table
    is built."""
    if not costs:
        return []
    n, k = costs[0].n, costs[0].k
    if k**n > budget:
        raise BudgetError(f"k^n = {k**n} exceeds enumeration budget {budget}")
    if any((c.n, c.k) != (n, k) for c in costs):
        raise ValueError("stacked costs must share n and k")
    h = _low_half(n)
    lo_masks = _half_labels(h, k)[1][:, ::k]
    _, hi_masks = _half_labels(n - h, k)
    stacks: dict[tuple, list[int]] = {}
    for i, cost in enumerate(costs):
        data = cost.data.dissim if cost.data.vectors is None else cost.data.vectors
        stacks.setdefault((type(cost), data.shape), []).append(i)
    tables: dict[int, CostTable] = {}
    for members in stacks.values():
        stack = [costs[i] for i in members]
        halves = stack[0]._halves(stack, lo_masks, hi_masks)
        out = np.empty((len(stack), hi_masks.shape[1], lo_masks.shape[1]))
        _, his, los = out.shape
        for rows in blocks(len(stack), his * los, _TILE):
            for hi in blocks(his, los, _TILE):
                for lo in blocks(los, 1, _TILE):
                    out[rows, hi, lo] = halves.block(rows, lo, hi)
        for i, row in zip(members, out):
            tables[i] = CostTable.from_costs(row.ravel(), n, k)
    return [tables[i] for i in range(len(costs))]


def pushforward_weights(nu: np.ndarray, k: int) -> np.ndarray:
    """w[..., j] = sum of k^i over test objects i with nu[..., i] = j, so the
    push-forward of training assignment c has index sum_j digit_j(c) w[j]."""
    nu = np.asarray(nu, dtype=np.int64)
    rows = nu.reshape(-1, nu.shape[-1])
    w = np.zeros(rows.shape, dtype=np.int64)
    np.add.at(w, (np.arange(rows.shape[0])[:, None], rows),
              k ** np.arange(rows.shape[1], dtype=np.int64))
    return w.reshape(nu.shape)


def _pushforward_index(nus: np.ndarray, n: int, k: int):
    """index(tables, hi, lo): for the block [tables, hi, lo] of a stack of
    tables laid out as (hi, lo) halves, the entries of the flattened stack of
    second tables that hold the push-forwards of its assignments, table t
    pushed by nus[t] onto second table t."""
    h = _low_half(n)
    w = pushforward_weights(nus, k)
    hi_digits, _ = _half_labels(n - h, k)
    lo_digits = _half_labels(h, k)[0][::k]
    stack, b, a = len(nus), len(hi_digits), len(lo_digits)
    # Shifting every label by -s is a relabeling; with s the label of
    # training object j0 = nu[0], which test object 0 inherits, it puts the
    # push-forward on the slice. Test object 0 is the only one whose weight
    # k^0 is not a multiple of k, so the half without j0 contributes a
    # multiple of k at every shift, and the half with j0 does at its own s:
    # index = q_lo[t, s, lo] + q_hi[t, s, hi], one term fixed by the half
    # with j0 and the other gathered at its s.
    shifts = np.arange(k)[:, None, None]
    q_lo = (((lo_digits - shifts) % k) @ w[:, :h].T // k).transpose(2, 0, 1)
    q_hi = (((hi_digits - shifts) % k) @ w[:, h:].T // k).transpose(2, 0, 1)
    # q_hi[t, s, hi] at (t k + s) b + hi, then q_lo[t, s, lo] after all of q_hi
    terms = np.concatenate([q_hi.ravel(), q_lo.ravel()])
    # per table: the gathered term's index into `terms` and the fixed term,
    # each the sum of a per-lo and a per-hi part
    at_lo = np.tile(np.arange(a), (stack, 1))
    at_hi = np.tile(np.arange(b), (stack, 1))
    fixed_lo = np.zeros((stack, a), dtype=np.int64)
    fixed_hi = np.repeat(np.arange(stack)[:, None] * (b * a), b, axis=1)  # second table t
    low = np.flatnonzero(nus[:, 0] < h)  # s follows the low-half assignment
    s = lo_digits[:, nus[low, 0]].T
    at_lo[low] = (low[:, None] * k + s) * b
    fixed_lo[low] = np.take_along_axis(q_lo[low], s[:, None], axis=1)[:, 0]
    high = np.flatnonzero(nus[:, 0] >= h)  # s follows the high-half assignment
    s = hi_digits[:, nus[high, 0] - h].T
    at_hi[high] = stack * k * b + (high[:, None] * k + s) * a
    fixed_hi[high] += np.take_along_axis(q_hi[high], s[:, None], axis=1)[:, 0]
    return lambda t, hi, lo: (terms.take(at_lo[t, None, lo] + at_hi[t, hi, None])
                              + (fixed_lo[t, None, lo] + fixed_hi[t, hi, None]))


def check_gamma(gamma: float) -> None:
    """Reject a negative or NaN approximation width; +inf admits every
    assignment."""
    if not gamma >= 0:
        raise ValueError(f"gamma must be >= 0, got {gamma!r}")


def _stacked(tables: Sequence[CostTable]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(costs, r_min, rows) of equal-length tables: the distinct tables as the
    rows of one array (_cost_rows), and per given table its row and its minimum."""
    slot: dict[int, int] = {}
    distinct: list[CostTable] = []
    for t in tables:
        if slot.setdefault(id(t), len(distinct)) == len(distinct):
            distinct.append(t)
    rows = np.array([slot[id(t)] for t in tables], dtype=np.intp)
    costs = _cost_rows(distinct) if distinct else np.empty((0, 1))
    return costs, np.array([t.r_min for t in tables], dtype=np.float64), rows


def _boltzmann_sums(costs: np.ndarray, r_min: np.ndarray, rows: np.ndarray, beta: np.ndarray,
                    order: int) -> np.ndarray:
    """sums[j, i] = sum_c w(c) x(c)^j for j = 0..order over the table
    costs[rows[i]], with x(c) = R(c) - r_min[i] and w(c) = exp(-beta[i] x(c));
    in excess form, minima contribute x = 0 exactly. Every beta is checked
    before any pass.

    Rows are taken in blocks (limit BLOCK) of as many whole rows as fit, or
    one row in chunks of BLOCK entries, each chunk's sums added to its rows'
    totals in order (a first chunk adds to 0.0, which is exact). Buffers never
    exceed BLOCK entries: fresh table-sized temporaries cost more than the
    arithmetic. A row sums exactly the chunks a one-table pass sums, so its
    sums do not depend on the rows beside it."""
    if beta.shape != rows.shape:
        raise ValueError(f"{beta.size} betas for {rows.size} tables")
    if not (np.isfinite(beta).all() and (beta >= 0).all()):
        raise ValueError("beta must be finite and >= 0")
    size = costs.shape[1]
    sums = np.zeros((order + 1, rows.size))
    x_buf = np.empty((min(rows.size, max(1, BLOCK // size)), min(size, BLOCK)))  # largest block
    w_buf = np.empty_like(x_buf)  # a second buffer: one of twice the size raises peak RSS
    chunks = blocks(size, 1, BLOCK)
    for part in blocks(rows.size, size, BLOCK):
        picked, r, scale = rows[part], r_min[part, None], -beta[part, None]
        part_sums = [0.0] * (order + 1)
        for cols in chunks:
            x = x_buf[: picked.size, : cols.stop - cols.start]
            w = w_buf[: picked.size, : cols.stop - cols.start]
            costs_x = (costs[picked[0], None, cols] if picked.size == 1  # one row, in place
                       else np.take(costs, picked, axis=0, out=x, mode="clip"))  # "raise" buffers
            np.subtract(costs_x, r, out=x)
            np.multiply(x, scale, out=w)
            np.exp(w, out=w)
            part_sums[0] = part_sums[0] + w.sum(axis=1)
            for j in range(1, order + 1):
                part_sums[j] = part_sums[j] + np.multiply(w, x, out=w).sum(axis=1)
        sums[:, part] = part_sums
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
    """(log Z, mean excess cost <R> - r_min, variance of R) of tables[i] at
    betas[i] for every i, as three arrays, from one stacked pass over the
    distinct tables; log Z is exactly n log k at beta = 0, and each value is
    bit for bit the one its (table, beta) gives alone."""
    beta = np.asarray(betas, dtype=np.float64)
    costs, r_min, rows = _stacked(tables)
    sums = _boltzmann_sums(costs, r_min, rows, beta, 2)
    return (_log_z(tables, beta, sums[0]), *_excess_moments(*sums))


def stacked_log_partition(tables: Sequence[CostTable], betas) -> np.ndarray:
    """log sum_c exp(-beta R(c)) of tables[i] at betas[i] for every i, from
    one stacked pass over the points at beta > 0; exactly n log k at
    beta = 0."""
    beta = np.asarray(betas, dtype=np.float64)
    hot = np.flatnonzero(beta != 0.0)  # NaN included: the pass rejects it
    z = np.ones(beta.size)
    if hot.size:
        costs, r_min, rows = _stacked([tables[i] for i in hot])
        z[hot] = _boltzmann_sums(costs, r_min, rows, beta[hot], 0)[0]
    return _log_z(tables, beta, z)


def joint_cost_table(tables1: Sequence[CostTable], tables2: Sequence[CostTable],
                     corrs: Sequence[Correspondence]) -> list[CostTable]:
    """Combined costs R(c, X1) + R(pushforward(c), X2) of each pair
    (tables1[i], tables2[i], corrs[i]) over the training assignments c of
    tables1[i], in its encoding order, gathered from the stacked test tables
    by one push-forward index; r_min is the joint minimum. All tables share
    n and k."""
    if not len(tables1) == len(tables2) == len(corrs):
        raise ValueError("joint tables need one test table and correspondence per table")
    if not tables1:
        return []
    n, k = tables1[0].n, tables1[0].k
    if any((t.n, t.k) != (n, k) for t in (*tables1, *tables2)):
        raise ValueError("tables must share n and k")
    index = _pushforward_index(np.stack([corr.nu for corr in corrs]), n, k)
    costs1 = _cost_rows(tables1).reshape(len(tables1), k ** (n - _low_half(n)), -1)
    costs2 = _cost_rows(tables2).ravel()
    out = np.empty(costs1.shape)
    tables, his, los = out.shape
    for t in blocks(tables, his * los, _TILE):
        for hi in blocks(his, los, _TILE):
            for lo in blocks(los, 1, _TILE):
                out[t, hi, lo] = costs1[t, hi, lo] + costs2.take(index(t, hi, lo))
    return [CostTable.from_costs(row.ravel(), n, k) for row in out]


_NEWTON_TOL = 2.0**-50  # relative Newton step at which a calibration stops


@dataclass(frozen=True, eq=False)
class ExactTables:
    """The training, test and joint tables of one sample pair, the training
    minimizer (see _minimizers) and the span, the training table's
    mean-cost excess at beta = 0 and the widest gamma any beta reaches: the
    exact capacity curve, the point queries and the channel bound all read
    one such set. `stack` builds the sets of many pairs."""

    table1: CostTable
    table2: CostTable
    joint: CostTable
    minimizer: Assignment
    span: float

    @classmethod
    def stack(cls, tables1: Sequence[CostTable], tables2: Sequence[CostTable],
              corrs: Sequence[Correspondence]) -> list["ExactTables"]:
        """The sets of the pairs (tables1[i], tables2[i], corrs[i]): their
        joint tables from one stacked gather, their training minimizers from
        one search of the tied minima's relabeling orbits, and their spans
        from one stacked pass at beta = 0."""
        joints = joint_cost_table(tables1, tables2, corrs)
        if not joints:
            return []
        spans = stacked_moments(tables1, np.zeros(len(tables1)))[1]
        return [cls(t1, t2, joint, Assignment(labels, t1.k), span)
                for t1, t2, joint, labels, span in zip(tables1, tables2, joints,
                                                      _minimizers(tables1), spans.tolist())]

    @classmethod
    def enumerate(cls, cost1: CostFunction, cost2: CostFunction, corr: Correspondence,
                  budget: int = DEFAULT_BUDGET) -> "ExactTables":
        table1, table2 = enumerate_costs(cost1, cost2, budget=budget)
        (tables,) = cls.stack([table1], [table2], [corr])
        return tables

    @property
    def resolution(self) -> float:
        """The smallest gamma calibrate_betas resolves: calibrating below the
        costs' rounding noise would need a beta so large that the
        log-partitions lose all precision."""
        return COST_RESOLUTION * (abs(self.table1.r_min) + self.span)

    def auto_grid(self, points: int) -> tuple[float, ...]:
        """Geometric beta grid spanning mean-cost excess from ~90% down to
        ~0.1% of the full cost range."""
        span = self.span
        if span <= 0.0:  # flat landscape
            return (0.0, *np.geomspace(0.1, 10.0, points - 1))
        beta_lo, beta_hi = calibrate_betas([self, self], [0.9 * span, 1e-3 * span])
        return (0.0, *np.geomspace(beta_lo, beta_hi, points - 1))


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
    each time, until it crosses the root. Costs so small that no finite
    beta crosses the target raise ValueError.
    """
    target = max(target, resolution)
    if target >= span:
        return 0.0
    beta = prev = 1.0
    gamma, var = yield beta
    above = gamma > target
    while (gamma > target) == above:
        prev, beta = beta, beta * (2.0 if above else 0.5)
        if beta == np.inf:
            raise ValueError(f"no finite beta narrows gamma to {target:.3g} on costs spanning "
                             f"{span:.3g}: the data's scale underflows float64")
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
    """For every i, the smallest beta, to relative precision _NEWTON_TOL,
    whose mean-cost excess on tables[i]'s training table is <= targets[i] (a
    target below the resolution counts as the resolution); 0 once the target
    reaches the span. See _newton_search. The searches advance in lock-step:
    each step evaluates the moments that every unfinished search needs in
    one stacked pass over the distinct training tables. Each search sees
    exactly the values it sees alone, so each beta is bit for bit the one it
    gets alone. Every target is checked before any pass."""
    if len(tables) != len(targets):
        raise ValueError(f"{len(targets)} targets for {len(tables)} tables")
    for target in targets:
        check_gamma(target)  # a NaN target never brackets
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
