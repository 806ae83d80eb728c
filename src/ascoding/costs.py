"""Clustering cost functions and the empirical-minimizer search.

Two concrete costs are shipped:

* k-means: total within-cluster sum of squared distances to cluster means
  (centroids are minimized out analytically).
* pairwise: sum over clusters of the within-cluster dissimilarities,
  normalized per cluster as W_v / (2 n_v).

Both are label-permutation invariant, nonnegative, and treat empty clusters
as zero-cost, so the hypothesis class is all k^n label vectors.

Each cost exposes a ReplicaState: the per-cluster sufficient statistics
(counts and sums) of R assignments at once, stacked over replicas, so one
numpy call gives every replica's cost changes for one site. One state can
hold the replicas of several costs of one family (`replica_batch`): a
candidate's training, test and joint costs then move together. Its `sweep`
is the one kernel behind the Gibbs sampler, replica exchange, the pilot
grid and the multistart minimizer search. The same statistics are additive over
disjoint object sets, so each family also has a SplitHalf: per-cluster
statistics of the two halves of the objects, stacked over the datasets of
several costs, from which the exact engine assembles every assignment's
cost of all those costs without decoding it.
"""
from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .core import Assignment, Correspondence, Dataset, Kind
from .rng import derive_rng

__all__ = [
    "CostFunction",
    "KMeansCost",
    "PairwiseCost",
    "JointCost",
    "ReplicaState",
    "SplitHalf",
    "erm_search",
    "replica_batch",
]

DEFAULT_BUDGET = 1 << 24
# relative rounding noise of a cost: its cluster statistics are summed in an
# order that depends on the labels (relabelings of one partition at k >= 3)
# or on the moves that led to them (replicas in one ground state), so equal
# costs can differ by a few ulps
COST_RESOLUTION = 2.0**-44


class ReplicaState(ABC):
    """R assignments ("replicas") of m units, with per-cluster statistics
    stacked over replicas and batched moves.

    A unit is one object, or for a JointCost's test side, the set of test
    objects one training object is pushed to. The state keeps a small stack
    of unit tables, one per cost term: a cost's objects, or a JointCost's
    fan-in units. Each replica has one row of per-cluster statistics per
    term of its cost, and each row has a component index into the stack:
    rows 0..R-1 are the replicas' first terms, and each further row is the
    second term of a JointCost replica, whose deltas and cost add to its
    first's. labels[r, j] is the cluster index (0..k-1) of unit j in replica
    r; the state owns `labels` and updates it in place. deltas(j)[r, b] is
    replica r's cost change of giving unit j cluster b; the entry for its
    current cluster is exactly 0.
    """

    def __init__(self, blocks: list[tuple[np.ndarray, tuple[np.ndarray, ...]]], k: int):
        """`blocks` holds, per cost, its (R_i, m) cluster indices and the unit
        tables of its terms; the costs' replicas are stacked in order."""
        self.k = k
        self.labels = np.concatenate([labels for labels, _ in blocks])
        firsts, seconds, start = [], [], 0
        for labels, (first, *rest) in blocks:
            replicas = slice(start, start + labels.shape[0])
            firsts.append((first, replicas))
            seconds += [(table, replicas) for table in rest]
            start = replicas.stop
        terms = firsts + seconds
        if len({table.shape for table, _ in terms}) > 1:
            raise ValueError("a replica batch needs costs whose samples share their dimension")
        self._tables = np.stack([table for table, _ in terms])
        owners = [np.arange(replicas.start, replicas.stop) for _, replicas in terms]
        self._owner = np.concatenate(owners)  # each row's replica
        self._comp = np.repeat(np.arange(len(terms)), [o.size for o in owners])
        self._rows = np.arange(self._owner.size)
        # per second term: its replicas, its rows, and which units have
        # objects; a unit with none (a training object nothing is pushed to)
        # adds nothing
        sizes = self._unit_sizes(self._tables)
        self._seconds = []
        for c, (_, replicas) in enumerate(seconds, start=len(firsts)):
            rows = slice(start, start + replicas.stop - replicas.start)
            self._seconds.append((replicas, rows, sizes[c] > 0))
            start = rows.stop
        self._build([(_onehot(self.labels[replicas], k), table) for table, replicas in terms])

    @staticmethod
    @abstractmethod
    def _unit_sizes(tables: np.ndarray) -> np.ndarray:
        """Object count of every unit of every table, (tables, m)."""

    @abstractmethod
    def _build(self, terms: list[tuple[np.ndarray, np.ndarray]]) -> None:
        """Statistics of each term's rows from their (rows, m, k) cluster
        indicators and the term's unit table, stacked in term order."""

    @abstractmethod
    def _costs(self) -> np.ndarray:
        """Each row's cost, (rows,)."""

    @abstractmethod
    def _deltas(self, j: int, a: np.ndarray) -> np.ndarray:
        """Each row's cost changes of moving unit j from its cluster a[row]
        to each cluster, (rows, k)."""

    @abstractmethod
    def _shift(self, j: int, rows: np.ndarray, old: np.ndarray, new: np.ndarray) -> None:
        """Move unit j's statistics in `rows` from clusters `old` to clusters
        `new` (all three 1-d and equally long)."""

    @property
    def cost(self) -> np.ndarray:
        """Each replica's cost, shape (R,)."""
        costs = self._costs()
        out = costs[:self.labels.shape[0]]
        for replicas, rows, _ in self._seconds:
            out[replicas] += costs[rows]
        return out

    def deltas(self, j: int) -> np.ndarray:
        d = self._deltas(j, self.labels[self._owner, j] if self._seconds else self.labels[:, j])
        out = d[:self.labels.shape[0]]
        for replicas, rows, filled in self._seconds:
            if filled[j]:
                out[replicas] += d[rows]
        return out

    def sweep(self, beta: np.ndarray | None = None, u: np.ndarray | None = None) -> int:
        """Visit every unit once, in order, in all replicas at once; returns
        the number of (replica, unit) moves made.

        With `beta` (R,) and uniforms `u` (R, m), each replica's unit is
        redrawn from the conditional proportional to exp(-beta * delta)
        (heat-bath Gibbs). With `beta` None, it moves to its lowest-cost
        cluster when that lowers the cost (greedy descent; the lowest
        cluster index wins ties).
        """
        moves = 0
        for j in range(self.labels.shape[1]):
            d = self.deltas(j)
            old = self.labels[:, j]
            if beta is None:
                new = np.where(d.min(axis=1) < 0.0, d.argmin(axis=1), old)
            else:
                cs = np.cumsum(np.exp(-beta[:, None] * (d - d.min(axis=1, keepdims=True))),
                               axis=1)
                new = (cs <= (u[:, j] * cs[:, -1])[:, None]).sum(axis=1)
                np.minimum(new, self.k - 1, out=new)
            moved = new != old
            rows = np.flatnonzero(moved[self._owner])  # every term row of a moved replica
            if rows.size:
                owner = self._owner[rows]
                self._shift(j, rows, old[owner], new[owner])
                self.labels[:, j] = new
                moves += int(np.count_nonzero(moved))
        return moves


def _onehot(labels: np.ndarray, k: int) -> np.ndarray:
    """(R, m, k) cluster indicators of (R, m) labels."""
    return (labels[:, :, None] == np.arange(k)).astype(np.float64)


class SplitHalf(ABC):
    """Per-cluster statistics of the low half (objects 0..h-1) and the high
    half (objects h..n-1) of the objects of several costs of one family, n,
    k and data shape, stacked over the costs.

    Built from per-half label masks: masks[v, a, i] is 1.0 when object i of
    the half carries label v+1 in half-assignment a, and 0.0 otherwise. The
    masks do not depend on the data, so counts are shared by the stack, and
    each cost's slice of every matrix product is the product one cost alone
    makes, with the same operands: stacking never changes a value.
    """

    @abstractmethod
    def block(self, tables: slice, lo: slice, hi: slice) -> np.ndarray:
        """Costs of every pairing of the low-half assignments `lo` with the
        high-half assignments `hi` under each cost of `tables`, shaped
        (tables, hi rows, lo rows)."""


class CostFunction(ABC):
    """A clustering cost R(c, X) bound to one dataset and cluster count."""

    name: str

    def __init__(self, n: int, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.n = n
        self.k = k

    @abstractmethod
    def evaluate(self, labels: np.ndarray) -> float: ...

    def replica_state(self, labels: np.ndarray) -> ReplicaState:
        """State of the (R, n) cluster indices `labels` (0..k-1), whose copy
        the state owns and updates in place."""
        return replica_batch([self], [labels])

    def _unit_tables(self) -> tuple[np.ndarray, ...]:
        """Unit tables of the terms whose costs add to this cost."""
        return (self._unit_table(),)

    def _unit_table(self, groups: np.ndarray | None = None) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} has no unit table")

    _replicas: type[ReplicaState]  # the state class of the cost's family
    # the split-half class of the cost's family, built from a stack of its
    # costs and the masks of objects 0..h-1 and h..n-1 (h = lo_masks.shape[2])
    _halves: type[SplitHalf]


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------

class KMeansReplicas(ReplicaState):
    """Per row and cluster, stacked on the last axis: object count,
    squared-norm sum and vector sum, (rows, k, 2 + d). A unit table holds the
    same three statistics of each unit's objects, so a move adds one unit
    row to one cluster and subtracts it from another."""

    @staticmethod
    def _unit_sizes(tables):
        return tables[:, :, 0]

    def _build(self, terms) -> None:
        self._stats = np.concatenate([np.einsum("rmk,ms->rks", onehot, table)
                                      for onehot, table in terms])

    def _costs(self) -> np.ndarray:
        # empty clusters carry exact-to-tiny zero sums, so dividing by
        # max(cnt, 1) is safe; per-cluster scatter is >= 0 up to cancellation
        cnt, sqs, sums = self._stats[..., 0], self._stats[..., 1], self._stats[..., 2:]
        norm = np.einsum("rkd,rkd->rk", sums, sums)
        return np.maximum(sqs - norm / np.maximum(cnt, 1.0), 0.0).sum(axis=1)

    def _deltas(self, j, a) -> np.ndarray:
        r = self._rows
        unit = self._tables[self._comp, j]
        f, x = unit[:, 0], unit[:, 2:]
        cnt, sums = self._stats[..., 0], self._stats[..., 2:]
        # the unit's squared-norm sum enters one cluster and leaves another,
        # so only the |sum|^2 / count terms change; max(., 1) only acts on a
        # unit with no objects, whose deltas the caller discards
        old = np.einsum("rkd,rkd->rk", sums, sums) / np.maximum(cnt, 1.0)
        grown = sums + x[:, None]
        out = old - np.einsum("rkd,rkd->rk", grown, grown) / np.maximum(cnt + f[:, None], 1.0)
        here = self._stats[r, a]
        rest = here[:, 2:] - x
        left = here[:, 0] - f
        base = old[r, a] - np.where(
            left > 0, np.einsum("rd,rd->r", rest, rest) / np.maximum(left, 1.0), 0.0)
        out += base[:, None]
        out[r, a] = 0.0
        return out

    def _shift(self, j, rows, old, new) -> None:
        unit = self._tables[self._comp[rows], j]
        self._stats[rows, old] -= unit
        self._stats[rows, new] += unit


class KMeansHalves(SplitHalf):
    """Per half, cluster and cost: count, vector sum, squared-norm sum and
    the squared norm of the vector sum. Joining two halves adds them; the
    only cross-half term is the dot product of the two vector sums."""

    def __init__(self, costs: list[KMeansCost], lo_masks: np.ndarray, hi_masks: np.ndarray):
        h = lo_masks.shape[2]
        x = np.stack([cost._x for cost in costs])
        sq = np.stack([cost._sq for cost in costs])[..., None]
        self._lo = [self._stats(m, x[:, :h], sq[:, :h]) for m in lo_masks]
        self._hi = [self._stats(m, x[:, h:], sq[:, h:]) for m in hi_masks]

    @staticmethod
    def _stats(mask, x, sq):
        sums = np.matmul(mask, x)
        return mask.sum(axis=1), sums, np.matmul(mask, sq)[..., 0], (sums**2).sum(axis=-1)

    def block(self, tables: slice, lo: slice, hi: slice) -> np.ndarray:
        total = 0.0
        for (c_lo, s_lo, q_lo, n_lo), (c_hi, s_hi, q_hi, n_hi) in zip(self._lo, self._hi):
            norm = np.matmul(s_hi[tables, hi], s_lo[tables, lo].transpose(0, 2, 1))
            norm *= 2.0
            norm += n_hi[tables, hi, None]
            norm += n_lo[tables, None, lo]
            # an empty cluster has zero sums, so max(cnt, 1) yields its 0 cost
            norm /= np.maximum(c_hi[hi, None] + c_lo[None, lo], 1.0)
            scatter = q_hi[tables, hi, None] + q_lo[tables, None, lo]
            scatter -= norm
            # per-cluster scatter is >= 0 up to cancellation error
            total = total + np.maximum(scatter, 0.0, out=scatter)
        return total


class KMeansCost(CostFunction):
    """Total within-cluster squared scatter around cluster means."""

    name = "kmeans"
    _replicas = KMeansReplicas
    _halves = KMeansHalves

    def __init__(self, data: Dataset, k: int):
        if data.kind is not Kind.VECTORS:
            raise ValueError("kmeans cost requires a vector dataset")
        data.check_scale()
        super().__init__(n=data.n, k=k)
        self.data = data
        self._x = data.vectors
        self._sq = (self._x**2).sum(axis=1)

    def evaluate(self, labels: np.ndarray) -> float:
        return float(self.evaluate_batch(np.asarray(labels)[None, :])[0])

    def evaluate_batch(self, labels: np.ndarray) -> np.ndarray:
        total = np.zeros(labels.shape[0])
        for v in range(1, self.k + 1):
            mask = (labels == v).astype(np.float64)
            cnt = mask.sum(axis=1)
            sums = mask @ self._x
            tv = mask @ self._sq
            with np.errstate(invalid="ignore", divide="ignore"):
                contrib = tv - (sums**2).sum(axis=1) / cnt
            # per-cluster scatter is >= 0 up to cancellation error
            total += np.where(cnt > 0, np.maximum(contrib, 0.0), 0.0)
        return total

    def _unit_table(self, groups: np.ndarray | None = None) -> np.ndarray:
        """Per unit: object count, squared-norm sum and vector sum, (m, 2 + d).
        `groups` (m, n), if given, makes unit j the objects i with
        groups[j, i] = 1 instead of object j."""
        x, sq, size = self._x, self._sq, np.ones(self.n)
        if groups is not None:
            x, sq, size = groups @ x, groups @ sq, groups.sum(axis=1)
        return np.column_stack([size, sq, x])


# ---------------------------------------------------------------------------
# pairwise
# ---------------------------------------------------------------------------

class PairwiseReplicas(ReplicaState):
    """Per row: sums rs[s, v, j] of the unit dissimilarities from unit j to
    cluster v (rows, k, m + 1; the last column is the cluster sizes), and
    ordered within-cluster pair sums W. A unit table is the (m + 1, m) unit
    dissimilarities with the unit sizes as its last row, so a move updates
    both parts of rs with one column."""

    @staticmethod
    def _unit_sizes(tables):
        return tables[:, -1]

    def _build(self, terms) -> None:
        m = self.labels.shape[1]
        rs = [np.matmul(table, onehot) for onehot, table in terms]
        self._w = np.concatenate([np.einsum("rmk,rmk->rk", onehot, block[:, :m])
                                  for (onehot, _), block in zip(terms, rs)])
        # cluster-major, so that a move updates contiguous (m + 1)-rows
        self._rs = np.concatenate(rs).transpose(0, 2, 1).copy()
        self._cnt = self._rs[:, :, m]
        self._size = self._unit_sizes(self._tables)[self._comp]
        self._self = np.diagonal(self._tables[:, :m], axis1=1, axis2=2)[self._comp]

    def _costs(self) -> np.ndarray:
        return (self._w / np.maximum(2.0 * self._cnt, 1.0)).sum(axis=1)

    def _deltas(self, j, a) -> np.ndarray:
        r = self._rows
        f, u = self._size[:, j], self._self[:, j]
        cnt, w = self._cnt, self._w
        rj = self._rs[:, :, j]
        old = w / np.maximum(2.0 * cnt, 1.0)
        # max(., 1) only acts on a unit with no objects, whose deltas the
        # caller discards
        out = (w + 2.0 * rj + u[:, None]) / (2.0 * np.maximum(cnt + f[:, None], 1.0)) - old
        left = cnt[r, a] - f
        base = np.where(left > 0, (w[r, a] - 2.0 * rj[r, a] + u) / (2.0 * np.maximum(left, 1.0)),
                        0.0) - old[r, a]
        out += base[:, None]
        out[r, a] = 0.0
        return out

    def _shift(self, j, rows, old, new) -> None:
        u = self._self[rows, j]
        rj = self._rs[rows, :, j]
        at = np.arange(rows.size)
        self._w[rows, old] += u - 2.0 * rj[at, old]
        self._w[rows, new] += u + 2.0 * rj[at, new]
        col = self._tables[self._comp[rows], :, j]
        self._rs[rows, old] -= col
        self._rs[rows, new] += col


class PairwiseHalves(SplitHalf):
    """Per half, cluster and cost: count and ordered within-half pair sum W.
    The low half also keeps its dissimilarity sums to each high-half object,
    so the cross-half pairs of a block are one matrix product with the high
    half's masks: W = W_lo + W_hi + 2 (mask_lo @ D[lo, hi]) @ mask_hi.T."""

    def __init__(self, costs: list[PairwiseCost], lo_masks: np.ndarray, hi_masks: np.ndarray):
        h = lo_masks.shape[2]
        d = np.stack([cost._d for cost in costs])
        self._lo = [(m.sum(axis=1), (np.matmul(m, d[:, :h, :h]) * m).sum(axis=-1),
                     np.matmul(m, d[:, :h, h:])) for m in lo_masks]
        self._hi = [(m.sum(axis=1), (np.matmul(m, d[:, h:, h:]) * m).sum(axis=-1), m)
                    for m in hi_masks]

    def block(self, tables: slice, lo: slice, hi: slice) -> np.ndarray:
        total = 0.0
        for (c_lo, w_lo, cross_lo), (c_hi, w_hi, m_hi) in zip(self._lo, self._hi):
            w = np.matmul(m_hi[hi], cross_lo[tables, lo].transpose(0, 2, 1))
            w *= 2.0
            w += w_hi[tables, hi, None]
            w += w_lo[tables, None, lo]
            # an empty cluster has W = 0, so max(cnt, 1) yields its 0 cost
            w /= 2.0 * np.maximum(c_hi[hi, None] + c_lo[None, lo], 1.0)
            total = total + w
        return total


class PairwiseCost(CostFunction):
    """Within-cluster dissimilarity sums, each cluster normalized by 2 n_v."""

    name = "pairwise"
    _replicas = PairwiseReplicas
    _halves = PairwiseHalves

    def __init__(self, data: Dataset, k: int):
        if data.kind is not Kind.DISSIMILARITIES:
            raise ValueError("pairwise cost requires a dissimilarity dataset")
        super().__init__(n=data.n, k=k)
        self.data = data
        self._d = data.dissim

    def evaluate(self, labels: np.ndarray) -> float:
        return float(self.evaluate_batch(np.asarray(labels)[None, :])[0])

    def evaluate_batch(self, labels: np.ndarray) -> np.ndarray:
        total = np.zeros(labels.shape[0])
        for v in range(1, self.k + 1):
            mask = (labels == v).astype(np.float64)
            cnt = mask.sum(axis=1)
            w = ((mask @ self._d) * mask).sum(axis=1)
            with np.errstate(invalid="ignore", divide="ignore"):
                contrib = w / (2.0 * cnt)
            total += np.where(cnt > 0, contrib, 0.0)
        return total

    def _unit_table(self, groups: np.ndarray | None = None) -> np.ndarray:
        """The unit dissimilarities, which sum the object dissimilarities
        between two units' objects (a unit's own entry is its within-unit
        pair sum), with the unit sizes as one more row, (m + 1, m). `groups`
        as for KMeansCost._unit_table."""
        dissim, size = self._d, np.ones(self.n)
        if groups is not None:
            dissim, size = groups @ self._d @ groups.T, groups.sum(axis=1)
        return np.vstack([dissim, size])


# ---------------------------------------------------------------------------
# combined two-sample cost
# ---------------------------------------------------------------------------

class JointCost(CostFunction):
    """R(c, X1) + R(pushforward(c), X2) as a cost over training assignments.

    Flipping training site j also flips every test site i with nu[i] = j, so
    the second term's state has one unit per training site: that fan-in set.
    """

    def __init__(self, cost1: CostFunction, cost2: CostFunction, corr: Correspondence):
        if cost1.n != cost2.n or cost1.n != corr.n:
            raise ValueError("both samples and the correspondence must share n")
        if cost1.k != cost2.k:
            raise ValueError("cluster counts differ between the two costs")
        if type(cost1) is not type(cost2):
            raise ValueError("both costs must be of one family")
        super().__init__(n=cost1.n, k=cost1.k)
        self.name = f"joint[{cost1.name}]"
        self._replicas = cost1._replicas
        self.cost1 = cost1
        self.cost2 = cost2
        self.nu = corr.nu
        # groups[j, i] = 1 when test object i is pushed from training object j
        self._groups = (corr.nu[None, :] == np.arange(corr.n)[:, None]).astype(np.float64)

    def evaluate(self, labels: np.ndarray) -> float:
        labels = np.asarray(labels)
        return self.cost1.evaluate(labels) + self.cost2.evaluate(labels[self.nu])

    def _unit_tables(self) -> tuple[np.ndarray, ...]:
        return self.cost1._unit_table(), self.cost2._unit_table(self._groups)


def replica_batch(costs: list[CostFunction], labels: list[np.ndarray]) -> ReplicaState:
    """One state over the replicas of several costs of one family, k and n:
    labels[i] (R_i, n) are the cluster indices (0..k-1) of costs[i]'s
    replicas, stacked in order. A JointCost counts as its costs' family."""
    first = costs[0]
    if any((c._replicas, c.k, c.n) != (first._replicas, first.k, first.n) for c in costs):
        raise ValueError("a replica batch needs costs of one family, k and n")
    return first._replicas([(np.asarray(lab), cost._unit_tables())
                            for cost, lab in zip(costs, labels, strict=True)], first.k)


# ---------------------------------------------------------------------------
# the minimizer search
# ---------------------------------------------------------------------------

def erm_search(cost: CostFunction, restarts: int = 50, seed: int = 0) -> tuple[Assignment, float]:
    """Approximate empirical risk minimization: `restarts` greedy single-site
    descents from uniform random starts, run as one replica each; returns
    the best local optimum found (the lowest restart index on ties). The
    exact engine's table argmin is the global minimizer."""
    starts = [derive_rng(seed, r).integers(1, cost.k + 1, size=cost.n) for r in range(restarts)]
    state = cost.replica_state(np.stack(starts) - 1)
    while state.sweep():
        pass
    finals = [cost.evaluate(labels + 1) for labels in state.labels]
    best = int(np.argmin(finals))
    return Assignment(labels=state.labels[best] + 1, k=cost.k), float(finals[best])
