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
numpy call gives every replica's cost changes for one site. Its `sweep` is
the one kernel behind the Gibbs sampler, replica exchange, the pilot grid
and the multistart minimizer search. The same statistics are additive over
disjoint object sets, so each cost also exposes a SplitHalf: per-cluster
statistics of the two halves of the objects from which the exact engine
assembles every assignment's cost without decoding it.
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
    objects one training object is pushed to. labels[r, j] is the cluster
    index (0..k-1) of unit j in replica r; the state owns `labels` and
    updates it in place. deltas(j)[r, b] is replica r's cost change of giving
    unit j cluster b; the entry for its current cluster is exactly 0.
    """

    labels: np.ndarray
    k: int

    @property
    @abstractmethod
    def cost(self) -> np.ndarray:
        """Each replica's cost, shape (R,)."""

    @abstractmethod
    def deltas(self, j: int) -> np.ndarray: ...

    @abstractmethod
    def shift(self, j: int, rows: np.ndarray, old: np.ndarray, new: np.ndarray) -> None:
        """Move unit j's statistics in replicas `rows` from clusters `old` to
        clusters `new` (all three 1-d and equally long); labels are left to
        the caller."""

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
            rows = np.flatnonzero(new != old)
            if rows.size:
                new = new[rows]
                self.shift(j, rows, old[rows], new)
                self.labels[rows, j] = new
                moves += rows.size
        return moves


def _onehot(labels: np.ndarray, k: int) -> np.ndarray:
    """(R, m, k) cluster indicators of (R, m) labels."""
    return (labels[:, :, None] == np.arange(k)).astype(np.float64)


class SplitHalf(ABC):
    """Per-cluster statistics of the low half (objects 0..h-1) and the high
    half (objects h..n-1) of one cost's objects.

    Built from per-half label masks: masks[v, a, i] is 1.0 when object i of
    the half carries label v+1 in half-assignment a, and 0.0 otherwise.
    """

    @abstractmethod
    def block(self, lo: slice, hi: slice) -> np.ndarray:
        """Costs of every pairing of the low-half assignments `lo` with the
        high-half assignments `hi`, shaped (hi rows, lo rows)."""


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

    @abstractmethod
    def replica_state(self, labels: np.ndarray) -> ReplicaState:
        """State of the (R, n) cluster indices `labels` (0..k-1), which the
        state takes over and updates in place."""

    def split_half(self, lo_masks: np.ndarray, hi_masks: np.ndarray) -> SplitHalf:
        """Statistics of the two halves of the objects for exact enumeration;
        the masks cover objects 0..h-1 and h..n-1 with h = lo_masks.shape[2]."""
        raise NotImplementedError(f"{type(self).__name__} has no split-half statistics")


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------

class KMeansCost(CostFunction):
    """Total within-cluster squared scatter around cluster means."""

    name = "kmeans"

    def __init__(self, data: Dataset, k: int):
        if data.kind is not Kind.VECTORS:
            raise ValueError("kmeans cost requires a vector dataset")
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

    def replica_state(self, labels: np.ndarray, groups: np.ndarray | None = None) -> KMeansReplicas:
        """`groups` (m, n), if given, makes unit j the objects i with
        groups[j, i] = 1 instead of object j."""
        x, sq, size = self._x, self._sq, np.ones(self.n)
        if groups is not None:
            x, sq, size = groups @ x, groups @ sq, groups.sum(axis=1)
        return KMeansReplicas(x, sq, size, labels, self.k)

    def split_half(self, lo_masks: np.ndarray, hi_masks: np.ndarray) -> "KMeansHalves":
        return KMeansHalves(self, lo_masks, hi_masks)


class KMeansHalves(SplitHalf):
    """Per half and cluster: count, vector sum, squared-norm sum and the
    squared norm of the vector sum. Joining two halves adds them; the only
    cross-half term is the dot product of the two vector sums."""

    def __init__(self, cost: KMeansCost, lo_masks: np.ndarray, hi_masks: np.ndarray):
        h = lo_masks.shape[2]
        self._lo = [self._stats(m, cost._x[:h], cost._sq[:h]) for m in lo_masks]
        self._hi = [self._stats(m, cost._x[h:], cost._sq[h:]) for m in hi_masks]

    @staticmethod
    def _stats(mask, x, sq):
        sums = mask @ x
        return mask.sum(axis=1), sums, mask @ sq, (sums**2).sum(axis=1)

    def block(self, lo: slice, hi: slice) -> np.ndarray:
        total = 0.0
        for (c_lo, s_lo, q_lo, n_lo), (c_hi, s_hi, q_hi, n_hi) in zip(self._lo, self._hi):
            norm = s_hi[hi] @ s_lo[lo].T
            norm *= 2.0
            norm += n_hi[hi, None]
            norm += n_lo[None, lo]
            # an empty cluster has zero sums, so max(cnt, 1) yields its 0 cost
            norm /= np.maximum(c_hi[hi, None] + c_lo[None, lo], 1.0)
            scatter = q_hi[hi, None] + q_lo[None, lo]
            scatter -= norm
            # per-cluster scatter is >= 0 up to cancellation error
            total = total + np.maximum(scatter, 0.0, out=scatter)
        return total


class KMeansReplicas(ReplicaState):
    """Per replica and cluster, stacked on the last axis: object count,
    squared-norm sum and vector sum, (R, k, 2 + d). Units carry the same
    three statistics of their objects, so a move adds one unit row to one
    cluster and subtracts it from another."""

    def __init__(self, x: np.ndarray, sq: np.ndarray, size: np.ndarray,
                 labels: np.ndarray, k: int):
        self.labels, self.k = labels, k
        self._unit = np.column_stack([size, sq, x])
        self._rows = np.arange(labels.shape[0])
        self._stats = np.einsum("rmk,ms->rks", _onehot(labels, k), self._unit)

    @property
    def cost(self) -> np.ndarray:
        # empty clusters carry exact-to-tiny zero sums, so dividing by
        # max(cnt, 1) is safe; per-cluster scatter is >= 0 up to cancellation
        cnt, sqs, sums = self._stats[..., 0], self._stats[..., 1], self._stats[..., 2:]
        norm = np.einsum("rkd,rkd->rk", sums, sums)
        return np.maximum(sqs - norm / np.maximum(cnt, 1.0), 0.0).sum(axis=1)

    def deltas(self, j: int) -> np.ndarray:
        r, a = self._rows, self.labels[:, j]
        f, x = self._unit[j, 0], self._unit[j, 2:]
        cnt, sums = self._stats[..., 0], self._stats[..., 2:]
        # the unit's squared-norm sum enters one cluster and leaves another,
        # so only the |sum|^2 / count terms change
        old = np.einsum("rkd,rkd->rk", sums, sums) / np.maximum(cnt, 1.0)
        grown = sums + x
        out = old - np.einsum("rkd,rkd->rk", grown, grown) / (cnt + f)
        rest = sums[r, a] - x
        left = cnt[r, a] - f
        base = old[r, a] - np.where(
            left > 0, np.einsum("rd,rd->r", rest, rest) / np.maximum(left, 1.0), 0.0)
        out += base[:, None]
        out[r, a] = 0.0
        return out

    def shift(self, j, rows, old, new) -> None:
        self._stats[rows, old] -= self._unit[j]
        self._stats[rows, new] += self._unit[j]


# ---------------------------------------------------------------------------
# pairwise
# ---------------------------------------------------------------------------

class PairwiseCost(CostFunction):
    """Within-cluster dissimilarity sums, each cluster normalized by 2 n_v."""

    name = "pairwise"

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

    def replica_state(self, labels: np.ndarray, groups: np.ndarray | None = None) -> PairwiseReplicas:
        """`groups` as for KMeansCost.replica_state."""
        dissim, size = self._d, np.ones(self.n)
        if groups is not None:
            dissim, size = groups @ self._d @ groups.T, groups.sum(axis=1)
        return PairwiseReplicas(dissim, size, labels, self.k)

    def split_half(self, lo_masks: np.ndarray, hi_masks: np.ndarray) -> "PairwiseHalves":
        return PairwiseHalves(self, lo_masks, hi_masks)


class PairwiseHalves(SplitHalf):
    """Per half and cluster: count and ordered within-half pair sum W. The
    low half also keeps its dissimilarity sums to each high-half object, so
    the cross-half pairs of a block are one matrix product with the high
    half's masks: W = W_lo + W_hi + 2 (mask_lo @ D[lo, hi]) @ mask_hi.T."""

    def __init__(self, cost: PairwiseCost, lo_masks: np.ndarray, hi_masks: np.ndarray):
        h = lo_masks.shape[2]
        d = cost._d
        self._lo = [(m.sum(axis=1), ((m @ d[:h, :h]) * m).sum(axis=1), m @ d[:h, h:])
                    for m in lo_masks]
        self._hi = [(m.sum(axis=1), ((m @ d[h:, h:]) * m).sum(axis=1), m) for m in hi_masks]

    def block(self, lo: slice, hi: slice) -> np.ndarray:
        total = 0.0
        for (c_lo, w_lo, cross_lo), (c_hi, w_hi, m_hi) in zip(self._lo, self._hi):
            w = m_hi[hi] @ cross_lo[lo].T
            w *= 2.0
            w += w_hi[hi, None]
            w += w_lo[None, lo]
            # an empty cluster has W = 0, so max(cnt, 1) yields its 0 cost
            w /= 2.0 * np.maximum(c_hi[hi, None] + c_lo[None, lo], 1.0)
            total = total + w
        return total


class PairwiseReplicas(ReplicaState):
    """Per replica: row sums rs[r, j, v] of the unit dissimilarities from
    unit j to cluster v (R, m + 1, k; the last row is the cluster sizes),
    and ordered within-cluster pair sums W. Unit dissimilarities sum the object
    dissimilarities between two units' objects; a unit's own entry is its
    within-unit pair sum."""

    def __init__(self, dissim: np.ndarray, size: np.ndarray, labels: np.ndarray, k: int):
        self.labels, self.k = labels, k
        m = labels.shape[1]
        # one more row holds the unit sizes, so rs[:, m] is the cluster sizes
        # and a move updates both with one column
        self._cols = np.vstack([dissim, size])
        self._size, self._self = size, np.diagonal(dissim).copy()
        self._rows = np.arange(labels.shape[0])
        onehot = _onehot(labels, k)
        self._rs = np.matmul(self._cols, onehot)
        self._cnt = self._rs[:, m]
        self._w = np.einsum("rmk,rmk->rk", onehot, self._rs[:, :m])

    @property
    def cost(self) -> np.ndarray:
        return (self._w / np.maximum(2.0 * self._cnt, 1.0)).sum(axis=1)

    def deltas(self, j: int) -> np.ndarray:
        r, a = self._rows, self.labels[:, j]
        f, u = self._size[j], self._self[j]
        cnt, w = self._cnt, self._w
        rj = self._rs[:, j]
        old = w / np.maximum(2.0 * cnt, 1.0)
        out = (w + 2.0 * rj + u) / (2.0 * (cnt + f)) - old
        left = cnt[r, a] - f
        base = np.where(left > 0, (w[r, a] - 2.0 * rj[r, a] + u) / (2.0 * np.maximum(left, 1.0)),
                        0.0) - old[r, a]
        out += base[:, None]
        out[r, a] = 0.0
        return out

    def shift(self, j, rows, old, new) -> None:
        u = self._self[j]
        rj = self._rs[rows, j]
        at = np.arange(rows.size)
        self._w[rows, old] += u - 2.0 * rj[at, old]
        self._w[rows, new] += u + 2.0 * rj[at, new]
        col = self._cols[:, j]
        self._rs[rows, :, old] -= col
        self._rs[rows, :, new] += col


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
        super().__init__(n=cost1.n, k=cost1.k)
        self.name = f"joint[{cost1.name}]"
        self.cost1 = cost1
        self.cost2 = cost2
        self.nu = corr.nu
        # groups[j, i] = 1 when test object i is pushed from training object j
        self._groups = (corr.nu[None, :] == np.arange(corr.n)[:, None]).astype(np.float64)

    def evaluate(self, labels: np.ndarray) -> float:
        labels = np.asarray(labels)
        return self.cost1.evaluate(labels) + self.cost2.evaluate(labels[self.nu])

    def replica_state(self, labels: np.ndarray) -> JointReplicas:
        return JointReplicas(self.cost1.replica_state(labels),
                             self.cost2.replica_state(labels, self._groups),
                             self._groups.sum(axis=1))


class JointReplicas(ReplicaState):
    """The training state plus the test state over fan-in units, sharing
    one labels array; a unit with an empty fan-in set contributes nothing."""

    def __init__(self, s1: ReplicaState, s2: ReplicaState, fanin: np.ndarray):
        self.labels, self.k = s1.labels, s1.k
        self._s1, self._s2, self._fanin = s1, s2, fanin

    @property
    def cost(self) -> np.ndarray:
        return self._s1.cost + self._s2.cost

    def deltas(self, j: int) -> np.ndarray:
        out = self._s1.deltas(j)
        if self._fanin[j]:
            out += self._s2.deltas(j)
        return out

    def shift(self, j, rows, old, new) -> None:
        self._s1.shift(j, rows, old, new)
        if self._fanin[j]:
            self._s2.shift(j, rows, old, new)


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
