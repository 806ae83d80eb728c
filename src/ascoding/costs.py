"""Clustering cost functions and the empirical-minimizer search.

Two concrete costs are shipped:

* k-means: total within-cluster sum of squared distances to cluster means
  (centroids are minimized out analytically).
* pairwise: sum over clusters of the within-cluster dissimilarities,
  normalized per cluster as W_v / (2 n_v).

Both are label-permutation invariant, nonnegative, and treat empty clusters
as zero-cost, so the hypothesis class is all k^n label vectors.

Each cost exposes a SiteState carrying sufficient statistics (cluster sums
and counts) so that single-site and same-label group moves cost O(k) instead
of a full re-evaluation; the Gibbs sampler and local search run on it. The
same statistics are additive over disjoint object sets, so each cost also
exposes a SplitHalf: per-cluster statistics of the two halves of the objects
from which the exact engine assembles every assignment's cost without
decoding it.
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
    "SiteState",
    "SplitHalf",
    "erm_search",
]

DEFAULT_BUDGET = 1 << 24


class SiteState(ABC):
    """Mutable view of one assignment with incremental move support.

    Labels are stored 1..k. deltas(i)[b-1] is the cost change of setting site
    i to label b; the entry for the current label is exactly 0.
    """

    labels: np.ndarray

    @property
    @abstractmethod
    def cost(self) -> float: ...

    @abstractmethod
    def deltas(self, i: int) -> np.ndarray: ...

    @abstractmethod
    def move(self, i: int, new_label: int) -> None: ...

    @abstractmethod
    def group_deltas(self, members: np.ndarray) -> np.ndarray:
        """Cost changes of moving all `members` (which must share one current
        label) jointly to each label."""

    @abstractmethod
    def move_group(self, members: np.ndarray, new_label: int) -> None: ...


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
    def site_state(self, labels: np.ndarray) -> SiteState: ...

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

    def site_state(self, labels: np.ndarray) -> "KMeansState":
        return KMeansState(self, labels)

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


class KMeansState(SiteState):
    def __init__(self, cost: KMeansCost, labels: np.ndarray):
        self._c = cost
        self.labels = np.asarray(labels, dtype=np.int64).copy()
        k = cost.k
        onehot = np.zeros((cost.n, k))
        onehot[np.arange(cost.n), self.labels - 1] = 1.0
        self._cnt = onehot.sum(axis=0)                  # (k,)
        self._sums = onehot.T @ cost._x                 # (k, d)
        self._sq = onehot.T @ cost._sq                  # (k,)

    @property
    def cost(self) -> float:
        # empty clusters carry exact-to-tiny zero sums, so dividing by
        # max(cnt, 1) is safe and avoids errstate overhead
        contrib = self._sq - (self._sums**2).sum(axis=1) / np.maximum(self._cnt, 1.0)
        return float(np.maximum(contrib, 0.0).sum())

    def deltas(self, i: int) -> np.ndarray:
        return self._deltas_for(int(self.labels[i]) - 1, self._c._x[i], 1)

    def group_deltas(self, members: np.ndarray) -> np.ndarray:
        return self._deltas_for(
            int(self.labels[members[0]]) - 1,
            self._c._x[members].sum(axis=0),
            members.size,
        )

    def _deltas_for(self, a: int, s_f: np.ndarray, f: int) -> np.ndarray:
        cnt, sums = self._cnt, self._sums
        na = cnt[a] - f
        base = (sums[a] @ sums[a]) / cnt[a]
        if na > 0:
            rem = sums[a] - s_f
            base -= (rem @ rem) / na
        grown = sums + s_f
        new = (grown * grown).sum(axis=1) / (cnt + f)
        old = (sums * sums).sum(axis=1) / np.maximum(cnt, 1.0)
        out = base + old - new
        out[a] = 0.0
        return out

    def move(self, i: int, new_label: int) -> None:
        a = int(self.labels[i]) - 1
        b = new_label - 1
        if a == b:
            return
        x_i = self._c._x[i]
        self._cnt[a] -= 1
        self._cnt[b] += 1
        self._sums[a] -= x_i
        self._sums[b] += x_i
        t = self._c._sq[i]
        self._sq[a] -= t
        self._sq[b] += t
        self.labels[i] = new_label

    def move_group(self, members: np.ndarray, new_label: int) -> None:
        a = int(self.labels[members[0]]) - 1
        b = new_label - 1
        if a == b:
            return
        f = members.size
        s_f = self._c._x[members].sum(axis=0)
        t_f = self._c._sq[members].sum()
        self._cnt[a] -= f
        self._cnt[b] += f
        self._sums[a] -= s_f
        self._sums[b] += s_f
        self._sq[a] -= t_f
        self._sq[b] += t_f
        self.labels[members] = new_label


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

    def site_state(self, labels: np.ndarray) -> "PairwiseState":
        return PairwiseState(self, labels)

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


class PairwiseState(SiteState):
    def __init__(self, cost: PairwiseCost, labels: np.ndarray):
        self._c = cost
        self.labels = np.asarray(labels, dtype=np.int64).copy()
        k = cost.k
        onehot = np.zeros((cost.n, k))
        onehot[np.arange(cost.n), self.labels - 1] = 1.0
        self._cnt = onehot.sum(axis=0)          # (k,)
        self._rs = cost._d @ onehot             # (n, k): rs[i, v] = sum_{j in v} D_ij
        self._w = (onehot * self._rs).sum(axis=0)  # (k,) ordered within-pair sums

    @property
    def cost(self) -> float:
        return float((self._w / np.maximum(2.0 * self._cnt, 1.0)).sum())

    def deltas(self, i: int) -> np.ndarray:
        return self._deltas_for(int(self.labels[i]) - 1, self._rs[i], 1, 0.0)

    def group_deltas(self, members: np.ndarray) -> np.ndarray:
        return self._deltas_for(
            int(self.labels[members[0]]) - 1,
            self._rs[members].sum(axis=0),
            members.size,
            float(self._c._d[np.ix_(members, members)].sum()),
        )

    def _deltas_for(self, a: int, r_f: np.ndarray, f: int, u: float) -> np.ndarray:
        cnt, w = self._cnt, self._w
        na = cnt[a] - f
        base = -w[a] / (2.0 * cnt[a])
        if na > 0:
            base += (w[a] - 2.0 * r_f[a] + u) / (2.0 * na)
        new = (w + 2.0 * r_f + u) / (2.0 * (cnt + f))
        old = w / np.maximum(2.0 * cnt, 1.0)
        out = base + new - old
        out[a] = 0.0
        return out

    def move(self, i: int, new_label: int) -> None:
        a = int(self.labels[i]) - 1
        b = new_label - 1
        if a == b:
            return
        ra, rb = self._rs[i, a], self._rs[i, b]
        col = self._c._d[:, i]
        self._w[a] -= 2.0 * ra
        self._w[b] += 2.0 * rb
        self._cnt[a] -= 1
        self._cnt[b] += 1
        self._rs[:, a] -= col
        self._rs[:, b] += col
        self.labels[i] = new_label

    def move_group(self, members: np.ndarray, new_label: int) -> None:
        a = int(self.labels[members[0]]) - 1
        b = new_label - 1
        if a == b:
            return
        f = members.size
        r_f = self._rs[members].sum(axis=0)
        u = float(self._c._d[np.ix_(members, members)].sum())
        col = self._c._d[:, members].sum(axis=1)
        self._w[a] += -2.0 * r_f[a] + u
        self._w[b] += 2.0 * r_f[b] + u
        self._cnt[a] -= f
        self._cnt[b] += f
        self._rs[:, a] -= col
        self._rs[:, b] += col
        self.labels[members] = new_label


# ---------------------------------------------------------------------------
# combined two-sample cost
# ---------------------------------------------------------------------------

class JointCost(CostFunction):
    """R(c, X1) + R(pushforward(c), X2) as a cost over training assignments.

    Flipping training site j also flips every test site i with nu[i] = j, so
    site moves on the second term are group moves over that fan-in set.
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
        self._groups = [np.flatnonzero(corr.nu == j) for j in range(corr.n)]

    def evaluate(self, labels: np.ndarray) -> float:
        labels = np.asarray(labels)
        return self.cost1.evaluate(labels) + self.cost2.evaluate(labels[self.nu])

    def site_state(self, labels: np.ndarray) -> "JointState":
        return JointState(self, labels)


class JointState(SiteState):
    def __init__(self, cost: JointCost, labels: np.ndarray):
        self._c = cost
        labels = np.asarray(labels, dtype=np.int64)
        self._s1 = cost.cost1.site_state(labels)
        self._s2 = cost.cost2.site_state(labels[cost.nu])
        self.labels = self._s1.labels

    @property
    def cost(self) -> float:
        return self._s1.cost + self._s2.cost

    def deltas(self, i: int) -> np.ndarray:
        out = self._s1.deltas(i)
        grp = self._c._groups[i]
        if grp.size == 1:
            out = out + self._s2.deltas(int(grp[0]))
        elif grp.size:
            out = out + self._s2.group_deltas(grp)
        return out

    def move(self, i: int, new_label: int) -> None:
        self._s1.move(i, new_label)
        grp = self._c._groups[i]
        if grp.size == 1:
            self._s2.move(int(grp[0]), new_label)
        elif grp.size:
            self._s2.move_group(grp, new_label)

    def group_deltas(self, members: np.ndarray) -> np.ndarray:
        raise NotImplementedError("joint states support single training-site moves only")

    def move_group(self, members: np.ndarray, new_label: int) -> None:
        raise NotImplementedError("joint states support single training-site moves only")


# ---------------------------------------------------------------------------
# the minimizer search
# ---------------------------------------------------------------------------

def erm_search(cost: CostFunction, restarts: int = 50, seed: int = 0) -> tuple[Assignment, float]:
    """Approximate empirical risk minimization: `restarts` greedy single-site
    descents from uniform random starts; returns the best local optimum
    found. The exact engine's table argmin is the global minimizer."""
    n, k = cost.n, cost.k
    best_cost = np.inf
    best_labels = None
    for r in range(restarts):
        rng = derive_rng(seed, r)
        state = cost.site_state(rng.integers(1, k + 1, size=n))
        improved = True
        while improved:
            improved = False
            for i in range(n):
                d = state.deltas(i)
                b = int(np.argmin(d))
                if d[b] < 0.0:
                    state.move(i, b + 1)
                    improved = True
        final = cost.evaluate(state.labels)
        if final < best_cost:
            best_cost = final
            best_labels = state.labels.copy()
    return Assignment(labels=best_labels, k=k), float(best_cost)
