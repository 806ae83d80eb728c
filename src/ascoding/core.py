"""Shared domain types: datasets, assignments, the two-sample correspondence,
and label-type (occupancy) statistics.

Objects are identified with integer indices 0..n-1. Cluster labels run 1..k.
All entropies are in nats.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Kind",
    "Dataset",
    "Assignment",
    "Correspondence",
    "TypeDistribution",
    "CorrespondenceRequiredError",
    "build_correspondence",
    "type_distribution",
    "type_entropy",
    "log_type_class_size",
]


class Kind(enum.Enum):
    VECTORS = "vectors"
    DISSIMILARITIES = "dissimilarities"


class CorrespondenceRequiredError(ValueError):
    """Raised when a nearest-neighbor correspondence cannot be derived."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Dataset:
    """n objects described either by d-dimensional vectors or by an n x n
    dissimilarity matrix. Immutable after construction."""

    kind: Kind
    n: int
    vectors: np.ndarray | None = None
    dissim: np.ndarray | None = None

    @staticmethod
    def from_vectors(vectors: np.ndarray) -> "Dataset":
        arr = np.asarray(vectors, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"vectors must be a non-empty n x d matrix, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("vectors must be finite (no NaN or inf)")
        return Dataset(kind=Kind.VECTORS, n=arr.shape[0], vectors=_frozen(arr))

    @staticmethod
    def from_dissimilarities(dissim: np.ndarray) -> "Dataset":
        mat = np.asarray(dissim, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ValueError(f"dissimilarity matrix must be square, got shape {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("dissimilarity matrix must be finite (no NaN or inf)")
        if not np.array_equal(mat, mat.T):
            raise ValueError("dissimilarity matrix must be symmetric")
        if np.any(np.diagonal(mat) != 0.0):
            raise ValueError("dissimilarity matrix must have zero diagonal")
        if np.any(mat < 0.0):
            raise ValueError("dissimilarity matrix must be nonnegative")
        return Dataset(kind=Kind.DISSIMILARITIES, n=mat.shape[0], dissim=_frozen(mat))

    @property
    def d(self) -> int:
        if self.vectors is None:
            raise ValueError("dataset has no vector representation")
        return self.vectors.shape[1]

    def check_scale(self) -> None:
        """Reject vectors whose squared norms, or those of their sums and
        differences, overflow float64; call before any cost statistic or
        distance is computed. Each is at most d ((n + 1) max |x_ij|)^2 and
        every cost at most 8 times that, so finite bounds keep every sum
        finite and no numpy overflow warning is raised."""
        if self.vectors is None:
            return
        bound = (self.n + 1) * float(np.abs(self.vectors).max())
        if not math.isfinite(8.0 * self.d * bound * bound):
            raise ValueError("squared norms are not finite: the data's scale overflows float64")


@dataclass(frozen=True)
class Assignment:
    """A clustering hypothesis: length-n label vector with labels in 1..k."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        arr = np.asarray(self.labels, dtype=np.int64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("labels must be a non-empty 1-d vector")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if arr.min() < 1 or arr.max() > self.k:
            raise ValueError(f"labels must lie in 1..{self.k}")
        object.__setattr__(self, "labels", _frozen(arr))

    @property
    def n(self) -> int:
        return self.labels.size


@dataclass(frozen=True)
class Correspondence:
    """Training/test object identification: nu[i] is the index of the training
    object nearest to test object i, so the map is total on test objects."""

    nu: np.ndarray
    n: int

    def __post_init__(self):
        arr = np.asarray(self.nu, dtype=np.int64)
        if arr.ndim != 1 or arr.size != self.n:
            raise ValueError("nu must be a length-n index vector")
        if arr.min() < 0 or arr.max() >= self.n:
            raise ValueError("nu entries must be valid training indices in 0..n-1")
        object.__setattr__(self, "nu", _frozen(arr))


@dataclass(frozen=True)
class TypeDistribution:
    """Empirical label frequencies of an assignment: counts per label and the
    corresponding probability vector."""

    counts: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        p = np.asarray(self.p, dtype=np.float64)
        if counts.ndim != 1 or p.shape != counts.shape:
            raise ValueError("counts and p must be 1-d vectors of equal length")
        if counts.min() < 0:
            raise ValueError("counts must be nonnegative")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("p must sum to 1")
        object.__setattr__(self, "counts", _frozen(counts))
        object.__setattr__(self, "p", _frozen(p))

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    @property
    def k(self) -> int:
        return self.counts.size


def build_correspondence(train: Dataset, test: Dataset) -> Correspondence:
    """Nearest-neighbor map from each test object to its closest training
    object (squared Euclidean distance, ties broken by lowest training index).

    Both datasets must be vector datasets with matching n and d; dissimilarity
    data carries no cross-sample geometry, so callers must supply an explicit
    Correspondence instead.
    """
    if train.kind is not Kind.VECTORS or test.kind is not Kind.VECTORS:
        raise CorrespondenceRequiredError(
            "correspondence required: nearest neighbors need vector data; "
            "supply an explicit Correspondence for dissimilarity datasets"
        )
    if train.n != test.n:
        raise ValueError(f"sample sizes differ: train n={train.n}, test n={test.n}")
    if train.d != test.d:
        raise ValueError(f"dimension mismatch: train d={train.d}, test d={test.d}")
    train.check_scale()
    test.check_scale()
    a, b = train.vectors, test.vectors
    # n x n squared distances; argmin picks the lowest index on exact ties.
    d2 = ((b[:, None, :] - a[None, :, :]) ** 2).sum(axis=2)
    nu = np.argmin(d2, axis=1).astype(np.int64)
    return Correspondence(nu=nu, n=train.n)


def type_distribution(c: Assignment) -> TypeDistribution:
    """Occupancy counts n_v = #{i : labels[i] = v} and frequencies p = counts/n."""
    counts = np.bincount(c.labels, minlength=c.k + 1)[1:]
    return TypeDistribution(counts=counts, p=counts / c.n)


def type_entropy(t: TypeDistribution) -> float:
    """Shannon entropy -sum p_v log p_v in nats, with 0 log 0 = 0."""
    p = t.p[t.p > 0.0]
    return float(-(p * np.log(p)).sum())


def log_type_class_size(t: TypeDistribution, asymptotic: bool = False) -> float:
    """Log-count of label vectors sharing this type.

    Default is the log of the exact multinomial coefficient n! / prod n_v!, an
    integer; with asymptotic=True returns n * H(p), the leading-order exponent,
    which overestimates the exact count by O(log n).
    """
    if asymptotic:
        return t.n * type_entropy(t)
    count, left = 1, t.n
    for n_v in t.counts.tolist():
        count *= math.comb(left, n_v)
        left -= n_v
    return math.log(count)
