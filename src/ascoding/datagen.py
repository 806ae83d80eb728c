"""Synthetic data: Gaussian-mixture samples with controllable separation and
noise, paired and independent two-sample draws, and dataset CSV round-trips.

The generator models each object as a latent position (its mixture
component's center) measured twice with independent isotropic Gaussian noise,
so in paired mode the two samples describe the same objects and all
sample-to-sample fluctuation comes from the measurement noise.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Assignment, Dataset, Kind
from .errors import ParseError
from .rng import derive_rng

__all__ = [
    "MixtureSpec",
    "simplex_centers",
    "draw_paired_samples",
    "draw_independent_samples",
    "dissimilarity_from_vectors",
    "write_csv_rows",
    "save_dataset_csv",
    "load_dataset_csv",
    "save_labels_csv",
]


def simplex_centers(k: int, d: int, separation: float) -> np.ndarray:
    """k centers with every pairwise distance exactly `separation`.

    Uses scaled standard basis vectors, so d >= k is required for k >= 2.
    """
    if k == 1:
        return np.zeros((1, d))
    if d < k:
        raise ValueError(f"simplex centers need d >= k_true ({d} < {k})")
    centers = np.zeros((k, d))
    centers[:k, :k] = np.eye(k) * (separation / np.sqrt(2.0))
    return centers


@dataclass(frozen=True)
class MixtureSpec:
    """Mixture of k_true equally likely components in d dimensions, centred
    on a regular simplex with edge `separation`, with measurement noise."""

    n: int
    d: int
    k_true: int
    noise_sigma: float
    seed: int
    separation: float | None = None
    balanced: bool = False  # equal occupancy instead of multinomial draws
    centers: np.ndarray = field(init=False, repr=False, compare=False)  # from the fields above

    def __post_init__(self):
        if self.n < 1 or self.d < 1 or self.k_true < 1:
            raise ValueError("n, d, k_true must be >= 1")
        if self.balanced and self.n % self.k_true != 0:
            raise ValueError("balanced occupancy requires k_true to divide n")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.separation is None and self.k_true > 1:
            raise ValueError("separation must be given when k_true > 1")
        centers = simplex_centers(self.k_true, self.d, self.separation or 0.0)
        centers.flags.writeable = False
        object.__setattr__(self, "centers", centers)


def _draw_components(spec: MixtureSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.balanced:
        return np.repeat(np.arange(spec.k_true), spec.n // spec.k_true)
    # with p, choice draws by inverse CDF; without it, other values
    return rng.choice(spec.k_true, size=spec.n, p=np.full(spec.k_true, 1.0 / spec.k_true))


def draw_paired_samples(spec: MixtureSpec) -> tuple[Dataset, Dataset, Assignment]:
    """Two noisy measurements of the same n latent objects.

    Returns (train, test, true_labels); the labels are component indices for
    evaluation only and are never consumed by the validation machinery.
    """
    rng = derive_rng(spec.seed)
    comps = _draw_components(spec, rng)
    z = spec.centers[comps]
    x1 = z + spec.noise_sigma * rng.standard_normal((spec.n, spec.d))
    x2 = z + spec.noise_sigma * rng.standard_normal((spec.n, spec.d))
    labels = Assignment(labels=comps + 1, k=spec.k_true)
    return Dataset.from_vectors(x1), Dataset.from_vectors(x2), labels


def draw_independent_samples(
    spec: MixtureSpec,
) -> tuple[Dataset, Dataset, Assignment, Assignment]:
    """Two fully independent draws from the same mixture.

    The first sample reproduces draw_paired_samples' train sample for the
    same seed; only the second draw differs. This mode stresses the
    nearest-neighbor correspondence and is documented as adversarial for it.
    """
    rng = derive_rng(spec.seed)
    comps1 = _draw_components(spec, rng)
    x1 = spec.centers[comps1] + spec.noise_sigma * rng.standard_normal((spec.n, spec.d))
    comps2 = _draw_components(spec, rng)
    x2 = spec.centers[comps2] + spec.noise_sigma * rng.standard_normal((spec.n, spec.d))
    return (
        Dataset.from_vectors(x1),
        Dataset.from_vectors(x2),
        Assignment(labels=comps1 + 1, k=spec.k_true),
        Assignment(labels=comps2 + 1, k=spec.k_true),
    )


def dissimilarity_from_vectors(data: Dataset) -> Dataset:
    """Squared Euclidean distance matrix of a vector dataset."""
    if data.kind is not Kind.VECTORS:
        raise ValueError("expected a vector dataset")
    data.check_scale()
    x = data.vectors
    diff = x[:, None, :] - x[None, :, :]
    return Dataset.from_dissimilarities((diff**2).sum(axis=2))


# ---------------------------------------------------------------------------
# CSV round-trips
# ---------------------------------------------------------------------------

def write_csv_rows(path: str, header: str, rows) -> None:
    """The package's one CSV format: a header line, then one comma-joined
    line per row, every line ending in a bare newline. Integers are written
    as digits, every other value as the repr of a Python float, which reads
    back to the same float."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(v) if isinstance(v, (int, np.integer)) else repr(float(v))
                              for v in row) + "\n")


def save_dataset_csv(data: Dataset, path: str) -> None:
    """Header line `n,d` (vectors) or `n,dissim`, then one row per object."""
    if data.kind is Kind.VECTORS:
        write_csv_rows(path, f"{data.n},{data.d}", data.vectors)
    else:
        write_csv_rows(path, f"{data.n},dissim", data.dissim)


def load_dataset_csv(path: str) -> Dataset:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty file", 1)
    head = lines[0].split(",")
    if len(head) != 2:
        raise ParseError(f"expected header 'n,d' or 'n,dissim', got {lines[0]!r}", 1)
    try:
        n = int(head[0])
    except ValueError:
        raise ParseError(f"bad object count {head[0]!r}", 1) from None
    dissim = head[1].strip() == "dissim"
    try:
        width = n if dissim else int(head[1])
    except ValueError:
        raise ParseError(f"bad dimension {head[1]!r}", 1) from None
    if len(lines) - 1 != n:
        raise ParseError(f"expected {n} data rows, found {len(lines) - 1}", len(lines))
    out = np.empty((n, width))
    for r, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != width:
            raise ParseError(f"expected {width} fields, found {len(parts)}", r)
        try:
            out[r - 2] = [float(p) for p in parts]
        except ValueError:
            raise ParseError(f"non-numeric field in {line!r}", r) from None
        if not np.isfinite(out[r - 2]).all():
            raise ParseError(f"non-finite field in {line!r}", r)
    return Dataset.from_dissimilarities(out) if dissim else Dataset.from_vectors(out)


def save_labels_csv(labels: Assignment, path: str) -> None:
    write_csv_rows(path, f"{labels.n},labels,{labels.k}", labels.labels[:, None])
