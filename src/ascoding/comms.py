"""Communication-protocol simulation: permutation codebooks, the noisy
problem-generator channel, the maximum-overlap decoder, empirical error
rates, and the analytic random-coding error bound.

The sender and receiver share the training sample and a codebook of object
permutations. The sender picks a codeword sigma_s; the channel draws a fresh
paired test sample, applies sigma_s, and delivers X~ = sigma_s o X2. The
receiver scores every codeword sigma by how many gamma-optimal training
clusterings, carried to the test sample through the object correspondence
and re-indexed by sigma, remain gamma-optimal on X~, and decodes the argmax.

The correspondence is built once between the paired samples and transported
through each codeword hypothesis. Rebuilding nearest neighbors against X~
per codeword would let the receiver re-identify objects geometrically and
thereby cancel the permutation algebraically, collapsing all codeword scores
to the same value; the transported correspondence makes the sent codeword's
score equal the canonical two-sample overlap that the capacity machinery
estimates, and wrong codewords score at chance level.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .capacity import CapacityConfig, exact_point_at_gamma, make_cost
from .core import Dataset, Kind, build_correspondence
from .costs import DEFAULT_BUDGET
from .datagen import MixtureSpec, draw_paired_samples
from .errors import BudgetError
from .exact import GAMMA_SLACK, decode_indices, enumerate_costs, pushforward_weights
from .rng import derive_rng, derive_seed

__all__ = [
    "Codebook",
    "TransmissionResult",
    "TrialRow",
    "ErrorRateResult",
    "generate_codebook",
    "permute_dataset",
    "transmit_and_decode",
    "error_rate",
    "error_bound",
    "wilson_interval",
]

DEFAULT_MAX_CODEBOOK = 4096
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class Codebook:
    """m distinct permutations of {0..n-1}; row 0 is the identity."""

    sigmas: np.ndarray
    rate_bits: float
    seed: int

    def __post_init__(self):
        sig = np.ascontiguousarray(self.sigmas, dtype=np.int64)
        if sig.ndim != 2:
            raise ValueError("sigmas must be an m x n matrix")
        if not np.array_equal(sig[0], np.arange(sig.shape[1])):
            raise ValueError("codeword 0 must be the identity permutation")
        if len({tuple(row) for row in sig}) != sig.shape[0]:
            raise ValueError("codewords must be distinct")
        sig.flags.writeable = False
        object.__setattr__(self, "sigmas", sig)

    @property
    def m(self) -> int:
        return self.sigmas.shape[0]

    @property
    def n(self) -> int:
        return self.sigmas.shape[1]


def generate_codebook(
    n: int, rate_bits: float, seed: int, max_size: int = DEFAULT_MAX_CODEBOOK
) -> Codebook:
    """Identity plus m-1 uniformly drawn distinct permutations, with
    m = ceil(2^(n * rate_bits))."""
    if rate_bits < 0:
        raise ValueError("rate_bits must be >= 0")
    m = max(1, int(math.ceil(2.0 ** (n * rate_bits) - 1e-9)))
    if m > max_size:
        raise BudgetError(f"codebook size {m} exceeds maximum {max_size}")
    if m > math.factorial(n):
        raise ValueError(f"codebook size {m} exceeds n! = {math.factorial(n)}")
    rng = derive_rng(seed)
    rows = [np.arange(n, dtype=np.int64)]
    seen = {tuple(rows[0])}
    while len(rows) < m:
        cand = rng.permutation(n).astype(np.int64)
        key = tuple(cand)
        if key not in seen:
            seen.add(key)
            rows.append(cand)
    return Codebook(sigmas=np.vstack(rows), rate_bits=rate_bits, seed=seed)


def permute_dataset(data: Dataset, sigma: np.ndarray) -> Dataset:
    """Reorder object indices: output object i is input object sigma[i].
    Dissimilarities are permuted congruently on rows and columns."""
    sigma = np.asarray(sigma, dtype=np.int64)
    if sigma.shape != (data.n,):
        raise ValueError(f"permutation length {sigma.size} != n = {data.n}")
    if data.kind is Kind.VECTORS:
        return Dataset.from_vectors(data.vectors[sigma])
    return Dataset.from_dissimilarities(data.dissim[np.ix_(sigma, sigma)])


@dataclass(frozen=True)
class TransmissionResult:
    sent_index: int
    decoded_index: int
    overlap_scores: np.ndarray
    correct: bool

    def __post_init__(self):
        scores = np.ascontiguousarray(self.overlap_scores, dtype=np.int64)
        scores.flags.writeable = False
        object.__setattr__(self, "overlap_scores", scores)
        if self.decoded_index != int(np.argmax(scores)):
            raise ValueError("decoded_index must be the argmax of the scores")
        if self.correct != (self.decoded_index == self.sent_index):
            raise ValueError("correct flag is inconsistent")


def transmit_and_decode(
    codebook: Codebook,
    sent_index: int,
    train: Dataset,
    fresh_test: Dataset,
    cost_family: str,
    k: int,
    gamma: float,
    budget: int = DEFAULT_BUDGET,
) -> TransmissionResult:
    """Run one channel use and decode by maximum approximation-set overlap
    (ties to the lowest codeword index)."""
    if not (0 <= sent_index < codebook.m):
        raise ValueError("sent_index out of range")
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    n = train.n
    if codebook.n != n or fresh_test.n != n:
        raise ValueError("codebook and samples must share n")

    received = permute_dataset(fresh_test, codebook.sigmas[sent_index])
    table_r = enumerate_costs(make_cost(cost_family, received, k), budget=budget)
    member_r = table_r.costs <= table_r.r_min + gamma + GAMMA_SLACK

    table1 = enumerate_costs(make_cost(cost_family, train, k), budget=budget)
    sel = np.flatnonzero(table1.costs <= table1.r_min + gamma + GAMMA_SLACK)
    corr = build_correspondence(train, fresh_test)
    # received object i is test object sigma[i], the image of training
    # object nu[sigma[i]]: one push-forward map per codeword
    digits = decode_indices(sel, n, k) - 1
    weights = pushforward_weights(corr.nu[codebook.sigmas], k)
    scores = np.array([member_r[digits @ w].sum() for w in weights], dtype=np.int64)
    decoded = int(np.argmax(scores))
    return TransmissionResult(
        sent_index=sent_index,
        decoded_index=decoded,
        overlap_scores=scores,
        correct=decoded == sent_index,
    )


def error_bound(info_per_object: float, rate_bits: float, n: int) -> float:
    """Random-coding upper bound min(1, exp(-n (I - R log 2)))."""
    arg = -n * (info_per_object - rate_bits * math.log(2.0))
    return 1.0 if arg >= 0 else float(math.exp(arg))


def wilson_interval(errors: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = errors / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    lo = 0.0 if errors == 0 else max(0.0, center - half)
    hi = 1.0 if errors == trials else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class TrialRow:
    trial: int
    sent: int
    decoded: int
    correct: bool
    best_score: int
    second_score: int


@dataclass(frozen=True)
class ErrorRateResult:
    p_hat: float
    wilson_low: float
    wilson_high: float
    trials: int
    errors: int
    bound: float | None
    rows: tuple[TrialRow, ...]

    @property
    def wilson_halfwidth(self) -> float:
        return 0.5 * (self.wilson_high - self.wilson_low)


def error_rate(
    codebook: Codebook,
    spec: MixtureSpec,
    cost_family: str,
    k: int,
    gamma: float,
    trials: int,
    seed: int,
    compute_bound: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> ErrorRateResult:
    """Empirical error frequency over independently generated channel uses.

    Each trial draws a fresh paired sample from the generator, picks a
    uniform message, and decodes. With compute_bound=True the analytic bound
    is evaluated per trial at this gamma on the trial's own sample pair and
    averaged (the bound holds in expectation over the data draw).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rows: list[TrialRow] = []
    errors = 0
    bounds: list[float] = []
    for t in range(trials):
        trial_spec = replace(spec, seed=derive_seed(seed, t, 0))
        x1, x2, _ = draw_paired_samples(trial_spec)
        sent = int(derive_rng(seed, t, 1).integers(codebook.m))
        res = transmit_and_decode(codebook, sent, x1, x2, cost_family, k, gamma, budget)
        errors += 0 if res.correct else 1
        top = np.sort(res.overlap_scores)[::-1]
        rows.append(TrialRow(
            trial=t, sent=sent, decoded=res.decoded_index, correct=res.correct,
            best_score=int(top[0]), second_score=int(top[1]) if codebook.m > 1 else 0,
        ))
        if compute_bound:
            pt = exact_point_at_gamma(
                x1, x2, cost_family, k, gamma, cfg=CapacityConfig(budget=budget)
            )
            bounds.append(error_bound(pt.info, codebook.rate_bits, spec.n))
    lo, hi = wilson_interval(errors, trials)
    return ErrorRateResult(
        p_hat=errors / trials, wilson_low=lo, wilson_high=hi,
        trials=trials, errors=errors,
        bound=float(np.mean(bounds)) if bounds else None,
        rows=tuple(rows),
    )


def write_trials_csv(rows: tuple[TrialRow, ...], path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("trial,sent,decoded,correct,best_score,second_score\n")
        for r in rows:
            fh.write(f"{r.trial},{r.sent},{r.decoded},{int(r.correct)},{r.best_score},{r.second_score}\n")
