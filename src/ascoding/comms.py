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
score equal the two-sample overlap that the capacity machinery estimates,
and wrong codewords score at chance level.

Every table is one label-symmetry slice (object 0 in cluster 1; see
exact). Relabeling commutes with the push-forward, so the k relabelings of
a training member land on the k relabelings of one received assignment:
each slice member scores for k, and its push-forward is looked up on the
received slice after shifting every label by minus the label that received
object 0 inherits, that of training object nu[sigma[0]].

A simulation over a grid of codebook sizes m and widths gamma draws each
trial's sample pair once and shares it with every (m, gamma) cell: the
training table, the correspondence and the bound's exact tables are built
once per trial, the received table once per codebook, and the k shifted
member-digit matrices once per gamma, one gamma at a time. A cell then
scores all codewords with one gather.

The bound is evaluated for groups of trials whose training tables hold at
most _GROUP entries together (at least one trial): the group's beta
calibrations, one per trial and gamma, advance in lock-step, and its
points are evaluated together, so each pass over the exact tables serves
the whole group (see exact.calibrate_betas). Every value is bit for bit
the one a trial gives alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .capacity import exact_points, make_cost
from .core import Correspondence, Dataset, Kind, build_correspondence
from .costs import DEFAULT_BUDGET
from .datagen import MixtureSpec, draw_paired_samples
from .errors import BudgetError
from .exact import (
    CostTable,
    ExactTables,
    calibrate_betas,
    check_gamma,
    enumerate_costs,
    pushforward_weights,
)
from .rng import derive_rng, derive_seed

__all__ = [
    "Codebook",
    "TrialRow",
    "ErrorRateResult",
    "generate_codebook",
    "permute_dataset",
    "error_rate_grid",
    "error_bound",
    "wilson_interval",
]

DEFAULT_MAX_CODEBOOK = 4096
_Z95 = 1.959963984540054
_GATHER = 1 << 22  # entries of one scoring index matrix (32 MiB of int64)
_GROUP = 1 << 15  # entries of the training tables of one group of trials


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
    if not 0 <= rate_bits < math.inf:
        raise ValueError(f"rate_bits must be finite and >= 0, got {rate_bits!r}")
    # far past the maximum, where 2^(n R) may overflow; m checks the boundary
    if n * rate_bits > math.log2(max(max_size, 1)) + 1:
        raise BudgetError(f"codebook size 2^{n * rate_bits:g} exceeds maximum {max_size}")
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


def _shifted_member_digits(table: CostTable, gamma: float) -> np.ndarray:
    """k x members x n: the label digits (0..k-1) of the slice's
    gamma-approximation set in encoding order, every digit shifted by -s
    (mod k) in layer s. Built in place, one object's digits at a time, so no
    temporary is larger than one column."""
    k, n = table.k, table.n
    index = np.flatnonzero(table.members(gamma)) * k
    shifted = np.empty((k, index.size, n), dtype=np.int64)
    for i in range(n):
        np.mod(index // k**i, k, out=shifted[0, :, i])
    for s in range(1, k):
        np.subtract(shifted[0], s, out=shifted[s])
        shifted[s] %= k
    return shifted


def _codeword_weights(codebook: Codebook, corr: Correspondence,
                      k: int) -> tuple[np.ndarray, np.ndarray]:
    """Slice-index weights per codeword, and the anchor object whose label
    received object 0 inherits: received object i is test object sigma[i],
    the image of training object nu[sigma[i]]. Received object 0 adds k^0 to
    its anchor's push-forward weight and every other object a multiple of k,
    so w // k weighs objects 1..n-1 by their place in the slice index."""
    nu = corr.nu[codebook.sigmas]
    return pushforward_weights(nu, k) // k, nu[:, 0]


def _overlap_scores(member_r: np.ndarray, shifted: np.ndarray,
                    codewords: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """For every codeword, how many training assignments in the
    approximation set land in the received sample's when pushed forward:
    k per slice member whose push-forward, shifted by minus the member's
    label of the codeword's anchor object, is a received slice member.
    Codewords are scored in groups whose k index matrices have at most
    _GATHER entries; at desk sizes that is one gather."""
    weights, anchors = codewords
    k, members = shifted.shape[:2]
    step = max(1, _GATHER // max(1, k * members))
    scores = []
    for i in range(0, len(weights), step):
        index = shifted @ weights[i : i + step].T  # k x members x codewords
        s = shifted[0][:, anchors[i : i + step]]  # the shift onto the slice
        index = index.take(s * s.size + np.arange(s.size).reshape(s.shape))
        scores.append(member_r[index].sum(axis=0))
    return k * np.concatenate(scores)


def error_bound(info_per_object: float, rate_bits: float, n: int) -> float:
    """Random-coding upper bound min(1, exp(-n (I - R log 2)))."""
    arg = -n * (info_per_object - rate_bits * math.log(2.0))
    return 1.0 if arg >= 0 else float(math.exp(arg))


def wilson_interval(errors: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p, z = errors / trials, _Z95
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


def _trial_row(trial: int, sent: int, scores: np.ndarray) -> TrialRow:
    decoded = int(np.argmax(scores))
    top = np.sort(scores)[::-1]
    return TrialRow(
        trial=trial, sent=sent, decoded=decoded, correct=decoded == sent,
        best_score=int(top[0]), second_score=int(top[1]) if top.size > 1 else 0,
    )


def _error_rate_result(rows: list[TrialRow], bounds: list[float]) -> ErrorRateResult:
    """Summary of one cell; its bound is the mean of the per-trial bounds,
    None without any."""
    errors = sum(0 if r.correct else 1 for r in rows)
    lo, hi = wilson_interval(errors, len(rows))
    return ErrorRateResult(
        p_hat=errors / len(rows), wilson_low=lo, wilson_high=hi,
        trials=len(rows), errors=errors,
        bound=float(np.mean(bounds)) if bounds else None,
        rows=tuple(rows),
    )


def error_rate_grid(
    codebooks: list[Codebook],
    spec: MixtureSpec,
    cost_family: str,
    k: int,
    gammas: list[float],
    trials: int,
    seed: int,
    compute_bound: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> list[list[ErrorRateResult]]:
    """Empirical error frequencies over a (codebook, gamma) grid, indexed
    [codebook][gamma].

    Trial t draws one paired sample from the generator, from streams keyed
    by (seed, t), and serves every cell; each codebook picks its uniform
    message for trial t, and that message's received table serves every
    gamma. With compute_bound=True the analytic bound is evaluated per trial
    at each gamma on the trial's own sample pair (one beta calibration per
    trial and gamma, shared by all codebooks; a group of trials calibrates
    and evaluates its points together) and averaged: the bound holds in
    expectation over the data draw. A gamma below the calibration's
    resolution floor, gamma = 0 included, is bounded at the floor's beta,
    where the mean excess is 2^-44 (|r_min| + span): not a beta -> inf
    limit, which need not exist.
    """
    for gamma in gammas:
        check_gamma(gamma)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if any(cb.n != spec.n for cb in codebooks):
        raise ValueError("codebooks and the generator must share n")
    rows = [[[] for _ in gammas] for _ in codebooks]
    infos: list[list[float]] = [[] for _ in gammas]  # per gamma, per trial
    group = max(1, _GROUP // k ** (spec.n - 1))
    for first in range(0, trials, group):
        pairs = []  # the group's exact tables, one ExactTables per trial
        for t in range(first, min(first + group, trials)):
            x1, x2, _ = draw_paired_samples(replace(spec, seed=derive_seed(seed, t, 0)))
            table1 = enumerate_costs(make_cost(cost_family, x1, k), budget=budget)
            corr = build_correspondence(x1, x2)
            if compute_bound:
                table2 = enumerate_costs(make_cost(cost_family, x2, k), budget=budget)
                pairs.append(ExactTables(table1, table2, corr))
            received = []  # per codebook: (sent, received table, codewords)
            for cb in codebooks:
                sent = int(derive_rng(seed, t, 1).integers(cb.m))
                x_r = permute_dataset(x2, cb.sigmas[sent])
                received.append((sent, enumerate_costs(make_cost(cost_family, x_r, k),
                                                       budget=budget),
                                 _codeword_weights(cb, corr, k)))
            for j, gamma in enumerate(gammas):
                # one gamma's member digits at a time: at wide gamma they hold
                # k^n n entries
                shifted = _shifted_member_digits(table1, gamma)
                for (sent, table_r, codewords), cb_rows in zip(received, rows):
                    scores = _overlap_scores(table_r.members(gamma), shifted, codewords)
                    cb_rows[j].append(_trial_row(t, sent, scores))
                del shifted
        if pairs:  # the group's (trial, gamma) points, calibrated and evaluated together
            per_point = [tables for tables in pairs for _ in gammas]
            betas = calibrate_betas(per_point, [g for _ in pairs for g in gammas])
            points = exact_points(per_point, betas, "multinomial")
            for j, info in enumerate(infos):
                info += [p.info for p in points[j :: len(gammas)]]
    return [
        [
            _error_rate_result(cell, [error_bound(info, cb.rate_bits, spec.n)
                                      for info in infos[j]])
            for j, cell in enumerate(cb_rows)
        ]
        for cb, cb_rows in zip(codebooks, rows)
    ]
