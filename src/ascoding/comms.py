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

The received sample is the test sample with its objects reordered, so the
receiver scores on the test table: received object i is test object
sigma_s[i], and codeword sigma carries training object nu[sigma[i]] to it,
which is the push-forward nu[sigma[sigma_s^-1]] onto the test sample.

Every table is one label-symmetry slice (object 0 in cluster 1; see
exact). Relabeling commutes with the push-forward, so the k relabelings of
a training member land on the k relabelings of one test assignment: each
slice member scores for k, and its push-forward is looked up on the test
slice after shifting every label by minus the label that test object 0
inherits.

A simulation over a grid of codebook sizes m and widths gamma draws each
trial's sample pair once and shares it with every (m, gamma) cell: a trial
builds its correspondence and its training and test tables, and every
codeword of every codebook is scored at every gamma on them; with the
bound, its ExactTables reads the same two tables.
Approximation sets nest in gamma, so each table entry gets a level, the
number of sorted gammas at which it is not a member; the scoring gather
runs over the training members at the widest gamma, and a pair counts at
the j-th sorted gamma iff both of its levels are <= j.

Trials run in groups, the blocks (exact.blocks) of as many trials as their
training tables fit in exact's pass limit BLOCK, at least one. A group is
enumerated, joined, minimized and decoded as one stack: one
enumerate_costs call builds all its training and test tables, one gather
over the members of all its trials scores every (trial, codebook, gamma)
cell, and with the bound one ExactTables.stack call builds its joint
tables with one push-forward gather and its training minimizers with one
orbit search. The group's beta calibrations, one per trial and gamma,
advance in lock-step, and its points are evaluated together, so each pass
over the exact tables serves the whole group (see exact.calibrate_betas).
Every value is bit for bit the one a trial gives alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .capacity import exact_points, make_cost
from .core import build_correspondence
from .costs import DEFAULT_BUDGET
from .datagen import MixtureSpec, draw_paired_samples
from .errors import BudgetError
from .exact import (
    BLOCK,
    CostTable,
    ExactTables,
    blocks,
    calibrate_betas,
    check_gamma,
    decode_indices,
    enumerate_costs,
    pushforward_weights,
)
from .rng import derive_rng, derive_seed

__all__ = [
    "Codebook",
    "TrialRow",
    "ErrorRateResult",
    "generate_codebook",
    "error_rate_grid",
    "error_bound",
    "wilson_interval",
]

DEFAULT_MAX_CODEBOOK = 4096
_Z95 = 1.959963984540054
_GATHER = 1 << 18  # entries of one chunk's k scoring index matrices (2 MiB of int64)


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


def _levels(tables: list[CostTable], gammas: list[float]) -> np.ndarray:
    """tables x slice entries: at how many of the sorted gammas each entry is
    outside its table's approximation set (CostTable.threshold). The sets
    nest, so an entry is a member at the j-th sorted gamma iff its level is
    <= j."""
    costs = np.stack([t.costs for t in tables])
    level = np.zeros(costs.shape, dtype=np.int64)
    for gamma in gammas:
        level += costs > np.array([t.threshold(gamma) for t in tables])[:, None]
    return level


def _codeword_weights(codebook: Codebook, sent: np.ndarray, nus: np.ndarray,
                      k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per trial, the test-table slice-index weights of every codeword
    (trials x codewords x n) and the anchor object whose label test object 0
    inherits (trials x codewords), for trials with sent codewords `sent` and
    correspondences `nus` (trials x n). Received object i is test object
    sigma_s[i], to which codeword sigma carries training object nu[sigma[i]];
    so test object j inherits from training object nu[sigma[sigma_s^-1[j]]].
    Test object 0 adds k^0 to its anchor's push-forward weight and every
    other object a multiple of k, so w // k weighs objects 1..n-1 by their
    place in the slice index."""
    sigmas = codebook.sigmas[:, np.argsort(codebook.sigmas[sent], axis=1)].transpose(1, 0, 2)
    nu = np.take_along_axis(nus[:, None, :], sigmas, axis=2)
    return pushforward_weights(nu, k) // k, nu[..., 0]


def _level_counts(digits: np.ndarray, trial: np.ndarray, member_level: np.ndarray,
                  level2: np.ndarray, codewords: tuple[np.ndarray, np.ndarray], k: int,
                  ranks: int) -> np.ndarray:
    """(trials * codewords * (ranks + 1)) counts: how many of the given
    training slice members (label digits 0..k-1, trial and level of each, in
    trial order) pair, under each codeword of their trial, with a test entry
    at each level max(training level, test level of the push-forward). The
    push-forward is shifted by minus the member's label of the codeword's
    anchor object, onto the test slice; the k shifted digit rows of a
    trial's members meet its codeword weights in one matrix product."""
    weights, anchors = codewords
    codes = weights.shape[1]
    shifted = (digits - np.arange(k)[:, None, None]) % k  # k x members x n
    index = np.empty((k, len(trial), codes), dtype=np.int64)
    s = np.empty((len(trial), codes), dtype=np.int64)  # each member's label of each anchor
    starts = np.flatnonzero(np.diff(trial, prepend=-1))
    for first, stop in zip(starts.tolist(), [*starts[1:].tolist(), len(trial)]):
        t = trial[first]
        index[:, first:stop] = shifted[:, first:stop] @ weights[t].T
        s[first:stop] = digits[first:stop, anchors[t]]
    s *= s.size
    s += np.arange(s.size).reshape(s.shape)
    pushed = index.take(s)
    pushed += trial[:, None] * level2.shape[1]
    level = level2.take(pushed)
    np.maximum(level, member_level[:, None], out=level)
    level += trial[:, None] * (codes * (ranks + 1))
    level += np.arange(codes) * (ranks + 1)
    return np.bincount(level.ravel(), minlength=level2.shape[0] * codes * (ranks + 1))


def _overlap_scores(tables1: list[CostTable], tables2: list[CostTable],
                    codewords: tuple[np.ndarray, np.ndarray], gammas: list[float]) -> np.ndarray:
    """trials x codewords x gammas: for every trial (training table, test
    table and codewords), codeword and gamma, how many training assignments
    in the approximation set land in the test sample's when pushed forward,
    k per slice member. A pair counts at the j-th sorted gamma iff both of
    its levels are <= j, so one gather at the widest gamma scores every
    gamma, and the members of all trials are gathered together, in the
    blocks (exact.blocks) whose k index matrices have at most _GATHER
    entries; at desk sizes that is one gather."""
    k, n = tables1[0].k, tables1[0].n
    order = np.argsort(gammas, kind="stable")
    ranked = [gammas[j] for j in order]
    level1, level2 = _levels(tables1, ranked), _levels(tables2, ranked)
    trial, slots = np.nonzero(level1 < len(ranked))
    digits = decode_indices(slots * k, n, k) - 1
    member_level = level1[trial, slots]
    trials, codes = codewords[0].shape[:2]
    counts = sum((_level_counts(digits[part], trial[part], member_level[part], level2,
                                codewords, k, len(ranked))
                  for part in blocks(len(slots), k * codes, _GATHER)),
                 np.zeros(trials * codes * (len(ranked) + 1), dtype=np.int64))
    scores = np.empty((trials, codes, len(ranked)), dtype=np.int64)
    scores[:, :, order] = k * np.cumsum(counts.reshape(trials, codes, -1)[:, :, :-1], axis=2)
    return scores


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


def _trial_rows(trials: range, sent: np.ndarray, scores: np.ndarray) -> list[list[TrialRow]]:
    """Per gamma, the rows of `trials` decoded from scores (trials x
    codewords x gammas): the first codeword with the best score, and the
    best score of the others (0 without any; scores are counts)."""
    decoded = scores.argmax(axis=1)
    best = np.take_along_axis(scores, decoded[:, None], axis=1)[:, 0]
    others = scores.copy()
    np.put_along_axis(others, decoded[:, None], -1, axis=1)
    second = np.maximum(others.max(axis=1), 0)
    return [[TrialRow(trial=t, sent=s, decoded=d, correct=d == s, best_score=b, second_score=o)
             for t, s, d, b, o in zip(trials, sent.tolist(), *columns)]
            for columns in zip(decoded.T.tolist(), best.T.tolist(), second.T.tolist())]


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
    message for trial t from the stream (seed, t, 1), and one gather on the
    tables of a group of trials scores all their cells. With
    compute_bound=True the analytic bound is evaluated per trial at each
    gamma on the trial's own sample pair (one beta calibration per trial and
    gamma, shared by all codebooks; a group of trials calibrates and
    evaluates its points together) and averaged: the bound holds in
    expectation over the data draw. A gamma below the calibration's
    resolution floor, gamma = 0 included, is bounded at the floor's beta,
    where the mean excess is 2^-44 (|r_min| + span): not a beta -> inf
    limit, which need not exist.
    """
    if not codebooks:
        raise ValueError("empty codebook list")
    for gamma in gammas:
        check_gamma(gamma)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if any(cb.n != spec.n for cb in codebooks):
        raise ValueError("codebooks and the generator must share n")
    rows = [[[] for _ in gammas] for _ in codebooks]
    infos: list[list[float]] = [[] for _ in gammas]  # per gamma, per trial
    ends = np.cumsum([cb.m for cb in codebooks])[:-1]  # codebook boundaries in a trial's scores
    for group in blocks(trials, k ** (spec.n - 1), BLOCK):
        ts = range(trials)[group]
        samples = [draw_paired_samples(replace(spec, seed=derive_seed(seed, t, 0)))[:2]
                   for t in ts]
        costs = [make_cost(cost_family, x, k) for pair in zip(*samples) for x in pair]
        corrs = [build_correspondence(x1, x2) for x1, x2 in samples]
        tables = enumerate_costs(*costs, budget=budget)  # training tables, then test tables
        tables1, tables2 = tables[: len(ts)], tables[len(ts) :]
        # each codebook draws its message from the trial's stream at its start
        sent = np.empty((len(ts), len(codebooks)), dtype=np.int64)
        for i, t in enumerate(ts):
            rng = derive_rng(seed, t, 1)
            start = rng.bit_generator.state
            for b, cb in enumerate(codebooks):
                rng.bit_generator.state = start
                sent[i, b] = rng.integers(cb.m)
        nus = np.stack([corr.nu for corr in corrs])
        weights, anchors = zip(*(_codeword_weights(cb, sent[:, b], nus, k)
                                 for b, cb in enumerate(codebooks)))
        scores = _overlap_scores(tables1, tables2, (np.concatenate(weights, axis=1),
                                                    np.concatenate(anchors, axis=1)), gammas)
        for b, (cb_scores, cb_rows) in enumerate(zip(np.split(scores, ends, axis=1), rows)):
            for cell, column in zip(cb_rows, _trial_rows(ts, sent[:, b], cb_scores)):
                cell += column
        if compute_bound:  # the group's (trial, gamma) points, calibrated and evaluated together
            pairs = ExactTables.stack(tables1, tables2, corrs)
            per_point = [pair for pair in pairs for _ in gammas]
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
