"""Output checks that recompute what the CLI wrote, by other means.

Nothing here calls the package's cost, enumeration, correspondence or
decoding code. Two-cluster k-means tables are built from split-half subset
sums (the program decodes and scores every label vector), which also gives
the two-sample joint table by aggregating test objects onto their nearest
training object. Every comparison uses a tolerance, because the BLAS thread
count and summation order move the last digits.

Each check returns a list of error strings; an empty list is a pass.
"""
from __future__ import annotations

import math

import numpy as np

GAMMA_SLACK = 1e-12   # the program's documented slack on gamma-membership
RTOL = 1e-8           # float64 log-sums over 2^20 terms agree far below this
MC_ALLOWANCE = 0.05   # sampled log Z error per object (the oracle tolerance)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def read_columns(path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        names = fh.readline().strip().split(",")
        rows = [[float(v) for v in line.split(",")] for line in fh if line.strip()]
    data = np.array(rows, dtype=np.float64).reshape(len(rows), len(names))
    return {name: data[:, i] for i, name in enumerate(names)}


def read_vectors(path) -> np.ndarray:
    with open(path) as fh:
        n, d = (int(v) for v in fh.readline().split(","))
        rows = [[float(v) for v in line.split(",")] for line in fh if line.strip()]
    x = np.array(rows, dtype=np.float64)
    if x.shape != (n, d):
        raise ValueError(f"{path}: expected {n}x{d} values, got {x.shape}")
    return x


def nearest_neighbours(train: np.ndarray, test: np.ndarray) -> np.ndarray:
    """nu[i] = training object closest to test object i (lowest index on ties)."""
    return np.array([int(np.argmin(((train - row) ** 2).sum(axis=1))) for row in test])


def subset_bits(n: int) -> np.ndarray:
    """2^n x n membership matrix; bit i of row r says object i is in cluster 2."""
    return (np.arange(1 << n)[:, None] >> np.arange(n)) & 1


def kmeans_table_k2(x: np.ndarray, owner: np.ndarray | None = None) -> np.ndarray:
    """k-means cost of every two-cluster labeling of n objects, indexed by the
    bitmask of the objects in cluster 2 (object 0 is bit 0).

    With `owner`, row i of x takes the label of object owner[i] (an index
    into a sample of the same size), so the table is the cost of the
    pushed-forward labeling, indexed by the owners' labeling.
    """
    x = x - x.mean(axis=0)   # costs are translation invariant; less cancellation
    n = len(x)
    if owner is None:
        owner = np.arange(n)
    weight = np.bincount(owner, minlength=n).astype(np.float64)
    sums = np.zeros((n, x.shape[1]))
    np.add.at(sums, owner, x)
    total_sq = float((x * x).sum())
    half = n // 2
    lo, hi = subset_bits(half), subset_bits(n - half)
    w = (hi @ weight[half:])[:, None] + (lo @ weight[:half])[None, :]
    s = (hi @ sums[half:])[:, None, :] + (lo @ sums[:half])[None, :, :]
    s_rest = sums.sum(axis=0) - s
    w_rest = weight.sum() - w
    with np.errstate(divide="ignore", invalid="ignore"):
        cost = (total_sq
                - np.where(w > 0, (s * s).sum(axis=2) / w, 0.0)
                - np.where(w_rest > 0, (s_rest * s_rest).sum(axis=2) / w_rest, 0.0))
    return np.maximum(cost, 0.0).ravel()


def kmeans_cost(x: np.ndarray, labels: np.ndarray) -> float:
    return float(sum(((x[labels == v] - x[labels == v].mean(axis=0)) ** 2).sum()
                     for v in np.unique(labels)))


def pairwise_cost(x: np.ndarray, labels: np.ndarray) -> float:
    """Within-cluster squared-distance sums, each over 2 n_v."""
    total = 0.0
    for v in np.unique(labels):
        members = x[labels == v]
        diff = members[:, None, :] - members[None, :, :]
        total += float((diff * diff).sum()) / (2.0 * len(members))
    return total


def log_partition(costs: np.ndarray, beta: float, n: int, k: int) -> float:
    if beta == 0.0:
        return n * math.log(k)
    low = float(costs.min())
    return -beta * low + math.log(float(np.exp(-beta * (costs - low)).sum()))


def mean_cost(costs: np.ndarray, beta: float) -> float:
    w = np.exp(-beta * (costs - costs.min()))
    return float((costs * w).sum() / w.sum())


def log_multinomial(counts) -> float:
    return math.lgamma(sum(counts) + 1) - sum(math.lgamma(c + 1) for c in counts)


def _close(got: float, want: float, scale: float = 1.0, rtol: float = RTOL) -> bool:
    return abs(got - want) <= rtol * max(scale, abs(want))


# ---------------------------------------------------------------------------
# exact-capacity: one capacity.csv against a brute-force 2^n enumeration
# ---------------------------------------------------------------------------

class ExactReference:
    """Brute-force two-cluster k-means tables for one paired sample."""

    def __init__(self, train: np.ndarray, test: np.ndarray):
        self.n = len(train)
        self.table1 = kmeans_table_k2(train)
        self.table2 = kmeans_table_k2(test)
        nu = nearest_neighbours(train, test)
        self.joint = self.table1 + kmeans_table_k2(test, owner=nu)
        best = int(np.argmin(self.table1))
        in_two = bin(best).count("1")
        self.log_nsigma = log_multinomial((self.n - in_two, in_two))
        self.r_min = float(self.table1.min())


def check_exact_capacity(ref: ExactReference, cols: dict, summary: dict) -> list[str]:
    errors = []
    n, k = ref.n, 2
    beta = cols["beta"]
    info = cols["info"]
    ceiling = ref.log_nsigma / n
    if beta[0] != 0.0:
        errors.append(f"first beta is {beta[0]}, not 0")
    for i, b in enumerate(beta):
        want = {
            "logZ1": log_partition(ref.table1, b, n, k),
            "logZ2": log_partition(ref.table2, b, n, k),
            "logDZ": log_partition(ref.joint, b, n, k),
            "log_nsigma": ref.log_nsigma,
        }
        for name, value in want.items():
            if not _close(cols[name][i], value):
                errors.append(f"row {i} beta={b}: {name} {cols[name][i]!r} != {value!r}")
        gamma = mean_cost(ref.table1, b) - ref.r_min
        if not _close(cols["gamma"][i], gamma, scale=ref.r_min):
            errors.append(f"row {i} beta={b}: gamma {cols['gamma'][i]!r} != {gamma!r}")
        combined = (want["log_nsigma"] + want["logDZ"] - want["logZ1"] - want["logZ2"]) / n
        if not _close(info[i], combined):
            errors.append(f"row {i} beta={b}: info {info[i]!r} != {combined!r}")
    if not _close(info[0], ceiling - math.log(k), rtol=1e-12):
        errors.append(f"info(0) = {info[0]!r}, not log_nsigma/n - log k = {ceiling - math.log(k)!r}")
    if np.any(np.diff(cols["gamma"]) > RTOL * max(1.0, ref.r_min)):
        errors.append("gamma increases with beta")
    if np.any(info > ceiling + 1e-12):
        errors.append(f"info {info.max()!r} exceeds log_nsigma/n = {ceiling!r}")
    errors += _check_summary(cols, summary)
    if summary.get("engine") != "exact":
        errors.append(f"engine is {summary.get('engine')!r}")
    return errors


def _check_summary(cols: dict, summary: dict) -> list[str]:
    best = int(np.argmax(cols["info"]))
    errors = []
    for key, col in (("info_star", "info"), ("beta_star", "beta"), ("gamma_star", "gamma")):
        if not _close(summary[key], float(cols[col][best]), rtol=1e-12):
            errors.append(f"{key} {summary[key]!r} is not the info-maximizing row's {col}")
    return errors


# ---------------------------------------------------------------------------
# sampled-select: Monte-Carlo curves against bounds that hold exactly
# ---------------------------------------------------------------------------

def check_sampled_candidate(train, test, true_labels, family: str, k: int,
                            cols: dict, score: dict) -> list[str]:
    """logZ(0) = n log k; logZ(beta) >= -beta R(c) for a fixed labeling c
    (the generating labels, merged down to k clusters); info below its
    ceiling log_nsigma/n. Each log Z estimate may miss by MC_ALLOWANCE per
    object, so info, which sums three of them, by three times that."""
    errors = []
    n = len(train)
    for name, col in cols.items():
        if not np.all(np.isfinite(col)):
            errors.append(f"column {name} has non-finite values")
    if errors:
        return errors
    cost = kmeans_cost if family == "kmeans" else pairwise_cost
    labels = np.minimum(true_labels, k)
    nu = nearest_neighbours(train, test)
    floor_cost = {
        "logZ1": cost(train, labels),
        "logZ2": cost(test, labels),
        "logDZ": cost(train, labels) + cost(test, labels[nu]),
    }
    beta = cols["beta"]
    allowance = MC_ALLOWANCE * n
    for name, r_ref in floor_cost.items():
        if abs(cols[name][0] - n * math.log(k)) > 1e-9:
            errors.append(f"{name}(0) = {cols[name][0]!r}, not n log k")
        short = -beta * r_ref - allowance - cols[name]
        if short.max() > 0:
            i = int(np.argmax(short))
            errors.append(f"{name} {cols[name][i]!r} at beta={beta[i]!r} is below "
                          f"-beta R(reference) = {-beta[i] * r_ref!r} by more than {allowance}")
    log_ns = cols["log_nsigma"]
    if np.any(log_ns < 0) or np.any(log_ns > n * math.log(k) + 1e-9):
        errors.append("log_nsigma outside [0, n log k]")
    excess = cols["info"] - log_ns / n
    if excess.max() > 3 * MC_ALLOWANCE:   # info sums three log Z estimates
        i = int(np.argmax(excess))
        errors.append(f"info {cols['info'][i]!r} at beta={beta[i]!r} exceeds "
                      f"log_nsigma/n = {log_ns[i] / n!r} by more than {3 * MC_ALLOWANCE}")
    if np.any(cols["gamma"] < 0) or np.any(np.diff(cols["gamma"]) > 1e-9 * cols["gamma"][0]):
        errors.append("gamma is negative or increases with beta")
    errors += _check_summary(cols, score)
    return errors


def check_ranking_order(ranking: list[dict]) -> list[str]:
    stars = [s["info_star"] for s in ranking]
    if not all(math.isfinite(v) for v in stars):
        return ["non-finite info_star in the ranking"]
    if any(b > a for a, b in zip(stars, stars[1:])):
        return [f"ranking is not sorted by info_star: {stars}"]
    return []


# ---------------------------------------------------------------------------
# channel-sim: decoded trials against an independent decoder
# ---------------------------------------------------------------------------

def decode_trial(train, test, sigmas: np.ndarray, sent: int, gamma: float) -> tuple[int, np.ndarray]:
    """Maximum-overlap decoding of one channel use of a 2-cluster k-means
    channel: scores of every codeword and the lowest-index argmax."""
    n = len(train)
    table1 = kmeans_table_k2(train)
    received = kmeans_table_k2(test[sigmas[sent]])
    member = received <= received.min() + gamma + GAMMA_SLACK
    sent_sets = np.flatnonzero(table1 <= table1.min() + gamma + GAMMA_SLACK)
    bits = (sent_sets[:, None] >> np.arange(n)) & 1            # (|C|, n)
    nu = nearest_neighbours(train, test)
    carried = bits[:, nu[sigmas]]                               # (|C|, m, n)
    scores = member[carried @ (1 << np.arange(n))].sum(axis=0)  # (m,)
    return int(np.argmax(scores)), scores


def check_channel_cell(cell: dict, rows: list[dict], trial_data, sigmas, gamma) -> list[str]:
    """One (m, gamma) grid cell of `simulate`: every trial re-decoded, and
    the error count, p_hat and Wilson interval."""
    errors = []
    wrong = 0
    for row in rows:
        x1, x2 = trial_data(row["trial"])
        decoded, scores = decode_trial(x1, x2, sigmas, row["sent"], gamma)
        top = np.sort(scores)[::-1]
        want = (decoded, int(top[0]), int(top[1]) if len(top) > 1 else 0)
        got = (row["decoded"], row["best_score"], row["second_score"])
        if got != want:
            errors.append(f"trial {row['trial']}: (decoded, best, second) {got} != {want}")
        if row["correct"] != int(row["decoded"] == row["sent"]):
            errors.append(f"trial {row['trial']}: correct flag disagrees with sent/decoded")
        wrong += row["decoded"] != row["sent"]
    if cell["trials"] != len(rows) or cell["errors"] != wrong:
        errors.append(f"summary counts {cell['errors']}/{cell['trials']} != rows {wrong}/{len(rows)}")
    if cell["p_hat"] != cell["errors"] / cell["trials"]:
        errors.append(f"p_hat {cell['p_hat']!r} != errors/trials")
    lo, hi = cell["interval"]
    if not 0.0 <= lo <= cell["p_hat"] <= hi <= 1.0:
        errors.append(f"Wilson interval [{lo}, {hi}] does not contain p_hat {cell['p_hat']}")
    if cell["bound"] is not None and not 0.0 <= cell["bound"] <= 1.0:
        errors.append(f"bound {cell['bound']!r} outside [0, 1]")
    return errors
