"""Benchmark of the ascoding CLI.

    python3 bench/run.py --workload exact-capacity --seed 0 --seconds 20 --trace 0

Each command of a workload runs in a fresh interpreter (bench/child.py), one
after another: a closed loop with one client, one process and one BLAS
thread. Commands repeat until --seconds have passed; every output is then
checked against an independent computation (bench/checks.py). The last line
of standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
of a traced run (bench/spans.py) with --trace 1. README.md describes the
workloads, the metrics and the checks.
"""
from __future__ import annotations

import os

# One thread for every BLAS/OpenMP pool, here and in each child, set before
# numpy loads: with OpenBLAS's default pool the exact engine's wall time
# spreads wider and its outputs change in the last digits.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

CHILD_TIMEOUT = 60    # seconds; a command that takes longer counts as failed

END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_s": "s", "cli.write_s": "s",
    "datagen.load_s": "s", "datagen.draw_ms": "ms",
    "core.correspondence_ms": "ms",
    "exact.enumerate_calls": "count", "exact.hypotheses": "count",
    "exact.enumerate_s": "s", "exact.ns_per_hypothesis": "ns",
    "exact.joint_table_self_s": "s",
    "exact.mean_cost_calls": "count", "exact.mean_cost_ms": "ms",
    "exact.log_partition_calls": "count", "exact.log_partition_ms": "ms",
    "costs.erm_multistart_s": "s",
    "thermo.site_updates": "count", "thermo.site_update_us.kmeans": "us",
    "thermo.site_update_us.pairwise": "us", "thermo.site_update_us.joint": "us",
    "thermo.integrate_s": "s",
    "capacity.curve_self_s": "s", "capacity.exact_point_calls": "count",
    "capacity.exact_point_ms": "ms",
    "comms.trials": "count", "comms.trial_ms": "ms", "comms.decode_ms_per_trial": "ms",
    **{f"{layer}.self_s": "s" for layer in spans.LAYERS},
    "trace.solve_s": "s", "trace.overhead_s": "s", "trace.attributed_pct": "%",
}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def blobs(seed: int, tag: int, n: int, d: int, k_true: int, sep: float, sigma: float):
    """Two noisy measurements of n objects in k_true equal groups whose
    centers are `sep` apart; returns (train, test, generating labels 1..k)."""
    rng = np.random.default_rng([tag, seed])
    centers = np.zeros((k_true, d))
    centers[:, :k_true] = np.eye(k_true) * sep / math.sqrt(2.0)
    labels = np.repeat(np.arange(k_true), n // k_true)
    z = centers[labels]
    train = z + sigma * rng.standard_normal((n, d))
    test = z + sigma * rng.standard_normal((n, d))
    return train, test, labels + 1


def write_vectors(x: np.ndarray, path: Path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{x.shape[0]},{x.shape[1]}\n")
        for row in x:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# workloads: inputs from the seed, one command line, and its output checks
# ---------------------------------------------------------------------------

class ExactCapacity:
    """capacity --engine exact on paired 2-blob data, n=20 (2^20 labelings)."""

    ops = ("capacity",)

    def __init__(self, seed: int, inputs: Path):
        train, test, _ = blobs(seed, 1, n=20, d=2, k_true=2, sep=4.0, sigma=1.0)
        self.loads = [inputs / "train.csv", inputs / "test.csv"]
        write_vectors(train, self.loads[0])
        write_vectors(test, self.loads[1])
        self._ref = None

    def command(self, out: Path) -> list[str]:
        return ["capacity", "--train", str(self.loads[0]), "--test", str(self.loads[1]),
                "--cost", "kmeans", "--k", "2", "--engine", "exact", "--out", str(out)]

    def check(self, out: Path) -> dict[str, list[str]]:
        if self._ref is None:
            self._ref = checks.ExactReference(*(checks.read_vectors(p) for p in self.loads))
        cols = checks.read_columns(out / "capacity.csv")
        return {"capacity": checks.check_exact_capacity(self._ref, cols,
                                                        _read_json(out / "summary.json"))}


class SampledSelect:
    """select --engine sampled for kmeans and pairwise costs at k=3 on paired
    3-blob data, n=24, d=3."""

    SAMPLER = ("--chains", "1", "--burnin", "10", "--sweeps", "20", "--grid-points", "32")
    ops = ("kmeans-k3", "pairwise-k3")

    def __init__(self, seed: int, inputs: Path):
        self.train, self.test, self.labels = blobs(seed, 2, n=24, d=3, k_true=3,
                                                   sep=6.0, sigma=1.0)
        self.seed = seed
        self.loads = [inputs / "train.csv", inputs / "test.csv"]
        write_vectors(self.train, self.loads[0])
        write_vectors(self.test, self.loads[1])

    def command(self, out: Path) -> list[str]:
        return ["select", "--train", str(self.loads[0]), "--test", str(self.loads[1]),
                "--cost", "kmeans,pairwise", "--k", "3",
                "--engine", "sampled", *self.SAMPLER, "--seed", str(self.seed),
                "--out", str(out)]

    def check(self, out: Path) -> dict[str, list[str]]:
        result = _read_json(out / "ranking.json")
        order = checks.check_ranking_order(result["ranking"])
        found = {}
        for score in result["ranking"]:
            fam, k = score["candidate"]["cost"], score["candidate"]["k"]
            cols = checks.read_columns(out / f"curve_{fam}_k{k}.csv")
            found[f"{fam}-k{k}"] = order + checks.check_sampled_candidate(
                self.train, self.test, self.labels, fam, k, cols, score)
        for fail in result["failures"]:
            cand = fail["candidate"]
            found[f"{cand['cost']}-k{cand['k']}"] = [f"candidate failed: {fail['error']}"]
        return {op: found.get(op, ["candidate missing from ranking.json"]) for op in self.ops}


class ChannelSim:
    """simulate on the criterion-5 grid at n=8: every (m, gamma) cell
    decodes TRIALS channel uses and bounds them analytically."""

    N, GAMMAS, SIZES, TRIALS = 8, (0.0, 1.0, 2.0, 5.0, 10.0), (2, 4, 8), 40

    def __init__(self, seed: int, inputs: Path):
        self.seed = seed
        self.loads = []
        self.ops = tuple(f"m{m}-g{g:g}" for m in self.SIZES for g in self.GAMMAS)
        self._trials = {}

    def command(self, out: Path) -> list[str]:
        return ["simulate", "--n", str(self.N), "--k-true", "2", "--sep", "6", "--sigma", "1",
                "--balanced", "--cost", "kmeans", "--k", "2",
                "--gammas", ",".join(map(str, self.GAMMAS)),
                "--codebook-sizes", ",".join(map(str, self.SIZES)),
                "--trials", str(self.TRIALS), "--seed", str(self.seed), "--out", str(out)]

    def _trial_data(self, t: int):
        """The channel's paired draw for trial t, regenerated with the
        program's own generator: it is the input, not the output under test."""
        if t not in self._trials:
            from ascoding.datagen import MixtureSpec, draw_paired_samples
            from ascoding.rng import derive_seed

            spec = MixtureSpec(n=self.N, d=2, k_true=2, noise_sigma=1.0, separation=6.0,
                               seed=derive_seed(self.seed, t, 0), balanced=True)
            x1, x2, _ = draw_paired_samples(spec)
            self._trials[t] = (x1.vectors, x2.vectors)
        return self._trials[t]

    def check(self, out: Path) -> dict[str, list[str]]:
        from ascoding.comms import generate_codebook

        summary = _read_json(out / "summary.json")
        rows: dict[tuple[int, float], list[dict]] = {}
        with open(out / "trials.csv") as fh:
            names = fh.readline().strip().split(",")
            for line in fh:
                row = dict(zip(names, line.strip().split(",")))
                key = (int(row.pop("m")), float(row.pop("gamma")))
                rows.setdefault(key, []).append({k: int(v) for k, v in row.items()})
        found = {}
        for cell in summary["grid"]:
            m, gamma = cell["m"], cell["gamma"]
            sigmas = generate_codebook(self.N, cell["rate_bits"], self.seed).sigmas
            found[f"m{m}-g{gamma:g}"] = checks.check_channel_cell(
                cell, rows.get((m, gamma), []), self._trial_data, sigmas, gamma)
        return {op: found.get(op, ["cell missing from summary.json"]) for op in self.ops}


WORKLOADS = {"exact-capacity": ExactCapacity, "sampled-select": SampledSelect,
             "channel-sim": ChannelSim}


# ---------------------------------------------------------------------------
# fresh-process runs
# ---------------------------------------------------------------------------

def start(result: Path, loads, cli_args=(), spans_path: Path | None = None) -> dict:
    """Run child.py once; set-up time counts from the moment before spawning."""
    argv = [sys.executable, str(BENCH / "child.py"), "--src", str(SRC), "--result", str(result)]
    for path in loads:
        argv += ["--load", str(path)]
    if spans_path is not None:
        argv += ["--spans", str(spans_path)]
    if cli_args:
        argv += ["--", *cli_args]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"rc": "timeout"}
    if not result.exists():
        return {"rc": proc.returncode, "stderr": proc.stderr[-2000:]}
    got = _read_json(result)
    got["setup_s"] = got["ready"] - t0
    got["rc"] = proc.returncode
    if got["rc"] != 0:
        got["stderr"] = proc.stderr[-2000:]
    return got


def measure(workload, work: Path, seconds: float, trace: bool):
    """Commands one after another until `seconds` have passed; with `trace`,
    every second command is traced."""
    start(work / "warmup.json", workload.loads)  # bytecode and page cache, untimed
    commands = []
    deadline = time.perf_counter() + seconds
    while True:
        i = len(commands)
        spans_path = work / f"cmd{i}.spans.json" if trace and i % 2 == 1 else None
        out = work / f"cmd{i}"
        out.mkdir()
        run = start(work / f"cmd{i}.json", workload.loads, workload.command(out), spans_path)
        run.update(out=out, spans=spans_path)
        commands.append(run)
        if time.perf_counter() >= deadline and (not trace or len(commands) >= 2):
            return commands


def judge(workload, commands):
    """Check every command's outputs: (attempted, failed, correct)."""
    attempted = failed = 0
    correct = True
    for run in commands:
        attempted += len(workload.ops)
        if run["rc"] != 0:
            failed += len(workload.ops)
            print(f"bench: {run['out'].name} exited {run['rc']}: {run.get('stderr', '')}",
                  file=sys.stderr)
            continue
        try:
            verdicts = workload.check(run["out"])
        except (OSError, KeyError, ValueError, IndexError, TypeError, ZeroDivisionError) as e:
            verdicts = {op: [f"unreadable output: {e!r}"] for op in workload.ops}
        for op, errors in verdicts.items():
            if errors:
                failed += 1
                correct = False
                print(f"bench: {run['out'].name} {op}: {errors[:3]}", file=sys.stderr)
    return attempted, failed, correct


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(commands) -> dict[str, float]:
    ok = [r for r in commands if r["rc"] == 0]
    return {
        "solve_s": _median([r["solve_s"] for r in ok]),
        "setup_s": _median([r["setup_s"] for r in commands if "setup_s" in r]),
        "peak_rss_mb": _median([r["maxrss_kb"] / 1024.0 for r in ok]),
    }


def per_layer(commands) -> dict[str, float]:
    traced = [r for r in commands if r["spans"] and r["rc"] == 0]
    plain = [r for r in commands if not r["spans"] and r["rc"] == 0]
    rows = []
    for run in traced:
        with open(run["spans"]) as fh:
            rows.append(spans.summarize(json.load(fh)))
    metrics = {name: _median([row[name] for row in rows]) for name in rows[0]} if rows else {}
    metrics["cli.import_s"] = _median([r["import_s"] for r in traced])
    metrics["trace.overhead_s"] = (_median([r["solve_s"] for r in traced])
                                   - _median([r["solve_s"] for r in plain]))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long commands repeat (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ascoding" / "cli.py").is_file():
        print(f"bench: no ascoding package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the channel check regenerates inputs with it

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, work / "inputs")
    commands = measure(workload, work, args.seconds, bool(args.trace))
    if not any("setup_s" in r for r in commands):
        print(f"bench: the package never finished set-up: {commands[0].get('stderr')}",
              file=sys.stderr)
        return 2
    attempted, failed, correct = judge(workload, commands)

    if args.trace:
        values, units = per_layer(commands), PER_LAYER
    else:
        values, units = end_to_end(commands), END_TO_END
    print(f"bench: {args.workload} seed {args.seed}: {len(commands)} commands",
          file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
