"""Each output check accepts what the CLI writes and rejects a perturbed copy.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""
import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from ascoding.cli import main as cli_main  # noqa: E402


def _paired(tmp_path, seed, n, d, k_true):
    train, test, labels = run.blobs(seed, 9, n=n, d=d, k_true=k_true, sep=6.0, sigma=1.0)
    run.write_vectors(train, tmp_path / "train.csv")
    run.write_vectors(test, tmp_path / "test.csv")
    return train, test, labels


def _inputs(tmp_path):
    return ["--train", str(tmp_path / "train.csv"), "--test", str(tmp_path / "test.csv")]


# ---------------------------------------------------------------------------
# exact-capacity
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def exact_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("exact")
    train, test, _ = _paired(tmp, 3, n=10, d=2, k_true=2)
    out = tmp / "out"
    assert cli_main(["capacity", *_inputs(tmp), "--cost", "kmeans", "--k", "2",
                     "--engine", "exact", "--out", str(out)]) == 0
    ref = checks.ExactReference(train, test)
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    return ref, checks.read_columns(out / "capacity.csv"), summary


def test_exact_check_accepts_cli_output(exact_run):
    ref, cols, summary = exact_run
    assert checks.check_exact_capacity(ref, cols, summary) == []


def _shifted(cols, name, row, delta):
    out = {k: v.copy() for k, v in cols.items()}
    out[name][row] += delta
    return out


@pytest.mark.parametrize("name,delta", [("logDZ", 1e-4), ("logZ1", -1e-4), ("logZ2", 1e-4),
                                        ("gamma", 1e-5), ("log_nsigma", 1e-3)])
def test_exact_check_rejects_shifted_column(exact_run, name, delta):
    ref, cols, summary = exact_run
    assert checks.check_exact_capacity(ref, _shifted(cols, name, 5, delta), summary)


def test_exact_check_rejects_info_above_ceiling_and_rising_gamma(exact_run):
    ref, cols, summary = exact_run
    bad = _shifted(cols, "info", 3, 1.0)
    bad["logDZ"][3] += 1.0 * ref.n   # keep info consistent with its parts
    errors = checks.check_exact_capacity(ref, bad, summary)
    assert any("exceeds log_nsigma/n" in e for e in errors)
    rising = {k: v.copy() for k, v in cols.items()}
    rising["gamma"][[2, 3]] = rising["gamma"][[3, 2]]
    assert any("gamma increases" in e for e in checks.check_exact_capacity(ref, rising, summary))


def test_exact_check_rejects_wrong_summary(exact_run):
    ref, cols, summary = exact_run
    assert checks.check_exact_capacity(ref, cols, {**summary, "beta_star": summary["beta_star"] * 2})


# ---------------------------------------------------------------------------
# channel-sim
# ---------------------------------------------------------------------------

class SmallChannel(run.ChannelSim):
    GAMMAS, SIZES, TRIALS = (0.0, 2.0), (2, 4), 6


@pytest.fixture(scope="module")
def channel_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("channel")
    sim = SmallChannel(seed=5, inputs=out)
    assert cli_main(sim.command(out)) == 0
    return sim, out


def _rewrite(path: Path, edit):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_channel_check_accepts_cli_output(channel_run):
    sim, out = channel_run
    verdicts = sim.check(out)
    assert set(verdicts) == set(sim.ops) and not any(verdicts.values())


def test_channel_check_rejects_swapped_decoded_index(channel_run, tmp_path):
    sim, out = channel_run
    bad = tmp_path / "bad"
    bad.mkdir()
    for name in ("summary.json", "trials.csv"):
        (bad / name).write_bytes((out / name).read_bytes())

    def swap(rows):  # header: m,gamma,trial,sent,decoded,correct,...
        row = rows[1]
        m = int(row[0])
        row[4] = str((int(row[4]) + 1) % m)
        row[5] = str(int(row[4] == row[3]))
    _rewrite(bad / "trials.csv", swap)
    verdicts = sim.check(bad)
    assert any("(decoded, best, second)" in e for e in verdicts[sim.ops[0]])


def test_channel_check_rejects_wrong_rate_and_interval(channel_run):
    sim, out = channel_run
    with open(out / "summary.json") as fh:
        cell = json.load(fh)["grid"][0]
    rows = {}
    with open(out / "trials.csv") as fh:
        for r in csv.DictReader(fh):
            if (int(r.pop("m")), float(r.pop("gamma"))) == (cell["m"], cell["gamma"]):
                rows.setdefault(0, []).append({k: int(v) for k, v in r.items()})
    from ascoding.comms import generate_codebook
    sigmas = generate_codebook(sim.N, cell["rate_bits"], sim.seed).sigmas
    args = (rows[0], sim._trial_data, sigmas, cell["gamma"])
    assert checks.check_channel_cell(cell, *args) == []
    assert checks.check_channel_cell({**cell, "p_hat": cell["p_hat"] + 0.5}, *args)
    assert checks.check_channel_cell({**cell, "interval": [0.9, 1.0]}, *args)
    assert checks.check_channel_cell({**cell, "errors": cell["errors"] + 1}, *args)


# ---------------------------------------------------------------------------
# sampled-select: exact curves satisfy every bound the sampled check applies
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def select_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("select")
    train, test, labels = _paired(tmp, 4, n=9, d=3, k_true=3)
    out = tmp / "out"
    assert cli_main(["select", *_inputs(tmp), "--cost", "kmeans,pairwise", "--k", "2,3",
                     "--engine", "exact", "--out", str(out)]) == 0
    with open(out / "ranking.json") as fh:
        ranking = json.load(fh)["ranking"]
    curves = {(s["candidate"]["cost"], s["candidate"]["k"]):
              (checks.read_columns(out / f"curve_{s['candidate']['cost']}_k{s['candidate']['k']}.csv"), s)
              for s in ranking}
    return train, test, labels, ranking, curves


def test_sampled_check_accepts_exact_curves(select_run):
    train, test, labels, ranking, curves = select_run
    assert checks.check_ranking_order(ranking) == []
    for (family, k), (cols, score) in curves.items():
        assert checks.check_sampled_candidate(train, test, labels, family, k, cols, score) == []


@pytest.mark.parametrize("family", ["kmeans", "pairwise"])
def test_sampled_check_rejects_perturbed_curves(select_run, family):
    train, test, labels, _, curves = select_run
    cols, score = curves[(family, 3)]
    n = len(train)

    def check(bad):
        return checks.check_sampled_candidate(train, test, labels, family, 3, bad, score)

    top = len(cols["beta"]) - 1
    assert any("below -beta R" in e for e in check(_shifted(cols, "logDZ", top, -2 * n)))
    assert any("not n log k" in e for e in check(_shifted(cols, "logZ1", 0, 1e-6)))
    assert any("exceeds log_nsigma/n" in e for e in check(_shifted(cols, "info", top, 1.0)))
    assert any("non-finite" in e for e in check(_shifted(cols, "logZ2", 2, math.nan)))


def test_ranking_order_check_rejects_unsorted(select_run):
    ranking = select_run[3]
    assert checks.check_ranking_order(ranking[::-1])


# ---------------------------------------------------------------------------
# references and tracing
# ---------------------------------------------------------------------------

def test_split_half_table_matches_direct_costs():
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((7, 2)), rng.standard_normal((7, 2))
    owner = checks.nearest_neighbours(x, y)
    bits = checks.subset_bits(7)
    direct = np.array([checks.kmeans_cost(x, b) for b in bits])
    pushed = np.array([checks.kmeans_cost(y, b[owner]) for b in bits])
    np.testing.assert_allclose(checks.kmeans_table_k2(x), direct, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(checks.kmeans_table_k2(y, owner), pushed, rtol=1e-12, atol=1e-12)


def test_self_time_subtracts_direct_children():
    spans_ = [(-1, "cli.main", 0.0, 10.0, None, None),
              (0, "exact.enumerate_costs", 1.0, 4.0, 8, None),
              (0, "exact.joint_cost_table", 4.0, 9.0, None, None),
              (2, "exact.enumerate_costs", 5.0, 7.0, 8, None)]
    assert spans.self_times(spans_) == [2.0, 3.0, 3.0, 2.0]
    m = spans.summarize(spans_)
    assert m["exact.enumerate_calls"] == 2 and m["exact.hypotheses"] == 16
    assert m["exact.joint_table_self_s"] == 3.0
    assert m["trace.attributed_pct"] == pytest.approx(80.0)


def test_traced_child_attributes_the_solve(tmp_path):
    _paired(tmp_path, 1, n=8, d=2, k_true=2)
    argv = [sys.executable, str(BENCH / "child.py"), "--src", str(ROOT / "src"),
            "--result", str(tmp_path / "r.json"), "--spans", str(tmp_path / "s.json"), "--",
            "capacity", *_inputs(tmp_path), "--k", "2", "--engine", "exact",
            "--out", str(tmp_path / "out")]
    subprocess.run(argv, check=True, timeout=120, stdout=subprocess.DEVNULL)
    with open(tmp_path / "s.json") as fh:
        m = spans.summarize(json.load(fh))
    assert m["exact.enumerate_calls"] == 3 and m["exact.hypotheses"] == 3 * 2**8
    assert m["exact.mean_cost_calls"] > 0 and m["thermo.site_updates"] == 0
    assert m["trace.attributed_pct"] > 50.0
    assert set(m) | {"cli.import_s", "trace.overhead_s"} == set(run.PER_LAYER)


def test_benchmark_json_matches_the_runner():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
