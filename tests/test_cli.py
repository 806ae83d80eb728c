import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ascoding
from ascoding.cli import ENV_OUTPUT_DIR, main
from ascoding.datagen import load_dataset_csv


def run(*argv):
    return main([str(a) for a in argv])


def read_columns(path):
    return np.genfromtxt(path, delimiter=",", names=True, ndmin=1)


def gen_args(out, sigma=0.5, n=8, seed=1):
    return ("gen", "--n", n, "--k-true", 2, "--sep", 6, "--sigma", sigma,
            "--seed", seed, "--balanced", "--out", out)


class TestGen:
    def test_writes_three_csvs(self, tmp_path):
        assert run(*gen_args(tmp_path / "g")) == 0
        for name in ("train.csv", "test.csv", "labels.csv", "manifest.json"):
            assert (tmp_path / "g" / name).exists()

    def test_outputs_roundtrip_through_parsers(self, tmp_path):
        run(*gen_args(tmp_path / "g"))
        train = load_dataset_csv(tmp_path / "g" / "train.csv")
        header, *labels = (tmp_path / "g" / "labels.csv").read_text().splitlines()
        assert train.n == 8 and header == "8,labels,2" and len(labels) == 8
        assert {int(v) for v in labels} == {1, 2}

    def test_zero_sigma_train_equals_test(self, tmp_path):
        run(*gen_args(tmp_path / "g", sigma=0))
        a = (tmp_path / "g" / "train.csv").read_bytes()
        b = (tmp_path / "g" / "test.csv").read_bytes()
        assert a == b

    def test_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "g"
        run(*gen_args(out))
        snapshot = {p.name: p.read_bytes() for p in out.iterdir()}
        run(*gen_args(out))
        assert {p.name: p.read_bytes() for p in out.iterdir()} == snapshot

    @pytest.mark.parametrize("gammas", ["nan,1", "1,-1"])
    def test_bad_gamma_exit_2(self, tmp_path, gammas):
        out = tmp_path / "sim"
        rc = run("simulate", "--n", 6, "--k-true", 2, "--sep", 6, "--sigma", 1.0,
                 "--balanced", "--cost", "kmeans", "--k", 2, "--gammas", gammas,
                 "--codebook-sizes", "2", "--trials", 3, "--seed", 1, "--out", out)
        assert rc == 2
        assert not (out / "summary.json").exists()
        assert not (out / "trials.csv").exists()

    def test_independent_mode_writes_second_labels(self, tmp_path):
        assert run(*gen_args(tmp_path / "g"), "--independent") == 0
        assert (tmp_path / "g" / "labels2.csv").exists()


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    run(*gen_args(out, sigma=0.8, n=8, seed=1))
    return out


class TestCapacity:
    def test_beta_grid_zero_only_analytic_point(self, dataset_dir, tmp_path):
        # single-row curve: info = H(type) - log k with the asymptotic option
        rc = run("capacity", "--train", dataset_dir / "train.csv",
                 "--test", dataset_dir / "test.csv", "--cost", "kmeans", "--k", 2,
                 "--engine", "exact", "--nsigma", "asymptotic", "--beta-grid", "0",
                 "--out", tmp_path / "cap")
        assert rc == 0
        cols = read_columns(tmp_path / "cap" / "capacity.csv")
        assert cols["beta"].size == 1
        # balanced well-separated blobs: H = log 2, so info(0) = 0
        assert cols["info"][0] == pytest.approx(0.0, abs=1e-9)

    def test_noise_free_ceiling_near_log2(self, tmp_path):
        # identical samples, n=16 balanced: info_star within 0.05 of log 2
        out = tmp_path / "g16"
        run(*gen_args(out, sigma=0, n=16))
        rc = run("capacity", "--train", out / "train.csv", "--test", out / "test.csv",
                 "--cost", "kmeans", "--k", 2, "--engine", "exact",
                 "--nsigma", "asymptotic", "--out", tmp_path / "cap16")
        assert rc == 0
        summary = json.loads((tmp_path / "cap16" / "summary.json").read_text())
        assert abs(summary["info_star"] - math.log(2)) < 0.05

    def test_sampled_close_to_exact(self, dataset_dir, tmp_path):
        common = ("capacity", "--train", dataset_dir / "train.csv",
                  "--test", dataset_dir / "test.csv", "--cost", "kmeans", "--k", 2,
                  "--grid-points", 14, "--seed", 3)
        run(*common, "--engine", "exact", "--out", tmp_path / "e")
        cols = read_columns(tmp_path / "e" / "capacity.csv")
        grid = ",".join(repr(float(b)) for b in cols["beta"])
        run(*common, "--engine", "sampled", "--beta-grid", grid,
            "--chains", 3, "--burnin", 40, "--sweeps", 250, "--out", tmp_path / "s")
        cols_s = read_columns(tmp_path / "s" / "capacity.csv")
        assert np.abs(cols["info"] - cols_s["info"]).max() <= 0.1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sampled_default_grid_with_subnormal_deltas(self, tmp_path):
        # squared distances near 1e-323: one over the pilot's mean site delta
        # is past the float range, so the default grid is the flat-landscape
        # one, with no overflow on the way
        data = tmp_path / "tiny.csv"
        data.write_text("4,1\n0.0\n1e-162\n5e-162\n6e-162\n")
        rc = run("capacity", "--train", data, "--test", data, "--k", 2, "--engine", "sampled",
                 "--chains", 1, "--burnin", 2, "--sweeps", 4, "--grid-points", 4,
                 "--out", tmp_path / "cap")
        assert rc == 0
        cols = read_columns(tmp_path / "cap" / "capacity.csv")
        assert np.isfinite(cols["beta"]).all() and np.isfinite(cols["info"]).all()
        summary = json.loads((tmp_path / "cap" / "summary.json").read_text())
        assert math.isfinite(summary["info_star"])

    def test_rerun_byte_identical(self, dataset_dir, tmp_path):
        out = tmp_path / "cap"
        args = ("capacity", "--train", dataset_dir / "train.csv",
                "--test", dataset_dir / "test.csv", "--cost", "kmeans", "--k", 2,
                "--engine", "exact", "--out", out)
        run(*args)
        snapshot = {p.name: p.read_bytes() for p in out.iterdir()}
        run(*args)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == snapshot


class TestSelect:
    def test_two_blob_winner_k2(self, tmp_path):
        data = tmp_path / "d"
        run("gen", "--n", "10", "--k-true", "2", "--sep", "8", "--sigma", "1.0",
            "--seed", "0", "--balanced", "--out", data)
        rc = run("select", "--train", data / "train.csv", "--test", data / "test.csv",
                 "--cost", "kmeans", "--k", "1,2,3", "--engine", "exact",
                 "--grid-points", 20, "--out", tmp_path / "sel")
        assert rc == 0
        ranking = json.loads((tmp_path / "sel" / "ranking.json").read_text())
        assert ranking["ranking"][0]["candidate"]["k"] == 2
        assert not ranking["failures"]
        for entry in ranking["ranking"]:
            k = entry["candidate"]["k"]
            assert (tmp_path / "sel" / f"curve_kmeans_k{k}.csv").exists()

    def test_single_candidate(self, dataset_dir, tmp_path):
        rc = run("select", "--train", dataset_dir / "train.csv",
                 "--test", dataset_dir / "test.csv", "--cost", "kmeans", "--k", "2",
                 "--engine", "exact", "--out", tmp_path / "sel1")
        ranking = json.loads((tmp_path / "sel1" / "ranking.json").read_text())
        assert rc == 0 and len(ranking["ranking"]) == 1

    def test_duplicate_candidates_identical_scores(self, dataset_dir, tmp_path):
        rc = run("select", "--train", dataset_dir / "train.csv",
                 "--test", dataset_dir / "test.csv", "--cost", "kmeans,kmeans",
                 "--k", "2", "--engine", "exact", "--beta-grid", "0,0.3,1.0",
                 "--out", tmp_path / "dup")
        ranking = json.loads((tmp_path / "dup" / "ranking.json").read_text())
        assert rc == 0
        assert ranking["ranking"][0]["info_star"] == ranking["ranking"][1]["info_star"]


class TestSimulate:
    def test_zero_noise_zero_error(self, tmp_path):
        rc = run("simulate", "--n", 8, "--k-true", 2, "--sep", 6, "--sigma", 0,
                 "--balanced", "--cost", "kmeans", "--k", 2, "--gammas", "0",
                 "--codebook-sizes", "2,4", "--trials", 40, "--seed", 1,
                 "--out", tmp_path / "sim0")
        assert rc == 0
        summary = json.loads((tmp_path / "sim0" / "summary.json").read_text())
        assert all(g["p_hat"] == 0.0 for g in summary["grid"])

    def test_bound_consistency_on_output(self, tmp_path):
        rc = run("simulate", "--n", 8, "--k-true", 2, "--sep", 6, "--sigma", 1.0,
                 "--balanced", "--cost", "kmeans", "--k", 2, "--gammas", "0,2",
                 "--codebook-sizes", "4", "--trials", 80, "--seed", 1,
                 "--out", tmp_path / "sim")
        assert rc == 0
        summary = json.loads((tmp_path / "sim" / "summary.json").read_text())
        for g in summary["grid"]:
            half = 0.5 * (g["interval"][1] - g["interval"][0])
            assert g["bound"] >= g["p_hat"] - half

    def test_gamma_zero_with_tied_minima(self, tmp_path):
        # six exactly tied training minima in trial 4: the mean-cost excess
        # reaches gamma = 0 exactly at a finite beta
        out = tmp_path / "tied"
        rc = run("simulate", "--n", 6, "--k-true", 2, "--sep", 6, "--sigma", 1,
                 "--balanced", "--cost", "pairwise", "--k", 3, "--gammas", "0",
                 "--codebook-sizes", "2", "--trials", 6, "--seed", 4, "--out", out)
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert math.isfinite(summary["grid"][0]["bound"])

    def test_gamma_zero_with_tied_minima_at_a_large_cost_scale(self, tmp_path):
        # r_min is about 2e4 here, so a mean cost rounded a few ulps above it
        # once exceeded any absolute slack
        out = tmp_path / "tied"
        rc = run("simulate", "--n", 6, "--k-true", 2, "--sep", 600, "--sigma", 100,
                 "--balanced", "--cost", "pairwise", "--k", 3, "--gammas", "0",
                 "--codebook-sizes", "2", "--trials", 6, "--seed", 1, "--out", out)
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert math.isfinite(summary["grid"][0]["bound"])

    def test_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "sim"
        args = ("simulate", "--n", 6, "--k-true", 2, "--sep", 6, "--sigma", 1.0,
                "--balanced", "--cost", "kmeans", "--k", 2, "--gammas", "0",
                "--codebook-sizes", "2", "--trials", 25, "--seed", 1, "--out", out)
        run(*args)
        snapshot = {p.name: p.read_bytes() for p in out.iterdir()}
        run(*args)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == snapshot


def test_cli_imports_numpy_and_the_standard_library_only():
    """numpy is the package's only runtime dependency. Any further import,
    direct or through another module, would add its load time and memory to
    every command."""
    src = str(Path(ascoding.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # modules loaded from a file; compiled extensions also register a few
    # runtime modules that have none
    code = ("import sys; before = set(sys.modules); import ascoding.cli; "
            "print(sorted({m.split('.')[0] for m in set(sys.modules) - before"
            " if getattr(sys.modules[m], '__file__', None)}"
            " - set(sys.stdlib_module_names)))")
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.strip() == "['ascoding', 'numpy']"


def test_exact_outputs_independent_of_blas_threads(tmp_path):
    """Rerunning at another OpenBLAS thread count writes the same bytes. At
    n=14 a BLAS dot over the 2^14-row table already changed the last digits
    between one and two threads."""
    data = tmp_path / "data"
    assert run("gen", "--n", 14, "--k-true", 2, "--sep", 4, "--sigma", 1, "--balanced",
               "--seed", 0, "--out", data) == 0
    src = str(Path(ascoding.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "ascoding.cli", "capacity",
                        "--train", str(data / "train.csv"), "--test", str(data / "test.csv"),
                        "--cost", "kmeans", "--k", "2", "--engine", "exact", "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        outputs.append({name: (out / name).read_bytes() for name in ("capacity.csv", "summary.json")})
    assert outputs[0] == outputs[1]


class TestErrorPaths:
    def test_parse_error_exit_4(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nonsense\n")
        rc = run("capacity", "--train", bad, "--test", bad, "--k", 2,
                 "--out", tmp_path / "x")
        assert rc == 4

    def test_non_finite_input_exit_4(self, dataset_dir, tmp_path):
        bad = tmp_path / "nan.csv"
        lines = (dataset_dir / "train.csv").read_text().splitlines()
        lines[3] = "nan," + lines[3].split(",", 1)[1]
        bad.write_text("\n".join(lines) + "\n")
        rc = run("capacity", "--train", bad, "--test", dataset_dir / "test.csv", "--k", 2,
                 "--engine", "exact", "--out", tmp_path / "x")
        assert rc == 4
        assert not (tmp_path / "x" / "summary.json").exists()

    # the coordinates are finite, but their squares overflow: the data are
    # rejected before any cost or distance is computed, with no numpy warning
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_costs_exit_2(self, tmp_path, capsys):
        scale = ("--sep", "6e200", "--sigma", "1e200", "--balanced")
        assert run("gen", "--n", 8, "--k-true", 2, *scale, "--seed", 1,
                   "--out", tmp_path / "data") == 0
        capsys.readouterr()
        for cost in ("kmeans", "pairwise"):
            rc = run("capacity", "--train", tmp_path / "data" / "train.csv",
                     "--test", tmp_path / "data" / "test.csv", "--cost", cost, "--k", 2,
                     "--engine", "exact", "--out", tmp_path / "x")
            assert rc == 2
            assert "data's scale" in capsys.readouterr().err
            assert not (tmp_path / "x" / "summary.json").exists()
            rc = run("simulate", "--n", 8, "--k-true", 2, *scale, "--cost", cost, "--k", 2,
                     "--gammas", "0,1", "--codebook-sizes", 2, "--trials", 3, "--seed", 1,
                     "--out", tmp_path / "sim")
            assert rc == 2
            assert "data's scale" in capsys.readouterr().err
            assert not (tmp_path / "sim" / "summary.json").exists()
            assert not (tmp_path / "sim" / "trials.csv").exists()

    # squared distances near 1e-310 are subnormal: no finite beta narrows
    # gamma below the span, and the calibration names the data's scale
    # instead of passing beta = inf on to the Boltzmann pass
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_underflowing_costs_exit_2(self, tmp_path, capsys):
        scale = ("--k-true", 2, "--sep", "6e-155", "--sigma", "1e-155", "--balanced")
        assert run("gen", "--n", 10, "--d", 2, *scale, "--seed", 1,
                   "--out", tmp_path / "data") == 0
        capsys.readouterr()
        data = ("--train", tmp_path / "data" / "train.csv",
                "--test", tmp_path / "data" / "test.csv")
        for cost in ("kmeans", "pairwise"):
            rc = run("capacity", *data, "--cost", cost, "--k", 2, "--engine", "exact",
                     "--out", tmp_path / "x")
            assert rc == 2
            assert "data's scale" in capsys.readouterr().err
            assert not (tmp_path / "x" / "summary.json").exists()
            rc = run("simulate", "--n", 8, *scale, "--cost", cost, "--k", 2, "--gammas", "0,1",
                     "--codebook-sizes", 2, "--trials", 3, "--seed", 1, "--out", tmp_path / "sim")
            assert rc == 2
            assert "data's scale" in capsys.readouterr().err
            assert not (tmp_path / "sim" / "summary.json").exists()
        assert run("select", *data, "--cost", "kmeans,pairwise", "--k", 2, "--engine", "exact",
                   "--out", tmp_path / "sel") == 0
        ranking = json.loads((tmp_path / "sel" / "ranking.json").read_text())
        assert ranking["ranking"] == [] and len(ranking["failures"]) == 2
        assert all("data's scale" in f["error"] for f in ranking["failures"])

    @pytest.mark.parametrize("grid", ["0,nan", "0,inf"])
    def test_non_finite_beta_grid_exit_2(self, dataset_dir, tmp_path, grid):
        rc = run("capacity", "--train", dataset_dir / "train.csv",
                 "--test", dataset_dir / "test.csv", "--k", 2, "--engine", "sampled",
                 "--beta-grid", grid, "--out", tmp_path / "x")
        assert rc == 2
        assert not (tmp_path / "x" / "capacity.csv").exists()
        assert not (tmp_path / "x" / "summary.json").exists()

    @pytest.mark.parametrize("command, engine, grid, output", [
        ("select", "sampled", "1,2", "ranking.json"), ("select", "exact", "0,2,1", "ranking.json"),
        ("capacity", "exact", "1,2", "capacity.csv"), ("capacity", "exact", "0,1,1", "capacity.csv"),
    ])
    def test_bad_beta_grid_exit_2_on_either_engine(self, dataset_dir, tmp_path, command, engine,
                                                   grid, output):
        # one grid rule for both engines: a grid that does not start at 0 or
        # is not strictly increasing is a configuration error, never a
        # candidate failure or a curve with a repeated row
        out = tmp_path / "x"
        rc = run(command, "--train", dataset_dir / "train.csv",
                 "--test", dataset_dir / "test.csv", "--k", "1,2" if command == "select" else 2,
                 "--engine", engine, "--beta-grid", grid, "--out", out)
        assert rc == 2
        assert not (out / output).exists()

    def test_budget_error_exit_3(self, dataset_dir, tmp_path):
        rc = run("capacity", "--train", dataset_dir / "train.csv",
                 "--test", dataset_dir / "test.csv", "--k", 2, "--engine", "exact",
                 "--budget", 4, "--out", tmp_path / "x")
        assert rc == 3

    def test_config_error_exit_2(self, dataset_dir, tmp_path):
        rc = run("select", "--train", dataset_dir / "train.csv",
                 "--test", dataset_dir / "test.csv", "--cost", "kmeans", "--k", "",
                 "--out", tmp_path / "x")
        assert rc == 2

    @pytest.mark.parametrize("engine, flag, value", [
        ("exact", "--grid-points", 0), ("sampled", "--grid-points", 0),
        ("sampled", "--restarts", 0), ("sampled", "--chains", 0), ("sampled", "--burnin", 0),
    ])
    def test_bad_sampler_settings_exit_2(self, dataset_dir, tmp_path, engine, flag, value):
        # a setting no candidate can run with is a configuration error, not
        # a failure of every candidate
        out = tmp_path / "x"
        rc = run("select", "--train", dataset_dir / "train.csv",
                 "--test", dataset_dir / "test.csv", "--cost", "kmeans", "--k", 2,
                 "--engine", engine, flag, value, "--out", out)
        assert rc == 2
        assert not out.exists()

    def test_env_var_default_outdir(self, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv(ENV_OUTPUT_DIR, str(target))
        assert run("gen", "--n", 6, "--k-true", 2, "--sep", 6, "--sigma", 0.5,
                   "--seed", 1, "--balanced") == 0
        assert (target / "train.csv").exists()

    @pytest.mark.parametrize("flag, value, code", [
        ("--rate-bits", "inf", 2), ("--rate-bits", "nan", 2), ("--rate-bits", "1e6", 3),
        ("--codebook-sizes", "0", 2), ("--codebook-sizes", "-3", 2),
        ("--codebook-sizes", "4097", 3), ("--codebook-sizes", "99999999999999999999", 3),
    ])
    def test_bad_codebook_rate_exits_before_output(self, tmp_path, capsys, flag, value, code):
        out = tmp_path / "sim"
        rc = run("simulate", "--n", 8, "--k-true", 2, "--k", 2, "--gammas", 0, flag, value,
                 "--out", out)
        err = capsys.readouterr().err
        assert rc == code and not out.exists()
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--codebook-sizes", "--rate-bits"])
    def test_empty_codebook_list_exit_2(self, tmp_path, capsys, flag):
        out = tmp_path / "sim"
        rc = run("simulate", "--n", 6, "--k-true", 2, "--cost", "kmeans", "--k", 2,
                 "--gammas", "0,1", flag, ",", "--trials", 2, "--out", out)
        err = capsys.readouterr().err
        assert rc == 2 and not out.exists()
        assert err == "error: empty codebook list\n"

    def test_missing_outdir_exit_2(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_OUTPUT_DIR, raising=False)
        rc = run("gen", "--n", 6, "--k-true", 2, "--sep", 6, "--sigma", 0.5, "--seed", 1)
        assert rc == 2
