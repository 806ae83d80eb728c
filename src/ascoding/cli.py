"""Command-line front end: reproducible generation, capacity computation,
model selection, and communication simulation.

Every run writes a manifest.json echoing the fully resolved configuration;
rerunning any subcommand with the same flags and seed reproduces all output
files byte for byte. All randomness derives from the single --seed flag.

Exit codes: 0 success, 2 configuration error, 3 infeasible budget,
4 input parse error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .capacity import CapacityConfig, capacity_curve, optimal_gamma, select_model
from .comms import DEFAULT_MAX_CODEBOOK, error_rate_grid, generate_codebook
from .costs import DEFAULT_BUDGET
from .datagen import (
    MixtureSpec,
    draw_independent_samples,
    draw_paired_samples,
    load_dataset_csv,
    save_dataset_csv,
    save_labels_csv,
    write_csv_rows,
)
from .errors import BudgetError, ParseError

ENV_OUTPUT_DIR = "ASCODING_OUTPUT_DIR"


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(ENV_OUTPUT_DIR)
    if not out:
        raise ValueError(f"--out not given and {ENV_OUTPUT_DIR} is unset")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(obj, path: Path) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(args, out: Path, command: str) -> None:
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    _write_json({"command": command, "config": config, "version": __version__},
                out / "manifest.json")


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v != ""]


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v != ""]


def _mixture_spec(args) -> MixtureSpec:
    return MixtureSpec(
        n=args.n, d=args.d, k_true=args.k_true, noise_sigma=args.sigma,
        seed=args.seed, separation=args.sep, balanced=args.balanced,
    )


def _capacity_config(args) -> CapacityConfig:
    grid = tuple(_float_list(args.beta_grid)) if args.beta_grid else None
    return CapacityConfig(
        beta_grid=grid, grid_points=args.grid_points, budget=args.budget,
        nsigma=args.nsigma, seed=args.seed, chains=args.chains,
        sweeps_burnin=args.burnin, sweeps_measure=args.sweeps,
        restarts=args.restarts,
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    out = _out_dir(args)
    spec = _mixture_spec(args)
    if args.independent:
        train, test, labels1, labels2 = draw_independent_samples(spec)
        save_labels_csv(labels2, out / "labels2.csv")
    else:
        train, test, labels1 = draw_paired_samples(spec)
    save_dataset_csv(train, out / "train.csv")
    save_dataset_csv(test, out / "test.csv")
    save_labels_csv(labels1, out / "labels.csv")
    _write_manifest(args, out, "gen")
    for name in ("train.csv", "test.csv", "labels.csv"):
        print(out / name)
    return 0


def cmd_capacity(args) -> int:
    cfg = _capacity_config(args)
    out = _out_dir(args)
    train = load_dataset_csv(args.train)
    test = load_dataset_csv(args.test)
    curve = capacity_curve(train, test, args.cost, args.k, engine=args.engine, cfg=cfg)
    gamma_star, beta_star, info_star = optimal_gamma(curve)
    curve.write_csv(out / "capacity.csv")
    summary = {
        "cost": args.cost, "k": args.k, "n": curve.n, "engine": curve.engine,
        "info_star": info_star, "gamma_star": gamma_star, "beta_star": beta_star,
        "total_nats": info_star * curve.n,
    }
    if curve.warnings:
        summary["warnings"] = list(curve.warnings)
    _write_json(summary, out / "summary.json")
    _write_manifest(args, out, "capacity")
    print(out / "capacity.csv")
    print(out / "summary.json")
    return 0


def cmd_select(args) -> int:
    cfg = _capacity_config(args)
    out = _out_dir(args)
    train = load_dataset_csv(args.train)
    test = load_dataset_csv(args.test)
    candidates = [(fam, k) for fam in args.cost.split(",") for k in _int_list(args.k)]
    if not candidates:
        raise ValueError("empty candidate list")
    result = select_model(candidates, train, test, engine=args.engine, cfg=cfg)
    for score in result.ranking:
        score.curve.write_csv(out / f"curve_{score.cost_family}_k{score.k}.csv")
    _write_json(
        {
            "ranking": [s.summary() for s in result.ranking],
            "failures": [
                {"candidate": {"cost": fam, "k": k}, "error": msg}
                for fam, k, msg in result.failures
            ],
        },
        out / "ranking.json",
    )
    _write_manifest(args, out, "select")
    print(out / "ranking.json")
    return 0


def cmd_simulate(args) -> int:
    spec = _mixture_spec(args)
    if args.codebook_sizes:
        sizes = _int_list(args.codebook_sizes)
        if min(sizes, default=1) < 1:
            raise ValueError(f"codebook sizes must be >= 1, got {args.codebook_sizes!r}")
        if max(sizes, default=1) > args.max_codebook:  # np.log2 fails on ints past int64
            raise BudgetError(f"codebook size {max(sizes)} exceeds maximum {args.max_codebook}")
        rates = [float(np.log2(m)) / args.n for m in sizes]
    elif args.rate_bits:
        rates = _float_list(args.rate_bits)
    else:
        raise ValueError("give --codebook-sizes or --rate-bits")
    if not rates:
        raise ValueError("empty codebook list")
    gammas = _float_list(args.gammas)
    if not gammas:
        raise ValueError("empty gamma grid")

    codebooks = [generate_codebook(args.n, rate, args.seed, max_size=args.max_codebook)
                 for rate in rates]
    out = _out_dir(args)
    results = error_rate_grid(codebooks, spec, args.cost, args.k, gammas,
                              trials=args.trials, seed=args.seed,
                              compute_bound=not args.no_bound, budget=args.budget)
    grid_summaries = []
    trial_rows = []
    for rate, codebook, row in zip(rates, codebooks, results):
        for gamma, res in zip(gammas, row):
            grid_summaries.append({
                "m": codebook.m, "rate_bits": rate, "gamma": gamma,
                "p_hat": res.p_hat, "interval": [res.wilson_low, res.wilson_high],
                "bound": res.bound, "trials": res.trials, "errors": res.errors,
            })
            trial_rows += [(codebook.m, gamma, r.trial, r.sent, r.decoded, int(r.correct),
                            r.best_score, r.second_score) for r in res.rows]
    write_csv_rows(out / "trials.csv",
                   "m,gamma,trial,sent,decoded,correct,best_score,second_score", trial_rows)
    _write_json(
        {"n": args.n, "k": args.k, "cost": args.cost, "seed": args.seed,
         "grid": grid_summaries},
        out / "summary.json",
    )
    _write_manifest(args, out, "simulate")
    print(out / "trials.csv")
    print(out / "summary.json")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_generator_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="number of objects")
    p.add_argument("--k-true", dest="k_true", type=int, required=True,
                   help="number of mixture components")
    p.add_argument("--sep", type=float, default=6.0, help="pairwise center separation")
    p.add_argument("--sigma", type=float, default=1.0, help="measurement noise std")
    p.add_argument("--d", type=int, default=2, help="vector dimension")
    p.add_argument("--balanced", action="store_true",
                   help="equal component occupancy instead of random draws")


def _add_model_flags(p: argparse.ArgumentParser, multi: bool) -> None:
    if multi:
        p.add_argument("--cost", default="kmeans",
                       help="comma list of cost families (kmeans,pairwise)")
        p.add_argument("--k", required=True, help="comma list of cluster counts")
    else:
        p.add_argument("--cost", default="kmeans", choices=("kmeans", "pairwise"))
        p.add_argument("--k", type=int, required=True)


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--engine", default="auto", choices=("exact", "sampled", "auto"))
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="max k^n for exact enumeration")
    p.add_argument("--nsigma", default=CapacityConfig.nsigma, choices=("multinomial", "asymptotic"))
    p.add_argument("--beta-grid", dest="beta_grid", default=None,
                   help="explicit comma list of betas for either engine: finite, strictly "
                   "increasing and starting at 0; any other grid exits 2")
    p.add_argument("--grid-points", type=int, default=CapacityConfig.grid_points)
    p.add_argument("--chains", type=int, default=CapacityConfig.chains)
    p.add_argument("--burnin", type=int, default=CapacityConfig.sweeps_burnin)
    p.add_argument("--sweeps", type=int, default=CapacityConfig.sweeps_measure)
    p.add_argument("--restarts", type=int, default=CapacityConfig.restarts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ascoding",
        description="Information-theoretic clustering validation via approximation set coding",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a two-sample dataset")
    _add_generator_flags(p)
    p.add_argument("--independent", action="store_true",
                   help="independent draws instead of paired measurements")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("capacity", help="compute a capacity curve for one model")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    _add_model_flags(p, multi=False)
    _add_engine_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("select", help="rank model candidates by capacity")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    _add_model_flags(p, multi=True)
    _add_engine_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("simulate", help="simulate the communication protocol")
    _add_generator_flags(p)
    _add_model_flags(p, multi=False)
    p.add_argument("--gammas", required=True, help="comma list of gamma values")
    p.add_argument("--codebook-sizes", dest="codebook_sizes", default=None,
                   help="comma list of codebook sizes m")
    p.add_argument("--rate-bits", dest="rate_bits", default=None,
                   help="comma list of rates in bits/object")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--max-codebook", dest="max_codebook", type=int, default=DEFAULT_MAX_CODEBOOK)
    p.add_argument("--no-bound", dest="no_bound", action="store_true",
                   help="skip the per-point analytic bound")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
