"""Outside-in tracing of the ascoding modules.

`install` replaces each public function at the name its caller looks it
up by, without touching the package's source:

* `capacity` reaches the exact engine through the module (`ex.enumerate_costs`),
  and `exact` calls its own functions as module globals, so wrapping the
  attribute of `ascoding.exact` catches both;
* `capacity`, `comms` and `cli` bind functions by name at import
  (`from .exact import enumerate_costs`), so their copies are wrapped too;
* `joint_thermo_integrate` calls `thermo_integrate_logZ` inside `thermo`.

Every wrapped call records a span (parent, name, start, end, work, tag).
A span's self time is its duration minus that of its direct children.
`summarize` turns one command's spans into the per-layer metrics.
"""
from __future__ import annotations

import functools
import json
from time import perf_counter

LAYERS = ("cli", "datagen", "core", "exact", "costs", "thermo", "capacity", "comms")
ROOT = "cli.main"


def _hypotheses(cost, *args, **kwargs):
    return cost.k ** cost.n, None


def _site_updates(cost, cfg):
    sweeps = cfg.sweeps_burnin + cfg.sweeps_measure
    tag = "joint" if type(cost).__name__ == "JointCost" else cost.name
    return cfg.chains * len(cfg.beta_grid) * sweeps * cost.n, tag


# (module, attribute, span name, work counter): one entry per lookup site.
TARGETS = (
    ("cli", "load_dataset_csv", "datagen.load_dataset_csv", None),
    ("cli", "capacity_curve", "capacity.capacity_curve", None),
    ("cli", "optimal_gamma", "capacity.optimal_gamma", None),
    ("cli", "select_model", "capacity.select_model", None),
    ("cli", "generate_codebook", "comms.generate_codebook", None),
    ("cli", "error_rate", "comms.error_rate", None),
    ("cli", "_write_json", "cli.write", None),
    ("cli", "_write_manifest", "cli.write", None),
    ("capacity", "CapacityCurve.write_csv", "cli.write", None),
    ("capacity", "capacity_curve", "capacity.capacity_curve", None),
    ("capacity", "make_cost", "capacity.make_cost", None),
    ("capacity", "build_correspondence", "core.build_correspondence", None),
    ("capacity", "dissimilarity_from_vectors", "datagen.dissimilarity_from_vectors", None),
    ("capacity", "erm_search", "costs.erm_search", None),
    ("capacity", "default_beta_grid", "thermo.default_beta_grid", None),
    ("capacity", "thermo_integrate_logZ", "thermo.thermo_integrate_logZ", _site_updates),
    ("capacity", "joint_thermo_integrate", "thermo.joint_thermo_integrate", None),
    ("thermo", "thermo_integrate_logZ", "thermo.thermo_integrate_logZ", _site_updates),
    ("exact", "enumerate_costs", "exact.enumerate_costs", _hypotheses),
    ("exact", "joint_cost_table", "exact.joint_cost_table", None),
    ("exact", "exact_log_partition", "exact.exact_log_partition", None),
    ("exact", "log_partition_of_costs", "exact.log_partition_of_costs", None),
    ("exact", "exact_mean_cost", "exact.exact_mean_cost", None),
    ("comms", "make_cost", "capacity.make_cost", None),
    ("comms", "build_correspondence", "core.build_correspondence", None),
    ("comms", "draw_paired_samples", "datagen.draw_paired_samples", None),
    ("comms", "enumerate_costs", "exact.enumerate_costs", _hypotheses),
    ("comms", "exact_point_at_gamma", "capacity.exact_point_at_gamma", None),
    ("comms", "transmit_and_decode", "comms.transmit_and_decode", None),
)


class Recorder:
    """Spans of one process, kept in memory until `dump`."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, fn, name, work=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                count, tag = work(*args, **kwargs) if work else (None, None)
                spans[sid] = (parent, name, t0, t1, count, tag)

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def install(recorder: Recorder) -> None:
    """Wrap every entry of TARGETS in the already imported package. A target
    the package no longer has is skipped; its time then shows up as the
    caller's self time and lowers `trace.attributed_pct`."""
    import importlib

    for module, attr, name, work in TARGETS:
        owner = importlib.import_module(f"ascoding.{module}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, leaf, None)
        if callable(fn):
            setattr(owner, leaf, recorder.wrap(fn, name, work))


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [t1 - t0 for _, _, t0, t1, _, _ in spans]
    for parent, _, t0, t1, _, _ in spans:
        if parent >= 0:
            own[parent] -= t1 - t0
    return own


def summarize(spans) -> dict[str, float]:
    """Per-layer metrics of one traced command (see README.md)."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[1], []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name):
        return sum(spans[i][3] - spans[i][2] for i in by_name.get(name, ()))

    def total_self(name):
        return sum(own[i] for i in by_name.get(name, ()))

    def work(name):
        return sum(spans[i][4] for i in by_name.get(name, ()))

    def per(value, count, scale=1.0):
        return value / count * scale if count else 0.0

    (root,) = by_name[ROOT]
    solve = spans[root][3] - spans[root][2]
    m = {"trace.solve_s": solve,
         "trace.attributed_pct": 100.0 * (1.0 - own[root] / solve)}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            own[i] for i, s in enumerate(spans) if s[1].split(".")[0] == layer and i != root
        )

    m["cli.write_s"] = total_self("cli.write")
    m["datagen.load_s"] = total("datagen.load_dataset_csv")
    m["datagen.draw_ms"] = per(total("datagen.draw_paired_samples"),
                               calls("datagen.draw_paired_samples"), 1e3)
    m["core.correspondence_ms"] = per(total("core.build_correspondence"),
                                      calls("core.build_correspondence"), 1e3)

    enum = "exact.enumerate_costs"
    m["exact.enumerate_calls"] = calls(enum)
    m["exact.hypotheses"] = work(enum)
    m["exact.enumerate_s"] = total(enum)
    m["exact.ns_per_hypothesis"] = per(total(enum), work(enum), 1e9)
    m["exact.joint_table_self_s"] = total_self("exact.joint_cost_table")
    m["exact.mean_cost_calls"] = calls("exact.exact_mean_cost")
    m["exact.mean_cost_ms"] = per(total("exact.exact_mean_cost"),
                                  calls("exact.exact_mean_cost"), 1e3)
    m["exact.log_partition_calls"] = calls("exact.log_partition_of_costs")
    m["exact.log_partition_ms"] = per(total("exact.log_partition_of_costs"),
                                      calls("exact.log_partition_of_costs"), 1e3)

    m["costs.erm_multistart_s"] = total("costs.erm_search")

    thermo = by_name.get("thermo.thermo_integrate_logZ", ())
    m["thermo.site_updates"] = sum(spans[i][4] for i in thermo)
    for tag in ("kmeans", "pairwise", "joint"):
        mine = [i for i in thermo if spans[i][5] == tag]
        m[f"thermo.site_update_us.{tag}"] = per(
            sum(spans[i][3] - spans[i][2] for i in mine),
            sum(spans[i][4] for i in mine), 1e6)
    m["thermo.integrate_s"] = sum(spans[i][3] - spans[i][2] for i in thermo)

    m["capacity.curve_self_s"] = total_self("capacity.capacity_curve")
    m["capacity.exact_point_calls"] = calls("capacity.exact_point_at_gamma")
    m["capacity.exact_point_ms"] = per(total("capacity.exact_point_at_gamma"),
                                       calls("capacity.exact_point_at_gamma"), 1e3)

    trials = calls("comms.transmit_and_decode")
    m["comms.trials"] = trials
    m["comms.trial_ms"] = per(total("comms.error_rate"), trials, 1e3)
    m["comms.decode_ms_per_trial"] = per(total("comms.transmit_and_decode"), trials, 1e3)
    return m
