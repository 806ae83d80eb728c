"""One fresh-interpreter run of the ascoding CLI, timed from the inside.

    python3 bench/child.py --src SRC --result OUT.json [--load CSV ...]
                           [--spans SPANS.json] [-- CLI ARGS...]

Set-up ends once `ascoding.cli` is imported and every --load CSV is parsed;
the result file records that moment on the system-wide monotonic clock, so
the parent can subtract the instant it spawned this process. Without CLI
arguments the process stops there (a set-up-only start). With --spans the
public functions of every module are wrapped (see spans.py) and the spans
are written out when the command ends.
"""
import argparse
import json
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--load", action="append", default=[])
    parser.add_argument("--spans")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    cli_args = opts.cli[1:] if opts.cli[:1] == ["--"] else opts.cli

    sys.path.insert(0, opts.src)
    t0 = time.perf_counter()
    import ascoding.cli as cli
    from ascoding.datagen import load_dataset_csv
    import_s = time.perf_counter() - t0
    for path in opts.load:
        load_dataset_csv(path)
    ready = time.perf_counter()

    result = {"ready": ready, "import_s": import_s, "rc": 0}
    if cli_args:
        recorder = None
        main_fn = cli.main
        if opts.spans:
            import spans
            recorder = spans.Recorder()
            spans.install(recorder)
            main_fn = recorder.wrap(cli.main, "cli.main")
        t1 = time.perf_counter()
        try:
            rc = main_fn(cli_args)
        except SystemExit as e:  # argparse rejects bad flags this way
            rc = e.code if isinstance(e.code, int) else 2
        result["solve_s"] = time.perf_counter() - t1
        result["rc"] = rc
        if recorder is not None:
            recorder.dump(opts.spans)

    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(opts.result, "w") as fh:
        json.dump(result, fh)
    return result["rc"]


if __name__ == "__main__":
    raise SystemExit(main())
