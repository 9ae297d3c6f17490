"""One pass of a workload in a fresh process; `run.py` starts it.

    python3 perfbench/child.py --workload W --seed S --workdir DIR
        --spawned-at T [--setup-only] [--trace]

Set-up imports `mpqg`, validates every case's config and builds its
`ParamMatrix` and `Realization` once; `setup_s` runs from `T` (the parent's
`time.monotonic()` just before it started this process) to the end of
set-up.  The pass then calls `mpqg.cli.main` once per case and prints one
JSON object: set-up time, the pass's wall and process CPU time, peak memory,
and every record tagged with its case.  With `--trace` the per-layer figures
of `tracer.py` are added and the spans are written to `DIR/spans.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def setup(cases, workdir):
    from mpqg import cli
    from mpqg.realization import Realization

    built = set()
    paths = []
    for case in cases:
        path = Path(workdir) / f"{case.name}.cfg"
        path.write_text(case.config, encoding="utf-8")
        paths.append(path)
        settings = dict(cli.DEFAULTS)
        settings.update(cli.parse_config_text(case.config, where=case.name))
        cfg = cli.RunConfig(settings)
        key = (cfg.datum_label, cfg.mode, repr(settings["numeric"]))
        # built once per distinct config and freed at once: the CLI builds
        # its own, so this only makes construction cost part of set-up time
        if key not in built:
            built.add(key)
            Realization(cfg.datum, cfg.make_params())
    return cli, paths


def run_pass(cli, cases, paths):
    records, errors = [], []
    c0 = time.process_time()
    t0 = time.perf_counter()
    for case, path in zip(cases, paths):
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                cli.main(case.argv(path))
        except Exception as ex:  # a crash is scored as a failure
            traceback.print_exc()
            errors.append(f"{case.name}: {type(ex).__name__}: {ex}")
        for line in out.getvalue().splitlines():
            rec = json.loads(line)
            rec["case"] = case.name
            records.append(rec)
    wall_s = time.perf_counter() - t0
    return records, errors, wall_s, time.process_time() - c0


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    cases = workloads.cases(args.workload, args.seed, ROOT)
    cli, paths = setup(cases, args.workdir)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer().install()
        try:
            records, errors, wall_s, cpu_s = run_pass(cli, cases, paths)
        finally:
            if tracer is not None:
                tracer.uninstall()
        result.update(records=records, errors=errors, wall_s=wall_s,
                      cpu_s=cpu_s)
        if tracer is not None:
            result["layers"] = tracer.metrics()
            tracer.dump_spans(Path(args.workdir) / "spans.json")
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
