"""The mpqg verifier benchmark.

    python3 perfbench/run.py --workload {hopf,modules,sweep,all}
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout.  Each pass of a workload is a
fresh single Python process (`child.py`) that calls `mpqg.cli.main` for
every case of the workload with `--timings`; its records are checked
against the workload's expected-verdict table (`expected/<name>.json`).

With `--trace 0` the run first starts `SETUP_SAMPLES` set-up-only
processes, then makes passes until another one would end after `--seconds`
(at least `MIN_PASSES` passes), and reports medians over the passes:

    setup_s          s      child start to validated configs and built
                            ParamMatrix/Realization objects (median over
                            the set-up-only processes and the passes)
    wall_s           s      first suite call to last record
    slowest_check_s  s      largest single-record `ms`
    peak_rss_mb      MB     peak resident memory of the child
    failed_frac      ratio  wrong verdicts, missing records and exceptions
                            over expected records
    undecided_frac   ratio  `undecided` records over expected records

With `--trace 1` it makes one untraced and one traced pass and reports the
per-layer figures of `tracer.py`, plus the tracing overhead.  The traced
pass must give the same records as the untraced one, `ms` aside.

The last line of output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  `failed_frac` and `undecided_frac`
are not in `metrics`: their baseline is zero, so a relative bound means
nothing; instead any wrong verdict beyond the documented known defects, and
any `undecided` record, makes `correct` false.  Exit status: 0 when the run
is correct, 1 when it is not, 2 when it cannot run (no `src/mpqg` here),
3 when a pass crashes or runs out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from hashlib import sha256
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import expected  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9
MIN_PASSES = 3
TIME_LIMIT_S = 170.0   # the whole run, all processes included
WORK_DIR = ROOT / ".perfbench"

END_TO_END = {"setup_s": "s", "wall_s": "s", "slowest_check_s": "s",
              "peak_rss_mb": "MB"}
VERDICTS = {"failed_frac": "ratio", "undecided_frac": "ratio"}
OVERHEAD = {"trace.untraced_wall_s": "s", "trace.traced_wall_s": "s",
            "trace.overhead": "ratio"}


class BenchError(Exception):
    """The run cannot produce a result; reported with exit status 3."""


def per_layer_units():
    return {**tracer.metric_units(), **OVERHEAD}


def stamp(seed):
    """Conditions of the run, so that noisy runs can be told apart."""
    rev = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        rev = ref
    digest = sha256()
    for path in sorted((ROOT / "src" / "mpqg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_rev": rev, "src_sha256": digest.hexdigest()[:16],
            "seed": seed, "loadavg": list(os.getloadavg())}


class Runner:
    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.workdir = WORK_DIR / f"{workload}-{seed}"
        self.workdir.mkdir(parents=True, exist_ok=True)

    def child(self, *flags):
        """Run one child process; returns (its JSON result, seconds)."""
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time before a pass could start")
        t0 = time.monotonic()
        cmd = [sys.executable, str(HERE / "child.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--workdir", str(self.workdir), "--spawned-at", repr(t0),
               *flags]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=left, cwd=ROOT)
        except subprocess.TimeoutExpired:
            raise BenchError(f"a {self.workload} pass ran out of time")
        if proc.returncode != 0:
            raise BenchError(f"a {self.workload} pass exited with "
                             f"{proc.returncode}:\n{proc.stderr.strip()}")
        return json.loads(proc.stdout.splitlines()[-1]), time.monotonic() - t0


def score(table, passes):
    attempted = failed = undecided = 0
    problems = []
    for p in passes:
        f, u, probs = expected.compare(table, p["records"], p["errors"])
        attempted += len(table["records"])
        failed += f
        undecided += u
        problems += probs
    return attempted, failed, undecided, problems


def measure(runner, seconds):
    """--trace 0: end-to-end metrics."""
    setups = [runner.child("--setup-only")[0]["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    passes = []
    t0 = time.monotonic()
    while True:
        result, took = runner.child()
        passes.append(result)
        if (len(passes) >= MIN_PASSES
                and time.monotonic() - t0 + took > seconds):
            break
    setups += [p["setup_s"] for p in passes]
    attempted, failed, undecided, problems = score(
        expected.load(runner.workload), passes)
    slowest = [max(r["ms"] for r in p["records"]) / 1000.0 if p["records"]
               else 0.0 for p in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "slowest_check_s": statistics.median(slowest),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    extra = {"failed_frac": failed / attempted,
             "undecided_frac": undecided / attempted}
    info = {"setup_samples": len(setups),
            "pass_wall_s": [p["wall_s"] for p in passes],
            "pass_cpu_s": [p["cpu_s"] for p in passes]}
    return attempted, failed, problems, metrics, extra, info


def _same_records(a, b):
    def strip(records):
        return [{k: v for k, v in r.items() if k != "ms"} for r in records]
    return strip(a) == strip(b)


def measure_layers(runner, seconds):
    """--trace 1: per-layer metrics and the tracing overhead."""
    plain, _ = runner.child()
    traced, _ = runner.child("--trace")
    attempted, failed, _, problems = score(
        expected.load(runner.workload), [plain, traced])
    if not _same_records(plain["records"], traced["records"]):
        problems.append("the traced pass gave other records than the "
                        "untraced pass")
    metrics = dict(traced["layers"])
    metrics["trace.untraced_wall_s"] = plain["wall_s"]
    metrics["trace.traced_wall_s"] = traced["wall_s"]
    metrics["trace.overhead"] = traced["wall_s"] / plain["wall_s"]
    info = {"spans": str((runner.workdir / "spans.json").relative_to(ROOT))}
    return attempted, failed, problems, metrics, {}, info


def run_workload(workload, seed, seconds, trace, deadline):
    runner = Runner(workload, seed, deadline)
    info = {"workload": workload, "trace": trace, **stamp(seed)}
    how = measure_layers if trace else measure
    attempted, failed, problems, metrics, extra, more = how(runner, seconds)
    info.update(more)
    units = per_layer_units() if trace else END_TO_END
    print(json.dumps({"run": info}, sort_keys=True))
    for name, value in {**metrics, **extra}.items():
        unit = units.get(name) or VERDICTS[name]
        print(f"{workload:8s} {name:40s} {value:>16.6f} {unit}")
    for line in problems[:20]:
        print(f"{workload:8s} PROBLEM {line}")
    if len(problems) > 20:
        print(f"{workload:8s} PROBLEM ... and {len(problems) - 20} more")
    return {"correct": not problems, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "mpqg" / "cli.py").is_file():
        print(f"perfbench: no mpqg sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    try:
        results = {name: run_workload(name, args.seed, args.seconds,
                                      bool(args.trace), deadline)
                   for name in names}
    except BenchError as ex:
        print(f"perfbench: {ex}", file=sys.stderr)
        return 3
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{m}": v
                             for name, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
