"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402  (puts src/ on the path)
import expected  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


# scratch space inside the checkout, like the benchmark's own
WORKDIR = expected.ROOT / ".perfbench" / "tests"


def _records(cases, trace):
    WORKDIR.mkdir(parents=True, exist_ok=True)
    cli, paths = child.setup(cases, WORKDIR)
    t = tracer.Tracer().install() if trace else None
    try:
        records, errors, _, _ = child.run_pass(cli, cases, paths)
    finally:
        if t is not None:
            t.uninstall()
    assert errors == []
    return records, (t.metrics() if t else None)


def _small_cases():
    sweep = workloads.cases("sweep", 0, expected.ROOT)
    keep = [c for c in sweep if c.name.endswith("-A1")
            or c.name == "module-A1-ladder"]
    keep.append(workloads.Case(
        "module-A1-(1)", ["module"],
        workloads._config(preset="A1", mode="numeric",
                          numeric={(0, 0): 5}, weights=[[1]])))
    return keep


@pytest.mark.parametrize("name", workloads.NAMES)
def test_expected_tables_are_current(name):
    assert expected.load(name) == json.loads(json.dumps(expected.derive(name)))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_record_identities_do_not_depend_on_seed(name):
    a = workloads.cases(name, 1, expected.ROOT)
    b = workloads.cases(name, 1, expected.ROOT)
    c = workloads.cases(name, 2, expected.ROOT)
    assert [(x.name, x.words, x.config) for x in a] == \
        [(x.name, x.words, x.config) for x in b]
    assert [expected.case_records(x) for x in a] == \
        [expected.case_records(x) for x in c]


def test_traced_pass_gives_the_untraced_records():
    cases = _small_cases()
    plain, _ = _records(cases, trace=False)
    traced, layers = _records(cases, trace=True)
    assert run._same_records(plain, traced)
    assert len(plain) == sum(len(expected.case_records(c)) for c in cases)
    assert layers["scalars.mul.calls"] > 0
    assert layers["cyclotomic.mul.calls"] > 0
    assert layers["cli.suite.calls"] == len(cases)


def test_uninstall_restores_every_attribute():
    import mpqg.cli  # noqa: F401  (loads every mpqg module)
    owners = [m for name, m in sys.modules.items()
              if name == "mpqg" or name.startswith("mpqg.")]
    owners += [v for m in list(owners) for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("mpqg")]
    before = [(o, dict(vars(o))) for o in owners]
    from mpqg.scalars import Scalar
    original = vars(Scalar)["__mul__"]
    t = tracer.Tracer().install()
    assert vars(Scalar)["__mul__"] is not original
    assert vars(Scalar)["__rmul__"] is vars(Scalar)["__mul__"]
    assert len(t.saved) >= len(tracer.TARGETS)
    t.uninstall()
    for owner, attrs in before:
        now = vars(owner)
        assert set(now) == set(attrs), owner
        for name, value in attrs.items():
            assert now[name] is value, (owner, name)


def test_bypassed_layers_read_zero():
    hopf = workloads.Case("hopf-A1", ["check", "hopf"],
                          workloads._config(preset="A1", word_length=1))
    _, layers = _records([hopf], trace=True)
    assert layers["cotensor.word_product.calls"] > 0
    for layer in ("realization", "linalg", "modules", "pairing",
                  "cyclotomic"):
        calls = [v for k, v in layers.items()
                 if k.startswith(layer + ".") and k.endswith(".calls")]
        assert calls and not any(calls), layer
    numeric = _small_cases()[-1]
    _, layers = _records([numeric], trace=True)
    assert layers["grouplike.mul.calls"] > 0
    for layer in ("scalars", "cyclotomic"):
        assert not any(v for k, v in layers.items()
                       if k.startswith(layer + ".") and k.endswith(".calls"))


def test_compare_scores_defects_and_gaps():
    table = {"records": [
        {"case": "a", "check": "x", "inputs": {}, "status": "pass"},
        {"case": "a", "check": "y", "inputs": {}, "status": "pass",
         "observed": "fail", "known_defect": "documented"},
    ]}

    def rec(check, status):
        return {"case": "a", "check": check, "inputs": {}, "status": status,
                "detail": ""}

    assert expected.compare(table, [rec("x", "pass"), rec("y", "pass")]) \
        == (0, 0, [])
    # the known defect counts as failed but keeps the pass correct
    assert expected.compare(table, [rec("x", "pass"), rec("y", "fail")]) \
        == (1, 0, [])
    failed, undecided, problems = expected.compare(
        table, [rec("x", "undecided"), rec("z", "pass")], ["a: boom"])
    assert (failed, undecided, len(problems)) == (3, 1, 4)


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((expected.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
