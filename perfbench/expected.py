"""Expected-verdict tables, derived from theory rather than from a run.

    python3 perfbench/expected.py          # check the committed tables
    python3 perfbench/expected.py --write  # regenerate them

Every record a workload should emit is listed with the verdict the
mathematics gives:

- the defining relations, adjoint closed forms, Hopf axioms and cocycle
  twist hold in the realization, so they `pass`;
- the Gram matrix of weight beta has size `kostant_count(beta)` (at least 1
  for every nonnegative beta) and is regular for generic parameters, so
  every `pairing/gram` record passes;
- a module exists exactly for a dominant integral weight, with dimension
  `weyl_dim`; a weight that is not dominant has one `module/dimension`
  record, and it is `fail`;
- at a root of unity of order ell, a dominant integral weight is either
  inside the alcove (0 < <lam + rho, beta^vee> < ell for every positive
  root beta, a product of alcoves for a decomposable datum) and its module
  verifies, or outside and is flagged; both are `pass`.

`KNOWN_DEFECTS` lists records where the program is known to disagree with
the theory.  Their expected verdict stays the theory's; the benchmark counts
them as failed but does not call the run incorrect while the program still
gives the documented `observed` verdict.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TABLES = HERE / "expected"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

KNOWN_DEFECTS = {
    ("smallqg-A1xA1", "smallqg/alcove-module"): (
        "fail",
        "alcove_check refuses a decomposable datum ('needs an "
        "indecomposable datum'), but (1/2, 0) lies inside the product "
        "alcove and its module has dimension 2"),
}


def _render(coords):
    return "(" + ", ".join(str(Fraction(c)) for c in coords) + ")"


def _dominant(cartan, datum, lam):
    pairings = [cartan.coweight_pairing(datum, lam,
                                        cartan.simple_root(datum, i))
                for i in range(datum.n)]
    return all(m.denominator == 1 and m >= 0 for m in pairings)


def _inside_alcove(cartan, datum, lam, ell):
    shifted = lam + cartan.rho(datum)
    return all(0 < cartan.coweight_pairing(datum, shifted, beta) < ell
               for beta in cartan.positive_roots(datum))


def _heights(n, h):
    """Nonnegative integer vectors of length n summing to h."""
    if n == 1:
        return [(h,)]
    return [(c,) + rest for c in range(h + 1)
            for rest in _heights(n - 1, h - c)]


def _relation_ids(n):
    ids = [(t, i, j) for t in ("R1", "R2", "R3", "R4", "R5")
           for i in range(n) for j in range(n)]
    ids += [(t, i, j) for t in ("R6", "R7")
            for i in range(n) for j in range(n) if i != j]
    return [f"{t}({i},{j})" for t, i, j in ids]


def case_records(case):
    """[(check, inputs, status, note)] the theory predicts for one case."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from mpqg import cartan
    from mpqg.cli import DEFAULTS, parse_config_text

    cfg = dict(DEFAULTS)
    cfg.update(parse_config_text(case.config, where=case.name))
    label, mode = cfg["preset"], cfg["mode"]
    datum = cartan.CartanDatum.preset(label)
    n = datum.n
    base = {"datum": label, "mode": mode}
    if cfg["weights"] is None:
        weights = [cartan.fundamental_weight(datum, 0)]
    else:
        weights = [cartan.LatticeVector(tuple(Fraction(str(c)) for c in w))
                   for w in cfg["weights"]]
    words = case.words
    out = []
    if words == ["check", "hopf"]:
        L = cfg["word_length"]
        out += [("hopf/coassociativity", {**base, "max_len": L + 1}),
                ("hopf/associativity", base), ("hopf/bialgebra", base),
                ("hopf/antipode", {**base, "max_len": min(L, 3)})]
    elif words == ["check", "relations"]:
        out += [(f"relations/{r}", base) for r in _relation_ids(n)]
    elif words == ["check", "closed-forms"]:
        out += [(f"closed-forms/ad-{side}({i},{j})", base)
                for i in range(n) for j in range(n) if i != j
                for side in ("left", "right")]
        out += [(f"closed-forms/powers({i})", base) for i in range(n)]
    elif words == ["twist"]:
        inputs = {"datum": label, "target": cfg["qhat"]}
        out += [("twist/gauge", inputs)]
        out += [(f"twist/{r}", inputs) for r in _relation_ids(n)]
        out += [("twist/contraction", inputs), ("twist/comparison", inputs)]
    elif words == ["pairing", "gram"]:
        out += [("pairing/base-values", base)]
        out += [(f"pairing/gram{_render(beta)}", {**base, "height": h})
                for h in range(1, cfg["max_height"] + 1)
                for beta in _heights(n, h)]
    elif words == ["module"]:
        for lam in weights:
            inputs = {**base, "weight": _render(lam.coords)}
            if not _dominant(cartan, datum, lam):
                out.append(("module/dimension", inputs, "fail",
                            "weight is not dominant integral"))
                continue
            dim = cartan.weyl_dim(datum, lam)
            out.append(("module/dimension", inputs, "pass",
                        f"weyl_dim = {dim}"))
            out += [(f"module/{c}", inputs)
                    for c in ("nilpotency", "closure", "relations")]
    elif words == ["smallqg"]:
        ell = cfg["ell"]
        inputs = {"datum": label, "ell": ell}
        out += [(f"smallqg/nilpotency({i})", inputs) for i in range(n)]
        out += [("smallqg/grading-group", inputs)]
        for lam in weights:
            w_inputs = {**inputs, "weight": _render(lam.coords)}
            if not _dominant(cartan, datum, lam):
                out.append(("smallqg/alcove-module", w_inputs, "fail",
                            "weight is not dominant integral"))
            elif _inside_alcove(cartan, datum, lam, ell):
                dim = cartan.weyl_dim(datum, lam)
                out.append(("smallqg/alcove-module", w_inputs, "pass",
                            f"inside the order-{ell} alcove, "
                            f"weyl_dim = {dim}"))
            else:
                out.append(("smallqg/alcove-module", w_inputs, "pass",
                            f"outside the order-{ell} alcove, flagged"))
    else:
        raise ValueError(f"no theory for {words}")
    return [r if len(r) == 4 else (r[0], r[1], "pass", None) for r in out]


def derive(workload):
    """The expected table of a workload, as written to expected/<name>.json."""
    records = []
    for case in workloads.cases(workload, 0, ROOT):
        for check, inputs, status, note in case_records(case):
            entry = {"case": case.name, "check": check, "inputs": inputs,
                     "status": status}
            if note:
                entry["note"] = note
            defect = KNOWN_DEFECTS.get((case.name, check))
            if defect:
                entry["observed"], entry["known_defect"] = defect
            records.append(entry)
    return {"workload": workload, "records": records}


def load(workload):
    with open(TABLES / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def record_key(rec):
    return (rec["case"], rec["check"],
            json.dumps(rec["inputs"], sort_keys=True))


def compare(table, records, errors=()):
    """Score one pass against a table.

    Returns (failed, undecided, problems): `failed` counts records whose
    verdict differs from the table, missing records and exceptions;
    `problems` describes everything that makes the pass incorrect, which is
    all of those except a known defect giving its documented verdict, plus
    any extra or repeated record.
    """
    want = {record_key(e): e for e in table["records"]}
    got = {}
    problems = [f"exception in {e}" for e in errors]
    for rec in records:
        key = record_key(rec)
        if key in got or key not in want:
            problems.append(f"unexpected record {key}")
        got[key] = rec
    failed, undecided = len(errors), 0
    for key, entry in want.items():
        rec = got.get(key)
        if rec is None:
            failed += 1
            problems.append(f"missing record {key}")
            continue
        if rec["status"] == "undecided":
            undecided += 1
        if rec["status"] != entry["status"]:
            failed += 1
            if rec["status"] != entry.get("observed"):
                problems.append(f"{key}: expected {entry['status']}, got "
                                f"{rec['status']} ({rec['detail']})")
    return failed, undecided, problems


def main(argv):
    stale = []
    for name in workloads.NAMES:
        table = derive(name)
        path = TABLES / f"{name}.json"
        text = json.dumps(table, indent=1, sort_keys=True) + "\n"
        if "--write" in argv:
            TABLES.mkdir(exist_ok=True)
            path.write_text(text, encoding="utf-8")
        elif not path.is_file() or path.read_text(encoding="utf-8") != text:
            stale.append(path.name)
    if stale:
        print("stale expected tables: " + ", ".join(stale), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
