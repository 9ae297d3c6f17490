"""The benchmark's workloads: which CLI suites run, on which configs.

A workload is a list of cases.  A case is one `mpqg.cli.main` call: a name,
the CLI words before the flags, and the text of the config file it gets
through `--config`.  Every case also gets `--timings`.  The seed changes
two inputs only: the Hopf suite's `seed` key and the `numeric` entries of
the `modules` workload, so no record's identity or verdict depends on it.
Why each workload exists, and
which layer figures it should move, is written in README.md.
"""

from __future__ import annotations

import random
from pathlib import Path

NAMES = ("hopf", "modules", "sweep")
PRESETS = ("A1", "A1xA1", "A2", "B2", "G2")

# Valid `numeric` tables of similar coefficient size.  A2 needs
# q00 = q11 (q00^a01 = q11^a10); A1 has a single free entry.
A2_NUMERIC_POOL = (
    {(0, 0): 5, (1, 1): 5, (0, 1): 3},
    {(0, 0): 5, (1, 1): 5, (0, 1): 7},
    {(0, 0): 7, (1, 1): 7, (0, 1): 5},
)
A1_NUMERIC_POOL = ({(0, 0): 5}, {(0, 0): 7}, {(0, 0): 9})

B2_CONFIG = Path("configs", "b2-numeric.cfg")
A1_ROOT_OF_UNITY_CONFIG = Path("configs", "a1-root-of-unity.cfg")


class Case:
    def __init__(self, name, words, config):
        self.name = name
        self.words = list(words)
        self.config = config

    def argv(self, config_path):
        return self.words + ["--config", str(config_path), "--timings"]


def _config(**keys):
    return "".join(f"{k} = {v!r}\n" for k, v in keys.items())


def hopf_cases(seed, root):
    # A1, not the A2 wall: see "Walls left out" in README.md
    return [Case("hopf-A1", ["check", "hopf"],
                 _config(preset="A1", mode="symbolic", word_length=3,
                         seed=seed))]


def modules_cases(seed, root):
    rng = random.Random(seed)
    a2 = rng.choice(A2_NUMERIC_POOL)
    a1 = rng.choice(A1_NUMERIC_POOL)
    b2 = (Path(root) / B2_CONFIG).read_text(encoding="utf-8")
    return [
        Case("module-A2-(2,1)", ["module"],
             _config(preset="A2", mode="numeric", numeric=a2,
                     weights=[[2, 1]])),
        Case("module-B2-(1,1)", ["module"], b2),
        Case("module-A1-(4)", ["module"],
             _config(preset="A1", mode="numeric", numeric=a1,
                     weights=[[4]])),
        # not dominant: the expected verdict is `fail`
        Case("module-A2-(1,0)", ["module"],
             _config(preset="A2", mode="numeric", numeric=a2,
                     weights=[[1, 0]])),
    ]


def sweep_cases(seed, root):
    cases = []
    for p in PRESETS:
        plain = _config(preset=p)
        cases += [
            Case(f"relations-{p}", ["check", "relations"], plain),
            Case(f"closed-forms-{p}", ["check", "closed-forms"], plain),
            Case(f"twist-{p}", ["twist"], plain),
            Case(f"smallqg-{p}", ["smallqg"], plain),
            Case(f"gram-{p}", ["pairing", "gram"],
                 _config(preset=p, max_height=5)),
        ]
    ladder = (Path(root) / A1_ROOT_OF_UNITY_CONFIG).read_text(encoding="utf-8")
    cases.append(Case("smallqg-a1-root-of-unity", ["smallqg"], ladder))
    cases.append(Case("module-A1-ladder", ["module"],
                      _config(preset="A1", mode="symbolic",
                              weights=[["1/2"], ["1"], ["3/2"]])))
    return cases


def cases(workload, seed, root):
    """The cases of a workload for a seed; `root` is the source checkout,
    whose `configs/` some cases read."""
    return {"hopf": hopf_cases, "modules": modules_cases,
            "sweep": sweep_cases}[workload](seed, root)
