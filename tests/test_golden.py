"""Golden CLI reports: the JSON records (without --timings) and the exit
status of a fixed set of runs must match the files under tests/golden/.

Each golden file holds the run's stdout followed by one line
``{"exit_status": N}``.  A refactor that keeps behaviour must leave every
file unchanged; a change that is meant to alter a report regenerates the
files and shows the difference in its diff:

    PYTHONPATH=src python tests/test_golden.py

writes every file again from the current source tree (pass run names to
regenerate only those).
"""

import sys
from pathlib import Path

import pytest

from mpqg.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
CONFIGS = HERE.parent / "configs"

A1_LADDER = "preset = 'A1'\nweights = [['1/2'], ['1'], ['3/2']]\n"
A1_HOPF = "preset = 'A1'\nword_length = 3\n"
A1_ROOT_OF_UNITY_HOPF = ("preset = 'A1'\nmode = 'root-of-unity'\n"
                         "word_length = 3\n")
G2 = "preset = 'G2'\n"
G2_GRAM_H5 = "preset = 'G2'\nmax_height = 5\n"
B2_NUMERIC = ("preset = 'B2'\nmode = 'numeric'\n"
              "numeric = {(0, 0): 9, (1, 1): 3, (0, 1): 5}\n")
B2_NUMERIC_GRAM = B2_NUMERIC + "max_height = 4\n"
# fractional root coordinates: the marks are (0, 1), no parameter root
B2_NUMERIC_MODULE_HALF = B2_NUMERIC + "weights = [['1/2', 1]]\n"
# no weights: the default first fundamental weight (2/3, 1/3)
A2_NUMERIC = ("preset = 'A2'\nmode = 'numeric'\n"
              "numeric = {(0, 0): 5, (1, 1): 5, (0, 1): 3}\n")
A2_NUMERIC_MODULE = A2_NUMERIC + "weights = [[1, 1]]\n"
A2_MODULE_11 = "preset = 'A2'\nweights = [[1, 1]]\n"
A2_NUMERIC_MODULE_21 = A2_NUMERIC + "weights = [[2, 1]]\n"
B2_ROOT_OF_UNITY_GRAM = ("preset = 'B2'\nmode = 'root-of-unity'\nell = 5\n"
                         "max_height = 4\n")
A2_ROOT_OF_UNITY_MODULE = ("preset = 'A2'\nmode = 'root-of-unity'\nell = 5\n"
                           "weights = [[1, 1]]\n")
A2_ROOT_OF_UNITY_GRAM = ("preset = 'A2'\nmode = 'root-of-unity'\nell = 5\n"
                         "max_height = 4\n")

# name -> (argv, config): config is None (defaults), the name of a file in
# configs/, or the text of an inline configuration.
RUNS = {
    "a2-check-relations": (["check", "relations"], None),
    "a2-check-closed-forms": (["check", "closed-forms"], None),
    "a2-twist": (["twist"], None),
    "a2-twist-identity": (["twist", "--qhat", "identity"], None),
    "a2-smallqg": (["smallqg"], None),
    "a2-pairing-gram": (["pairing", "gram"], None),
    "a2-module": (["module"], None),
    "a2-module-11": (["module"], A2_MODULE_11),
    "a2-numeric-module": (["module"], A2_NUMERIC_MODULE),
    "a2-numeric-module-default": (["module"], A2_NUMERIC),
    "a2-numeric-module-21": (["module"], A2_NUMERIC_MODULE_21),
    "a2-root-of-unity-module": (["module"], A2_ROOT_OF_UNITY_MODULE),
    "a2-root-of-unity-pairing-gram": (["pairing", "gram"],
                                      A2_ROOT_OF_UNITY_GRAM),
    "cfg-a2-symbolic-check-relations": (["check", "relations"],
                                        "a2-symbolic.cfg"),
    "cfg-a2-symbolic-module": (["module"], "a2-symbolic.cfg"),
    "cfg-a2-symbolic-twist": (["twist"], "a2-symbolic.cfg"),
    "cfg-a1-root-of-unity-smallqg": (["smallqg"], "a1-root-of-unity.cfg"),
    "cfg-b2-numeric-module": (["module"], "b2-numeric.cfg"),
    "cfg-g2-numeric-module": (["module"], "g2-numeric.cfg"),
    "a1-ladder-module": (["module"], A1_LADDER),
    "a1-check-hopf": (["check", "hopf"], A1_HOPF),
    "a1-root-of-unity-check-hopf": (["check", "hopf"], A1_ROOT_OF_UNITY_HOPF),
    "g2-check-relations": (["check", "relations"], G2),
    "g2-pairing-gram": (["pairing", "gram"], G2),
    "g2-pairing-gram-h5": (["pairing", "gram"], G2_GRAM_H5),
    "g2-smallqg": (["smallqg"], G2),
    "b2-numeric-pairing-gram": (["pairing", "gram"], B2_NUMERIC_GRAM),
    "b2-numeric-module-half": (["module"], B2_NUMERIC_MODULE_HALF),
    "b2-root-of-unity-pairing-gram": (["pairing", "gram"],
                                      B2_ROOT_OF_UNITY_GRAM),
}


def argv_for(name, workdir):
    argv, config = RUNS[name]
    if config is None:
        return list(argv)
    if config.endswith(".cfg"):
        path = CONFIGS / config
    else:
        path = Path(workdir) / f"{name}.cfg"
        path.write_text(config, encoding="utf-8")
    return list(argv) + ["--config", str(path)]


def report(code, out):
    return out + '{"exit_status": %d}\n' % code


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_report(name, tmp_path, capsys):
    code = main(argv_for(name, tmp_path))
    captured = capsys.readouterr()
    assert captured.err == ""
    want = (GOLDEN / f"{name}.jsonl").read_text(encoding="utf-8")
    assert report(code, captured.out) == want


def regenerate(names):
    import io
    import tempfile
    from contextlib import redirect_stdout

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for name in names:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(argv_for(name, workdir))
            (GOLDEN / f"{name}.jsonl").write_text(report(code, buf.getvalue()),
                                                  encoding="utf-8")
            print(f"wrote {name}.jsonl (exit {code})")


if __name__ == "__main__":
    regenerate(sys.argv[1:] or sorted(RUNS))
