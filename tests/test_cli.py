"""Command-line interface: config handling, record schema, determinism,
and exit codes."""

import json
import subprocess
import sys

import pytest

from mpqg import cli, cotensor
from mpqg.cli import main, parse_config_text, ConfigError
from mpqg.cotensor import CotensorAlgebra, Word
from mpqg.linalg import add_into as linalg_add_into
from mpqg.modules import ClosureError, HighestWeightModule


def run_json(capsys, argv):
    """Invoke the CLI and parse its line-delimited JSON report."""
    code = main(argv)
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines()]
    return code, records


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- config parsing -----------------------------------------------------------------


def test_parse_config_literals_and_comments():
    text = """
    # leading comment
    preset = "B2"
    bound = 6            # trailing comment
    weights = [["1/2"], [1]]
    numeric = {(0, 0): 4}
    timings = True
    """
    out = parse_config_text(text)
    assert out["preset"] == "B2"
    assert out["bound"] == 6
    assert out["weights"] == [["1/2"], [1]]
    assert out["numeric"] == {(0, 0): 4}
    assert out["timings"] is True


@pytest.mark.parametrize("line,fragment", [
    ("", "no keys"),
    ("# only a comment\n", "no keys"),
    ("bogus = 1\n", "unknown key"),
    ("preset 'A2'\n", "expected"),
    ("bound = [oops\n", "not a literal"),
    ("bound = 4\nbound = 5\n", "duplicate"),
    ("bound = 'four'\n", "must be a int"),
    # bool is an int subclass, but True is not a bound of 1
    ("bound = True\n", "'bound' must be a int"),
    ("max_height = True\n", "'max_height' must be a int"),
    ("max_depth = True\n", "'max_depth' must be a int"),
    ("word_length = False\n", "'word_length' must be a int"),
    ("seed = False\n", "'seed' must be a int"),
    ("ell = True\n", "'ell' must be a int"),
])
def test_parse_config_rejections(line, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config_text(line)


@pytest.mark.parametrize("text", [
    "preset = 'Z9'\n",
    "mode = 'floating'\n",
    "numeric = {(0, 0): 4}\n",                   # needs mode = numeric
    "mode = 'numeric'\n",                        # needs entries
    "ell = 4\n",                                 # even order
    "ell = 1\n",
    "bound = 0\n",
    "max_depth = 0\n",
    "max_height = None\n",                       # its default is not None
    "ell = None\n",
    "format = 'xml'\n",
    "qhat = 'random'\n",
    "cartan = [[2, -1], [-1, 2]]\n",             # missing symmetrizers
    "preset = 'B2'\nsymmetrizers = [1, 1]\n",     # symmetrizers without cartan
    "weights = [[1, 2, 3]]\n",                   # wrong rank for A2
    "weights = [['1/0']]\n",
    "bound = True\n",
    "mode = 'numeric'\nnumeric = {(True, 0): 4}\n",
    "mode = 'root-of-unity'\noffdiag = {(0, 1): True}\n",
    "mode = 'root-of-unity'\noffdiag = {(False, 1): 1}\n",
    # a zero free entry has no inverse for the entry below it
    "mode = 'numeric'\nnumeric = {(0, 0): 5, (1, 1): 5, (0, 1): 0}\n",
    # index pairs below the diagonal or beyond the rank reach no entry
    "mode = 'numeric'\nnumeric = {(0, 0): 5, (1, 1): 5, (1, 0): 3}\n",
    "mode = 'numeric'\nnumeric = {(0, 0): 5, (1, 1): 5, (7, 7): 2}\n",
    "mode = 'root-of-unity'\noffdiag = {(1, 0): 2}\n",
    "mode = 'root-of-unity'\noffdiag = {(4, 4): 1}\n",
    "mode = 'root-of-unity'\noffdiag = {(0, 0): 1}\n",
    # Cartan entries are exact integers, not rounded or parsed
    "cartan = [[2, -1.7], [-1.2, 2]]\nsymmetrizers = [1.9, 1]\n",
    "cartan = [[2, '-1'], ['-1', 2]]\nsymmetrizers = [1, 1]\n",
    "cartan = [[2, -1], [-1, 2]]\nsymmetrizers = [True, 1]\n",
])
def test_config_errors_exit_2(tmp_path, capsys, text):
    cfg = write_config(tmp_path, text)
    assert main(["check", "relations", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv,key,value", [
    (["check", "relations", "--format", "table"], "format", "table"),
    (["check", "relations", "--bound", "7"], "bound", 7),
    (["check", "relations", "--max-height", "2"], "max_height", 2),
    (["check", "relations", "--seed", "11"], "seed", 11),
    (["check", "relations", "--timings"], "timings", True),
    (["smallqg", "--ell", "7"], "ell", 7),
    (["twist", "--qhat", "identity"], "qhat", "identity"),
    (["module", "--lambda", "1,2/3"], "weights", [["1", "2/3"]]),
])
def test_every_flag_reaches_its_key(argv, key, value):
    # each value differs from the default, and no other key moves
    settings = cli._merge_settings(cli.build_parser().parse_args(argv))
    assert settings == {**cli.DEFAULTS, key: value}


@pytest.mark.parametrize("argv", [["check", "relations"], ["smallqg"]])
def test_offdiag_table_is_checked_in_every_mode(tmp_path, capsys, argv):
    # in the default symbolic mode `check relations` never reads the table,
    # and used to run it silently with exit 0
    cfg = write_config(tmp_path, "offdiag = {(5, 5): 'x'}\n")
    assert main(argv + ["--config", cfg]) == 2
    assert "offdiag entry key (5, 5)" in capsys.readouterr().err


def test_missing_config_file_exits_2(capsys):
    assert main(["check", "relations", "--config", "/nonexistent.cfg"]) == 2
    assert "config error" in capsys.readouterr().err


# -- report shape and determinism ---------------------------------------------------


def test_relations_records_and_determinism(capsys):
    code, records = run_json(capsys, ["check", "relations"])
    assert code == 0
    assert len(records) == 24
    for rec in records:
        assert set(rec) == {"check", "inputs", "status", "detail"}
        assert rec["status"] == "pass"
        assert rec["inputs"] == {"datum": "A2", "mode": "symbolic"}
    same_code, again = run_json(capsys, ["check", "relations"])
    assert same_code == 0 and again == records


def test_timings_flag_adds_ms(capsys):
    code, records = run_json(capsys,
                             ["check", "closed-forms", "--timings"])
    assert code == 0
    assert all("ms" in rec for rec in records)


def test_table_format(capsys):
    code = main(["pairing", "gram", "--format", "table"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("CHECK")
    assert "0 not passing" in out


# -- suites through the CLI ---------------------------------------------------------


def test_hopf_suite_rank_one(tmp_path, capsys):
    cfg = write_config(tmp_path, "preset = 'A1'\n")
    code, records = run_json(capsys, ["check", "hopf", "--config", cfg])
    assert code == 0
    names = {rec["check"] for rec in records}
    assert names == {"hopf/coassociativity", "hopf/associativity",
                     "hopf/bialgebra", "hopf/antipode"}


def test_hopf_bialgebra_fails_on_a_wrong_product(tmp_path, monkeypatch,
                                                 capsys):
    # doubling the contraction coefficient in the one product E0 * F0 (both
    # tails 1) breaks multiplicativity; scaling the rule in `alg.alpha`
    # would not, since the law holds for any contraction coefficient
    real = CotensorAlgebra.word_product
    e0, f0, x0 = ("E", 0), ("F", 0), ("X", 0)

    def word_product(self, wx, wy):
        out = real(self, wx, wy)
        one = self.group.identity
        if (wx, wy) == (Word((e0,), one), Word((f0,), one)):
            out = dict(out)
            out[Word((x0,), one)] = out[Word((x0,), one)] * 2
        return out

    monkeypatch.setattr(CotensorAlgebra, "word_product", word_product)
    cfg = write_config(tmp_path, "preset = 'A1'\nword_length = 3\n")
    code, records = run_json(capsys, ["check", "hopf", "--config", cfg])
    assert code == 1
    rec, = (r for r in records if r["check"] == "hopf/bialgebra")
    assert (rec["status"], rec["detail"]) == (
        "fail", "coproduct not multiplicative on E0 | tail=1 , "
        "E0.K'0^-1 (x) F0 | tail=1")


def test_hopf_bialgebra_passes_over_cancelled_slices(tmp_path, monkeypatch,
                                                     capsys):
    # at q = -1, E0 * E0 = 0: on the pair (E0, E0) the right-hand slice of
    # the left word E0.K0 gets q + 1 = 0 times E0 and empties, and the law
    # still holds
    cancelled = []
    current = [None]
    real_run = cli._run

    def run(records, check, inputs, fn):
        current[0] = check
        real_run(records, check, inputs, fn)

    def add_into(d, terms, c=None):
        before = bool(d)
        linalg_add_into(d, terms, c)
        if before and not d and current[0] == "hopf/bialgebra":
            cancelled.append(terms)

    monkeypatch.setattr(cli, "_run", run)
    monkeypatch.setattr(cli, "add_into", add_into)
    cfg = write_config(tmp_path, "preset = 'A1'\nmode = 'numeric'\n"
                                 "numeric = {(0, 0): -1}\nword_length = 2\n")
    code, records = run_json(capsys, ["check", "hopf", "--config", cfg])
    assert code == 0
    rec, = (r for r in records if r["check"] == "hopf/bialgebra")
    assert (rec["status"], rec["detail"]) == ("pass",
                                              "676 word pairs, length <= 2")
    assert cancelled


def test_pairing_gram_heights(capsys):
    code, records = run_json(capsys,
                             ["pairing", "gram", "--max-height", "2"])
    assert code == 0
    heights = {rec["inputs"]["height"] for rec in records
               if "height" in rec["inputs"]}
    assert heights == {1, 2}


AFFINE_A1 = "cartan = [[2, -2], [-2, 2]]\nsymmetrizers = [1, 1]\n"


def test_pairing_gram_outside_finite_type_is_undecided(tmp_path, capsys):
    cfg = write_config(tmp_path, AFFINE_A1 + "max_height = 2\n")
    code, records = run_json(capsys, ["pairing", "gram", "--config", cfg])
    assert code == 1
    assert records[0]["check"] == "pairing/base-values"
    gram = records[1:]
    assert [r["check"] for r in gram] == [
        "pairing/gram(0, 1)", "pairing/gram(1, 0)", "pairing/gram(0, 2)",
        "pairing/gram(1, 1)", "pairing/gram(2, 0)"]
    for rec in gram:
        assert rec["status"] == "undecided"
        assert "partition-count oracle" in rec["detail"]


def test_module_alcove_outside_finite_type_is_undecided(tmp_path, capsys):
    # the verdict `smallqg/alcove-module` gives on the same datum: no alcove
    # outside finite type is out of scope, not a wrong answer
    cfg = write_config(tmp_path, AFFINE_A1 + (
        "mode = 'root-of-unity'\nweights = [[1, 1]]\nmax_depth = 3\n"))
    code, records = run_json(capsys, ["module", "--config", cfg])
    assert code == 1
    assert [(r["check"], r["status"], r["detail"]) for r in records] == [
        ("module/dimension", "undecided",
         "alcove membership needs a finite-type datum")]


def test_module_default_weight(capsys):
    code, records = run_json(capsys, ["module"])
    assert code == 0
    dim = next(r for r in records if r["check"] == "module/dimension")
    assert "dimension 3" in dim["detail"]
    assert dim["inputs"]["weight"] == "(2/3, 1/3)"


def test_module_lambda_flag_fractions(capsys):
    code, records = run_json(capsys, ["module", "--lambda", "2/3,1/3"])
    assert code == 0
    assert records[0]["inputs"]["weight"] == "(2/3, 1/3)"


def test_module_numeric_config(tmp_path, capsys):
    cfg = write_config(tmp_path, (
        "preset = 'B2'\n"
        "mode = 'numeric'\n"
        "numeric = {(0, 0): 9, (1, 1): 3, (0, 1): 5}\n"
        "weights = [[1, 1]]\n"))
    code, records = run_json(capsys, ["module", "--config", cfg])
    assert code == 0
    dim = next(r for r in records if r["check"] == "module/dimension")
    assert "dimension 5" in dim["detail"]


def test_module_outside_alcove_fails(tmp_path, capsys):
    cfg = write_config(tmp_path, (
        "preset = 'A1'\nmode = 'root-of-unity'\nweights = [[4]]\n"))
    code, records = run_json(capsys, ["module", "--config", cfg])
    assert code == 1
    assert records[0]["status"] == "fail"
    assert "alcove" in records[0]["detail"]


@pytest.mark.parametrize("command,check", [
    ("module", "module/dimension"),
    ("smallqg", "smallqg/alcove-module"),
])
def test_depth_cutoff_is_undecided(tmp_path, capsys, command, check):
    # the closure of weight 3/2 needs four lowering steps: cut off at two,
    # the search is exhausted, which is not a wrong answer
    cfg = write_config(tmp_path, (
        "preset = 'A1'\nweights = [['3/2']]\nmax_depth = 2\n"))
    code, records = run_json(capsys, [command, "--config", cfg])
    assert code == 1
    rec = records[-1]
    assert rec["check"] == check
    assert rec["status"] == "undecided"
    assert rec["detail"] == ("lowering closure still open at depth 2; "
                             "pending weight spaces: (-1/2)")
    assert all(r["status"] == "pass" for r in records[:-1])


def test_module_records_a1_fundamental(tmp_path, capsys):
    cfg = write_config(tmp_path, "preset = 'A1'\nweights = [['1/2']]\n")
    code, records = run_json(capsys, ["module", "--config", cfg])
    assert code == 0
    assert [(r["check"], r["status"]) for r in records] == [
        ("module/dimension", "pass"), ("module/nilpotency", "pass"),
        ("module/closure", "pass"), ("module/relations", "pass")]
    assert records[0]["detail"] == ("dimension 2 matches oracle; "
                                    "weight-space dims [1, 1]")
    # the weight pairs to 1 with the coroot: the threshold is 2
    assert records[1]["detail"] == "all equal 1 + pairing with the coroot"
    assert records[2]["detail"] == "lowering closure re-verified"
    assert records[3]["detail"] == "5 relation matrix identities"


def test_twist_both_targets(capsys):
    for target in ("one-parameter", "identity"):
        code, records = run_json(capsys, ["twist", "--qhat", target])
        assert code == 0
        names = {rec["check"] for rec in records}
        assert "twist/gauge" in names
        assert "twist/contraction" in names
        assert "twist/comparison" in names


def test_smallqg_ladder(tmp_path, capsys):
    cfg = write_config(tmp_path, (
        "preset = 'A1'\nell = 5\n"
        "weights = [['1/2'], ['1'], ['3/2'], ['2']]\n"))
    code, records = run_json(capsys, ["smallqg", "--config", cfg])
    assert code == 0
    details = [r["detail"] for r in records
               if r["check"] == "smallqg/alcove-module"]
    assert ["dimension 2" in d for d in details[:3]].count(True) == 1
    assert "dimension 2" in details[0]
    assert "dimension 3" in details[1]
    assert "dimension 4" in details[2]
    assert "outside" in details[3]
    grading = next(r for r in records
                   if r["check"] == "smallqg/grading-group")
    assert "order 25" in grading["detail"]


@pytest.mark.parametrize("text,status,detail", [
    # out of scope: no alcove outside finite type
    (AFFINE_A1 + "weights = [[1, 0]]\n", "undecided",
     "alcove membership needs a finite-type datum"),
    # a bad weight on a finite-type datum is still a failure
    ("preset = 'A2'\nweights = [[-1, 0]]\n", "fail",
     "weight is not dominant integral: pairing with coroot 0 is -2"),
], ids=["affine", "non-dominant"])
def test_smallqg_alcove_hypotheses(tmp_path, capsys, text, status, detail):
    cfg = write_config(tmp_path, text)
    code, records = run_json(capsys, ["smallqg", "--config", cfg])
    assert code == 1
    rec = records[-1]
    assert rec["check"] == "smallqg/alcove-module"
    assert (rec["status"], rec["detail"]) == (status, detail)
    assert all(r["status"] == "pass" for r in records[:-1])


@pytest.mark.parametrize("attr,value,detail", [
    ("nilpotency_threshold", lambda self, i: 0, "threshold 0 != 2 at index 0"),
    ("_certify", lambda self: False, "closure certificate missing"),
])
def test_smallqg_reports_failing_module_verdict(tmp_path, monkeypatch, capsys,
                                                attr, value, detail):
    monkeypatch.setattr(HighestWeightModule, attr, value)
    cfg = write_config(tmp_path, "preset = 'A1'\nweights = [['1/2']]\n")
    code, records = run_json(capsys, ["smallqg", "--config", cfg])
    assert code == 1
    rec = records[-1]
    assert rec["check"] == "smallqg/alcove-module"
    assert (rec["status"], rec["detail"]) == ("fail", detail)
    assert all(r["status"] == "pass" for r in records[:-1])


@pytest.mark.parametrize("ell", ["3", "9"])
def test_smallqg_order_the_datum_cannot_take_exits_2(tmp_path, capsys, ell):
    cfg = write_config(tmp_path, "preset = 'G2'\n")
    assert main(["smallqg", "--config", cfg, "--ell", ell]) == 2
    assert "config error" in capsys.readouterr().err


def test_custom_cartan_matrix(tmp_path, capsys):
    cfg = write_config(tmp_path, (
        "cartan = [[2, -1], [-1, 2]]\nsymmetrizers = [1, 1]\n"))
    code, records = run_json(capsys,
                             ["check", "relations", "--config", cfg])
    assert code == 0
    assert records[0]["inputs"]["datum"] == "custom(n=2)"


def test_singular_cartan_needs_explicit_weights(tmp_path, capsys):
    cfg = write_config(tmp_path, (
        "cartan = [[2, -2], [-2, 2]]\nsymmetrizers = [1, 1]\n"))
    assert main(["module", "--config", cfg]) == 2
    assert "singular" in capsys.readouterr().err


def test_exhausted_search_is_an_undecided_record(monkeypatch, capsys):
    def exhausted(self, i):
        raise ClosureError(6, [self.lam])

    monkeypatch.setattr(HighestWeightModule, "nilpotency_threshold", exhausted)
    code, records = run_json(capsys, ["module", "--timings"])
    assert code == 1
    checks = [r["check"] for r in records]
    assert checks == ["module/dimension", "module/nilpotency",
                      "module/closure", "module/relations"]
    rec = records[1]
    assert rec["status"] == "undecided"
    assert rec["detail"] == ("lowering closure still open at depth 6; "
                             "pending weight spaces: (2/3, 1/3)")
    assert rec["ms"] >= 0
    assert all(r["status"] == "pass" for r in records if r is not rec)


A2_NUMERIC_11 = ("preset = 'A2'\nmode = 'numeric'\n"
                 "numeric = {(0, 0): 5, (1, 1): 5, (0, 1): 3}\n"
                 "weights = [[1, 1]]\n")
RAISE = HighestWeightModule._raise


def _doubled(self, i, vec):
    return RAISE(self, i, vec).scale(self.alg.coerce(2))


def _from_the_right(self, i, vec):
    # deletes the letter next to the weight letter instead of the first one
    moved = {Word(w.letters[-2:-1] + w.letters[:-2] + w.letters[-1:],
                  w.tail): c for w, c in vec.terms.items()}
    return RAISE(self, i, self.alg.element(moved))


@pytest.mark.parametrize("mutant,detail", [
    (_doubled, "failing matrix identities: R5(0,0), R5(1,1)"),
    (_from_the_right, "action image outside the weight ladder at (0, -1)"),
], ids=["doubled-constant", "wrong-side"])
def test_broken_raising_action_fails(tmp_path, monkeypatch, capsys, mutant,
                                     detail):
    # the raising action is c_i times the deletion of a leading F_i; a
    # wrong constant or a deletion at the wrong end must make the relation
    # records fail, as records and not as a traceback
    monkeypatch.setattr(HighestWeightModule, "_raise", mutant)
    cfg = write_config(tmp_path, A2_NUMERIC_11)
    code, records = run_json(capsys, ["module", "--config", cfg])
    assert code == 1
    failed = [(r["check"], r["detail"]) for r in records
              if r["status"] != "pass"]
    assert failed == [("module/relations", detail)]


@pytest.mark.parametrize("mark", [lambda m: -m, lambda m: m + 1],
                         ids=["inverted", "one-too-many"])
def test_wrong_weight_character_fails(tmp_path, monkeypatch, capsys, mark):
    # the weight letter maps K'_i to q_ii^-m_i; q_ii^m_i or q_ii^-(m_i + 1)
    # gives no module, and no record may pass on it
    marks = cotensor.marks
    monkeypatch.setattr(cotensor, "marks", lambda datum, lam: tuple(
        mark(m) for m in marks(datum, lam)))
    cfg = write_config(tmp_path, A2_NUMERIC_11)
    code, records = run_json(capsys, ["module", "--config", cfg])
    assert code == 1
    assert records
    assert all(r["status"] != "pass" for r in records)


def test_module_invocation_via_interpreter():
    outs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "mpqg.cli", "check",
             "closed-forms"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.count('"status": "pass"') == 6
        outs.append(proc.stdout)
    # no check relies on assert statements, which -O strips
    assert outs[0] == outs[1]


def test_failed_module_build_is_timed(capsys):
    code, records = run_json(capsys, ["module", "--lambda", "1,0",
                                      "--timings"])
    assert code == 1
    assert len(records) == 1
    rec = records[0]
    assert rec["check"] == "module/dimension"
    assert rec["status"] == "fail"
    assert rec["detail"] == ("weight is not dominant integral: pairing "
                             "with coroot 1 is -1")
    assert rec["ms"] > 0
