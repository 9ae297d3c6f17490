"""Rules on the library source itself."""

import ast
import importlib
import importlib.util
from pathlib import Path

import mpqg


def test_no_assert_statements_in_library():
    # `python -O` strips assert statements, so a check written as one
    # silently disappears; every check must raise explicitly instead.
    found = []
    for path in sorted(Path(mpqg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_traced_targets_exist():
    # the benchmark tracer wraps these attributes by name and fails with a
    # KeyError on one that was renamed or deleted; this catches it in the
    # library's own suite
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for op, modname, clsname, attr in tracer.TARGETS:
        owner = importlib.import_module(f"mpqg.{modname}")
        if clsname is not None:
            owner = vars(owner).get(clsname)
        if owner is None or attr not in vars(owner):
            missing.append(f"{op}: {modname}.{clsname or ''}.{attr}")
    assert tracer.TARGETS and missing == []
