"""Rules on the library source itself."""

import ast
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
