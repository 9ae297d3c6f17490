"""Rules on the library source itself."""

import ast
import importlib
import importlib.util
from collections import Counter
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


ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted(Path(mpqg.__file__).parent.glob("*.py"))
INIT = Path(mpqg.__file__)

# public names that nothing in src/ or perfbench/ calls, kept because the
# tests compare the library's own path against them
REACHABILITY_EXEMPT = {
    "product_recursive": "oracle for CotensorAlgebra.word_product's walk",
    "pair_transposed": "oracle for SkewPairing.pair_monomial, recursing on "
                       "the other argument",
    "specialize": "oracle evaluating symbolic scalars at numeric and "
                  "root-of-unity parameters",
    "multiplicative_order": "oracle for the diagonal orders that "
                            "ParamMatrix.root_of_unity states without "
                            "computing them",
}


def _strings(node):
    return {n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def _references(node):
    """Counts of the names and of the attribute names read in `node`; an
    imported name counts as a name read."""
    names, attrs = Counter(), Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.alias):
            names[n.name] += 1
        elif isinstance(n, ast.Attribute):
            attrs[n.attr] += 1
    return names, attrs


def _definitions(tree):
    """(name, node, is_method, dispatched) for each public top-level
    function and class and each public method of a top-level class;
    `dispatched` is true for a method named by a string in a class-level
    assignment (a table its callers look methods up in with getattr)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node, False, False
        if isinstance(node, ast.ClassDef):
            table = set().union(*(_strings(item) for item in node.body
                                  if isinstance(item, ast.Assign)))
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield item.name, item, True, item.name in table


def test_public_names_have_a_caller():
    # every public name of the library is reached from the library itself or
    # the benchmark, so nothing in src/ lives only for its tests.  A
    # re-export in __init__.py is not a caller, nor is a definition's own
    # body; a method counts as called only through an attribute, so a local
    # function of the same name does not hide it; the names the benchmark
    # tracer wraps count as called.
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in LIBRARY + sorted((ROOT / "perfbench").glob("*.py"))}
    traced = _strings(trees[ROOT / "perfbench" / "tracer.py"])
    names, attrs = Counter(), Counter()
    for path, tree in trees.items():
        if path != INIT:
            file_names, file_attrs = _references(tree)
            names += file_names
            attrs += file_attrs
    unreached = []
    for path in LIBRARY:
        if path == INIT:
            continue
        for name, node, is_method, dispatched in _definitions(trees[path]):
            if name in REACHABILITY_EXEMPT or name in traced or dispatched:
                continue
            own_names, own_attrs = _references(node)
            calls = attrs[name] - own_attrs[name]
            if not is_method:
                calls += names[name] - own_names[name]
            if calls == 0:
                unreached.append(f"{path.name}:{node.lineno} {name}")
    assert unreached == []


def test_no_unused_imports_in_library():
    # an import nothing in its module reads is a leftover of deleted code;
    # __init__.py only re-exports, so it is exempt
    unused = []
    for path in LIBRARY:
        if path == INIT:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in read:
                        unused.append(f"{path.name}:{node.lineno} {bound}")
    assert unused == []


def test_no_dead_local_stores():
    # a name a function binds by plain assignment and never reads is either
    # a leftover of deleted code or a result the function meant to use;
    # `_` names and tuple-unpacking targets are exempt, and a nested
    # function's reads count for the function around it
    dead = set()
    for path in LIBRARY:
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            read, declared = set(), set()
            for node in ast.walk(func):
                if isinstance(node, ast.Name) and not isinstance(
                        node.ctx, ast.Store):
                    read.add(node.id)
                elif isinstance(node, (ast.Global, ast.Nonlocal)):
                    declared.update(node.names)
            for node in ast.walk(func):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if (isinstance(target, ast.Name)
                                and not target.id.startswith("_")
                                and target.id not in read | declared):
                            dead.add(f"{path.name}:{target.lineno} "
                                     f"{target.id}")
    assert dead == set()


def test_elimination_names_no_coefficient_type():
    # linalg.py runs one elimination path for every coefficient field, so
    # it imports nothing a coefficient type could come from
    tree = ast.parse((ROOT / "src" / "mpqg" / "linalg.py").read_text())
    imports = [node.lineno for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))
               and getattr(node, "module", None) != "__future__"]
    assert imports == []
