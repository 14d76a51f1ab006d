"""Package-wide rules read off the source: exact arithmetic only, standard
library only.

Every verdict is exact, so no module may produce a float: no float
literal, no float() call and no true division.  Annotations may still
name float (SearchOutcome.elapsed is a perf_counter reading).  Imports
resolve to the standard library or to the package itself.
"""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "weightsys").glob("*.py"))


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs
            every += [a for a in (args.vararg, args.kwarg) if a is not None]
            yield from (a.annotation for a in every if a.annotation is not None)
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def rule_violations(source):
    """(line, what) for every float, true division or non-stdlib import."""
    tree = ast.parse(source)
    in_annotation = {
        id(inner) for outer in _annotations(tree) for inner in ast.walk(outer)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, "float literal %r" % node.value))
        elif (
            isinstance(node, ast.Name)
            and node.id == "float"
            and id(node) not in in_annotation
        ):
            found.append((node.lineno, "float outside an annotation"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, ast.Div
        ):
            found.append((node.lineno, "true division"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                if top not in sys.stdlib_module_names:
                    found.append((node.lineno, "import %s" % alias.name))
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            top = node.module.split(".")[0]
            if top not in sys.stdlib_module_names:
                found.append((node.lineno, "from %s import" % node.module))
    return found


def test_package_is_exact_and_standard_library_only():
    assert len(SOURCES) >= 9
    for path in SOURCES:
        assert rule_violations(path.read_text(encoding="utf-8")) == [], path.name


def test_rule_violations_names_each_breach():
    source = (
        "import numpy\n"
        "from scipy.linalg import norm\n"
        "x = 1 / 2\n"
        "x /= 2\n"
        "y = 0.5\n"
        "z = float(3)\n"
        "elapsed: float = 0\n"
        "def f(t: float) -> float:\n"
        "    return t // 2\n"
    )
    assert sorted(line for line, _ in rule_violations(source)) == [1, 2, 3, 4, 5, 6]
