"""Package-wide rules read off the source: exact arithmetic only, standard
library only, no dead private code.

Every verdict is exact, so no module may produce a float: no float
literal, no use of the name float and no true division.  Imports
resolve to the standard library or to the package itself.  Every
private module-level function or class is named somewhere in the
package besides its own definition, so a helper left behind when its
callers go is caught.  Only the cli module touches the standard streams,
so a library call never writes to the terminal and every write to
stdout goes through the command line's one helper.
"""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "weightsys").glob("*.py"))


def rule_violations(source):
    """(line, what) for every float, true division or non-stdlib import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, "float literal %r" % node.value))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "the name float"))
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
    # line 8 names float twice, in an argument and in the return annotation
    assert sorted(line for line, _ in rule_violations(source)) == [
        1, 2, 3, 4, 5, 6, 7, 8, 8
    ]


def unreferenced_private(sources):
    """(module, name) of every private module-level function or class in
    sources, a {module: source} dict, that no other top-level statement
    names: as a name, an attribute or an import."""
    private, statements = [], []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            statements.append((stmt, names))
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and stmt.name.startswith("_") and not stmt.name.startswith("__"):
                private.append((module, stmt))
    return [
        (module, own.name)
        for module, own in private
        if not any(own.name in names for stmt, names in statements if stmt is not own)
    ]


def test_every_private_helper_is_referenced():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unreferenced_private(sources) == []


def test_unreferenced_private_names_each_leftover():
    sources = {
        "a": (
            "def _used():\n    pass\n\n"
            "def _recursive(x):\n    return _recursive(x - 1) if x else 0\n\n"
            "class _Gone:\n    pass\n\n"
            "def __getattr__(name):\n    raise AttributeError(name)\n\n"
            "def public():\n    return _used()\n"
        ),
        "b": "def _imported():\n    pass\n\ndef _read_as_attribute():\n    pass\n",
        "c": "from . import b\nfrom .b import _imported\n\n_TABLE = (b._read_as_attribute,)\n",
    }
    # a helper that calls only itself is as dead as one nothing calls
    assert unreferenced_private(sources) == [("a", "_recursive"), ("a", "_Gone")]


def stream_uses(sources):
    """(module, line, what) for every print, sys.stdout or sys.stderr named
    in sources, a {module: source} dict, outside the cli module."""
    found = []
    for module, source in sources.items():
        if module == "cli":
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and node.id == "print":
                found.append((module, node.lineno, "print"))
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in ("stdout", "stderr")
                and isinstance(node.value, ast.Name)
                and node.value.id == "sys"
            ):
                found.append((module, node.lineno, "sys." + node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "sys":
                for alias in node.names:
                    if alias.name in ("stdout", "stderr"):
                        found.append((module, node.lineno, "sys." + alias.name))
    return found


def test_only_the_cli_touches_the_standard_streams():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert "cli" in sources
    assert stream_uses(sources) == []


def test_stream_uses_names_each_write_outside_the_cli():
    sources = {
        "cli": "import sys\nprint('ok')\nsys.stdout.write('ok')\n",
        "a": "import sys\n\ndef f():\n    print('x', file=sys.stderr)\n",
        "b": "from sys import stdout, argv\n\nstdout.write('y')\n",
        "c": "def print_all(out):\n    out.stdout.write('z')\n",
    }
    assert sorted(stream_uses(sources)) == [
        ("a", 4, "print"), ("a", 4, "sys.stderr"), ("b", 1, "sys.stdout")
    ]
