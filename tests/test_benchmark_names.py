"""The benchmark's traced run looks functions up by name.

perfbench/run.py lists them as "module.function" in TRACED and EMIT, and
the tracer wraps only the plain functions a module lists in __all__
(plus the classmethod FixedPointSystem.from_weights).  A refactor that
drops or hides one of them makes the traced run crash on the missing
name; this test fails first.
"""

import ast
import importlib
import inspect
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _named_functions():
    """The strings of the TRACED and EMIT tuples, read with ast."""
    found = {}
    for node in ast.parse(RUN.read_text(encoding="utf-8")).body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in ("TRACED", "EMIT")
        ):
            found[node.targets[0].id] = ast.literal_eval(node.value)
    return found


def test_every_traced_name_is_a_public_function():
    found = _named_functions()
    assert set(found) == {"TRACED", "EMIT"}
    names = found["TRACED"] + found["EMIT"]
    assert "core.from_weights" in names and "documents.emit_report" in names
    for name in names:
        module_name, attr = name.split(".")
        module = importlib.import_module("weightsys." + module_name)
        if name == "core.from_weights":
            assert "FixedPointSystem" in module.__all__
            raw = inspect.getattr_static(module.FixedPointSystem, "from_weights")
            assert isinstance(raw, classmethod), name
            continue
        assert attr in module.__all__, name
        fn = getattr(module, attr)
        assert inspect.isfunction(fn), name
        assert fn.__module__ == module.__name__, name
        assert not inspect.isgeneratorfunction(fn), name
