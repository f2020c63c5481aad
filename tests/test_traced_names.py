"""Every function the benchmark tracer times by name exists in the package.

`spinebench/tracer.py` looks up each entry of its `TARGETS` table by name, so
a renamed or deleted function would otherwise fail only the traced benchmark
run.  The table is read from the file's source; the tracer is not imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "spinebench" / "tracer.py"


def traced_names() -> list[tuple[str, str]]:
    """(module, function or Class.method) for every entry of `TARGETS`."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TARGETS":
            table = ast.literal_eval(node.value)
            return [(module, fn) for module, fns in table.items() for fn in fns]
    raise AssertionError(f"no TARGETS table in {TRACER}")


def test_every_traced_name_is_a_function_of_its_module():
    names = traced_names()
    assert len(names) > 40
    missing = []
    for module_name, fn in names:
        module = importlib.import_module(f"spinegeo.{module_name}")
        if "." in fn:  # the tracer wraps a method on the class that defines it
            cls_name, attr = fn.split(".")
            target = vars(getattr(module, cls_name, object)).get(attr)
        else:
            target = getattr(module, fn, None)
        if not (inspect.isfunction(target) and target.__module__ == module.__name__):
            missing.append(f"{module_name}.{fn}")
    assert missing == []
