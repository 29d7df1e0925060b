"""Public names: every module's __all__ resolves, and the package root
re-exports only names its modules declare public (a module without
__all__ exports its names without a leading underscore, as import * does),
and no error class outlives the code that raises it."""

import ast
import importlib.util
from pathlib import Path

import pytest

import fleetdyn
from fleetdyn import errors

MODULES = ["analytics", "calibration", "cli", "dynamics", "errors", "infrastructure", "scenarios"]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"fleetdyn.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


def public_names(module):
    return getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])


def test_package_imports_only_public_names():
    # The package root resolves each name in its table from the module
    # named there, on first access; __all__ is that table.
    table = fleetdyn._EXPORTS
    assert fleetdyn.__all__ == list(table)
    assert set(table.values()) == set(MODULES) - {"cli"}
    for name, module_name in table.items():
        module = importlib.import_module(f"fleetdyn.{module_name}")
        assert name in public_names(module), (module_name, name)
        assert getattr(fleetdyn, name) is getattr(module, name), name


def test_package_dir_lists_exports_and_unknown_names_raise():
    # A second execution of the package's __init__, so that no name has
    # been resolved yet: dir() must list the exports before first access.
    spec = importlib.util.find_spec("fleetdyn")
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)
    assert set(fleetdyn.__all__) - set(vars(fresh)) == set(fleetdyn.__all__)
    assert set(fleetdyn.__all__) <= set(dir(fresh))
    assert fresh.LvmParams is fleetdyn.LvmParams
    with pytest.raises(AttributeError, match="module 'fleetdyn' has no attribute 'no_such_name'"):
        fresh.no_such_name


def test_every_error_class_has_a_raiser():
    # An error class that nothing raises is dead surface; ModelError is
    # the base the CLI catches, and is raised only through its subclasses.
    classes = {
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, Exception)
        and obj.__module__ == errors.__name__
    }
    raised = set()
    for path in Path(fleetdyn.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    assert classes - {"ModelError"} - raised == set()


WRITE_MODES = set("wax+")


def opens_for_writing(call):
    """Whether a call opens a file for writing: any `os.open`, or `open` or
    `X.open` with a w/a/x/+ mode or a mode that is not a constant."""
    func = call.func
    owner = getattr(getattr(func, "value", None), "id", None)
    if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) != "open":
        return False
    if owner == "os":
        return True
    # open(file, mode) and io.open(file, mode); a method such as Path.open(mode)
    pos = 1 if isinstance(func, ast.Name) or owner == "io" else 0
    mode = next((k.value for k in call.keywords if k.arg == "mode"),
                call.args[pos] if len(call.args) > pos else ast.Constant("r"))
    return not isinstance(mode, ast.Constant) or bool(WRITE_MODES & set(mode.value))


def calls_by_function(node, name=None):
    """(innermost enclosing function name or None, call) for each call under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield name, child
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else name
        yield from calls_by_function(child, inner)


def test_only_write_text_opens_files_for_writing():
    # Every output file goes through _files.write_text, which replaces the
    # content in place; a second writer would truncate on open again.
    writers = {
        (path.name, func)
        for path in Path(fleetdyn.__file__).parent.glob("*.py")
        for func, call in calls_by_function(ast.parse(path.read_text(encoding="utf-8")))
        if opens_for_writing(call)
    }
    assert writers == {("_files.py", "write_text")}


def test_series_entry_points_do_not_use_numpy():
    # A fleet series is plain tuples, checked row by row by one rule
    # function; numpy belongs to the fit's arithmetic only.
    path = Path(fleetdyn.__file__).parent / "calibration.py"
    names = {"FleetSeries", "_row_defect", "load_fleet_csv"}
    bodies = [node for node in ast.parse(path.read_text(encoding="utf-8")).body
              if getattr(node, "name", None) in names]
    assert {node.name for node in bodies} == names
    numpy_names = {
        (node.name, ref.id) for node in bodies for ref in ast.walk(node)
        if isinstance(ref, ast.Name) and ref.id in ("np", "numpy")
    }
    assert numpy_names == set()
