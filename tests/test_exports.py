"""Public names: every module's __all__ resolves and has a caller, the
package root re-exports only names its modules declare public (a module
without __all__ exports its names without a leading underscore, as import *
does), no error class outlives the code that raises it, and no module
imports a name it does not use."""

import ast
import importlib.util
from pathlib import Path

import pytest

import fleetdyn
from fleetdyn import errors

MODULES = ["analytics", "calibration", "cli", "dynamics", "errors", "infrastructure", "scenarios"]
PACKAGE = Path(fleetdyn.__file__).parent
REPO = Path(__file__).resolve().parents[1]


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


def loaded_names(tree):
    """The names a module loads: bare names, and attributes of the package or of
    a submodule it binds (`import fleetdyn as fd`, `from . import scenarios`)."""
    aliases = {"fleetdyn"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names if a.name.startswith("fleetdyn")}
        elif isinstance(node, ast.ImportFrom) and (node.module == "fleetdyn" or
                                                   node.level and node.module is None):
            aliases |= {a.asname or a.name for a in node.names if a.name in MODULES}
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(getattr(node, "ctx", None), ast.Load)
        and (isinstance(node, ast.Name)
             or isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in aliases)
    }


def test_every_public_name_has_a_caller():
    # A public name that neither the package, the benchmark nor the
    # acceptance suite loads is surface without a caller. Reading a field of
    # the same name (plan.vehicles_per_station) does not count.
    sources = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    sources += [path for path in (REPO / "perfbench").glob("*.py")
                if not path.name.startswith("test_")]
    sources.append(REPO / "tests" / "test_acceptance.py")
    loaded = set()
    for path in sources:
        loaded |= loaded_names(ast.parse(path.read_text(encoding="utf-8")))
    uncalled = {
        (name, public) for name in MODULES
        for public in getattr(importlib.import_module(f"fleetdyn.{name}"), "__all__", [])
        if public not in loaded
    }
    assert uncalled == set()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_top_level_import_is_used(path):
    # The check a linter would make: a module-level import that no name in
    # the module loads (or that its __all__ does not re-export) is a leftover.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__":
            used |= {elt.value for elt in getattr(node.value, "elts", [])}
    bound = {
        (alias.asname or alias.name).partition(".")[0]
        for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names if getattr(node, "module", None) != "__future__"
    }
    assert bound - used == set()


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


def nodes_by_function(node, kind, name=None):
    """(innermost enclosing function name or None, node) for each node of kind under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, kind):
            yield name, child
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else name
        yield from nodes_by_function(child, kind, inner)


def test_only_write_text_opens_files_for_writing():
    # Every output file goes through _files.write_text, which replaces the
    # content in place; a second writer would truncate on open again.
    writers = {
        (path.name, func)
        for path in Path(fleetdyn.__file__).parent.glob("*.py")
        for func, call in nodes_by_function(ast.parse(path.read_text(encoding="utf-8")), ast.Call)
        if opens_for_writing(call)
    }
    assert writers == {("_files.py", "write_text")}


def is_largest_float(node):
    """Whether node is the largest float by name: `_FMAX` or `sys.float_info.max`."""
    if isinstance(node, ast.Name):
        return node.id == "_FMAX"
    return isinstance(node, ast.Attribute) and (
        node.attr == "_FMAX"
        or node.attr == "max" and getattr(node.value, "attr", None) == "float_info")


def test_only_dynamics_compares_with_the_largest_float():
    # The range rules and their one check, _checked, live in dynamics. A
    # comparison with the largest float elsewhere is a second copy of the
    # rule, allowed only in the two per-row and per-probe checks whose speed
    # the study benchmark measures.
    sites = {
        (path.stem, func)
        for path in PACKAGE.glob("*.py") if path.stem != "dynamics"
        for func, cmp in nodes_by_function(ast.parse(path.read_text(encoding="utf-8")),
                                           ast.Compare)
        if any(map(is_largest_float, ast.walk(cmp)))
    }
    assert sites - {("calibration", "load_fleet_csv"),
                    ("analytics", "finite_difference_sensitivity")} == set()


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
