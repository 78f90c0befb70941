"""Every function of the library is entered by some command line or is a
named route of the tests, and each module's ``__all__`` lists exactly its
public functions and classes.

"Entered" is traced, not inferred from names: a fresh interpreter runs
every golden command line (``ENTRIES``) and every ``EXIT_CODES`` row of
``tests/golden/regenerate.py`` under ``sys.setprofile`` and records each
function of ``src/picband/`` whose code it enters.  Fresh, because the
cached helpers (``functools.cache``, ``lru_cache``) are entered once per
process: a trace after other tests would miss them.  A function that no
command line enters is listed in ``ROUTES`` with the reason it is kept,
or it is deleted.  A class counts as used once a command line builds it.
Per module, the public functions, classes and methods are checked on
their own, so a failure names the module.  Run as a script, this file
prints the trace.
"""

import ast
import functools
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "picband"
MODULES = ("__init__", "bands", "comparison", "curvature", "exterior", "gridcalc", "hodge", "potentials",
           "reporting")

_FORMS = "the dict form algebra and the form bounds the algebra benchmark runs; ROADMAP item 4 moves them to tests/"
_MODEL = "the focal radius of a model band, which only the band tests reach; ROADMAP item 8 gives it a suite"
_FUZZ = "input errors that only test_changed_golden_input_exits_0_1_or_2_naming_the_key reaches"
ROUTES = {  # module.qualified name -> why it stays though no command line enters it
    "bands.band_curvatures": "the dense tensors the tests check the band closed form against",
    "curvature.iso_curvature": "the one evaluator the tests use to check witness frames",
    "curvature._iso_batch": "the batched evaluation behind iso_curvature",
    "curvature.CurvTensor.__add__": "the R + shift of acceptance 04 and of the curvature tests",
    "gridcalc.FormField.__sub__": "the field differences of the grid tests",
    "hodge.moebius_complex": "a bundled complex no suite loads, whose Betti numbers the hodge tests check; "
                             "ROADMAP item 20's duality check reads it",
    "hodge.twisted_composition_exact": "the exact d_f o d_f acceptance 10 checks; ROADMAP item 20 removes it",
    "reporting.canonical_body": "defines the byte identity of report bodies",
    "reporting._where": _FUZZ,
    "reporting._type_error": _FUZZ,
    **dict.fromkeys([
        "exterior._checked_key", "exterior.FormElement.__init__", "exterior.FormElement.copy",
        "exterior.FormElement.__add__", "exterior.FormElement.__sub__", "exterior.FormElement.__mul__",
        "exterior.FormElement.norm2", "exterior.FormElement.norm", "exterior.FormElement._check",
        "exterior.FormElement.__repr__", "exterior.basis_form", "exterior.inner", "exterior.wedge",
        "exterior._vector_components", "exterior._vector_action", "exterior.interior", "exterior.wedge_vector",
        "exterior.clifford_c", "exterior.clifford_ct", "exterior.form_to_vec", "exterior.full_basis",
        "exterior.full_operator_matrix", "potentials._two_form_vector", "potentials.hessian_form_bounds",
        "potentials.boundary_form_bounds"], _FORMS),
    **dict.fromkeys([
        "bands.boundary_shape", "bands.k_convexity_defect", "bands.focal_radius_model",
        "bands.focal_radius_model.radial_curvature", "comparison._symmetric", "comparison._check_step_limit",
        "comparison._rk4_step", "comparison._stepped"], _MODEL),
}


def _trace() -> dict:
    """What the command lines reach, in this interpreter: "entered" holds
    (module, first line, name) of each function of src/picband/ whose code
    they enter; "made" holds module.Class of each class of src/picband/
    whose own __init__ or __new__ code they enter, generated ones too (a
    dataclass's, a NamedTuple's), so a class with no def of its own counts
    once it is built."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        from tests.golden.regenerate import ENTRIES, EXIT_CODES, run_entry
        for argv in [*ENTRIES.values(), *(argv for argv, _ in EXIT_CODES)]:
            run_entry(argv)
    finally:
        sys.setprofile(None)
    modules = [mod for name, mod in sys.modules.items() if name == "picband" or name.startswith("picband.")]
    made = {f"{Path(mod.__file__).stem}.{cls.__qualname__}" for mod in modules for cls in vars(mod).values()
            if isinstance(cls, type) and cls.__module__ == mod.__name__
            and any(getattr(getattr(cls, attr), "__code__", None) in entered
                    for attr in ("__init__", "__new__") if attr in vars(cls))}
    return {"entered": sorted({(Path(code.co_filename).stem, code.co_firstlineno, code.co_name) for code in entered
                               if Path(code.co_filename).parent == SRC}),
            "made": sorted(made)}


@functools.cache
def _defined() -> dict:
    """(module, first line, name) -> module.qualified name of each function
    and method defined in src/picband/, nested ones too.  The first line of
    a decorated function is that of its first decorator, as in its code."""
    found = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[module, line, child.name] = f"{prefix}.{child.name}"
            scope = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, module, f"{prefix}.{child.name}" if scope else prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, path.stem)
    return found


@functools.cache
def _reached() -> tuple:
    """(unreached, made): the module.qualified names of the functions that
    no command line enters, and of the classes that one builds, traced once
    per test session in a fresh interpreter that runs this file."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT),
                                                                     os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    trace = json.loads(run.stdout)
    entered = {tuple(key) for key in trace["entered"]}
    return frozenset(name for key, name in _defined().items() if key not in entered), frozenset(trace["made"])


def _kept(name: str) -> bool:
    """A module.qualified name is kept when a command line builds it (a
    class), or enters or ROUTES lists it or a function defined inside it."""
    unreached, made = _reached()
    inside = [f for f in _defined().values() if f == name or f.startswith(f"{name}.")]
    return name in made or any(f not in unreached or f in ROUTES for f in inside)


def _public(module: str) -> dict:
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}


def test_every_function_is_entered_by_a_command_line_or_is_a_route():
    unreached, _ = _reached()
    unlisted = sorted(unreached - set(ROUTES))
    assert not unlisted, f"give a caller, delete, or list in ROUTES with its reason: {unlisted}"


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_is_used_benchmarked_or_allowed(module):
    """Each public function and class is entered or built by a command line,
    or ROUTES, which holds the benchmark's dict algebra, lists it or a
    function of it."""
    unused = sorted(name for name in _public(module) if not _kept(f"{module}.{name}"))
    assert not unused, f"report or delete: {unused}"


@pytest.mark.parametrize("module", MODULES)
def test_every_public_method_is_used_benchmarked_or_allowed(module):
    """Each public method (not _private, not __dunder__) of each public
    class is entered by a command line or listed in ROUTES."""
    unused = sorted(f"{cls.name}.{node.name}" for cls in _public(module).values() if isinstance(cls, ast.ClassDef)
                    for node in cls.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
                    and not _kept(f"{module}.{cls.name}.{node.name}"))
    assert not unused, f"report or delete: {unused}"


def test_allow_list_holds_only_public_names_nothing_else_reaches():
    """ROUTES, the allow-list, holds only functions that src/picband/
    defines (its private helpers too, which the trace sees) and that no
    command line enters: an entered route, or one defined nowhere, is stale."""
    unreached, _ = _reached()
    stale = sorted(set(ROUTES) - unreached)
    assert not stale, f"entered by a command line, or defined nowhere: drop from ROUTES: {stale}"


@pytest.mark.parametrize("module", MODULES)
def test_all_lists_exactly_the_public_names(module):
    mod = importlib.import_module("picband" if module == "__init__" else f"picband.{module}")
    listed = list(getattr(mod, "__all__", []))
    assert len(listed) == len(set(listed))
    assert set(listed) == set(_public(module))


if __name__ == "__main__":
    print(json.dumps(_trace()))
