"""Every function of the library is entered by some command line or is a
named route of the tests, and each module's ``__all__`` lists exactly its
public functions and classes.

"Entered" is traced, not inferred from names: ``fresh_pass`` of
``tests/golden/regenerate.py`` runs every golden command line
(``ENTRIES``) and every ``EXIT_CODES`` row once per test session, in a
fresh interpreter under ``sys.setprofile``, and records each function of
``src/picband/`` whose code they enter, beside the results that the golden
and exit-code tests compare.  A function that no command line enters is
listed in ``ROUTES`` with the reason it is kept, or it is deleted.  A
class counts as used once a command line builds it.  Per module, the
public functions, classes and methods are checked on their own, so a
failure names the module.
"""

import ast
import functools
import importlib
from pathlib import Path

import pytest

from tests.golden.regenerate import fresh_pass

SRC = Path(__file__).resolve().parents[1] / "src" / "picband"
MODULES = ("__init__", "bands", "comparison", "curvature", "exterior", "gridcalc", "hodge", "potentials",
           "reporting")

_FORMS = "the dict form algebra and the form bounds the algebra benchmark runs; ROADMAP item 4 moves them to tests/"
_MODEL = "the focal radius of a model band, which only the band tests reach; ROADMAP item 8 gives it a suite"
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
    no command line enters, and of the classes that one builds."""
    traced = fresh_pass()
    raised = [" ".join(argv) for argv, result in traced["runs"].items() if "error" in result]
    assert not raised, f"these command lines raised, so the trace may miss what they enter: {raised}"
    return (frozenset(name for key, name in _defined().items() if key not in traced["entered"]),
            traced["made"])


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
