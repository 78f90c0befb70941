"""Every public function and class of the library, and every public method
of a public class, is used by the program, named by the benchmark, or on a
short allow-list with its reason; and each module's ``__all__`` lists
exactly the public functions and classes.

"Used" means referenced from code in ``src/`` or ``perfbench/`` outside its
own definition: by name inside its module, or elsewhere through an import of
it or an attribute of a name bound to its module (``exterior.clifford_c``,
``self.E.full_operator_matrix``).  A method is used when its name is read as
an attribute (``rep.summary_line()``, ``_NaturalCubic.jet``) outside a
function of that name; the receiver's type is not inferred.  Tests and
docstrings do not count.  The command-line module is left out: its suites
are the entry points.
"""

import ast
import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("__init__", "bands", "comparison", "curvature", "exterior", "gridcalc", "hodge", "potentials",
           "reporting")
PROGRAM = sorted((ROOT / "src" / "picband").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
ALLOWED = {
    "bands.band_curvatures": "the dense tensors the tests check the band closed form against",
    "bands.focal_radius_model": "the focal radius of a model band, for checking the bandwidth theorem on bands",
    "curvature.iso_curvature": "the one evaluator the tests use to check witness frames",
    "exterior.basis_form": "a constructor of basis forms for the tests",
    "exterior.inner": "the Hermitian pairing the adjointness tests of the Clifford actions measure with",
    "exterior.wedge": "the exterior product, whose sign rule the tests check against FormElement's",
    "gridcalc.gradient_components": "grad f as arrays, from which the tests build D_f's ct(grad f) term",
    "gridcalc.paired_test_fields": "the per-grid study fields the tests check a study's one draw against",
    "hodge.twisted_composition_exact": "the exact d_f o d_f that acceptance criterion 10 checks",
    "reporting.canonical_body": "defines the byte identity of report bodies",
}


def _ident(node):
    """The name a Name or an attribute access ends in, else None."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _public(module: str) -> dict:
    tree = ast.parse((ROOT / "src" / "picband" / f"{module}.py").read_text())
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}


def _public_methods(module: str) -> set:
    """Class.method of each public method (not _private, not __dunder__) of
    each public class of a module."""
    return {f"{cls.name}.{node.name}" for cls in _public(module).values() if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")}


def _attribute_names(trees) -> set:
    """Every attribute name the parsed files read, outside a function of the
    same name (a method calling itself is not a use)."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = node.name
        if isinstance(node, ast.Attribute) and node.attr != inside:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for tree in trees:
        visit(tree, None)
    return found


def _bindings(tree, own: str | None):
    """(aliases, names) of one file: aliases maps a name to the library
    module it is bound to, by an import or by re-binding such a name
    (``self.C, self.BD = curvature, bands``); names maps a name imported
    from a module to (module, name)."""
    aliases, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = "picband" + (f".{node.module}" if node.module else "") if node.level and own else node.module
            for alias in node.names:
                bound = alias.asname or alias.name
                if package == "picband":
                    aliases[bound] = alias.name
                elif package and package.startswith("picband."):
                    names[bound] = (package.split(".", 1)[1], alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("picband.") and alias.asname:
                    aliases[alias.asname] = alias.name.split(".", 1)[1]
    assigns = [node for node in ast.walk(tree) if isinstance(node, ast.Assign) and len(node.targets) == 1]
    changed = True
    while changed:
        changed = False
        for node in assigns:
            target, value = node.targets[0], node.value
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                pairs = zip(target.elts, value.elts)
            else:
                pairs = [(target, value)]
            for t, v in pairs:
                if _ident(v) in aliases and _ident(t) and aliases.get(_ident(t)) != aliases[_ident(v)]:
                    aliases[_ident(t)] = aliases[_ident(v)]
                    changed = True
    return aliases, names


def _references() -> set:
    """(module, name) of every library name the program files use."""
    publics = {m: _public(m) for m in MODULES}
    found = set()
    for path in PROGRAM:
        own = path.stem if path.parent.name == "picband" else None
        tree = ast.parse(path.read_text())
        aliases, names = _bindings(tree, own)
        local = publics.get(own, {})

        def visit(node, inside):
            if node in local.values():
                inside = node.name
            if isinstance(node, ast.Attribute) and _ident(node.value) in aliases:
                found.add((aliases[_ident(node.value)], node.attr))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in names:
                    found.add(names[node.id])
                elif node.id in local and node.id != inside:
                    found.add((own, node.id))
            for child in ast.iter_child_nodes(node):
                visit(child, inside)

        visit(tree, None)
    return found


def _per_layer() -> set:
    """module.function names the benchmark's per-layer metrics count."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    parts = (metric["name"].split(".") for metric in doc["per_layer"])
    return {(p[0], p[1]) for p in parts if len(p) == 3}


REFERENCES = _references()
ATTRIBUTES = _attribute_names(ast.parse(path.read_text()) for path in PROGRAM)


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_is_used_benchmarked_or_allowed(module):
    unused = {name for name in _public(module)
              if (module, name) not in REFERENCES | _per_layer() and f"{module}.{name}" not in ALLOWED}
    assert not unused, f"report or delete: {sorted(unused)}"


@pytest.mark.parametrize("module", MODULES)
def test_every_public_method_is_used_benchmarked_or_allowed(module):
    unused = {method for method in _public_methods(module)
              if method.split(".")[1] not in ATTRIBUTES and (module, method.split(".")[1]) not in _per_layer()
              and f"{module}.{method}" not in ALLOWED}
    assert not unused, f"report or delete: {sorted(unused)}"


@pytest.mark.parametrize("module", MODULES)
def test_all_lists_exactly_the_public_names(module):
    mod = importlib.import_module("picband" if module == "__init__" else f"picband.{module}")
    listed = list(getattr(mod, "__all__", []))
    assert len(listed) == len(set(listed))
    assert set(listed) == set(_public(module))


def test_allow_list_holds_only_public_names_nothing_else_reaches():
    for entry in ALLOWED:
        module, name = entry.split(".", 1)
        if "." in name:  # a method
            assert name in _public_methods(module), entry
            used = name.split(".")[1] in ATTRIBUTES or (module, name.split(".")[1]) in _per_layer()
        else:
            assert name in _public(module), entry
            used = (module, name) in REFERENCES | _per_layer()
        assert not used, f"{entry} is used: drop it from the allow-list"


def test_references_follow_imports_and_rebound_module_names():
    """The scan sees a name imported from its module (curvature's
    ``from .exterior import degree_basis``) and one used through a re-bound
    module name (perfbench's ``E, eye = self.E, np.eye(n)``)."""
    assert ("exterior", "degree_basis") in REFERENCES
    assert ("exterior", "full_operator_matrix") in REFERENCES


def test_method_scan_sees_attribute_reads_but_not_a_method_naming_itself():
    """``summary_line`` is read in the command-line module, a class's
    ``jet`` through ``_NaturalCubic.jet``; a name read only inside a function
    of that name is not counted."""
    assert {"summary_line", "jet"} <= ATTRIBUTES
    assert "Report.summary_line" in _public_methods("reporting")
    recursive = "class A:\n    def walk(self):\n        return self.walk()\n"
    assert _attribute_names([ast.parse(recursive)]) == set()
    assert _attribute_names([ast.parse(recursive + "    def run(self):\n        return self.walk()\n")]) == {"walk"}
