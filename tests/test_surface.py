"""Every public name of the library has a caller in the library.

A name in a module's ``__all__``, or a public top-level function or
class, must be referenced somewhere in ``src/`` outside its own
definition.  Imports and ``__all__`` entries are not references, so a
name that only the package re-exports, or only the tests call, fails
here unless ``ALLOWED`` names it with a reason.  The same holds for the
public methods and properties of public classes, with ``ALLOWED_METHODS``
as their list of exceptions.
"""

import ast
from pathlib import Path

import dihedral_dynamics

SRC = Path(dihedral_dynamics.__file__).parent

#: Public names kept without a library caller, each with its reason.
ALLOWED = {
    "smith_normal_form": "the full Smith form with both transforms, traced by the "
                         "benchmark's layer trace and checked against sympy",
    "cover_indices": "the exact cover lookup of one target, traced by the benchmark's "
                     "layer trace under systems and homology",
    "kernel_basis": "resolved by bench/layertrace.py; leaves with ROADMAP item 1",
    "SnfSolver": "resolved by bench/layertrace.py; leaves with ROADMAP item 1",
    "snf_diagonal": "dense entry resolved by bench/layertrace.py, whose `_snf_input` reads "
                    "dense rows; leaves with ROADMAP item 1",
    "bar_homology": "the one-degree bar oracle, which the benchmark's drawn-module "
                    "operation calls per degree",
}

#: Public methods and properties kept without a library caller, each with
#: its reason.
ALLOWED_METHODS = {
    "SnfSolver.solve": "the solver's query, on a class resolved by bench/layertrace.py; "
                       "the tests' reference oracles call it",
    "ClopenSet.arc": "the single-arc constructor of the acceptance tests",
    "ClopenSet.contains_value": "point membership, read by the acceptance tests",
    "OdometerSystem.fixed_fraction": "the fixed fraction of a level, read by the "
                                     "acceptance tests",
    "Castle.return_times": "the towers' return times, read by the acceptance tests",
    "ClopenSet.symmetric_difference": "a set operation that bench/layertrace.py wraps",
    "ClopenSet.complement": "a set operation that bench/layertrace.py wraps",
    "DoubledClopen.union": "the union of the tests' witness oracle",
}


def _public_names(tree):
    """{name: definition node or None} of a module's public surface."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names[node.name] = node
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            for elt in node.value.elts:
                names.setdefault(elt.value, None)
    return names


def _referenced_names(tree, skip):
    """Names read in the tree (as names or attributes), outside the
    nodes whose ids are in ``skip``."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def unreferenced_names():
    """Sorted (module, name) pairs of public names with no reference in
    the library outside their own definition."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    everywhere = {m: _referenced_names(tree, set()) for m, tree in trees.items()}
    missing = []
    for module, tree in trees.items():
        for name, node in _public_names(tree).items():
            elsewhere = any(name in refs for m, refs in everywhere.items() if m != module)
            here = name in _referenced_names(tree, {id(node)} if node else set())
            if not (elsewhere or here):
                missing.append((module, name))
    return sorted(missing)


def _public_methods(tree):
    """{"Class.method": definition node} of the public methods and
    properties of a module's public classes."""
    return {f"{cls.name}.{node.name}": node
            for cls in tree.body
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def unreferenced_methods():
    """Sorted "Class.method" names of public methods and properties with
    no reference by name in the library outside their own definition."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    missing = []
    for tree in trees:
        for qualified, node in _public_methods(tree).items():
            if not any(node.name in _referenced_names(t, {id(node)}) for t in trees):
                missing.append(qualified)
    return sorted(missing)


def test_every_public_name_has_a_library_caller():
    missing = [(m, name) for m, name in unreferenced_names() if name not in ALLOWED]
    assert not missing, f"public names without a caller in src/: {missing}"


def test_allow_list_is_current():
    # a name that gained a caller, or left the library, leaves the list
    assert sorted(ALLOWED) == sorted(name for _, name in unreferenced_names())


def test_every_public_method_has_a_library_caller():
    missing = [name for name in unreferenced_methods() if name not in ALLOWED_METHODS]
    assert not missing, f"public methods without a caller in src/: {missing}"


def test_method_allow_list_is_current():
    # a method that gained a caller, or left the library, leaves the list
    assert sorted(ALLOWED_METHODS) == unreferenced_methods()
