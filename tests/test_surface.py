"""Every public name of the library has a caller in the library.

A name in a module's ``__all__``, or a public top-level function or
class, must be referenced somewhere in ``src/`` outside its own
definition.  Imports and ``__all__`` entries are not references, so a
name that only the package re-exports, or only the tests call, fails
here unless ``ALLOWED`` names it with a reason.
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
    "transfer_report": "the transfer at the top telescope level, kept for the K-theory "
                       "comparison (ROADMAP item 4)",
    "free_action_table": "the free case, which waits for free minimal circle systems "
                         "(ROADMAP item 7)",
    "bar_homology": "the one-degree bar oracle, which the benchmark's drawn-module "
                    "operation calls per degree",
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


def test_every_public_name_has_a_library_caller():
    missing = [(m, name) for m, name in unreferenced_names() if name not in ALLOWED]
    assert not missing, f"public names without a caller in src/: {missing}"


def test_allow_list_is_current():
    # a name that gained a caller, or left the library, leaves the list
    assert sorted(ALLOWED) == sorted(name for _, name in unreferenced_names())
