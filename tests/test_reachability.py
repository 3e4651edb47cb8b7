"""Library code that no command reaches.

An ``ast`` scan of ``src/orbitoda``: the roots are ``cli.py``'s module-level
code (its command table) and ``main``, and a definition is reached when a
reached body refers to its name (as a name or as an attribute).  Module-level
functions, classes, constants and methods are definitions; a method is
reached only through its own name, and dunder methods (and the class body)
come with their class.  Names are matched without resolving imports, so a
shared name reaches every definition that bears it.

The unreached set is pinned: a new definition that only the tests call
fails here, and the list below can only shrink.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "orbitoda"

# definitions only the tests reach
TEST_ONLY = {
    "algebra.symmetric_e",
    "algebra.symmetric_h",
    "cohomology.Cohomology.p_class",
    "cohomology.Cohomology.pair_classes",
    "hqe.commutation_factor",
    "hqe.translation_symbol",
    "jfunction.j_small_z_expansion",
}


def _refs(nodes) -> set:
    """Every name and attribute name used under ``nodes``."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions():
    """{qualified name: (own name, refs of its body, qualified names that
    come with it)}, plus the roots' refs."""
    defs, roots = {}, {"main"}
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{mod}.{node.name}"
                defs[qual] = (node.name, _refs([node]), set())
            elif isinstance(node, ast.ClassDef):
                qual = f"{mod}.{node.name}"
                body, companions = [*node.decorator_list, *node.bases], set()
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        mq = f"{qual}.{item.name}"
                        defs[mq] = (item.name, _refs([item]), set())
                        if _is_dunder(item.name):
                            companions.add(mq)
                    else:
                        body.append(item)
                defs[qual] = (node.name, _refs(body), companions)
            elif mod == "cli" and not isinstance(node, (ast.Import,
                                                        ast.ImportFrom)):
                roots |= _refs([node])
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for t in targets:
                    if isinstance(t, ast.Name) and not _is_dunder(t.id):
                        defs[f"{mod}.{t.id}"] = (t.id, _refs([node.value]),
                                                 set())
    return defs, roots


def unreached() -> set:
    defs, roots = _definitions()
    by_name: dict = {}
    for qual, (name, _, _) in defs.items():
        if not _is_dunder(name):
            by_name.setdefault(name, []).append(qual)
    reached, todo = set(), [q for n in roots for q in by_name.get(n, [])]
    while todo:
        qual = todo.pop()
        if qual in reached:
            continue
        reached.add(qual)
        _, refs, companions = defs[qual]
        todo.extend(companions)
        todo.extend(q for n in refs for q in by_name.get(n, []))
    return set(defs) - reached


def test_only_the_listed_definitions_are_test_only():
    got = unreached()
    assert got - TEST_ONLY == set(), "reached by no command"
    assert TEST_ONLY - got == set(), "now reached or gone: drop from the list"

