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
    "hqe.commutation_factor",
    "hqe.translation_symbol",
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



# -- the comparison lint ---------------------------------------------------

CHECK_MODULES = ("cohomology", "hqe", "jfunction", "mirror", "periods",
                 "toda")

# the `.fail(` sites of the check modules, per function: verdicts that are
# not an equality of two objects, which go through `CheckReport.compare`
FAIL_SITES = {
    # scaling a vanishing residue proves nothing
    "hqe.verify_bilinearity": 1,
    # a perturbation the inner report did not locate
    "hqe.verify_toda_hqe_negative_control": 1,
    # a window too shallow to check
    "periods.verify_w_derivative": 1,
}


def _calls(node, attr: str) -> list:
    return [sub for sub in ast.walk(node) if isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute) and sub.func.attr == attr]


def _negated_is_zero(test) -> bool:
    """Whether ``test`` holds a ``not (...).is_zero()``."""
    return any(isinstance(sub, ast.UnaryOp) and isinstance(sub.op, ast.Not)
               and _calls(sub.operand, "is_zero")
               for sub in ast.walk(test))


def _functions(tree):
    """(qualified name, node) of every module-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def comparison_sites():
    """(calls of `.eq_report(`, `if not (...).is_zero()` sent to `.fail(`,
    {function: its `.fail(` calls}) in the check modules."""
    eq_reports, zero_tests, fails = [], [], {}
    for mod in CHECK_MODULES:
        tree = ast.parse((SRC / f"{mod}.py").read_text())
        for name, fn in _functions(tree):
            where = f"{mod}.{name}"
            eq_reports += [where] * len(_calls(fn, "eq_report"))
            zero_tests += [where for sub in ast.walk(fn)
                           if isinstance(sub, ast.If)
                           and _negated_is_zero(sub.test)
                           and any(_calls(stmt, "fail") for stmt in sub.body)]
            if n := len(_calls(fn, "fail")):
                fails[where] = n
    return eq_reports, zero_tests, fails


def test_checks_compare_through_the_report():
    eq_reports, zero_tests, fails = comparison_sites()
    assert eq_reports == [], "compare with rep.compare, not eq_report"
    assert zero_tests == [], "compare with rep.compare, not is_zero + fail"
    assert fails == FAIL_SITES
    assert sum(fails.values()) == 3
