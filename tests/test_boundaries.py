"""Module boundaries of src/weylchar, read from its source, and README's examples.

Each rule names a construct and where it is allowed; any other use fails the
rule's test, which lists it as file:line in scope. No test imports weylchar.
"""

from __future__ import annotations

import ast
import functools
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weylchar"


def _walk(tree):
    """Yield (scope, node) for every node: scope is the dotted name (Class.method)
    of the def or class that is or holds the node, None at module level."""
    stack = [(None, tree)]
    while stack:
        scope, node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if scope is None else scope + "." + node.name
        yield scope, node
        stack.extend((scope, child) for child in ast.iter_child_nodes(node))


def _when(test):
    return lambda node: (node,) if test(node) else ()


def _ref(node):
    """The name that a Name, an Attribute or an import alias refers to."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.name if isinstance(node, ast.alias) else None


def _slot_bytes(node):
    if isinstance(node, ast.Attribute):
        return node.attr in ("to_bytes", "from_bytes", "byteorder")
    if isinstance(node, ast.Import):
        return any(alias.name == "array" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        names = {alias.name for alias in node.names}
        return node.module == "array" or node.module == "sys" and "byteorder" in names
    # of the nodes with an op, only BinOp and AugAssign can shift
    return isinstance(getattr(node, "op", None), (ast.LShift, ast.RShift))


def _field_guards(node):
    """The items of a class body that define __setattr__ or __delattr__; each
    is reported in the class's scope, so an allowance names the class."""
    for item in node.body if isinstance(node, ast.ClassDef) else ():
        if isinstance(item, ast.FunctionDef):
            names = {item.name}
        elif isinstance(item, ast.Assign):
            names = {t.id for t in item.targets if isinstance(t, ast.Name)}
        else:
            continue
        if names & {"__setattr__", "__delattr__"}:
            yield item


def _opens_character(node):
    if isinstance(node, ast.Name):
        return node.id == "_set_dominant" and isinstance(node.ctx, ast.Load)
    return (
        isinstance(node, ast.Call)
        and ast.unparse(node.func) in ("_new_object", "object.__new__")
        and "GradedCharacter" in map(ast.unparse, node.args)
    )


def _character_storage(node):
    return _ref(node) == "_orbit_size" or (
        isinstance(node, ast.Attribute) and node.attr == "_dominant"
    )


# rule id: (why, node -> offending nodes, where allowed: "module" or "module:scope")
RULES = {
    "no-assert": (
        "invariants are explicit errors: python -O strips assert statements",
        _when(lambda node: isinstance(node, ast.Assert)),
        set(),
    ),
    "slot-bytes-in-qalg": (
        "qalg.py alone turns packed Z[q] slots into bytes, by any route",
        _when(_slot_bytes),
        {"qalg.py"},
    ),
    "one-frozen-base": (
        "every value type derives from weights._Value, which alone guards its fields",
        _field_guards,
        {"weights.py:_Value"},
    ),
    "one-door-for-characters": (
        "a GradedCharacter is allocated only by the symmetry test or _from_dominant",
        _when(_opens_character),
        {"charformulas.py:GradedCharacter.__init__", "charformulas.py:_from_dominant"},
    ),
    "character-storage-in-charformulas": (
        "a character's dominant terms are private to charformulas.py",
        _when(_character_storage),
        {"charformulas.py"},
    ),
    "orbits-listed-where-walked": (
        "_orbit_size counts an orbit; only the walks that need its keys list it",
        _when(lambda node: isinstance(node, ast.Call) and _ref(node.func) == "_orbit"),
        {
            "charformulas.py:GradedCharacter.terms",
            "charformulas.py:_symmetric_product",
            "charformulas.py:_orbit",
        },
    ),
}


@functools.cache
def _findings():
    """{rule id: [(file, line, scope)] of each use outside the rule's allowance}."""
    found = {rule: [] for rule in RULES}
    paths = sorted(PACKAGE.glob("*.py")) or pytest.fail("no source in %s" % PACKAGE)
    for path in paths:
        name = path.relative_to(ROOT).as_posix()
        for scope, node in _walk(ast.parse(path.read_text(encoding="utf-8"), name)):
            scope = scope or "module"
            where = (path.name, "%s:%s" % (path.name, scope))
            for rule, (_, flags, allowed) in RULES.items():
                if allowed.isdisjoint(where):
                    found[rule] += [(name, bad.lineno, scope) for bad in flags(node)]
    return found


@pytest.mark.parametrize("rule", RULES)
def test_boundary(rule):
    uses = ["%s:%d in %s" % use for use in sorted(_findings()[rule])]
    assert not uses, "%s: %s\n%s" % (rule, RULES[rule][0], "\n".join(uses))


def test_readme_python_blocks_run():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert blocks, "README.md has no python block"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for code in blocks:
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
