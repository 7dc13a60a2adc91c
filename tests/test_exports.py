"""Every name the package exports has a caller outside the tests, and so
does every public method and property of an exported class.

A name counts as used when it appears as a name or an attribute in a
module of the package other than `__init__.py` or in `perfbench/`, or in
an inline code span of the README.  KEPT holds the public definitions
that stay without such a caller: the paper's two shedding predicates and
`minimal_nonfaces`, the frozenset view of the nonface path.  A method or
property counts as used when it appears as an attribute in those modules,
or in the README's code: its inline spans and fenced blocks."""

from __future__ import annotations

import ast
import re
from functools import cached_property
from pathlib import Path
from types import FunctionType

import kdecomp

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kdecomp"
KEPT = {"is_shedding_monomial", "is_shedding_face", "minimal_nonfaces"}
README = (ROOT / "README.md").read_text()
INLINE_CODE = re.findall(r"`([^`\n]+)`", README)
FENCED_CODE = re.findall(r"^```.*?^```", README, re.S | re.M)
METHOD_KINDS = (FunctionType, property, cached_property, classmethod, staticmethod)


def exported() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    return [alias.asname or alias.name for node in imports for alias in node.names]


def library_nodes() -> list[ast.AST]:
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths = modules + sorted((ROOT / "perfbench").glob("*.py"))
    return [node for path in paths for node in ast.walk(ast.parse(path.read_text()))]


def used_names() -> set[str]:
    used = set()
    for node in library_nodes():
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    for span in INLINE_CODE:
        used.update(re.findall(r"\w+", span))
    return used


def public_methods() -> list[tuple[str, str]]:
    """(class, member) for each public method or property defined in the
    body of an exported class."""
    classes = [(name, getattr(kdecomp, name)) for name in exported()]
    return [
        (name, member)
        for name, cls in classes
        if isinstance(cls, type)
        for member, value in vars(cls).items()
        if not member.startswith("_") and isinstance(value, METHOD_KINDS)
    ]


def test_every_export_has_a_caller_outside_the_tests():
    used = used_names() | KEPT
    assert [name for name in exported() if name not in used] == []


def test_every_public_method_has_a_caller_outside_the_tests():
    used = {node.attr for node in library_nodes() if isinstance(node, ast.Attribute)}
    for code in INLINE_CODE + FENCED_CODE:
        used.update(re.findall(r"\w+", code))
    assert [f"{c}.{m}" for c, m in public_methods() if m not in used] == []
