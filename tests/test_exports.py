"""Every name the package exports has a caller outside the tests.

A name counts as used when it appears as a name or an attribute in a
module of the package other than `__init__.py` or in `perfbench/`, or in
an inline code span of the README.  KEPT holds the public definitions
that stay without such a caller: the paper's two shedding predicates and
`minimal_nonfaces`, the frozenset view of the nonface path."""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kdecomp"
KEPT = {"is_shedding_monomial", "is_shedding_face", "minimal_nonfaces"}


def exported() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    return [alias.asname or alias.name for node in imports for alias in node.names]


def used_names() -> set[str]:
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    used = set()
    for path in modules + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    for span in re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text()):
        used.update(re.findall(r"\w+", span))
    return used


def test_every_export_has_a_caller_outside_the_tests():
    used = used_names() | KEPT
    assert [name for name in exported() if name not in used] == []
