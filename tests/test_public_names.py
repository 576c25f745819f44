"""No public name is kept only for its own tests.

Every name in blochdyn.__all__ must be referenced, as an ast Name, an
Attribute or an imported name, by a package module other than __init__.py,
by the benchmark harness, or by the acceptance checks.
"""

import ast
from pathlib import Path

import blochdyn

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ([p for p in sorted((ROOT / "src" / "blochdyn").glob("*.py")) if p.name != "__init__.py"]
           + sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"])


def _references(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_has_a_caller_outside_its_own_tests():
    referenced = set().union(*map(_references, CALLERS))
    assert sorted(set(blochdyn.__all__) - referenced) == []
