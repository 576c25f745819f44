"""No public name, and no default, is kept only for its own tests.

The production callers are the package modules other than __init__.py, the
benchmark harness and the acceptance checks. Together they must
- reference every name in blochdyn.__all__, as an ast Name, an Attribute or
  an imported name;
- reference, the same way, every public module-level name that a package
  module defines;
- set every defaulted parameter, and every defaulted dataclass field, of
  the package in some call by the function's or the class's name: by
  keyword, by position, or through * or **. A default that no caller sets is
  a constant.
Every private module-level name of a package module, dunders aside, must be
referenced the same way from the package itself, so that no helper survives
only for its tests.
"""

import ast
from pathlib import Path

import blochdyn

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "blochdyn").glob("*.py"))
CALLERS = ([p for p in MODULES if p.name != "__init__.py"]
           + sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"])


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _references(path):
    names = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _module_names(path):
    for node in _tree(path).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def _decorators(node):
    names = set()
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        names.add(d.id if isinstance(d, ast.Name) else d.attr)
    return names


def _signature(fn, method):
    """(name, position or None for keyword-only) of each defaulted parameter of fn."""
    params = fn.args.posonlyargs + fn.args.args
    if method and "staticmethod" not in _decorators(fn):
        params = params[1:]  # self or cls is never passed by the caller
    first = len(params) - len(fn.args.defaults)
    yield from ((p.arg, i) for i, p in enumerate(params) if i >= first)
    yield from ((p.arg, None) for p, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                if d is not None)


def _defaults(path):
    """(qualified name, callee, position) of every default in a package module.

    The callee is the function's name, or the class's for __init__ and for
    the fields of a dataclass, which take their positions in field order.
    """
    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if "dataclass" in _decorators(child):
                    fields = [s for s in child.body if isinstance(s, ast.AnnAssign)]
                    yield from (("%s.%s" % (child.name, f.target.id), child.name, i)
                                for i, f in enumerate(fields) if f.value is not None)
                yield from visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = "%s.%s" % (cls.name, child.name) if cls else child.name
                callee = cls.name if cls and child.name == "__init__" else child.name
                for name, position in _signature(child, cls is not None):
                    yield "%s.%s" % (qual, name), callee, position
                yield from visit(child, None)
            else:
                yield from visit(child, cls)

    yield from visit(_tree(path), None)


def _calls(path):
    """(callee, positional count, keywords, star) for every call by name or attribute."""
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            callee = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            keywords = {k.arg for k in node.keywords}
            star = any(isinstance(a, ast.Starred) for a in node.args) or None in keywords
            yield callee, len(node.args), keywords, star


def test_every_public_name_has_a_caller_outside_its_own_tests():
    referenced = set().union(*map(_references, CALLERS))
    assert sorted(set(blochdyn.__all__) - referenced) == []


def test_every_public_module_level_name_has_a_production_reference():
    referenced = set().union(*map(_references, CALLERS))
    unused = ["%s.%s" % (p.stem, name) for p in MODULES for name in _module_names(p)
              if not name.startswith("_") and name not in referenced]
    assert unused == []


def test_every_private_module_level_name_is_referenced_in_the_package():
    referenced = set().union(*map(_references, MODULES))
    unused = ["%s.%s" % (p.stem, name) for p in MODULES for name in _module_names(p)
              if name.startswith("_") and not name.endswith("__") and name not in referenced]
    assert unused == []


def test_every_default_is_set_by_a_production_call():
    calls = [c for p in CALLERS for c in _calls(p)]
    unset = [qual for p in MODULES for qual, callee, position in _defaults(p)
             if not any(c == callee and (star or qual.rsplit(".", 1)[1] in keywords
                                         or position is not None and count > position)
                        for c, count, keywords, star in calls)]
    assert unset == []
