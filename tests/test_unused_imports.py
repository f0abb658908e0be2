"""No module imports a name it never uses.

An AST scan over ``src/``, ``tests/``, ``benchmarks/``, ``examples/``
and ``tools/``: every name an ``import`` binds must be read somewhere
in its module -- as a plain name, as the root of an attribute chain,
inside a string annotation (``"MutationReport | None"``) or by being
listed in the module's ``__all__`` (a re-export).  An import line
marked ``# noqa`` is exempt.  ``from __future__`` imports are
directives, not names.
"""

import ast
import pathlib

REPO = pathlib.Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "benchmarks", "examples", "tools")


def _sources():
    for tree in TREES:
        yield from sorted((REPO / tree).rglob("*.py"))


def _annotation_names(node) -> "set[str]":
    """Names read by an annotation, string annotations parsed."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= _annotation_names(parsed)
    return names


def _exported(tree) -> "set[str]":
    """The string entries of a module-level ``__all__``."""
    names = set()
    for node in tree.body:
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, ast.AnnAssign)
            else []
        )
        if any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in targets) and node.value is not None:
            names |= {
                elt.value for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant)
                and isinstance(elt.value, str)
            }
    return names


def unused_imports(path) -> "list[tuple[int, str]]":
    """``(line, name)`` for each name ``path`` imports and never uses."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    imported: "dict[str, int]" = {}
    used = _exported(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and \
                    node.module == "__future__":
                continue
            if "# noqa" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                imported.setdefault(bound, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    used |= _annotation_names(arg.annotation)
            if node.returns is not None:
                used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    found = [
        f"{path.relative_to(REPO)}:{line}: {name}"
        for path in _sources()
        for line, name in unused_imports(path)
    ]
    assert found == []
