"""Doc-sync tests: the documentation cannot silently rot.

Three invariants, enforced in CI by the docs job:

* every ``repro`` CLI subcommand and every long option flag exposed by
  :func:`repro.cli.build_parser` appears in the CLI reference prose of
  ``README.md`` / ``docs/*.md`` (add a flag -> document it), and every
  row of README's CLI reference table names only flags its subcommand
  has (delete a flag -> drop it from the table);
* every intra-repo markdown link in ``README.md`` / ``docs/*.md``
  resolves to an existing file (move a file -> fix the links);
* every fenced ``python`` block in them calls the real API: it parses,
  each name it imports from ``repro`` exists, and each keyword it
  passes to an imported ``repro`` callable is in that callable's
  signature (rename or delete a parameter -> fix the snippet).  The
  blocks are read with :mod:`ast`, never executed.
"""

import argparse
import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

REPO = Path(__file__).resolve().parent.parent


def _doc_files():
    files = [REPO / "README.md"]
    files += sorted((REPO / "docs").glob("*.md"))
    return [f for f in files if f.exists()]


def _doc_text():
    return "\n".join(f.read_text() for f in _doc_files())


def _subparsers(parser):
    """``{subcommand name: sub-parser}`` of the one subparsers group."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    raise AssertionError("repro parser has no subcommands")


class TestDocsExist:
    def test_readme_and_docs_present(self):
        assert (REPO / "README.md").exists(), "README.md is missing"
        for name in ("architecture.md", "benchmarks.md"):
            assert (REPO / "docs" / name).exists(), f"docs/{name} missing"

    def test_readme_names_the_tier1_test_command(self):
        text = (REPO / "README.md").read_text()
        assert "python -m pytest" in text


class TestCliReferenceSync:
    def test_every_subcommand_is_documented(self):
        text = _doc_text()
        for name in _subparsers(build_parser()):
            assert re.search(rf"\brepro {name}\b", text), (
                f"CLI subcommand {name!r} is not documented in "
                "README.md/docs/*.md"
            )

    def test_every_flag_is_documented(self):
        text = _doc_text()
        for name, sub in _subparsers(build_parser()).items():
            for action in sub._actions:
                for opt in action.option_strings:
                    if not opt.startswith("--"):
                        continue  # -h and short aliases
                    if opt == "--help":
                        continue
                    assert f"`{opt}" in text or f"{opt} " in text or \
                        f"{opt}`" in text, (
                        f"flag {opt!r} of `repro {name}` is not "
                        "documented in README.md/docs/*.md"
                    )

    def test_readme_table_names_only_real_flags(self):
        subs = _subparsers(build_parser())
        text = (REPO / "README.md").read_text()
        rows = re.findall(r"^\| `repro (\w+)[^`]*` \|(.*)\|$", text, re.M)
        assert {name for name, _ in rows} == set(subs), (
            "README's CLI reference table must have one row per "
            "subcommand"
        )
        for name, cell in rows:
            flags = {opt for action in subs[name]._actions
                     for opt in action.option_strings}
            for flag in re.findall(r"--[a-z][a-z0-9-]*", cell):
                assert flag in flags, (
                    f"README's CLI table names {flag!r} for `repro "
                    f"{name}`, which has no such flag"
                )


_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


class TestIntraRepoLinks:
    @pytest.mark.parametrize(
        "doc", _doc_files(), ids=lambda p: p.name
    )
    def test_relative_links_resolve(self, doc):
        broken = []
        for target in _LINK.findall(doc.read_text()):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path = target.split("#", 1)[0]
            if not path:  # pure in-page anchor
                continue
            if not (doc.parent / path).exists():
                broken.append(target)
        assert not broken, (
            f"{doc.relative_to(REPO)} has broken intra-repo links: "
            f"{broken}"
        )


_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)


def _python_blocks():
    """``(id, source)`` of every fenced python block in the docs."""
    return [
        (f"{doc.name}:{text.count(chr(10), 0, match.start()) + 1}",
         match.group(1))
        for doc in _doc_files()
        for text in [doc.read_text()]
        for match in _PYTHON_BLOCK.finditer(text)
    ]


def _repro_imports(tree) -> "dict[str, tuple[str, str]]":
    """``{bound name: (module, attribute)}`` for each ``from repro...
    import`` in ``tree``."""
    return {
        alias.asname or alias.name: (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
        and node.module.split(".")[0] == "repro"
        for alias in node.names
    }


_BLOCKS = _python_blocks()


@pytest.mark.parametrize("block_id,source", _BLOCKS,
                         ids=[block_id for block_id, _ in _BLOCKS])
class TestPythonSnippets:
    def test_block_parses(self, block_id, source):
        ast.parse(source, filename=block_id)

    def test_imported_names_exist(self, block_id, source):
        missing = [
            f"{module}.{name}"
            for module, name in _repro_imports(ast.parse(source)).values()
            if not hasattr(importlib.import_module(module), name)
        ]
        assert not missing, f"{block_id} imports missing names {missing}"

    def test_keywords_are_in_the_signature(self, block_id, source):
        tree = ast.parse(source)
        imports = _repro_imports(tree)
        unknown = []
        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id in imports):
                continue
            module, name = imports[call.func.id]
            params = inspect.signature(
                getattr(importlib.import_module(module), name)
            ).parameters
            if any(p.kind is p.VAR_KEYWORD for p in params.values()):
                continue
            unknown += [
                f"{name}({kw.arg}=)" for kw in call.keywords
                if kw.arg is not None and kw.arg not in params
            ]
        assert not unknown, f"{block_id} passes unknown keywords {unknown}"
