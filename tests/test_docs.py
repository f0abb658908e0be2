"""Doc-sync tests: the documentation cannot silently rot.

Two invariants, enforced in CI by the docs job:

* every ``repro`` CLI subcommand and every long option flag exposed by
  :func:`repro.cli.build_parser` appears in the CLI reference prose of
  ``README.md`` / ``docs/*.md`` (add a flag -> document it), and every
  row of README's CLI reference table names only flags its subcommand
  has (delete a flag -> drop it from the table);
* every intra-repo markdown link in ``README.md`` / ``docs/*.md``
  resolves to an existing file (move a file -> fix the links).
"""

import argparse
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
