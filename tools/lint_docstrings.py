#!/usr/bin/env python
"""Offline docstring and docs-consistency lint for the repro package.

Two passes, both pure :mod:`ast`/text — no imports, no third-party deps:

1. **Docstrings** — walks ``src/repro/`` and fails if any public module
   or public class is missing a docstring.  Public means the
   module/class name (and every package segment on its path) does not
   start with an underscore — the ``_reference`` modules, for example,
   are internal and exempt, though in practice they are documented too.
2. **Docs consistency** — the documentation may not drift from the
   code:

   * every ``repro`` CLI subcommand (read from the ``add_parser`` calls
     in ``src/repro/cli.py``) must be mentioned in README.md or a file
     under ``docs/``;
   * every knob-mapping domain (read from ``register_knob_mapping``
     call sites, resolving module-level string constants) must be
     mentioned there too;
   * every relative intra-repo link in the top-level ``*.md`` files and
     ``docs/*.md`` must resolve to an existing file;
   * every telemetry name passed as a literal to ``TELEMETRY.timer`` /
     ``TELEMETRY.count`` under ``src/repro/`` must appear, in backticks, in
     ``docs/PERFORMANCE.md``.  An f-string name's placeholders match any
     ``<placeholder>`` there: ``f"stage.defend.{name}"`` is documented by
     `` `stage.defend.<defense>` ``.

Run from the repository root (CI does)::

    python tools/lint_docstrings.py

Exit status 0 when clean; 1 with a ``path:line: message`` listing
otherwise.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def _is_public_module(path: Path) -> bool:
    rel = path.relative_to(SRC)
    parts = list(rel.parts[:-1]) + [rel.stem]
    return not any(p.startswith("_") and p != "__init__" for p in parts)


def check_file(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    problems: list[str] = []
    if ast.get_docstring(tree) is None:
        problems.append(f"{path}:1: public module is missing a docstring")
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if node.name.startswith("_"):
            continue
        if ast.get_docstring(node) is None:
            problems.append(
                f"{path}:{node.lineno}: public class {node.name!r} "
                "is missing a docstring"
            )
    return problems


# ----------------------------------------------------------------------
# Docs-consistency pass
# ----------------------------------------------------------------------

def cli_subcommands() -> list[tuple[str, int]]:
    """(name, line) of every ``sub.add_parser("<name>", ...)`` in cli.py."""
    tree = ast.parse((SRC / "cli.py").read_text(), filename="cli.py")
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_parser"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            found.append((node.args[0].value, node.lineno))
    return found


def knob_domains() -> list[tuple[str, Path, int]]:
    """(domain, file, line) for every ``register_knob_mapping`` call site.

    The ``domain`` argument may be a string literal, a module-level
    string constant (``NETPRIV_KNOB_DOMAIN = "netpriv"``), or absent —
    the registry's default domain is ``"energy"``.
    """
    sites: list[tuple[str, Path, int]] = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        if "register_knob_mapping" not in text:
            continue
        tree = ast.parse(text, filename=str(path))
        constants: dict[str, str] = {
            target.id: node.value.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and (
                    (isinstance(node.func, ast.Name)
                     and node.func.id == "register_knob_mapping")
                    or (isinstance(node.func, ast.Attribute)
                        and node.func.attr == "register_knob_mapping")
                )
            ):
                continue
            domain_node = None
            for kw in node.keywords:
                if kw.arg == "domain":
                    domain_node = kw.value
            if domain_node is None and len(node.args) >= 3:
                domain_node = node.args[2]
            if domain_node is None:
                domain = "energy"
            elif isinstance(domain_node, ast.Constant) and isinstance(
                domain_node.value, str
            ):
                domain = domain_node.value
            elif isinstance(domain_node, ast.Name) and domain_node.id in constants:
                domain = constants[domain_node.id]
            else:
                continue  # dynamic domain — nothing checkable offline
            sites.append((domain, path, node.lineno))
    return sites


PERFORMANCE_DOC = ROOT / "docs" / "PERFORMANCE.md"
_PLACEHOLDER = "<...>"


def telemetry_names() -> list[tuple[str, Path, int]]:
    """(name, file, line) of every literal ``TELEMETRY.timer``/``count`` name.

    An f-string name comes back with each placeholder as ``<...>``; calls
    whose name is not a literal at all are skipped (nothing to check).
    """
    sites: list[tuple[str, Path, int]] = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        if "TELEMETRY." not in text:
            continue
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("timer", "count")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "TELEMETRY"
                and node.args
            ):
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                name = arg.value
            elif isinstance(arg, ast.JoinedStr):
                name = "".join(
                    part.value if isinstance(part, ast.Constant) else _PLACEHOLDER
                    for part in arg.values
                )
            else:
                continue
            sites.append((name, path, node.lineno))
    return sites


def check_telemetry_documented() -> list[str]:
    documented = set(re.findall(r"`([^`\n]+)`", PERFORMANCE_DOC.read_text()))
    problems: list[str] = []
    seen: set[str] = set()
    for name, path, line in telemetry_names():
        if name in seen:
            continue
        seen.add(name)
        pattern = re.compile(
            "<[^<>]+>".join(re.escape(part) for part in name.split(_PLACEHOLDER))
        )
        if not any(pattern.fullmatch(token) for token in documented):
            problems.append(
                f"{path}:{line}: telemetry name {name!r} is not documented "
                f"in {PERFORMANCE_DOC.relative_to(ROOT)}"
            )
    return problems


def doc_files() -> list[Path]:
    return sorted(ROOT.glob("*.md")) + sorted((ROOT / "docs").glob("*.md"))


_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def check_docs_consistency() -> list[str]:
    problems: list[str] = []
    docs = doc_files()
    corpus = "\n".join(p.read_text() for p in docs)

    for name, line in cli_subcommands():
        if name not in corpus:
            problems.append(
                f"{SRC / 'cli.py'}:{line}: CLI subcommand {name!r} is not "
                "mentioned in README.md or docs/"
            )
    seen: set[str] = set()
    for domain, path, line in knob_domains():
        if domain in seen:
            continue
        seen.add(domain)
        if domain not in corpus:
            problems.append(
                f"{path}:{line}: knob domain {domain!r} is not mentioned "
                "in README.md or docs/"
            )

    for doc in docs:
        for i, text_line in enumerate(doc.read_text().splitlines(), start=1):
            for target in _LINK.findall(text_line):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                rel = target.split("#", 1)[0]
                if not rel:
                    continue
                if not (doc.parent / rel).exists():
                    problems.append(
                        f"{doc}:{i}: broken link {target!r} "
                        f"({doc.parent / rel} does not exist)"
                    )
    return problems


def main() -> int:
    if not SRC.is_dir():
        print(f"source tree not found: {SRC}", file=sys.stderr)
        return 2
    files = sorted(p for p in SRC.rglob("*.py") if _is_public_module(p))
    problems: list[str] = []
    for path in files:
        problems.extend(check_file(path))
    problems.extend(check_docs_consistency())
    problems.extend(check_telemetry_documented())
    if problems:
        print("\n".join(problems))
        print(f"\n{len(problems)} lint problem(s) in {len(files)} files")
        return 1
    n_docs = len(doc_files())
    print(
        f"docstring lint: {len(files)} public modules clean; "
        f"docs consistency: {len(cli_subcommands())} subcommands, "
        f"{len({d for d, _, _ in knob_domains()})} knob domains, "
        f"{len({n for n, _, _ in telemetry_names()})} telemetry names, "
        f"{n_docs} doc files clean"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
