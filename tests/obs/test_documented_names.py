"""Every span and metric name the package emits is in docs/observability.md.

Emitted names are read from the source: the first argument of each
``obs.span`` / ``obs.add`` / ``obs.observe`` / ``obs.gauge_set`` call
under ``src/repro``, when it is a string literal or an f-string.  A name
is documented when it is a backticked token in the first column of a
table row.  A first-column token with a ``<placeholder>``, such as
``resilience.failures.<kind>``, is a wildcard: it covers every f-string
of that shape, and every literal whose placeholder value the same row
lists in backticks (``non_stabilizing`` in the ``<kind>`` row).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]
SOURCE = ROOT / "src" / "repro"
DOC = ROOT / "docs" / "observability.md"
EMITTERS = {"span", "add", "observe", "gauge_set"}


def _emitted() -> Dict[str, List[str]]:
    """Name -> call sites; f-strings render each placeholder as ``{}``."""
    names: Dict[str, List[str]] = {}
    for path in sorted(SOURCE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "obs"
                and node.func.attr in EMITTERS
                and node.args
            ):
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                name = first.value
            elif isinstance(first, ast.JoinedStr):
                name = "".join(
                    part.value if isinstance(part, ast.Constant) else "{}"
                    for part in first.values
                )
            else:
                continue
            site = f"{path.relative_to(ROOT)}:{node.lineno}"
            names.setdefault(name, []).append(site)
    return names


def _documented() -> Tuple[Set[str], List[Tuple[re.Pattern, Set[str]]]]:
    """First-column names, and each wildcard with the values its row lists."""
    exact: Set[str] = set()
    wildcards: List[Tuple[re.Pattern, Set[str]]] = []
    for line in DOC.read_text(encoding="utf-8").splitlines():
        if not line.startswith("| `"):
            continue
        cells = line.split("|")
        listed = set(re.findall(r"`([^`]+)`", "|".join(cells[2:])))
        for token in re.findall(r"`([^`]+)`", cells[1]):
            if "<" not in token:
                exact.add(token)
                continue
            pattern = "([^.]+)".join(
                re.escape(part) for part in re.split(r"<\w+>", token)
            )
            wildcards.append((re.compile(pattern), listed))
    return exact, wildcards


def _covered(name: str, exact, wildcards) -> bool:
    if name in exact:
        return True
    if "{}" in name:
        # An f-string placeholder stands for any one name segment.
        sample = name.replace("{}", "x")
        return any(pattern.fullmatch(sample) for pattern, _ in wildcards)
    for pattern, listed in wildcards:
        match = pattern.fullmatch(name)
        if match and set(match.groups()) <= listed:
            return True
    return False


def test_emitted_names_are_found():
    names = _emitted()
    # The scan must see the known emitters, or it proves nothing.
    assert {"explore", "stabilize", "explorer.states"} <= set(names)
    assert "resilience.failures.{}" in names


def test_every_emitted_name_is_documented():
    exact, wildcards = _documented()
    undocumented = [
        f"{name} ({sites[0]})"
        for name, sites in sorted(_emitted().items())
        if not _covered(name, exact, wildcards)
    ]
    assert not undocumented, (
        f"docs/observability.md has no row for {undocumented}"
    )
