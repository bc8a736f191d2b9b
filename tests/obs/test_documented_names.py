"""docs/observability.md documents exactly the span and metric names emitted.

Emitted names are read from the source: the first argument of each
``obs.span`` / ``obs.add`` / ``obs.observe`` / ``obs.gauge_set`` call
under ``src/repro``, when it is a string literal or an f-string.  A name
is documented when it is a backticked token in the first column of a
table row.  A first-column token with a ``<placeholder>``, such as
``resilience.failures.<kind>``, is a wildcard: it covers every f-string
of that shape, and every literal whose placeholder value the same row
lists in backticks (``non_stabilizing`` in the ``<kind>`` row).

The check runs both ways: every emitted name has a row, and every
name-shaped first-column token is emitted somewhere, so a deleted
counter cannot keep its row.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]
SOURCE = ROOT / "src" / "repro"
DOC = ROOT / "docs" / "observability.md"
EMITTERS = {"span", "add", "observe", "gauge_set"}

#: A first-column token that is a name: lower-case dotted segments, some
#: of them ``<placeholder>``s.  The other tokens are code snippets
#: (``STP_REPRO_OBS=1``, ``disable()``, ...).
NAME = re.compile(r"[a-z_]+(?:\.(?:[a-z_]+|<\w+>))*")


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


def _rows() -> Iterator[Tuple[List[str], Set[str]]]:
    """Each table row's first-column tokens, and the tokens it lists."""
    for line in DOC.read_text(encoding="utf-8").splitlines():
        if not line.startswith("| `"):
            continue
        cells = line.split("|")
        yield (
            re.findall(r"`([^`]+)`", cells[1]),
            set(re.findall(r"`([^`]+)`", "|".join(cells[2:]))),
        )


def _pattern(name: str, hole: str) -> re.Pattern:
    """``name`` as a regex in which each ``hole`` is one name segment."""
    return re.compile(
        "([^.]+)".join(re.escape(part) for part in re.split(hole, name))
    )


def _documented() -> Tuple[Set[str], List[Tuple[re.Pattern, Set[str]]]]:
    """First-column names, and each wildcard with the values its row lists."""
    exact: Set[str] = set()
    wildcards: List[Tuple[re.Pattern, Set[str]]] = []
    for tokens, listed in _rows():
        for token in tokens:
            if "<" not in token:
                exact.add(token)
            else:
                wildcards.append((_pattern(token, r"<\w+>"), listed))
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


def _is_emitted(token: str, names) -> bool:
    """True when some emission under ``src/repro`` can produce ``token``."""
    token_pattern = _pattern(token, r"<\w+>")
    return any(
        token_pattern.fullmatch(name.replace("{}", "x"))
        or _pattern(name, r"\{\}").fullmatch(token)
        for name in names
    )


def test_every_documented_name_is_emitted():
    names = _emitted()
    tokens = [
        token
        for first, _ in _rows()
        for token in first
        if NAME.fullmatch(token)
    ]
    # The filter must keep the names, or this proves nothing.
    assert {"explore", "cache.puts", "service.<code>"} <= set(tokens)
    unemitted = [token for token in tokens if not _is_emitted(token, names)]
    assert not unemitted, (
        f"docs/observability.md documents {unemitted}, "
        "which nothing under src/repro emits"
    )
