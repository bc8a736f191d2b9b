"""docs/api.md stays in step with the package's public names.

Two checks over the generated reference (``python docs/generate_api.py``):

* every name in a public module's ``__all__`` has a ``###`` heading in
  that module's section;
* every ``##`` section names an importable module, and every ``###``
  heading under it names an attribute that module still has.
"""

from __future__ import annotations

import importlib
import importlib.util
import re
from pathlib import Path
from typing import Dict, Set

ROOT = Path(__file__).resolve().parents[1]
API_MD = ROOT / "docs" / "api.md"

MODULE_HEADING = re.compile(r"^## `([\w.]+)`")
NAME_HEADING = re.compile(r"^### (?:class )?`(\w+)")


def _generator():
    spec = importlib.util.spec_from_file_location(
        "generate_api", ROOT / "docs" / "generate_api.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _headings() -> Dict[str, Set[str]]:
    """Module name -> the names headed in its section of api.md."""
    sections: Dict[str, Set[str]] = {}
    current = None
    for line in API_MD.read_text(encoding="utf-8").splitlines():
        module = MODULE_HEADING.match(line)
        if module:
            current = sections.setdefault(module.group(1), set())
            continue
        name = NAME_HEADING.match(line)
        if name:
            assert current is not None, f"heading outside a module: {line}"
            current.add(name.group(1))
    return sections


def test_every_exported_name_has_a_heading():
    sections = _headings()
    missing = []
    for module_name in _generator().public_module_names():
        exported = getattr(importlib.import_module(module_name), "__all__", ())
        headed = sections.get(module_name, set())
        missing += [f"{module_name}.{name}" for name in exported if name not in headed]
    assert not missing, (
        f"docs/api.md lacks {missing}; run `python docs/generate_api.py`"
    )


def test_no_heading_names_something_gone():
    stale = []
    for module_name, names in _headings().items():
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            stale.append(module_name)
            continue
        stale += [
            f"{module_name}.{name}" for name in names if not hasattr(module, name)
        ]
    assert not stale, (
        f"docs/api.md documents {stale}, which no longer exist; "
        "run `python docs/generate_api.py`"
    )
