"""The traced benchmark's wrap targets still name live code.

``perfbench/tracing.py`` wraps library functions by dotted name, and a
traced pass exits non-zero when one no longer resolves.  This test
resolves every target the same way without installing any wrapper, so a
rename or deletion under ``src`` fails here, in the tier-1 suite.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    tracing = load_tracing()
    missing = []
    for module_name, attribute, *_ in tracing.TARGETS:
        try:
            _module, owner, leaf = tracing._resolve(module_name, attribute)
            target = getattr(owner, leaf)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{attribute}")
            continue
        assert callable(target), f"{module_name}.{attribute}"
    assert missing == []
    assert tracing.RECORDER is None  # nothing was installed
