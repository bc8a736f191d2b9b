"""Opt-in profiling hooks for the CLI paths (``--profile``).

Two modes, selected by ``--profile`` on ``stp-repro run`` /
``chaos`` / ``stabilize``:

* ``spans`` -- turn the observability switch on for the wrapped block,
  then print the span and metrics tables; ``--trace-out FILE`` addition-
  ally writes the full span stream as JSONL
  (:func:`repro.obs.exporters.write_spans_jsonl`);
* ``cprofile`` -- run the block under :mod:`cProfile` and print the top
  functions by cumulative time (spans stay in whatever state they were).

Both are context managers so the CLI wraps its existing command bodies
without restructuring them; ``mode=None`` is a true no-op.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Union

from repro import obs
from repro.obs.exporters import render_stats, write_spans_jsonl

#: Modes accepted by ``--profile``.
PROFILE_MODES = ("cprofile", "spans")

#: Functions printed by the cprofile mode.
TOP_FUNCTIONS = 25


@contextmanager
def profiled(
    mode: Optional[str],
    trace_out: Optional[Union[str, Path]] = None,
    label: str = "profile",
) -> Iterator[None]:
    """Wrap one CLI command body in the selected profiling mode.

    Args:
        mode: "cprofile", "spans", or None (no-op).
        trace_out: JSONL span-stream path; implies span collection even
            under ``mode=None`` or ``mode="cprofile"``.
        label: heading for the printed tables.
    """
    if mode is not None and mode not in PROFILE_MODES:
        raise ValueError(
            f"unknown profile mode {mode!r}; expected one of {PROFILE_MODES}"
        )
    collect_spans = mode == "spans" or trace_out is not None
    was_enabled = obs.enabled()
    if collect_spans:
        obs.enable()
    profiler = None
    if mode == "cprofile":
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        yield
    finally:
        if profiler is not None:
            profiler.disable()
            import io
            import pstats

            buffer = io.StringIO()
            stats = pstats.Stats(profiler, stream=buffer)
            stats.sort_stats("cumulative").print_stats(TOP_FUNCTIONS)
            print(f"\n-- cProfile [{label}]: top {TOP_FUNCTIONS} by cumulative --")
            print(buffer.getvalue().rstrip())
        if collect_spans:
            sections = obs.export_sections()
            if mode == "spans":
                print(f"\n-- spans [{label}] --")
                print(
                    render_stats(
                        sections["spans"],  # type: ignore[arg-type]
                        sections["metrics"],  # type: ignore[arg-type]
                    )
                )
            if trace_out is not None:
                path = write_spans_jsonl(trace_out, obs.tracer().spans())
                print(f"wrote span trace {path}")
            if not was_enabled:
                obs.disable()
