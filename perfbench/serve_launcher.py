"""Start the verification service with the benchmark's wrappers installed.

Used for traced and slow-rows passes of ``service-mixed``; plain passes
run ``python -m repro.cli serve`` itself.  The service is the public
``repro.service.server.serve`` with the same defaults as the CLI (two
pool threads, inline dispatch, default limits).  A traced server writes
its spans and obs counters when ``serve`` returns.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

import tracing


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--mode",
        choices=("traced", "slow-rows", "traced-slow-rows"),
        required=True,
    )
    parser.add_argument("--trace-dir", required=True)
    parser.add_argument("--port-file", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--queue", required=True)
    args = parser.parse_args()
    recorder = None
    if args.mode.endswith("slow-rows"):
        tracing.install_slow_rows()
    if args.mode.startswith("traced"):
        tracing.import_layers()
        recorder = tracing.install(args.trace_dir, "server")
    from repro import obs
    from repro.service.server import serve

    asyncio.run(serve(args.cache_dir, args.queue, port_file=args.port_file))
    if recorder is not None:
        recorder.flush(
            {
                "obs": {
                    name: state.get("value", 0)
                    for name, state in obs.registry().snapshot().items()
                    if state.get("kind") == "counter"
                }
            }
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
