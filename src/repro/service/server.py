"""Verification-as-a-service: the asyncio front-end.

:class:`VerificationService` listens on a TCP socket
(``asyncio.start_server``), speaks the newline-delimited JSON protocol
of :mod:`repro.service.protocol`, and turns verification requests into
work on the bounded :class:`~repro.service.pool.ServicePool`.  Per
request, in order, all synchronously on the event loop (so there is no
window for two identical requests to both go cold):

1. **coalesce** -- a job with the same content-addressed key already in
   flight?  Attach to its future; the answer is computed exactly once.
2. **warm probe** -- the result cache already holds the outcome under
   ``(cache_kind, key)``?  Answer immediately; budget semantics are
   applied to cached outcomes too (a truncated cached report is still a
   ``budget_exceeded``).
3. **admission gate** -- the board already holds ``max_queue_depth``
   cold jobs?  Shed with a typed ``busy`` error instead of queueing
   without bound or hanging the client.
4. **dispatch** -- create the job and hand it to the pool, whose worker
   thread tickets it in the ledger.

Subscribed requests receive periodic ``progress`` events (elapsed time
plus ``repro.obs`` counter deltas since the job started) while they
wait.  The progress ticker is per-connection: it awaits the shared
future with a timeout, so a client that disconnects mid-stream merely
abandons its own wait -- the job, its worker thread, and the cache are
untouched, and the result still lands for everyone else.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from pathlib import Path
from typing import Dict, Optional

from repro import obs
from repro.analysis.cache import ResultCache
from repro.fabric.queue import WorkQueue
from repro.service import protocol
from repro.service.jobs import Job, JobBoard, ServiceStats
from repro.service.pool import ServicePool
from repro.service.protocol import (
    CONTROL_KINDS,
    BadRequest,
    Busy,
    ServiceError,
    ShuttingDown,
)
from repro.service.requests import ServiceLimits, parse_request

#: Seconds :meth:`VerificationService.stop` gives connected clients to
#: hang up, once in-flight jobs have drained, before it closes their
#: connections.
SHUTDOWN_GRACE_S = 1.0


def _counter_delta(
    cut: Optional[Dict[str, Dict[str, object]]],
) -> Dict[str, object]:
    """Counter increments since ``cut``, for progress events."""
    if cut is None:
        return {}
    deltas: Dict[str, object] = {}
    for name, state in obs.registry().snapshot().items():
        if state.get("kind") != "counter":
            continue
        value = state.get("value", 0)
        baseline = cut.get(name, {}).get("value", 0)
        if isinstance(value, int) and isinstance(baseline, int):
            if value - baseline:
                deltas[name] = value - baseline
    return deltas


class VerificationService:
    """One listening service instance; start with :meth:`serve`."""

    def __init__(
        self,
        cache: ResultCache,
        queue: WorkQueue,
        limits: Optional[ServiceLimits] = None,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        progress_interval: float = 0.5,
        dispatch: str = "inline",
    ) -> None:
        self.cache = cache
        self.queue = queue
        self.limits = limits or ServiceLimits()
        self.host = host
        self.port = port
        self.progress_interval = max(0.05, float(progress_interval))
        self.board = JobBoard()
        self.stats = ServiceStats()
        self.pool = ServicePool(
            cache,
            queue,
            self.limits,
            self.board,
            self.stats,
            workers,
            dispatch=dispatch,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping: Optional[asyncio.Event] = None
        #: open connections: handler task -> its writer
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        self.bound_port: Optional[int] = None

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> int:
        """Bind the socket and start the pool; returns the bound port."""
        self._stopping = asyncio.Event()
        self.pool.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        sockets = self._server.sockets or ()
        self.bound_port = sockets[0].getsockname()[1] if sockets else None
        obs.add("service.started")
        return self.bound_port or 0

    async def serve(self, port_file: Optional[str] = None) -> None:
        """Run until a shutdown request (or cancellation) arrives."""
        port = await self.start()
        if port_file:
            Path(port_file).write_text(f"{port}\n")
        try:
            assert self._stopping is not None
            await self._stopping.wait()
        finally:
            await self.stop()
            if port_file:
                Path(port_file).unlink(missing_ok=True)

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain, then close connections.

        In-flight computations finish and publish, and their waiters
        get their answers.  Connected clients then have
        :data:`SHUTDOWN_GRACE_S` to hang up; the connections that remain
        are closed and their handlers awaited, so none is left for the
        loop's teardown to cancel.
        """
        self.request_shutdown()
        server, self._server = self._server, None
        if server is not None:
            server.close()
        # Drain: let in-flight computations finish so their results are
        # published before the process exits.
        await asyncio.get_running_loop().run_in_executor(
            None, self.pool.shutdown
        )
        if self._connections:
            _, lingering = await asyncio.wait(
                list(self._connections), timeout=SHUTDOWN_GRACE_S
            )
            for task in lingering:
                # abort, not close: close waits to flush what a client
                # that stopped reading may never take, and a lost
                # connection ends every await in the handler.
                self._connections[task].transport.abort()
            if lingering:
                await asyncio.wait(lingering)
        if server is not None:
            await server.wait_closed()

    def request_shutdown(self) -> None:
        if self._stopping is not None:
            self._stopping.set()

    # -- connection handling -------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.connections += 1
        obs.add("service.connections")
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    await self._handle_line(line, writer)
                except (ConnectionError, BrokenPipeError):
                    break  # client went away; job (if any) runs on
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()
            del self._connections[task]

    async def _handle_line(
        self, line: bytes, writer: asyncio.StreamWriter
    ) -> None:
        request_id: Optional[str] = None
        try:
            payload = protocol.decode(line)
            raw_id = payload.get("id")
            request_id = str(raw_id) if raw_id is not None else None
            kind = payload.get("kind")
            if kind in CONTROL_KINDS:
                await self._handle_control(
                    str(kind), request_id, writer
                )
                return
            await self._handle_verify(payload, request_id, writer)
        except ServiceError as error:
            self.stats.errors += 1
            if error.code == "bad_request":
                self.stats.bad_requests += 1
            elif error.code == "budget_exceeded":
                self.stats.budget_exceeded += 1
            obs.add(f"service.{error.code}")
            await self._send(
                writer, protocol.error_message(request_id, error)
            )

    async def _handle_control(
        self,
        kind: str,
        request_id: Optional[str],
        writer: asyncio.StreamWriter,
    ) -> None:
        if kind == "ping":
            payload = protocol._base(request_id, "pong")
            await self._send(writer, payload)
        elif kind == "stats":
            payload = protocol._base(request_id, "stats")
            payload["counters"] = self.stats.to_dict()
            payload["in_flight"] = self.board.depth()
            payload["queue"] = self.queue.counts()
            payload["cache"] = self.cache.stats()
            payload["limits"] = {
                "max_states": self.limits.max_states,
                "max_steps": self.limits.max_steps,
                "max_queue_depth": self.limits.max_queue_depth,
            }
            await self._send(writer, payload)
        elif kind == "shutdown":
            payload = protocol._base(request_id, "shutdown_ack")
            await self._send(writer, payload)
            self.request_shutdown()

    async def _handle_verify(
        self,
        payload: Dict[str, object],
        request_id: Optional[str],
        writer: asyncio.StreamWriter,
    ) -> None:
        if self._stopping is not None and self._stopping.is_set():
            raise ShuttingDown("server is draining")
        self.stats.requests += 1
        obs.add("service.requests")
        with obs.span("service.request"):
            request = parse_request(payload, self.limits)
            try:
                key = request.job_key()
            except ServiceError:
                raise
            except Exception as error:
                raise BadRequest(f"could not key request: {error}") from None
        subscribe = bool(payload.get("subscribe", False))

        # (1) coalesce onto an in-flight computation.  Board lookup,
        # warm probe, admission and dispatch all happen without an
        # await in between: two identical requests can never both
        # observe "cold" and dispatch twice.
        existing = self.board.get(key)
        if existing is not None:
            existing.waiters += 1
            self.stats.coalesced += 1
            obs.add("service.coalesced")
            await self._send(
                writer,
                protocol.accepted_message(request_id, key, request.kind),
            )
            await self._deliver(
                writer, request_id, request, existing,
                subscribe=subscribe, coalesced=True,
            )
            return

        # (2) warm probe against the completed-work cache -- the same
        # fingerprint cached_explore/cached_stabilize publish under, so
        # probe and coalescer can never disagree (see
        # repro.analysis.cache.explore_report_key).
        cached = self.cache.get(request.cache_kind, key)
        if cached is not None:
            self.stats.warm += 1
            obs.add("service.warm")
            outcome = (
                request.outcome(cached)
                if hasattr(request, "outcome")
                else cached
            )
            await self._send(
                writer,
                protocol.accepted_message(request_id, key, request.kind),
            )
            await self._send(
                writer,
                protocol.result_message(
                    request_id, key, request.kind, outcome,
                    warm=True, coalesced=False,
                ),
            )
            return

        # (3) admission gate: shed instead of queueing without bound.
        depth = self.board.depth()
        obs.gauge_set("service.queue_depth", depth)
        if depth >= self.limits.max_queue_depth:
            self.stats.shed += 1
            obs.add("service.shed")
            raise Busy(
                f"{depth} jobs in flight (limit {self.limits.max_queue_depth})",
                depth=depth,
                limit=self.limits.max_queue_depth,
            )

        # (4) dispatch cold work to the pool.
        loop = asyncio.get_running_loop()
        job = self.board.create(
            key,
            request.kind,
            request,
            loop,
            metrics_cut=obs.registry().snapshot() if obs.enabled() else None,
        )
        self.pool.submit(job, loop)
        await self._send(
            writer, protocol.accepted_message(request_id, key, request.kind)
        )
        await self._deliver(
            writer, request_id, request, job,
            subscribe=subscribe, coalesced=False,
        )

    async def _deliver(
        self,
        writer: asyncio.StreamWriter,
        request_id: Optional[str],
        request,
        job: Job,
        subscribe: bool,
        coalesced: bool,
    ) -> None:
        """Await the job's future; stream progress while subscribed.

        ``asyncio.shield`` keeps a timeout (or this connection's
        cancellation) from cancelling the future other waiters share.
        """
        while True:
            try:
                if subscribe:
                    outcome = await asyncio.wait_for(
                        asyncio.shield(job.future),
                        timeout=self.progress_interval,
                    )
                else:
                    outcome = await asyncio.shield(job.future)
            except asyncio.TimeoutError:
                await self._send(
                    writer,
                    protocol.progress_message(
                        request_id,
                        job.key,
                        job.elapsed,
                        _counter_delta(job.metrics_cut),
                    ),
                )
                continue
            except ServiceError as error:
                await self._send(
                    writer, protocol.error_message(request_id, error)
                )
                return
            await self._send(
                writer,
                protocol.result_message(
                    request_id, job.key, request.kind, outcome,
                    warm=False, coalesced=coalesced,
                ),
            )
            return

    @staticmethod
    async def _send(
        writer: asyncio.StreamWriter, payload: Dict[str, object]
    ) -> None:
        writer.write(protocol.encode(payload))
        await writer.drain()


# ---------------------------------------------------------------------------
# Thread-hosted service, for tests and in-process embedding.


class ServiceThread:
    """Run a :class:`VerificationService` on a daemon thread.

    The test suite (and any synchronous embedder) needs a live server
    without an asyncio test harness: ``with ServiceThread(...) as svc:``
    yields once the socket is bound, exposes ``svc.port``, and tears the
    loop down on exit.
    """

    def __init__(self, service: VerificationService) -> None:
        self.service = service
        self.port: Optional[int] = None
        self._thread = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def __enter__(self) -> "ServiceThread":
        import threading

        ready = threading.Event()

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop

            async def main() -> None:
                self.port = await self.service.start()
                ready.set()
                assert self.service._stopping is not None
                await self.service._stopping.wait()
                await self.service.stop()

            try:
                loop.run_until_complete(main())
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=run, name="stp-service", daemon=True
        )
        self._thread.start()
        if not ready.wait(timeout=30.0):
            raise RuntimeError("service failed to start within 30s")
        return self

    def __exit__(self, *exc_info) -> None:
        loop = self._loop
        if loop is not None:
            # The loop may already be closed if a client-initiated
            # shutdown ended the service first.
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(self.service.request_shutdown)
        if self._thread is not None:
            self._thread.join(timeout=60.0)
            if self._thread.is_alive():  # pragma: no cover - hang guard
                raise RuntimeError("service thread did not stop")


def build_service(
    cache_dir,
    queue_dir,
    workers: int = 2,
    host: str = "127.0.0.1",
    port: int = 0,
    limits: Optional[ServiceLimits] = None,
    progress_interval: float = 0.5,
    lease_timeout: float = 120.0,
    dispatch: str = "inline",
) -> VerificationService:
    """Wire a service from directory paths (the CLI's entry point)."""
    cache = ResultCache(cache_dir)
    queue = WorkQueue(queue_dir, lease_timeout=lease_timeout)
    return VerificationService(
        cache,
        queue,
        limits=limits,
        workers=workers,
        host=host,
        port=port,
        progress_interval=progress_interval,
        dispatch=dispatch,
    )


async def serve(
    cache_dir,
    queue_dir,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 2,
    limits: Optional[ServiceLimits] = None,
    port_file: Optional[str] = None,
    progress_interval: float = 0.5,
    install_signal_handlers: bool = True,
    dispatch: str = "inline",
) -> None:
    """The ``stp-repro serve`` coroutine: run until shutdown."""
    if not obs.enabled():
        obs.enable()  # progress events and stats need live counters
    service = build_service(
        cache_dir,
        queue_dir,
        workers=workers,
        host=host,
        port=port,
        limits=limits,
        progress_interval=progress_interval,
        dispatch=dispatch,
    )
    if install_signal_handlers:
        import signal

        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(
                    signum, service.request_shutdown
                )
    started = time.monotonic()
    await service.serve(port_file=port_file)
    obs.observe("service.uptime_seconds", time.monotonic() - started)
