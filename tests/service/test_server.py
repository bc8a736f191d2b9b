"""The service front-end over real sockets: coalescing, shedding, errors.

Every test stands up a live :class:`VerificationService` on a loopback
port via :class:`ServiceThread` (no asyncio test harness needed) and
speaks the wire protocol through :class:`ServiceClient` or a raw
socket.  Long-running jobs are simulated by monkeypatching a request
class's ``execute`` to block on a :class:`threading.Event` -- the
server, board, pool, and ledger are all real; only the verification
work is stubbed, so the concurrency behaviour under test is the
production code path.
"""

from __future__ import annotations

import gc
import inspect
import logging
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.fabric.queue import WorkQueue
from repro.service import protocol
from repro.service import server as server_module
from repro.service.client import ServiceClient
from repro.service.requests import (
    CampaignRequest,
    ExploreRequest,
    ServiceLimits,
    parse_request,
)
from repro.service.server import ServiceThread, build_service


def _wait_for(predicate, timeout=15.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.fixture
def make_service(tmp_path):
    """Factory for a live thread-hosted service; torn down per test."""
    hosts = []

    def build(limits=None, workers=2, dispatch="inline"):
        service = build_service(
            tmp_path / "store",
            tmp_path / "queue",
            workers=workers,
            limits=limits,
            dispatch=dispatch,
        )
        host = ServiceThread(service)
        host.__enter__()
        hosts.append(host)
        return service, host.port

    yield build
    for host in hosts:
        host.__exit__(None, None, None)


def _blocking_execute(gate, outcome):
    """An ``execute`` stub that parks the worker until ``gate`` is set."""

    def execute(self, cache, limits, heartbeat=None):
        gate.wait(timeout=30.0)
        return dict(outcome)

    return execute


EXPLORE_A = {"protocol": "norepeat", "channel": "dup", "input": "a,b"}
EXPLORE_B = {"protocol": "norepeat", "channel": "dup", "input": "a,b,c"}


def test_malformed_line_is_typed_bad_request_and_connection_survives(
    make_service,
):
    _, port = make_service()
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        reader = sock.makefile("rb")
        sock.sendall(b"this is not json\n")
        message = protocol.decode(reader.readline())
        assert message["type"] == "error"
        assert message["code"] == "bad_request"
        # The connection is still usable: framing errors are per-line.
        sock.sendall(
            protocol.encode(
                {"schema": protocol.SERVICE_SCHEMA, "kind": "ping"}
            )
        )
        assert protocol.decode(reader.readline())["type"] == "pong"


def test_queue_full_sheds_with_typed_busy(make_service, monkeypatch):
    """A cold request above the admission depth is shed, not queued."""
    gate = threading.Event()
    monkeypatch.setattr(
        ExploreRequest,
        "execute",
        _blocking_execute(gate, {"blocked": True}),
    )
    service, port = make_service(
        limits=ServiceLimits(max_queue_depth=1), workers=1
    )

    with ThreadPoolExecutor(max_workers=1) as pool:
        first = pool.submit(
            lambda: ServiceClient("127.0.0.1", port)
            .connect()
            .call("explore", EXPLORE_A)
        )
        assert _wait_for(lambda: service.board.depth() == 1)

        with ServiceClient("127.0.0.1", port) as client:
            message = client.call("explore", EXPLORE_B)
        assert message["type"] == "error"
        assert message["code"] == "busy"
        assert message["details"]["limit"] == 1
        assert message["details"]["depth"] == 1

        gate.set()
        result = first.result(timeout=30)
    assert result["type"] == "result"
    assert result["outcome"] == {"blocked": True}
    assert service.stats.shed == 1
    assert service.stats.computed == 1


def test_request_keyed_mid_flight_attaches_to_the_computation(
    make_service, monkeypatch
):
    """The coalescer regression: same key while in flight -> one compute.

    A campaign request arriving *before* an identical campaign finishes
    must attach to the in-flight job (the board and the warm probe use
    the same plan fingerprint), never observe "cold" and dispatch a
    second computation.
    """
    from repro.fabric.spec import demo_spec

    gate = threading.Event()
    monkeypatch.setattr(
        CampaignRequest,
        "execute",
        _blocking_execute(gate, {"cells": 2}),
    )
    service, port = make_service()
    params = {"spec": demo_spec(inputs=2, seeds=1, length=4).to_dict()}

    def one(request_id):
        with ServiceClient("127.0.0.1", port) as client:
            return client.call("campaign", params, request_id=request_id)

    with ThreadPoolExecutor(max_workers=2) as pool:
        first = pool.submit(one, "first")
        assert _wait_for(lambda: service.board.depth() == 1)
        second = pool.submit(one, "second")
        assert _wait_for(lambda: service.stats.coalesced == 1)
        # Still exactly one job in flight: the second attached.
        assert service.board.depth() == 1
        gate.set()
        results = [first.result(timeout=30), second.result(timeout=30)]

    assert all(message["type"] == "result" for message in results)
    assert results[0]["outcome"] == results[1]["outcome"] == {"cells": 2}
    assert {message["coalesced"] for message in results} == {False, True}
    assert results[0]["key"] == results[1]["key"]
    assert service.stats.computed == 1
    assert service.stats.coalesced == 1


def test_campaign_step_budget_exhaustion_is_typed_with_partial_metrics(
    make_service,
):
    """StepBudgetExceeded inside a run -> budget_exceeded + partials."""
    from repro.fabric.spec import demo_spec

    _, port = make_service()
    spec = dict(demo_spec(inputs=1, seeds=1, length=4).to_dict())
    spec["max_steps"] = 3  # no run finishes in three scheduler steps
    with ServiceClient("127.0.0.1", port) as client:
        message = client.call("campaign", {"spec": spec})
    assert message["type"] == "error"
    assert message["code"] == "budget_exceeded"
    partial = message["details"]["partial"]
    assert partial["exhausted_cells"]
    assert partial["cells"] == 1
    assert "summary" in partial


def test_admission_budget_error_is_immediate(make_service):
    service, port = make_service(limits=ServiceLimits(max_states=1_000))
    with ServiceClient("127.0.0.1", port) as client:
        message = client.call(
            "explore", {**EXPLORE_A, "max_states": 5_000}
        )
    assert message["type"] == "error"
    assert message["code"] == "budget_exceeded"
    assert message["details"]["cap"] == 1_000
    assert service.stats.computed == 0  # refused before dispatch


def test_disconnect_mid_stream_leaves_worker_and_cache_consistent(
    make_service,
):
    """A client vanishing mid-job abandons its wait, nothing else.

    The job keeps running, publishes to the store, and a later request
    for the same key answers warm -- no leaked board entry, no failed
    ledger ticket, no error counted.
    """
    service, port = make_service()
    params = {
        "protocol": "ss-arq", "channel": "lossy-fifo",
        "input": "a,b", "max_states": 150_000,
    }
    request = parse_request(
        {"kind": "stabilize", "params": params}, service.limits
    )
    key = request.job_key()

    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        reader = sock.makefile("rb")
        sock.sendall(
            protocol.encode(
                {
                    "schema": protocol.SERVICE_SCHEMA,
                    "kind": "stabilize",
                    "params": params,
                    "subscribe": True,
                }
            )
        )
        accepted = protocol.decode(reader.readline())
        assert accepted["type"] == "accepted"
        assert accepted["key"] == key
        # Hang up without waiting for the result.

    # The computation survives the disconnect and publishes its answer.
    assert _wait_for(
        lambda: service.cache.get("stabilize", key) is not None
    )
    assert _wait_for(lambda: service.board.depth() == 0)

    with ServiceClient("127.0.0.1", port) as client:
        message = client.check("stabilize", params)
    assert message["type"] == "result"
    assert message["warm"] is True
    assert message["key"] == key
    assert message["outcome"]["converges"] is True

    assert service.stats.errors == 0
    counts = service.queue.counts()
    assert counts["failed"] == 0
    assert counts["leased"] == 0
    assert counts["pending"] == 0


def test_warm_probe_answers_library_published_work(make_service):
    """Key discipline end to end: cached_explore warms the service."""
    from repro.analysis.cache import cached_explore

    service, port = make_service()
    request = parse_request(
        {"kind": "explore", "params": EXPLORE_A}, service.limits
    )
    cached_explore(
        request.system(),
        max_states=request.max_states,
        include_drops=request.include_drops,
        cache=service.cache,
    )
    with ServiceClient("127.0.0.1", port) as client:
        message = client.check("explore", EXPLORE_A)
    assert message["warm"] is True
    assert message["outcome"]["all_safe"] is True
    assert service.stats.computed == 0


def test_subscribed_request_streams_progress(make_service, monkeypatch):
    gate = threading.Event()
    monkeypatch.setattr(
        ExploreRequest, "execute", _blocking_execute(gate, {"ok": 1})
    )
    service, port = make_service()
    service.progress_interval = 0.05
    events = []

    def release_after_progress(message):
        events.append(message)
        if message["type"] == "progress":
            gate.set()

    with ServiceClient("127.0.0.1", port) as client:
        message = client.check(
            "explore", EXPLORE_A, subscribe=True,
            on_event=release_after_progress,
        )
    assert message["type"] == "result"
    progress = [m for m in events if m["type"] == "progress"]
    assert progress
    assert progress[0]["elapsed_seconds"] >= 0


def test_stats_and_shutdown_control_plane(make_service):
    service, port = make_service()
    with ServiceClient("127.0.0.1", port) as client:
        assert client.ping()
        client.check("explore", EXPLORE_A)
        stats = client.stats()
    assert stats["counters"]["requests"] == 1
    assert stats["counters"]["computed"] == 1
    assert stats["in_flight"] == 0
    assert stats["limits"]["max_queue_depth"] == service.limits.max_queue_depth
    with ServiceClient("127.0.0.1", port) as client:
        assert client.shutdown()
    # The listener closes after a graceful drain.
    assert _wait_for(
        lambda: not _port_open(port), timeout=30.0, interval=0.05
    )


def _port_open(port):
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=0.2):
            return True
    except OSError:
        return False


@pytest.fixture
def fleet(tmp_path):
    """A fabric worker fleet draining the service's queue into its store."""
    from repro.fabric.worker import run_worker

    stop = threading.Event()

    def drain():
        while not stop.is_set():
            run_worker(
                tmp_path / "queue",
                tmp_path / "store",
                idle_timeout=0.1,
                lease_timeout=10.0,
            )
            time.sleep(0.02)

    thread = threading.Thread(target=drain, daemon=True)
    thread.start()
    yield
    stop.set()
    thread.join(timeout=10)
    assert not thread.is_alive()


def settled_kind_counts(queue, kind, timeout=10.0):
    """The ledger's per-kind counts once a ``kind`` ticket is done.

    A worker publishes a cell's result before it marks the ticket done,
    so a client can hold its answer a moment before the ledger shows it.
    """
    deadline = time.monotonic() + timeout
    counts = queue.kind_counts()
    while not counts["done"].get(kind) and time.monotonic() < deadline:
        time.sleep(0.01)
        counts = queue.kind_counts()
    return counts


def test_enqueue_dispatch_serves_via_fabric_workers(make_service, fleet):
    """dispatch="enqueue": the service publishes sweep cells and an
    external fabric worker fleet computes them."""
    service, port = make_service(dispatch="enqueue")
    with ServiceClient("127.0.0.1", port) as client:
        message = client.call("explore", EXPLORE_A)
    assert message["type"] == "result"
    assert message["outcome"]["all_safe"] is True
    # The ledger shows the typed sweep cell, drained by the fleet.
    counts = settled_kind_counts(service.queue, "explore")
    assert counts.get("done", {}).get("explore", 0) == 1
    # A repeat of the same request is a cache hit, not a new cell.
    with ServiceClient("127.0.0.1", port) as client:
        message = client.call("explore", EXPLORE_A)
    assert message["type"] == "result"
    assert service.stats.warm == 1


def test_enqueue_dispatch_serves_stabilize_like_inline(
    make_service, fleet, tmp_path
):
    """A stabilize request dispatched as its one sweep cell answers
    exactly what the same request computed inline answers."""
    stabilize = {"protocol": "ss-arq", "channel": "lossy-fifo", "input": "a,b"}
    inline = build_service(
        tmp_path / "inline-store", tmp_path / "inline-queue", workers=1
    )
    with ServiceThread(inline) as host:
        with ServiceClient("127.0.0.1", host.port) as client:
            reference = client.call("stabilize", stabilize)
    assert reference["type"] == "result"
    assert reference["outcome"]["converges"] is True

    service, port = make_service(dispatch="enqueue")
    with ServiceClient("127.0.0.1", port) as client:
        message = client.call("stabilize", stabilize)
    assert message == reference
    counts = settled_kind_counts(service.queue, "stabilize")
    assert counts["done"] == {"stabilize": 1}


def test_enqueue_dispatch_times_out_without_a_fleet(make_service):
    """No workers draining the queue: a typed, actionable error."""
    service, port = make_service(
        limits=ServiceLimits(run_timeout=0.5), dispatch="enqueue"
    )
    with ServiceClient("127.0.0.1", port) as client:
        message = client.call("explore", EXPLORE_A)
    assert message["type"] == "error"
    assert "fabric workers" in message["message"]


def _record_ledger_calls(monkeypatch):
    """Wrap every ``WorkQueue`` method to record ``(name, thread)``."""
    calls = []
    for name, attr in list(vars(WorkQueue).items()):
        if isinstance(attr, staticmethod):
            function, rewrap = attr.__func__, staticmethod
        elif inspect.isfunction(attr) and not name.startswith("__"):
            function, rewrap = attr, None
        else:
            continue

        def wrapper(*args, _function=function, _name=name, **kwargs):
            calls.append((_name, threading.current_thread()))
            return _function(*args, **kwargs)

        monkeypatch.setattr(
            WorkQueue, name, rewrap(wrapper) if rewrap else wrapper
        )
    return calls


def test_cold_inline_job_writes_one_ticket_file_off_the_event_loop(
    tmp_path, monkeypatch
):
    """The pool thread enqueues a ticket naming the job's kind and the
    pool, claims it without a rewrite and completes it by rename; the
    event loop makes no ledger call."""
    service = build_service(tmp_path / "store", tmp_path / "queue", workers=1)
    with ServiceThread(service) as host:
        calls = _record_ledger_calls(monkeypatch)
        with ServiceClient("127.0.0.1", host.port) as client:
            message = client.call("explore", EXPLORE_A)
        loop_thread = host._thread
        monkeypatch.undo()
    assert message["type"] == "result"
    assert [name for name, _ in calls].count("_write_json") == 1
    assert not [name for name, thread in calls if thread is loop_thread]
    assert service.queue.kind_counts() == {
        "pending": {}, "leased": {}, "done": {"explore": 1}, "failed": {},
    }
    (ticket,) = service.queue.tickets("done").values()
    assert ticket["worker"] == service.pool.worker_id


def test_shutdown_closes_an_idle_connection_without_a_traceback(
    tmp_path, monkeypatch, caplog
):
    """A client still connected at shutdown gets the grace period, then
    its connection is closed and its handler finishes -- nothing is
    left for the loop's teardown to cancel or destroy."""
    monkeypatch.setattr(server_module, "SHUTDOWN_GRACE_S", 0.2)
    service = build_service(tmp_path / "store", tmp_path / "queue", workers=1)
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        with ServiceThread(service) as host:
            idle = socket.create_connection(("127.0.0.1", host.port))
            idle.sendall(b'{"schema": "stp-service/1", "kind": "ping"}\n')
            idle.settimeout(10.0)
            assert b"pong" in idle.recv(4096)
        # The server hung up on the idle client after the grace period.
        assert idle.recv(4096) == b""
        idle.close()
        gc.collect()  # a handler task left pending logs as it is destroyed
    assert not caplog.records
    assert not service._connections
