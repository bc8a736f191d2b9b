"""One pass of a perfbench workload, in a fresh interpreter.

``run.py`` starts every pass as its own process, so each one is cold: a
fresh interpreter, a fresh isolated result store and queue directory
under ``--work``, and freshly built systems.  No process-global memo
can carry over from one pass to the next.  A pass prints one JSON line:
its timings, the operations it attempted and the ones that failed
(wrong answer, error or busy reply, failed ticket), and the checks on
its phase labels.  The cold phase is also split into consecutive
*steps* (one per call, sweep or request pair) that tile it, so
``run.py`` can take each step's median over a run's passes.

Modes: ``plain`` (measured, no wrappers), ``setup`` (plain, but the pass
ends once its set-up is timed), ``traced`` (span and timer wrappers plus
``repro.obs``; reports per-layer metrics), and the test-only
``slow-rows`` / ``traced-slow-rows``, in which every
``CompiledSystem.row`` call takes twice as long.

    PYTHONPATH=src python3 perfbench/passes.py --workload verify-cold \\
        --seed 1 --work .perfbench-work/x --mode plain
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up is timed from before any import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import selectors  # noqa: E402
import socket  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import scenario  # noqa: E402
import tracing  # noqa: E402

perf = time.perf_counter

#: Warm replays per pass; ``warm_s`` is the median replay.
WARM_ROUNDS = {"verify-cold": 2, "fabric-sweep": 1, "service-mixed": 2}
FABRIC_WORKERS = 2
STABILIZE_SHARDS = 4
SERVER_TIMEOUT_S = 60.0


class SetupDone(Exception):
    """Raised once set-up is timed in ``setup`` mode: the pass ends there."""


class Pass:
    """What one pass measured and checked."""

    def __init__(self, args) -> None:
        self.args = args
        self.seed = args.seed
        self.work = Path(args.work)
        self.answers = scenario.load_answers()
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.labels: dict = {}
        self.result: dict = {"workload": args.workload, "mode": args.mode}
        self.details: dict = {}
        self.steps: list = []
        self.step_mark = 0.0

    def check(self, op: str, ok: bool, what="") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{op}: {what}".strip())

    def label(self, name: str, ok: bool) -> None:
        self.labels[name] = bool(ok)

    def detail(self, name: str, values) -> None:
        self.details.setdefault(name, []).extend(values)

    def begin_steps(self) -> float:
        """Start the cold phase's first step; returns the start time."""
        self.step_mark = perf()
        return self.step_mark

    def step(self, name: str) -> float:
        """End the current cold step (it starts where the last one ended)."""
        now = perf()
        self.steps.append([name, now - self.step_mark])
        self.step_mark = now
        return now

    def setup_done(self, seconds: float) -> None:
        self.result["setup_s"] = seconds
        if self.args.mode == "setup":
            raise SetupDone


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# -- verify-cold --------------------------------------------------------------


def verify_cold(run: Pass) -> None:
    from repro.analysis.cache import ResultCache, cached_explore, cached_stabilize
    from repro.channels import DeletingChannel, DuplicatingChannel
    from repro.fabric.sweep import build_stabilize_system
    from repro.kernel.system import System
    from repro.protocols import norepeat_protocol
    from repro.protocols.norepeat_del import bounded_del_protocol

    answers = run.answers
    explores = []
    sender, receiver = bounded_del_protocol("abc")
    for items in scenario.seeded_order(scenario.t4_inputs(), run.seed, "t4"):
        system = System(
            sender,
            receiver,
            DeletingChannel(max_copies=2),
            DeletingChannel(max_copies=2),
            items,
        )
        key = scenario.word(items)
        explores.append((f"t4:{key}", system, answers["explore"]["t4"][key]))
    sender, receiver = norepeat_protocol("abcde")
    for items in scenario.seeded_order(scenario.t2_inputs(), run.seed, "t2"):
        system = System(
            sender, receiver, DuplicatingChannel(), DuplicatingChannel(), items
        )
        key = scenario.word(items)
        explores.append((f"t2:{key}", system, answers["explore"]["t2"][key]))
    stabilizes = []
    for protocol, items in scenario.stabilize_members():
        key = scenario.stabilize_key(protocol, items)
        system = build_stabilize_system(
            protocol, "lossy-fifo", items, scenario.STABILIZE_DOMAIN
        )
        stabilizes.append((key, system, answers["stabilize"][key]))
    cache = ResultCache(run.work / "store")

    def explore(system):
        return scenario.explore_answer(
            cached_explore(
                system,
                max_states=500_000,
                include_drops=True,
                cache=cache,
                engine="batched",
            )
        )

    def stabilize(system):
        result = cached_stabilize(
            system,
            cache=cache,
            engine="batched",
            domain=scenario.STABILIZE_DOMAIN,
        )
        return scenario.stabilize_answer(result.summary())

    run.setup_done(perf() - T_START)

    start = run.begin_steps()
    with tracing.phase("bench.cold"):
        for op, system, expected in explores:
            tracing.set_op(op)
            got = explore(system)
            explored = run.step(op)
            run.check(op, got == expected, f"{got} != {expected}")
        for op, system, expected in stabilizes:
            tracing.set_op(op)
            got = stabilize(system)
            cold_end = run.step(op)
            run.check(op, got == expected, "stabilization verdict differs")
    run.label("cold_phase_no_cache_hits", cache.hits == 0)

    calls = [(op, system, expected, explore) for op, system, expected in explores]
    calls += [
        (op, system, expected, stabilize)
        for op, system, expected in stabilizes
    ]
    misses = cache.misses
    rounds = []
    with tracing.phase("bench.warm"):
        for index in range(WARM_ROUNDS[run.args.workload]):
            latencies = []
            began = perf()
            for op, system, expected, call in scenario.seeded_order(
                calls, run.seed, f"warm{index}"
            ):
                tracing.set_op(op)
                called = perf()
                got = call(system)
                latencies.append(perf() - called)
                run.check(op, got == expected, "warm answer differs")
            rounds.append(perf() - began)
            run.detail("warm_read_ms", [value * 1e3 for value in latencies])
    end = perf()
    run.label("warm_phase_no_cache_misses", cache.misses == misses)

    run.result.update(
        explore_cold_s=explored - start,
        cold_s=cold_end - start,
        warm_s=statistics.median(rounds),
        window=[start, end],
    )
    run.detail("stabilize_cold_s", [cold_end - explored])
    run.detail("warm_round_s", rounds)


# -- fabric-sweep -------------------------------------------------------------


def fabric_sweep(run: Pass) -> None:
    from repro.analysis.cache import ResultCache
    from repro.fabric.coordinator import run_sweep
    from repro.fabric.spec import FabricError, FabricSpec
    from repro.fabric.sweep import SweepSpec
    from repro.kernel.rng import DeterministicRNG

    answers = run.answers
    explore_spec = SweepSpec(
        kind="explore",
        protocols=("norepeat",),
        channels=("dup",),
        inputs=scenario.t2_inputs(),
    )
    stabilize_spec = SweepSpec(
        kind="stabilize",
        protocols=scenario.STABILIZE_PROTOCOLS,
        channels=("lossy-fifo",),
        inputs=scenario.STABILIZE_INPUTS,
        domain=scenario.STABILIZE_DOMAIN,
        shards=STABILIZE_SHARDS,
    )
    campaign = FabricSpec(
        protocol="norepeat",
        channel="dup",
        inputs=scenario.campaign_inputs(),
        seeds=scenario.CAMPAIGN_SEEDS,
        deliver_weight=scenario.CAMPAIGN_DELIVER_WEIGHT,
    ).build_campaign(workers=FABRIC_WORKERS)
    queues = run.work / "queues"
    queues.mkdir(parents=True)
    cache = ResultCache(run.work / "store")
    (run.work / "store").mkdir()
    expected_campaign = answers["campaign"]["grid"]

    def check_sweep(result, label: str) -> None:
        if result is None:
            return
        for _, _, items, result_key in result.plan.members():
            member = result.results[result_key]
            if result.plan.spec.kind == "explore":
                key = scenario.word(items)
                got = scenario.explore_answer(member)
                expected = answers["explore"]["t2_member_domain"][key]
            else:
                protocol = result.plan.member_cells(result_key)[0].protocol
                key = scenario.stabilize_key(protocol, items)
                got = scenario.stabilize_answer(member.summary())
                expected = answers["stabilize"][key]
            run.check(f"{label} sweep:{key}", got == expected, "merged answer differs")

    def sweep(spec, name):
        try:
            return run_sweep(spec, queues / name, cache, workers=FABRIC_WORKERS)
        except FabricError as error:  # failed tickets are failed operations
            run.check(f"sweep {name}", False, str(error))
            return None

    run.setup_done(perf() - T_START)

    start = run.begin_steps()
    with tracing.phase("bench.cold"):
        explored = sweep(explore_spec, "explore")
        explore_end = run.step("explore sweep")
        stabilized = sweep(stabilize_spec, "stabilize")
        stabilize_end = run.step("stabilize sweep")
        outcome = campaign.run(DeterministicRNG(run.seed, "perfbench"))
        cold_end = run.step("campaign")
    check_sweep(explored, "cold")
    check_sweep(stabilized, "cold")
    for metrics, (items, seed) in zip(outcome.metrics, campaign.grid_keys()):
        run.check(
            f"campaign:{scenario.word(items)}/{seed}",
            metrics.safe and metrics.completed,
            "run unsafe or incomplete",
        )
    got = scenario.campaign_answer(
        outcome.summary.safe, outcome.summary.completed, outcome.summary.runs
    )
    run.check("campaign", got == expected_campaign, f"{got}")
    run.label(
        "cold_phase_no_warm_cells",
        all(
            result is not None
            and result.warm_cells == 0
            and result.cold_cells == len(result.plan.cells)
            for result in (explored, stabilized)
        ),
    )

    rounds = []
    claimed = 0
    cold_cells = 0
    with tracing.phase("bench.warm"):
        for index in range(WARM_ROUNDS[run.args.workload]):
            began = perf()
            warm = [
                sweep(explore_spec, f"explore-warm{index}"),
                sweep(stabilize_spec, f"stabilize-warm{index}"),
            ]
            rounds.append(perf() - began)
            for result in warm:
                check_sweep(result, "warm")
                if result is not None:
                    cold_cells += result.cold_cells
                    claimed += sum(stats.claimed for stats in result.worker_stats)
    end = perf()
    run.label("warm_phase_claims_nothing", claimed == 0 and cold_cells == 0)

    run.result.update(
        explore_cold_s=explore_end - start,
        cold_s=cold_end - start,
        warm_s=statistics.median(rounds),
        window=[start, end],
    )
    run.detail("stabilize_cold_s", [stabilize_end - explore_end])
    run.detail("sweep_cold_s", [stabilize_end - start])
    run.detail("campaign_s", [cold_end - stabilize_end])
    run.detail("sweep_warm_s", rounds)


# -- service-mixed ------------------------------------------------------------

#: Reply types that end a request (``accepted`` / ``progress`` do not).
TERMINAL = ("result", "error", "pong", "stats", "shutdown_ack")


class Connection:
    """One client connection speaking stp-service/1 lines."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(
            ("127.0.0.1", port), timeout=SERVER_TIMEOUT_S
        )
        self.buffer = b""
        self.sent = 0.0
        self.accepted = None

    def send(self, request_id: str, kind: str, params) -> None:
        from repro.service import protocol

        payload = {"schema": protocol.SERVICE_SCHEMA, "kind": kind, "id": request_id}
        if params is not None:
            payload["params"] = params
        data = protocol.encode(payload)
        self.accepted = None
        self.sent = perf()
        self.sock.sendall(data)

    def receive(self) -> list:
        """Read what arrived; return the terminal replies it completed."""
        from repro.service import protocol

        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise RuntimeError("server closed the connection")
        self.buffer += chunk
        replies = []
        while b"\n" in self.buffer:
            line, self.buffer = self.buffer.split(b"\n", 1)
            message = protocol.decode(line)
            if message.get("type") == "accepted" and self.accepted is None:
                self.accepted = perf()
            elif message.get("type") in TERMINAL:
                replies.append(message)
        return replies


class LoadGenerator:
    """Closed loops over several connections, driven from one thread.

    Each connection sends its next request as soon as its previous reply
    is complete.  One thread waiting in ``select`` keeps the client out
    of the server's way: no client threads contend for the interpreter
    lock, so the latencies are the server's.
    """

    def __init__(self, port: int, count: int, run: Pass) -> None:
        self.run_ = run
        self.connections = [Connection(port) for _ in range(count)]
        self.selector = selectors.DefaultSelector()
        for index, connection in enumerate(self.connections):
            self.selector.register(connection.sock, selectors.EVENT_READ, index)

    def close(self) -> None:
        self.selector.close()
        for connection in self.connections:
            connection.sock.close()

    def drive(self, queues) -> list:
        """Run one request list per connection; replies in list order.

        Returns, per connection, ``(reply, latency_s)`` for each request.
        """
        results = [[] for _ in queues]
        positions = [0] * len(queues)
        busy = 0
        for index, jobs in enumerate(queues):
            if jobs:
                self.connections[index].send(*jobs[0])
                busy += 1
        while busy:
            with tracing.phase("client.select", layer="service", wait=True):
                ready = self.selector.select(SERVER_TIMEOUT_S)
            if not ready:
                raise RuntimeError("no reply within the server timeout")
            for key, _ in ready:
                index = key.data
                connection = self.connections[index]
                for reply in connection.receive():
                    done = perf()
                    results[index].append((reply, done - connection.sent))
                    if connection.accepted is not None:
                        self.run_.detail(
                            "accept_ms", [(connection.accepted - connection.sent) * 1e3]
                        )
                    positions[index] += 1
                    jobs = queues[index]
                    if positions[index] < len(jobs):
                        connection.send(*jobs[positions[index]])
                    else:
                        busy -= 1
        return results

    def control(self, kind: str) -> dict:
        return self.drive([[(kind, kind, None)]])[0][0][0]


def launch_server(run: Pass, port_file: Path):
    store = run.work / "store"
    ledger = run.work / "queue"
    if run.args.mode in ("plain", "setup"):
        command = [sys.executable, "-m", "repro.cli", "serve"]
    else:
        command = [
            sys.executable,
            str(Path(__file__).with_name("serve_launcher.py")),
            "--mode",
            run.args.mode,
            "--trace-dir",
            str(run.work / "trace"),
        ]
    command += [
        "--port-file",
        str(port_file),
        "--cache-dir",
        str(store),
        "--queue",
        str(ledger),
    ]
    return subprocess.Popen(
        command, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
    )


def wait_for_port(port_file: Path, server) -> int:
    deadline = perf() + SERVER_TIMEOUT_S
    while perf() < deadline:
        if server.poll() is not None:
            raise RuntimeError(f"server exited with {server.returncode}")
        try:
            text = port_file.read_text().strip()
        except OSError:
            text = ""
        if text:
            return int(text)
        time.sleep(0.001)
    raise RuntimeError("server did not report its port")


def stop_server(server, load) -> str:
    try:
        if load is None:
            raise RuntimeError("no connection to send shutdown on")
        load.control("shutdown")
        load.close()
        _, errors = server.communicate(timeout=SERVER_TIMEOUT_S)
    except Exception:  # noqa: BLE001 - never leave the server running
        server.kill()
        _, errors = server.communicate()
    return (errors or b"").decode(errors="replace")


def service_requests(run: Pass) -> list:
    from repro.fabric.spec import demo_spec

    answers = run.answers
    requests = []
    for items in scenario.t2_inputs():
        key = scenario.word(items)
        requests.append(
            (
                f"explore:{key}",
                "explore",
                {
                    "protocol": "norepeat",
                    "channel": "dup",
                    "input": list(items),
                    "engine": "batched",
                },
                answers["explore"]["t2_member_domain"][key],
            )
        )
    for protocol, items in scenario.stabilize_members():
        key = scenario.stabilize_key(protocol, items)
        requests.append(
            (
                f"stabilize:{key}",
                "stabilize",
                {
                    "protocol": protocol,
                    "channel": "lossy-fifo",
                    "input": list(items),
                    "domain": list(scenario.STABILIZE_DOMAIN),
                },
                answers["stabilize"][key],
            )
        )
    requests.append(
        (
            "campaign:demo",
            "campaign",
            {"spec": demo_spec().to_dict()},
            answers["campaign"]["demo_spec"],
        )
    )
    return scenario.seeded_order(requests, run.seed, "service")


def service_answer(kind: str, reply: dict):
    if reply.get("type") != "result":
        return None
    outcome = reply.get("outcome", {})
    if kind == "explore":
        return scenario.explore_outcome_answer(outcome)
    if kind == "stabilize":
        return scenario.stabilize_answer(outcome)
    summary = outcome.get("summary", {})
    return scenario.campaign_answer(
        summary.get("safe", -1), summary.get("completed", -1), summary.get("runs", -1)
    )


def service_mixed(run: Pass) -> None:
    requests = service_requests(run)
    port_file = run.work / "port"
    run.work.mkdir(parents=True, exist_ok=True)
    run.label(
        "cold_phase_starts_with_empty_store", not (run.work / "store").exists()
    )
    launched = perf()
    server = launch_server(run, port_file)
    load = None
    try:
        port = wait_for_port(port_file, server)
        load = LoadGenerator(port, 2, run)
        if load.control("ping").get("type") != "pong":
            raise RuntimeError("server did not answer ping")
        run.setup_done(perf() - launched)
        _serve_phases(run, requests, load)
    finally:
        errors = stop_server(server, load)
    run.label("server_stopped_cleanly", server.returncode == 0)
    if server.returncode != 0:
        run.failures.append(f"server: {errors.strip()[-300:]}")


def _serve_phases(run: Pass, requests: list, load: LoadGenerator) -> None:
    distinct = len(requests)

    def stats():
        return load.control("stats").get("counters", {})

    def verdict(op, kind, reply, expected, warm=None):
        got = service_answer(kind, reply)
        ok = got == expected and warm in (None, reply.get("warm") is True)
        run.check(op, ok, f"{reply.get('type')} {reply.get('code', '')}")

    cold_latency = []
    explore_cold = 0.0
    stabilize_cold = 0.0
    start = run.begin_steps()
    with tracing.phase("bench.cold"):
        for index, (op, kind, params, expected) in enumerate(requests):
            began = run.step_mark
            # Both connections send the same request back to back: the
            # twin attaches to the in-flight job unless that job already
            # finished, and either way its answer must be right.
            pair = load.drive(
                [[(f"c{index}a", kind, params)], [(f"c{index}b", kind, params)]]
            )
            cold_end = run.step(op)
            elapsed = cold_end - began
            if kind == "explore":
                explore_cold += elapsed
            elif kind == "stabilize":
                stabilize_cold += elapsed
            for replies in pair:
                reply, latency = replies[0]
                cold_latency.append(latency * 1e3)
                verdict(op, kind, reply, expected)
    cold = stats()
    # The store starts empty, so every distinct key is computed exactly
    # once; a twin that missed the in-flight job reads that result warm.
    run.label(
        "cold_phase_computes_each_key_once", cold.get("computed", -1) == distinct
    )
    run.detail("cold_twins_coalesced", [cold.get("coalesced", 0)])

    rounds = []
    warm_latency = []
    with tracing.phase("bench.warm"):
        for round_index in range(WARM_ROUNDS[run.args.workload]):
            order = scenario.seeded_order(requests, run.seed, f"warm{round_index}")
            jobs = [
                (f"w{round_index}.{index}", kind, params)
                for index, (_, kind, params, _) in enumerate(order)
            ]
            began = perf()
            replies = load.drive([jobs[0::2], jobs[1::2]])
            rounds.append(perf() - began)
            for index, (op, kind, _, expected) in enumerate(order):
                reply, latency = replies[index % 2][index // 2]
                warm_latency.append(latency * 1e3)
                verdict(op, kind, reply, expected, warm=True)
    end = perf()
    warm = stats()
    run.label(
        "warm_phase_no_cold_work",
        warm.get("computed", -1) == distinct
        and warm.get("warm", -1) - cold.get("warm", 0) == distinct * len(rounds),
    )
    run.result.update(
        explore_cold_s=explore_cold,
        cold_s=cold_end - start,
        warm_s=statistics.median(rounds),
        window=[start, end],
        service=warm,
    )
    run.detail("stabilize_cold_s", [stabilize_cold])
    run.detail("cold_ms", cold_latency)
    run.detail("warm_ms", warm_latency)
    run.detail("warm_req_per_s", [distinct / value for value in rounds])


MODES = ("plain", "setup", "traced", "slow-rows", "traced-slow-rows")
WORKLOADS = {
    "verify-cold": verify_cold,
    "fabric-sweep": fabric_sweep,
    "service-mixed": service_mixed,
}


def obs_counters() -> dict:
    from repro import obs

    return {
        name: state.get("value", 0)
        for name, state in obs.registry().snapshot().items()
        if state.get("kind") == "counter"
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--mode", choices=MODES, default="plain")
    args = parser.parse_args()
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    trace_dir = work / "trace"
    recorder = None
    if args.mode.endswith("slow-rows"):
        # Installed first, so a traced row timer includes the busy-wait.
        tracing.install_slow_rows()
    if args.mode.startswith("traced"):
        from repro import obs

        trace_dir.mkdir()
        tracing.import_layers()
        recorder = tracing.install(str(trace_dir), "pass")
        obs.enable()

    from repro.analysis.hostinfo import available_cpu_count

    run = Pass(args)
    run.result["cpus"] = available_cpu_count()
    try:
        WORKLOADS[args.workload](run)
    except SetupDone:
        pass
    run.result.update(
        peak_rss_mb=peak_rss_mb(),
        attempted=run.attempted,
        failed=run.failed,
        failures=run.failures,
        labels=run.labels,
        details=run.details,
        steps=run.steps,
    )
    if recorder is not None:
        import layers

        recorder.flush({"obs": obs_counters()})
        trace = layers.Trace(layers.load(str(trace_dir)))
        start, end = run.result["window"]
        # Forked workers ship their obs deltas to these two processes.
        counters = {}
        for record in trace.records:
            if record["role"] in ("pass", "server"):
                for name, value in record["extra"].get("obs", {}).items():
                    counters[name] = counters.get(name, 0) + value
        facts = {
            "obs": counters,
            "service": run.result.get("service", {}),
            "accept_ms": run.details.get("accept_ms", ()),
            "cpus": run.result["cpus"],
        }
        run.result["layers"] = layers.layer_metrics(trace, start, end, facts)
        figures = run.result["layers"]
        run.label(
            "unattributed_within_tolerance",
            figures["trace.unattributed_ratio"] <= layers.UNATTRIBUTED_TOLERANCE,
        )
        run.label(
            "attribution_agrees_with_span_self_times",
            figures["trace.attribution_error"] <= layers.ATTRIBUTION_TOLERANCE,
        )
    print(json.dumps(run.result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
