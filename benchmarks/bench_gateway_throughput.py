"""Gateway throughput + chaos-soak harness for the network sidecar.

The deployment claim of DESIGN.md section 12: fronting the guard with the
asyncio gateway and a multi-process worker fleet keeps aggregate verdict
throughput scaling with offered client concurrency -- the GIL never
serialises analysis because each worker process owns its engine -- while
the admission/deadline machinery keeps every overload outcome fail-closed.

The harness drives seeded single-query workloads through one gateway
(4 worker processes, each pacing ``worker_pace_seconds`` per request to
model production analysis cost) from 1, 4 and 16 concurrent client
threads, reporting aggregate queries/second plus client-observed p50/p99
latency per tier.  A seeded chaos soak (torn frames, garbage, oversized
announcements, skewed deadlines -- plus socket stalls and worker SIGKILL
in the full run) then re-drives the workload under fault injection.  The
machine-readable sidecar lands in
``benchmarks/results/BENCH_gateway_throughput.json``.

Gates (enforced both as a pytest test and in script mode):

- **zero fail-open** everywhere: no attack is ever answered safe, in any
  throughput tier or anywhere in the chaos soak;
- every chaos request resolves exactly once (a verdict or a client-visible
  error -- never a silent drop);
- attack parity: every injected attack is blocked in every tier;
- throughput at 4 clients >= 2.0x the 1-client run -- enforced on
  multi-core hosts, report-only when ``os.cpu_count() == 1`` (the paced
  sleep still overlaps, but a loaded single core cannot guarantee it).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_gateway_throughput.py [--smoke]
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import threading
import time

from repro.bench.reporting import render_kv, save_json
from repro.service import (
    AsyncGateway,
    GatewayClient,
    GatewayConfig,
    GatewayThread,
)
from repro.testbed.concurrency import SWARM_FRAGMENTS, build_workload
from repro.testbed.netfaults import (
    NetFaultInjector,
    NetFaultKind,
    NetFaultSchedule,
    fail_open_outcomes,
    run_chaos_session,
)

SIDE_CAR = "BENCH_gateway_throughput"
CLIENT_COUNTS = (1, 4, 16)
WORKERS = 4
SCALING_GATE = 2.0


def percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def make_gateway(tmpdir: str, *, pace: float) -> AsyncGateway:
    config = GatewayConfig(
        unix_path=os.path.join(tmpdir, "gw.sock"),
        workers=WORKERS,
        worker_pace_seconds=pace,
        # Sized for the offered load: any shed in this harness is a bug,
        # not backpressure working as intended.
        max_queue=max(64, CLIENT_COUNTS[-1]),
        max_deadline=60.0,
        admission_timeout=60.0,
    )
    return AsyncGateway(SWARM_FRAGMENTS, gateway=config)


def drive_tier(
    gateway: AsyncGateway,
    clients: int,
    requests_per_client: int,
    seed: int,
) -> dict:
    """One throughput tier: ``clients`` threads, each its own connection."""
    schedules = build_workload(
        seed, clients, requests_per_client, fault_rate=0.0, attack_rate=0.2
    )
    latencies: list[list[float]] = [[] for _ in range(clients)]
    fails: list[list[str]] = [[] for _ in range(clients)]
    blocked = [0] * clients
    barrier = threading.Barrier(clients + 1)

    def run_client(t: int) -> None:
        client = GatewayClient(
            unix_path=gateway.gw.unix_path, client_id=f"bench-{t}"
        )
        try:
            barrier.wait()
            for item in schedules[t]:
                inputs = [
                    ("get", f"p{i}", v) for i, v in enumerate(item.values)
                ]
                t0 = time.perf_counter()
                verdicts = client.inspect([item.query], inputs=inputs)
                latencies[t].append(time.perf_counter() - t0)
                if not verdicts[0]["safe"]:
                    blocked[t] += 1
                elif item.is_attack:
                    fails[t].append(f"fail-open: {item.query!r}")
        except Exception as exc:  # noqa: BLE001 - surfaced in the payload
            fails[t].append(f"client {t} error: {exc!r}")
        finally:
            client.close()

    threads = [
        threading.Thread(target=run_client, args=(t,)) for t in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    t0 = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - t0

    flat = sorted(lat for per in latencies for lat in per)
    attacks = sum(
        item.is_attack for schedule in schedules for item in schedule
    )
    total = clients * requests_per_client
    return {
        "clients": clients,
        "requests": total,
        "elapsed_seconds": elapsed,
        "throughput_qps": total / max(elapsed, 1e-9),
        "latency_p50": percentile(flat, 0.50),
        "latency_p99": percentile(flat, 0.99),
        "expected_attacks": attacks,
        "blocked": sum(blocked),
        "errors": [f for per in fails for f in per],
    }


def run_soak(
    tmpdir: str, *, requests: int, pace: float, seed: int, smoke: bool
) -> dict:
    """Seeded chaos soak: faulted transport, zero fail-open required."""
    kinds = (
        NetFaultKind.TORN_FRAME,
        NetFaultKind.GARBAGE,
        NetFaultKind.OVERSIZED,
        NetFaultKind.SKEWED_DEADLINE,
    )
    if not smoke:  # wall-clock-expensive kinds only in the full run
        kinds = kinds + (NetFaultKind.STALL, NetFaultKind.WORKER_KILL)
    schedule = NetFaultSchedule.seeded(seed, requests, rate=0.35, kinds=kinds)
    workload = [
        item
        for sched in build_workload(
            seed + 1, 1, requests, fault_rate=0.0, attack_rate=0.3
        )
        for item in sched
    ]
    gateway = make_gateway(tmpdir, pace=pace)
    thread = GatewayThread(gateway).start()
    try:
        injector = NetFaultInjector(
            unix_path=gateway.gw.unix_path, gateway=gateway, seed=seed
        )
        client = GatewayClient(
            unix_path=gateway.gw.unix_path, client_id="soak"
        )
        try:
            outcomes = run_chaos_session(
                client, injector, workload, schedule, budget=5.0
            )
        finally:
            client.close()
        report = gateway.resilience_report()["gateway"]
    finally:
        drained = thread.stop()
    fail_open = fail_open_outcomes(outcomes)
    return {
        "requests": requests,
        "faults_injected": len(schedule.positions()),
        "fault_kinds": [k.value for k in kinds],
        "fail_open": len(fail_open),
        "unresolved": sum(
            1
            for o in outcomes
            if (o.verdict is None) == (o.error is None)
        ),
        "answered": sum(1 for o in outcomes if o.verdict is not None),
        "errored": sum(1 for o in outcomes if o.error is not None),
        "sheds_recorded": report["shed_queue_full"]
        + report["shed_no_worker"]
        + report["expired_in_queue"]
        + report["expired_on_arrival"],
        "worker_replacements": report["worker_replacements"],
        "drained": drained,
    }


def run_gateway_bench(
    *, requests_per_client: int, pace: float, seed: int, smoke: bool
) -> dict:
    single_core = (os.cpu_count() or 1) == 1
    tiers: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="joza-gw-bench-") as tmpdir:
        for clients in CLIENT_COUNTS:
            gateway = make_gateway(tmpdir, pace=pace)
            thread = GatewayThread(gateway).start()
            try:
                tiers[f"clients_{clients}"] = drive_tier(
                    gateway, clients, requests_per_client, seed
                )
            finally:
                thread.stop()
        soak = run_soak(
            tmpdir,
            requests=max(16, requests_per_client),
            pace=min(pace, 0.02),
            seed=seed,
            smoke=smoke,
        )
    scaling = tiers["clients_4"]["throughput_qps"] / max(
        tiers["clients_1"]["throughput_qps"], 1e-9
    )
    return {
        "config": {
            "mode": "smoke" if smoke else "full",
            "workers": WORKERS,
            "client_counts": list(CLIENT_COUNTS),
            "requests_per_client": requests_per_client,
            "worker_pace_seconds": pace,
            "seed": seed,
            "gate_min_scaling": SCALING_GATE,
            "cpu_count": os.cpu_count() or 1,
            "scaling_gate_enforced": not single_core,
        },
        "tiers": tiers,
        "scaling_4x": scaling,
        "soak": soak,
    }


def check_gates(payload: dict) -> list[str]:
    failures = []
    for label, tier in payload["tiers"].items():
        if tier["errors"]:
            failures.append(f"{label}: {tier['errors'][:3]}")
        if tier["blocked"] < tier["expected_attacks"]:
            failures.append(
                f"{label}: blocked {tier['blocked']} < "
                f"{tier['expected_attacks']} injected attacks"
            )
    if payload["config"]["scaling_gate_enforced"]:
        if payload["scaling_4x"] < payload["config"]["gate_min_scaling"]:
            failures.append(
                f"4-client scaling {payload['scaling_4x']:.2f}x below gate "
                f"{payload['config']['gate_min_scaling']}x"
            )
    soak = payload["soak"]
    if soak["fail_open"] != 0:
        failures.append(f"chaos soak: {soak['fail_open']} fail-open outcomes")
    if soak["unresolved"] != 0:
        failures.append(
            f"chaos soak: {soak['unresolved']} requests without exactly one "
            "resolution"
        )
    if not soak["drained"]:
        failures.append("chaos soak: gateway did not drain cleanly")
    return failures


def render(payload: dict) -> str:
    pairs = [
        ("mode", payload["config"]["mode"]),
        (
            "workers / pace",
            f"{payload['config']['workers']} / "
            f"{payload['config']['worker_pace_seconds']*1e3:.1f} ms",
        ),
    ]
    for clients in CLIENT_COUNTS:
        tier = payload["tiers"][f"clients_{clients}"]
        pairs.append(
            (
                f"{clients} client{'s' if clients > 1 else ''}",
                f"{tier['throughput_qps']:.1f} q/s  "
                f"p50 {tier['latency_p50']*1e3:.0f} ms  "
                f"p99 {tier['latency_p99']*1e3:.0f} ms",
            )
        )
    gate = (
        f"(gate {payload['config']['gate_min_scaling']}x)"
        if payload["config"]["scaling_gate_enforced"]
        else "(report-only: 1 CPU)"
    )
    pairs.append(("4-client scaling", f"{payload['scaling_4x']:.2f}x {gate}"))
    soak = payload["soak"]
    pairs.append(
        (
            "chaos soak",
            f"{soak['requests']} req / {soak['faults_injected']} faults / "
            f"{soak['fail_open']} fail-open / "
            f"{soak['sheds_recorded']} sheds recorded",
        )
    )
    return render_kv("Gateway sidecar: throughput vs concurrent clients", pairs)


# ---------------------------------------------------------------------------
# pytest entry point (smoke-sized; the bench job's fail-open + scaling gate)
# ---------------------------------------------------------------------------


def test_gateway_throughput_smoke(benchmark):
    payload = run_gateway_bench(
        requests_per_client=8, pace=0.03, seed=1337, smoke=True
    )
    try:
        from conftest import RESULTS_DIR, emit

        emit("gateway_throughput", render(payload))
        save_json(SIDE_CAR, payload, results_dir=RESULTS_DIR)
    except ImportError:  # pragma: no cover - running outside benchmarks/
        pass
    failures = check_gates(payload)
    assert not failures, failures

    # Timed representative operation: one gateway round-trip (wire codec +
    # unix socket + worker dispatch), no artificial pace.
    with tempfile.TemporaryDirectory(prefix="joza-gw-bench-") as tmpdir:
        gateway = make_gateway(tmpdir, pace=0.0)
        thread = GatewayThread(gateway).start()
        client = GatewayClient(
            unix_path=gateway.gw.unix_path, client_id="bench"
        )
        try:
            query = "SELECT * FROM records WHERE ID=7 LIMIT 5"
            inputs = [("get", "p0", "7")]
            client.inspect([query], inputs=inputs)  # warm the worker
            benchmark(lambda: client.inspect([query], inputs=inputs))
        finally:
            client.close()
            thread.stop()


# ---------------------------------------------------------------------------
# Script entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized workload (fewer requests, cheap fault kinds only)",
    )
    parser.add_argument("--requests-per-client", type=int, default=None)
    parser.add_argument(
        "--pace",
        type=float,
        default=0.03,
        help="worker service time per request, seconds",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=int(os.environ.get("CHAOS_SEED", "1337")),
    )
    args = parser.parse_args(argv)
    requests = args.requests_per_client or (8 if args.smoke else 25)

    payload = run_gateway_bench(
        requests_per_client=requests,
        pace=args.pace,
        seed=args.seed,
        smoke=args.smoke,
    )
    print(render(payload))
    path = save_json(SIDE_CAR, payload)
    print(f"[sidecar saved to {path}]")

    failures = check_gates(payload)
    for failure in failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    if not failures:
        soak = payload["soak"]
        print(
            f"gates passed: zero fail-open across "
            f"{sum(t['requests'] for t in payload['tiers'].values())} "
            f"throughput requests + {soak['requests']} chaos requests, "
            f"scaling {payload['scaling_4x']:.2f}x"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
