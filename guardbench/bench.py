"""The benchmark's phases, metrics and verdict check (see ``run.py``).

Importing this module imports ``repro``: ``run.py`` puts the checkout's
``src/`` on the path first, after checking it exists.
"""

from __future__ import annotations

import math
import os
import shutil
import signal
import statistics
import time

from loadgen import (GatewayProcess, PhaseResult, paced, peak, percentile,
                     serial)
from oracle import Oracle
from repro.pti.fragments import FragmentStore
from spans import (SpanRecorder, client_wraps, format_waterfall,
                   load_span_files, waterfall)
from workloads import build_trace, descriptors

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
RUN_ROOT = ".guardbench_run"

#: Open-loop rate of the paced phase, queries per second: about a third of
#: the workload's ``peak_qps`` on the shared 2-CPU box this benchmark was
#: set up on.  At half of it, the host's slow spells (peak down by a
#: third) pushed the open loop to saturation and its latency doubled.
PACED_RATE = {"wpcom-mix": 700.0, "sqli-attack": 300.0}
#: Bare set-ups before the measured gateway (5 set-up samples in all).
BARE_SETUPS = 4
#: Share of ``--seconds`` each end-to-end phase gets.
PHASE_SHARE = {"serial": 0.4, "paced": 0.3, "peak": 0.3}
#: The phases take turns in this many rounds, so each one samples the
#: whole run rather than one stretch of it, and each end-to-end metric is
#: the median of its per-round values: the host's speed drifts over
#: seconds, and a contiguous phase, or one slow spell, would otherwise
#: set the run's figure.  The report lines give whole-phase percentiles.
ROUNDS = 10

#: Gated end-to-end metrics.  Tail percentiles are printed per phase
#: (whole-phase p90/p99/max) but not gated: a host slow spell doubles or
#: quadruples them while the medians move by a third.
END_TO_END = {
    "setup_s": "s",
    "serial_p50_us": "us",
    "paced_p50_us": "us",
    "peak_qps": "1/s",
    "mem_pss_mb": "MB",
    "answered_frac": "ratio",
}

PER_LAYER = {
    "client.rtt_us": "us",
    "client.pack_us": "us",
    "client.decode_us": "us",
    "gateway.unpack_us": "us",
    "gateway.encode_us": "us",
    "gateway.self_us": "us",
    "worker.call_us": "us",
    "worker.todict_us": "us",
    "worker.pipe_us": "us",
    "engine.batch_us": "us",
    "engine.self_us": "us",
    "engine.inproc_p50_us": "us",
    "engine.inproc_p99_us": "us",
    "stack.overhead_us": "us",
    "sqlparser.skeleton_us": "us",
    "shapecache.get_us": "us",
    "shapecache.hit_ratio": "ratio",
    "pti.daemon_us": "us",
    "pti.cold_share": "ratio",
    "pti.query_cache_hit_ratio": "ratio",
    "nti.analyze_us": "us",
    "nti.calls_per_query": "1/query",
    "nti.prefilter_prune_ratio": "ratio",
    "persist.append_us": "us",
    "persist.appends_per_query": "1/query",
    "persist.checkpoint_us": "us",
    "persist.checkpoints": "count",
    "persist.fsyncs": "count",
    "trace.exact_repeat_share": "ratio",
    "trace.shape_repeat_share": "ratio",
    "trace.blocked_share": "ratio",
    "trace.input_bytes_mean": "B",
    "trace.overhead_pct": "%",
}


class Session:
    """One run's scratch directory, environment and live gateways."""

    def __init__(self, workload: str, seed: int, oracle_fragments=None) -> None:
        self.workload = workload
        self.trace = build_trace(workload, seed)
        self.oracle = Oracle(
            self.trace.fragments if oracle_fragments is None else oracle_fragments,
            self.trace.warmup,
        )
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        self.run_dir = os.path.join(RUN_ROOT, str(os.getpid()))
        os.makedirs(self.run_dir)
        self.fragments_file = os.path.join(self.run_dir, "fragments.json")
        FragmentStore(self.trace.fragments).save(self.fragments_file)
        self.gateways = []
        self.setups: list[float] = []
        self.lines: list[str] = []

    def gateway(self, name: str, launcher=None):
        """Start a gateway, take its first verdict, replay the warm-up."""
        gateway = GatewayProcess(
            self.run_dir, name, self.fragments_file, self.env, launcher
        )
        self.gateways.append(gateway)
        gateway.start(self.trace.warmup[0])
        self.setups.append(gateway.setup_seconds)
        warm = PhaseResult("warm-up")
        serial(gateway, self.trace.warmup, 1, math.inf, warm)
        if warm.failed:
            raise RuntimeError(f"{warm.failed} warm-up queries got no verdict")
        return gateway, warm

    def size_pool(self, warm, phase_seconds: dict[str, float]) -> list:
        """Grow the timed pool past what any phase can consume."""
        rtt = statistics.median(latency for __, __, latency in warm.records)
        need = (
            1.5 * phase_seconds.get("serial", 0.0) / rtt
            + 3.0 * phase_seconds.get("peak", 0.0) / rtt
            + phase_seconds.get("paced", 0.0) * PACED_RATE[self.workload]
        )
        return self.trace.ensure(int(need) + 64)

    def close(self) -> None:
        for gateway in self.gateways:
            gateway.stop()
        shutil.rmtree(self.run_dir, ignore_errors=True)
        try:
            os.rmdir(RUN_ROOT)
        except OSError:
            pass


def _us(values_s: list[float], q: float, cap_s: float) -> float:
    value = percentile(values_s, q)
    # A query with no verdict missed every limit; report the phase length.
    return (cap_s if math.isinf(value) else value) * 1e6


def _phase_line(result) -> str:
    lat = result.latencies()
    return (
        f"phase {result.name}: {result.attempted} queries in {result.elapsed:.2f}s, "
        f"failed {result.failed}, "
        + ", ".join(f"p{q} {percentile(lat, q) * 1e6:.1f}us" for q in (50, 90, 99, 100))
        + (", trace exhausted" if result.exhausted else "")
    )


def run_end_to_end(session: Session, seconds: float):
    for index in range(BARE_SETUPS):
        bare = GatewayProcess(
            session.run_dir, f"setup{index}", session.fragments_file, session.env
        )
        session.gateways.append(bare)
        bare.start(session.trace.warmup[0])
        session.setups.append(bare.setup_seconds)
        bare.stop()
    gateway, warm = session.gateway("e2e")
    slice_s = {name: share * seconds / ROUNDS for name, share in PHASE_SHARE.items()}
    pool = session.size_pool(
        warm, {name: share * seconds for name, share in PHASE_SHARE.items()}
    )
    rate = PACED_RATE[session.workload]
    slices = {
        "serial": serial,
        "paced": lambda *args: paced(*args, rate),
        "peak": peak,
    }
    rounds: dict[str, list[PhaseResult]] = {name: [] for name in PHASE_SHARE}
    cursor = 0
    for __ in range(ROUNDS):
        for name, run_slice in slices.items():
            part = PhaseResult(name)
            cursor = run_slice(gateway, pool, cursor, slice_s[name], part)
            rounds[name].append(part)
    pss = gateway.pss_mb()
    gateway.stop()

    phases = [PhaseResult.merge(parts) for parts in rounds.values()]
    session.lines.extend(_phase_line(result) for result in phases)
    late = sorted(phases[1].lateness)
    session.lines.append(
        f"paced generator at {rate:.0f} q/s: lateness p50 "
        f"{_us(late, 50, 0):.1f}us p99 {_us(late, 99, 0):.1f}us"
    )
    session.lines.append(
        "setup samples: " + ", ".join(f"{s:.3f}s" for s in session.setups)
    )
    attempted = sum(result.attempted for result in phases)
    failed = sum(result.failed for result in phases)

    def round_median_p50(name: str) -> float:
        """Median over rounds of the round's p50 (see ROUNDS)."""
        return statistics.median(
            _us(part.latencies(), 50, part.elapsed) for part in rounds[name]
        )

    metrics = {
        "setup_s": statistics.median(session.setups),
        "serial_p50_us": round_median_p50("serial"),
        "paced_p50_us": round_median_p50("paced"),
        "peak_qps": statistics.median(
            (part.attempted - part.failed) / part.elapsed for part in rounds["peak"]
        ),
        "mem_pss_mb": pss,
        "answered_frac": (attempted - failed) / max(attempted, 1),
    }
    return phases, metrics, attempted, failed


def run_traced(session: Session, seconds: float):
    gateway, warm = session.gateway("plain")
    pool = session.size_pool(warm, {"serial": 0.5 * seconds})
    plain = PhaseResult("serial")
    items = pool[: serial(gateway, pool, 0, 0.5 * seconds, plain)]
    gateway.stop()

    span_dir = os.path.join(session.run_dir, "spans")
    os.makedirs(span_dir)
    launcher = [os.path.join(BENCH_DIR, "launcher.py"), span_dir]
    gateway, __ = session.gateway("traced", launcher)
    gateway.signal_all(signal.SIGUSR1)
    time.sleep(0.2)
    recorder = SpanRecorder(span_dir, "client")
    traced = PhaseResult("traced")
    with client_wraps(recorder):
        serial(gateway, items, 0, 4.0 * seconds, traced)
    gateway.signal_all(signal.SIGUSR1)
    time.sleep(0.2)
    gateway.stop()
    fall = waterfall(recorder.spans, load_span_files(span_dir))

    phases = [plain, traced]
    session.lines.extend(_phase_line(result) for result in phases)
    session.lines.append(format_waterfall(session.workload, fall))
    expected = session.oracle.extend(items)
    inproc = sorted(session.oracle.seconds[: len(items)])
    plain_p50 = _us(plain.latencies(), 50, plain.elapsed)
    traced_p50 = _us(traced.latencies(), 50, traced.elapsed)
    metrics = dict(fall["metrics"])
    metrics.update(descriptors(session.trace, len(items), [not e.safe for e in expected]))
    metrics.update({
        "engine.inproc_p50_us": _us(inproc, 50, 0),
        "engine.inproc_p99_us": _us(inproc, 99, 0),
        "stack.overhead_us": plain_p50 - _us(inproc, 50, 0),
        "trace.overhead_pct": (traced_p50 - plain_p50) / plain_p50 * 100.0,
    })
    if fall["orphans"] or fall["uncontained"] or fall["negative_self"]:
        raise RuntimeError(
            f"span attribution failed: {fall['orphans']} orphan and "
            f"{fall['uncontained']} uncontained spans, "
            f"{fall['negative_self']} negative self times"
        )
    attempted = sum(result.attempted for result in phases)
    failed = sum(result.failed for result in phases)
    return phases, metrics, attempted, failed


def run(workload: str, seed: int, seconds: float, trace: int,
        oracle_fragments=None) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and report lines."""
    session = Session(workload, seed, oracle_fragments)
    try:
        runner = run_traced if trace else run_end_to_end
        phases, metrics, attempted, failed = runner(session, seconds)
    finally:
        session.close()
    mismatches = []
    for result in phases:
        mismatches.extend(session.oracle.check(result.name, result.records,
                                               session.trace.pool))
    lines = session.lines
    for mismatch in mismatches[:20]:
        lines.append(
            f"MISMATCH {mismatch.phase}#{mismatch.index}"
            f"{' (fail-open)' if mismatch.fail_open else ''}: "
            f"expected {mismatch.expected}, got {mismatch.got}: {mismatch.query[:120]}"
        )
    lines.append(f"verdict check: {len(mismatches)} mismatches")
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    return result, lines
