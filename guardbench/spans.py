"""Span recording around the program's public calls, and the waterfall.

Tracing never edits the program.  :func:`install_server_wraps` replaces
public functions on their class, or on the module that imported them, so
calls made inside the program hit the wrapper; the traced launcher
installs them before it runs the ``serve`` entry point, and the forked
workers inherit them.  :func:`client_wraps` does the same for the client
calls in the benchmark process, for the traced phase only.

Each process keeps its spans ``(name, start_ns, end_ns, seq, attr)`` in
memory and writes them to ``spans-<pid>.json`` when it exits.  ``seq`` is
a per-process sequence number; ``attr`` is a small per-span count (cache
hit, batch size).  Start and end come from ``time.perf_counter_ns``, which
on Linux reads the system-wide monotonic clock, so spans of different
processes share one time axis.  The traced phase uses one serial
connection, so every server-side span of a request lies inside that
request's client round-trip span; :func:`waterfall` attributes spans by
that containment.

A SIGUSR1 records a *mark*: a snapshot of counters that only exist as
running totals (NTI prefilter counters, journal fsyncs).  The benchmark
sends one mark before and one after the traced phase.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import itertools
import json
import os
import time

__all__ = [
    "SpanRecorder",
    "install_server_wraps",
    "client_wraps",
    "load_span_files",
    "waterfall",
    "format_waterfall",
]

_perf = time.perf_counter_ns


class SpanRecorder:
    """Per-process span buffer, counter marks and the objects they read."""

    def __init__(self, out_dir: str, role: str) -> None:
        self.out_dir = out_dir
        self.role = role
        self.spans: list[tuple[str, int, int, int, object]] = []
        self.marks: list[tuple[int, dict[str, float]]] = []
        self._seq = itertools.count()
        #: Engines seen by the wrapped ``inspect_batch`` (worker side).
        self.engines: list = []
        #: ``DurableState`` instances built in this process (gateway side).
        self.durables: list = []

    def forked(self) -> None:
        """``os.register_at_fork`` child hook: a worker starts empty."""
        self.role = "worker"
        self.spans = []
        self.marks = []
        self._seq = itertools.count()
        self.engines = []
        self.durables = []

    def record(self, name: str, start: int, end: int, attr: object = 0) -> None:
        self.spans.append((name, start, end, next(self._seq), attr))

    def mark(self, *_signal_args) -> None:
        counters = {
            "pruned": 0.0,
            "probed": 0.0,
            "fsyncs": 0.0,
        }
        for engine in self.engines:
            # Candidates past the containment probe: proven matchless
            # without a scan, or scanned (anchored, full, packed survivor).
            stats = engine.nti.filter_stats()
            pruned = (
                stats["pruned_zero_budget"] + stats["pruned_qgram"]
                + stats["pruned_packed"]
            )
            counters["pruned"] += pruned
            counters["probed"] += (
                pruned + stats["anchored_scans"] + stats["fallthrough_full_scan"]
                + stats["packed_verified"]
            )
        for durable in self.durables:
            counters["fsyncs"] += durable.durability_report()["fsyncs"]
        self.marks.append((_perf(), counters))

    def dump(self) -> None:
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"pid": os.getpid(), "role": self.role, "spans": self.spans,
                 "marks": self.marks},
                handle,
            )


def _timed(recorder: SpanRecorder, name: str, fn, attr_of=None):
    record = recorder.record
    if attr_of is None:

        def wrapper(*args, **kwargs):
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                record(name, t0, _perf())

    else:

        def wrapper(*args, **kwargs):
            t0 = _perf()
            out = fn(*args, **kwargs)
            t1 = _perf()
            record(name, t0, t1, attr_of(args, out))
            return out

    return functools.update_wrapper(wrapper, fn)


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def timed(self, recorder, owner, attr: str, name: str, attr_of=None) -> None:
        self.replace(owner, attr, _timed(recorder, name, getattr(owner, attr), attr_of))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _pti_attr(args, replies) -> tuple[int, int]:
    return (len(replies), sum(1 for r in replies if r.from_cache == "query"))


def install_server_wraps(recorder: SpanRecorder) -> None:
    """Wrap the gateway-process and worker-process calls (never undone)."""
    from repro.core import engine as engine_module
    from repro.core.engine import JozaEngine
    from repro.core.shapecache import ShapeCache
    from repro.nti.inference import NTIAnalyzer
    from repro.persist.state import DurableState
    from repro.pti import wire
    from repro.pti.daemon import PTIDaemon
    from repro.service import gateway as gateway_module
    from repro.service import worker as worker_module
    from repro.service.worker import GatewayWorker

    patches = _Patches()
    # Gateway process.
    patches.timed(recorder, wire, "unpack_gateway_request", "gateway.unpack")
    patches.timed(recorder, gateway_module, "encode_verdict", "gateway.encode_verdict")
    patches.timed(recorder, wire, "pack_gateway_reply", "gateway.pack_reply")
    patches.timed(recorder, GatewayWorker, "inspect", "worker.call")
    patches.timed(recorder, DurableState, "append_audit", "persist.append")
    patches.timed(recorder, DurableState, "checkpoint", "persist.checkpoint")
    durable_init = DurableState.__init__

    def register_durable(self, *args, **kwargs):
        durable_init(self, *args, **kwargs)
        recorder.durables.append(self)

    patches.replace(DurableState, "__init__", register_durable)

    # Worker processes (inherited through fork).
    def batch_attr(args, verdicts):
        if args[0] not in recorder.engines:
            recorder.engines.append(args[0])
        return len(verdicts)

    patches.timed(recorder, JozaEngine, "inspect_batch", "engine.batch", batch_attr)
    patches.timed(recorder, worker_module, "verdict_to_dict", "worker.todict")
    patches.timed(recorder, engine_module, "skeletonize", "sqlparser.skeleton")
    patches.timed(
        recorder, ShapeCache, "get", "shapecache.get",
        lambda args, plan: int(plan is not None),
    )
    patches.timed(recorder, PTIDaemon, "analyze_batch", "pti.daemon", _pti_attr)
    patches.timed(recorder, NTIAnalyzer, "analyze", "nti.analyze")
    worker_loop = worker_module._gateway_worker_loop

    def traced_worker_loop(*args, **kwargs):
        try:
            return worker_loop(*args, **kwargs)
        finally:
            recorder.dump()

    patches.replace(worker_module, "_gateway_worker_loop", traced_worker_loop)


@contextlib.contextmanager
def client_wraps(recorder: SpanRecorder):
    """Wrap the client-side calls in this process for the ``with`` body."""
    from repro.pti import wire
    from repro.service import client as client_module
    from repro.service.client import GatewayClient

    patches = _Patches()
    patches.timed(recorder, GatewayClient, "inspect", "client.rtt")
    patches.timed(recorder, wire, "pack_gateway_request", "client.pack")
    patches.timed(recorder, wire, "unpack_gateway_reply", "client.unpack_reply")
    patches.timed(recorder, client_module, "decode_verdict", "client.decode_verdict")
    try:
        yield recorder
    finally:
        patches.undo()


def load_span_files(span_dir: str) -> list[dict]:
    documents = []
    for name in sorted(os.listdir(span_dir)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(span_dir, name), encoding="utf-8") as handle:
                documents.append(json.load(handle))
    return documents


# ----------------------------------------------------------------------
# Waterfall
# ----------------------------------------------------------------------

#: Layer metric -> span names summed into it (all means per query).
_SUMS = {
    "client.rtt_us": ("client.rtt",),
    "client.pack_us": ("client.pack",),
    "client.decode_us": ("client.unpack_reply", "client.decode_verdict"),
    "gateway.unpack_us": ("gateway.unpack",),
    "gateway.encode_us": ("gateway.encode_verdict", "gateway.pack_reply"),
    "worker.call_us": ("worker.call",),
    "worker.todict_us": ("worker.todict",),
    "engine.batch_us": ("engine.batch",),
    "sqlparser.skeleton_us": ("sqlparser.skeleton",),
    "shapecache.get_us": ("shapecache.get",),
    "pti.daemon_us": ("pti.daemon",),
    "nti.analyze_us": ("nti.analyze",),
    "persist.append_us": ("persist.append",),
    "persist.checkpoint_us": ("persist.checkpoint",),
}

#: Self time = parent span minus the sum of these child spans inside it.
#: The children of one parent never overlap in the program, so a negative
#: self time means a span was counted twice (or a clock went wrong).
_SELF = {
    "gateway.self_us": (
        "client.rtt",
        (
            "client.pack", "client.unpack_reply", "client.decode_verdict",
            "gateway.unpack", "gateway.encode_verdict", "gateway.pack_reply",
            "worker.call", "persist.append", "persist.checkpoint",
        ),
    ),
    "worker.pipe_us": ("worker.call", ("engine.batch", "worker.todict")),
    "engine.self_us": (
        "engine.batch",
        ("sqlparser.skeleton", "shapecache.get", "pti.daemon", "nti.analyze"),
    ),
}


def _mark_delta(documents, role: str, key: str) -> float:
    total = 0.0
    for document in documents:
        marks = document["marks"]
        if document["role"] == role and len(marks) >= 2:
            total += marks[1][1][key] - marks[0][1][key]
    return total


def waterfall(client_spans, documents) -> dict:
    """Per-layer means per query over the traced requests.

    Returns the metric dict plus ``orphans`` (server spans inside the
    phase that no request window contains), ``uncontained`` (child spans
    sticking out of their parent) and ``negative_self`` (parent spans
    shorter than the sum of their children); all three must be zero for
    the attribution to hold.
    """
    windows = sorted((s, e) for name, s, e, __, __ in client_spans if name == "client.rtt")
    n = len(windows)
    if n == 0:
        raise ValueError("no traced requests")
    starts = [s for s, __ in windows]
    per_request: list[dict[str, list]] = [dict() for __ in range(n)]
    orphans = 0
    all_spans = [tuple(span) for span in client_spans]
    for document in documents:
        all_spans.extend(tuple(span) for span in document["spans"])
    phase_start, phase_end = windows[0][0], windows[-1][1]
    for name, s, e, __, attr in all_spans:
        slot = bisect.bisect_right(starts, s) - 1
        if slot >= 0 and e <= windows[slot][1]:
            per_request[slot].setdefault(name, []).append((s, e, attr))
        elif phase_start <= s <= phase_end:
            orphans += 1

    metrics: dict[str, float] = {key: 0.0 for key in (*_SUMS, *_SELF)}
    uncontained = negative_self = 0
    counts = {"shape_gets": 0, "shape_hits": 0, "pti_queries": 0,
              "pti_cache_hits": 0, "nti_calls": 0, "appends": 0, "checkpoints": 0}
    for spans in per_request:
        for metric, names in _SUMS.items():
            metrics[metric] += sum(e - s for name in names for s, e, __ in spans.get(name, ()))
        for metric, (parent, children) in _SELF.items():
            for ps, pe, __ in spans.get(parent, ()):
                own = pe - ps
                for name in children:
                    for s, e, __ in spans.get(name, ()):
                        if ps <= s and e <= pe:
                            own -= e - s
                        elif parent != "client.rtt":
                            uncontained += 1
                negative_self += own < 0
                metrics[metric] += own
        gets = spans.get("shapecache.get", ())
        counts["shape_gets"] += len(gets)
        counts["shape_hits"] += sum(attr for __, __, attr in gets)
        for __, __, (queries, hits) in spans.get("pti.daemon", ()):
            counts["pti_queries"] += queries
            counts["pti_cache_hits"] += hits
        counts["nti_calls"] += len(spans.get("nti.analyze", ()))
        counts["appends"] += len(spans.get("persist.append", ()))
        counts["checkpoints"] += len(spans.get("persist.checkpoint", ()))

    out = {metric: value / n / 1000.0 for metric, value in metrics.items()}
    probed = _mark_delta(documents, "worker", "probed")
    out.update({
        "shapecache.hit_ratio": counts["shape_hits"] / max(counts["shape_gets"], 1),
        "pti.cold_share": counts["pti_queries"] / n,
        "pti.query_cache_hit_ratio": (
            counts["pti_cache_hits"] / max(counts["pti_queries"], 1)
        ),
        "nti.calls_per_query": counts["nti_calls"] / n,
        "nti.prefilter_prune_ratio": (
            _mark_delta(documents, "worker", "pruned") / probed if probed else 0.0
        ),
        "persist.appends_per_query": counts["appends"] / n,
        "persist.checkpoints": float(counts["checkpoints"]),
        "persist.fsyncs": _mark_delta(documents, "gateway", "fsyncs"),
    })
    return {"metrics": out, "requests": n, "orphans": orphans,
            "uncontained": uncontained, "negative_self": negative_self}


#: Waterfall rows: (label, metric); indentation shows span nesting.
_ROWS = (
    ("client round trip", "client.rtt_us"),
    ("  client pack", "client.pack_us"),
    ("  client decode", "client.decode_us"),
    ("  gateway unpack", "gateway.unpack_us"),
    ("  gateway encode", "gateway.encode_us"),
    ("  gateway self (socket, loop, admission, executor hop)", "gateway.self_us"),
    ("  persist append", "persist.append_us"),
    ("  persist checkpoint", "persist.checkpoint_us"),
    ("  worker call", "worker.call_us"),
    ("    worker pipe self", "worker.pipe_us"),
    ("    worker to-dict", "worker.todict_us"),
    ("    engine batch", "engine.batch_us"),
    ("      engine self", "engine.self_us"),
    ("      sqlparser skeleton", "sqlparser.skeleton_us"),
    ("      shapecache get", "shapecache.get_us"),
    ("      pti daemon", "pti.daemon_us"),
    ("      nti analyze", "nti.analyze_us"),
)


def format_waterfall(workload: str, result: dict) -> str:
    metrics = result["metrics"]
    rtt = metrics["client.rtt_us"] or 1.0
    lines = [
        f"waterfall {workload}: {result['requests']} traced requests, "
        f"orphan spans {result['orphans']}, uncontained spans {result['uncontained']}, "
        f"negative self times {result['negative_self']}",
        f"  {'layer':<56}{'us/query':>10}{'share':>8}",
    ]
    for label, metric in _ROWS:
        value = metrics[metric]
        lines.append(f"  {label:<56}{value:>10.2f}{value / rtt:>8.1%}")
    return "\n".join(lines)
