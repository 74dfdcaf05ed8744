"""Asyncio guard gateway: the crash-safe network face of the Joza engine.

Architecture (DESIGN.md section 12): one asyncio event loop accepts unix /
TCP connections, shuffles length-prefixed frames, and owns the channel to
every :class:`~repro.service.worker.GatewayWorker` process, where all
analysis happens.  Per request it reads and unpacks the frame, clamps the
deadline, takes an idle worker (a worker is free or serving exactly one
batch, so the fleet is least-loaded by construction), forwards the
client's frame with the remaining budget, and awaits a future that its
reader callback resolves with the worker's reply frame -- verdict JSON
encoded once, in the worker -- which goes back to the client unchanged.
No thread sits on that path; respawning, reaping and closing workers
run in the loop's default executor.  All state is touched by the loop
thread only.

Robustness invariants, each tested:

- **Deadline propagation**: the client's budget is clamped to
  ``max_deadline``, queue wait is deducted, and requests expired on
  arrival or in the queue are shed without touching a worker.
- **Admission control**: at most ``workers + max_queue`` requests are in
  flight.  Every shed -- queue full, no worker in time, expired -- is
  answered with recorded fail-closed verdicts, never a silent drop.
- **Worker fault isolation**: a hung, crashed or corrupt worker fails only
  its own batch, fail-closed, at the latest by a loop timer at budget +
  ``recv_grace``; it is replaced off the request path as soon as its
  channel dies or after ``replace_after`` consecutive failures.
- **Connection fault isolation**: torn frames, garbage, oversized
  announcements, stalls and mid-request disconnects cost only their own
  connection.
- **Graceful drain**: SIGTERM stops the listeners, lets in-flight work
  finish or deadline out within ``drain_timeout``, reaps every worker
  (zero zombies), flushes the audit log and exits 0.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import json
import signal
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

from ..core.policy import JozaConfig
from ..core.resilience import RingLog
from ..pti import wire
from .codec import decode_verdict, encode_verdict, failsafe_dict
from .worker import GatewayWorker, WorkerFailure

__all__ = [
    "AsyncGateway",
    "GatewayConfig",
    "GatewayStats",
    "GatewayThread",
    "serve",
]

#: Shed reasons (also the ``failure_reasons`` entry of the failsafe
#: verdicts a shed produces -- greppable in the audit export).
REASON_EXPIRED_ON_ARRIVAL = "gateway: deadline expired on arrival"
REASON_EXPIRED_IN_QUEUE = "gateway: deadline expired waiting for a worker"
REASON_QUEUE_FULL = "gateway: admission queue full"
REASON_NO_WORKER = "gateway: no worker available in time"
REASON_DRAINING = "gateway: draining (SIGTERM)"
REASON_WORKER_FAILED = "gateway: worker failure"

#: Upper bound on a cross-thread :meth:`AsyncGateway.resilience_report`.
#: Each worker's report is already bounded by its channel timer; this
#: only guards a caller against a loop that stops mid-report.
_REPORT_TIMEOUT = 30.0


@dataclass
class GatewayConfig:
    """Service-level knobs (the engine's own config rides separately)."""

    #: Unix socket path; ``None`` disables the unix listener.
    unix_path: str | None = None
    #: TCP bind host; ``None`` disables the TCP listener.
    host: str | None = None
    #: TCP port (0 = ephemeral, resolved after :meth:`AsyncGateway.start`).
    port: int = 0
    #: Worker processes (one engine each).
    workers: int = 2
    #: Requests allowed to *wait* beyond the ``workers`` in service;
    #: ``workers + max_queue`` is the hard in-flight bound.
    max_queue: int = 16
    #: Server-side clamp on client deadline budgets (seconds; None = no
    #: clamp).  A client asking for more gets this; a client asking for
    #: less keeps its own budget.
    max_deadline: float | None = 2.0
    #: Max seconds an admitted request waits for a free worker (further
    #: clamped to the request's remaining budget).
    admission_timeout: float = 1.0
    #: Consecutive worker-call failures that trigger replacement.
    replace_after: int = 3
    #: Seconds granted to in-flight work after SIGTERM before workers are
    #: reaped anyway.
    drain_timeout: float = 5.0
    #: Slow-loris guard: max seconds to wait for the next length prefix on
    #: an idle connection...
    idle_timeout: float = 30.0
    #: ...and for the body of an announced frame to fully arrive.
    frame_timeout: float = 10.0
    #: Gateway audit ring capacity (shed/expired/refused records).
    audit_capacity: int = 10_000
    #: Per-request artificial service time inside each worker (seconds).
    #: Concurrency-mechanics tests use it to hold a worker busy; 0 in
    #: production.
    worker_pace_seconds: float = 0.0
    #: Multi-tenant mode: tenant-id -> overlay fragment list.  The
    #: gateway's ``fragments`` become the shared base vocabulary (interned
    #: once per worker), each tenant engine sees base + its overlay, and
    #: the wire ``client_id`` routes to the tenant's engine.  ``None`` =
    #: classic single-tenant gateway.
    tenants: dict[str, list[str]] | None = None
    #: Durable state directory (DESIGN.md section 15).  When set, the
    #: gateway restores vocabulary + overlays + audit from it *before*
    #: accepting, journals every mutation and unsafe verdict, and a
    #: drain-stop writes a final checkpoint.  ``None`` = in-memory only.
    state_dir: str | None = None
    #: Journal fsync policy: "always" / "batch" (group commit, default) /
    #: "never" (OS-buffered; tests and benches).
    fsync_policy: str = "batch"
    #: Journal records accumulated before a compacting checkpoint.
    checkpoint_every: int = 512

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ValueError("workers must be positive")
        if self.max_queue < 0:
            raise ValueError("max_queue must be non-negative")
        if self.admission_timeout <= 0:
            raise ValueError("admission_timeout must be positive")
        if self.replace_after <= 0:
            raise ValueError("replace_after must be positive")
        if self.unix_path is None and self.host is None:
            raise ValueError("need a unix_path or a host to listen on")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")


@dataclass
class GatewayStats:
    """Gateway-level counters, updated by the loop thread only."""

    connections_opened: int = 0
    connections_closed: int = 0
    frames_received: int = 0
    requests_accepted: int = 0
    queries_inspected: int = 0
    replies_sent: int = 0
    #: Admission sheds: in-flight bound hit ...
    shed_queue_full: int = 0
    #: ... or no worker freed up inside the admission/deadline window.
    shed_no_worker: int = 0
    #: Requests whose (clamped) budget was already spent at arrival.
    expired_on_arrival: int = 0
    #: Requests whose budget expired while queued for a worker.
    expired_in_queue: int = 0
    #: Requests refused because the gateway is draining.
    draining_refused: int = 0
    #: Frames that failed wire validation (bad magic/kind/truncation).
    protocol_errors: int = 0
    #: Frames refused from the length prefix alone, body never read.
    oversized_refused: int = 0
    #: Connections dropped by the slow-loris / stalled-frame guards.
    stalled_connections: int = 0
    #: Worker calls that failed (hang, crash, corrupt reply) ...
    worker_failures: int = 0
    #: ... and workers replaced because of them.
    worker_replacements: int = 0
    #: Tenant snapshot frames pushed to workers (reload_tenant fan-out) ...
    snapshot_pushes: int = 0
    #: ... and pushes that failed (worker hung/crashed mid-push).
    snapshot_push_failures: int = 0
    #: Unsafe verdicts / audit events the durability journal refused
    #: (disk trouble); the reply path is never taken down by these.
    audit_persist_failures: int = 0

    def snapshot(self) -> dict[str, int]:
        return dataclasses.asdict(self)


class AsyncGateway:
    """The gateway: listeners + worker fleet + admission + drain."""

    def __init__(
        self,
        fragments: Sequence[str],
        config: JozaConfig | None = None,
        gateway: GatewayConfig | None = None,
        *,
        audit_sink: Callable[[str], None] | None = None,
    ) -> None:
        self.fragments = list(fragments)
        self.config = config or JozaConfig()
        self.gw = gateway or GatewayConfig(host="127.0.0.1")
        self.stats = GatewayStats()
        #: Gateway-level audit: every shed / expired / refused request, one
        #: record per query, carrying connection and client (tenant) ids.
        self.audit: RingLog = RingLog(self.gw.audit_capacity)
        #: Where the drain-time audit flush goes (``serve`` prints it).
        self._audit_sink = audit_sink
        self._servers: list[asyncio.AbstractServer] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        #: Every live worker; ``_free`` holds the idle ones and
        #: ``_waiters`` the requests waiting for one, oldest first.
        self._workers: list[GatewayWorker] = []
        self._free: collections.deque[GatewayWorker] = collections.deque()
        self._waiters: collections.deque[asyncio.Future] = collections.deque()
        #: Background replacements (reap + respawn) still running, and
        #: the lock that keeps forks one at a time (a child forked while
        #: another's socket end is open here would keep that channel
        #: alive past its worker's death) and out of tenant reloads.
        self._replacing: set[asyncio.Task] = set()
        self._spawn_lock: asyncio.Lock | None = None
        self._pending = 0
        self._inflight = 0
        self._drain_waiter: asyncio.Future | None = None
        self._draining = False
        self._closed = False
        self._conn_counter = 0
        self._next_worker_id = 0
        #: Durable state (bound by :meth:`start` when ``state_dir`` is
        #: configured); ``None`` = in-memory gateway.
        self.durable = None
        #: Restores refused because the state directory failed
        #: verification (the fail-closed path: start() raised).
        self.corruption_refusals = 0
        self.drain_stats: dict[str, object] = {
            "drained": False,
            "inflight_at_drain": 0,
            "drain_seconds": 0.0,
            "deadline_outs": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _fork_worker(self) -> GatewayWorker:
        """Fork one worker with the *current* tenant overlays (blocking;
        the engine builds in the child)."""
        self._next_worker_id += 1
        return GatewayWorker(
            self._next_worker_id - 1,
            self.fragments,
            self.config,
            pace_seconds=self.gw.worker_pace_seconds,
            tenants=self.gw.tenants,
        )

    def _adopt(self, worker: GatewayWorker) -> None:
        """Put a freshly forked worker's channel on the loop."""
        worker.attach(self._loop, self._worker_died)
        self._workers.append(worker)

    def _restore_durable(self) -> None:
        """Open (and recover) the durable state *before* anything serves.

        Fail-closed by construction: a corrupt journal or checkpoint
        raises :class:`~repro.persist.JournalCorrupt` out of ``start()``
        and no listener is ever bound -- the gateway refuses to vet
        queries against a vocabulary it cannot verify.  On success the
        recovered vocabulary and tenant overlays *replace* the config
        seed (persisted state wins; the seed only matters on first boot),
        so respawned workers rehydrate from the recovered fragments.
        """
        from ..persist import DurableState, JournalCorrupt

        try:
            durable = DurableState(
                self.gw.state_dir,
                seed_fragments=self.fragments,
                fsync=self.gw.fsync_policy,
                checkpoint_every=self.gw.checkpoint_every,
            )
        except JournalCorrupt:
            self.corruption_refusals += 1
            raise
        self.durable = durable
        self.fragments = list(durable.store.fragments)
        if self.gw.tenants is not None:
            # Recovered overlays win over config; config tenants unseen by
            # the journal are first-boot additions and get journaled now.
            for tenant_id, overlay in durable.overlays.items():
                self.gw.tenants[tenant_id] = list(overlay)
            for tenant_id, overlay in list(self.gw.tenants.items()):
                if tenant_id not in durable.overlays:
                    durable.set_overlay(tenant_id, overlay)
        # Every gateway audit record (sheds, refusals) is journaled; ring
        # eviction stops meaning lost evidence.
        self.audit.attach_sink(durable.append_audit)

    async def start(self) -> None:
        """Spawn the fleet and bind the listeners."""
        if self._servers:
            raise RuntimeError("gateway already started")
        self._loop = asyncio.get_running_loop()
        self._spawn_lock = asyncio.Lock()
        if self.gw.state_dir is not None:
            self._restore_durable()
        # Forks return at once (engines build in the children, in
        # parallel), so the first fleet is spawned right here.
        for _ in range(self.gw.workers):
            worker = self._fork_worker()
            self._adopt(worker)
            self._free.append(worker)
        if self.gw.unix_path is not None:
            self._servers.append(
                await asyncio.start_unix_server(
                    self._handle_conn, path=self.gw.unix_path
                )
            )
        if self.gw.host is not None:
            server = await asyncio.start_server(
                self._handle_conn, host=self.gw.host, port=self.gw.port
            )
            self._servers.append(server)
            # Resolve an ephemeral port for clients/tests.
            self.gw.port = server.sockets[0].getsockname()[1]

    async def stop(self, *, drain: bool = True) -> bool:
        """Stop accepting, drain in-flight, reap the fleet; True if clean.

        Idempotent.  ``drain=False`` skips the grace period (tests of the
        hard-stop path); in-flight requests then lose their worker channel
        and resolve fail-closed like any other worker failure.
        """
        if self._closed:
            return bool(self.drain_stats["drained"])
        self._draining = True
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        self.drain_stats["inflight_at_drain"] = self._inflight
        drained = True
        if drain and self._inflight > 0:
            self._drain_waiter = loop.create_future()
            try:
                await asyncio.wait_for(
                    self._drain_waiter, timeout=self.gw.drain_timeout
                )
            except asyncio.TimeoutError:
                drained = False
                self.drain_stats["deadline_outs"] = self._inflight
        self._closed = True
        # A replacement mid-spawn finishes (and closes its new worker,
        # seeing _closed) before the fleet is reaped.
        if self._replacing:
            await asyncio.gather(*self._replacing, return_exceptions=True)
        workers = list(self._workers)
        self._workers.clear()
        self._free.clear()
        for worker in workers:
            worker.detach("closed by gateway stop")
        # No zombie survives stop(): close() joins, off-loop.
        await asyncio.gather(
            *(loop.run_in_executor(None, w.close) for w in workers)
        )
        self.drain_stats["drained"] = drained
        self.drain_stats["drain_seconds"] = loop.time() - t0
        if self.durable is not None:
            self.audit.attach_sink(None)
            if drain:
                # SIGTERM drain: flush the journal group and write the
                # final checkpoint -- restart restores exactly this state.
                self.durable.close()
            else:
                # Hard stop: crash-shaped.  Handles drop without flushing
                # so a subsequent restore exercises real journal replay.
                self.durable.abandon()
        self._flush_audit()
        return drained

    def _flush_audit(self) -> None:
        if self._audit_sink is None:
            return
        document = json.dumps(
            {
                "gateway": self.stats.snapshot(),
                "drain": dict(self.drain_stats),
                "audit_dropped_records": self.audit.dropped_records,
                "audit": [dict(record) for record in self.audit],
            },
            indent=2,
        )
        try:
            self._audit_sink(document)
        except Exception:  # pragma: no cover - sink must not break drain
            pass

    # ------------------------------------------------------------------
    # Worker fleet
    # ------------------------------------------------------------------

    async def _checkout(self, wait: float) -> GatewayWorker | None:
        """An idle worker, waiting up to ``wait`` seconds; None if none."""
        if self._free:
            return self._free.popleft()
        loop = self._loop
        waiter = loop.create_future()
        self._waiters.append(waiter)
        timer = loop.call_later(wait, self._expire_waiter, waiter)
        try:
            return await waiter
        finally:
            timer.cancel()

    def _expire_waiter(self, waiter: asyncio.Future) -> None:
        if not waiter.done():
            waiter.set_result(None)
            self._waiters.remove(waiter)

    def _release(self, worker: GatewayWorker) -> None:
        """Return a checked-out worker: to a waiter, the free list, or --
        when its channel died or it keeps failing -- to replacement."""
        if self._closed:
            return
        if (
            worker.failure is not None
            or worker.consecutive_failures >= self.gw.replace_after
        ):
            self._retire(worker)
            return
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_result(worker)
                return
        self._free.append(worker)

    def _worker_died(self, worker: GatewayWorker) -> None:
        """Channel-death callback.  An idle worker is replaced now; a
        checked-out one when its holder releases it."""
        if worker in self._free:
            self._retire(worker)

    def _retire(self, worker: GatewayWorker) -> None:
        if self._closed or worker not in self._workers:
            return
        self._workers.remove(worker)
        if worker in self._free:
            self._free.remove(worker)
        self.stats.worker_replacements += 1
        worker.detach("retired")
        task = self._loop.create_task(self._replace(worker))
        self._replacing.add(task)
        task.add_done_callback(self._replacing.discard)

    async def _replace(self, worker: GatewayWorker) -> None:
        """Reap a retired worker and adopt a fresh one (off the request
        path: the failing request was already answered fail-closed)."""
        loop = self._loop
        await loop.run_in_executor(None, worker._reap)
        async with self._spawn_lock:
            if self._closed:
                return
            replacement = await loop.run_in_executor(None, self._fork_worker)
            if self._closed:
                await loop.run_in_executor(None, replacement.close)
                return
            self._adopt(replacement)
        self._release(replacement)

    # ------------------------------------------------------------------
    # Deadline clamping
    # ------------------------------------------------------------------

    def _clamp_budget(self, budget: float | None) -> float | None:
        """Client budget clamped to the server's ``max_deadline``.

        ``None`` (unbounded) on both sides stays unbounded; a negative or
        zero client budget is preserved so clock-skewed requests shed as
        expired-on-arrival instead of silently gaining time.
        """
        ceiling = self.gw.max_deadline
        if budget is None:
            return ceiling
        if ceiling is None:
            return budget
        return min(budget, ceiling)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._conn_counter += 1
        conn_id = f"conn-{self._conn_counter}"
        self.stats.connections_opened += 1
        try:
            await self._conn_loop(reader, writer, conn_id)
        except (ConnectionResetError, BrokenPipeError):
            pass  # mid-request disconnect: per-connection, fail closed
        finally:
            self.stats.connections_closed += 1
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            except RuntimeError:
                pass  # loop already closed during teardown

    async def _conn_loop(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        conn_id: str,
    ) -> None:
        loop = self._loop
        period = min(self.gw.idle_timeout, self.gw.frame_timeout) / 4.0
        stalled = False
        since, limit = 0.0, None  # the read in progress: started, allowed

        def check() -> None:
            # Slow-loris guard, re-armed every ``period``: a read that has
            # kept the gateway waiting past its limit aborts the transport,
            # and the read ends in an IncompleteReadError as an EOF would.
            # A read costs two stores, not a timer handle.
            nonlocal stalled, timer
            if limit is not None and loop.time() - since >= limit:
                stalled = True
                writer.transport.abort()
            else:
                timer = loop.call_later(period, check)

        timer = loop.call_later(period, check)
        try:
            while True:
                since, limit = loop.time(), self.gw.idle_timeout
                try:
                    header = await reader.readexactly(wire.PREFIX.size)
                except asyncio.IncompleteReadError:
                    # Clean EOF (or a torn prefix -- nothing to answer).
                    if stalled:
                        self.stats.stalled_connections += 1
                    return
                (length,) = wire.PREFIX.unpack(header)
                if length == 0 or length > wire.MAX_FRAME:
                    # Refused from the announcement alone: the body is
                    # never read, so a hostile length cannot make us
                    # buffer 4GiB.
                    self.stats.oversized_refused += 1
                    await self._send_frame(
                        writer,
                        wire.pack_gateway_error(
                            wire.GW_ERR_OVERSIZED,
                            f"frame of {length} bytes refused "
                            f"(max {wire.MAX_FRAME})",
                        ),
                    )
                    return
                since, limit = loop.time(), self.gw.frame_timeout
                try:
                    frame = await reader.readexactly(length)
                except asyncio.IncompleteReadError:
                    if stalled:
                        self.stats.stalled_connections += 1
                    else:
                        # Torn frame: client died mid-send.  No complete
                        # request was received, so there is nothing to
                        # answer; the connection dies, the listener lives.
                        self.stats.protocol_errors += 1
                    return
                limit = None  # the client now waits on us
                reply = await self._process_frame(frame, conn_id)
                await self._send_frame(writer, reply)
                self.stats.replies_sent += 1
        finally:
            timer.cancel()

    @staticmethod
    async def _send_frame(writer: asyncio.StreamWriter, frame: bytes) -> None:
        writer.write(wire.PREFIX.pack(len(frame)) + frame)
        await writer.drain()

    # ------------------------------------------------------------------
    # Request processing
    # ------------------------------------------------------------------

    def _audit_shed(
        self, request: wire.GatewayRequest, conn_id: str, reason: str
    ) -> None:
        for query in request.queries:
            self.audit.append(
                {
                    "query": query,
                    "client_id": request.client_id or None,
                    "conn_id": conn_id,
                    "request_path": request.path,
                    "reason": reason,
                    "failsafe": True,
                }
            )

    def _failsafe_reply(
        self, request: wire.GatewayRequest, conn_id: str, reason: str
    ) -> bytes:
        """Recorded fail-closed verdicts for every query of a shed request."""
        self._audit_shed(request, conn_id, reason)
        return wire.pack_gateway_reply(
            [
                encode_verdict(failsafe_dict(query, reason))
                for query in request.queries
            ]
        )

    async def _process_frame(self, frame: bytes, conn_id: str) -> bytes:
        self.stats.frames_received += 1
        try:
            kind = wire.peek_kind(frame)
            if kind != wire.KIND_GW_REQUEST:
                raise wire.WireFormatError(
                    f"unexpected frame kind {kind} (want gateway request)"
                )
            request = wire.unpack_gateway_request(frame)
        except wire.WireFormatError as exc:
            # Complete-but-invalid frame: answer with a protocol error and
            # keep the connection (framing itself is still synchronized).
            self.stats.protocol_errors += 1
            return wire.pack_gateway_error(wire.GW_ERR_BAD_FRAME, str(exc))
        if self._draining or self._closed:
            self.stats.draining_refused += 1
            self._audit_shed(request, conn_id, REASON_DRAINING)
            return wire.pack_gateway_error(
                wire.GW_ERR_DRAINING, REASON_DRAINING
            )
        self._inflight += 1
        try:
            return await self._dispatch(frame, request, conn_id)
        finally:
            self._inflight -= 1
            waiter = self._drain_waiter
            if self._inflight == 0 and waiter is not None and not waiter.done():
                waiter.set_result(None)

    async def _dispatch(
        self, frame: bytes, request: wire.GatewayRequest, conn_id: str
    ) -> bytes:
        loop = self._loop
        arrival = loop.time()
        budget = self._clamp_budget(request.budget)
        # Expired on arrival (includes clock-skewed negative budgets):
        # shed before any queueing, no worker is touched.
        if budget is not None and budget <= 0.0:
            self.stats.expired_on_arrival += 1
            return self._failsafe_reply(
                request, conn_id, REASON_EXPIRED_ON_ARRIVAL
            )
        # Admission: hard in-flight bound, checked before waiting.
        if self._pending >= self.gw.workers + self.gw.max_queue:
            self.stats.shed_queue_full += 1
            return self._failsafe_reply(request, conn_id, REASON_QUEUE_FULL)
        self._pending += 1
        try:
            wait = self.gw.admission_timeout
            if budget is not None:
                wait = min(wait, budget)
            worker = await self._checkout(wait)
            if worker is None:
                self.stats.shed_no_worker += 1
                return self._failsafe_reply(request, conn_id, REASON_NO_WORKER)
            try:
                remaining = budget
                if budget is not None:
                    remaining = budget - (loop.time() - arrival)
                    if remaining <= 0.0:
                        self.stats.expired_in_queue += 1
                        return self._failsafe_reply(
                            request, conn_id, REASON_EXPIRED_IN_QUEUE
                        )
                return await self._inspect_on(
                    worker, frame, request, conn_id, remaining
                )
            finally:
                self._release(worker)
        finally:
            self._pending -= 1

    async def _inspect_on(
        self,
        worker: GatewayWorker,
        frame: bytes,
        request: wire.GatewayRequest,
        conn_id: str,
        budget: float | None,
    ) -> bytes:
        self.stats.requests_accepted += 1
        self.stats.queries_inspected += len(request.queries)
        try:
            reply, unsafe = await worker.inspect_frame(
                wire.with_gateway_budget(frame, budget),
                len(request.queries),
                budget,
            )
        except WorkerFailure as exc:
            worker.consecutive_failures += 1
            self.stats.worker_failures += 1
            return self._failsafe_reply(
                request, conn_id, f"{REASON_WORKER_FAILED}: {exc.reason}"
            )
        worker.consecutive_failures = 0
        if self.durable is not None:
            self._journal_unsafe(reply, unsafe, request, conn_id)
        return reply

    def _journal_unsafe(
        self,
        reply: bytes,
        unsafe: list[int],
        request: wire.GatewayRequest,
        conn_id: str,
    ) -> None:
        """Journal the unsafe verdicts -- attack evidence; workers are
        disposable and their rings die with them -- before the reply
        leaves.  Persistence failures are counted, never fail the reply."""
        if unsafe:
            payloads = wire.unpack_gateway_reply(reply)
            for index in unsafe:
                try:
                    self.durable.append_audit(
                        {
                            "conn_id": conn_id,
                            "client_id": request.client_id or None,
                            "request_path": request.path,
                            "verdict": decode_verdict(payloads[index]),
                        }
                    )
                except Exception:
                    self.stats.audit_persist_failures += 1
        try:
            self.durable.maybe_checkpoint()
        except Exception:
            self.stats.audit_persist_failures += 1

    # ------------------------------------------------------------------
    # Tenant replication
    # ------------------------------------------------------------------

    async def reload_tenant(self, tenant_id: str, overlay) -> dict:
        """Push one tenant's new overlay to every worker (warm handoff).

        The rolling-reload control plane: workers are pushed one at a
        time, each applies the snapshot in place via its registry's warm
        handoff (successor composite automaton compiled off-path, atomic
        swap) and keeps serving other tenants throughout.  A push queues
        behind a worker's in-flight inspect on its channel, never beside
        it, and no replacement forks mid-reload, so every worker ends up
        with the new overlay.  A worker that fails the push is counted and
        left to the health checker -- ``consecutive_failures`` drives its
        replacement, which spawns with the updated overlay map.
        """
        if self.gw.tenants is None:
            raise RuntimeError("gateway is not in tenant mode")
        overlay = list(overlay)
        if tenant_id not in self.gw.tenants:
            raise KeyError(f"unknown tenant {tenant_id!r}")
        epochs: dict[int, int] = {}
        failures: dict[int, str] = {}
        async with self._spawn_lock:
            if self.durable is not None:
                # Journal before publishing: a failed append refuses the
                # reload and workers keep serving the old overlay.
                self.durable.set_overlay(tenant_id, overlay)
            self.gw.tenants[tenant_id] = overlay
            for worker in list(self._workers):
                try:
                    epochs[worker.worker_id] = await worker.control(
                        "snapshot", tenant_id, overlay
                    )
                    self.stats.snapshot_pushes += 1
                except WorkerFailure as exc:
                    failures[worker.worker_id] = exc.reason
                    self.stats.snapshot_push_failures += 1
                    worker.consecutive_failures += 1
        return {"tenant": tenant_id, "epochs": epochs, "failures": failures}

    # ------------------------------------------------------------------
    # Operator surface
    # ------------------------------------------------------------------

    def worker_pids(self) -> list[int]:
        """Live worker PIDs (the zombie-check hook for drain tests)."""
        return [w.pid for w in list(self._workers) if w.pid is not None]

    def resilience_report(self) -> dict:
        """Gateway counters + per-worker engine reports (best effort).

        The ``gateway`` section is the operator's view of the sidecar:
        what was accepted, what was shed and why, how many workers were
        replaced, how the drain went, and whether the bounded audit ring
        had to drop records (easy to miss under sustained attack floods).
        Callable from any thread but the loop's own (coroutines there
        await :meth:`resilience_report_async`): while the loop runs, the
        report is assembled on it, and worker reports queue on their
        channels like any other call.
        """
        loop = self._loop
        if loop is not None and loop.is_running():
            if asyncio._get_running_loop() is loop:
                raise RuntimeError(
                    "on the gateway loop, await resilience_report_async()"
                )
            return asyncio.run_coroutine_threadsafe(
                self.resilience_report_async(), loop
            ).result(_REPORT_TIMEOUT)
        return self._report([])

    async def resilience_report_async(self) -> dict:
        workers = []
        for worker in list(self._workers):
            entry: dict = {
                "worker_id": worker.worker_id,
                "pid": worker.pid,
                "alive": worker.is_alive(),
            }
            try:
                entry["engine"] = await worker.control("report")
            except WorkerFailure as exc:
                entry["error"] = exc.reason
            workers.append(entry)
        return self._report(workers)

    def _report(self, workers: list[dict]) -> dict:
        gateway: dict = self.stats.snapshot()
        gateway["drain"] = dict(self.drain_stats)
        gateway["audit_dropped_records"] = self.audit.dropped_records
        gateway["audit_capacity"] = self.audit.capacity
        gateway["pending"] = self._pending
        gateway["workers"] = len(self._workers)
        if self.gw.tenants is not None:
            gateway["tenancy"] = {
                "tenants": len(self.gw.tenants),
                "base_fragments": len(self.fragments),
                "snapshot_pushes": gateway["snapshot_pushes"],
                "snapshot_push_failures": gateway["snapshot_push_failures"],
            }
        if self.durable is not None:
            # DESIGN.md section 15: journal/checkpoint counters, replay
            # stats, and how the audit ring's churn maps onto the journal.
            durability = dict(self.durable.durability_report())
            # ``audit_persisted`` (journal-level, from the DurableState)
            # counts every journaled audit event; the ring-level counters
            # say how much of the ring's churn the journal backs.
            durability["audit_drops_recovered"] = self.audit.drops_recovered
            durability["audit_sink_failures"] = self.audit.sink_failures
            durability["corruption_refusals"] = self.corruption_refusals
            gateway["durability"] = durability
        return {"gateway": gateway, "workers": workers}


async def serve(
    gateway: AsyncGateway,
    *,
    handle_signals: bool = True,
    on_ready: Callable[[AsyncGateway], None] | None = None,
) -> int:
    """Run the gateway until SIGTERM/SIGINT, then drain gracefully.

    ``on_ready`` fires after the listeners are bound (ephemeral TCP ports
    are resolved by then).  Returns the process exit code (0 after a
    drain, clean or deadline-out -- in-flight work was resolved either way
    and no worker survived).
    """
    await gateway.start()
    if on_ready is not None:
        on_ready(gateway)
    stop_event = asyncio.Event()
    loop = asyncio.get_running_loop()
    if handle_signals:
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop_event.set)
    try:
        await stop_event.wait()
    finally:
        await gateway.stop()
        if handle_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.remove_signal_handler(signum)
    return 0


class GatewayThread:
    """Host a gateway on a background thread (sync tests and benches).

    The tier-1 suite has no asyncio plugin, so integration tests start the
    gateway here and talk to it with the sync
    :class:`~repro.service.client.GatewayClient`.
    """

    def __init__(self, gateway: AsyncGateway) -> None:
        self.gateway = gateway
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    def start(self, timeout: float = 30.0) -> "GatewayThread":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("gateway failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"gateway startup failed: {self._startup_error!r}"
            ) from self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self.gateway.start())
        except BaseException as exc:  # noqa: BLE001 - surfaced to starter
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            # Connection handlers for sockets the client never closed are
            # still pending; cancel and drain them while the loop is alive
            # so their cleanup (writer.close) does not fire post-close.
            pending = [t for t in asyncio.all_tasks(loop) if not t.done()]
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.run_until_complete(loop.shutdown_default_executor())
            loop.close()

    def run_coro(self, coro, timeout: float = 30.0):
        """Run a coroutine on the gateway loop from the calling thread."""
        assert self._loop is not None
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout)

    def stop(self, *, drain: bool = True, timeout: float = 30.0) -> bool:
        """Drain and stop the gateway, then stop the loop and join."""
        if self._loop is None or self._thread is None:
            return True
        if self._startup_error is None:
            drained = self.run_coro(self.gateway.stop(drain=drain), timeout)
        else:
            drained = True
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)
        return drained
