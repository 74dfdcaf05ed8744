"""Gateway worker processes: one Joza engine (or tenant fleet) per child.

Each :class:`GatewayWorker` is one long-lived child process hosting a
:class:`~repro.core.JozaEngine` or, in multi-tenant mode, a
:class:`~repro.tenancy.TenantRegistry` with one engine per tenant; the
wire ``client_id`` picks the tenant, and an unknown tenant gets
fail-closed verdicts, never another tenant's vocabulary.  Analysis
parallelism comes from processes; the gateway only shuffles bytes.

The channel is a socket pair carrying ``u32 length || op || body``
messages (DESIGN.md section 12).  The parent sends ``I`` + a gateway
request frame or ``C`` + a pickled control tuple (``snapshot`` /
``report``); the child answers in order, ``K`` + body or ``E`` + reason.
An inspect's body is ``u16 n_unsafe || u16 indices || gateway reply
frame``: the child encodes each verdict's canonical JSON once and the
gateway forwards that frame unchanged.

A call either returns its reply or raises :class:`WorkerFailure`.  An
``E`` reply fails one call and keeps the channel; EOF, silence past the
call's timeout or a corrupt reply kill it, fail every pending call, and
the child is reaped with SIGKILL.
"""

from __future__ import annotations

import asyncio
import collections
import multiprocessing
import pickle
import socket
import struct
import time
import weakref
from typing import Mapping, Sequence

from ..core.engine import AttackRecord, JozaEngine
from ..core.policy import JozaConfig
from ..core.resilience import Deadline
from ..phpapp.context import CapturedInput, RequestContext
from ..pti import wire
from ..pti.fragments import FragmentStore
from .codec import decode_verdict, encode_verdict, failsafe_dict, verdict_to_dict

__all__ = [
    "GatewayWorker",
    "WorkerFailure",
    "REASON_UNKNOWN_TENANT",
    "_gateway_worker_loop",
]

#: Refusal reason for inspects naming a tenant the worker does not host.
REASON_UNKNOWN_TENANT = "worker: unknown tenant"

_OP_INSPECT = b"I"
_OP_CONTROL = b"C"
_REPLY_OK = b"K"
_REPLY_ERR = b"E"
_U16 = struct.Struct("<H")
_PREFIX = wire.PREFIX
#: Largest channel message: a maximal gateway frame plus op and index
#: bytes.  Anything bigger is a corrupt length prefix.
_MAX_MESSAGE = wire.MAX_FRAME + 1 + _U16.size * (wire.MAX_BATCH + 1)
#: Receive size: below the allocator's mmap threshold, so a recv costs
#: no mmap/munmap pair.
_RECV_CHUNK = 1 << 16
#: Expected result type of each control op (anything else is corrupt).
_CONTROL_RESULTS = {"snapshot": int, "report": dict}

#: Parent ends of live worker channels in this process.  A forked child
#: closes its inherited copies, so it sees EOF when the gateway dies, and
#: a sibling never keeps another worker's channel open.
_PARENT_ENDS: "weakref.WeakSet[socket.socket]" = weakref.WeakSet()


class WorkerFailure(Exception):
    """A worker call failed (hang, crash, corrupt reply); resolve fail-closed."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def _take_message(buf: bytearray) -> bytes | None:
    """Pop one complete message off ``buf``; None until one has arrived."""
    if len(buf) < _PREFIX.size:
        return None
    (length,) = _PREFIX.unpack_from(buf)
    if length == 0 or length > _MAX_MESSAGE:
        raise ValueError(f"bad channel message length {length}")
    end = _PREFIX.size + length
    if len(buf) < end:
        return None
    message = bytes(buf[_PREFIX.size : end])
    del buf[:end]
    return message


def _frame(op: bytes, body: bytes) -> bytes:
    return _PREFIX.pack(len(body) + 1) + op + body


# ----------------------------------------------------------------------
# Child side
# ----------------------------------------------------------------------


class _EngineFleet:
    """Child-side engine set: one engine over a :class:`FragmentStore`,
    or (tenant mode) a :class:`~repro.tenancy.TenantRegistry` over the
    worker's fragments as shared base and one engine per tenant store."""

    def __init__(
        self,
        fragments,
        config: JozaConfig,
        tenants: Mapping[str, Sequence[str]] | None,
    ) -> None:
        self.registry = None
        self.engines: dict[str, JozaEngine] = {}
        self.default: JozaEngine | None = None
        if tenants is None:
            self.default = JozaEngine(FragmentStore(fragments), config)
            return
        from ..tenancy import TenantRegistry

        self.registry = TenantRegistry(fragments)
        for tenant_id, overlay in tenants.items():
            store = self.registry.add_tenant(tenant_id, overlay)
            self.engines[tenant_id] = JozaEngine(store, config)

    def route(self, client_id: str) -> JozaEngine | None:
        """The engine for one client; None = unknown tenant (fail closed)."""
        if self.registry is None:
            return self.default
        return self.engines.get(client_id)

    def snapshot(self, tenant_id: str, overlay) -> int:
        """Warm-handoff reload of one tenant's overlay; returns new epoch."""
        if self.registry is None:
            raise RuntimeError("snapshot op requires tenant mode")
        if tenant_id not in self.registry:
            raise KeyError(f"unknown tenant {tenant_id!r}")
        return self.registry.reload_tenant(tenant_id, overlay, warm=True)

    def report(self) -> dict:
        if self.registry is None:
            assert self.default is not None
            return self.default.resilience_report()
        report: dict = {"tenancy": self.registry.tenancy_report()}
        report["tenants"] = {
            tenant_id: engine.resilience_report()
            for tenant_id, engine in self.engines.items()
        }
        return report


def _gateway_worker_loop(
    sock: socket.socket,
    fragments,
    config: JozaConfig,
    pace_seconds: float,
    tenants: Mapping[str, Sequence[str]] | None = None,
) -> None:
    """Child entry point: answer channel messages in order until EOF.

    An ``E`` reply means the *whole* call must be resolved fail-closed by
    the parent; the child never invents partial results.
    """
    for parent_end in list(_PARENT_ENDS):  # copies inherited by fork
        parent_end.close()
    fleet = _EngineFleet(fragments, config, tenants)
    buf = bytearray()
    try:
        while True:
            try:
                message = _take_message(buf)
                if message is None:
                    chunk = sock.recv(_RECV_CHUNK)
                    if not chunk:
                        break
                    buf += chunk
                    continue
            except (OSError, ValueError):
                break
            try:
                reply = _handle(fleet, message, pace_seconds)
            except Exception as exc:  # noqa: BLE001 - child must answer
                reply = _REPLY_ERR + f"{type(exc).__name__}: {exc}".encode(
                    "utf-8", "replace"
                )
            try:
                sock.sendall(_PREFIX.pack(len(reply)) + reply)
            except OSError:
                break
    finally:
        sock.close()


def _handle(fleet: _EngineFleet, message: bytes, pace_seconds: float) -> bytes:
    op, body = message[:1], message[1:]
    if op == _OP_INSPECT:
        return _REPLY_OK + _inspect(fleet, body, pace_seconds)
    if op == _OP_CONTROL:
        name, *args = pickle.loads(body)
        result = {"snapshot": fleet.snapshot, "report": fleet.report}[name](*args)
        return _REPLY_OK + pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
    return _REPLY_ERR + f"unknown worker op: {op!r}".encode()


def _inspect(fleet: _EngineFleet, frame: bytes, pace_seconds: float) -> bytes:
    """One gateway request frame -> unsafe indices + gateway reply frame."""
    request = wire.unpack_gateway_request(frame)
    engine = fleet.route(request.client_id)
    if engine is None:
        # Tenant mode and the client named a tenant this worker does not
        # host.  Fail closed per query -- routing to any other tenant's
        # vocabulary would be a cross-tenant leak.
        reason = f"{REASON_UNKNOWN_TENANT}: {request.client_id!r}"
        payloads = [
            encode_verdict(failsafe_dict(q, reason, tenant=request.client_id))
            for q in request.queries
        ]
        unsafe = list(range(len(payloads)))
    else:
        if pace_seconds > 0.0:
            # Models per-request service time so throughput benches show
            # cross-process overlap even on a single-core runner.
            time.sleep(pace_seconds)
        context = RequestContext(
            inputs=[CapturedInput(s, n, v) for s, n, v in request.inputs],
            path=request.path,
        )
        verdicts = engine.inspect_batch(
            request.queries, context, Deadline(request.budget)
        )
        unsafe = []
        for index, verdict in enumerate(verdicts):
            if verdict.safe:
                continue
            unsafe.append(index)
            if verdict.detected_by():
                engine.stats.bump(attacks_blocked=1)
            engine.attack_log.append(
                AttackRecord(
                    query=verdict.query,
                    verdict=verdict,
                    request_path=request.path,
                    client_id=request.client_id or None,
                )
            )
        payloads = [encode_verdict(verdict_to_dict(v)) for v in verdicts]
    header = struct.pack(f"<{len(unsafe) + 1}H", len(unsafe), *unsafe)
    return header + wire.pack_gateway_reply(payloads)


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


class GatewayWorker:
    """Parent-side handle on one engine child process.

    All channel I/O runs on an event loop.  A gateway attaches the
    worker to its loop (:meth:`attach`) and uses :meth:`call` and the
    coroutines built on it; standalone, the blocking :meth:`inspect` runs
    the same coroutine on a private loop.  Nothing takes a lock: one loop
    owns the socket.
    """

    def __init__(
        self,
        worker_id: int,
        fragments,
        config: JozaConfig,
        *,
        pace_seconds: float = 0.0,
        recv_timeout: float = 10.0,
        recv_grace: float = 0.25,
        tenants: Mapping[str, Sequence[str]] | None = None,
    ) -> None:
        self.worker_id = worker_id
        self.recv_timeout = recv_timeout
        self.recv_grace = recv_grace
        #: Consecutive failed calls (reset on success); the gateway
        #: replaces the worker when this reaches its ``replace_after``.
        self.consecutive_failures = 0
        #: Why the channel died; None while it is healthy.
        self.failure: str | None = None
        self._buf = bytearray()
        self._out = bytearray()
        self._loop = None
        self._on_dead = None
        #: Calls awaiting a reply, oldest first, with their timeouts; only
        #: the head's timer runs.
        self._pending: collections.deque = collections.deque()
        self._timer = None
        parent_end, child_end = socket.socketpair()
        _PARENT_ENDS.add(parent_end)
        self._sock = parent_end
        if tenants is not None:
            tenants = {tenant: list(overlay) for tenant, overlay in tenants.items()}
        self._process = multiprocessing.Process(
            target=_gateway_worker_loop,
            args=(child_end, list(fragments), config, pace_seconds, tenants),
            daemon=True,
        )
        try:
            self._process.start()
        finally:
            child_end.close()

    @property
    def pid(self) -> int | None:
        return self._process.pid

    def is_alive(self) -> bool:
        return self._process.is_alive()

    # ------------------------------------------------------------------
    # Calls (coroutines on the owning loop)
    # ------------------------------------------------------------------

    async def inspect_frame(
        self, frame: bytes, count: int, budget: float | None
    ) -> tuple[bytes, list[int]]:
        """Inspect one request frame: (gateway reply frame, unsafe indices).

        Unanswered past the budget plus ``recv_grace``, the worker counts
        as hung.
        """
        timeout = self.recv_timeout
        if budget is not None:
            timeout = max(budget, 0.0) + self.recv_grace
        body = await self.call(_OP_INSPECT, frame, timeout)
        try:
            (n_unsafe,) = _U16.unpack_from(body)
            unsafe = list(struct.unpack_from(f"<{n_unsafe}H", body, _U16.size))
            reply = body[_U16.size * (n_unsafe + 1) :]
            if wire.peek_kind(reply) != wire.KIND_GW_REPLY:
                raise ValueError("not a gateway reply frame")
            (replied,) = _U16.unpack_from(reply, 4)  # the header's count
        except (struct.error, ValueError, wire.WireFormatError) as exc:
            raise self._corrupt(f"corrupt inspect reply: {exc}") from exc
        if replied != count or any(i >= count for i in unsafe):
            raise self._corrupt(f"returned {replied} verdicts for {count} queries")
        return reply, unsafe

    async def control(self, *request):
        """Control op: ``("snapshot", tenant, overlay)`` -> the tenant's new
        epoch, ``("report",)`` -> the child's report dict."""
        body = await self.call(_OP_CONTROL, pickle.dumps(request), self.recv_timeout)
        try:
            result = pickle.loads(body)
        except Exception as exc:  # noqa: BLE001 - any damage is corrupt
            raise self._corrupt(f"corrupt {request[0]} reply: {exc}") from exc
        if not isinstance(result, _CONTROL_RESULTS[request[0]]):
            raise self._corrupt(f"corrupt {request[0]} reply: {type(result)}")
        return result

    def _corrupt(self, reason: str) -> WorkerFailure:
        """A reply that cannot be trusted: the channel is done."""
        self._die(f"worker {self.worker_id} {reason}")
        return WorkerFailure(self.failure)

    # ------------------------------------------------------------------
    # Blocking call (standalone worker)
    # ------------------------------------------------------------------

    def inspect(
        self,
        client_id: str,
        path: str,
        inputs,
        queries,
        budget: float | None,
    ) -> list[dict]:
        """Analyse one batch; returns one verdict dict per query, in order.

        Runs :meth:`inspect_frame` on a private loop, so the worker must
        not be attached to another one; a dead channel reaps the child.
        """
        if self.failure is not None:
            raise WorkerFailure(self.failure)
        if self._loop is not None:
            raise RuntimeError("worker channel is owned by an event loop")
        frame = wire.pack_gateway_request(
            list(queries),
            client_id=client_id,
            path=path,
            inputs=list(inputs),
            budget=budget,
        )
        loop = asyncio.new_event_loop()
        self.attach(loop, None)
        try:
            reply, _ = loop.run_until_complete(
                self.inspect_frame(frame, len(queries), budget)
            )
        finally:
            self.detach()
            loop.close()
            if self.failure is not None:
                self._reap()
        return [decode_verdict(p) for p in wire.unpack_gateway_reply(reply)]

    # ------------------------------------------------------------------
    # The channel on a loop
    # ------------------------------------------------------------------

    def attach(self, loop, on_dead) -> None:
        """Hand the socket to ``loop``; ``on_dead(worker)`` fires once if
        the channel dies (EOF, silence, corrupt reply)."""
        self._sock.setblocking(False)
        self._loop = loop
        self._on_dead = on_dead
        loop.add_reader(self._sock.fileno(), self._on_readable)

    def detach(self, reason: str = "channel closed") -> None:
        """Take the socket back from the loop; pending calls fail."""
        loop, self._loop = self._loop, None
        if loop is None:
            return
        loop.remove_reader(self._sock.fileno())
        loop.remove_writer(self._sock.fileno())
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        failure = WorkerFailure(self.failure or f"worker {self.worker_id} {reason}")
        while self._pending:
            future, _ = self._pending.popleft()
            if not future.done():
                future.set_exception(failure)

    def call(self, op: bytes, body: bytes, timeout: float):
        """Send one message; a future for the reply body.  A channel that
        is dead or detached (retired, stopped) raises WorkerFailure."""
        if self._loop is None:
            raise WorkerFailure(
                self.failure or f"worker {self.worker_id} channel closed"
            )
        future = self._loop.create_future()
        self._pending.append((future, timeout))
        if len(self._pending) == 1:
            self._arm(timeout)
        self._write(_frame(op, body))
        return future

    def _arm(self, timeout: float) -> None:
        self._timer = self._loop.call_later(
            timeout, self._die, f"worker {self.worker_id} silent for {timeout:.3f}s"
        )

    def _write(self, data: bytes) -> None:
        """Send now; what the socket buffer cannot take waits for a
        writable callback, behind anything already waiting."""
        if not self._out:
            try:
                sent = self._sock.send(data)
            except (BlockingIOError, InterruptedError):
                sent = 0
            except OSError as exc:
                self._die(f"worker {self.worker_id} pipe failure: {exc!r}")
                return
            if sent == len(data):
                return
            self._loop.add_writer(self._sock.fileno(), self._on_writable)
            data = data[sent:]
        self._out += data

    def _on_writable(self) -> None:
        try:
            del self._out[: self._sock.send(self._out)]
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            self._die(f"worker {self.worker_id} pipe failure: {exc!r}")
            return
        if not self._out:
            self._loop.remove_writer(self._sock.fileno())

    def _on_readable(self) -> None:
        try:
            chunk = self._sock.recv(_RECV_CHUNK)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            self._die(f"worker {self.worker_id} pipe failure: {exc!r}")
            return
        if not chunk:
            self._die(f"worker {self.worker_id} pipe failure: EOF")
            return
        self._buf += chunk
        while self._loop is not None:
            try:
                message = _take_message(self._buf)
                if message is not None and (
                    not self._pending or message[:1] not in (_REPLY_OK, _REPLY_ERR)
                ):
                    raise ValueError(f"unexpected reply {message[:16]!r}")
            except ValueError as exc:
                self._die(f"worker {self.worker_id} corrupt reply: {exc}")
                return
            if message is None:
                return
            future, _ = self._pending.popleft()
            self._timer.cancel()
            self._timer = None
            if self._pending:
                self._arm(self._pending[0][1])
            if future.done():  # the caller gave up (cancelled)
                continue
            if message[:1] == _REPLY_OK:
                future.set_result(message[1:])
            else:  # the child survived its own error: the channel stays up
                reason = message[1:].decode("utf-8", "replace")
                future.set_exception(WorkerFailure(f"worker {self.worker_id}: {reason}"))

    def _die(self, reason: str) -> None:
        """The channel is unusable: fail every pending call, tell the owner."""
        if self.failure is not None:
            return
        self.failure = reason
        on_dead = self._on_dead
        self.detach()
        if on_dead is not None:
            on_dead(self)

    # ------------------------------------------------------------------
    # Teardown (blocking; detach() first when attached)
    # ------------------------------------------------------------------

    def _reap(self) -> None:
        """Hard teardown: close the channel, SIGKILL, bounded join."""
        self._sock.close()
        self._process.join(timeout=0.05)
        if self._process.is_alive():
            self._process.kill()
            self._process.join(timeout=2.0)

    def kill(self) -> None:
        """SIGKILL the child (chaos harness hook); no graceful anything."""
        if self._process.is_alive():
            self._process.kill()
            self._process.join(timeout=1.0)

    def close(self, graceful_timeout: float = 1.0) -> None:
        """Graceful shutdown: EOF on the channel, bounded join, escalate."""
        try:
            self._sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        self._process.join(timeout=graceful_timeout)
        self._reap()
