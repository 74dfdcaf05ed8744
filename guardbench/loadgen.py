"""Gateway processes and the load phases that drive them.

Each :class:`GatewayProcess` is a real ``python -m repro serve`` (or the
traced launcher running the same entry point) with default workers, a
fresh ``--state-dir`` and its own unix socket.  The gateway never shares
an interpreter with the client: a thread of the client process would
share its GIL and inflate every round trip.

The phases talk to it with the public :class:`~repro.service.GatewayClient`,
one query per frame, at most two connections (the box has two CPUs):

- :func:`serial` -- one connection, closed loop;
- :func:`peak` -- two connections, closed loop, verdicts per second;
- :func:`paced` -- open loop at a fixed rate over two connections, each
  query timed from its due time, so a stall also charges the queries
  queued behind it.

Each call runs one slice of a phase: it sends items from ``start`` on,
appends to a :class:`PhaseResult` and returns the next unsent index, so
slices of different phases can take turns on one gateway without ever
resending an item.  Records are ``(index, verdict or None, latency
seconds)``; ``None`` marks a query with no verdict at all
(``GatewayError``), and a failsafe verdict (shed, worker failure) is not a
real verdict either.  Both count as infinite latency.

The client's cyclic garbage collector is off while a phase runs: the
verdicts a phase keeps would otherwise make every full collection a
multi-millisecond client stall charged to the gateway.
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from repro.service import GatewayClient, GatewayError

__all__ = [
    "GatewayProcess",
    "PhaseResult",
    "serial",
    "peak",
    "paced",
    "percentile",
]

#: Seconds a gateway gets to print its listening line.
START_TIMEOUT = 60.0
#: Seconds a gateway gets to drain and exit after SIGTERM.
STOP_TIMEOUT = 20.0


def _inspect(client: GatewayClient, item) -> dict | None:
    try:
        return client.inspect([item.query], path=item.path, inputs=item.inputs)[0]
    except GatewayError:
        return None


def _failed(verdict: dict | None) -> bool:
    return verdict is None or bool(verdict.get("failsafe"))


@dataclass
class PhaseResult:
    name: str
    records: list[tuple[int, dict | None, float]] = field(default_factory=list)
    elapsed: float = 0.0
    #: Paced phase only: seconds each send started after its due time.
    lateness: list[float] = field(default_factory=list)
    #: True when the phase ran out of trace items before its time was up.
    exhausted: bool = False

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(_failed(verdict) for __, verdict, __ in self.records)

    @classmethod
    def merge(cls, parts: list["PhaseResult"]) -> "PhaseResult":
        merged = cls(parts[0].name)
        for part in parts:
            merged.records.extend(part.records)
            merged.lateness.extend(part.lateness)
            merged.elapsed += part.elapsed
            merged.exhausted |= part.exhausted
        return merged

    def latencies(self) -> list[float]:
        """Sorted latencies, failures as infinity."""
        return sorted(
            math.inf if _failed(verdict) else latency
            for __, verdict, latency in self.records
        )


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of sorted ``values``."""
    if not values:
        return math.inf
    rank = max(1, math.ceil(q / 100.0 * len(values)))
    return values[rank - 1]


class GatewayProcess:
    """One gateway process, from spawn to the first verdict to drain."""

    def __init__(
        self,
        run_dir: str,
        name: str,
        fragments_file: str,
        env: dict[str, str],
        launcher: list[str] | None = None,
    ) -> None:
        self.socket_path = os.path.join(run_dir, f"{name}.sock")
        state_dir = os.path.join(run_dir, f"{name}.state")
        entry = launcher if launcher is not None else ["-m", "repro"]
        self.argv = [
            sys.executable,
            *entry,
            "serve",
            "--unix",
            self.socket_path,
            "--fragments-file",
            fragments_file,
            "--state-dir",
            state_dir,
        ]
        self.env = env
        self.process: subprocess.Popen | None = None
        self.setup_seconds = math.nan

    def start(self, first_item) -> "GatewayProcess":
        """Spawn and wait for the first verdict; sets ``setup_seconds``."""
        t0 = time.perf_counter()
        self.process = subprocess.Popen(
            self.argv, stdout=subprocess.PIPE, env=self.env
        )
        self._await_listening()
        with self.client() as client:
            verdict = _inspect(client, first_item)
        self.setup_seconds = time.perf_counter() - t0
        if _failed(verdict):
            raise RuntimeError(f"gateway gave no first verdict: {verdict!r}")
        return self

    def _await_listening(self) -> None:
        assert self.process is not None and self.process.stdout is not None
        deadline = time.monotonic() + START_TIMEOUT
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            ready, __, __ = select.select([self.process.stdout], [], [], max(remaining, 0))
            if not ready:
                raise RuntimeError("gateway did not start listening in time")
            chunk = os.read(self.process.stdout.fileno(), 1)
            if not chunk:
                raise RuntimeError(
                    f"gateway exited during start-up (code {self.process.wait()})"
                )
            line += chunk
        if not line.startswith(b"listening on unix:"):
            raise RuntimeError(f"unexpected gateway banner: {line!r}")

    def client(self) -> GatewayClient:
        return GatewayClient(unix_path=self.socket_path, timeout=30.0)

    def pids(self) -> list[int]:
        """The gateway process and every descendant (its workers)."""
        assert self.process is not None
        found = [self.process.pid]
        for pid in found:
            task_dir = f"/proc/{pid}/task"
            try:
                tasks = os.listdir(task_dir)
            except OSError:
                continue
            for task in tasks:
                try:
                    with open(f"{task_dir}/{task}/children") as handle:
                        found.extend(int(child) for child in handle.read().split())
                except OSError:
                    continue
        return found

    def signal_all(self, signum: int) -> None:
        for pid in self.pids():
            try:
                os.kill(pid, signum)
            except ProcessLookupError:
                pass

    def pss_mb(self) -> float:
        """Summed PSS of the gateway and its workers, in MB (10^6 bytes)."""
        total_kib = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/smaps_rollup") as handle:
                    for line in handle:
                        if line.startswith("Pss:"):
                            total_kib += int(line.split()[1])
                            break
            except OSError:
                continue
        return total_kib * 1024 / 1e6

    def stop(self) -> int:
        """SIGTERM (graceful drain), wait, kill on timeout; exit code."""
        if self.process is None:
            return 0
        if self.process.returncode is not None:
            return self.process.returncode
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        return self.process.returncode


@contextlib.contextmanager
def _collector_paused():
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.collect()


def serial(gateway, items, start, seconds, result) -> int:
    """One connection, closed loop from ``items[start]``; next free index."""
    records = result.records
    index = start
    with _collector_paused(), gateway.client() as client:
        t_start = time.perf_counter()
        stop_at = t_start + seconds
        while index < len(items):
            t0 = time.perf_counter()
            if t0 >= stop_at:
                break
            verdict = _inspect(client, items[index])
            records.append((index, verdict, time.perf_counter() - t0))
            index += 1
        else:
            result.exhausted = True
        result.elapsed += time.perf_counter() - t_start
    return index


def _run_threads(targets) -> None:
    """Run each target on its own thread; re-raise the first error."""
    errors: list[BaseException] = []

    def guarded(target) -> None:
        try:
            target()
        except BaseException as exc:  # re-raised below, on the caller
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(t,)) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def peak(gateway, items, start, seconds, result, connections=2) -> int:
    """``connections`` closed loops sharing one item cursor; next free index."""
    lock = threading.Lock()
    cursor = iter(range(start, len(items)))
    taken = [start]
    t_start = time.perf_counter()
    stop_at = t_start + seconds

    def loop() -> None:
        local = []
        with gateway.client() as client:
            while True:
                t0 = time.perf_counter()
                if t0 >= stop_at:
                    break
                with lock:
                    index = next(cursor, None)
                    if index is not None:
                        taken[0] = index + 1
                if index is None:
                    result.exhausted = True
                    break
                verdict = _inspect(client, items[index])
                local.append((index, verdict, time.perf_counter() - t0))
        with lock:
            result.records.extend(local)

    with _collector_paused():
        _run_threads([loop] * connections)
    result.elapsed += time.perf_counter() - t_start
    return taken[0]


def paced(gateway, items, start, seconds, result, rate, connections=2) -> int:
    """Open loop: item ``start + i`` is due at ``t0 + i / rate``.

    Connection ``c`` sends every ``connections``-th item from offset
    ``c``; a send that starts late (the connection was still busy, or the
    sleep overslept) records its lateness, and every latency runs from
    the due time.  Returns the next free index.
    """
    count = min(len(items) - start, int(seconds * rate))
    if count < int(seconds * rate):
        result.exhausted = True
    lock = threading.Lock()
    t_start = time.perf_counter() + 0.01

    def loop(offset: int) -> None:
        local, late = [], []
        with gateway.client() as client:
            for i in range(offset, count, connections):
                due = t_start + i / rate
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                verdict = _inspect(client, items[start + i])
                local.append((start + i, verdict, time.perf_counter() - due))
                late.append(sent - due)
        with lock:
            result.records.extend(local)
            result.lateness.extend(late)

    with _collector_paused():
        _run_threads([lambda offset=c: loop(offset) for c in range(connections)])
    result.elapsed += time.perf_counter() - t_start
    return start + count
