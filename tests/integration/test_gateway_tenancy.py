"""Integration suite for the multi-tenant gateway (DESIGN.md section 13).

End-to-end over real sockets and real worker processes:

1. **Per-tenant parity** -- each tenant's verdicts through the gateway are
   byte-identical (canonical verdict JSON) to a dedicated single-tenant
   engine built over ``base + that tenant's overlay``.
2. **Tenant routing isolation** -- a query only a tenant's own overlay can
   cover is blocked for that tenant and *not* covered for a sibling (no
   cross-tenant fragment leak), and an unregistered tenant id gets
   fail-closed verdicts, never another tenant's vocabulary.
3. **Warm snapshot handoff** -- ``reload_tenant`` pushes the new overlay
   to every live worker in place (no worker restart: same PIDs before and
   after), new verdicts reflect the new vocabulary, and the other
   tenant's verdicts are untouched.
"""

import asyncio
import os
import signal
import threading
import time

from repro.core import JozaConfig, JozaEngine
from repro.phpapp.context import CapturedInput, RequestContext
from repro.service import (
    AsyncGateway,
    GatewayClient,
    GatewayConfig,
    GatewayThread,
    GatewayWorker,
)
from repro.service.codec import encode_verdict, verdict_to_dict
from repro.service.worker import REASON_UNKNOWN_TENANT
from repro.testbed.concurrency import SWARM_FRAGMENTS

ALPHA_OVERLAY = [
    "SELECT slot FROM alpha_widgets WHERE slot_id=",
    "SELECT meta FROM alpha_meta WHERE post_id=",
]
BETA_OVERLAY = [
    "SELECT tag FROM beta_tags WHERE tag_name='",
]

#: (query, input values, is_attack) -- the Table IV families driven per
#: tenant, plus one overlay-specific probe each.
SHARED_MATRIX = [
    ("SELECT * FROM records WHERE ID=7 LIMIT 5", ["7"], False),
    (
        "SELECT name FROM users WHERE id=1 OR 1=1 LIMIT 1",
        ["1 OR 1=1"],
        True,
    ),
    (
        "SELECT * FROM records WHERE ID=7 UNION SELECT user_pass FROM users"
        " LIMIT 5",
        ["7 UNION SELECT user_pass FROM users"],
        True,
    ),
    (
        "SELECT name FROM users WHERE id=2; DROP TABLE records-- LIMIT 1",
        ["2; DROP TABLE records--"],
        True,
    ),
]

#: Benign query only alpha's overlay can cover: safe for alpha, blocked
#: for any tenant whose vocabulary lacks the fragment.
ALPHA_ONLY_PROBE = ("SELECT slot FROM alpha_widgets WHERE slot_id=7", ["7"])


def make_tenant_gateway(tmp_path, **overrides):
    kwargs = dict(
        unix_path=str(tmp_path / "gw.sock"),
        host=None,
        workers=2,
        max_deadline=5.0,
        tenants={
            "alpha": list(ALPHA_OVERLAY),
            "beta": list(BETA_OVERLAY),
        },
    )
    kwargs.update(overrides)
    return AsyncGateway(SWARM_FRAGMENTS, gateway=GatewayConfig(**kwargs))


def matrix_inputs(values):
    return [("get", f"p{i}", v) for i, v in enumerate(values)]


def dedicated_engine(overlay):
    return JozaEngine.from_fragments(list(SWARM_FRAGMENTS) + list(overlay))


def test_per_tenant_verdicts_byte_identical_to_dedicated_engine(tmp_path):
    gateway = make_tenant_gateway(tmp_path)
    thread = GatewayThread(gateway).start()
    try:
        for tenant, overlay in (
            ("alpha", ALPHA_OVERLAY),
            ("beta", BETA_OVERLAY),
        ):
            client = GatewayClient(
                unix_path=gateway.gw.unix_path, client_id=tenant
            )
            engine = dedicated_engine(overlay)
            try:
                for query, values, is_attack in SHARED_MATRIX:
                    inputs = matrix_inputs(values)
                    via_gateway = client.inspect(
                        [query], inputs=inputs, budget=5.0
                    )[0]
                    context = RequestContext(
                        inputs=[CapturedInput(s, n, v) for s, n, v in inputs]
                    )
                    direct = verdict_to_dict(
                        engine.inspect_batch([query], context)[0]
                    )
                    assert encode_verdict(via_gateway) == encode_verdict(
                        direct
                    ), f"tenant {tenant} parity broken for {query!r}"
                    assert via_gateway["safe"] is (not is_attack)
            finally:
                client.close()
    finally:
        assert thread.stop()


def test_tenant_overlay_isolation_and_unknown_tenant_fail_closed(tmp_path):
    gateway = make_tenant_gateway(tmp_path)
    thread = GatewayThread(gateway).start()
    try:
        query, values = ALPHA_ONLY_PROBE
        inputs = matrix_inputs(values)

        def verdict_for(tenant):
            client = GatewayClient(
                unix_path=gateway.gw.unix_path, client_id=tenant
            )
            try:
                return client.inspect([query], inputs=inputs, budget=5.0)[0]
            finally:
                client.close()

        # Only alpha's overlay covers this benign query: alpha passes it,
        # beta blocks it.  If beta's engine could see alpha's fragments
        # (a cross-tenant leak) it would pass too.
        alpha, beta = verdict_for("alpha"), verdict_for("beta")
        assert alpha["safe"]
        assert not beta["safe"]
        assert not beta["failsafe"]  # a real verdict, not a routing refusal
        ghost = verdict_for("ghost")
        assert not ghost["safe"]
        assert ghost["failsafe"]
        assert any(
            REASON_UNKNOWN_TENANT in reason
            for reason in ghost["failure_reasons"]
        )
        assert "tenant: ghost" in ghost["failure_reasons"]
    finally:
        assert thread.stop()


def test_reload_tenant_is_warm_and_isolated(tmp_path):
    gateway = make_tenant_gateway(tmp_path)
    thread = GatewayThread(gateway).start()
    try:
        pids_before = sorted(gateway.worker_pids())
        new_overlay = ["SELECT v2 FROM alpha_widgets_v2 WHERE slot_id="]
        result = thread.run_coro(gateway.reload_tenant("alpha", new_overlay))
        assert not result["failures"]
        assert len(result["epochs"]) == len(pids_before)
        # Warm handoff: the same worker processes keep serving.
        assert sorted(gateway.worker_pids()) == pids_before

        client = GatewayClient(
            unix_path=gateway.gw.unix_path, client_id="alpha"
        )
        try:
            query = "SELECT v2 FROM alpha_widgets_v2 WHERE slot_id=1 OR 1=1"
            verdict = client.inspect(
                [query], inputs=matrix_inputs(["1 OR 1=1"]), budget=5.0
            )[0]
        finally:
            client.close()
        engine = dedicated_engine(new_overlay)
        context = RequestContext(
            inputs=[CapturedInput("get", "p0", "1 OR 1=1")]
        )
        direct = verdict_to_dict(engine.inspect_batch([query], context)[0])
        assert encode_verdict(verdict) == encode_verdict(direct)
        assert not verdict["safe"]

        # Beta rides through the storm untouched.
        client = GatewayClient(
            unix_path=gateway.gw.unix_path, client_id="beta"
        )
        try:
            benign = client.inspect(
                ["SELECT * FROM records WHERE ID=7 LIMIT 5"],
                inputs=matrix_inputs(["7"]),
                budget=5.0,
            )[0]
        finally:
            client.close()
        assert benign["safe"]

        report = gateway.resilience_report()
        assert report["gateway"]["tenancy"]["snapshot_pushes"] == len(
            pids_before
        )
        worker_report = report["workers"][0]["engine"]
        assert worker_report["tenancy"]["handoff_swaps"] == 1
        assert worker_report["tenancy"]["tenants"] == 2
    finally:
        assert thread.stop()


def _alpha_epochs(report) -> dict:
    return {
        w["worker_id"]: w["engine"]["tenants"]["alpha"]["tenancy"]["epoch"]
        for w in report["workers"]
    }


def test_worker_killed_mid_reload_is_a_push_failure(tmp_path):
    """A worker that dies while ``reload_tenant`` awaits an earlier
    worker's push is retired before its own turn.  Its push must land in
    ``failures`` -- not abort the reload -- and every other worker still
    gets the new overlay."""
    gateway = make_tenant_gateway(tmp_path, workers=3)
    thread = GatewayThread(gateway).start()
    try:
        before = _alpha_epochs(gateway.resilience_report())
        first, victim = gateway._workers[0], gateway._workers[-1]
        new_overlay = ["SELECT v2 FROM alpha_widgets_v2 WHERE slot_id="]

        async def kill_during_reload():
            # The first push queues on a stopped worker, so the reload is
            # parked there while the victim's death is noticed.
            os.kill(first.pid, signal.SIGSTOP)
            reload = asyncio.ensure_future(
                gateway.reload_tenant("alpha", new_overlay)
            )
            await asyncio.sleep(0)
            assert gateway.gw.tenants["alpha"] == new_overlay  # in progress
            os.kill(victim.pid, signal.SIGKILL)
            while victim.failure is None:
                await asyncio.sleep(0.01)
            os.kill(first.pid, signal.SIGCONT)
            return await reload

        result = thread.run_coro(kill_during_reload())
        assert set(result["failures"]) == {victim.worker_id}
        assert set(result["epochs"]) == set(before) - {victim.worker_id}
        assert all(
            epoch > before[worker_id]
            for worker_id, epoch in result["epochs"].items()
        )

        deadline = time.monotonic() + 20.0
        while len(gateway.worker_pids()) < 3 and time.monotonic() < deadline:
            time.sleep(0.05)
        report = gateway.resilience_report()
        assert report["gateway"]["worker_replacements"] == 1
        assert report["gateway"]["snapshot_push_failures"] == 1
        assert victim.pid not in gateway.worker_pids()
        assert all("engine" in w for w in report["workers"]), report
    finally:
        assert thread.stop()


def _engine_encodings(engine, query, inputs, rounds=3):
    """Every canonical encoding an engine gives one query, cold and warm
    (cached verdicts elide markings, so a worker's verdict is one of
    these depending on how warm it is)."""
    context = RequestContext(inputs=[CapturedInput(s, n, v) for s, n, v in inputs])
    return {
        encode_verdict(verdict_to_dict(engine.inspect_batch([query], context)[0]))
        for _ in range(rounds)
    }


def test_control_ops_during_traffic_keep_worker_channels_in_sync(tmp_path):
    """reload_tenant and resilience_report() queue on the same worker
    channels that two connections are driving inspects through: no call
    may see another's reply, so there are zero worker failures, every
    verdict matches a dedicated engine, and every worker's epoch moves."""
    gateway = make_tenant_gateway(tmp_path)
    thread = GatewayThread(gateway).start()
    expected = {
        tenant: {
            query: _engine_encodings(
                dedicated_engine(overlay), query, matrix_inputs(values)
            )
            for query, values, _ in SHARED_MATRIX
        }
        for tenant, overlay in (("alpha", ALPHA_OVERLAY), ("beta", BETA_OVERLAY))
    }
    stop = threading.Event()
    seen: list[tuple[str, str, dict]] = []
    errors: list[BaseException] = []

    def drive(tenant: str) -> None:
        client = GatewayClient(unix_path=gateway.gw.unix_path, client_id=tenant)
        try:
            while not stop.is_set():
                for query, values, _ in SHARED_MATRIX:
                    verdict = client.inspect(
                        [query], inputs=matrix_inputs(values), budget=5.0
                    )[0]
                    seen.append((tenant, query, verdict))
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)
        finally:
            client.close()

    drivers = [
        threading.Thread(target=drive, args=(tenant,))
        for tenant in ("alpha", "beta")
    ]
    try:
        before = _alpha_epochs(gateway.resilience_report())
        for driver in drivers:
            driver.start()
        reloads = []
        for _ in range(3):
            report = gateway.resilience_report()
            assert all("engine" in w for w in report["workers"]), report
            reloads.append(
                thread.run_coro(gateway.reload_tenant("alpha", ALPHA_OVERLAY))
            )
            time.sleep(0.02)
        stop.set()
        for driver in drivers:
            driver.join(timeout=30.0)
        assert not errors, errors
        assert all(not result["failures"] for result in reloads)
        last = reloads[-1]["epochs"]
        assert set(last) == set(before)
        assert all(last[worker_id] > before[worker_id] for worker_id in before)

        report = gateway.resilience_report()
        assert report["gateway"]["worker_failures"] == 0
        assert report["gateway"]["worker_replacements"] == 0
        assert report["gateway"]["snapshot_pushes"] == 3 * len(before)
        assert _alpha_epochs(report) == last
        assert len(seen) >= 2 * len(SHARED_MATRIX)
        for tenant, query, verdict in seen:
            assert encode_verdict(verdict) in expected[tenant][query], (
                f"tenant {tenant} parity broken for {query!r}"
            )
    finally:
        stop.set()
        assert thread.stop()


def test_standalone_worker_blocking_inspect(tmp_path):
    """Without a gateway loop, ``inspect`` blocks on the same channel code:
    parity, unknown tenant fail-closed, reuse, and a clean close."""
    worker = GatewayWorker(
        0,
        SWARM_FRAGMENTS,
        JozaConfig(),
        tenants={"alpha": list(ALPHA_OVERLAY)},
    )
    try:
        engine = dedicated_engine(ALPHA_OVERLAY)
        queries = [query for query, _, _ in SHARED_MATRIX]
        values = sorted({v for _, vals, _ in SHARED_MATRIX for v in vals})
        inputs = matrix_inputs(values)
        verdicts = worker.inspect("alpha", "/", inputs, queries, 5.0)
        context = RequestContext(
            inputs=[CapturedInput(s, n, v) for s, n, v in inputs]
        )
        direct = engine.inspect_batch(queries, context)
        assert [encode_verdict(v) for v in verdicts] == [
            encode_verdict(verdict_to_dict(v)) for v in direct
        ]
        ghost = worker.inspect("ghost", "/", inputs, queries[:1], 5.0)[0]
        assert ghost["failsafe"] and "tenant: ghost" in ghost["failure_reasons"]
        assert worker.failure is None
        assert worker.inspect("alpha", "/", inputs, queries[:1], 5.0)[0]["query"]
    finally:
        worker.close()
    assert not worker.is_alive()
