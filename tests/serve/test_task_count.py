"""Tasks created and timers armed per served request: zero of each,
direct and through the gateway.

Every serve-tier bound is a ``repro.serve.protocol.deadline`` scope,
which runs the await it covers in the task that is already running;
an ``asyncio.wait_for`` would run it in a Task of its own.  So once a
connection is up and keyed, a request's reads, handler and writes all
run in tasks that already exist: the client's, the server's
connection loop and worker and, through the gateway, its connection
loop and upstream pump.  A counting task factory pins that count at
zero.

Each of those tasks keeps one deadline and at most one armed timer,
which a scope re-arms only to move it earlier.  Once every task has
armed once, back-to-back requests arm no timer at all, where one
``asyncio.timeout`` scope per bound armed 9 per request direct and 17
through the gateway.  A counting ``loop.call_at`` pins that at zero.
"""

import asyncio
from asyncio import futures

import pytest

from repro.aes import gcm, modes
from repro.serve.client import CryptoClient, RetryPolicy
from repro.serve.protocol import CTR_NONCE_BYTES, GCM_IV_BYTES, Mode, Status
from tests.serve.test_gateway import _backend, _gateway

KEY = bytes(range(16))
REQUESTS = 20
ARM_REQUESTS = 200


def _payloads():
    nonce, iv = bytes(CTR_NONCE_BYTES), bytes(range(GCM_IV_BYTES))
    ctr_data, gcm_data = bytes(1024), bytes(range(256)) * 64
    ciphertext, tag = gcm.gcm_encrypt(KEY, iv, gcm_data)
    return [
        (Mode.CTR, nonce + ctr_data,
         modes.ctr_xcrypt(KEY, nonce, ctr_data)),
        (Mode.GCM, iv + gcm_data, ciphertext + tag),
    ]


@pytest.mark.parametrize("through_gateway", [False, True],
                         ids=["direct", "gateway"])
def test_served_requests_create_no_tasks(through_gateway):
    """After connect, LOAD_KEY and one warm-up request, 20 CTR 1 KiB
    and 20 GCM 16 KiB encrypts create no Task at all."""
    payloads = _payloads()

    async def scenario():
        backend = await _backend()
        gateway = await _gateway([backend]) if through_gateway else None
        host, port = (gateway or backend).address
        created = []

        def counting(loop, coro, **kwargs):
            created.append(coro)
            return asyncio.Task(coro, loop=loop, **kwargs)

        loop = asyncio.get_running_loop()
        try:
            async with CryptoClient(
                host, port, retry=RetryPolicy(attempts=1)
            ) as client:
                assert (await client.load_key(KEY)).status is Status.OK
                mode, payload, expected = payloads[0]
                assert (await client.encrypt(mode, payload)).payload \
                    == expected
                loop.set_task_factory(counting)
                try:
                    for mode, payload, expected in payloads:
                        for _ in range(REQUESTS):
                            reply = await client.encrypt(mode, payload)
                            assert reply.status is Status.OK
                            assert reply.payload == expected
                finally:
                    loop.set_task_factory(None)
        finally:
            if gateway is not None:
                await gateway.stop()
            await backend.stop()
        requests = REQUESTS * len(payloads)
        assert not created, (
            f"{len(created)} Tasks for {requests} requests: "
            f"{sorted({c.__qualname__ for c in created})}")

    asyncio.run(scenario())


@pytest.mark.parametrize("through_gateway", [False, True],
                         ids=["direct", "gateway"])
def test_served_requests_arm_no_timers(through_gateway):
    """After connect, LOAD_KEY and one warm-up request per server
    worker, 200 CTR 1 KiB encrypts arm no event-loop timer.  The
    gateway's health loop sleeps on its own timer; those wake-ups are
    told apart by their callback and not counted."""
    nonce, data = bytes(CTR_NONCE_BYTES), bytes(1024)
    payload, expected = nonce + data, modes.ctr_xcrypt(KEY, nonce, data)

    async def scenario():
        backend = await _backend()
        gateway = await _gateway([backend]) if through_gateway else None
        host, port = (gateway or backend).address
        armed = []
        loop = asyncio.get_running_loop()
        call_at = loop.call_at

        def counting(when, callback, *args, **kwargs):
            if callback is not futures._set_result_unless_cancelled:
                armed.append(getattr(callback, "__qualname__",
                                     repr(callback)))
            return call_at(when, callback, *args, **kwargs)

        try:
            async with CryptoClient(
                host, port, retry=RetryPolicy(attempts=1)
            ) as client:
                assert (await client.load_key(KEY)).status is Status.OK
                # The workers take requests in turn: one each arms
                # every worker's timer.
                for _ in range(backend.config.workers):
                    assert (await client.encrypt(Mode.CTR, payload)
                            ).payload == expected
                loop.call_at = counting
                try:
                    for _ in range(ARM_REQUESTS):
                        reply = await client.encrypt(Mode.CTR, payload)
                        assert reply.status is Status.OK
                        assert reply.payload == expected
                finally:
                    del loop.call_at
        finally:
            if gateway is not None:
                await gateway.stop()
            await backend.stop()
        assert not armed, (
            f"{len(armed)} timers armed for {ARM_REQUESTS} requests "
            f"({len(armed) / ARM_REQUESTS:.1f} per request): "
            f"{sorted(set(armed))}")

    asyncio.run(scenario())
