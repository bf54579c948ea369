"""Tasks created per served request: zero, direct and through the
gateway.

Every serve-tier bound is an ``asyncio.timeout`` scope, which runs
the await it covers in the task that is already running; an
``asyncio.wait_for`` would run it in a Task of its own.  So once a
connection is up and keyed, a request's reads, handler and writes all
run in tasks that already exist: the client's, the server's
connection loop and worker and, through the gateway, its connection
loop and upstream pump.  A counting task factory pins that count at
zero.
"""

import asyncio

import pytest

from repro.aes import gcm, modes
from repro.serve.client import CryptoClient, RetryPolicy
from repro.serve.protocol import CTR_NONCE_BYTES, GCM_IV_BYTES, Mode, Status
from tests.serve.test_gateway import _backend, _gateway

KEY = bytes(range(16))
REQUESTS = 20


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
