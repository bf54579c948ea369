"""The host cost of a served request, counted in Python calls.

The hardware's cost is an exact count (50 cycles per block, 40 key
set-up cycles), and so is a served request's: the Python-level calls
(``sys.setprofile`` "call" events, a coroutine's resumptions included)
that one warm CTR 1 KiB request makes, client and server in one
process, two connections in closed loop, as the ``ctr_1k_direct``
benchmark runs them.  A ``deadline`` scope bounds only an await that
can block on the peer: each side's frame read, which waits for the
next frame, and the request's execution budget; a frame already
buffered and a drain that would not wait enter none.  Every
per-request metric series is bound once, so a warm request looks none
up through ``labels()``.

On a host whose libcrypto passes its known-answer tests every crypto
request, ECB decryption included, is one native call on the event
loop: no executor hop for any of the six (op, mode) pairs, and a
512 KiB ECB decryption answers ``OK`` in one attempt, inside the 10 s
budget that the fallback's golden per-block inverse cipher overruns.
"""

import asyncio
import os
import sys
import time
from collections import Counter

import pytest

from repro.aes import gcm, modes
from repro.obs.metrics import global_registry
from repro.perf.backends import SlicedBackend
from repro.perf.engine import BatchEngine
from repro.perf.evp import have_evp
from repro.serve.client import CryptoClient, RetryPolicy
from repro.serve.protocol import CTR_NONCE_BYTES, GCM_IV_BYTES, Mode, Op, \
    Status
from repro.serve.server import CryptoServer, ServeConfig

KEY = bytes(range(16))
CONNECTIONS = 2
REQUESTS = 1000
WARMUP = 8

MAX_CALLS_PER_REQUEST = 240
MAX_SCOPES_PER_REQUEST = 3

needs_evp = pytest.mark.skipif(
    not have_evp(), reason="no self-test-passing libcrypto here")


async def _counted_requests():
    """``REQUESTS`` warm CTR 1 KiB encrypts over ``CONNECTIONS``
    closed-loop clients, under a profiler counting "call" events by
    (file, function)."""
    nonce, data = bytes(CTR_NONCE_BYTES), bytes(1024)
    payload = nonce + data
    expected = modes.ctr_xcrypt(KEY, nonce, data)
    server = CryptoServer(ServeConfig(port=0))
    await server.start()
    clients = [CryptoClient(*server.address,
                            retry=RetryPolicy(attempts=1))
               for _ in range(CONNECTIONS)]
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls[os.path.basename(code.co_filename), code.co_name] += 1

    async def closed_loop(client, requests):
        for _ in range(requests):
            reply = await client.encrypt(Mode.CTR, payload)
            assert reply.payload == expected

    try:
        for client in clients:
            await client.connect()
            assert (await client.load_key(KEY)).status is Status.OK
        # Every worker and connection task has armed its one timer.
        await asyncio.gather(*(closed_loop(client, WARMUP)
                               for client in clients))
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            await asyncio.gather(*(
                closed_loop(client, REQUESTS // CONNECTIONS)
                for client in clients))
        finally:
            sys.setprofile(previous)
    finally:
        for client in clients:
            await client.close()
        await server.stop()
    return calls


@pytest.fixture(scope="module")
def calls():
    return asyncio.run(_counted_requests())


def _per_request(calls, where, name):
    return calls[where, name] / REQUESTS


@needs_evp
def test_python_calls_per_warm_request(calls):
    """Sized where the crypto is one libcrypto call on the loop; on the
    fallback each request's hop to the pool adds about 40."""
    per_request = sum(calls.values()) / REQUESTS
    assert per_request <= MAX_CALLS_PER_REQUEST, (
        f"{per_request:.1f} calls per request: "
        f"{calls.most_common(12)}")


def test_warm_requests_look_up_no_series(calls):
    lookups = {key: n for key, n in calls.items()
               if key[0] == "metrics.py" and key[1] == "labels"}
    assert lookups == {}


def test_deadline_scopes_per_warm_request(calls):
    scopes = _per_request(calls, "protocol.py", "deadline")
    assert scopes <= MAX_SCOPES_PER_REQUEST, f"{scopes:.2f} per request"


def _hops() -> float:
    return global_registry().get("repro_serve_executor_hops_total").value


def _six_pairs():
    """Every served (op, mode) pair, with its payload and its expected
    reply from references that run none of libcrypto's modes."""
    sliced = BatchEngine(SlicedBackend())
    nonce, iv = bytes(CTR_NONCE_BYTES), bytes(range(GCM_IV_BYTES))
    data = bytes(range(256)) * 4
    ctr = sliced.xcrypt_ctr(KEY, nonce, data)
    ecb = sliced.encrypt_blocks(KEY, data)
    ciphertext, tag = gcm._seal(KEY, iv, data, b"")
    return [(Op.ENCRYPT, Mode.ECB, data, ecb),
            (Op.DECRYPT, Mode.ECB, ecb, data),
            (Op.ENCRYPT, Mode.CTR, nonce + data, ctr),
            (Op.DECRYPT, Mode.CTR, nonce + ctr, data),
            (Op.ENCRYPT, Mode.GCM, iv + data, ciphertext + tag),
            (Op.DECRYPT, Mode.GCM, iv + ciphertext + tag, data)]


async def _serve(requests, timeout):
    server = CryptoServer(ServeConfig(port=0))
    await server.start()
    try:
        async with CryptoClient(*server.address,
                                request_timeout=timeout,
                                retry=RetryPolicy(attempts=1)) as client:
            assert (await client.load_key(KEY)).status is Status.OK
            before = _hops()
            replies = [await client.request(op, mode, payload)
                       for op, mode, payload in requests]
            return replies, _hops() - before
    finally:
        await server.stop()


@needs_evp
def test_no_crypto_request_hops_to_the_pool():
    pairs = _six_pairs()
    replies, hops = asyncio.run(_serve(
        [(op, mode, payload) for op, mode, payload, _ in pairs], 30.0))
    assert [(r.status, r.payload) for r in replies] == [
        (Status.OK, expected) for *_, expected in pairs]
    assert hops == 0


@needs_evp
def test_512k_ecb_decryption_answers_in_one_attempt():
    data = bytes(range(256)) * 2048
    sealed = BatchEngine(SlicedBackend()).encrypt_blocks(KEY, data)
    start = time.perf_counter()
    (reply,), hops = asyncio.run(_serve([(Op.DECRYPT, Mode.ECB, sealed)],
                                        30.0))
    elapsed = time.perf_counter() - start
    assert reply.status is Status.OK
    assert reply.payload == data
    assert hops == 0
    assert elapsed < ServeConfig().request_timeout
