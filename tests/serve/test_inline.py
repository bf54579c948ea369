"""Which crypto requests cross to the thread pool, counted exactly.

Where the default engine's backend has native modes, a CTR request,
a GCM seal or open, or an ECB encryption whose payload is at most
``INLINE_MAX_PAYLOAD_BYTES`` runs on the event loop.  Every other
crypto request is one ``run_in_executor`` hop, and
``repro_serve_executor_hops_total`` counts each.  Replies either side
of the cutoff are checked against the golden model, and so are the
inline error outcomes and the key hygiene of a session.
"""

import asyncio
import functools
import random

import pytest

from repro.aes import gcm, ghash
from repro.aes.cipher import AES128
from repro.obs.metrics import global_registry
from repro.perf.engine import default_engine
from repro.perf.evp import have_evp
from repro.serve.client import CryptoClient, RetryPolicy
from repro.serve.protocol import (
    CTR_NONCE_BYTES,
    GCM_IV_BYTES,
    GCM_TAG_BYTES,
    Mode,
    Op,
    Status,
)
from repro.serve.server import (
    INLINE_MAX_PAYLOAD_BYTES,
    CryptoServer,
    ServeConfig,
)

KEY = bytes(range(16))
NONCE = bytes(range(CTR_NONCE_BYTES))
IV = bytes(range(GCM_IV_BYTES))
CUTOFF = INLINE_MAX_PAYLOAD_BYTES
REPEATS = 3

needs_evp = pytest.mark.skipif(
    not have_evp(), reason="no self-test-passing libcrypto here")


def _hops() -> float:
    return global_registry().get("repro_serve_executor_hops_total").value


def _auth_failures() -> float:
    return global_registry().get(
        "repro_aes_gcm_auth_failures_total").value


def _data(size: int) -> bytes:
    return random.Random(size).randbytes(size)


def _sealed(plaintext: bytes) -> bytes:
    """A GCM DECRYPT payload: IV, ciphertext and tag."""
    ciphertext, tag = gcm.gcm_encrypt(KEY, IV, plaintext)
    return IV + ciphertext + tag


def _requests():
    """CTR 1 KiB and GCM 16 KiB, both directions, and ECB encrypt."""
    ctr = NONCE + _data(1 << 10)
    return [(Op.ENCRYPT, Mode.CTR, ctr),
            (Op.DECRYPT, Mode.CTR, ctr),
            (Op.ENCRYPT, Mode.GCM, IV + _data(16 << 10)),
            (Op.DECRYPT, Mode.GCM, _sealed(_data(16 << 10))),
            (Op.ENCRYPT, Mode.ECB, _data(1 << 10))]


async def _serve(requests, key=KEY):
    """Send ``requests`` on one connection to a fresh server, after a
    LOAD_KEY of ``key`` unless it is None; returns the replies and
    the executor hops they made.  The server has stopped, and the
    session closed, on return."""
    server = CryptoServer(ServeConfig(port=0))
    await server.start()
    try:
        async with CryptoClient(
            *server.address, retry=RetryPolicy(attempts=1)
        ) as client:
            if key is not None:
                assert (await client.load_key(key)).status is Status.OK
            before = _hops()
            replies = [await client.request(op, mode, payload)
                       for op, mode, payload in requests]
            hops = _hops() - before
    finally:
        await server.stop()
    return replies, hops


@needs_evp
def test_native_requests_hop_only_above_the_cutoff():
    small = _requests() * REPEATS
    replies, hops = asyncio.run(_serve(small))
    assert [r.status for r in replies] == [Status.OK] * len(small)
    assert hops == 0
    ctr = NONCE + bytes(CUTOFF + 1 - CTR_NONCE_BYTES)
    large = [(Op.ENCRYPT, Mode.CTR, ctr),
             (Op.DECRYPT, Mode.CTR, ctr),
             (Op.ENCRYPT, Mode.GCM, IV + bytes(CUTOFF + 1 - GCM_IV_BYTES)),
             (Op.DECRYPT, Mode.GCM,
              _sealed(bytes(CUTOFF + 1 - GCM_IV_BYTES - GCM_TAG_BYTES))),
             # The golden per-block cipher, at any size.
             (Op.DECRYPT, Mode.ECB, bytes(64))] * REPEATS
    replies, hops = asyncio.run(_serve(large))
    assert [r.status for r in replies] == [Status.OK] * len(large)
    assert hops == len(large)


def test_fallback_hops_once_per_crypto_request(no_evp):
    requests = _requests() * REPEATS
    replies, hops = asyncio.run(_serve(requests))
    assert [r.status for r in replies] == [Status.OK] * len(requests)
    assert hops == len(requests)


@functools.lru_cache(maxsize=1)
def _golden_keystream() -> bytes:
    """The AES128 CTR keystream for the largest CTR payload below:
    ``KEY`` over ``NONCE`` || a 64-bit big-endian counter from 0."""
    aes = AES128(KEY)
    blocks = -(-(CUTOFF + 1 - CTR_NONCE_BYTES) // 16)
    return b"".join(aes.encrypt_block(NONCE + i.to_bytes(8, "big"))
                    for i in range(blocks))


def _golden(op: Op, mode: Mode, size: int):
    """A ``size``-byte request payload and the golden reply."""
    if mode is Mode.CTR:
        data = _data(size - CTR_NONCE_BYTES)
        stream = _golden_keystream()[:len(data)]
        return NONCE + data, bytes(a ^ b for a, b in zip(data, stream))
    if op is Op.ENCRYPT:
        plaintext = _data(size - GCM_IV_BYTES)
        ciphertext, tag = gcm._seal(KEY, IV, plaintext, b"")
        return IV + plaintext, ciphertext + tag
    plaintext = _data(size - GCM_IV_BYTES - GCM_TAG_BYTES)
    ciphertext, tag = gcm._seal(KEY, IV, plaintext, b"")
    return (IV + ciphertext + tag,
            gcm._open(KEY, IV, ciphertext, tag, b""))


@pytest.mark.parametrize("delta", [-1, 0, 1],
                         ids=["below", "at", "above"])
@pytest.mark.parametrize("op", [Op.ENCRYPT, Op.DECRYPT],
                         ids=["encrypt", "decrypt"])
@pytest.mark.parametrize("mode", [Mode.CTR, Mode.GCM],
                         ids=["ctr", "gcm"])
def test_cutoff_boundary_matches_golden(mode, op, delta):
    """Payloads of cutoff - 1, cutoff and cutoff + 1 bytes: the reply
    is the golden model's, on the loop up to the cutoff and on the
    pool past it."""
    payload, expected = _golden(op, mode, CUTOFF + delta)
    assert len(payload) == CUTOFF + delta
    (reply,), hops = asyncio.run(_serve([(op, mode, payload)]))
    assert reply.status is Status.OK
    assert reply.payload == expected
    native = default_engine().backend.native_modes
    assert hops == (0 if native and delta <= 0 else 1)


def _error_case(case: str):
    """(session key, request, status, auth failures) of one case."""
    if case == "flipped-tag":
        sealed = bytearray(_sealed(b"secret"))
        sealed[-1] ^= 0x01
        return (KEY, (Op.DECRYPT, Mode.GCM, bytes(sealed)),
                Status.AUTH_FAILED, 1)
    if case == "ctr-shorter-than-nonce":
        return KEY, (Op.ENCRYPT, Mode.CTR, b"abc"), Status.BAD_REQUEST, 0
    return None, (Op.ENCRYPT, Mode.CTR, NONCE + b"data"), Status.NO_KEY, 0


@needs_evp
@pytest.mark.parametrize("case", ["flipped-tag", "ctr-shorter-than-nonce",
                                  "no-key"])
def test_inline_error_outcomes(case):
    """Error replies on the loop are the pool's: AUTH_FAILED releasing
    nothing and counted once, BAD_REQUEST, NO_KEY."""
    key, request, status, auth_failures = _error_case(case)
    before = _auth_failures()
    (reply,), hops = asyncio.run(_serve([request], key=key))
    assert reply.status is status
    assert b"secret" not in reply.payload
    assert _auth_failures() - before == auth_failures
    assert hops == 0


@needs_evp
def test_native_session_constructs_no_aes128(monkeypatch):
    """LOAD_KEY, requests, LOAD_KEYs over a loaded key and the close
    run no golden cipher: native GCM builds no GHASH table, so
    forgetting a key has no hash subkey to derive."""
    # As in a process that only ever ran native GCM: other tests here
    # have filled the table cache through the golden composition.
    monkeypatch.setattr(ghash, "_TABLES", ghash._TableCache())
    rekey = [(Op.LOAD_KEY, Mode.RAW, bytes(reversed(KEY))),
             (Op.LOAD_KEY, Mode.RAW, KEY)]
    requests = _requests() + rekey + _requests()
    constructed = []
    original = AES128.__init__

    def counting(self, key):
        constructed.append(1)
        original(self, key)

    monkeypatch.setattr(AES128, "__init__", counting)
    replies, _ = asyncio.run(_serve(requests))
    assert [r.status for r in replies] == [Status.OK] * len(requests)
    assert len(constructed) == 0


def test_load_key_over_loaded_key_releases_old_key(no_evp):
    """On the fallback path a GCM request under key A caches A's round
    keys and GHASH tables; LOAD_KEY B on the same connection drops
    both, and B serves."""
    key_a, key_b = bytes([0xA5]) * 16, bytes([0x5B]) * 16
    subkey_a = int.from_bytes(AES128(key_a).encrypt_block(bytes(16)),
                              "big")
    cache = default_engine().backend.cache
    plaintext = _data(64)
    ciphertext, tag = gcm.gcm_encrypt(key_b, IV, plaintext)

    def held():
        return key_a in cache._entries, subkey_a in ghash._TABLES

    async def scenario():
        server = CryptoServer(ServeConfig(port=0))
        await server.start()
        try:
            async with CryptoClient(
                *server.address, retry=RetryPolicy(attempts=1)
            ) as client:
                await client.load_key(key_a)
                reply = await client.encrypt(Mode.GCM, IV + plaintext)
                assert reply.status is Status.OK
                assert held() == (True, True)
                assert (await client.load_key(key_b)).status is Status.OK
                assert held() == (False, False)
                reply = await client.encrypt(Mode.GCM, IV + plaintext)
                assert reply.payload == ciphertext + tag
        finally:
            await server.stop()

    asyncio.run(scenario())
