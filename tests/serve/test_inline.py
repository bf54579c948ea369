"""Which crypto requests cross to the thread pool, and what the
native ones allocate, counted exactly.

Where the default engine's backend has native modes, a CTR request, a
GCM seal or open, or an ECB encryption runs on the event loop at any
size a frame can carry.  Every other crypto request is one
``run_in_executor`` hop, and ``repro_serve_executor_hops_total``
counts each.  Replies up to the frame limit are checked against
references that run neither libcrypto's CTR nor its GCM, and the
inline error outcomes, the peak memory of one native call and the key
hygiene of a session are checked too.
"""

import asyncio
import random
import tracemalloc

import pytest

from repro.aes import gcm, ghash
from repro.aes.cipher import AES128
from repro.obs.metrics import global_registry
from repro.perf.engine import BatchEngine, default_engine, forget_key
from repro.perf.evp import have_evp
from repro.serve.client import CryptoClient, RetryPolicy
from repro.serve.protocol import (
    CTR_NONCE_BYTES,
    GCM_IV_BYTES,
    GCM_TAG_BYTES,
    MAX_PAYLOAD_BYTES,
    Frame,
    Mode,
    Op,
    Status,
)
from repro.serve.server import (
    GCM_MAX_PLAINTEXT_BYTES,
    CryptoServer,
    ServeConfig,
    Session,
)

KEY = bytes(range(16))
NONCE = bytes(range(CTR_NONCE_BYTES))
IV = bytes(range(GCM_IV_BYTES))
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
def test_native_requests_never_hop():
    """Small native requests run on the loop; ECB decryption, the
    golden per-block cipher, hops once per request at any size."""
    requests = (_requests() + [(Op.DECRYPT, Mode.ECB, bytes(64))]) \
        * REPEATS
    replies, hops = asyncio.run(_serve(requests))
    assert [r.status for r in replies] == [Status.OK] * len(requests)
    assert hops == REPEATS


def test_fallback_hops_once_per_crypto_request(no_evp):
    requests = _requests() * REPEATS
    replies, hops = asyncio.run(_serve(requests))
    assert [r.status for r in replies] == [Status.OK] * len(requests)
    assert hops == len(requests)


#: The native entries, by test id.
NATIVE = {
    "ctr-encrypt": (Op.ENCRYPT, Mode.CTR),
    "ctr-decrypt": (Op.DECRYPT, Mode.CTR),
    "gcm-encrypt": (Op.ENCRYPT, Mode.GCM),
    "gcm-decrypt": (Op.DECRYPT, Mode.GCM),
    "ecb-encrypt": (Op.ENCRYPT, Mode.ECB),
}


def _largest(op: Op, mode: Mode) -> int:
    """The largest request payload a frame carries for ``op``/``mode``;
    a GCM seal's reply grows by the tag and must fit a frame too."""
    if (op, mode) == (Op.ENCRYPT, Mode.GCM):
        return GCM_IV_BYTES + GCM_MAX_PLAINTEXT_BYTES
    return MAX_PAYLOAD_BYTES


#: Payload sizes: just past 64 KiB (where GCM seal's copies once sent
#: it to the pool), the benchmark's 256 KiB and the frame limit.
SIZES = {"64k-plus-1": lambda op, mode: (64 << 10) + 1,
         "256k": lambda op, mode: 256 << 10,
         "largest": _largest}


def _reference(op: Op, mode: Mode, size: int):
    """A ``size``-byte request payload (rounded up to a whole block for
    ECB) and its expected reply.  CTR and ECB come from the ``sliced``
    backend and GCM from the golden composition: neither runs
    libcrypto's CTR or GCM, and a golden AES128 keystream at 1 MiB
    would take seconds."""
    sliced = BatchEngine("sliced")
    if mode is Mode.ECB:
        data = _data(-(-size // 16) * 16)
        return data, sliced.encrypt_blocks(KEY, data)
    if mode is Mode.CTR:
        data = _data(size - CTR_NONCE_BYTES)
        return NONCE + data, sliced.xcrypt_ctr(KEY, NONCE, data)
    if op is Op.ENCRYPT:
        plaintext = _data(size - GCM_IV_BYTES)
        ciphertext, tag = gcm._seal(KEY, IV, plaintext, b"")
        return IV + plaintext, ciphertext + tag
    plaintext = _data(size - GCM_IV_BYTES - GCM_TAG_BYTES)
    ciphertext, tag = gcm._seal(KEY, IV, plaintext, b"")
    return IV + ciphertext + tag, plaintext


@needs_evp
@pytest.mark.parametrize("size", SIZES, ids=list(SIZES))
@pytest.mark.parametrize("entry", NATIVE, ids=list(NATIVE))
def test_large_native_requests_run_inline(entry, size):
    """Past 64 KiB and up to the frame limit, a native request makes
    no executor hop and its reply is the reference's."""
    op, mode = NATIVE[entry]
    payload, expected = _reference(op, mode, SIZES[size](op, mode))
    (reply,), hops = asyncio.run(_serve([(op, mode, payload)]))
    assert reply.status is Status.OK
    assert reply.payload == expected
    assert hops == 0


def _flipped_tag(size: int) -> bytes:
    """A ``size``-byte GCM DECRYPT payload of ``secret``s whose tag
    does not verify."""
    plaintext = b"secret" * (size // 6)
    sealed = bytearray(_sealed(
        plaintext[:size - GCM_IV_BYTES - GCM_TAG_BYTES]))
    sealed[-1] ^= 0x01
    return bytes(sealed)


def _error_case(case: str):
    """(session key, request, status, auth failures) of one case."""
    if case.startswith("flipped-tag"):
        size = 256 << 10 if case.endswith("256k") else 34
        return (KEY, (Op.DECRYPT, Mode.GCM, _flipped_tag(size)),
                Status.AUTH_FAILED, 1)
    if case == "ctr-shorter-than-nonce":
        return KEY, (Op.ENCRYPT, Mode.CTR, b"abc"), Status.BAD_REQUEST, 0
    return None, (Op.ENCRYPT, Mode.CTR, NONCE + b"data"), Status.NO_KEY, 0


@needs_evp
@pytest.mark.parametrize("case", ["flipped-tag", "flipped-tag-256k",
                                  "ctr-shorter-than-nonce", "no-key"])
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


def _reply_of(op: Op, mode: Mode, payload: bytes) -> Frame:
    """The reply the server's crypto handler builds for one request,
    run to completion with no event loop: a native request never
    awaits."""
    server = CryptoServer(ServeConfig(port=0))
    request = Frame(op=op, mode=mode, payload=payload)
    handler = server._op_xcrypt(Session(1, key=KEY), request)
    try:
        handler.send(None)
    except StopIteration as done:
        return done.value
    raise AssertionError("a native request awaited")


@needs_evp
@pytest.mark.parametrize("size", [256 << 10, 1_048_000],
                         ids=["256k", "1048000"])
@pytest.mark.parametrize("entry", ["ctr-encrypt", "gcm-encrypt",
                                   "gcm-decrypt", "ecb-encrypt"])
def test_native_call_holds_at_most_one_payload(entry, size):
    """One native CTR, GCM seal, GCM open or ECB-encrypt request, up to
    its reply frame, allocates one payload-sized buffer, the reply's
    own payload: libcrypto reads the request in place and writes the
    result ``bytes``, and a seal's tag rides as the reply's tail.  A
    result copied out of a ctypes buffer made it two, and joining
    ciphertext and tag made a seal three."""
    op, mode = NATIVE[entry]
    payload, expected = _reference(op, mode, size)
    _reply_of(op, mode, payload)  # warm anything lazy
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        reply = _reply_of(op, mode, payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < len(payload) + (64 << 10)
    assert reply.status is Status.OK
    assert reply.payload + reply.tail == expected
    assert reply.tail == (expected[-GCM_TAG_BYTES:]
                          if entry == "gcm-encrypt" else b"")


def _count_aes128(monkeypatch) -> list:
    """A list that grows by one per golden AES128 constructed from now
    on."""
    constructed = []
    original = AES128.__init__

    def counting(self, key):
        constructed.append(1)
        original(self, key)

    monkeypatch.setattr(AES128, "__init__", counting)
    return constructed


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
    constructed = _count_aes128(monkeypatch)
    replies, _ = asyncio.run(_serve(requests))
    assert [r.status for r in replies] == [Status.OK] * len(requests)
    assert len(constructed) == 0


def test_fallback_forget_key_constructs_no_aes128(no_evp, monkeypatch):
    """On the fallback path, forgetting a key whose GHASH tables a GCM
    request cached finds the hash subkey without a golden AES128, and
    still drops the tables."""
    monkeypatch.setattr(ghash, "_TABLES", ghash._TableCache())
    gcm.gcm_encrypt(KEY, IV, _data(64))
    assert ghash.cached_subkeys() == 1
    constructed = _count_aes128(monkeypatch)
    forget_key(KEY)
    assert len(constructed) == 0
    assert ghash.cached_subkeys() == 0


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
