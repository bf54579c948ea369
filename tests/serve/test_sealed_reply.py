"""A served GCM seal's reply goes out unjoined and reads as one payload.

The seal's ciphertext is the reply's payload and its tag the reply's
tail, written back to back under one length prefix.  A client, direct
or through the gateway, reads exactly ``ciphertext + tag``; the tail
counts toward the frame limit and ``repro_serve_bytes_total``; the
up-front plaintext cap still answers ``BAD_REQUEST`` before any
crypto; and a reply too large to frame still answers ``INTERNAL``.
"""

import asyncio
import random

import pytest

from repro.aes import gcm
from repro.obs.metrics import global_registry
from repro.serve import server as server_module
from repro.serve.client import CryptoClient, RetryPolicy
from repro.serve.protocol import (
    GCM_IV_BYTES,
    GCM_TAG_BYTES,
    MAX_PAYLOAD_BYTES,
    Mode,
    Op,
    Status,
)
from repro.serve.server import GCM_MAX_PLAINTEXT_BYTES
from tests.serve.test_gateway import _backend, _gateway

KEY = bytes(range(16))
IV = bytes(range(GCM_IV_BYTES))

PLAINTEXT_SIZES = {"16k": 16 << 10, "256k": 256 << 10,
                   "largest": GCM_MAX_PLAINTEXT_BYTES}

ROUTES = {"direct": False, "gateway": True}


def _bytes_out() -> float:
    metric = global_registry().get("repro_serve_bytes_total")
    return metric.labels(direction="out").value


async def _exchange(through_gateway: bool, op: Op, mode: Mode,
                    payload: bytes):
    """One request after a LOAD_KEY, direct or through a gateway:
    returns the reply and what ``repro_serve_bytes_total{direction=
    "out"}`` grew by while it was served."""
    backend = await _backend()
    gateway = await _gateway([backend]) if through_gateway else None
    try:
        async with CryptoClient(
            *(gateway or backend).address, retry=RetryPolicy(attempts=1)
        ) as client:
            assert (await client.load_key(KEY)).status is Status.OK
            before = _bytes_out()
            reply = await client.request(op, mode, payload)
            return reply, _bytes_out() - before
    finally:
        if gateway is not None:
            await gateway.stop()
        await backend.stop()


@pytest.mark.parametrize("size", PLAINTEXT_SIZES,
                         ids=list(PLAINTEXT_SIZES))
@pytest.mark.parametrize("route", ROUTES, ids=list(ROUTES))
def test_seal_reply_reads_as_ciphertext_and_tag(route, size):
    plaintext = random.Random(size).randbytes(PLAINTEXT_SIZES[size])
    ciphertext, tag = gcm.gcm_encrypt(KEY, IV, plaintext)
    reply, grown = asyncio.run(_exchange(
        ROUTES[route], Op.ENCRYPT, Mode.GCM, IV + plaintext))
    assert reply.status is Status.OK
    assert reply.payload == ciphertext + tag
    assert reply.tail == b""
    assert grown == len(ciphertext) + GCM_TAG_BYTES


@pytest.mark.parametrize("route", ROUTES, ids=list(ROUTES))
def test_one_byte_past_the_cap_is_refused_before_crypto(
        route, monkeypatch):
    def no_crypto(*args, **kwargs):
        raise AssertionError("the oversized seal reached the cipher")

    monkeypatch.setattr(gcm, "gcm_encrypt", no_crypto)
    payload = IV + bytes(GCM_MAX_PLAINTEXT_BYTES + 1)
    reply, _ = asyncio.run(_exchange(
        ROUTES[route], Op.ENCRYPT, Mode.GCM, payload))
    assert reply.status is Status.BAD_REQUEST
    assert str(GCM_MAX_PLAINTEXT_BYTES) in reply.payload.decode()


def test_unframeable_payload_and_tail_answer_internal(monkeypatch):
    # A table entry whose payload fits the frame but whose payload and
    # tail together do not: the encoder refuses it, and _send answers
    # with a small INTERNAL frame instead.
    def oversized(key, payload):
        return bytes(MAX_PAYLOAD_BYTES - GCM_TAG_BYTES + 1), \
            bytes(GCM_TAG_BYTES)

    monkeypatch.setitem(server_module._CRYPTO_OPS,
                        (Op.ENCRYPT, Mode.GCM), oversized)
    reply, grown = asyncio.run(_exchange(
        False, Op.ENCRYPT, Mode.GCM, IV + b"plaintext"))
    assert reply.status is Status.INTERNAL
    assert grown == len(reply.payload)
