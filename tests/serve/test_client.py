"""Client-side behaviour: backoff policy, retries, load generator."""

import asyncio
import random

import pytest

from repro.serve.client import (
    CryptoClient,
    LoadReport,
    RequestFailed,
    RetryPolicy,
    run_load,
)
from repro.serve.protocol import Frame, Mode, Op, Status
from repro.serve.server import CryptoServer, ServeConfig


class TestRetryPolicy:
    def test_delay_grows_then_caps(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.5,
                             jitter=0.0)
        rng = random.Random(1)
        delays = [policy.delay(n, rng) for n in range(6)]
        assert delays[0] == pytest.approx(0.1)
        assert delays[1] == pytest.approx(0.2)
        assert delays[2] == pytest.approx(0.4)
        # Everything after hits the cap.
        assert delays[3:] == [pytest.approx(0.5)] * 3

    def test_jitter_spreads_and_is_deterministic_per_seed(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=1.0,
                             jitter=0.5)
        sample = [policy.delay(0, random.Random(7))
                  for _ in range(5)]
        # Same seed, same jitter: fully deterministic...
        assert len(set(sample)) == 1
        # ...and inside the (1 - jitter, 1] band.
        assert 0.5 < sample[0] <= 1.0
        spread = {round(policy.delay(0, random.Random(seed)), 6)
                  for seed in range(10)}
        assert len(spread) > 1

    def test_retryable_status_retries_then_returns_last(self):
        """A server that always answers OVERLOADED: the client
        retries `attempts` times, then hands back the error frame."""

        calls = []

        async def scenario():
            server = CryptoServer(ServeConfig(port=0))

            async def overloaded(session, frame):
                calls.append(frame.request_id)
                return frame.error(Status.OVERLOADED, "full")

            server._handlers[Op.PING] = overloaded
            await server.start()
            host, port = server.address
            policy = RetryPolicy(attempts=3, base_delay=0.001,
                                 max_delay=0.002)
            async with CryptoClient(host, port,
                                    retry=policy) as client:
                reply = await client.ping(b"x")
            await server.stop()
            return reply

        reply = asyncio.run(scenario())
        assert reply.status is Status.OVERLOADED
        assert len(calls) == 3

    def test_transport_exhaustion_raises_request_failed(self):
        async def scenario():
            # Bind-then-close gives a port with nothing listening.
            probe = await asyncio.start_server(
                lambda r, w: None, "127.0.0.1", 0
            )
            port = probe.sockets[0].getsockname()[1]
            probe.close()
            await probe.wait_closed()
            policy = RetryPolicy(attempts=2, base_delay=0.001,
                                 max_delay=0.002)
            client = CryptoClient("127.0.0.1", port, retry=policy,
                                  connect_timeout=1.0)
            with pytest.raises(RequestFailed):
                await client.request(Op.PING)
            await client.close()

        asyncio.run(scenario())

    def test_reconnects_after_server_drops_connection(self):
        """A mid-stream disconnect is retried on a fresh connection;
        the request ultimately succeeds."""

        dropped = []

        async def scenario():
            server = CryptoServer(ServeConfig(port=0))
            await server.start()
            host, port = server.address
            original = server._op_ping

            async def flaky(session, frame):
                if not dropped:
                    dropped.append(True)
                    # Killing the transport before the reply leaves
                    # forces the client onto a fresh connection.
                    for conn in list(server._conns):
                        conn.stream.close()
                    return frame.error(Status.INTERNAL, "dropped")
                return await original(session, frame)

            server._handlers[Op.PING] = flaky
            policy = RetryPolicy(attempts=4, base_delay=0.001,
                                 max_delay=0.01)
            async with CryptoClient(host, port,
                                    retry=policy) as client:
                reply = await client.ping(b"echo")
            await server.stop()
            return reply

        reply = asyncio.run(scenario())
        assert reply.status is Status.OK
        assert reply.payload == b"echo"
        assert dropped == [True]


class TestRunLoad:
    def test_closed_loop_counts_and_rates(self):
        async def scenario():
            server = CryptoServer(ServeConfig(port=0))
            await server.start()
            host, port = server.address
            report = await run_load(host, port, bytes(16),
                                    clients=3, requests=4,
                                    mode=Mode.CTR,
                                    payload_bytes=512)
            await server.stop()
            return report

        report = asyncio.run(scenario())
        assert isinstance(report, LoadReport)
        assert report.clients == 3
        assert report.requests == 12
        assert report.errors == 0
        assert report.requests_per_s > 0
        assert report.statuses == {"ok": 12}
        text = report.render()
        assert "3 client(s)" in text and "req/s" in text

    def test_no_key_reply_reloads_the_key_and_retries(self):
        """A server that loses the session key (as a restarted worker
        does) answers NO_KEY once; the client re-sends LOAD_KEY and
        the request is retried, not counted as an error."""
        lost = []

        async def scenario():
            server = CryptoServer(ServeConfig(port=0))
            original = server._op_xcrypt

            async def forgetful(session, frame):
                if not lost:
                    lost.append(frame.request_id)
                    session.key = None
                return await original(session, frame)

            server._handlers[Op.ENCRYPT] = forgetful
            await server.start()
            host, port = server.address
            try:
                return await run_load(host, port, bytes(16),
                                      clients=1, requests=3)
            finally:
                await server.stop()

        report = asyncio.run(scenario())
        assert len(lost) == 1
        assert report.requests == 3
        assert report.errors == 0
        assert report.statuses == {"ok": 3}

    def test_rejects_nonsense_parameters(self):
        async def scenario():
            with pytest.raises(ValueError):
                await run_load("127.0.0.1", 1, bytes(16), clients=0)
            with pytest.raises(ValueError):
                await run_load("127.0.0.1", 1, bytes(16),
                               mode=Mode.RAW)

        asyncio.run(scenario())

    def test_ecb_payload_below_one_block_rejected(self):
        """A sub-block ECB payload cannot be 16-aligned; it must be
        rejected up front instead of every request failing
        BAD_REQUEST on the wire."""

        async def scenario():
            with pytest.raises(ValueError, match="payload_bytes"):
                await run_load("127.0.0.1", 1, bytes(16),
                               mode=Mode.ECB, payload_bytes=8)

        asyncio.run(scenario())

    def test_gcm_and_ecb_loads_succeed(self):
        async def scenario():
            server = CryptoServer(ServeConfig(port=0))
            await server.start()
            host, port = server.address
            results = []
            for mode in (Mode.ECB, Mode.GCM):
                results.append(
                    await run_load(host, port, bytes(16), clients=2,
                                   requests=2, mode=mode,
                                   payload_bytes=256)
                )
            await server.stop()
            return results

        for report in asyncio.run(scenario()):
            assert report.errors == 0
            assert report.requests == 4


class TestRequestIdCheck:
    def test_mismatched_response_id_is_rejected(self):
        """A server answering with the wrong request id trips the
        client's mismatch guard rather than mis-attributing data."""

        async def scenario():
            server = CryptoServer(ServeConfig(port=0))

            async def wrong_id(session, frame):
                return Frame(op=frame.op, status=Status.OK,
                             request_id=frame.request_id + 999,
                             payload=b"not-yours")

            server._handlers[Op.PING] = wrong_id
            await server.start()
            host, port = server.address
            policy = RetryPolicy(attempts=2, base_delay=0.001,
                                 max_delay=0.002)
            client = CryptoClient(host, port, retry=policy)
            with pytest.raises(RequestFailed):
                await client.ping(b"x")
            await client.close()
            await server.stop()

        asyncio.run(scenario())
