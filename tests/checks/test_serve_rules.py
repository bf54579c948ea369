"""Async-service rules: bounded queues and timeout-wrapped awaits."""

import textwrap

import pytest

from repro.checks.crypto_lint import SourceFile
from repro.checks.engine import KIND_SOURCE, CheckConfig, run_rules

SERVE_PATH = "src/repro/serve/snippet.py"


def lint(code, rule_id, path=SERVE_PATH, config=None):
    source = SourceFile.parse(path, textwrap.dedent(code))
    return run_rules({KIND_SOURCE: [source]}, config,
                     only=[rule_id])


class TestUnboundedQueue:
    def test_bare_queue_triggers(self):
        findings = lint(
            """
            import asyncio
            queue = asyncio.Queue()
            """, "serve.unbounded-queue")
        assert len(findings) == 1
        assert "maxsize" in findings[0].message

    def test_maxsize_zero_triggers(self):
        findings = lint(
            """
            import asyncio
            queue = asyncio.Queue(maxsize=0)
            """, "serve.unbounded-queue")
        assert len(findings) == 1

    def test_negative_maxsize_triggers(self):
        """asyncio treats every maxsize <= 0 as unbounded, and -1
        parses as a unary minus, not a negative constant."""
        findings = lint(
            """
            import asyncio
            a = asyncio.Queue(maxsize=-1)
            b = asyncio.Queue(-4)
            """, "serve.unbounded-queue")
        assert len(findings) == 2

    def test_priority_and_lifo_variants_covered(self):
        findings = lint(
            """
            import asyncio
            a = asyncio.LifoQueue()
            b = asyncio.PriorityQueue()
            """, "serve.unbounded-queue")
        assert len(findings) == 2

    def test_bounded_queue_is_fine(self):
        findings = lint(
            """
            import asyncio
            queue = asyncio.Queue(maxsize=64)
            """, "serve.unbounded-queue")
        assert findings == []

    def test_positional_bound_is_fine(self):
        findings = lint(
            """
            import asyncio
            def make(depth):
                return asyncio.Queue(depth)
            """, "serve.unbounded-queue")
        assert findings == []

    def test_non_asyncio_queue_ignored(self):
        findings = lint(
            """
            import queue
            q = queue.Queue()
            """, "serve.unbounded-queue")
        assert findings == []

    def test_out_of_scope_file_ignored(self):
        findings = lint(
            """
            import asyncio
            queue = asyncio.Queue()
            """, "serve.unbounded-queue",
            path="src/repro/perf/engine.py")
        assert findings == []

    def test_scope_is_configurable(self):
        config = CheckConfig(serve_path_patterns=("*everything*",))
        findings = lint(
            """
            import asyncio
            queue = asyncio.Queue()
            """, "serve.unbounded-queue",
            path="lib/everything/net.py", config=config)
        assert len(findings) == 1


class TestMissingTimeout:
    def test_bare_readexactly_triggers(self):
        findings = lint(
            """
            async def f(reader):
                return await reader.readexactly(4)
            """, "serve.missing-timeout")
        assert len(findings) == 1
        assert "readexactly" in findings[0].message

    def test_bare_drain_triggers(self):
        findings = lint(
            """
            async def f(writer, data):
                writer.write(data)
                await writer.drain()
            """, "serve.missing-timeout")
        assert len(findings) == 1

    def test_bare_open_connection_triggers(self):
        findings = lint(
            """
            import asyncio
            async def f(host, port):
                return await asyncio.open_connection(host, port)
            """, "serve.missing-timeout")
        assert len(findings) == 1

    def test_bare_create_connection_triggers(self):
        """Re-injection: the loop-level dial under the serve tier's
        frame streams blocks on the peer as ``open_connection`` does
        (it passed before it joined the peer-blocking set)."""
        findings = lint(
            """
            async def f(loop, factory, host, port):
                return await loop.create_connection(factory, host, port)
            """, "serve.missing-timeout")
        assert len(findings) == 1
        assert "create_connection" in findings[0].message

    def test_local_wait_for_triggers(self):
        """Re-injection: a stream call handed to a local function that
        is merely called ``wait_for`` is unbounded (it passed before
        wrappers were resolved through the imports)."""
        findings = lint(
            """
            async def wait_for(awaitable, budget):
                return await awaitable

            async def f(reader):
                return await wait_for(reader.readexactly(4), 5.0)
            """, "serve.missing-timeout")
        assert [f.location.line for f in findings] == [6]
        assert "readexactly" in findings[0].message

    def test_stream_call_handed_to_gather_triggers(self):
        findings = lint(
            """
            import asyncio
            async def f(reader, writer):
                await asyncio.gather(writer.drain(),
                                     key=reader.readexactly(4))
            """, "serve.missing-timeout")
        assert len(findings) == 1

    @pytest.mark.parametrize("code", [
        """
        from asyncio import wait_for
        async def f(reader):
            return await wait_for(reader.readexactly(4), 5.0)
        """,
        """
        import asyncio
        async def f(writer):
            await asyncio.wait({writer.drain()}, timeout=5.0)
        """,
    ], ids=["from-asyncio", "asyncio-wait"])
    def test_resolved_wrappers_are_fine(self, code):
        assert lint(code, "serve.missing-timeout") == []

    def test_wait_for_wrapped_is_fine(self):
        findings = lint(
            """
            import asyncio
            async def f(reader, writer):
                data = await asyncio.wait_for(
                    reader.readexactly(4), 5.0)
                writer.write(data)
                await asyncio.wait_for(writer.drain(), 5.0)
            """, "serve.missing-timeout")
        assert findings == []

    def test_timeout_scope_is_fine(self):
        findings = lint(
            """
            import asyncio
            async def f(reader, writer, loop):
                async with asyncio.timeout(5.0):
                    data = await reader.readexactly(4)
                writer.write(data)
                async with asyncio.timeout_at(loop.time() + 5.0):
                    await writer.drain()
            """, "serve.missing-timeout")
        assert findings == []

    def test_await_after_timeout_scope_triggers(self):
        findings = lint(
            """
            import asyncio
            async def f(reader):
                async with asyncio.timeout(5.0):
                    await reader.readexactly(4)
                return await reader.readexactly(4)
            """, "serve.missing-timeout")
        assert [f.location.line for f in findings] == [6]
        assert "asyncio.timeout" in findings[0].message
        assert "wait_for" in findings[0].message

    def test_nested_function_in_timeout_scope_triggers(self):
        """A coroutine defined in the scope runs later, outside it."""
        findings = lint(
            """
            import asyncio
            async def f(reader):
                async with asyncio.timeout(5.0):
                    async def later():
                        return await reader.readexactly(4)
                return later
            """, "serve.missing-timeout")
        assert len(findings) == 1

    def test_lock_scope_triggers(self):
        findings = lint(
            """
            async def f(writer, lock):
                async with lock:
                    await writer.drain()
            """, "serve.missing-timeout")
        assert len(findings) == 1

    def test_unrelated_awaits_ignored(self):
        findings = lint(
            """
            import asyncio
            async def f(queue):
                item = await queue.get()
                await asyncio.sleep(0.1)
                return item
            """, "serve.missing-timeout")
        assert findings == []

    def test_out_of_scope_file_ignored(self):
        findings = lint(
            """
            async def f(reader):
                return await reader.readexactly(4)
            """, "serve.missing-timeout",
            path="examples/demo.py")
        assert findings == []

    def test_fake_timeout_scope_triggers(self):
        """Re-injection: a do-nothing context manager that is merely
        called ``timeout`` bounds nothing (it passed by its last name
        alone before scopes were resolved through the imports)."""
        findings = lint(
            """
            from contextlib import asynccontextmanager

            @asynccontextmanager
            async def timeout(budget):
                yield

            async def f(reader):
                async with timeout(5.0):
                    return await reader.readexactly(4)
            """, "serve.missing-timeout")
        assert [f.location.line for f in findings] == [10]

    def test_local_name_shadowing_a_scope_triggers(self):
        """A name the function binds itself is not the module's
        import: here ``deadline`` is a float, so the ``async with``
        would fail at run time and bounds nothing."""
        findings = lint(
            """
            from repro.serve.protocol import deadline

            async def f(reader, loop):
                deadline = loop.time() + 5.0
                async with deadline(5.0):
                    return await reader.readexactly(4)
            """, "serve.missing-timeout")
        assert len(findings) == 1

    @pytest.mark.parametrize("code", [
        """
        from asyncio import timeout
        async def f(reader):
            async with timeout(5.0):
                return await reader.readexactly(4)
        """,
        """
        import asyncio as aio
        async def f(reader):
            async with aio.timeout(5.0):
                return await reader.readexactly(4)
        """,
        """
        from repro.serve.protocol import deadline
        async def f(reader):
            async with deadline(5.0):
                return await reader.readexactly(4)
        """,
        """
        from repro.serve import protocol
        async def f(reader):
            async with protocol.deadline(5.0):
                return await reader.readexactly(4)
        """,
        """
        from .protocol import deadline as bound
        async def f(reader):
            async with bound(5.0):
                return await reader.readexactly(4)
        """,
        """
        async def f(reader):
            from repro.serve.protocol import deadline
            async with deadline(5.0):
                return await reader.readexactly(4)
        """,
    ], ids=["from-asyncio", "aliased-asyncio", "helper", "helper-module",
            "helper-relative", "helper-local-import"])
    def test_resolved_scopes_are_fine(self, code):
        assert lint(code, "serve.missing-timeout") == []

    def test_helper_is_resolved_in_its_own_module(self):
        findings = lint(
            """
            def deadline(budget):
                ...

            async def f(reader):
                async with deadline(5.0):
                    return await reader.readexactly(4)
            """, "serve.missing-timeout",
            path="src/repro/serve/protocol.py")
        assert findings == []


class TestRepositoryIsClean:
    def test_serve_sources_pass_their_own_rules(self):
        """The shipped serving layer obeys both disciplines."""
        from pathlib import Path

        import repro.serve as serve_pkg

        sources = []
        for path in Path(serve_pkg.__file__).parent.glob("*.py"):
            rel = f"src/repro/serve/{path.name}"
            sources.append(SourceFile.parse(rel, path.read_text()))
        findings = run_rules(
            {KIND_SOURCE: sources}, None,
            only=["serve.unbounded-queue", "serve.missing-timeout"],
        )
        assert findings == []

    def test_rules_registered_with_error_severity(self):
        from repro.checks.engine import Severity, registry

        rules = registry()
        for rule_id in ("serve.unbounded-queue",
                        "serve.missing-timeout"):
            assert rule_id in rules
            assert rules[rule_id].severity is Severity.ERROR
