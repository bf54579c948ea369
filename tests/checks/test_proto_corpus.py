"""Re-injection corpus for the wire-protocol model checker.

Each test plants a bug into the *real* shipped serve-layer text —
both historical production bugs and synthetic ones — and asserts the
``proto.*`` pack flags it (and nothing else it shouldn't).  The
needles are pin-guarded: if a refactor moves the code, the assertion
on the needle fails first so the corpus is updated rather than
silently testing nothing.
"""

from pathlib import Path

import pytest

from repro.checks.crypto_lint import SourceFile
from repro.checks.engine import KIND_PROTO, CheckConfig, run_rules
from repro.checks.proto import ProtoSubject, analyze, run_proto
from repro.checks.runner import find_repo_root

ROOT = find_repo_root(Path(__file__))

PROTO_CONFIG = CheckConfig(enable=("proto.*",))

# ------------------------------------------------------------- needles
# Historical bug A: the GCM ENCRYPT plaintext cap (PR-5 review fix).
# Removing it lets a ciphertext+tag response exceed MAX_PAYLOAD and
# raise FrameError on the send path.
GCM_CAP_CHECK = "    if len(plaintext) > GCM_MAX_PLAINTEXT_BYTES:"

# The two nets that caught the escaped FrameError after the fix: the
# _send fallback and the worker shield.  Removing cap + both nets
# reproduces the original worker-killing DoS.
SEND_FALLBACK = "\n        except FrameError as exc:"
WORKER_SHIELD = "\n            except Exception:"

# Historical bug B: the SHUTDOWN stop() task pin (weak-ref GC hazard),
# now in FrameServer._connection_loop, the loop the server shares
# with the gateway.
STOP_TASK_PIN = """                if self._stop_task is None:
                    self._stop_task = (
                        asyncio.get_running_loop()
                        .create_task(self._on_shutdown())
                    )"""
STOP_TASK_UNPINNED = """                asyncio.get_running_loop() \\
                    .create_task(self._on_shutdown())"""

# Synthetic bug C: a Status member nobody emits or dispatches.
STATUS_TAIL = "    INTERNAL = 8"

# Synthetic bug D: decode_payload's bad-magic raise with the wrong
# flag (the zero-copy split decoder the streaming reader parses
# through).
BAD_MAGIC_RAISE = \
    'raise FrameError(f"bad magic (want {MAGIC!r})")'

# Synthetic bug E: the connection loop keeps reading after an
# unrecoverable (desynchronizing) FrameError.
RECOVERABLE_BRANCH = """                if exc.recoverable:
                    continue
                return"""

# Synthetic bug F: the server hands the shared frame loop an
# on_shutdown that is not its stop, so SHUTDOWN answers OK and never
# drains.
SERVER_ON_SHUTDOWN = "super().__init__(config or ServeConfig(), self.stop)"

# Synthetic bug G: the gateway grows its own copy of the frame loop,
# which the model (anchored on the shared loop) would not describe.
GATEWAY_BODY = "    _open_connections = _G_OPEN\n"
GATEWAY_OWN_LOOP = GATEWAY_BODY + """
    async def _connection_loop(self, conn: _GatewayConn) -> None:
        while True:
            frame = await read_frame(conn.stream)
            if frame is None:
                return
            await self._dispatch(conn, frame)
"""


def _sources(mutate=None):
    sources = []
    for path in sorted((ROOT / "src/repro/serve").glob("*.py")):
        display = str(path.relative_to(ROOT))
        text = path.read_text()
        if mutate is not None:
            text = mutate(display, text)
        sources.append(SourceFile.parse(display, text))
    return sources


def _mutate_file(filename, needle, replacement):
    def mutate(display, text):
        if display.endswith(filename):
            assert needle in text, (
                f"corpus needle missing from {display}; the code "
                "moved — update the corpus pin")
            return text.replace(needle, replacement)
        return text
    return mutate


def _findings(mutate):
    subject = ProtoSubject(tuple(_sources(mutate)))
    return run_rules({KIND_PROTO: [subject]}, PROTO_CONFIG)


def _rules(findings):
    return {f.rule for f in findings}


def test_unmutated_tree_is_silent():
    assert _findings(None) == []


class TestHistoricalBugs:
    def test_gcm_cap_removed_response_not_framed(self):
        findings = _findings(_mutate_file(
            "server.py", GCM_CAP_CHECK, "    if False:"))
        assert "proto.response-not-framed" in _rules(findings)
        [finding] = [f for f in findings
                     if f.rule == "proto.response-not-framed"]
        assert "tag" in finding.message
        assert finding.location.file.endswith("server.py")

    def test_original_worker_killing_dos_starves(self):
        # Cap gone AND both later hardening nets gone: the model
        # must reach a state where the worker is dead and an
        # outstanding request is never answered.
        def mutate(display, text):
            if display.endswith("server.py"):
                for needle in (GCM_CAP_CHECK, SEND_FALLBACK,
                               WORKER_SHIELD):
                    assert needle in text, needle
                text = text.replace(GCM_CAP_CHECK, "    if False:")
                text = text.replace(
                    SEND_FALLBACK,
                    "\n        except ValueError as exc:")
                text = text.replace(
                    WORKER_SHIELD, "\n            except ValueError:")
            return text
        findings = _findings(mutate)
        assert "proto.desync-deadlock" in _rules(findings)
        starved = [f for f in findings
                   if f.rule == "proto.desync-deadlock"
                   and "starvation" in f.message]
        assert starved, [f.message for f in findings]
        # Acceptance: a state-trace witness rides in the message.
        assert all("[trace:" in f.message for f in starved)

    def test_stop_task_unpinned_lifecycle_unreachable(self):
        findings = _findings(_mutate_file(
            "server.py", STOP_TASK_PIN, STOP_TASK_UNPINNED))
        assert "proto.unreachable-state" in _rules(findings)
        messages = " | ".join(f.message for f in findings)
        assert "stopped" in messages
        assert "weak task references" in messages


class TestSyntheticBugs:
    def test_new_status_member_nobody_dispatches(self):
        findings = _findings(_mutate_file(
            "protocol.py", STATUS_TAIL,
            STATUS_TAIL + "\n    PAUSED = 9"))
        assert _rules(findings) == {"proto.unhandled-status"}
        [finding] = findings
        assert "PAUSED" in finding.message
        assert finding.location.file.endswith("protocol.py")

    def test_decode_payload_raise_with_wrong_recoverable_flag(self):
        findings = _findings(_mutate_file(
            "protocol.py", BAD_MAGIC_RAISE,
            'raise FrameError(f"bad magic (want {MAGIC!r})",\n'
            '                         recoverable=False)'))
        assert _rules(findings) == {
            "proto.unclassified-frame-error"}
        [finding] = findings
        assert "decode_payload" in finding.message
        assert "recoverable=False" in finding.message

    def test_loop_continues_past_desync(self):
        findings = _findings(_mutate_file(
            "server.py", RECOVERABLE_BRANCH,
            "                continue"))
        assert "proto.desync-deadlock" in _rules(findings)
        desync = [f for f in findings
                  if f.rule == "proto.desync-deadlock"]
        # Acceptance: each model violation carries its witness trace.
        assert all("[trace:" in f.message for f in desync)
        assert any("desynchronized" in f.message for f in desync)


class TestFrameLoopAnchor:
    def test_on_shutdown_not_the_servers_stop(self):
        findings = _findings(_mutate_file(
            "server.py", SERVER_ON_SHUTDOWN,
            "super().__init__(config or ServeConfig(), "
            "self.wait_stopped)"))
        assert _rules(findings) == {"proto.unreachable-state"}
        messages = " | ".join(f.message for f in findings)
        assert "never schedules stop()" in messages

    def test_gateway_with_its_own_loop_is_an_extraction_problem(self):
        sources = _sources(_mutate_file(
            "gateway.py", GATEWAY_BODY, GATEWAY_OWN_LOOP))
        model = analyze(sources).model
        assert any("Gateway defines its own _connection_loop" in problem
                   for problem in model.problems), model.problems
        assert model.loop_runners == ("CryptoServer",)
        report = run_proto(str(ROOT), sources=sources)
        assert not report.ok
        assert "frame loop      : FrameServer._connection_loop, run " \
               "by CryptoServer\n" in report.render()


class TestWitnessTraces:
    def test_trace_names_the_adversarial_step(self):
        findings = _findings(_mutate_file(
            "server.py", RECOVERABLE_BRANCH,
            "                continue"))
        traces = [f.message for f in findings if "[trace:" in f.message]
        assert traces
        # The witness must mention a concrete peer input class, not
        # just an abstract state id.
        assert any("peer:" in t for t in traces)


class TestCorpusPins:
    """The needles really are in the shipped text (refactor guard)."""

    @pytest.mark.parametrize("filename,needle", [
        ("server.py", GCM_CAP_CHECK),
        ("server.py", SEND_FALLBACK),
        ("server.py", WORKER_SHIELD),
        ("server.py", STOP_TASK_PIN),
        ("server.py", RECOVERABLE_BRANCH),
        ("server.py", SERVER_ON_SHUTDOWN),
        ("gateway.py", GATEWAY_BODY),
        ("protocol.py", STATUS_TAIL),
        ("protocol.py", BAD_MAGIC_RAISE),
    ])
    def test_needle_present(self, filename, needle):
        text = (ROOT / "src/repro/serve" / filename).read_text()
        assert needle in text


class TestAnalysisDetail:
    def test_starvation_witness_is_minimal_state(self):
        def mutate(display, text):
            if display.endswith("server.py"):
                text = text.replace(GCM_CAP_CHECK, "    if False:")
                text = text.replace(
                    SEND_FALLBACK,
                    "\n        except ValueError as exc:")
                text = text.replace(
                    WORKER_SHIELD, "\n            except ValueError:")
            return text
        analysis = analyze(_sources(mutate))
        starved = [v for v in analysis.violations
                   if "starvation" in v.message]
        assert starved
        # The witness label renders the product state readably.
        assert "outstanding=" in starved[0].message
