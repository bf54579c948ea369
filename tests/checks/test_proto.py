"""repro.checks.proto: extraction, model checking, rules, CLI.

The shipped tree is the primary fixture: extraction must anchor
everything it looks for (``problems`` empty), the product-state
exploration must be exhaustive, fast and violation-free, and the
``proto.*`` pack must run silent under the default lint.  The
re-injection corpus (``test_proto_corpus.py``) owns the negative
space.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.checks.crypto_lint import SourceFile
from repro.checks.engine import (
    KIND_PROTO,
    CheckConfig,
    registry,
    run_rules,
)
from repro.checks.proto import (
    EXPECTED_RECOVERABLE,
    WIRE_BYTE_NAMES,
    ProtoSubject,
    analyze,
    build_input_classes,
    check_model,
    extract_wire_model,
    run_proto,
)
from repro.checks.runner import build_subjects, find_repo_root

ROOT = find_repo_root(Path(__file__))

PROTO_RULES = (
    "proto.unhandled-status",
    "proto.unreachable-state",
    "proto.desync-deadlock",
    "proto.unclassified-frame-error",
    "proto.response-not-framed",
    "proto.unbounded-buffering",
)


def _serve_sources():
    sources = []
    for path in sorted((ROOT / "src/repro/serve").glob("*.py")):
        display = str(path.relative_to(ROOT))
        sources.append(SourceFile.parse(display, path.read_text()))
    return sources


@pytest.fixture(scope="module")
def model():
    model = extract_wire_model(_serve_sources())
    assert model is not None
    return model


@pytest.fixture(scope="module")
def result(model):
    return check_model(model)


class TestExtraction:
    def test_extracts_clean(self, model):
        assert model.problems == ()

    def test_wire_constants(self, model):
        assert model.magic == b"RJ"
        assert model.version == 1
        assert model.header_format == ">2sBBBBIQ"
        assert model.header_bytes == 18
        assert model.max_payload == 1 << 20
        # Header plus the 16-byte optional trace extension plus the
        # payload cap: a traced frame at max payload still frames.
        assert model.max_frame == (1 << 20) + 18 + 16

    def test_enums(self, model):
        assert model.ops.names == (
            "LOAD_KEY", "ENCRYPT", "DECRYPT", "PING", "SHUTDOWN")
        assert model.modes.names == ("RAW", "ECB", "CTR", "GCM")
        assert model.statuses.names == (
            "OK", "BAD_FRAME", "BAD_REQUEST", "NO_KEY",
            "AUTH_FAILED", "TIMEOUT", "OVERLOADED",
            "SHUTTING_DOWN", "INTERNAL")
        assert model.statuses.value("INTERNAL") == 8
        assert set(model.retryable) == {
            "TIMEOUT", "OVERLOADED", "SHUTTING_DOWN"}

    def test_raise_sites_classified(self, model):
        by_function = {}
        for site in model.raise_sites:
            by_function.setdefault(site.function, set()).add(
                site.recoverable)
        # Every classified function raises with one consistent flag,
        # and it is the expected one.
        for function, expected in EXPECTED_RECOVERABLE.items():
            assert by_function[function] == {expected}, function

    def test_frame_loop_shared_with_the_gateway(self, model):
        # The loop, its reply path and the stop task live in the base
        # class the gateway derives from, so the model's client side
        # is the gateway's too.
        assert model.server.loop_owner == "FrameServer"
        assert model.loop_runners == ("CryptoServer", "Gateway")

    def test_server_shape(self, model):
        server = model.server
        assert server.replies_on_frame_error
        assert server.continues_on_recoverable
        assert server.closes_on_unrecoverable
        assert server.shutdown_inline and server.shutdown_replies
        assert server.stop_task_created and server.stop_task_pinned
        assert server.has_backpressure
        assert server.worker_shielded
        assert server.send_frame_error_fallback
        assert server.gcm_cap_checked
        assert server.gcm_cap == (1 << 20) - 16
        assert set(server.handler_ops) == {
            "LOAD_KEY", "ENCRYPT", "DECRYPT", "PING"}
        assert ("ENCRYPT", "GCM") in server.crypto_pairs
        assert ("DECRYPT", "GCM") in server.crypto_pairs

    def test_client_shape(self, model):
        client = model.client
        assert client.uses_retry_set
        assert client.bounded_retries
        assert client.checks_request_id

    def test_partial_source_set_returns_none(self):
        sources = [s for s in _serve_sources()
                   if not s.path.endswith("server.py")]
        assert extract_wire_model(sources) is None


class TestDiagnosticHygiene:
    """FrameError messages carry lengths and enum values only —
    never raw wire bytes (satellite: decode_body diagnostic audit)."""

    def test_no_raise_site_interpolates_wire_bytes(self, model):
        leaky = [
            f"{site.path}:{site.lineno} interpolates "
            f"{sorted(set(site.raw_reads) & WIRE_BYTE_NAMES)}"
            for site in model.raise_sites
            if set(site.raw_reads) & WIRE_BYTE_NAMES
        ]
        assert not leaky, leaky

    def test_bad_magic_message_has_no_received_bytes(self):
        from repro.serve.protocol import FrameError, decode_body
        body = b"XX" + bytes(16)
        with pytest.raises(FrameError) as exc_info:
            decode_body(body)
        assert "XX" not in str(exc_info.value)
        assert exc_info.value.recoverable


class TestModelCheck:
    def test_no_violations_on_shipped_tree(self, result):
        assert list(result.violations) == []

    def test_exploration_is_exhaustive_and_fast(self, result):
        assert not result.truncated
        assert result.states > 50
        assert result.edges > result.states
        assert result.elapsed < 10.0

    def test_all_lifecycle_states_reachable(self, result):
        assert result.server_states == {
            "running", "draining", "stopped"}

    def test_every_emitted_status_reachable(self, model, result):
        emitted = {name for name, _ in model.server.emitted_statuses}
        assert emitted - {"OK"} <= result.reply_statuses

    def test_adversarial_input_classes_cover_issue_list(self, model):
        names = {c.name for c in build_input_classes(model)}
        # truncation, oversized prefix, bad magic/version, unknown
        # enum, mid-stream SHUTDOWN, worker exception — plus the
        # historical GCM expansion case.
        assert {"eof_mid_prefix", "eof_mid_frame",
                "oversized_prefix", "bad_magic", "bad_version",
                "unknown_enum", "shutdown", "handler_crash",
                "slow_request", "gcm_encrypt_max"} <= names


class TestRulePack:
    def test_rules_registered(self):
        rules = registry()
        for rule_id in PROTO_RULES:
            assert rule_id in rules, rule_id
            assert rules[rule_id].requires == KIND_PROTO

    def test_pack_silent_on_shipped_tree(self):
        subject = ProtoSubject(tuple(_serve_sources()))
        findings = run_rules(
            {KIND_PROTO: [subject]},
            CheckConfig(enable=("proto.*",)),
        )
        assert findings == []

    def test_subject_caches_analysis(self):
        subject = ProtoSubject(tuple(_serve_sources()))
        assert subject.analysis() is subject.analysis()

    def test_runner_builds_proto_subject(self):
        subjects = build_subjects(ROOT)
        protos = subjects[KIND_PROTO]
        assert len(protos) == 1
        paths = {s.path for s in protos[0].sources}
        assert any(p.endswith("protocol.py") for p in paths)
        assert any(p.endswith("server.py") for p in paths)
        assert any(p.endswith("client.py") for p in paths)

    def test_path_restricted_run_outside_serve_has_no_subject(self):
        subjects = build_subjects(
            ROOT, [ROOT / "src/repro/aes"])
        assert subjects[KIND_PROTO] == []


class TestReport:
    def test_run_proto_ok(self):
        report = run_proto(str(ROOT))
        assert report.ok
        text = report.render()
        assert "b'RJ'" in text
        assert ">2sBBBBIQ (18 bytes)" in text
        assert ("frame loop      : FrameServer._connection_loop, run by "
                "CryptoServer, Gateway") in text
        assert "violations: none" in text

    def test_render_lists_violations(self):
        mutated = []
        for source in _serve_sources():
            text_src = open(ROOT / source.path).read()
            if source.path.endswith("protocol.py"):
                text_src = text_src.replace(
                    "    INTERNAL = 8",
                    "    INTERNAL = 8\n    PAUSED = 9")
            mutated.append(SourceFile.parse(source.path, text_src))
        report = run_proto(str(ROOT), sources=mutated)
        assert not report.ok
        assert "proto.unhandled-status" in report.render()


class TestCli:
    def test_proto_command_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "proto"],
            cwd=ROOT, capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "violations: none" in proc.stdout


class TestAnalyzeEntry:
    def test_analyze_without_serve_sources(self):
        analysis = analyze([])
        assert analysis.model is None
        assert analysis.violations == []
