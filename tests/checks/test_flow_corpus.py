"""Seed-bug regression corpus for the flow packs.

Two layers:

- every fixture under ``flow_corpus/`` carries ``# expect: rule-id``
  annotations and is checked for an *exact* match — a missing finding
  is a regression, an unexpected one is a false positive;
- the historical PR-5 production bugs are re-injected into the real
  shipped ``repro.serve`` sources (mutation style) and the packs must
  flag each injection — and stay silent on the unmutated tree.
"""

import re
from pathlib import Path

import pytest

from repro.checks.crypto_lint import SourceFile
from repro.checks.engine import KIND_FLOW, CheckConfig, run_rules
from repro.checks.flow import FlowSubject
from repro.checks.runner import (
    DEFAULT_SOURCE_DIRS,
    FLOW_EXTRA_SOURCE_DIRS,
    find_repo_root,
)

CORPUS = Path(__file__).parent / "flow_corpus"
_EXPECT = re.compile(r"#\s*expect:\s*(?P<rules>[\w.,\s-]+)$")

FLOW_CONFIG = CheckConfig(enable=("taint.*", "aio.*"))


def _programs():
    """(program-id, [paths]) — files solo, subdirectories together."""
    for path in sorted(CORPUS.glob("*.py")):
        yield path.stem, [path]
    for sub in sorted(p for p in CORPUS.iterdir() if p.is_dir()):
        yield sub.name, sorted(sub.glob("*.py"))


def _expectations(paths):
    expected = set()
    for path in paths:
        for lineno, line in enumerate(
                path.read_text().splitlines(), start=1):
            match = _EXPECT.search(line)
            if match:
                for rule_id in match.group("rules").split(","):
                    expected.add((path.name, lineno,
                                  rule_id.strip()))
    return expected


def _run(sources):
    subject = FlowSubject(tuple(sources))
    return run_rules({KIND_FLOW: [subject]}, FLOW_CONFIG)


@pytest.mark.parametrize(
    "program_id,paths",
    list(_programs()),
    ids=[program_id for program_id, _ in _programs()],
)
def test_corpus_program(program_id, paths):
    sources = [SourceFile.parse(p.name, p.read_text())
               for p in paths]
    got = {(f.location.file, f.location.line, f.rule)
           for f in _run(sources)}
    expected = _expectations(paths)
    missing = expected - got
    unexpected = got - expected
    assert not missing, f"corpus findings not produced: {missing}"
    assert not unexpected, \
        f"false positives on corpus: {unexpected}"


# --------------------------------------------------------------------
# Mutation layer: the real serve tree, with each historical bug put
# back in.
# --------------------------------------------------------------------
def _serve_sources(mutate=None):
    root = find_repo_root(Path(__file__))
    sources = []
    for rel in (*DEFAULT_SOURCE_DIRS, *FLOW_EXTRA_SOURCE_DIRS):
        for path in sorted((root / rel).rglob("*.py")):
            display = str(path.relative_to(root))
            text = path.read_text()
            if mutate is not None:
                text = mutate(display, text)
            sources.append(SourceFile.parse(display, text))
    return sources


def _findings(rule_id, mutate=None):
    return [f for f in _run(_serve_sources(mutate))
            if f.rule == rule_id]


class TestHistoricalBugInjection:
    # The pin sits in FrameServer._connection_loop, the frame loop the
    # server shares with the gateway.
    PIN = ("self._stop_task = (\n"
           "                        asyncio.get_running_loop()\n"
           "                        .create_task(self._on_shutdown())\n"
           "                    )")
    UNPINNED = ("(\n"
                "                        asyncio.get_running_loop()\n"
                "                        .create_task(self._on_shutdown())\n"
                "                    )")

    def test_shipped_tree_is_clean(self):
        findings = _run(_serve_sources())
        assert findings == [], \
            [f.render() for f in findings]

    def test_unretained_stop_task_reinjected_is_flagged(self):
        # PR-5 production bug #1: drop the pin, keep everything else.
        def mutate(path, text):
            if path.endswith("serve/server.py"):
                assert self.PIN in text, \
                    "server.py stop-task pin moved; update corpus"
                return text.replace(self.PIN, self.UNPINNED)
            return text

        flagged = _findings("aio.task-not-retained", mutate)
        assert len(flagged) == 1
        assert flagged[0].location.file.endswith("serve/server.py")
        assert "discarded" in flagged[0].message

    def test_session_logged_via_helper_reinjected_is_flagged(self):
        # PR-5 bug class #2: a Session crossing one helper call into
        # a log line.  The helper's parameter is innocently named —
        # only call-site seeding can prove it secret.
        injected = (
            "\n\n"
            "def _log_state(state):\n"
            "    _LOG.info('connection state: %r', state)\n"
            "\n\n"
            "def _on_protocol_error(session: Session) -> None:\n"
            "    _log_state(session)\n"
        )

        def mutate(path, text):
            if path.endswith("serve/server.py"):
                return text + injected
            return text

        flagged = _findings("taint.secret-in-log", mutate)
        assert len(flagged) == 1
        assert flagged[0].location.file.endswith("serve/server.py")
        assert "state" in flagged[0].message

    def test_session_in_admin_response_reinjected_is_flagged(self):
        # The admin plane's design contract: no Session ever reaches
        # a response body.  Re-inject exactly that bug — a debug
        # endpoint rendering the session — and the taint pack must
        # fire (the carrier annotation is the only secret marker).
        injected = (
            "\n\n"
            "def _session_debug_body(session: Session) -> str:\n"
            "    return f'active session: {session!r}\\n'\n"
        )

        def mutate(path, text):
            if path.endswith("serve/admin.py"):
                return text + injected
            return text

        flagged = [f for f in _run(_serve_sources(mutate))
                   if f.rule.startswith("taint.secret-in-")]
        assert len(flagged) == 1
        assert flagged[0].rule == "taint.secret-in-format"
        assert flagged[0].location.file.endswith("serve/admin.py")
