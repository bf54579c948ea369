"""``taint.*`` rules: one triggering and one clean snippet per sink,
plus the interprocedural scenarios the shallow lint cannot see."""

import textwrap

from repro.checks.crypto_lint import SourceFile
from repro.checks.engine import KIND_FLOW, CheckConfig, run_rules
from repro.checks.flow import FlowSubject


def lint(rule_id, config=None, /, **modules):
    sources = tuple(
        SourceFile.parse(f"{name}.py", textwrap.dedent(code))
        for name, code in modules.items()
    )
    return run_rules({KIND_FLOW: [FlowSubject(sources)]},
                     config, only=[rule_id])


class TestSecretInLog:
    def test_direct_log_of_key_triggers(self):
        findings = lint("taint.secret-in-log", mod="""
            import logging
            LOG = logging.getLogger(__name__)

            def f(key):
                LOG.warning("loaded %s", key)
            """)
        assert len(findings) == 1
        assert "key" in findings[0].message

    def test_session_logged_by_helper_across_files(self):
        # The post-PR-5 near-miss: server code hands a Session to a
        # helper in another module, and the helper logs it.
        findings = lint(
            "taint.secret-in-log",
            helpers="""
            import logging
            LOG = logging.getLogger(__name__)

            def audit(session):
                LOG.info("state %r", session)
            """,
            server="""
            from helpers import audit

            class Session:
                pass

            def handle(key):
                session = Session()
                audit(session)
            """)
        assert len(findings) == 1
        assert findings[0].location.file == "helpers.py"

    def test_logging_public_projection_is_clean(self):
        findings = lint("taint.secret-in-log", mod="""
            import logging
            LOG = logging.getLogger(__name__)

            def f(key, session: Session):
                LOG.info("size=%d sid=%s ok=%s", len(key),
                         session.session_id, key is not None)
            """)
        assert findings == []

    def test_non_logger_receiver_is_clean(self):
        findings = lint("taint.secret-in-log", mod="""
            def f(key, store):
                store.info(key)
            """)
        assert findings == []


class TestSecretInException:
    def test_raise_with_key_triggers(self):
        findings = lint("taint.secret-in-exception", mod="""
            def f(key):
                raise ValueError(f"bad key {key!r}")
            """)
        assert len(findings) == 1

    def test_raise_without_value_is_clean(self):
        findings = lint("taint.secret-in-exception", mod="""
            def f(key):
                raise ValueError("bad key length: %d" % len(key))
            """)
        assert findings == []

    def test_seeded_validator_triggers(self):
        # Mirrors the key_schedule._check_word defect fixed in this
        # change: the validator itself has no secret-looking name,
        # only its call sites prove the argument is key material.
        findings = lint("taint.secret-in-exception", mod="""
            def _check(word):
                if word > 0xFFFFFFFF:
                    raise ValueError(f"out of range: {word}")

            def expand(key):
                _check(key[0])
            """)
        assert len(findings) == 1
        assert "word" in findings[0].message


class TestSecretInFormat:
    def test_fstring_triggers(self):
        findings = lint("taint.secret-in-format", mod="""
            def f(key):
                return f"key={key.hex()}"
            """)
        assert len(findings) == 1

    def test_repr_and_str_trigger(self):
        findings = lint("taint.secret-in-format", mod="""
            def f(key):
                a = repr(key)
                b = str(key)
            """)
        assert len(findings) == 2

    def test_str_format_and_percent_trigger(self):
        findings = lint("taint.secret-in-format", mod="""
            def f(key):
                a = "k={}".format(key)
                b = "k=%s" % (key,)
            """)
        assert len(findings) == 2

    def test_ciphertext_rendering_is_clean(self):
        # Encrypt output is the data plane; rendering it is the
        # system working as intended.
        findings = lint("taint.secret-in-format", mod="""
            def gcm_encrypt(key, data):
                return data

            def f(key, data):
                return f"ct={gcm_encrypt(key, data).hex()}"
            """)
        assert findings == []

    def test_length_interpolation_is_clean(self):
        findings = lint("taint.secret-in-format", mod="""
            def f(key):
                return f"loaded {len(key)} bytes"
            """)
        assert findings == []


class TestSecretInMetric:
    def test_key_as_label_value_triggers(self):
        findings = lint("taint.secret-in-metric", mod="""
            def f(counter, key):
                counter.labels(peer=key).inc()
            """)
        assert len(findings) == 1

    def test_key_as_bound_label_value_triggers(self):
        findings = lint("taint.secret-in-metric", mod="""
            def f(counter, key):
                return counter.bind(peer=key)
            """)
        assert len(findings) == 1

    def test_public_label_is_clean(self):
        findings = lint("taint.secret-in-metric", mod="""
            def f(counter, frame, key):
                counter.labels(op=frame.op).inc()
            """)
        assert findings == []


class TestSecretInSpan:
    def test_key_as_span_attribute_triggers(self):
        findings = lint("taint.secret-in-span", mod="""
            def f(key):
                with trace_span("op", material=key):
                    pass
            """)
        assert len(findings) == 1

    def test_span_name_and_public_attrs_are_clean(self):
        findings = lint("taint.secret-in-span", mod="""
            def f(key, frame):
                with trace_span("encrypt", op=frame.op):
                    pass
            """)
        assert findings == []
