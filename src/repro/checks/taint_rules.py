"""``taint.*`` — interprocedural secret-leak rules.

Key material must never reach an output channel: not a log line, not
an exception message, not a rendered string, not a metrics label, not
a trace span attribute.  Each rule here names one such *sink* and
asks the :class:`~repro.checks.flow.FlowProgram` whether any secret
data — a key-named value, a value derived from one, or a
secret-carrier object like the serving layer's ``Session`` — reaches
it, across call boundaries and across files.

The motivating defect class is real: post-PR-5 review found a
``Session`` (whose field *is* the session key) one helper call away
from a log statement.  The shallow per-file lint cannot see that; the
flow engine's fixpoint can, because the helper's parameter is seeded
tainted by the call site and the log call inside the helper then
reads a tainted name.

Sinks:

- ``taint.secret-in-log`` (error) — an argument of a
  ``logging``-style call (``_LOG.warning(...)``, ``logger.info``,
  ``logging.error``) reads secret data.
- ``taint.secret-in-exception`` (error) — a ``raise``'d exception is
  constructed with secret data in its arguments: the message ends up
  in tracebacks, crash reporters and often client-visible error
  frames.
- ``taint.secret-in-format`` (warning) — secret data is rendered
  into a string: an f-string interpolation, ``repr``/``str``/
  ``format``/``ascii``, ``"...".format(...)`` or ``"..." % (...)``.
  Rendering is not yet a leak, which is why this is a warning — but
  a rendered secret is one innocent-looking ``print`` away from one,
  and the string keeps its taint for the error-severity sinks.
- ``taint.secret-in-metric`` (error) — secret data used as a metrics
  label value (``.labels(...)``, or ``.bind(...)`` of a series kept
  for a hot path): label values are exported in every Prometheus
  scrape and JSON snapshot.
- ``taint.secret-in-span`` (error) — secret data passed as a trace
  span attribute (``trace_span(...)`` keyword): spans are written to
  Chrome-trace files meant to be shared.

The sanitizer model is shared with the ``ct.*`` family
(:mod:`repro.checks.secrets`): ``len``/``isinstance``/``type``/
``compare_digest`` launder, public frame attributes (``.status``,
``.request_id``, ...) project protocol state, and is-None identity
checks reveal only presence.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.checks.engine import (
    KIND_FLOW,
    CheckConfig,
    Finding,
    Location,
    Severity,
    rule,
)
from repro.checks.flow import (
    FlowProgram,
    FlowSubject,
    FunctionInfo,
    call_name,
    own_nodes,
)

#: Logging methods whose arguments become log-record text.
_LOG_METHODS = {
    "debug", "info", "warning", "warn", "error", "exception",
    "critical", "log", "fatal",
}

#: Builtins that render their argument into presentable text.
_FORMAT_BUILTINS = {"repr", "str", "format", "ascii"}


def _base_name(node: ast.AST) -> str:
    """The leftmost-ish name of an attribute chain (``a.b.c`` -> c's
    immediate base rendered as its final identifier)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _is_log_call(node: ast.Call) -> bool:
    """``<something that looks like a logger>.warning(...)``."""
    func = node.func
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr not in _LOG_METHODS:
        return False
    return "log" in _base_name(func.value).lower()


def _call_payload(node: ast.Call) -> List[ast.AST]:
    """Every expression a call would render (args + keyword values)."""
    payload: List[ast.AST] = list(node.args)
    payload.extend(kw.value for kw in node.keywords)
    return payload


def _functions(program: FlowProgram) -> Iterator[FunctionInfo]:
    return iter(program)


def _leaks(program: FlowProgram, info: FunctionInfo,
           exprs: List[ast.AST]) -> List[str]:
    """Secret reads across a list of sink expressions, deduplicated."""
    reads: List[str] = []
    for expr in exprs:
        for item in program.secret_reads(info, expr):
            if item not in reads:
                reads.append(item)
    return reads


def _finding(rule_id: str, severity: Severity, info: FunctionInfo,
             node: ast.AST, reads: List[str],
             sink: str) -> Finding:
    names = ", ".join(reads)
    return Finding(
        rule_id, severity,
        f"key material ({names}) reaches {sink}",
        Location(file=info.path, line=getattr(node, "lineno", 0),
                 obj=info.display),
    )


@rule("taint.secret-in-log", Severity.ERROR, KIND_FLOW,
      "key/session material reaches a logging call "
      "(interprocedural)")
def secret_in_log(subject: FlowSubject,
                  config: CheckConfig) -> Iterator[Finding]:
    program = subject.program(config)
    for info in _functions(program):
        for node in own_nodes(info.node):
            if not (isinstance(node, ast.Call)
                    and _is_log_call(node)):
                continue
            reads = _leaks(program, info, _call_payload(node))
            if reads:
                yield _finding(
                    "taint.secret-in-log", Severity.ERROR, info,
                    node, reads,
                    "a log call; logs are plaintext and retained",
                )


@rule("taint.secret-in-exception", Severity.ERROR, KIND_FLOW,
      "key/session material raised inside an exception message "
      "(interprocedural)")
def secret_in_exception(subject: FlowSubject,
                        config: CheckConfig) -> Iterator[Finding]:
    program = subject.program(config)
    for info in _functions(program):
        for node in own_nodes(info.node):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            if not isinstance(node.exc, ast.Call):
                continue
            reads = _leaks(program, info, _call_payload(node.exc))
            if reads:
                yield _finding(
                    "taint.secret-in-exception", Severity.ERROR,
                    info, node, reads,
                    "an exception message; tracebacks outlive the "
                    "handler and cross trust boundaries",
                )


def _format_sink(node: ast.AST) -> Optional[Tuple[str,
                                                  List[ast.AST]]]:
    """(description, rendered expressions) when ``node`` renders
    text, else None."""
    if isinstance(node, ast.FormattedValue):
        return "an f-string interpolation", [node.value]
    if isinstance(node, ast.Call):
        name = call_name(node)
        if isinstance(node.func, ast.Name) and \
                name in _FORMAT_BUILTINS:
            return f"{name}()", list(node.args)
        if isinstance(node.func, ast.Attribute) and \
                name == "format":
            return "str.format()", _call_payload(node)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        left = node.left
        if isinstance(left, ast.Constant) and \
                isinstance(left.value, str):
            return "%-formatting", [node.right]
    return None


@rule("taint.secret-in-format", Severity.WARNING, KIND_FLOW,
      "key/session material rendered into a string "
      "(f-string/repr/str/format)")
def secret_in_format(subject: FlowSubject,
                     config: CheckConfig) -> Iterator[Finding]:
    program = subject.program(config)
    for info in _functions(program):
        for node in own_nodes(info.node):
            sink = _format_sink(node)
            if sink is None:
                continue
            description, exprs = sink
            reads = _leaks(program, info, exprs)
            if reads:
                yield _finding(
                    "taint.secret-in-format", Severity.WARNING,
                    info, node, reads, description,
                )


@rule("taint.secret-in-metric", Severity.ERROR, KIND_FLOW,
      "key/session material used as a metrics label value "
      "(exported on every scrape)")
def secret_in_metric(subject: FlowSubject,
                     config: CheckConfig) -> Iterator[Finding]:
    program = subject.program(config)
    for info in _functions(program):
        for node in own_nodes(info.node):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("labels", "bind")):
                continue
            reads = _leaks(program, info, _call_payload(node))
            if reads:
                yield _finding(
                    "taint.secret-in-metric", Severity.ERROR, info,
                    node, reads,
                    "a metrics label value; exposition formats "
                    "export every label",
                )


@rule("taint.secret-in-span", Severity.ERROR, KIND_FLOW,
      "key/session material attached to a trace span attribute "
      "(trace files are meant to be shared)")
def secret_in_span(subject: FlowSubject,
                   config: CheckConfig) -> Iterator[Finding]:
    program = subject.program(config)
    for info in _functions(program):
        for node in own_nodes(info.node):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name not in ("trace_span", "span"):
                continue
            # Positional arguments are the span name/category;
            # attributes travel as keywords.
            reads = _leaks(program, info,
                           [kw.value for kw in node.keywords])
            if reads:
                yield _finding(
                    "taint.secret-in-span", Severity.ERROR, info,
                    node, reads,
                    "a trace span attribute; Chrome-trace files "
                    "are exported artifacts",
                )


__all__ = [
    "secret_in_exception",
    "secret_in_format",
    "secret_in_log",
    "secret_in_metric",
    "secret_in_span",
]
