"""Explicit-state protocol model checking for the serve layer.

``checks.fsm`` proves the *hardware* control FSM by exhaustive walk
(5-cycle rounds, 50-cycle blocks).  Nothing proved the *wire*
protocol, and both historical serve-layer production bugs — the
unframeable GCM response that permanently killed worker tasks, and
the SHUTDOWN ``stop()`` task lost to the event loop's weak task
references — were protocol/lifecycle bugs found only after the fact.
This module closes that gap in two stages:

- **Extraction** — :func:`extract_wire_model` reads
  ``serve/protocol.py`` / ``server.py`` / ``client.py`` off the same
  :class:`~repro.checks.crypto_lint.SourceFile` AST substrate the
  other source families use and recovers the wire model: header
  layout (folding ``struct.Struct(">2sBBBBIQ").size``), the
  ``Op``/``Mode``/``Status`` enums, the MAX_PAYLOAD-class limits,
  every ``FrameError`` raise site with its ``recoverable`` flag, and
  the behavioural shape of the server's per-connection loop (resolved
  through ``CryptoServer``'s base class), worker path and crypto
  dispatch plus the client's retry loop.  It also reads
  ``gateway.py`` to confirm that ``Gateway`` derives from the class
  that defines the loop and defines no loop, handler or reply path of
  its own, so the model's client side is the gateway's too.  Anything
  the extractor cannot anchor is recorded in
  :attr:`WireModel.problems` — the shipped tree must extract clean.
- **Model checking** — :func:`check_model` runs a BFS over the
  client x server x channel product (peer actions are adversarial:
  truncation, oversized prefixes, bad magic/version, unknown enums,
  mid-stream SHUTDOWN, worker-killing requests) and proves, with a
  predecessor-chain witness trace for every failure:

  * no reachable *desync-deadlock* — a desynchronized byte stream is
    never read from again, and every outstanding request is answered
    or its connection closed by the server's own steps;
  * every server error path emits a response or closes;
  * buffering stays bounded in every reachable state (the queue
    never grows past its bound without an ``OVERLOADED`` answer);
  * the expected lifecycle states (running, draining, stopped) are
    all reachable — a lost ``stop()`` task makes ``stopped``
    unreachable, which is exactly the historical GC hazard;
  * every status the server source emits is produced by some
    reachable protocol state (extractor/model cross-validation).

The ``proto.*`` rules over this analysis run in ``lint --strict``
(see docs/static_analysis.md, "Protocol model checking") and back the
``repro-aes proto`` report command.  The re-injection corpus in
``tests/checks/test_proto_corpus.py`` plants both historical bugs and
synthetic ones into the real module text and asserts each is caught.
"""

from __future__ import annotations

import ast
import struct
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, Iterator, List, Optional, Sequence, \
    Set, Tuple, Union

from repro.checks.crypto_lint import SourceFile
from repro.checks.engine import (
    KIND_PROTO,
    CheckConfig,
    Finding,
    Location,
    Severity,
    rule,
)
from repro.checks.secrets import SANITIZERS

#: A folded compile-time value: int, bytes, str, bool or a struct
#: format captured from ``struct.Struct(fmt)``.
FoldValue = Union[int, bytes, str, bool, Tuple[str, str]]

#: Identifiers that name raw wire bytes inside the protocol codec.
#: A ``FrameError`` diagnostic interpolating one of these un-sanitized
#: echoes attacker-controlled (or key-adjacent) bytes back onto the
#: wire; lengths and enum values are the sanctioned vocabulary.
WIRE_BYTE_NAMES = frozenset({
    "body", "data", "payload", "prefix", "magic", "header", "wire",
    "frame_bytes", "raw",
})

#: ``FrameError.recoverable`` ground truth by raising function: a
#: ``decode_body`` / ``decode_payload`` failure consumed exactly one
#: well-delimited frame (stream still aligned); everything raised by
#: the framing readers and the client round-trip means the stream
#: cannot be trusted.  ``decode_payload`` is the zero-copy split
#: entry point the streaming reader parses through.
EXPECTED_RECOVERABLE: Dict[str, bool] = {
    "decode_body": True,
    "decode_payload": True,
    "decode_frame": False,
    "read_frame": False,
    "_roundtrip": False,
}


# ------------------------------------------------------- model records
@dataclass(frozen=True)
class EnumModel:
    """One IntEnum extracted from protocol.py."""

    name: str
    lineno: int
    members: Tuple[Tuple[str, int], ...]
    member_lines: Tuple[Tuple[str, int], ...]

    def value(self, member: str) -> Optional[int]:
        for name, value in self.members:
            if name == member:
                return value
        return None

    def line(self, member: str) -> int:
        for name, line in self.member_lines:
            if name == member:
                return line
        return self.lineno

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.members)


@dataclass(frozen=True)
class RaiseSite:
    """One ``raise FrameError(...)`` with its classification."""

    path: str
    function: str
    lineno: int
    recoverable: bool
    explicit: bool                 # flag written out at the site
    text: str                      # constant parts of the message
    raw_reads: Tuple[str, ...]     # un-sanitized interpolated roots


@dataclass(frozen=True)
class ServerModel:
    """Behavioural shape of ``CryptoServer`` (server.py)."""

    path: str
    loop_lineno: int
    #: The class that defines ``_connection_loop``: ``CryptoServer``
    #: or the base class it shares with the gateway.
    loop_owner: str
    #: except-FrameError path of the connection loop.
    replies_on_frame_error: bool
    continues_on_recoverable: bool
    closes_on_unrecoverable: bool
    #: inline SHUTDOWN handling.
    shutdown_inline: bool
    shutdown_replies: bool
    shutdown_lineno: int
    stop_task_created: bool
    stop_task_pinned: bool
    #: draining / backpressure.
    replies_when_stopping: bool
    has_backpressure: bool
    #: worker path.
    worker_shielded: bool
    process_catches_timeout: bool
    process_catches_exception: bool
    unknown_op_reply: bool
    send_frame_error_fallback: bool
    send_lineno: int
    #: dispatch tables.
    handler_ops: Tuple[str, ...]
    crypto_pairs: Tuple[Tuple[str, str], ...]
    #: GCM response-expansion guard.
    gcm_cap: Optional[int]
    gcm_cap_checked: bool
    gcm_encrypt_lineno: int
    #: every ``Status.X`` the server source references, with lines.
    emitted_statuses: Tuple[Tuple[str, int], ...]

    def emits(self, status: str) -> bool:
        return any(name == status for name, _ in self.emitted_statuses)


@dataclass(frozen=True)
class ClientModel:
    """Behavioural shape of ``CryptoClient`` (client.py)."""

    path: str
    uses_retry_set: bool
    bounded_retries: bool
    checks_request_id: bool
    referenced_statuses: Tuple[str, ...]


@dataclass(frozen=True)
class WireModel:
    """Everything the extractor recovered about the wire protocol."""

    protocol_path: str
    server_path: str
    client_path: str
    magic: Optional[bytes]
    version: Optional[int]
    header_format: Optional[str]
    header_bytes: Optional[int]
    max_payload: Optional[int]
    max_frame: Optional[int]
    gcm_iv_bytes: Optional[int]
    gcm_tag_bytes: Optional[int]
    key_bytes: Optional[int]
    ops: Optional[EnumModel]
    modes: Optional[EnumModel]
    statuses: Optional[EnumModel]
    retryable: Tuple[str, ...]
    raise_sites: Tuple[RaiseSite, ...]
    server: Optional[ServerModel]
    client: Optional[ClientModel]
    #: The classes confirmed to run the server's frame loop.
    loop_runners: Tuple[str, ...]
    problems: Tuple[str, ...]


# ----------------------------------------------------- constant folding
def _fold(node: ast.AST,
          env: Dict[str, FoldValue]) -> Optional[FoldValue]:
    """Fold a module-level constant expression, or ``None``."""
    if isinstance(node, ast.Constant):
        value = node.value
        if isinstance(value, (int, bytes, str, bool)):
            return value
        return None
    if isinstance(node, ast.Name):
        return env.get(node.id)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        operand = _fold(node.operand, env)
        if isinstance(operand, int):
            return -operand
        return None
    if isinstance(node, ast.BinOp):
        left = _fold(node.left, env)
        right = _fold(node.right, env)
        if isinstance(left, int) and isinstance(right, int):
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.LShift):
                return left << right
        return None
    if isinstance(node, ast.Call):
        # struct.Struct(fmt) -> a captured format; .size folds below.
        name = _call_name(node)
        if name == "Struct" and node.args:
            fmt = _fold(node.args[0], env)
            if isinstance(fmt, str):
                return ("struct", fmt)
        if name == "calcsize" and node.args:
            fmt = _fold(node.args[0], env)
            if isinstance(fmt, str):
                try:
                    return struct.calcsize(fmt)
                except struct.error:
                    return None
        return None
    if isinstance(node, ast.Attribute) and node.attr == "size":
        base = _fold(node.value, env)
        if isinstance(base, tuple) and base[0] == "struct":
            try:
                return struct.calcsize(base[1])
            except struct.error:
                return None
        return None
    return None


def _call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _module_env(tree: ast.Module,
                seed: Optional[Dict[str, FoldValue]] = None,
                ) -> Dict[str, FoldValue]:
    """Fold every module-level simple assignment, in order."""
    env: Dict[str, FoldValue] = dict(seed or {})
    for stmt in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        folded = _fold(value, env)
        if folded is None:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                env[target.id] = folded
    return env


# --------------------------------------------------------- protocol.py
def _extract_enums(tree: ast.Module) -> Dict[str, EnumModel]:
    enums: Dict[str, EnumModel] = {}
    for stmt in tree.body:
        if not isinstance(stmt, ast.ClassDef):
            continue
        is_enum = any(
            (isinstance(base, ast.Name) and base.id == "IntEnum")
            or (isinstance(base, ast.Attribute)
                and base.attr == "IntEnum")
            for base in stmt.bases
        )
        if not is_enum:
            continue
        members: List[Tuple[str, int]] = []
        lines: List[Tuple[str, int]] = []
        for item in stmt.body:
            if isinstance(item, ast.Assign) \
                    and len(item.targets) == 1 \
                    and isinstance(item.targets[0], ast.Name) \
                    and isinstance(item.value, ast.Constant) \
                    and isinstance(item.value.value, int):
                members.append((item.targets[0].id, item.value.value))
                lines.append((item.targets[0].id, item.lineno))
        enums[stmt.name] = EnumModel(
            name=stmt.name, lineno=stmt.lineno,
            members=tuple(members), member_lines=tuple(lines),
        )
    return enums


def _extract_retryable(tree: ast.Module) -> Tuple[str, ...]:
    """Members of the ``RETRYABLE_STATUSES = frozenset({...})``."""
    for stmt in tree.body:
        if not (isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == "RETRYABLE_STATUSES"):
            continue
        names: List[str] = []
        for node in ast.walk(stmt.value):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "Status":
                names.append(node.attr)
        return tuple(names)
    return ()


def _raw_roots(node: ast.AST) -> List[str]:
    """Root identifiers an interpolation reads *un-sanitized*.

    ``len(body)`` reveals a length (fine); bare ``body`` / ``magic``
    / ``data[:4]`` reveal wire bytes.  Sanctioned calls sanitize
    their whole argument list; other calls pass raw-ness through.
    """
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, (ast.Attribute, ast.Subscript)):
        return _raw_roots(node.value)
    if isinstance(node, ast.Call):
        name = _call_name(node)
        if name in SANITIZERS or name in ("int", "float", "hex"):
            return []
        roots: List[str] = []
        for arg in node.args:
            roots.extend(_raw_roots(arg))
        return roots
    if isinstance(node, ast.BinOp):
        return _raw_roots(node.left) + _raw_roots(node.right)
    if isinstance(node, ast.FormattedValue):
        return _raw_roots(node.value)
    return []


def _message_parts(node: ast.expr) -> Tuple[str, List[str]]:
    """(constant text, raw interpolated roots) of a message expr."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value, []
    if isinstance(node, ast.JoinedStr):
        text: List[str] = []
        raws: List[str] = []
        for value in node.values:
            if isinstance(value, ast.Constant) \
                    and isinstance(value.value, str):
                text.append(value.value)
            elif isinstance(value, ast.FormattedValue):
                raws.extend(_raw_roots(value))
        return "".join(text), raws
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left_text, left_raw = _message_parts(node.left)
        right_text, right_raw = _message_parts(node.right)
        return left_text + right_text, left_raw + right_raw
    return "", _raw_roots(node)


def _extract_raise_sites(source: SourceFile) -> List[RaiseSite]:
    """Every ``raise FrameError(...)`` with its recoverable flag."""
    sites: List[RaiseSite] = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) \
                    and isinstance(child.exc, ast.Call) \
                    and _call_name(child.exc) == "FrameError":
                call = child.exc
                recoverable, explicit = True, False
                for kw in call.keywords:
                    if kw.arg == "recoverable" \
                            and isinstance(kw.value, ast.Constant):
                        recoverable = bool(kw.value.value)
                        explicit = True
                if len(call.args) > 1 \
                        and isinstance(call.args[1], ast.Constant):
                    recoverable = bool(call.args[1].value)
                    explicit = True
                text, raws = ("", [])
                if call.args:
                    text, raws = _message_parts(call.args[0])
                sites.append(RaiseSite(
                    path=source.path, function=function,
                    lineno=child.lineno, recoverable=recoverable,
                    explicit=explicit, text=text.lower(),
                    raw_reads=tuple(raws),
                ))
            visit(child, function)

    visit(source.tree, "<module>")
    return sites


# ----------------------------------------------------------- server.py
def _method(cls: ast.ClassDef,
            name: str) -> Optional[ast.AST]:
    for item in cls.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and item.name == name:
            return item
    return None


def _module_function(tree: ast.Module,
                     name: str) -> Optional[ast.AST]:
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and stmt.name == name:
            return stmt
    return None


def _base_names(cls: ast.ClassDef) -> List[str]:
    """Names of ``cls``'s bases: ``Base``, ``Base[...]`` or
    ``module.Base``."""
    names: List[str] = []
    for base in cls.bases:
        if isinstance(base, ast.Subscript):
            base = base.value
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def _lineage(tree: ast.Module, name: str) -> List[ast.ClassDef]:
    """Class ``name`` and its ancestors defined in the same module,
    nearest first; empty when the module defines no such class."""
    classes = {stmt.name: stmt for stmt in tree.body
               if isinstance(stmt, ast.ClassDef)}
    lineage = [classes[name]] if name in classes else []
    for cls in lineage:  # grows as ancestors are found
        for base in _base_names(cls):
            if base in classes and classes[base] not in lineage:
                lineage.append(classes[base])
    return lineage


def _resolve(lineage: Sequence[ast.ClassDef],
             name: str) -> Tuple[Optional[ast.AST], str]:
    """Method ``name`` as the nearest class in ``lineage`` defines it,
    and that class's name."""
    for cls in lineage:
        method = _method(cls, name)
        if method is not None:
            return method, cls.name
    return None, ""


def _catches(handler: ast.ExceptHandler, exc_name: str) -> bool:
    """Does this except clause name ``exc_name`` (bare or dotted)?"""
    def match(node: Optional[ast.expr]) -> bool:
        if isinstance(node, ast.Name):
            return node.id == exc_name
        if isinstance(node, ast.Attribute):
            return node.attr == exc_name
        if isinstance(node, ast.Tuple):
            return any(match(el) for el in node.elts)
        return False
    return match(handler.type)


def _mentions_recoverable(node: ast.expr) -> bool:
    return any(
        isinstance(n, ast.Attribute) and n.attr == "recoverable"
        for n in ast.walk(node)
    )


def _calls_send(stmts: Sequence[ast.stmt]) -> bool:
    for stmt in stmts:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "_send":
                return True
    return False


def _branch_terminal(stmts: Sequence[ast.stmt],
                     recoverable: bool) -> str:
    """How the except-FrameError body ends on one recoverable value.

    Returns ``"continue"``, ``"return"`` or ``"fall"`` (falling off
    the handler continues the enclosing ``while True`` loop).
    """
    for stmt in stmts:
        if isinstance(stmt, ast.Continue):
            return "continue"
        if isinstance(stmt, ast.Return):
            return "return"
        if isinstance(stmt, ast.If) \
                and _mentions_recoverable(stmt.test):
            branch = stmt.body if recoverable else stmt.orelse
            outcome = _branch_terminal(branch, recoverable)
            if outcome != "fall":
                return outcome
    return "fall"


def _attr_is(node: ast.expr, attr: str) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == attr


def _enum_attr(node: ast.expr, enum_name: str) -> Optional[str]:
    """``Op.SHUTDOWN`` -> ``"SHUTDOWN"`` when the base matches."""
    if isinstance(node, ast.Attribute) \
            and isinstance(node.value, ast.Name) \
            and node.value.id == enum_name:
        return node.attr
    return None


#: What a SHUTDOWN frame's task may run: the service's ``stop``, or
#: the ``on_shutdown`` its frame loop was given (which
#: ``CryptoServer.__init__`` must bind to its own ``stop``).
_STOP_CALLS = ("stop", "_on_shutdown")


def _creates_stop_task(node: ast.AST) -> str:
    """The stop call a ``...create_task(self.<stop>())`` in this node
    runs (one of :data:`_STOP_CALLS`), or ``""``."""
    for call in ast.walk(node):
        if isinstance(call, ast.Call) \
                and isinstance(call.func, ast.Attribute) \
                and call.func.attr == "create_task":
            for arg in call.args:
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Attribute) \
                            and sub.attr in _STOP_CALLS:
                        return sub.attr
    return ""


def _passes_stop(init: Optional[ast.AST]) -> bool:
    """Does ``__init__`` hand its base class ``self.stop``?"""
    if init is None:
        return False
    for node in ast.walk(init):
        if isinstance(node, ast.Call) and _attr_is(node.func,
                                                   "__init__"):
            values = [*node.args, *(kw.value for kw in node.keywords)]
            return any(_attr_is(value, "stop") for value in values)
    return False


@dataclass
class _LoopShape:
    """What ``_connection_loop`` does on each event class."""

    replies_on_frame_error: bool = False
    continues_on_recoverable: bool = False
    closes_on_unrecoverable: bool = False
    shutdown_inline: bool = False
    shutdown_replies: bool = False
    shutdown_lineno: int = 0
    #: What the SHUTDOWN task runs (see :func:`_creates_stop_task`).
    stop_call: str = ""
    stop_task_pinned: bool = False
    replies_when_stopping: bool = False


def _has_backpressure(dispatch: ast.AST) -> bool:
    """Does the dispatch answer a full queue (``QueueFull``)?"""
    for node in ast.walk(dispatch):
        if isinstance(node, ast.Try):
            for handler in node.handlers:
                if _catches(handler, "QueueFull") \
                        and _calls_send(handler.body):
                    return True
    return False


def _extract_connection_loop(loop: ast.AST,
                             problems: List[str]) -> _LoopShape:
    """Shape of ``_connection_loop``: error path, SHUTDOWN, drain."""
    out = _LoopShape(shutdown_lineno=getattr(loop, "lineno", 0))
    frame_handler: Optional[ast.ExceptHandler] = None
    for node in ast.walk(loop):
        if isinstance(node, ast.Try):
            for handler in node.handlers:
                if _catches(handler, "FrameError") \
                        and frame_handler is None:
                    frame_handler = handler
        if isinstance(node, ast.If):
            op = None
            for sub in ast.walk(node.test):
                member = _enum_attr(sub, "Op")
                if member == "SHUTDOWN":
                    op = member
            if op is not None:
                out.shutdown_inline = True
                out.shutdown_lineno = node.lineno
                out.shutdown_replies = _calls_send(node.body)
                for stmt in node.body:
                    for sub in ast.walk(stmt):
                        if isinstance(sub, ast.Assign) \
                                and _creates_stop_task(sub.value) \
                                and any(isinstance(t, ast.Attribute)
                                        for t in sub.targets):
                            out.stop_task_pinned = True
                out.stop_call = _creates_stop_task(node)
            if _attr_is(node.test, "_stopping") \
                    and _calls_send(node.body):
                out.replies_when_stopping = True
    if frame_handler is None:
        problems.append(
            "_connection_loop: no except-FrameError handler found"
        )
    else:
        out.replies_on_frame_error = _calls_send(frame_handler.body)
        out.continues_on_recoverable = _branch_terminal(
            frame_handler.body, recoverable=True
        ) in ("continue", "fall")
        out.closes_on_unrecoverable = _branch_terminal(
            frame_handler.body, recoverable=False
        ) == "return"
    return out


def _status_in(node: ast.AST, status: str) -> bool:
    return any(
        _enum_attr(sub, "Status") == status
        for sub in ast.walk(node)
    )


def _extract_crypto_table(tree: ast.Module, problems: List[str],
                          ) -> Dict[Tuple[str, str], str]:
    """``_CRYPTO_OPS``: (op, mode) member names -> handler name."""
    table: Dict[Tuple[str, str], str] = {}
    for stmt in tree.body:
        value = None
        if isinstance(stmt, ast.Assign):
            value = stmt.value
            names = [t.id for t in stmt.targets
                     if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign):
            value = stmt.value
            names = [stmt.target.id] \
                if isinstance(stmt.target, ast.Name) else []
        else:
            continue
        if "_CRYPTO_OPS" not in names \
                or not isinstance(value, ast.Dict):
            continue
        for key, val in zip(value.keys, value.values):
            if not isinstance(key, ast.Tuple) or len(key.elts) != 2:
                continue
            op = _enum_attr(key.elts[0], "Op")
            mode = _enum_attr(key.elts[1], "Mode")
            if op is None or mode is None:
                continue
            handler = ""
            if isinstance(val, ast.Name):
                handler = val.id
            elif isinstance(val, ast.Attribute):
                handler = val.attr
            table[(op, mode)] = handler
        return table
    problems.append("server: _CRYPTO_OPS dispatch table not found")
    return table


def _find_cap_check(func: ast.AST, cap_names: Set[str]) -> bool:
    """An ``if <...> > CAP: raise`` guard inside ``func``."""
    for node in ast.walk(func):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        if not isinstance(test, ast.Compare):
            continue
        mentions_cap = any(
            isinstance(sub, ast.Name) and sub.id in cap_names
            for sub in ast.walk(test)
        )
        raises = any(isinstance(sub, ast.Raise)
                     for stmt in node.body
                     for sub in ast.walk(stmt))
        if mentions_cap and raises:
            return True
    return False


def _extract_server(source: SourceFile,
                    protocol_env: Dict[str, FoldValue],
                    problems: List[str]) -> Optional[ServerModel]:
    tree = source.tree
    lineage = _lineage(tree, "CryptoServer")
    if not lineage:
        problems.append("server: class CryptoServer not found")
        return None
    server_cls = lineage[0]

    # The frame loop and its reply path may live in a base class the
    # server shares with the gateway.
    loop, loop_owner = _resolve(lineage, "_connection_loop")
    if loop is None:
        problems.append("server: _connection_loop not found")
        loop_shape = _LoopShape(shutdown_lineno=server_cls.lineno)
        loop_lineno = server_cls.lineno
    else:
        loop_shape = _extract_connection_loop(loop, problems)
        loop_lineno = loop.lineno
    init, _ = _resolve(lineage, "__init__")
    # A task running the loop's on_shutdown stops the server only if
    # the server binds on_shutdown to its own stop.
    stop_task_created = loop_shape.stop_call == "stop" or (
        loop_shape.stop_call == "_on_shutdown" and _passes_stop(init))

    dispatch, _ = _resolve(lineage, "_dispatch")
    if dispatch is None:
        problems.append("server: _dispatch not found")
    has_backpressure = dispatch is not None \
        and _has_backpressure(dispatch)

    # Worker shielding: _worker wraps _process in except-Exception.
    worker_shielded = False
    worker, _ = _resolve(lineage, "_worker")
    if worker is None:
        problems.append("server: _worker not found")
    else:
        for node in ast.walk(worker):
            if isinstance(node, ast.Try):
                for handler in node.handlers:
                    if _catches(handler, "Exception"):
                        worker_shielded = True

    # _process: unknown-op reply, timeout and exception catches.
    process_catches_timeout = False
    process_catches_exception = False
    unknown_op_reply = False
    process, _ = _resolve(lineage, "_process")
    if process is None:
        problems.append("server: _process not found")
    else:
        for node in ast.walk(process):
            if isinstance(node, ast.Try):
                for handler in node.handlers:
                    if _catches(handler, "TimeoutError") \
                            and _status_in(handler, "TIMEOUT"):
                        process_catches_timeout = True
                    if _catches(handler, "Exception") \
                            and _status_in(handler, "INTERNAL"):
                        process_catches_exception = True
            if isinstance(node, ast.If) \
                    and isinstance(node.test, ast.Compare) \
                    and _status_in(node, "BAD_REQUEST"):
                for sub in ast.walk(node.test):
                    if isinstance(sub, ast.Constant) \
                            and sub.value is None:
                        unknown_op_reply = True

    # _send: the FrameError -> small INTERNAL frame fallback.
    send_frame_error_fallback = False
    send_lineno = server_cls.lineno
    send, _ = _resolve(lineage, "_send")
    if send is None:
        problems.append("server: _send not found")
    else:
        send_lineno = send.lineno
        for node in ast.walk(send):
            if isinstance(node, ast.Try):
                for handler in node.handlers:
                    if _catches(handler, "FrameError") \
                            and _status_in(handler, "INTERNAL"):
                        send_frame_error_fallback = True

    # __init__: the Op -> handler dispatch table.
    handler_ops: List[str] = []
    if init is not None:
        for node in ast.walk(init):
            if isinstance(node, ast.Assign):
                targets: List[ast.expr] = list(node.targets)
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            if any(_attr_is(t, "_handlers") for t in targets) \
                    and isinstance(node.value, ast.Dict):
                for key in node.value.keys:
                    member = _enum_attr(key, "Op") if key else None
                    if member is not None:
                        handler_ops.append(member)
    if not handler_ops:
        problems.append("server: _handlers op dispatch not found")

    crypto_table = _extract_crypto_table(tree, problems)

    # The GCM response-expansion cap and its up-front check inside
    # whichever callable the table dispatches (ENCRYPT, GCM) to.
    env = _module_env(tree, seed=protocol_env)
    cap_names = {
        name for name in env
        if "MAX_PLAINTEXT" in name or "PLAINTEXT_BYTES" in name
    }
    gcm_cap: Optional[int] = None
    for name in sorted(cap_names):
        value = env.get(name)
        if isinstance(value, int):
            gcm_cap = value
    gcm_cap_checked = False
    gcm_encrypt_lineno = server_cls.lineno
    gcm_handler = crypto_table.get(("ENCRYPT", "GCM"))
    if gcm_handler:
        func = _module_function(tree, gcm_handler) \
            or _method(server_cls, gcm_handler)
        if func is not None:
            gcm_encrypt_lineno = func.lineno
            gcm_cap_checked = _find_cap_check(func, cap_names)

    emitted: List[Tuple[str, int]] = []
    seen_status: Set[str] = set()
    for node in ast.walk(tree):
        member = _enum_attr(node, "Status") \
            if isinstance(node, ast.expr) else None
        if member is not None and member not in seen_status:
            seen_status.add(member)
            emitted.append((member, node.lineno))

    return ServerModel(
        path=source.path,
        loop_lineno=loop_lineno,
        loop_owner=loop_owner,
        replies_on_frame_error=loop_shape.replies_on_frame_error,
        continues_on_recoverable=loop_shape.continues_on_recoverable,
        closes_on_unrecoverable=loop_shape.closes_on_unrecoverable,
        shutdown_inline=loop_shape.shutdown_inline,
        shutdown_replies=loop_shape.shutdown_replies,
        shutdown_lineno=loop_shape.shutdown_lineno,
        stop_task_created=stop_task_created,
        stop_task_pinned=loop_shape.stop_task_pinned,
        replies_when_stopping=loop_shape.replies_when_stopping,
        has_backpressure=has_backpressure,
        worker_shielded=worker_shielded,
        process_catches_timeout=process_catches_timeout,
        process_catches_exception=process_catches_exception,
        unknown_op_reply=unknown_op_reply,
        send_frame_error_fallback=send_frame_error_fallback,
        send_lineno=send_lineno,
        handler_ops=tuple(handler_ops),
        crypto_pairs=tuple(sorted(crypto_table)),
        gcm_cap=gcm_cap,
        gcm_cap_checked=gcm_cap_checked,
        gcm_encrypt_lineno=gcm_encrypt_lineno,
        emitted_statuses=tuple(emitted),
    )


# ----------------------------------------------------------- client.py
def _extract_client(source: SourceFile,
                    problems: List[str]) -> Optional[ClientModel]:
    tree = source.tree
    client_cls: Optional[ast.ClassDef] = None
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef) \
                and stmt.name == "CryptoClient":
            client_cls = stmt
    if client_cls is None:
        problems.append("client: class CryptoClient not found")
        return None

    uses_retry_set = False
    bounded_retries = False
    request = _method(client_cls, "request")
    if request is None:
        problems.append("client: CryptoClient.request not found")
    else:
        for node in ast.walk(request):
            if isinstance(node, ast.Compare) and any(
                    isinstance(op, (ast.In, ast.NotIn))
                    for op in node.ops):
                names = {
                    sub.id for sub in ast.walk(node)
                    if isinstance(sub, ast.Name)
                }
                if "RETRYABLE_STATUSES" in names:
                    uses_retry_set = True
            if isinstance(node, (ast.For, ast.AsyncFor)) \
                    and isinstance(node.iter, ast.Call) \
                    and _call_name(node.iter) == "range":
                bounded_retries = True

    checks_request_id = False
    roundtrip = _method(client_cls, "_roundtrip")
    if roundtrip is None:
        problems.append("client: CryptoClient._roundtrip not found")
    else:
        for node in ast.walk(roundtrip):
            if isinstance(node, ast.If) \
                    and isinstance(node.test, ast.Compare):
                mentions_id = any(
                    _attr_is(sub, "request_id")
                    for sub in ast.walk(node.test)
                )
                raises_frame = any(
                    isinstance(sub, ast.Raise)
                    and isinstance(sub.exc, ast.Call)
                    and _call_name(sub.exc) == "FrameError"
                    for stmt in node.body
                    for sub in ast.walk(stmt)
                )
                if mentions_id and raises_frame:
                    checks_request_id = True

    referenced: List[str] = []
    seen: Set[str] = set()
    for node in ast.walk(tree):
        member = _enum_attr(node, "Status") \
            if isinstance(node, ast.expr) else None
        if member is not None and member not in seen:
            seen.add(member)
            referenced.append(member)

    return ClientModel(
        path=source.path,
        uses_retry_set=uses_retry_set,
        bounded_retries=bounded_retries,
        checks_request_id=checks_request_id,
        referenced_statuses=tuple(referenced),
    )


# ---------------------------------------------------------- gateway.py
#: What the gateway must take from the frame loop's class rather than
#: define itself: the read loop, the connection handler, the reply path.
_FRAME_LOOP_METHODS = ("_connection_loop", "_on_connection", "_send")


def _runs_frame_loop(source: Optional[SourceFile], loop_owner: str,
                     problems: List[str]) -> bool:
    """Does ``Gateway`` run ``loop_owner``'s frame loop: derive from
    it, and define none of :data:`_FRAME_LOOP_METHODS` itself?"""
    if source is None:
        problems.append("gateway: gateway.py not found")
        return False
    lineage = _lineage(source.tree, "Gateway")
    if not lineage:
        problems.append("gateway: class Gateway not found")
        return False
    runs = any(loop_owner in _base_names(cls) for cls in lineage)
    if not runs:
        problems.append(
            f"gateway: Gateway does not derive from {loop_owner}, "
            "the class that defines the server's _connection_loop")
    for cls in lineage:
        for name in _FRAME_LOOP_METHODS:
            if _method(cls, name) is not None:
                problems.append(
                    f"gateway: {cls.name} defines its own {name} "
                    f"instead of running {loop_owner}'s")
                runs = False
    return runs


# ------------------------------------------------------------ assembly
def extract_wire_model(
        sources: Sequence[SourceFile]) -> Optional[WireModel]:
    """Recover the wire model from the serve-layer sources.

    ``None`` when the three protocol modules are not all present
    (e.g. a path-restricted lint run) — the rules then yield nothing
    rather than reporting on a partial view.
    """
    by_name: Dict[str, SourceFile] = {}
    for source in sources:
        tail = source.path.replace("\\", "/").rsplit("/", 1)[-1]
        by_name.setdefault(tail, source)
    protocol = by_name.get("protocol.py")
    server = by_name.get("server.py")
    client = by_name.get("client.py")
    if protocol is None or server is None or client is None:
        return None

    problems: List[str] = []
    env = _module_env(protocol.tree)
    enums = _extract_enums(protocol.tree)
    for expected in ("Op", "Mode", "Status"):
        if expected not in enums:
            problems.append(f"protocol: enum {expected} not found")

    def int_const(name: str) -> Optional[int]:
        value = env.get(name)
        if isinstance(value, bool) or not isinstance(value, int):
            problems.append(f"protocol: constant {name} not folded")
            return None
        return value

    magic = env.get("MAGIC")
    if not isinstance(magic, bytes):
        problems.append("protocol: MAGIC not folded to bytes")
        magic = None
    header = env.get("_HEADER")
    header_format: Optional[str] = None
    if isinstance(header, tuple) and header[0] == "struct":
        header_format = header[1]
    else:
        problems.append("protocol: _HEADER struct format not folded")

    retryable = _extract_retryable(protocol.tree)
    if not retryable:
        problems.append("protocol: RETRYABLE_STATUSES not found")

    sites = _extract_raise_sites(protocol)
    sites.extend(_extract_raise_sites(client))
    if not sites:
        problems.append("protocol: no FrameError raise sites found")

    server_model = _extract_server(server, env, problems)
    client_model = _extract_client(client, problems)
    runners: Tuple[str, ...] = ()
    if server_model is not None and server_model.loop_owner:
        runners = ("CryptoServer",)
        if _runs_frame_loop(by_name.get("gateway.py"),
                            server_model.loop_owner, problems):
            runners += ("Gateway",)

    return WireModel(
        protocol_path=protocol.path,
        server_path=server.path,
        client_path=client.path,
        magic=magic,
        version=int_const("VERSION"),
        header_format=header_format,
        header_bytes=int_const("HEADER_BYTES"),
        max_payload=int_const("MAX_PAYLOAD_BYTES"),
        max_frame=int_const("MAX_FRAME_BYTES"),
        gcm_iv_bytes=int_const("GCM_IV_BYTES"),
        gcm_tag_bytes=int_const("GCM_TAG_BYTES"),
        key_bytes=int_const("KEY_BYTES"),
        ops=enums.get("Op"),
        modes=enums.get("Mode"),
        statuses=enums.get("Status"),
        retryable=retryable,
        raise_sites=tuple(sites),
        server=server_model,
        client=client_model,
        loop_runners=runners,
        problems=tuple(problems),
    )


# ------------------------------------------------------- model checker
#: Queue bound inside the model.  The real queue depth is a config
#: knob; one slot is enough to prove the backpressure *shape* (reply
#: OVERLOADED instead of growing), and keeps the product space small.
MODEL_QUEUE_DEPTH = 1

#: Outstanding (sent, unanswered) requests the adversarial peer may
#: pipeline.  Two exercises queue-full and worker-busy interleavings.
MODEL_MAX_OUTSTANDING = 2

#: Exploration backstop.  The real product space is a few thousand
#: states; hitting this means the model itself regressed.
MODEL_STATE_LIMIT = 200_000


@dataclass(frozen=True)
class InputClass:
    """One adversarial input class the peer can send."""

    name: str
    kind: str                  # "malformed" | "request" | "shutdown"
    recoverable: bool = True   # flag on the FrameError the loop sees
    desyncs: bool = False      # ground truth: stream alignment lost
    closes_peer: bool = False  # the peer's half closes with it
    outcome: str = ""          # worker outcome key for requests


@dataclass(frozen=True)
class ProductState:
    """One state of the client x server x channel product."""

    conn: str = "open"         # "open" | "closed" (server side)
    server: str = "running"    # running | draining | stop_lost
    #                          # | stopped
    worker: str = "alive"      # "alive" | "dead"
    key: bool = False
    desynced: bool = False
    peer_open: bool = True
    pending: Tuple[str, ...] = ()
    outstanding: int = 0

    def label(self) -> str:
        parts = [self.conn, self.server, f"worker={self.worker}"]
        if self.key:
            parts.append("keyed")
        if self.desynced:
            parts.append("desynced")
        if self.pending:
            parts.append(f"queue={list(self.pending)}")
        if self.outstanding:
            parts.append(f"outstanding={self.outstanding}")
        return "/".join(parts)


@dataclass(frozen=True)
class Violation:
    """One invariant failure, with a witness trace."""

    rule: str
    message: str
    file: str
    line: int
    obj: str
    trace: Tuple[str, ...] = ()

    def render_message(self) -> str:
        if not self.trace:
            return self.message
        return f"{self.message} [trace: {' -> '.join(self.trace)}]"


@dataclass
class ModelResult:
    """What one exhaustive exploration established."""

    states: int
    edges: int
    elapsed: float
    violations: List[Violation]
    server_states: Set[str]
    reply_statuses: Set[str]
    truncated: bool = False


#: (class name, raising function, stream desyncs, peer closes,
#:  substring identifying the matching raise site's message).
_MALFORMED_CLASSES: Tuple[Tuple[str, str, bool, bool, str], ...] = (
    ("bad_magic", "decode_payload", False, False, "magic"),
    ("bad_version", "decode_payload", False, False, "version"),
    ("unknown_enum", "decode_payload", False, False, "unknown"),
    ("short_body", "decode_body", False, False, "shorter"),
    ("oversized_prefix", "read_frame", True, False, "length prefix"),
    ("eof_mid_prefix", "read_frame", False, True, "mid-prefix"),
    ("eof_mid_frame", "read_frame", False, True, "mid-frame"),
)


def _site_flag(model: WireModel, function: str,
               needle: str) -> Optional[bool]:
    for site in model.raise_sites:
        if site.function == function and needle in site.text:
            return site.recoverable
    return None


def build_input_classes(model: WireModel) -> List[InputClass]:
    """The peer's action alphabet, derived from the extracted model."""
    classes: List[InputClass] = []
    for name, function, desyncs, closes, needle in _MALFORMED_CLASSES:
        flag = _site_flag(model, function, needle)
        if flag is None:
            # Site not found (refactored message): fall back to the
            # ground truth so the model still closes over the class.
            flag = not desyncs and not closes
        classes.append(InputClass(
            name=name, kind="malformed", recoverable=flag,
            desyncs=desyncs, closes_peer=closes,
        ))
    server = model.server
    if server is None:
        return classes
    if "LOAD_KEY" in server.handler_ops:
        classes.append(InputClass("load_key", "request",
                                  outcome="load_key"))
    if "PING" in server.handler_ops:
        classes.append(InputClass("ping", "request", outcome="ok"))
    for op, mode in server.crypto_pairs:
        classes.append(InputClass(
            f"{op.lower()}_{mode.lower()}", "request",
            outcome="crypto",
        ))
    if server.crypto_pairs:
        classes.append(InputClass("bad_payload", "request",
                                  outcome="bad_request"))
    if ("DECRYPT", "GCM") in server.crypto_pairs:
        classes.append(InputClass("gcm_auth_fail", "request",
                                  outcome="auth_fail"))
    if ("ENCRYPT", "GCM") in server.crypto_pairs:
        classes.append(InputClass("gcm_encrypt_max", "request",
                                  outcome="gcm_oversize"))
    classes.append(InputClass("slow_request", "request",
                              outcome="timeout"))
    classes.append(InputClass("handler_crash", "request",
                              outcome="crash"))
    if model.ops is not None:
        unhandled = [
            name for name in model.ops.names
            if name not in server.handler_ops and name != "SHUTDOWN"
        ]
        if unhandled:
            classes.append(InputClass("unknown_op", "request",
                                      outcome="unknown_op"))
    if model.ops is not None and "SHUTDOWN" in model.ops.names:
        classes.append(InputClass("shutdown", "shutdown"))
    return classes


@dataclass(frozen=True)
class _Edge:
    """One transition: label for traces, autonomy for liveness."""

    src: ProductState
    dst: ProductState
    label: str
    autonomous: bool       # server/worker-driven (no peer input)
    releases: bool         # answers or closes toward the peer


def _worker_outcome(model: WireModel, server: ServerModel,
                    cls_name: str, key: bool,
                    classes: Dict[str, InputClass],
                    ) -> Tuple[str, Optional[str], bool, bool]:
    """Resolve one dequeued request.

    Returns ``(label, reply_status, worker_dies, sets_key)``; a
    ``None`` reply status means the request is never answered.
    """
    cls = classes[cls_name]
    outcome = cls.outcome

    def crash_path(label: str) -> Tuple[str, Optional[str],
                                        bool, bool]:
        if server.process_catches_exception:
            return f"{label}=>INTERNAL", "INTERNAL", False, False
        if server.worker_shielded:
            return f"{label}=>swallowed", None, False, False
        return f"{label}=>worker-dies", None, True, False

    if outcome == "load_key":
        return "load_key=>OK", "OK", False, True
    if outcome == "ok":
        return f"{cls_name}=>OK", "OK", False, False
    if outcome == "crypto":
        if not key:
            if server.emits("NO_KEY"):
                return f"{cls_name}=>NO_KEY", "NO_KEY", False, False
            return crash_path(f"{cls_name} without a key")
        return f"{cls_name}=>OK", "OK", False, False
    if outcome == "bad_request":
        return "bad_payload=>BAD_REQUEST", "BAD_REQUEST", \
            False, False
    if outcome == "auth_fail":
        if not key:
            return f"{cls_name}=>NO_KEY", "NO_KEY", False, False
        if server.emits("AUTH_FAILED"):
            return "gcm_auth_fail=>AUTH_FAILED", "AUTH_FAILED", \
                False, False
        return crash_path("gcm auth failure")
    if outcome == "timeout":
        if server.process_catches_timeout:
            return "slow_request=>TIMEOUT", "TIMEOUT", False, False
        return crash_path("slow request")
    if outcome == "crash":
        return crash_path("handler raises")
    if outcome == "unknown_op":
        if server.unknown_op_reply:
            return "unknown_op=>BAD_REQUEST", "BAD_REQUEST", \
                False, False
        return crash_path("unknown op")
    if outcome == "gcm_oversize":
        if not key:
            return f"{cls_name}=>NO_KEY", "NO_KEY", False, False
        cap_ok = (
            server.gcm_cap_checked
            and server.gcm_cap is not None
            and model.max_payload is not None
            and model.gcm_tag_bytes is not None
            and server.gcm_cap + model.gcm_tag_bytes
            <= model.max_payload
        )
        if cap_ok:
            # The up-front plaintext cap rejects it before crypto.
            return "gcm_encrypt_max=>BAD_REQUEST", "BAD_REQUEST", \
                False, False
        # The ciphertext+tag response does not frame: encode_frame
        # raises inside _send.  The fallback answers INTERNAL; with
        # no fallback the FrameError escapes _process (the send sits
        # outside its try) into the worker loop.
        if server.send_frame_error_fallback:
            return "gcm_encrypt_max=>unframeable=>INTERNAL", \
                "INTERNAL", False, False
        if server.worker_shielded:
            return "gcm_encrypt_max=>unframeable=>swallowed", \
                None, False, False
        return "gcm_encrypt_max=>unframeable=>worker-dies", \
            None, True, False
    return crash_path(cls_name)


def _successors(model: WireModel, server: ServerModel,
                state: ProductState,
                classes: Dict[str, InputClass],
                ) -> Iterator[_Edge]:
    """Every transition out of ``state``."""
    s = state

    # Server notices the peer's EOF on its next read.
    if s.conn == "open" and not s.peer_open:
        yield _Edge(s, replace(s, conn="closed"),
                    "server-sees-eof=>close", True, True)

    # Autonomous: the worker drains the queue.
    if s.pending and s.worker == "alive" and s.conn == "open":
        label, reply, dies, sets_key = _worker_outcome(
            model, server, s.pending[0], s.key, classes)
        nxt = replace(
            s,
            pending=s.pending[1:],
            worker="dead" if dies else s.worker,
            key=s.key or sets_key,
            outstanding=max(0, s.outstanding - 1)
            if reply is not None else s.outstanding,
        )
        yield _Edge(s, nxt, f"worker:{label}", True,
                    reply is not None)

    # Autonomous: a pinned stop() task completes the drain.
    if s.server == "draining" and not s.pending:
        yield _Edge(
            s,
            replace(s, server="stopped", conn="closed"),
            "stop-completes=>close", True, True,
        )

    # Peer actions need an open connection and an undrained server.
    if s.conn != "open" or not s.peer_open or s.server == "stopped":
        return
    for cls in classes.values():
        if cls.kind == "malformed":
            yield from _malformed_step(server, s, cls)
        elif cls.kind == "shutdown":
            yield from _shutdown_step(server, s, cls)
        else:
            yield from _request_step(server, s, cls)


def _malformed_step(server: ServerModel, s: ProductState,
                    cls: InputClass) -> Iterator[_Edge]:
    peer_open = s.peer_open and not cls.closes_peer
    label = f"peer:{cls.name}"
    if cls.recoverable:
        # The loop answers BAD_FRAME and keeps reading.  If the
        # stream actually desynchronized, every subsequent read
        # parses garbage — the desync-deadlock the checker hunts.
        if server.continues_on_recoverable:
            desynced = s.desynced or (cls.desyncs and peer_open)
            yield _Edge(
                s,
                replace(s, desynced=desynced, peer_open=peer_open),
                label + "=>BAD_FRAME,continue", False,
                server.replies_on_frame_error,
            )
        else:
            yield _Edge(
                s, replace(s, conn="closed", peer_open=peer_open),
                label + "=>close", False, True,
            )
    else:
        if server.closes_on_unrecoverable:
            yield _Edge(
                s, replace(s, conn="closed", peer_open=peer_open),
                label + "=>close", False, True,
            )
        else:
            desynced = s.desynced or (cls.desyncs and peer_open)
            yield _Edge(
                s,
                replace(s, desynced=desynced, peer_open=peer_open),
                label + "=>continue-despite-desync", False,
                server.replies_on_frame_error,
            )


def _shutdown_step(server: ServerModel, s: ProductState,
                   cls: InputClass) -> Iterator[_Edge]:
    if not server.shutdown_inline:
        # SHUTDOWN falls through to the queue like any op; with no
        # dispatch entry it answers BAD_REQUEST and never stops.
        yield from _request_step(
            server, s,
            InputClass("shutdown", "request", outcome="unknown_op"),
        )
        return
    if s.server in ("running", "stop_lost"):
        if server.stop_task_created:
            nxt_server = "draining" if server.stop_task_pinned \
                else "stop_lost"
        else:
            nxt_server = s.server
        suffix = {"draining": "drain", "stop_lost": "stop-task-lost",
                  "running": "no-stop"}[nxt_server]
        yield _Edge(
            s, replace(s, server=nxt_server),
            f"peer:shutdown=>OK,{suffix}", False,
            server.shutdown_replies,
        )
    else:  # draining: the idempotent second SHUTDOWN just replies.
        yield _Edge(s, s, "peer:shutdown=>OK", False,
                    server.shutdown_replies)


def _request_step(server: ServerModel, s: ProductState,
                  cls: InputClass) -> Iterator[_Edge]:
    label = f"peer:{cls.name}"
    if s.server == "draining":
        if server.replies_when_stopping:
            yield _Edge(s, s, label + "=>SHUTTING_DOWN", False, True)
        elif s.outstanding < MODEL_MAX_OUTSTANDING:
            # Accepted silently while draining: never answered.
            yield _Edge(
                s, replace(s, outstanding=s.outstanding + 1),
                label + "=>dropped-while-draining", False, False,
            )
        return
    if len(s.pending) < MODEL_QUEUE_DEPTH:
        if s.outstanding < MODEL_MAX_OUTSTANDING:
            yield _Edge(
                s,
                replace(s, pending=s.pending + (cls.name,),
                        outstanding=s.outstanding + 1),
                label + "=>enqueued", False, False,
            )
    elif server.has_backpressure:
        yield _Edge(s, s, label + "=>OVERLOADED", False, True)
    elif s.outstanding < MODEL_MAX_OUTSTANDING:
        # No backpressure: the queue grows past its bound.
        yield _Edge(
            s,
            replace(s, pending=s.pending + (cls.name,),
                    outstanding=s.outstanding + 1),
            label + "=>buffered-unbounded", False, False,
        )


def _trace(parents: Dict[ProductState,
                         Tuple[Optional[ProductState], str]],
           state: ProductState, limit: int = 12) -> Tuple[str, ...]:
    """The BFS predecessor chain of edge labels reaching ``state``."""
    labels: List[str] = []
    cursor: Optional[ProductState] = state
    while cursor is not None:
        parent, label = parents[cursor]
        if label:
            labels.append(label)
        cursor = parent
    labels.reverse()
    if len(labels) > limit:
        head = labels[:limit]
        head.append(f"... ({len(labels) - limit} more)")
        return tuple(head)
    return tuple(labels)


def check_model(model: WireModel) -> ModelResult:
    """Exhaustive BFS over the client x server x channel product."""
    start_time = time.perf_counter()
    server = model.server
    if server is None:
        return ModelResult(0, 0, 0.0, [], set(), set())
    classes = {cls.name: cls for cls in build_input_classes(model)}
    status_names: Set[str] = set(
        model.statuses.names) if model.statuses else set()

    initial = ProductState()
    parents: Dict[ProductState,
                  Tuple[Optional[ProductState], str]] = {
        initial: (None, "")
    }
    queue: Deque[ProductState] = deque([initial])
    edges: List[_Edge] = []
    violations: List[Violation] = []
    flagged: Set[str] = set()
    reply_statuses: Set[str] = set()
    truncated = False

    def flag(kind: str, message: str, line: int, obj: str,
             state: ProductState) -> None:
        if kind in flagged:
            return
        flagged.add(kind)
        violations.append(Violation(
            rule="proto.desync-deadlock"
            if kind.startswith("desync") else
            "proto.unbounded-buffering",
            message=message, file=server.path, line=line, obj=obj,
            trace=_trace(parents, state),
        ))

    while queue:
        if len(parents) > MODEL_STATE_LIMIT:
            truncated = True
            break
        state = queue.popleft()
        # Violating states are recorded, not expanded: one witness
        # per failure class keeps traces minimal.
        if state.desynced:
            flag(
                "desync", "reachable desync-deadlock: the stream is "
                "desynchronized but the connection loop keeps "
                "reading — every later frame parses garbage while "
                "the peer waits", server.loop_lineno,
                "_connection_loop", state,
            )
            continue
        if len(state.pending) > MODEL_QUEUE_DEPTH:
            flag(
                "unbounded", "request buffering grows past the "
                "queue bound without an OVERLOADED answer",
                server.loop_lineno, "_connection_loop", state,
            )
            continue
        for edge in _successors(model, server, state, classes):
            edges.append(edge)
            for token in edge.label.replace(",", "=>").split("=>"):
                if token in status_names:
                    reply_statuses.add(token)
            if edge.dst not in parents:
                parents[edge.dst] = (edge.src, edge.label)
                queue.append(edge.dst)

    # Starvation: an open connection holding unanswered requests
    # from which no *autonomous* chain of server/worker steps ever
    # answers or closes.  (Peer-initiated rescue — sending SHUTDOWN
    # so the drain closes the socket — does not count: the server
    # must release the peer by itself.)
    can_release: Set[ProductState] = {
        e.src for e in edges if e.autonomous and e.releases
    }
    auto_edges = [e for e in edges if e.autonomous]
    changed = True
    while changed:
        changed = False
        for edge in auto_edges:
            if edge.dst in can_release \
                    and edge.src not in can_release:
                can_release.add(edge.src)
                changed = True
    starved = [
        s for s in parents
        if s.conn == "open" and s.outstanding > 0
        and s not in can_release
    ]
    if starved:
        witness = min(starved,
                      key=lambda s: len(_trace(parents, s)))
        violations.append(Violation(
            rule="proto.desync-deadlock",
            message="reachable starvation: request(s) outstanding "
                    "in a state from which no autonomous server "
                    "step ever replies or closes the connection "
                    f"({witness.label()})",
            file=server.path, line=server.loop_lineno,
            obj="_connection_loop",
            trace=_trace(parents, witness),
        ))

    server_states = {s.server for s in parents}
    elapsed = time.perf_counter() - start_time
    return ModelResult(
        states=len(parents), edges=len(edges), elapsed=elapsed,
        violations=violations, server_states=server_states,
        reply_statuses=reply_statuses, truncated=truncated,
    )


# ---------------------------------------------------- structural checks
def _structural_violations(model: WireModel,
                           result: ModelResult) -> List[Violation]:
    """Invariants provable from the extracted model alone, plus the
    lifecycle/status reachability cross-checks against the BFS."""
    violations: List[Violation] = []
    server = model.server
    client = model.client

    # proto.unhandled-status: a decodable Status member that neither
    # the server emits nor the client dispatches is dead protocol
    # surface — a peer can put it on the wire and nothing anywhere
    # gives it meaning.
    if model.statuses is not None:
        client_refs = set(client.referenced_statuses) if client \
            else set()
        for member in model.statuses.names:
            if member == "OK":
                continue
            emitted = server.emits(member) if server else False
            dispatched = member in model.retryable \
                or member in client_refs
            if not emitted and not dispatched:
                violations.append(Violation(
                    rule="proto.unhandled-status",
                    message=f"Status.{member} "
                            f"(={model.statuses.value(member)}) is "
                            "decodable on the wire but the server "
                            "never emits it and the client never "
                            "dispatches it (not retryable, never "
                            "referenced)",
                    file=model.protocol_path,
                    line=model.statuses.line(member),
                    obj=f"Status.{member}",
                ))

    # proto.unclassified-frame-error: every raise site's recoverable
    # flag must match the ground truth of its raising function.
    for site in model.raise_sites:
        expected = EXPECTED_RECOVERABLE.get(site.function)
        if expected is None or site.recoverable == expected:
            continue
        stream = "still aligned" if expected \
            else "desynchronized beyond repair"
        violations.append(Violation(
            rule="proto.unclassified-frame-error",
            message=f"FrameError raised in {site.function} carries "
                    f"recoverable={site.recoverable}, but the "
                    f"stream there is {stream} — the connection "
                    "loop will "
                    + ("close a survivable connection"
                       if expected else
                       "keep reading a desynchronized stream"),
            file=site.path, line=site.lineno, obj=site.function,
        ))

    # proto.response-not-framed: GCM ENCRYPT is the only op whose
    # response outgrows its request (the tag), so its plaintext must
    # be capped below the frame limit up front.
    if server is not None \
            and ("ENCRYPT", "GCM") in server.crypto_pairs \
            and model.max_payload is not None \
            and model.gcm_tag_bytes is not None:
        cap_ok = (
            server.gcm_cap_checked
            and server.gcm_cap is not None
            and server.gcm_cap + model.gcm_tag_bytes
            <= model.max_payload
        )
        if not cap_ok:
            if server.gcm_cap is not None \
                    and server.gcm_cap_checked:
                detail = (
                    f"the cap ({server.gcm_cap}) still lets "
                    f"ciphertext+{model.gcm_tag_bytes}-byte tag "
                    f"exceed MAX_PAYLOAD_BYTES "
                    f"({model.max_payload})"
                )
            else:
                detail = (
                    "no up-front plaintext cap guarantees the "
                    f"ciphertext+{model.gcm_tag_bytes}-byte tag "
                    "response fits one frame"
                )
            violations.append(Violation(
                rule="proto.response-not-framed",
                message="GCM ENCRYPT responses outgrow their "
                        f"requests and {detail}; an unframeable "
                        "response raises FrameError on the send "
                        "path (the historical worker-killing DoS)",
                file=server.path, line=server.gcm_encrypt_lineno,
                obj="_gcm_encrypt",
            ))

    # proto.unreachable-state: lifecycle states the product model
    # never reaches, and statuses the source emits that no reachable
    # state produces.
    if server is not None and result.states:
        expected_states = {"running"}
        if model.ops is not None and "SHUTDOWN" in model.ops.names:
            expected_states |= {"draining", "stopped"}
        for missing in sorted(expected_states
                              - result.server_states):
            if missing in ("draining", "stopped") \
                    and "stop_lost" in result.server_states:
                reason = (
                    "the SHUTDOWN stop() task is created but never "
                    "retained — the event loop holds only weak "
                    "task references, so the drain can be garbage-"
                    "collected mid-flight (the historical GC "
                    "hazard) and the server never stops"
                )
                line = server.shutdown_lineno
            elif missing in ("draining", "stopped"):
                reason = (
                    "the SHUTDOWN op never schedules stop(): the "
                    "remote drain path is dead"
                )
                line = server.shutdown_lineno
            else:
                reason = "no reachable product state enters it"
                line = server.loop_lineno
            violations.append(Violation(
                rule="proto.unreachable-state",
                message=f"server lifecycle state '{missing}' is "
                        f"unreachable: {reason}",
                file=server.path, line=line, obj="CryptoServer",
            ))
        for status, line in server.emitted_statuses:
            if status == "OK":
                continue
            if status not in result.reply_statuses:
                violations.append(Violation(
                    rule="proto.unreachable-state",
                    message=f"server source emits Status.{status} "
                            "but no reachable state of the product "
                            "model produces it — emission path or "
                            "extraction anchor is dead",
                    file=server.path, line=line,
                    obj=f"Status.{status}",
                ))
    return violations


# ------------------------------------------------------ subject + rules
@dataclass
class ProtoAnalysis:
    """Extraction + exploration + every violation, ready for rules."""

    model: Optional[WireModel]
    result: Optional[ModelResult]
    violations: List[Violation]


def analyze(sources: Sequence[SourceFile]) -> ProtoAnalysis:
    """Extract, explore, and collect violations for one source set."""
    model = extract_wire_model(sources)
    if model is None:
        return ProtoAnalysis(model=None, result=None, violations=[])
    result = check_model(model)
    violations = list(result.violations)
    violations.extend(_structural_violations(model, result))
    return ProtoAnalysis(model=model, result=result,
                         violations=violations)


@dataclass(frozen=True, eq=False)
class ProtoSubject:
    """The serve-layer sources, handed to the ``proto.*`` rules.

    One lint run builds exactly one; the analysis (extraction + BFS)
    is cached so the six rules share a single exploration.
    """

    sources: Tuple[SourceFile, ...]
    _cache: List[ProtoAnalysis] = field(default_factory=list,
                                        repr=False)

    def analysis(self) -> ProtoAnalysis:
        if not self._cache:
            self._cache.append(analyze(self.sources))
        return self._cache[0]


def _rule_findings(subject: object, rule_id: str,
                   severity: Severity) -> Iterator[Finding]:
    if not isinstance(subject, ProtoSubject):
        return
    for violation in subject.analysis().violations:
        if violation.rule != rule_id:
            continue
        yield Finding(
            rule_id, severity, violation.render_message(),
            Location(file=violation.file, line=violation.line,
                     obj=violation.obj),
        )


@rule("proto.unhandled-status", Severity.ERROR, KIND_PROTO,
      "every decodable Status member is emitted by the server or "
      "dispatched by the client")
def check_unhandled_status(subject: object,
                           config: CheckConfig) -> Iterator[Finding]:
    yield from _rule_findings(subject, "proto.unhandled-status",
                              Severity.ERROR)


@rule("proto.unreachable-state", Severity.ERROR, KIND_PROTO,
      "running/draining/stopped are all reachable in the product "
      "model, and every emitted status is produced somewhere")
def check_unreachable_state(subject: object,
                            config: CheckConfig) -> Iterator[Finding]:
    yield from _rule_findings(subject, "proto.unreachable-state",
                              Severity.ERROR)


@rule("proto.desync-deadlock", Severity.ERROR, KIND_PROTO,
      "no reachable state keeps reading a desynchronized stream or "
      "starves an outstanding request forever")
def check_desync_deadlock(subject: object,
                          config: CheckConfig) -> Iterator[Finding]:
    yield from _rule_findings(subject, "proto.desync-deadlock",
                              Severity.ERROR)


@rule("proto.unclassified-frame-error", Severity.ERROR, KIND_PROTO,
      "FrameError.recoverable at every raise site matches the "
      "stream-alignment ground truth of its raising function")
def check_unclassified_frame_error(
        subject: object, config: CheckConfig) -> Iterator[Finding]:
    yield from _rule_findings(
        subject, "proto.unclassified-frame-error", Severity.ERROR)


@rule("proto.response-not-framed", Severity.ERROR, KIND_PROTO,
      "ops whose responses outgrow their requests cap the request "
      "size so every response still frames")
def check_response_not_framed(
        subject: object, config: CheckConfig) -> Iterator[Finding]:
    yield from _rule_findings(subject, "proto.response-not-framed",
                              Severity.ERROR)


@rule("proto.unbounded-buffering", Severity.ERROR, KIND_PROTO,
      "request buffering is bounded in every reachable state "
      "(queue growth past the bound answers OVERLOADED)")
def check_unbounded_buffering(
        subject: object, config: CheckConfig) -> Iterator[Finding]:
    yield from _rule_findings(subject, "proto.unbounded-buffering",
                              Severity.ERROR)


# ------------------------------------------------------------ reporting
@dataclass(frozen=True)
class ProtoReport:
    """Everything ``repro-aes proto`` prints."""

    root: str
    analysis: ProtoAnalysis

    @property
    def ok(self) -> bool:
        return (self.analysis.model is not None
                and not self.analysis.model.problems
                and not self.analysis.violations)

    def render(self) -> str:
        lines: List[str] = []
        model = self.analysis.model
        result = self.analysis.result
        lines.append("protocol model check (repro.checks.proto)")
        lines.append("=" * 42)
        if model is None:
            lines.append(
                "  serve sources not found under the scanned roots "
                "(need protocol.py, server.py, client.py)")
            return "\n".join(lines)

        def fmt(value: object) -> str:
            return "?" if value is None else str(value)

        lines.append("extracted wire model")
        lines.append(f"  magic/version   : "
                     f"{fmt(model.magic)} / v{fmt(model.version)}")
        lines.append(f"  header          : {fmt(model.header_format)}"
                     f" ({fmt(model.header_bytes)} bytes)")
        lines.append(f"  max payload     : {fmt(model.max_payload)}"
                     f" bytes (frame {fmt(model.max_frame)})")
        for label, enum in (("ops", model.ops),
                            ("modes", model.modes),
                            ("statuses", model.statuses)):
            names = ", ".join(enum.names) if enum else "?"
            lines.append(f"  {label:<16}: {names}")
        lines.append(
            f"  retryable       : {', '.join(model.retryable) or '-'}")
        lines.append(
            f"  FrameError sites: {len(model.raise_sites)} "
            f"({sum(1 for s in model.raise_sites if s.recoverable)} "
            "recoverable)")
        owner = model.server.loop_owner if model.server else ""
        lines.append(
            f"  frame loop      : {owner or '?'}._connection_loop, run "
            f"by {', '.join(model.loop_runners) or '-'}")
        if model.problems:
            lines.append("extraction problems")
            for problem in model.problems:
                lines.append(f"  ! {problem}")
        if result is not None:
            lines.append("product-state exploration")
            lines.append(
                f"  states/edges    : {result.states} / "
                f"{result.edges}"
                + ("  [TRUNCATED]" if result.truncated else ""))
            lines.append(
                f"  elapsed         : {result.elapsed:.3f}s")
            lines.append(
                "  server states   : "
                + ", ".join(sorted(result.server_states)))
            lines.append(
                "  reply statuses  : "
                + ", ".join(sorted(result.reply_statuses)))
        if self.analysis.violations:
            lines.append(
                f"violations ({len(self.analysis.violations)})")
            for violation in self.analysis.violations:
                lines.append(f"  {violation.rule}  "
                             f"{violation.file}:{violation.line}  "
                             f"[{violation.obj}]")
                lines.append(f"    {violation.render_message()}")
        else:
            lines.append("violations: none — all protocol "
                         "invariants hold on the explored product")
        return "\n".join(lines)


def run_proto(root: str,
              sources: Optional[Sequence[SourceFile]] = None,
              ) -> ProtoReport:
    """Build the serve-layer protocol report for ``repro-aes proto``.

    ``sources`` injects pre-parsed files (tests); by default the serve
    package is loaded from ``root``.
    """
    if sources is None:
        import os

        serve_dir = os.path.join(root, "src", "repro", "serve")
        loaded: List[SourceFile] = []
        if os.path.isdir(serve_dir):
            for name in sorted(os.listdir(serve_dir)):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(serve_dir, name)
                with open(path, "r", encoding="utf-8") as handle:
                    text = handle.read()
                try:
                    loaded.append(SourceFile.parse(path, text))
                except SyntaxError:
                    continue
        sources = loaded
    return ProtoReport(root=root, analysis=analyze(sources))
