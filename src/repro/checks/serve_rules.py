"""Async-service lint for the :mod:`repro.serve` subsystem.

The serving layer has failure modes the crypto lint cannot see: an
unbounded ``asyncio.Queue`` silently converts overload into memory
growth instead of backpressure, and a bare await on a stream
operation lets one stalled peer wedge a connection task forever.
Both are structural properties visible in the AST, so they are
enforced the same way the constant-time discipline is — as registry
rules that ``repro-aes lint --strict`` gates on.

Both rules are *path-scoped*: they fire only on files matching
:attr:`repro.checks.engine.CheckConfig.serve_path_patterns`, because
the disciplines are service-layer requirements, not repository-wide
style.  A bounded queue elsewhere may be wrong; in the serving layer
an unbounded one always is.

- ``serve.unbounded-queue`` — an ``asyncio.Queue`` (or Lifo/Priority
  variant) constructed without a positive ``maxsize``.  The service's
  backpressure contract (``docs/serving.md``) depends on the request
  queue rejecting work when full; asyncio treats *every*
  ``maxsize <= 0`` as "infinite", so an absent, zero or negative
  bound is the defect.
- ``serve.missing-timeout`` — a stream call that can block on the
  peer (``readexactly``, ``drain``, ``wait_closed``,
  ``open_connection``, ``create_connection``, a frame connection's
  ``_wait_frame``, ...) awaited outside
  the body of an ``async with`` over ``asyncio.timeout``,
  ``asyncio.timeout_at`` or :func:`repro.serve.protocol.deadline`,
  either directly or handed to an awaited call other than
  ``asyncio.wait_for`` or ``asyncio.wait``.  Scope and wrapper names
  are resolved through the file's imports and its own definitions,
  with names a function binds itself shadowing them, so a local
  function that happens to be called ``timeout`` or ``wait_for``
  bounds nothing.  Every socket await in the
  serving layer is bounded; the codec helpers exist precisely so call
  sites never write a bare stream await.
"""

from __future__ import annotations

import ast
import fnmatch
from typing import Dict, Iterator, List, Tuple

from repro.checks.crypto_lint import SourceFile
from repro.checks.engine import (
    KIND_SOURCE,
    CheckConfig,
    Finding,
    Location,
    Severity,
    rule,
)

#: Queue constructors whose default capacity is unbounded.
_QUEUE_TYPES = {"Queue", "LifoQueue", "PriorityQueue"}

#: Stream-API attribute calls that block on the remote peer.  A bare
#: ``await`` on any of these is a hang waiting to happen; each must
#: sit in a timeout scope or inside ``asyncio.wait_for`` (or ``wait``).
#: ``_wait_frame`` is :class:`repro.serve.protocol.FrameStream`'s wait
#: for a whole frame.
_RISKY_AWAITS = {
    "read", "readline", "readexactly", "readuntil", "drain",
    "wait_closed", "open_connection", "create_connection",
    "start_tls", "_wait_frame",
}

#: Context managers that bound every await in their ``async with``
#: body, by resolved name.
_TIMEOUT_SCOPES = {"asyncio.timeout", "asyncio.timeout_at",
                   "repro.serve.protocol.deadline"}

#: Awaited calls that bound the stream call handed to them, by
#: resolved name.
_TIMEOUT_WRAPPERS = {"asyncio.wait_for", "asyncio.wait"}


def _in_scope(subject: SourceFile, config: CheckConfig) -> bool:
    path = subject.path.replace("\\", "/")
    return any(fnmatch.fnmatch(path, pattern)
               for pattern in config.serve_path_patterns)


def _call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _bind_import(node: ast.AST, package: List[str],
                 names: Dict[str, str]) -> None:
    """Record what an import statement binds, by dotted name."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            top = alias.name.split(".")[0]
            names[alias.asname or top] = (
                alias.name if alias.asname else top)
    elif isinstance(node, ast.ImportFrom):
        base = [node.module] if node.module else []
        if node.level:
            base = package[:len(package) - node.level + 1] + base
        for alias in node.names:
            names[alias.asname or alias.name] = ".".join(
                [*base, alias.name])


def _module_parts(subject: SourceFile) -> List[str]:
    """``src/repro/serve/protocol.py`` -> ``[repro, serve, protocol]``;
    the package relative imports start from is all but the last."""
    path = subject.path.replace("\\", "/").removesuffix(".py")
    parts = path.split("/")
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    return parts


def _bindings(tree: ast.Module, parts: List[str]) -> Dict[str, str]:
    """What each module-level name of the module ``parts`` names is
    bound to: imports by the dotted name they import, and its own
    functions and classes by ``<module>.<name>``.  A later binding
    replaces an earlier one, as at run time."""
    package = parts[:-1]
    module = ".".join(package if parts[-1] == "__init__" else parts)
    names: Dict[str, str] = {}
    for node in tree.body:
        _bind_import(node, package, names)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names[node.name] = f"{module}.{node.name}"
    return names


def _function_bindings(
        func: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda,
        names: Dict[str, str], package: List[str]) -> Dict[str, str]:
    """``names`` as seen inside ``func``: a name the function binds
    itself (a parameter, an assignment, a nested definition) shadows
    the module's binding for the whole body, and its own imports
    resolve as the module's do."""
    inner = dict(names)
    args = func.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                args.vararg, args.kwarg):
        if arg is not None:
            inner.pop(arg.arg, None)
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            inner.pop(node.name, None)
            continue
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                     ast.Store):
            inner.pop(node.id, None)
        _bind_import(node, package, inner)
        stack.extend(ast.iter_child_nodes(node))
    return inner


def _resolved_name(func: ast.expr, names: Dict[str, str]) -> str:
    """The dotted name a called expression resolves to through
    ``names``, or '' when its root is not bound there."""
    attrs: List[str] = []
    while isinstance(func, ast.Attribute):
        attrs.append(func.attr)
        func = func.value
    if not isinstance(func, ast.Name) or func.id not in names:
        return ""
    return ".".join([names[func.id], *reversed(attrs)])


def _maxsize_const(value: ast.expr):
    """The numeric constant a maxsize expression evaluates to, or
    ``None`` for anything non-constant.  ``-1`` parses as a unary
    minus over a constant, so that shape is folded here too."""
    if (isinstance(value, ast.UnaryOp)
            and isinstance(value.op, ast.USub)):
        inner = _maxsize_const(value.operand)
        return -inner if isinstance(inner, (int, float)) else None
    if (isinstance(value, ast.Constant)
            and isinstance(value.value, (int, float))
            and not isinstance(value.value, bool)):
        return value.value
    return None


def _queue_bound(node: ast.Call) -> bool:
    """Whether this queue construction carries a positive maxsize."""
    candidates = list(node.args[:1])
    candidates.extend(kw.value for kw in node.keywords
                      if kw.arg == "maxsize")
    for value in candidates:
        const = _maxsize_const(value)
        if const is not None and const <= 0:
            return False  # asyncio treats maxsize <= 0 as unbounded
        return True       # positive or non-constant: assume a bound
    return False          # no maxsize at all


@rule(
    "serve.unbounded-queue",
    Severity.ERROR,
    KIND_SOURCE,
    "asyncio queue constructed without a positive maxsize — overload "
    "becomes memory growth instead of backpressure",
)
def check_unbounded_queue(subject: SourceFile,
                          config: CheckConfig) -> Iterator[Finding]:
    """Flag ``asyncio.Queue()`` (and variants) with no real bound."""
    if not _in_scope(subject, config):
        return
    for node in ast.walk(subject.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name not in _QUEUE_TYPES:
            continue
        if isinstance(node.func, ast.Attribute):
            base = node.func.value
            if not (isinstance(base, ast.Name)
                    and base.id == "asyncio"):
                continue
        if _queue_bound(node):
            continue
        yield Finding(
            rule="serve.unbounded-queue",
            severity=Severity.ERROR,
            message=(f"asyncio.{name}() without a positive maxsize: "
                     f"the serving layer's backpressure contract "
                     f"needs a bounded queue"),
            location=Location(file=subject.path, line=node.lineno,
                              obj=name),
        )


def _risky_await_name(node: ast.Await, names: Dict[str, str]) -> str:
    """The risky stream-call name this await blocks on unbounded, or
    ''.  That is the awaited call itself, or a stream call handed to
    an awaited call that is not one of :data:`_TIMEOUT_WRAPPERS`."""
    value = node.value
    if not isinstance(value, ast.Call):
        return ""
    name = _call_name(value)
    if name in _RISKY_AWAITS:
        return name
    if _resolved_name(value.func, names) in _TIMEOUT_WRAPPERS:
        return ""
    stack: List[ast.AST] = [*value.args,
                            *(kw.value for kw in value.keywords)]
    while stack:
        arg = stack.pop()
        if isinstance(arg, (ast.Await, ast.Lambda)):
            continue  # checked as an await of its own, or runs later
        if isinstance(arg, ast.Call) and _call_name(arg) in _RISKY_AWAITS:
            return _call_name(arg)
        stack.extend(ast.iter_child_nodes(arg))
    return ""


def _is_timeout_scope(node: ast.AsyncWith,
                      names: Dict[str, str]) -> bool:
    """Whether an ``async with`` enters one of :data:`_TIMEOUT_SCOPES`
    (``async with lock:`` bounds nothing)."""
    return any(isinstance(item.context_expr, ast.Call)
               and _resolved_name(item.context_expr.func, names)
               in _TIMEOUT_SCOPES
               for item in node.items)


def _unscoped_awaits(
        node: ast.AST, names: Dict[str, str], package: List[str],
        scoped: bool = False) -> Iterator[Tuple[ast.Await, Dict[str, str]]]:
    """Every ``await`` under ``node`` outside a timeout scope, with the
    names its function sees.

    A timeout scope covers its ``async with`` body; a nested ``def``
    or ``lambda`` in that body runs later, outside it, so it starts
    unscoped again.
    """
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.Lambda)):
        scoped = False
        names = _function_bindings(node, names, package)
    elif isinstance(node, ast.Await) and not scoped:
        yield node, names
    if isinstance(node, ast.AsyncWith) and _is_timeout_scope(node,
                                                             names):
        for item in node.items:
            yield from _unscoped_awaits(item, names, package, scoped)
        for stmt in node.body:
            yield from _unscoped_awaits(stmt, names, package, True)
        return
    for child in ast.iter_child_nodes(node):
        yield from _unscoped_awaits(child, names, package, scoped)


@rule(
    "serve.missing-timeout",
    Severity.ERROR,
    KIND_SOURCE,
    "stream operation (read/drain/connect) awaited outside an "
    "asyncio.timeout or protocol.deadline scope and not through "
    "asyncio.wait_for — a stalled peer wedges the task forever",
)
def check_missing_timeout(subject: SourceFile,
                          config: CheckConfig) -> Iterator[Finding]:
    """Flag awaits on peer-blocking stream calls with no timeout."""
    if not _in_scope(subject, config):
        return
    parts = _module_parts(subject)
    names = _bindings(subject.tree, parts)
    for node, seen in _unscoped_awaits(subject.tree, names, parts[:-1]):
        name = _risky_await_name(node, seen)
        if not name:
            continue
        yield Finding(
            rule="serve.missing-timeout",
            severity=Severity.ERROR,
            message=(f"'...{name}(...)' awaited with no timeout: "
                     f"bound it with 'async with asyncio.timeout(...)'"
                     f" (or repro.serve.protocol.deadline) or "
                     f"asyncio.wait_for, or a stalled peer blocks "
                     f"this task indefinitely"),
            location=Location(file=subject.path, line=node.lineno,
                              obj=name),
        )


#: Functions that put frame bytes on the wire.  The zero-copy codec
#: contract says these write head and payload as separate parts;
#: any buffer concatenation or join here rebuilds the copy tax the
#: split codec exists to remove.
_SEND_PATH_NAMES = {"write_frame"}
_SEND_PATH_PREFIXES = ("_send",)


def _is_send_path(name: str) -> bool:
    return (name in _SEND_PATH_NAMES
            or name.startswith(_SEND_PATH_PREFIXES))


def _function_nodes(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


@rule(
    "serve.codec-copy",
    Severity.ERROR,
    KIND_SOURCE,
    "frame bytes copied on the wire path — a defensive bytes() of a "
    "payload, or buffer concatenation inside a send function",
)
def check_codec_copy(subject: SourceFile,
                     config: CheckConfig) -> Iterator[Finding]:
    """Enforce the zero-copy codec invariants of ``docs/serving.md``.

    Two shapes, both structural:

    - ``bytes(<anything>.payload)`` anywhere in the serving layer: a
      frame payload is immutable ``bytes`` by contract, so wrapping
      it in ``bytes()`` re-copies up to ``MAX_PAYLOAD_BYTES`` per
      frame for nothing.
    - ``+`` concatenation or ``join`` inside a send-path function
      (``write_frame`` / ``_send*``): the send path writes head and
      payload as two parts; building a joined buffer reintroduces a
      full-frame copy per response.
    """
    if not _in_scope(subject, config):
        return
    for node in ast.walk(subject.tree):
        if not isinstance(node, ast.Call):
            continue
        if (isinstance(node.func, ast.Name)
                and node.func.id == "bytes"
                and len(node.args) == 1
                and isinstance(node.args[0], ast.Attribute)
                and node.args[0].attr == "payload"):
            yield Finding(
                rule="serve.codec-copy",
                severity=Severity.ERROR,
                message=("bytes(...payload) re-copies an immutable "
                         "frame payload; pass the payload object "
                         "through"),
                location=Location(file=subject.path,
                                  line=node.lineno, obj="bytes"),
            )
    for func in _function_nodes(subject.tree):
        name = getattr(func, "name", "")
        if not _is_send_path(name):
            continue
        for node in ast.walk(func):
            offence = ""
            if (isinstance(node, ast.BinOp)
                    and isinstance(node.op, ast.Add)):
                offence = "'+' concatenation"
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"):
                offence = "a join()"
            if not offence:
                continue
            yield Finding(
                rule="serve.codec-copy",
                severity=Severity.ERROR,
                message=(f"send path {name}() builds wire bytes via "
                         f"{offence}: write head and payload as "
                         f"separate parts instead"),
                location=Location(file=subject.path,
                                  line=node.lineno, obj=name),
            )


__all__ = [
    "check_codec_copy",
    "check_missing_timeout",
    "check_unbounded_queue",
]
