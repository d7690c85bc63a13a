"""CONC: blocking calls under locks, untimed receives.

The coordinator is a single-threaded request/reply loop surrounded by
helper threads (TCP receivers, heartbeat pumps, the status server), and
the discipline that keeps it live is simple: never block indefinitely
while holding a lock, and never wait on a peer without a timeout
(``TcpTransport._sendall`` and ``QueuePairTransport.recv`` are the code
both rules are about):

``CONC001``
    A blocking call (``socket.recv/accept/sendall/connect``, ``Queue.get``/
    ``Queue.put`` without a timeout, zero-argument ``.join()``/``.wait()``,
    ``subprocess.*``, ``time.sleep``) lexically inside a ``with <lock>:``
    body.  A stalled peer freezes every thread that needs the lock.
``CONC002``
    An untimed ``.get()`` on a queue: a dead sender hangs the caller
    forever (the worker loop's exact failure mode when its coordinator
    dies).

Lock identification is heuristic but strict enough to be quiet: a ``with``
context is a lock when its expression resolves to a ``threading.Lock/
RLock/Condition/Semaphore`` assignment seen anywhere in the tree, or when
its dotted name contains ``lock``.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set, Tuple

from repro.analysis.core import (
    Finding,
    SourceModule,
    attr_chain,
    enclosing_context,
    qualname_index,
)

__all__ = ["check"]

_LOCK_FACTORY_NAMES = frozenset({
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"})

#: Attribute calls that always block (no timeout parameter exists).
_ALWAYS_BLOCKING_ATTRS = frozenset({
    "recv", "recvfrom", "recv_into", "accept", "sendall", "connect"})

#: ``subprocess`` functions that wait on a child.
_SUBPROCESS_BLOCKING = frozenset({
    "run", "call", "check_call", "check_output", "communicate"})

_QUEUEISH_HINTS = ("queue", "inbox", "mailbox", "pending")


def _has_timeout(node: ast.Call) -> bool:
    if any(keyword.arg == "timeout" for keyword in node.keywords):
        return True
    # queue.Queue.get(block, timeout) -- a second positional is a timeout.
    return len(node.args) >= 2


def _is_queueish(receiver: str) -> bool:
    lowered = receiver.lower()
    return any(hint in lowered for hint in _QUEUEISH_HINTS)


def _collect_lock_attrs(modules: List[SourceModule]) -> Set[str]:
    """Attribute/name targets assigned a ``threading.Lock()``-style value."""
    lock_names: Set[str] = set()
    for module in modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            if not (isinstance(value, ast.Call)
                    and ((isinstance(value.func, ast.Name)
                          and value.func.id in _LOCK_FACTORY_NAMES)
                         or (isinstance(value.func, ast.Attribute)
                             and value.func.attr in _LOCK_FACTORY_NAMES))):
                continue
            for target in node.targets:
                chain = attr_chain(target)
                if chain:
                    # Keyed by the trailing attribute name: `self._lock`
                    # assigned in __init__ matches `self._lock` acquired in
                    # any method of any class with that attribute.
                    lock_names.add(chain.split(".")[-1])
    return lock_names


def _blocking_reason(node: ast.Call) -> Optional[str]:
    """Why this call can block indefinitely (None = not blocking)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        receiver = attr_chain(func.value)
        attr = func.attr
        if attr in _ALWAYS_BLOCKING_ATTRS:
            return "%s.%s() blocks until the peer cooperates" % (
                receiver or "<expr>", attr)
        if attr in ("get", "put") and _is_queueish(receiver):
            if not _has_timeout(node) and not (attr == "get" and node.args):
                return ("untimed %s.%s() blocks forever if the other side "
                        "is gone" % (receiver or "<expr>", attr))
            return None
        if attr in ("join", "wait") and not node.args and not node.keywords:
            if isinstance(func.value, ast.Name) and func.value.id in ("os",):
                return None  # os.wait is flagged via subprocess rules only
            return ("%s.%s() with no timeout waits forever"
                    % (receiver or "<expr>", attr))
        if (attr in _SUBPROCESS_BLOCKING
                and isinstance(func.value, ast.Name)
                and func.value.id == "subprocess"):
            return "subprocess.%s() waits on a child process" % attr
        if (attr == "sleep" and isinstance(func.value, ast.Name)
                and func.value.id == "time"):
            return "time.sleep() stalls every waiter on the lock"
    return None


def check(modules: List[SourceModule]) -> List[Finding]:
    findings: List[Finding] = []
    known_lock_attrs = _collect_lock_attrs(modules)

    def is_lock_expr(expr: ast.AST) -> bool:
        chain = attr_chain(expr)
        if not chain:
            return False
        return ("lock" in chain.lower()
                or chain.split(".")[-1] in known_lock_attrs)

    def scan_module(module: SourceModule) -> None:
        index = qualname_index(module)

        def walk(node: ast.AST, held: Tuple[str, ...]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # A nested def's body runs later; locks held here are
                    # not held inside it.
                    walk(child, ())
                    continue
                if isinstance(child, ast.Lambda):
                    continue
                acquired: List[str] = []
                if isinstance(child, (ast.With, ast.AsyncWith)):
                    for item in child.items:
                        # `with lock:` or `with lock.acquire_timeout(..)`
                        target = item.context_expr
                        if isinstance(target, ast.Call):
                            target = target.func
                        if is_lock_expr(target):
                            acquired.append(attr_chain(target))
                if isinstance(child, ast.Call):
                    reason = _blocking_reason(child)
                    receiver = (attr_chain(child.func.value)
                                if isinstance(child.func, ast.Attribute)
                                else "")
                    if held and reason is not None:
                        findings.append(Finding(
                            "CONC001", module.path, child.lineno,
                            "blocking call under lock %s: %s"
                            % (held[-1], reason),
                            hint="bound the wait (timeout=, select with a "
                                 "deadline) or move the call outside the "
                                 "lock",
                            context=enclosing_context(module, child, index)))
                    elif (isinstance(child.func, ast.Attribute)
                          and child.func.attr == "get"
                          and _is_queueish(receiver)
                          and not child.args
                          and not any(k.arg in ("timeout", "block")
                                      for k in child.keywords)):
                        findings.append(Finding(
                            "CONC002", module.path, child.lineno,
                            "untimed %s.get(): a dead sender hangs this "
                            "loop forever" % (receiver or "<queue>"),
                            hint="pass timeout= and re-check liveness "
                                 "between attempts",
                            context=enclosing_context(module, child, index)))
                walk(child, held + tuple(acquired))

        walk(module.tree, ())

    for module in modules:
        scan_module(module)
    return findings
