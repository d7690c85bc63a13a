"""PROTO: the wire-protocol lock.

The pickled message set (:mod:`repro.distrib.messages` plus the handshake
dataclasses in :mod:`repro.net.transport`) is a cross-process contract:
a field added on the coordinator side but absent on a stale agent
desynchronizes the run, which is exactly what ``PROTOCOL_VERSION`` exists
to prevent -- but nothing ever checked that the version moves when the
messages do.  This checker extracts every message dataclass (field names,
annotations, defaults) into a committed ``protocol.lock.json`` and fails
when they drift apart:

``PROTO001``
    A message class or field changed while ``PROTOCOL_VERSION`` stayed at
    the locked value: bump the version, then regenerate the lock.
``PROTO002``
    The lock file is missing, does not parse, or records a different
    version than the code: regenerate with ``python -m repro.analysis
    --update-lock`` (a lock that exists but does not parse has to be
    restored from version control first -- ``--update-lock`` refuses to
    overwrite what it cannot diff against).
``PROTO004``
    The semver rule.  The lock (format 2) records both the current
    ``PROTOCOL_VERSION`` and the ``PROTOCOL_COMPAT_VERSION`` floor -- the
    oldest version whose agents may still join mid-campaign.  A version
    bump that keeps the floor below the new version is a *compatible*
    bump, and only additive changes qualify: new fields with defaults
    (an old agent simply omits them and the dataclass fills them in).
    Removing or retyping a field, adding a required field, or adding a
    whole message class while the floor still admits old agents is a
    breaking change at a compatible version bump -- advance the floor or
    make the change additive.  Compatible additions are tagged in the
    lock with ``"since": <version>`` so the window stays auditable;
    ``--update-lock`` refuses to write a lock that would paper over a
    breaking compatible bump.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.analysis.core import Finding, SourceModule

__all__ = ["MESSAGE_MODULES", "VERSION_MODULE", "VERSION_CONSTANT",
           "COMPAT_CONSTANT", "LOCK_FORMAT", "extract_protocol",
           "classify_changes", "build_lock", "verify_lock", "write_lock",
           "load_lock", "LockError", "check"]

#: Path suffix -> dotted module name of every file whose dataclasses are
#: wire messages.  Matched by suffix so fixture trees work unchanged.
MESSAGE_MODULES: Dict[str, str] = {
    "repro/distrib/messages.py": "repro.distrib.messages",
    "repro/net/transport.py": "repro.net.transport",
}

#: Where the protocol version constants live.
VERSION_MODULE = "repro/net/transport.py"
VERSION_CONSTANT = "PROTOCOL_VERSION"
#: The compatibility floor: the oldest protocol version whose agents may
#: still join.  Optional in fixtures -- it defaults to the version itself
#: (no compatibility window).
COMPAT_CONSTANT = "PROTOCOL_COMPAT_VERSION"

#: On-disk lock format: version, compat floor, messages with per-field
#: ``since`` tags.
LOCK_FORMAT = 2


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def _module_name(module: SourceModule) -> Optional[str]:
    for suffix, dotted in MESSAGE_MODULES.items():
        if module.path.endswith(suffix):
            return dotted
    return None


def extract_protocol(modules: List[SourceModule]) -> Tuple[dict, dict]:
    """Read the message set and version out of the tree, statically.

    Returns ``(lock_data, locations)``: the JSON-able lock content, and a
    side table mapping message names (and ``VERSION_CONSTANT``) to
    ``(path, line)`` for findings.
    """
    messages: Dict[str, dict] = {}
    locations: Dict[str, Tuple[str, int]] = {}
    version: Optional[int] = None
    compat: Optional[int] = None
    for module in modules:
        dotted = _module_name(module)
        if dotted is None:
            continue
        if module.path.endswith(VERSION_MODULE):
            for node in module.tree.body:
                if not (isinstance(node, ast.Assign)
                        and isinstance(node.value, ast.Constant)
                        and isinstance(node.value.value, int)):
                    continue
                names = {t.id for t in node.targets
                         if isinstance(t, ast.Name)}
                if VERSION_CONSTANT in names:
                    version = node.value.value
                    locations[VERSION_CONSTANT] = (module.path, node.lineno)
                if COMPAT_CONSTANT in names:
                    compat = node.value.value
                    locations[COMPAT_CONSTANT] = (module.path, node.lineno)
        for node in module.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            if not _is_dataclass_decorated(node):
                continue
            full_name = "%s.%s" % (dotted, node.name)
            fields = []
            for statement in node.body:
                if not isinstance(statement, ast.AnnAssign):
                    continue
                if not isinstance(statement.target, ast.Name):
                    continue
                annotation = ast.unparse(statement.annotation)
                if annotation.startswith("ClassVar"):
                    continue
                fields.append({
                    "name": statement.target.id,
                    "type": annotation,
                    "default": (ast.unparse(statement.value)
                                if statement.value is not None else None),
                })
            messages[full_name] = {"fields": fields}
            locations[full_name] = (module.path, node.lineno)
    lock_data = {
        "format": LOCK_FORMAT,
        "protocol_version": version,
        "compat_version": compat if compat is not None else version,
        "messages": {name: messages[name] for name in sorted(messages)},
    }
    return lock_data, locations


class LockError(ValueError):
    """The lock file exists but is not a format-2 lock."""


def load_lock(path: str) -> Optional[dict]:
    """The committed lock; ``None`` only when there is no such file.

    A file that is there but cannot be read as a format-2 lock raises
    :class:`LockError`: treating it as absent would let ``--update-lock``
    write a fresh lock without diffing against the old one, which is the
    semver gate switched off.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    except (OSError, UnicodeDecodeError) as exc:
        raise LockError("cannot read %s: %s" % (path, exc)) from None
    try:
        lock = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LockError("%s is not valid JSON (%s)" % (path, exc)) from None
    if not (isinstance(lock, dict) and lock.get("format") == LOCK_FORMAT
            and isinstance(lock.get("messages"), dict)):
        raise LockError("%s is not a format-%d protocol lock"
                        % (path, LOCK_FORMAT))
    return lock


def write_lock(lock_data: dict, path: str) -> None:
    Path(path).write_text(json.dumps(lock_data, indent=2, sort_keys=True)
                          + "\n", encoding="utf-8")


def _field_map(entry: dict) -> Dict[str, dict]:
    return {f["name"]: f for f in entry.get("fields", ())}


def _signature(entry: dict) -> Tuple[object, object]:
    """What must not drift for a field: its type and default.

    ``since`` tags are lock bookkeeping, not part of the wire shape.
    """
    return (entry.get("type"), entry.get("default"))


def classify_changes(frozen: dict, current: dict
                     ) -> Tuple[List[str], List[str]]:
    """Split a message-set diff into (compatible, breaking) descriptions.

    The only compatible change is a new field with a default: an agent at
    the old version omits it and the dataclass fills it in.  Everything
    else -- removed or retyped fields, required fields, new or removed
    message classes (an old agent cannot even unpickle an unknown class)
    -- breaks agents below the new version.
    """
    compatible: List[str] = []
    breaking: List[str] = []
    for name in sorted(set(frozen) - set(current)):
        breaking.append("wire message %s was removed" % name)
    for name in sorted(set(current) - set(frozen)):
        breaking.append("new wire message %s (old agents cannot unpickle "
                        "an unknown class)" % name)
    for name in sorted(set(current) & set(frozen)):
        now, then = _field_map(current[name]), _field_map(frozen[name])
        for missing in sorted(set(then) - set(now)):
            breaking.append("field %r was removed from %s" % (missing, name))
        for added in sorted(set(now) - set(then)):
            if now[added].get("default") is not None:
                compatible.append("field %r added to %s (default %s)"
                                  % (added, name, now[added]["default"]))
            else:
                breaking.append("required field %r added to %s"
                                % (added, name))
        for common in sorted(set(now) & set(then)):
            if _signature(now[common]) != _signature(then[common]):
                breaking.append("field %r of %s changed (%s -> %s)"
                                % (common, name, _describe(then[common]),
                                   _describe(now[common])))
    return compatible, breaking


def build_lock(lock_data: dict,
               previous: Optional[dict]) -> Tuple[dict, List[str]]:
    """The format-2 lock ``--update-lock`` should write.

    Returns ``(lock, breaking)``.  ``breaking`` is non-empty exactly when
    the diff against ``previous`` contains breaking changes while the
    code's compat floor still admits previous-version agents -- the
    caller must refuse to write the lock in that case (PROTO004).

    Compatible additions introduced by a version bump are tagged
    ``"since": <new version>``; prior tags are carried forward until the
    compat floor catches up, then folded into the base message shape.
    """
    version = lock_data.get("protocol_version")
    compat = lock_data.get("compat_version", version)
    messages = {
        name: {"fields": [dict(field) for field in entry.get("fields", ())]}
        for name, entry in lock_data.get("messages", {}).items()}
    lock = {
        "format": LOCK_FORMAT,
        "protocol_version": version,
        "compat_version": compat,
        "messages": messages,
    }
    if previous is None:
        return lock, []
    prev_version = previous.get("protocol_version")
    frozen = previous.get("messages", {})
    bumped = (isinstance(prev_version, int) and isinstance(version, int)
              and version > prev_version)
    if bumped and isinstance(compat, int) and compat <= prev_version:
        _, breaking = classify_changes(frozen, messages)
        if breaking:
            return lock, breaking
    for name, entry in messages.items():
        then = _field_map(frozen.get(name, {}))
        for field in entry["fields"]:
            prior = then.get(field["name"])
            since: Optional[int] = None
            if prior is not None:
                since = prior.get("since")
            elif (bumped and name in frozen
                    and field.get("default") is not None):
                since = version
            if isinstance(since, int) and isinstance(compat, int) \
                    and since > compat:
                field["since"] = since
    return lock, []


def verify_lock(lock_data: dict, locations: dict,
                locked: Optional[dict], lock_path: str) -> List[Finding]:
    """Compare the extracted message set against the committed lock."""
    findings: List[Finding] = []
    version = lock_data.get("protocol_version")
    compat = lock_data.get("compat_version")
    version_path, version_line = locations.get(
        VERSION_CONSTANT, (VERSION_MODULE, 1))
    compat_path, compat_line = locations.get(
        COMPAT_CONSTANT, (version_path, version_line))
    if version is None:
        findings.append(Finding(
            "PROTO002", version_path, version_line,
            "no literal %s assignment found in %s"
            % (VERSION_CONSTANT, VERSION_MODULE),
            hint="keep %s a plain integer constant" % VERSION_CONSTANT))
        return findings
    if isinstance(compat, int) and compat > version:
        findings.append(Finding(
            "PROTO004", compat_path, compat_line,
            "%s (%d) exceeds %s (%d); the compatibility floor can never "
            "pass the current version"
            % (COMPAT_CONSTANT, compat, VERSION_CONSTANT, version),
            hint="keep %s <= %s" % (COMPAT_CONSTANT, VERSION_CONSTANT)))
        return findings
    if locked is None:
        findings.append(Finding(
            "PROTO002", version_path, version_line,
            "protocol lock file %s is missing" % lock_path,
            hint="run `python -m repro.analysis --update-lock` and commit "
                 "the result"))
        return findings
    locked_version = locked.get("protocol_version")
    current = lock_data.get("messages", {})
    frozen = locked.get("messages", {})
    if locked_version != version:
        # A forward bump whose floor still admits old agents may only
        # carry additive changes -- the semver rule, checked before the
        # generic "stale lock" escape hatch.
        if (isinstance(locked_version, int) and version > locked_version
                and isinstance(compat, int) and compat <= locked_version):
            _, breaking = classify_changes(frozen, current)
            for change in breaking:
                findings.append(Finding(
                    "PROTO004", version_path, version_line,
                    "breaking protocol change at a compatible version bump "
                    "(%d -> %d, compat floor %d): %s"
                    % (locked_version, version, compat, change),
                    hint="advance %s to %d (dropping v%d agents) or make "
                         "the change additive (new field with a default)"
                         % (COMPAT_CONSTANT, version, locked_version)))
            if breaking:
                return findings
        findings.append(Finding(
            "PROTO002", version_path, version_line,
            "protocol lock records version %r but the code is at %r; "
            "the lock is stale" % (locked_version, version),
            hint="run `python -m repro.analysis --update-lock` and commit "
                 "%s together with the version bump" % lock_path))
        return findings
    if locked.get("compat_version", locked_version) != compat:
        findings.append(Finding(
            "PROTO002", compat_path, compat_line,
            "protocol lock records compat floor %r but the code is at %r; "
            "the lock is stale"
            % (locked.get("compat_version"), compat),
            hint="run `python -m repro.analysis --update-lock` and commit "
                 "%s together with the floor change" % lock_path))
        return findings

    # Same version: the message set must be identical to the lock.
    hint = ("bump %s in %s, then run `python -m repro.analysis "
            "--update-lock`" % (VERSION_CONSTANT, VERSION_MODULE))
    for name in sorted(set(frozen) - set(current)):
        findings.append(Finding(
            "PROTO001", version_path, version_line,
            "wire message %s was removed without a %s bump"
            % (name, VERSION_CONSTANT), hint=hint, context=name))
    for name in sorted(set(current) - set(frozen)):
        path, line = locations.get(name, (version_path, version_line))
        findings.append(Finding(
            "PROTO001", path, line,
            "new wire message %s added without a %s bump"
            % (name, VERSION_CONSTANT), hint=hint, context=name))
    for name in sorted(set(current) & set(frozen)):
        path, line = locations.get(name, (version_path, version_line))
        now, then = _field_map(current[name]), _field_map(frozen[name])
        for missing in sorted(set(then) - set(now)):
            findings.append(Finding(
                "PROTO001", path, line,
                "field %r removed from wire message %s without a %s bump"
                % (missing, name, VERSION_CONSTANT), hint=hint, context=name))
        for added in sorted(set(now) - set(then)):
            findings.append(Finding(
                "PROTO001", path, line,
                "field %r added to wire message %s without a %s bump"
                % (added, name, VERSION_CONSTANT), hint=hint, context=name))
        for common in sorted(set(now) & set(then)):
            if _signature(now[common]) != _signature(then[common]):
                findings.append(Finding(
                    "PROTO001", path, line,
                    "field %r of wire message %s changed (%s -> %s) without "
                    "a %s bump"
                    % (common, name, _describe(then[common]),
                       _describe(now[common]), VERSION_CONSTANT),
                    hint=hint, context=name))
        # Fields the lock records as post-floor additions must keep their
        # defaults, or floor-version agents can no longer omit them.
        for common in sorted(set(now) & set(then)):
            since = then[common].get("since")
            if (isinstance(since, int) and isinstance(compat, int)
                    and since > compat
                    and now[common].get("default") is None):
                findings.append(Finding(
                    "PROTO004", path, line,
                    "field %r of wire message %s was added in v%d but lost "
                    "its default; agents at the compat floor (v%d) cannot "
                    "omit it" % (common, name, since, compat),
                    hint="restore the default or advance %s"
                         % COMPAT_CONSTANT, context=name))
    return findings


def _describe(entry: dict) -> str:
    text = entry.get("type", "?")
    if entry.get("default") is not None:
        text += " = %s" % entry["default"]
    return text


def check(modules: List[SourceModule], lock_path: str) -> List[Finding]:
    """The PROTO family: the tree's message set against the lock file."""
    lock_data, locations = extract_protocol(modules)
    if not lock_data["messages"] and lock_data["protocol_version"] is None:
        return []  # tree has no wire modules at all (fixture trees)
    try:
        locked = load_lock(lock_path)
    except LockError as exc:
        path, line = locations.get(VERSION_CONSTANT, (VERSION_MODULE, 1))
        return [Finding(
            "PROTO002", path, line,
            "protocol lock file is corrupt: %s" % exc,
            hint="restore %s from version control; --update-lock will not "
                 "overwrite a lock it cannot compare against" % lock_path)]
    return verify_lock(lock_data, locations, locked, lock_path)
