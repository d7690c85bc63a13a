"""PROTO: the wire-protocol lock checker and its semver rule (PROTO004),
driven on fixture trees.

Fixture trees mirror the real layout (``repro/distrib/messages.py`` etc.)
under a tmp dir; the checker matches modules by path suffix, so nothing
here needs to be importable.
"""

import json
from pathlib import Path

from repro.analysis import cli, protocol
from repro.analysis.core import load_modules

from conftest import write_tree

MESSAGES_V1 = """\
    from dataclasses import dataclass, field
    from typing import Optional

    @dataclass(frozen=True)
    class ExploreCommand:
        budget: int
        report_frontier: bool = False

    @dataclass
    class StatusReply:
        worker_id: int
        queue_length: int
        note: Optional[str] = None

    class NotAMessage:
        x: int = 1
"""

TRANSPORT_V1 = """\
    from dataclasses import dataclass

    PROTOCOL_VERSION = 1

    @dataclass(frozen=True)
    class HelloMessage:
        protocol_version: int
        agent: str = ""
"""


def _tree(tmp_path, messages=MESSAGES_V1, transport=TRANSPORT_V1):
    root = write_tree(tmp_path, {
        "src/repro/distrib/messages.py": messages,
        "src/repro/net/transport.py": transport,
    })
    modules, parse_findings = load_modules([root])
    assert not parse_findings
    return modules


class TestExtraction:
    def test_extracts_fields_types_defaults_and_version(self, tmp_path):
        lock_data, locations = protocol.extract_protocol(_tree(tmp_path))
        assert lock_data["protocol_version"] == 1
        names = set(lock_data["messages"])
        assert "repro.distrib.messages.ExploreCommand" in names
        assert "repro.net.transport.HelloMessage" in names
        assert "repro.distrib.messages.NotAMessage" not in names  # no @dataclass
        fields = lock_data["messages"][
            "repro.distrib.messages.ExploreCommand"]["fields"]
        assert fields == [
            {"name": "budget", "type": "int", "default": None},
            {"name": "report_frontier", "type": "bool", "default": "False"},
        ]
        assert "repro.distrib.messages.StatusReply" in locations

    def test_non_wire_modules_are_ignored(self, tmp_path):
        root = write_tree(tmp_path, {"src/repro/engine/other.py": """\
            from dataclasses import dataclass

            @dataclass
            class NotWire:
                x: int
        """})
        modules, _ = load_modules([root])
        lock_data, _ = protocol.extract_protocol(modules)
        assert lock_data["messages"] == {}
        # A tree with no wire modules at all produces no PROTO findings.
        assert protocol.check(modules, str(tmp_path / "nope.json")) == []


class TestLockVerification:
    def _lock(self, tmp_path, modules):
        lock_path = tmp_path / "protocol.lock.json"
        lock_data, _ = protocol.extract_protocol(modules)
        protocol.write_lock(lock_data, str(lock_path))
        return str(lock_path)

    def test_unchanged_tree_round_trips_clean(self, tmp_path):
        modules = _tree(tmp_path)
        lock_path = self._lock(tmp_path, modules)
        assert protocol.check(modules, lock_path) == []

    def test_missing_lock_is_proto002(self, tmp_path):
        modules = _tree(tmp_path)
        findings = protocol.check(modules, str(tmp_path / "absent.json"))
        assert [f.checker for f in findings] == ["PROTO002"]
        assert "missing" in findings[0].message

    def test_corrupt_lock_is_its_own_proto002_not_a_missing_one(
            self, tmp_path):
        modules = _tree(tmp_path)
        lock_path = self._lock(tmp_path, modules)
        whole = Path(lock_path).read_text(encoding="utf-8")
        # Truncated, a JSON list, and a flat format-1 lock.
        for text in (whole[:len(whole) // 2], "[]",
                     '{"protocol_version": 1, "messages": {}}'):
            Path(lock_path).write_text(text, encoding="utf-8")
            findings = protocol.check(modules, lock_path)
            assert [f.checker for f in findings] == ["PROTO002"]
            assert "corrupt" in findings[0].message
            assert "missing" not in findings[0].message
            assert "restore" in findings[0].hint

    def test_field_added_without_bump_is_proto001(self, tmp_path):
        modules = _tree(tmp_path)
        lock_path = self._lock(tmp_path, modules)
        grown = _tree(tmp_path, messages=MESSAGES_V1.replace(
            "budget: int", "budget: int\n        trace: bool = False"))
        findings = protocol.check(grown, lock_path)
        assert [f.checker for f in findings] == ["PROTO001"]
        assert "'trace' added" in findings[0].message
        assert "bump" in findings[0].hint

    def test_field_removed_and_type_changed_without_bump(self, tmp_path):
        modules = _tree(tmp_path)
        lock_path = self._lock(tmp_path, modules)
        mutated = _tree(tmp_path, messages=MESSAGES_V1
                        .replace("queue_length: int", "queue_length: float")
                        .replace("note: Optional[str] = None\n", ""))
        checkers = sorted(f.checker for f in protocol.check(mutated, lock_path))
        assert checkers == ["PROTO001", "PROTO001"]

    def test_new_message_without_bump_is_proto001(self, tmp_path):
        modules = _tree(tmp_path)
        lock_path = self._lock(tmp_path, modules)
        grown = _tree(tmp_path, messages=MESSAGES_V1 + """\

    @dataclass
    class BrandNewCommand:
        jobs: int
""")
        findings = protocol.check(grown, lock_path)
        assert [f.checker for f in findings] == ["PROTO001"]
        assert "BrandNewCommand" in findings[0].message

    def test_version_bump_without_lock_regen_is_proto002(self, tmp_path):
        modules = _tree(tmp_path)
        lock_path = self._lock(tmp_path, modules)
        bumped = _tree(tmp_path, transport=TRANSPORT_V1.replace(
            "PROTOCOL_VERSION = 1", "PROTOCOL_VERSION = 2"))
        findings = protocol.check(bumped, lock_path)
        assert [f.checker for f in findings] == ["PROTO002"]
        assert "stale" in findings[0].message

    def test_bump_plus_regenerated_lock_is_clean(self, tmp_path):
        grown_messages = MESSAGES_V1.replace(
            "budget: int", "budget: int\n        trace: bool = False")
        bumped = _tree(tmp_path, messages=grown_messages,
                       transport=TRANSPORT_V1.replace(
                           "PROTOCOL_VERSION = 1", "PROTOCOL_VERSION = 2"))
        lock_path = self._lock(tmp_path, bumped)
        assert protocol.check(bumped, lock_path) == []

    def test_non_literal_version_is_proto002(self, tmp_path):
        modules = _tree(tmp_path, transport=TRANSPORT_V1.replace(
            "PROTOCOL_VERSION = 1", "PROTOCOL_VERSION = int('1')"))
        findings = protocol.check(modules, str(tmp_path / "x.json"))
        assert [f.checker for f in findings] == ["PROTO002"]
        assert "plain integer" in findings[0].hint


def _args(tmp_path, *extra):
    return [*extra, "--lock", str(tmp_path / "protocol.lock.json")]


class TestSemverLock:
    V1 = {
        "src/repro/distrib/messages.py": """\
            from dataclasses import dataclass

            @dataclass
            class PingCommand:
                nonce: int
        """,
        "src/repro/net/transport.py": """\
            PROTOCOL_VERSION = 1
            PROTOCOL_COMPAT_VERSION = 1
        """,
    }

    RETYPED = """\
        from dataclasses import dataclass

        @dataclass
        class PingCommand:
            nonce: str
    """

    ADDITIVE = """\
        from dataclasses import dataclass

        @dataclass
        class PingCommand:
            nonce: int
            urgent: bool = False
    """

    def _bump(self, messages_source, version=2, compat=1):
        grown = dict(self.V1)
        grown["src/repro/distrib/messages.py"] = messages_source
        grown["src/repro/net/transport.py"] = (
            "PROTOCOL_VERSION = %d\nPROTOCOL_COMPAT_VERSION = %d\n"
            % (version, compat))
        return grown

    def test_breaking_change_at_compatible_bump_fails(self, tmp_path, capsys):
        root = write_tree(tmp_path, self.V1)
        assert cli.main(_args(tmp_path, root, "--update-lock")) == 0
        capsys.readouterr()
        # Bump to v2 while still admitting v1 agents, but retype a field --
        # a v1 agent's pickle no longer matches.
        write_tree(tmp_path, self._bump(self.RETYPED))
        assert cli.main(_args(tmp_path, root)) == 1
        out = capsys.readouterr().out
        assert "[PROTO004]" in out
        assert "compat floor 1" in out

    def test_update_lock_refuses_the_breaking_compatible_bump(
            self, tmp_path, capsys):
        root = write_tree(tmp_path, self.V1)
        assert cli.main(_args(tmp_path, root, "--update-lock")) == 0
        capsys.readouterr()
        write_tree(tmp_path, self._bump(self.RETYPED))
        assert cli.main(_args(tmp_path, root, "--update-lock")) == 1
        err = capsys.readouterr().err
        assert "refusing" in err
        assert "PROTO004" in err

    def test_additive_bump_passes_and_tags_since(self, tmp_path, capsys):
        root = write_tree(tmp_path, self.V1)
        assert cli.main(_args(tmp_path, root, "--update-lock")) == 0
        write_tree(tmp_path, self._bump(self.ADDITIVE))
        assert cli.main(_args(tmp_path, root, "--update-lock")) == 0
        capsys.readouterr()
        lock = json.loads((tmp_path / "protocol.lock.json")
                          .read_text(encoding="utf-8"))
        assert lock["format"] == 2
        assert lock["compat_version"] == 1
        entry = lock["messages"]["repro.distrib.messages.PingCommand"]
        fields = {f["name"]: f for f in entry["fields"]}
        assert fields["urgent"]["since"] == 2
        assert "since" not in fields["nonce"]
        assert cli.main(_args(tmp_path, root)) == 0

    def test_advancing_the_floor_folds_since_tags(self, tmp_path):
        root = write_tree(tmp_path, self.V1)
        assert cli.main(_args(tmp_path, root, "--update-lock")) == 0
        write_tree(tmp_path, self._bump(self.ADDITIVE))
        assert cli.main(_args(tmp_path, root, "--update-lock")) == 0
        # Dropping v1 agents: the since tag has served its purpose.
        write_tree(tmp_path, self._bump(self.ADDITIVE, version=2, compat=2))
        assert cli.main(_args(tmp_path, root, "--update-lock")) == 0
        lock = json.loads((tmp_path / "protocol.lock.json")
                          .read_text(encoding="utf-8"))
        entry = lock["messages"]["repro.distrib.messages.PingCommand"]
        fields = {f["name"]: f for f in entry["fields"]}
        assert "since" not in fields["urgent"]

    def test_floor_above_version_is_always_wrong(self, tmp_path, capsys):
        root = write_tree(tmp_path, self._bump(
            self.V1["src/repro/distrib/messages.py"], version=2, compat=3))
        assert cli.main(_args(tmp_path, root)) == 1
        out = capsys.readouterr().out
        assert "[PROTO004]" in out
        assert "can never pass" in out


class TestShippedLockIsSemver:
    def test_committed_lock_is_format_2_and_floor_sane(self):
        repo = Path(__file__).resolve().parent.parent
        lock = json.loads((repo / "protocol.lock.json")
                          .read_text(encoding="utf-8"))
        assert lock["format"] == 2
        assert lock["compat_version"] <= lock["protocol_version"]
