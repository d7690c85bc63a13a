"""PROTO004: the semver rule of the protocol lock."""

import json
from pathlib import Path

from repro.analysis import cli

from conftest import write_tree


def _args(tmp_path, *extra):
    return [*extra, "--baseline", str(tmp_path / "analysis_baseline.json"),
            "--lock", str(tmp_path / "protocol.lock.json")]


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
        assert cli.main(_args(tmp_path, root, "--select", "PROTO")) == 1
        out = capsys.readouterr().out
        assert "[PROTO004]" in out
        assert "can never pass" in out


class TestShippedLockIsSemver:
    def test_committed_lock_is_format_2_and_floor_is_sane(self):
        repo = Path(__file__).resolve().parent.parent
        lock = json.loads((repo / "protocol.lock.json")
                          .read_text(encoding="utf-8"))
        assert lock["format"] == 2
        assert lock["compat_version"] <= lock["protocol_version"]
