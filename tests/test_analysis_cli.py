"""The ``python -m repro.analysis`` entry point, end to end."""

import json
from pathlib import Path

from repro.analysis import cli

from conftest import write_tree

REPO_ROOT = Path(__file__).resolve().parent.parent

#: A one-message wire tree: ``messages.py`` plus the version constant.
WIRE = {
    "src/repro/distrib/messages.py": """\
        from dataclasses import dataclass

        @dataclass
        class PingCommand:
            nonce: int
    """,
    "src/repro/net/transport.py": """\
        PROTOCOL_VERSION = 1
    """,
}


def _grown():
    """``WIRE`` with a field added to ``PingCommand`` and no version bump."""
    return dict(WIRE, **{"src/repro/distrib/messages.py": """\
        from dataclasses import dataclass

        @dataclass
        class PingCommand:
            nonce: int
            urgent: bool = False
    """})


def _args(tmp_path, *extra):
    return [*extra, "--lock", str(tmp_path / "protocol.lock.json")]


class TestExitCodes:
    def test_violations_exit_nonzero_and_print_findings(self, tmp_path, capsys):
        root = write_tree(tmp_path, WIRE)
        assert cli.main(_args(tmp_path, root, "--update-lock")) == 0
        write_tree(tmp_path, _grown())
        capsys.readouterr()
        assert cli.main(_args(tmp_path, root)) == 1
        out = capsys.readouterr().out
        assert "[PROTO001]" in out
        assert "messages.py:4" in out
        assert "(fix:" in out
        assert "1 finding(s)" in out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = write_tree(tmp_path, {"src/repro/engine/pick.py": "x = 1\n"})
        assert cli.main(_args(tmp_path, root)) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_missing_path_is_a_usage_error(self, tmp_path, capsys):
        assert cli.main([str(tmp_path / "nowhere")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_syntax_errors_are_findings_not_crashes(self, tmp_path, capsys):
        root = write_tree(tmp_path,
                          {"src/repro/engine/pick.py": "def broken(:\n"})
        assert cli.main(_args(tmp_path, root)) == 1
        assert "[ANA001]" in capsys.readouterr().out


class TestLockFlow:
    def test_update_lock_writes_and_then_verifies_green(self, tmp_path, capsys):
        root = write_tree(tmp_path, WIRE)
        lock = str(tmp_path / "protocol.lock.json")
        assert cli.main([root, "--lock", lock, "--update-lock"]) == 0
        assert "1 message classes" in capsys.readouterr().out
        data = json.loads(Path(lock).read_text(encoding="utf-8"))
        assert data["protocol_version"] == 1
        assert cli.main(_args(tmp_path, root)) == 0

    def test_update_lock_refuses_to_replace_a_corrupt_lock(
            self, tmp_path, capsys):
        """A lock that cannot be diffed against must not be overwritten:
        that would skip the PROTO004 refusal."""
        root = write_tree(tmp_path, WIRE)
        lock = tmp_path / "protocol.lock.json"
        assert cli.main(_args(tmp_path, root, "--update-lock")) == 0
        truncated = lock.read_text(encoding="utf-8")[:40]
        lock.write_text(truncated, encoding="utf-8")
        capsys.readouterr()
        assert cli.main(_args(tmp_path, root, "--update-lock")) == 1
        captured = capsys.readouterr()
        assert "refusing" in captured.err and "wrote" not in captured.out
        assert lock.read_text(encoding="utf-8") == truncated
        # Only a file that is not there counts as "no previous lock".
        lock.unlink()
        assert cli.main(_args(tmp_path, root, "--update-lock")) == 0

    def test_field_add_without_bump_fails_the_gate(self, tmp_path, capsys):
        root = write_tree(tmp_path, WIRE)
        assert cli.main(_args(tmp_path, root, "--update-lock")) == 0
        capsys.readouterr()
        write_tree(tmp_path, _grown())
        assert cli.main(_args(tmp_path, root)) == 1
        out = capsys.readouterr().out
        assert "[PROTO001] field 'urgent' added to wire message" in out
        assert "1 finding(s)" in out


class TestShippedTree:
    def test_the_real_tree_is_clean_against_its_committed_lock(self):
        """The repo must stay green under its own gate: no findings, lock
        in sync with the message set."""
        findings = cli.run_analysis(
            [str(REPO_ROOT / "src")],
            lock_path=str(REPO_ROOT / "protocol.lock.json"))
        assert findings == [], "\n".join(f.render() for f in findings)
