"""CONC: blocking-under-lock, untimed receives."""

from repro.analysis import concurrency
from repro.analysis.core import load_modules

from conftest import write_tree


def _check(tmp_path, source, relpath="src/repro/net/transport_like.py"):
    root = write_tree(tmp_path, {relpath: source})
    modules, parse_findings = load_modules([root])
    assert not parse_findings
    return concurrency.check(modules)


class TestBlockingUnderLock:
    def test_sendall_under_lock_is_conc001(self, tmp_path):
        findings = _check(tmp_path, """\
            class Transport:
                def _sendall(self, data):
                    with self._send_lock:
                        self._sock.sendall(data)
        """)
        assert [f.checker for f in findings] == ["CONC001"]
        assert "sendall" in findings[0].message
        assert findings[0].context == "Transport._sendall"

    def test_sendall_outside_the_lock_is_clean(self, tmp_path):
        findings = _check(tmp_path, """\
            class Transport:
                def _sendall(self, data):
                    with self._send_lock:
                        frame = self.encode(data)
                    self._sock.sendall(frame)
        """)
        assert [f.checker for f in findings] == []

    def test_untimed_queue_get_under_lock_is_conc001(self, tmp_path):
        findings = _check(tmp_path, """\
            import threading

            class Pump:
                def __init__(self):
                    self._lock = threading.Lock()
                def drain(self):
                    with self._lock:
                        return self.inbox.get()
        """)
        assert [f.checker for f in findings] == ["CONC001"]

    def test_timed_queue_get_under_lock_is_clean(self, tmp_path):
        findings = _check(tmp_path, """\
            class Pump:
                def drain(self):
                    with self._lock:
                        return self.inbox.get(timeout=1.0)
        """)
        assert findings == []

    def test_untimed_join_and_sleep_under_lock(self, tmp_path):
        findings = _check(tmp_path, """\
            import time

            class Reaper:
                def stop(self):
                    with self._state_lock:
                        self.thread.join()
                        time.sleep(5)
        """)
        assert [f.checker for f in findings] == ["CONC001", "CONC001"]

    def test_lock_detected_via_threading_assignment(self, tmp_path):
        # `self._guard` has no "lock" in the name; detection comes from the
        # threading.Lock() assignment in __init__.
        findings = _check(tmp_path, """\
            import threading

            class Keeper:
                def __init__(self):
                    self._guard = threading.Lock()
                def pull(self, sock):
                    with self._guard:
                        return sock.recv(4096)
        """)
        assert [f.checker for f in findings] == ["CONC001"]

    def test_nested_def_does_not_inherit_the_held_lock(self, tmp_path):
        findings = _check(tmp_path, """\
            class Factory:
                def build(self):
                    with self._lock:
                        def later(sock):
                            return sock.recv(4096)
                        return later
        """)
        assert findings == []


class TestUntimedQueueGet:
    def test_bare_get_on_a_queueish_name_is_conc002(self, tmp_path):
        findings = _check(tmp_path, """\
            def worker_loop(command_queue):
                while True:
                    command = command_queue.get()
        """)
        assert [f.checker for f in findings] == ["CONC002"]
        assert "command_queue" in findings[0].message

    def test_get_with_timeout_is_clean(self, tmp_path):
        findings = _check(tmp_path, """\
            def worker_loop(command_queue):
                while True:
                    command = command_queue.get(timeout=1.0)
        """)
        assert findings == []

    def test_non_queue_receiver_get_is_ignored(self, tmp_path):
        findings = _check(tmp_path, """\
            def lookup(mapping, key):
                return mapping.get(key)
        """)
        assert findings == []
