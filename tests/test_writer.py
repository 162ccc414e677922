import errno
import fcntl
import os
import threading
import time
from pathlib import Path

import pytest

from phonoscope.writer import PIPE_BYTES, Writer

from .conftest import no_resource_warning, reaped


def fifo(tmp_path):
    """A FIFO with no reader: a child that opens it to write blocks there."""
    path = tmp_path / "fifo"
    os.mkfifo(path)
    return path


def drain(path) -> bytes:
    """Opens the FIFO for reading, which lets the blocked child go on."""
    with open(path, "rb") as f:
        return f.read()


class Sender(threading.Thread):
    """Sends file requests on its own thread and keeps what it raised."""

    def __init__(self, files, requests):
        super().__init__(daemon=True)
        self.files, self.requests, self.error = files, requests, None
        self.start()

    def run(self):
        try:
            for path, text in self.requests:
                self.files.write(path, text)
        except OSError as exc:
            self.error = exc

    def done(self) -> bool:
        return not self.is_alive() and self.error is None


def test_nothing_is_created_after_a_failed_request(tmp_path):
    pipe = fifo(tmp_path)
    failed = tmp_path / "dir"
    failed.mkdir()
    # 30 KB after the failing request, all into the same directory: within
    # the pipe even where it cannot be grown
    later = [(tmp_path / f"later{i}.txt", "x" * 1000) for i in range(30)]
    with pytest.raises(OSError) as raised:
        with Writer() as files:
            files.write(pipe, "first")
            sender = Sender(files, [(failed, "y"), *later])
            sender.join(10)
            sent = sender.done()
            first = drain(pipe)
            # the child keeps reading after the error: more than its pipe holds
            rest = Sender(files, [(tmp_path / "rest.txt", "z" * (PIPE_BYTES // 4))] * 5)
            rest.join(30)
    assert sent and rest.done()
    assert first == b"first"
    assert raised.value.errno == errno.EISDIR
    assert raised.value.filename == str(failed)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "fifo"]


@pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"), reason="pipes cannot be grown")
def test_a_blocked_child_takes_about_pipe_bytes(tmp_path):
    pipe = fifo(tmp_path)
    chunk = 64 * 1024
    requests = [(tmp_path / f"f{i}.txt", chr(ord("a") + i % 26) * chunk)
                for i in range(PIPE_BYTES // chunk + 1)]
    # all but one chunk of PIPE_BYTES fits; two chunks more do not
    fits, over = requests[:-2], requests[-2:]
    with Writer() as files:
        files.write(pipe, "first")
        sender = Sender(files, fits)
        sender.join(10)
        fitted = sender.done()
        sender = Sender(files, over)
        sender.join(0.5)
        blocked = sender.is_alive()
        first = drain(pipe)
        sender.join(30)
    assert fitted and blocked and sender.done()
    assert first == b"first"
    for path, text in requests:
        assert path.read_text() == text


def eventually(predicate, timeout=10.0) -> bool:
    """Whether predicate() turns true within timeout seconds."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def test_a_blocked_directory_holds_back_only_itself(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    pipe = fifo(tmp_path / "a")
    later_in_a, in_b = tmp_path / "a" / "later.txt", tmp_path / "b" / "b.txt"
    with Writer() as files:
        files.write(pipe, "first")
        files.write(in_b, "b")
        files.write(later_in_a, "a")
        # b/ has its own child, which the FIFO in a/ does not hold
        b_before_drain = eventually(in_b.exists)
        a_before_drain = later_in_a.exists()
        first = drain(pipe)
    assert b_before_drain and not a_before_drain
    assert first == b"first"
    assert in_b.read_text() == "b" and later_in_a.read_text() == "a"


def test_the_first_failed_request_in_send_order_is_raised(tmp_path):
    for name in ("a", "b", "b/dir"):
        (tmp_path / name).mkdir()
    pipe = fifo(tmp_path / "a")
    too_long = tmp_path / "a" / ("x" * 300)
    marker = tmp_path / "b" / "marker.txt"
    with pytest.raises(OSError) as raised:
        with Writer() as files:
            files.write(pipe, "first")
            files.write(too_long, "")                      # fails second
            files.write(marker, "")
            files.write(tmp_path / "b" / "dir", "")        # fails first
            files.write(tmp_path / "a" / "after.txt", "")
            # b/ has its own child: let its request fail first
            marker_first = eventually(marker.exists)
            time.sleep(0.1)
            drain(pipe)
    assert marker_first
    assert raised.value.errno == errno.ENAMETOOLONG
    assert raised.value.filename == str(too_long)
    assert not (tmp_path / "a" / "after.txt").exists()


def test_a_file_with_no_directory_part(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with Writer() as files:
        files.write(Path("x.svg"), "<svg/>")
    assert (tmp_path / "x.svg").read_text() == "<svg/>"


def test_an_error_other_than_oserror_ends_the_helper(tmp_path):
    # open() refuses a path with a NUL byte with ValueError, which has no
    # errno to report: the helper exits 1 instead of dropping the file
    with pytest.raises(RuntimeError, match="status 1"):
        with Writer() as files:
            files.write(tmp_path / "a\0b.txt", "x")


def test_interleaved_directories_are_all_filled(tmp_path):
    # requests alternate over 40 directories under one new parent, so both
    # children make siblings of it and take requests all the way through
    dirs = [tmp_path / "new" / f"d{i}" for i in range(40)]
    requests = [(dirs[i % 40] / f"{i}.txt", f"{i}\n" * (i % 7)) for i in range(800)]
    with Writer() as files:
        sender = Sender(files, requests)
        sender.join(60)
        sent = sender.done()
    assert sent
    assert all(path.read_text() == text for path, text in requests)
    assert sum(len(list(d.iterdir())) for d in dirs) == len(requests)


def test_a_child_that_dies_leaves_no_process_running(tmp_path, writer_processes):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    with no_resource_warning(writer_processes):
        with pytest.raises(RuntimeError, match="status 1"):
            with Writer() as files:
                # ends the first child, which owns a/
                files.write(tmp_path / "a" / "a\0b.txt", "x")
                for i in range(300):
                    files.write(tmp_path / "b" / f"{i}.txt", "b")
                assert len(writer_processes) == 2
                # waits for the exit without reaping it, which is __exit__'s job
                assert eventually(lambda: os.waitid(
                    os.P_PID, writer_processes[0].pid, os.WEXITED | os.WNOHANG | os.WNOWAIT))
                # leaves this request in the dead child's stdin buffer
                files.write(tmp_path / "a" / "later.txt", "y")
        assert [proc.returncode for proc in writer_processes] == [1, 0]
        assert all(reaped(proc) for proc in writer_processes)
    assert len(list((tmp_path / "b").iterdir())) == 300
