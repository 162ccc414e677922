import errno
import os
import threading

import pytest

from phonoscope.writer import BACKLOG_BYTES, Writer


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
    blocker = tmp_path / "file"
    blocker.write_text("")
    failed = blocker / "under_a_file.txt"
    # 300 KB after the failing request, more than the pipe holds
    later = [(tmp_path / f"later{i}.txt", "x" * 10_000) for i in range(30)]
    with pytest.raises(OSError) as raised:
        with Writer() as files:
            files.write(pipe, "first")
            sender = Sender(files, [(failed, "y"), *later])
            sender.join(10)
            read_ahead = sender.done()
            first = drain(pipe)
            # the child keeps reading after the error: more than its backlog holds
            rest = Sender(files, [(tmp_path / "rest.txt", "z" * (BACKLOG_BYTES // 4))] * 5)
            rest.join(30)
    assert read_ahead and rest.done()
    assert first == b"first"
    assert raised.value.errno == errno.ENOTDIR
    assert raised.value.filename == str(failed)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "file"]


def test_read_ahead_stops_at_the_budget(tmp_path):
    pipe = fifo(tmp_path)
    chunk = 256 * 1024
    # BACKLOG_BYTES + 1 MiB: more than the backlog, one request and the pipe hold
    requests = [(tmp_path / f"f{i}.txt", chr(ord("a") + i % 26) * chunk)
                for i in range(BACKLOG_BYTES // chunk + 4)]
    with Writer() as files:
        files.write(pipe, "first")
        sender = Sender(files, requests)
        sender.join(0.5)
        blocked = sender.is_alive()
        first = drain(pipe)
        sender.join(30)
    assert blocked and sender.done()
    assert first == b"first"
    for path, text in requests:
        assert path.read_text() == text
