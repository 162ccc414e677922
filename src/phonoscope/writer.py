"""Creates the CLI's output files in one helper process.

Creating a file costs far more kernel time than computing its bytes, so
``Writer`` hands every directory and file to a child interpreter and the
caller goes on computing while the child creates them on another core.
Requests go down the child's stdin as length-prefixed (op, path, bytes)
records. A reader thread in the child moves them into a queue ahead of
the creating loop, so the caller can finish a burst of files and go on
to the next stage while the child works through the backlog. The queue
holds at most ``BACKLOG_BYTES`` of paths and data plus one request; while
it is full the reader stops reading, the pipe fills and the caller
blocks, so neither process's memory grows with the size of the run.

The child handles the requests in order and creates nothing after its
first OSError, though it still reads every request. Leaving the ``with``
block waits for the child, so the tree is complete once it returns, and
raises that error naming its path; a write error replaces any exception
raised inside the block.
"""

from __future__ import annotations

import os
import struct
import sys
from pathlib import Path

# op (b"d" directory, b"f" file), path length, data length
_HEADER = struct.Struct("<cII")

# Most bytes of paths and data the child holds in its queue before it stops
# reading; a larger single request is still taken when the queue is empty.
BACKLOG_BYTES = 8 << 20

# Runs under -I -S, so it imports only the standard library. The reader
# thread queues records; the main loop creates them in order. A reader
# that fails (a truncated record) ends the queue and the exit status is 1.
_CHILD = f"""
import collections, os, struct, sys, threading
header, read = struct.Struct({_HEADER.format!r}), sys.stdin.buffer.read
queue, ready, queued, status = collections.deque(), threading.Condition(), 0, 1

def reader():
    global queued, status
    try:
        while head := read(header.size):
            op, path_len, data_len = header.unpack(head)
            path, data = read(path_len), read(data_len)
            with ready:
                queue.append((op, path, data))
                queued += len(path) + len(data)
                ready.notify()
                ready.wait_for(lambda: queued <= {BACKLOG_BYTES})
        status = 0
    finally:
        with ready:
            queue.append(None)
            ready.notify()

threading.Thread(target=reader, daemon=True).start()
error = None
while True:
    with ready:
        ready.wait_for(lambda: queue)
        record = queue.popleft()
        if record is None:
            break
        op, path, data = record
        queued -= len(path) + len(data)
        ready.notify()
    if error is None:
        try:
            if op == b"d":
                os.makedirs(path, exist_ok=True)
            else:
                with open(path, "wb") as f:
                    f.write(data)
        except OSError as exc:
            error = (exc.errno, exc.filename or path)
if error is not None:
    sys.stdout.buffer.write(b"%d\\0%s" % error)
sys.exit(status)
"""


class Writer:
    """Sends directory and file requests to a child started by the first one."""

    def __init__(self) -> None:
        self._proc = None

    def mkdir(self, path: Path) -> Path:
        """Requests ``path`` and its parents as directories; returns ``path``."""
        self._send(b"d", path, b"")
        return path

    def write(self, path: Path, text: str) -> None:
        self._send(b"f", path, text.encode("utf-8"))

    def _send(self, op: bytes, path: Path, data: bytes) -> None:
        if self._proc is None:
            # imported here so commands that write nothing never load it
            import subprocess
            self._proc = subprocess.Popen(
                [sys.executable, "-I", "-S", "-c", _CHILD],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        name = os.fsencode(path)
        self._proc.stdin.write(_HEADER.pack(op, len(name), len(data)) + name + data)
        self._proc.stdin.flush()

    def __enter__(self) -> Writer:
        return self

    def __exit__(self, *exc_info) -> None:
        if self._proc is None:
            return
        report, _ = self._proc.communicate()
        if report:
            code, _, name = report.partition(b"\0")
            raise OSError(int(code), os.strerror(int(code)), os.fsdecode(name))
        if self._proc.returncode:
            raise RuntimeError(
                f"writer process exited with status {self._proc.returncode}")
