"""Creates the CLI's output files in one helper process.

Creating a file costs far more kernel time than computing its bytes, so
``Writer`` hands every directory and file to a child interpreter and the
caller goes on computing while the child creates them on other cores.
Requests go down the child's stdin as length-prefixed (op, path, bytes)
records. The child's main thread reads them into the queues of
``CREATORS`` threads ahead of their creating, so the caller can finish a
burst of files and go on to the next stage while the child works through
the backlog. The queues together hold at most ``BACKLOG_BYTES`` of paths
and data plus one request; while they are full the child stops reading,
the pipe fills and the caller blocks, so neither process's memory grows
with the size of the run.

Each directory has one creator: a directory request is keyed by its path
and a file request by its directory, and the first request of a key gives
that key to the next creator in turn. Two threads creating in one
directory would wait on its lock, while two sibling directories fill in
parallel. So one directory's entries are created in request order and a
file never runs ahead of its own directory's request; ``os.makedirs``
tolerates a parent made by the other creator. A parent made on the way
has no such order: a file may go only into a directory that was itself
requested, or that existed before.

A creator skips a request if one sent before it has failed, though the
child still reads every request. Leaving the ``with`` block waits for the
child, so the tree is complete once it returns, and raises the error of
the first failed request in send order, naming its path; a write error
replaces any exception raised inside the block. Requests to other
directories that were sent after the failed one may already have been
created.
"""

from __future__ import annotations

import os
import struct
import sys
from pathlib import Path

# op (b"d" directory, b"f" file), path length, data length
_HEADER = struct.Struct("<cII")

# Most bytes of paths and data the child holds in its queues before it
# stops reading; a larger single request is still taken when they are empty.
BACKLOG_BYTES = 8 << 20

# Threads that create files in the child. Pinned to one CPU, two still
# did no worse than one on the corpus workload, so the count is fixed.
CREATORS = 2

# Runs under -I -S, so it imports only the standard library. The main
# thread queues each record for its key's creator; failed holds the
# (sequence number, errno, path) of the earliest failed request so far. A
# truncated record raises in the main thread, and any error but OSError
# in a creator ends the child, so the exit status is 1 either way.
_CHILD = f"""
import collections, os, struct, sys, threading
header, read = struct.Struct({_HEADER.format!r}), sys.stdin.buffer.read
lock = threading.Lock()
room = threading.Condition(lock)
queues = [collections.deque() for _ in range({CREATORS})]
ready = [threading.Condition(lock) for _ in queues]
owners, queued, failed = {{}}, 0, None

def create(queue, wake):
    global queued, failed
    while True:
        with lock:
            wake.wait_for(lambda: queue)
            request = queue.popleft()
            if request is None:
                return
            seq, op, path, data = request
            queued -= len(path) + len(data)
            room.notify()
            if failed is not None and failed[0] < seq:
                continue
        try:
            if op == b"d":
                os.makedirs(path, exist_ok=True)
            else:
                with open(path, "wb") as f:
                    f.write(data)
        except OSError as exc:
            with lock:
                if failed is None or seq < failed[0]:
                    failed = (seq, exc.errno, exc.filename or path)

def die(args):
    sys.__excepthook__(args.exc_type, args.exc_value, args.exc_traceback)
    os._exit(1)

threading.excepthook = die
creators = [threading.Thread(target=create, args=pair) for pair in zip(queues, ready)]
for thread in creators:
    thread.start()
seq = 0
try:
    while head := read(header.size):
        op, path_len, data_len = header.unpack(head)
        path, data = read(path_len), read(data_len)
        key = path if op == b"d" else os.path.dirname(path) or b"."
        owner = owners.setdefault(key, len(owners) % len(queues))
        with lock:
            queues[owner].append((seq, op, path, data))
            queued += len(path) + len(data)
            ready[owner].notify()
            room.wait_for(lambda: queued <= {BACKLOG_BYTES})
        seq += 1
finally:
    with lock:
        for queue, wake in zip(queues, ready):
            queue.append(None)
            wake.notify()
    for thread in creators:
        thread.join()
    if failed is not None:
        sys.stdout.buffer.write(b"%d\\0%s" % failed[1:])
"""


class Writer:
    """Sends directory and file requests to a child started by the first one."""

    def __init__(self) -> None:
        self._proc = None

    def mkdir(self, path: Path) -> Path:
        """Requests ``path`` and its parents as directories; returns ``path``.

        A later file in ``path`` is created after it. A parent made on the
        way has no such order, so request a parent too before writing
        into it.
        """
        self._send(b"d", path, b"")
        return path

    def write(self, path: Path, text: str) -> None:
        """Requests a file; its directory must exist or have been requested."""
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
