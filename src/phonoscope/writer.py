"""Creates the CLI's output files in two helper processes.

Creating a file costs far more kernel time than computing its bytes, so
``Writer`` hands every file to ``CREATORS`` child interpreters, and the
caller goes on computing while they create them on other cores. Each
directory has one child: a file is keyed by its directory, and the first
file of a directory gives it to the next child in turn, starting that
child if it is not running yet. Two processes creating in one directory
would wait on its lock, while two sibling directories fill in parallel.
So one directory's files are created in request order. A child makes a
file's directory, and any missing parents, before the first file it
creates there; ``os.makedirs`` tolerates a parent made by the other
child, and a directory is made only when a file goes into it.

Requests go down a child's stdin as length-prefixed (sequence number,
path, bytes) records, and the child creates them one after another.
Where the platform allows, each stdin pipe is grown to ``PIPE_BYTES``,
so the caller can finish a burst of files and go on to the next stage
while the children work through it; past that the caller blocks, so no
process's memory grows with the size of the run.

After its first failed request a child creates nothing more, though it
still reads every request. Leaving the ``with`` block waits for every
child, so the tree is complete once it returns, and raises the error of
the first failed request in send order, naming its path; a write error
replaces any exception raised inside the block. Requests to the other
child's directories may have been created after the failed one.
"""

from __future__ import annotations

import os
import struct
import sys
from pathlib import Path

# sequence number, path length, data length
_HEADER = struct.Struct("<III")

# Child processes that create files. Pinned to one CPU, two creators
# (then threads of one child) still did no worse than one on the corpus
# workload, so the count is fixed rather than taken from the CPU count.
CREATORS = 2

# Size each child's stdin pipe is grown to: the most an unprivileged
# process may ask for under Linux's default fs.pipe-max-size.
PIPE_BYTES = 1 << 20

# Runs under -I -S, so it imports only the standard library. A truncated
# record or any error but OSError ends the child with status 1. At EOF it
# reports its failed request as sequence number, errno and path.
_CHILD = f"""
import os, struct, sys
header, read = struct.Struct({_HEADER.format!r}), sys.stdin.buffer.read
made, failed = set(), None
while head := read(header.size):
    seq, path_len, data_len = header.unpack(head)
    path, data = read(path_len), read(data_len)
    if failed:
        continue
    directory = os.path.dirname(path)
    try:
        if directory and directory not in made:
            os.makedirs(directory, exist_ok=True)
            made.add(directory)
        with open(path, "wb") as f:
            f.write(data)
    except OSError as exc:
        failed = b"%d\\0%d\\0%s" % (seq, exc.errno, exc.filename or path)
if failed:
    sys.stdout.buffer.write(failed)
"""


def _start():
    # imported here so commands that write nothing never load them
    import subprocess
    proc = subprocess.Popen([sys.executable, "-I", "-S", "-c", _CHILD],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        from fcntl import F_SETPIPE_SZ, fcntl
        fcntl(proc.stdin.fileno(), F_SETPIPE_SZ, PIPE_BYTES)
    except (ImportError, OSError):
        pass  # not Linux, or over the user's pipe quota: the default pipe works too
    return proc


class Writer:
    """Sends file requests to children started as directories need them."""

    def __init__(self) -> None:
        self._procs = []
        self._owners = {}
        self._sent = 0

    def write(self, path: Path, text: str) -> None:
        """Requests a file; its directory and missing parents are made first."""
        name, data = os.fsencode(path), text.encode("utf-8")
        key = os.path.dirname(name) or b"."
        owner = self._owners.setdefault(key, len(self._owners) % CREATORS)
        if owner == len(self._procs):
            self._procs.append(_start())
        stdin = self._procs[owner].stdin
        stdin.write(_HEADER.pack(self._sent, len(name), len(data)) + name + data)
        stdin.flush()
        self._sent += 1

    def __enter__(self) -> Writer:
        return self

    def __exit__(self, *exc_info) -> None:
        for proc in self._procs:
            try:
                proc.stdin.close()
            except BrokenPipeError:
                pass  # a child that died; its status is raised below
        failures = []
        for proc in self._procs:
            with proc.stdout:
                report = proc.stdout.read()
            proc.wait()
            if report:
                seq, code, name = report.split(b"\0", 2)
                failures.append((int(seq), int(code), name))
        if failures:
            _, code, name = min(failures)
            raise OSError(code, os.strerror(code), os.fsdecode(name))
        for proc in self._procs:
            if proc.returncode:
                raise RuntimeError(f"writer process exited with status {proc.returncode}")
