"""Compiled kernels: _dpkernel.c through ctypes.

The library is the compile of _dpkernel.c cached as
__pycache__/_dpkernel-<sha256 of the compile command and the source>.so,
made with ``cc`` on the first import that misses it, so an edited source
or a changed compile flag is always rebuilt. Any failure to build or load
raises ImportError, so phonoscope.alignment falls back to _dppy.
"""

import ctypes
import hashlib
import os
from pathlib import Path

import numpy as np

_HERE = Path(__file__).resolve().parent
_SOURCE = _HERE / "_dpkernel.c"
_INT64 = np.dtype(np.int64)
_FLOAT64 = np.dtype(np.float64)
# -ffp-contract=off: a fused multiply-add would round differently from _dppy
_COMPILE = ("cc", "-O2", "-ffp-contract=off", "-shared", "-fPIC")


def _cached_build() -> Path:
    """The cached compile of _dpkernel.c, compiling it on a cache miss.

    The compiler writes a temporary file that os.replace moves into
    place, so concurrent first imports never load a partial library.
    """
    key = "\0".join(_COMPILE).encode() + b"\0" + _SOURCE.read_bytes()
    digest = hashlib.sha256(key).hexdigest()
    target = _HERE / "__pycache__" / f"_dpkernel-{digest}.so"
    if target.is_file():
        return target
    import subprocess
    import tempfile

    target.parent.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix="_dpkernel-", suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        proc = subprocess.run([*_COMPILE, "-o", tmp, str(_SOURCE)],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise ImportError(f"cc failed on {_SOURCE}:\n{proc.stderr}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def _load():
    try:
        library = ctypes.CDLL(str(_cached_build()))
        return library.dp_align, library.dp_lattice, library.tsne_descend
    except (OSError, AttributeError) as exc:
        raise ImportError(f"compiled kernel unavailable: {exc}") from exc


_dp_align, _dp_lattice, _tsne_descend = _load()
_dp_align.argtypes = [
    ctypes.c_char_p, ctypes.c_int64, ctypes.c_char_p, ctypes.c_int64,
    ctypes.c_char_p, ctypes.c_int64, ctypes.c_int64,
    ctypes.c_int, ctypes.c_int, ctypes.c_int,
    ctypes.POINTER(ctypes.c_double), ctypes.c_char_p,
]
_dp_align.restype = ctypes.c_int64
_dp_lattice.argtypes = [
    ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p, ctypes.c_int64,
    ctypes.c_char_p, ctypes.c_int64, ctypes.c_char_p, ctypes.c_int64, ctypes.c_int64,
    ctypes.POINTER(ctypes.c_double),
]
_dp_lattice.restype = ctypes.c_int64
_DOUBLES = ctypes.POINTER(ctypes.c_double)
_tsne_descend.argtypes = [
    _DOUBLES, _DOUBLES, ctypes.c_int64,
    ctypes.c_double, ctypes.c_int64, ctypes.c_double, ctypes.c_int64, _DOUBLES,
]
_tsne_descend.restype = None


def _check(array, dtype, ndim: int, name: str) -> None:
    if not (isinstance(array, np.ndarray) and array.dtype == dtype and array.ndim == ndim):
        raise ValueError(f"{name} must be a {ndim}-d {dtype} array")


def _grid_size(cost_rows) -> int:
    _check(cost_rows, _FLOAT64, 2, "cost grid")
    size = cost_rows.shape[0]
    if cost_rows.shape[1] != size:
        raise ValueError("cost grid must be square")
    return size


def _raise_for(status: int) -> None:
    if status == -1:
        raise IndexError("phoneme index outside the cost grid")
    if status == -2:
        raise MemoryError()
    if status == -3:
        raise RuntimeError("backtrace failed to reproduce DP cell")


def dp_align(expected, observed, cost_rows, eps, pref0, pref1, pref2):
    """Same contract as _dppy.dp_align, on int64 sequences and a float64 grid.

    Returns (total_cost, moves) with moves the forward-order list of move
    codes (0 diagonal, 1 delete, 2 insert).
    """
    _check(expected, _INT64, 1, "expected")
    _check(observed, _INT64, 1, "observed")
    size = _grid_size(cost_rows)
    n, m = len(expected), len(observed)
    total = ctypes.c_double()
    moves = ctypes.create_string_buffer(n + m)
    # tobytes() hands C a C-ordered copy that lives for the whole call
    count = _dp_align(expected.tobytes(), n, observed.tobytes(), m,
                      cost_rows.tobytes(), size, eps, pref0, pref1, pref2,
                      ctypes.byref(total), moves)
    _raise_for(count)
    return total.value, list(moves.raw[:count])


def dp_lattice(phonemes, variant_offsets, word_offsets, observed, cost_rows, eps):
    """Same contract as _dppy.dp_lattice, on int64 arrays and a float64 grid.

    Each offsets array must rise from 0 to the length of what it indexes:
    variant_offsets to len(phonemes), word_offsets to the variant count.
    """
    for array, name in ((phonemes, "phonemes"), (variant_offsets, "variant offsets"),
                        (word_offsets, "word offsets"), (observed, "observed")):
        _check(array, _INT64, 1, name)
    size = _grid_size(cost_rows)
    for offsets, end, name in ((variant_offsets, len(phonemes), "variant offsets"),
                               (word_offsets, len(variant_offsets) - 1, "word offsets")):
        if not (len(offsets) and offsets[0] == 0 and offsets[-1] == end
                and (offsets[1:] >= offsets[:-1]).all()):
            raise ValueError(f"{name} must rise from 0 to {end}")
    total = ctypes.c_double()
    status = _dp_lattice(phonemes.tobytes(), variant_offsets.tobytes(),
                         word_offsets.tobytes(), len(word_offsets) - 1,
                         observed.tobytes(), len(observed), cost_rows.tobytes(),
                         size, eps, ctypes.byref(total))
    _raise_for(status)
    return total.value


def tsne_descend(P, Y, learning_rate, iterations, early_exaggeration,
                 exaggeration_iters):
    """Same contract as _dppy.tsne_descend, on a float64 n x n P and n x 2 Y."""
    _check(P, _FLOAT64, 2, "affinities")
    _check(Y, _FLOAT64, 2, "embedding")
    n = Y.shape[0]
    if n < 1 or P.shape != (n, n) or Y.shape != (n, 2):
        raise ValueError("affinities must be n x n for an n x 2 embedding, n >= 1")
    # ctypes would silently wrap a count outside int64
    if not all(-2**63 <= count < 2**63 for count in (iterations, exaggeration_iters)):
        raise ValueError("iteration counts must fit in 64 bits")
    # C reads P, writes out and works in work through pointers; the
    # names keep all three alive for the whole call
    P = np.ascontiguousarray(P)
    out = np.array(Y, order="C")
    work = np.empty(2 * n * n + 7 * n)
    _tsne_descend(P.ctypes.data_as(_DOUBLES), out.ctypes.data_as(_DOUBLES), n,
                  learning_rate, iterations, early_exaggeration, exaggeration_iters,
                  work.ctypes.data_as(_DOUBLES))
    return out
