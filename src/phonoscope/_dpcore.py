"""Compiled kernels: _dpkernel.c through ctypes.

The library is the compile of _dpkernel.c cached as
_dpkernel-<hash of the compile command and the source>.so, made with
``cc`` on the first import that misses it, so an edited source or a
changed compile flag is always rebuilt; a build removes the libraries of
older keys in its directory. The cache directories are tried in the order
of _cache_dirs, and the first one that can hold a build gets it. Any
failure to build or load raises ImportError naming its cause, so
phonoscope.alignment falls back to _dppy and says why. The hash is
importlib.util.source_hash, the interpreter's own key for hash-based .pyc
files, so naming the file loads no OpenSSL.
"""

import contextlib
import ctypes
import importlib.util
import os
import sys
from pathlib import Path

import numpy as np

_HERE = Path(__file__).resolve().parent
_SOURCE = _HERE / "_dpkernel.c"
_INT64 = np.dtype(np.int64)
_FLOAT64 = np.dtype(np.float64)
_ONE = np.array([0, 1], dtype=np.int64)   # the offsets of one word, or of one utterance
_GATHER = 1 << 13   # doubles of sq_dists's column scratch
# -ffp-contract=off: a fused multiply-add would round differently from _dppy
_COMPILE = ("cc", "-O3", "-ffp-contract=off", "-shared", "-fPIC")


def _cache_dirs() -> list[Path]:
    """The package's __pycache__, then sys.pycache_prefix if it is set,
    then $XDG_CACHE_HOME/phonoscope (default ~/.cache/phonoscope).

    Under the last two the package's own path is repeated, as Python
    places .pyc files under sys.pycache_prefix, so two installs never
    remove each other's library. A relative or unknown base is skipped.
    """
    cache_home = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(cache_home):
        cache_home = os.path.join(os.path.expanduser("~"), ".cache")
    bases = [sys.pycache_prefix or "", os.path.join(cache_home, "phonoscope")]
    return [_HERE / "__pycache__",
            *(Path(base, *_HERE.parts[1:]) for base in bases if os.path.isabs(base))]


def _cached_build() -> Path:
    """The cached compile of _dpkernel.c, compiling it on a cache miss.

    A directory is unusable when it cannot be created or cannot take a
    temporary file; the next one is tried. The compiler writes that
    temporary file and os.replace moves it into place, so concurrent
    first imports never load a partial library. Then the other
    _dpkernel-*.so files in the directory are removed; a process that has
    one of them loaded keeps its mapping.
    """
    key = "\0".join(_COMPILE).encode() + b"\0" + _SOURCE.read_bytes()
    name = f"_dpkernel-{importlib.util.source_hash(key).hex()}.so"
    unusable = []
    for directory in _cache_dirs():
        target = directory / name
        if target.is_file():
            return target
        import subprocess
        import tempfile

        try:
            directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix="_dpkernel-", suffix=".tmp", dir=directory)
        except OSError as exc:
            unusable.append(str(exc))
            continue
        os.close(fd)
        try:
            proc = subprocess.run([*_COMPILE, "-o", tmp, str(_SOURCE)],
                                  capture_output=True, text=True)
            if proc.returncode != 0:
                raise ImportError(f"cc failed on {_SOURCE}: {proc.stderr.strip()}")
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        for stale in directory.glob("_dpkernel-*.so"):
            if stale != target:
                with contextlib.suppress(OSError):   # a stale file is harmless
                    stale.unlink()
        return target
    raise ImportError("no usable kernel cache directory: " + "; ".join(unusable))


def _load():
    try:
        library = ctypes.CDLL(str(_cached_build()))
        return library.dp_align_batch, library.sq_dists, library.tsne_descend
    except (OSError, AttributeError) as exc:
        raise ImportError(str(exc)) from exc


_dp_align_batch, _sq_dists, _tsne_descend = _load()
_POINTER = ctypes.c_void_p  # of every array and of each kernel's out values
_dp_align_batch.argtypes = [
    _POINTER, ctypes.c_int64, _POINTER, ctypes.c_int64, _POINTER, ctypes.c_int64,
    _POINTER, ctypes.c_int64, _POINTER, ctypes.c_int64, _POINTER,
    _POINTER, ctypes.c_int64, ctypes.c_int64, ctypes.c_int, ctypes.c_int, ctypes.c_int,
    _POINTER, _POINTER, _POINTER, _POINTER,
]
_dp_align_batch.restype = ctypes.c_int64
_sq_dists.argtypes = [
    _POINTER, ctypes.c_int64, _POINTER, ctypes.c_int64, ctypes.c_int64,
    ctypes.c_int, ctypes.c_int64, _POINTER, _POINTER,
]
_sq_dists.restype = None
_tsne_descend.argtypes = [
    _POINTER, _POINTER, ctypes.c_int64,
    ctypes.c_double, ctypes.c_int64, ctypes.c_double, ctypes.c_int64, _POINTER,
]
_tsne_descend.restype = None


def _checked(array, dtype, ndim: int, name: str) -> np.ndarray:
    """The array C-ordered, copied only if it is not; C reads it through its
    address, so the caller keeps the result alive for the whole call."""
    if not (isinstance(array, np.ndarray) and array.dtype == dtype and array.ndim == ndim):
        raise ValueError(f"{name} must be a {ndim}-d {dtype} array")
    return np.ascontiguousarray(array)


def _checked_grid(cost_rows) -> np.ndarray:
    cost_rows = _checked(cost_rows, _FLOAT64, 2, "cost grid")
    if cost_rows.shape[1] != len(cost_rows):
        raise ValueError("cost grid must be square")
    return cost_rows


def _raise_for(status: int) -> None:
    if status == -1:
        raise IndexError("symbol outside the cost grid, or epsilon")
    if status == -2:
        raise MemoryError()
    if status == -3:
        raise RuntimeError("backtrace failed to reproduce DP cell")
    if status == -4:
        raise ValueError("offsets must rise from 0 to the length of what they "
                         "index, and every word needs a variant")


def dp_align_batch(phonemes, variant_offsets, word_offsets, utterance_offsets,
                   observed, observed_offsets, cost_rows, eps, pref0, pref1, pref2):
    """Align each of a speaker's utterances, in one call: the contract of
    both kernels, which _dppy.dp_align_batch meets on lists of the same
    arrays.

    Every argument but the scalars is a 1-d int64 array, and the grid a
    square float64 array. Utterance u's words are words
    utterance_offsets[u] up to utterance_offsets[u + 1]; word w's variants
    are variants word_offsets[w] up to word_offsets[w + 1]; variant v is
    phonemes[variant_offsets[v]:variant_offsets[v + 1]]; the observed side
    is observed[observed_offsets[u]:observed_offsets[u + 1]]. A plain
    prompt is one word of one variant. Every symbol is an epsilon-free
    index into the grid. Each utterance is aligned to its variants of
    least total, ties keeping the lowest variant indices, and its table is
    backtraced with ties broken in the order pref0, pref1, pref2 (0
    diagonal, 1 delete, 2 insert); _dpkernel.c says how the variants are
    chosen.

    Returns (totals, chosen, op_offsets, cells): each utterance's total as
    a float64 array, and as int64 arrays each word's chosen variant
    counted from the word's first, and each op as its row-major cell in
    the grid, expected * len(grid) + observed with epsilon on the side an
    insertion or a deletion leaves empty, utterance u's from op_offsets[u]
    up to op_offsets[u + 1]. Bad arguments raise ValueError or IndexError
    here; _dppy leaves checking them to its caller.
    """
    (phonemes, variant_offsets, word_offsets, utterance_offsets, observed,
     observed_offsets) = [_checked(array, _INT64, 1, name) for array, name in (
        (phonemes, "phonemes"), (variant_offsets, "variant offsets"),
        (word_offsets, "word offsets"), (utterance_offsets, "utterance offsets"),
        (observed, "observed"), (observed_offsets, "observed offsets"))]
    cost_rows = _checked_grid(cost_rows)
    if not (len(variant_offsets) and len(word_offsets)
            and len(utterance_offsets) == len(observed_offsets) >= 1):
        raise ValueError("offsets arrays need a first entry, and one utterance "
                         "offset per observed offset")
    utterances = len(utterance_offsets) - 1
    totals = np.empty(utterances)
    chosen = np.empty(len(word_offsets) - 1, dtype=np.int64)
    op_offsets = np.empty(utterances + 1, dtype=np.int64)
    # no utterance has more ops than its variants' phonemes and observed symbols
    cells = np.empty(len(phonemes) + len(observed), dtype=np.int64)
    count = _dp_align_batch(
        phonemes.ctypes.data, len(phonemes), variant_offsets.ctypes.data,
        len(variant_offsets) - 1, word_offsets.ctypes.data, len(word_offsets) - 1,
        utterance_offsets.ctypes.data, utterances, observed.ctypes.data, len(observed),
        observed_offsets.ctypes.data, cost_rows.ctypes.data, len(cost_rows), eps,
        pref0, pref1, pref2, totals.ctypes.data, chosen.ctypes.data,
        op_offsets.ctypes.data, cells.ctypes.data)
    _raise_for(count)
    return totals, chosen, op_offsets, cells[:count]


def dp_align(expected, observed, cost_rows, eps, pref0, pref1, pref2):
    """Same contract as _dppy.dp_align, on int64 sequences and a float64 grid.

    Returns (total_cost, moves) with moves the forward-order list of move
    codes (0 diagonal, 1 delete, 2 insert).
    """
    expected = _checked(expected, _INT64, 1, "expected")
    observed = _checked(observed, _INT64, 1, "observed")
    totals, _, _, cells = dp_align_batch(
        expected, np.array([0, len(expected)], dtype=np.int64), _ONE, _ONE,
        observed, np.array([0, len(observed)], dtype=np.int64),
        cost_rows, eps, pref0, pref1, pref2)
    n = len(cost_rows)
    moves = np.where(cells // n == eps, 2, np.where(cells % n == eps, 1, 0))
    return float(totals[0]), moves.tolist()


def sq_dists(a, b):
    """Same contract as _dppy.sq_dists, on float64 matrices. With a is b,
    one triangle is summed and mirrored. The result is the transpose of an
    len(b) x len(a) C-ordered array."""
    same = a is b
    a = _checked(a, _FLOAT64, 2, "a")
    b = a if same else _checked(b, _FLOAT64, 2, "b")
    dim = a.shape[1]
    if b.shape[1] != dim:
        raise ValueError("a and b must have as many columns")
    # a's columns are copied in blocks of about _GATHER doubles
    block = max(1, _GATHER // max(1, len(a)))
    scratch = np.empty(min(block, dim) * len(a))
    out = np.empty((len(b), len(a)))
    _sq_dists(a.ctypes.data, len(a), b.ctypes.data, len(b), dim, same, block,
              scratch.ctypes.data, out.ctypes.data)
    return out.T


def tsne_descend(P, Y, learning_rate, iterations, early_exaggeration,
                 exaggeration_iters):
    """Same contract as _dppy.tsne_descend, on a float64 n x n P and n x 2 Y."""
    P = _checked(P, _FLOAT64, 2, "affinities")
    Y = _checked(Y, _FLOAT64, 2, "embedding")
    n = Y.shape[0]
    if n < 1 or P.shape != (n, n) or Y.shape != (n, 2):
        raise ValueError("affinities must be n x n for an n x 2 embedding, n >= 1")
    if not np.array_equal(P.view(np.int64), P.T.view(np.int64)):
        raise ValueError("affinities must equal their transpose bit for bit")
    # ctypes would silently wrap a count outside int64
    if not all(-2**63 <= count < 2**63 for count in (iterations, exaggeration_iters)):
        raise ValueError("iteration counts must fit in 64 bits")
    # C reads P, writes out and works in work; the names keep all three alive
    out = Y.copy()
    work = np.empty(2 * n * n + 9 * n)
    _tsne_descend(P.ctypes.data, out.ctypes.data, n,
                  learning_rate, iterations, early_exaggeration, exaggeration_iters,
                  work.ctypes.data)
    return out
