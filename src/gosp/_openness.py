"""Open masks and torus runs from spatial prefix hashes, in native code if it builds.

``open_mask(prefix, t, threshold)`` is open_given_hash(extend_hash(prefix,
t), threshold): the open mask of the sites whose spatial prefix hashes are
``prefix`` at the one time t.  The native kernel ``open_window`` computes
it in one pass over the prefix view; the numpy path of ``gosp.field`` is
the reference, and runs when there is no compiler, the build fails, or the
threshold is 2**64 (p = 1).

``torus_extinction`` runs the torus quotient chain of
``gosp.dynamics.torus_extinction_batch`` one replica at a time in the native
kernel ``torus_run``, p = 1 included; without the library it returns None
and the caller runs its numpy loop.

Both kernels live in one C source, ``_openness.c``, compiled with gcc on
first use into a cache directory, under a name keyed by the source and the
flags, and loaded with ctypes.  Its ``target_clones`` let the loader pick
AVX-512 or AVX2 at load time, so one cached library runs on any x86-64
machine.  Loading happens at import, so forked pool workers inherit the
library and never compile.  ``KIND`` says which path runs for both
kernels: "native" or "numpy".
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile

import numpy as np

from .field import _COORD_MUL, _TWO64, _coord_key, extend_hash, open_given_hash

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_openness.c")
_FLAGS = ("-O3", "-shared", "-fPIC")


def _cache_dir() -> str | None:
    """$XDG_CACHE_HOME/gosp or ~/.cache/gosp, else the temporary directory;
    None if none of them is writable."""
    bases = [os.environ.get("XDG_CACHE_HOME", ""), os.path.expanduser("~/.cache")]
    # a relative base (expanduser keeps "~" when it finds no home) would
    # put the cache in the working directory
    dirs = [os.path.join(b, "gosp") for b in bases if os.path.isabs(b)]
    for d in dirs + [tempfile.gettempdir()]:
        try:
            os.makedirs(d, exist_ok=True)
        except OSError:
            continue
        if os.access(d, os.W_OK | os.X_OK):
            return d
    return None


def _compile(path: str) -> None:
    """Build the kernel into ``path``: under a temporary name first, then
    renamed into place, so concurrent builders never load a partial file."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run(["gcc", *_FLAGS, _SOURCE, "-o", tmp],
                       check=True, capture_output=True)
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def _library_name() -> str:
    """The cached library's file name, keyed by the source, the flags and
    the machine type."""
    with open(_SOURCE, "rb") as fh:
        key = fh.read() + " ".join(_FLAGS + (platform.machine(),)).encode()
    return f"gosp-openness-{hashlib.sha256(key).hexdigest()[:16]}.so"


def _load():
    """The library's two ctypes functions, ``open_window`` and ``torus_run``,
    built if not cached; (None, None) if it cannot be built or loaded."""
    d = _cache_dir()
    if d is None:
        return None, None
    path = os.path.join(d, _library_name())
    try:
        if not os.path.exists(path):
            _compile(path)
        lib = ctypes.CDLL(path)
    except (OSError, subprocess.CalledProcessError):
        return None, None
    ptr, i64, u64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_uint64
    window, torus = lib.open_window, lib.torus_run
    window.argtypes = [ptr, ctypes.c_int, ptr, ptr, u64, u64, ptr]
    torus.argtypes = [ptr, i64, i64, ptr, i64, i64, i64, u64, u64, u64,
                      ctypes.c_int, ptr, ptr]
    window.restype = torus.restype = None
    return window, torus


_kernel, _torus = _load()
KIND = "numpy" if _kernel is None else "native"


def _numpy_mask(prefix: np.ndarray, t, threshold: int) -> np.ndarray:
    """The numpy reference of ``open_mask``."""
    return open_given_hash(extend_hash(prefix, t), threshold)


def open_mask(prefix: np.ndarray, t: int, threshold: int) -> np.ndarray:
    """Open mask of the shape of ``prefix``: site i of ``prefix`` is open at
    time t iff mix(prefix[i] ^ (u64(t) * C + G)) < threshold."""
    if prefix.dtype != np.uint64:
        raise TypeError(f"prefix hashes must be uint64, not {prefix.dtype}")
    if _kernel is None or threshold >= _TWO64:
        return _numpy_mask(prefix, t, threshold)
    out = np.empty(prefix.shape, dtype=bool)
    if not out.size:
        return out
    nd = prefix.ndim
    dims = (ctypes.c_int64 * (2 * nd))(*prefix.shape, *prefix.strides)
    at = ctypes.addressof(dims)
    _kernel(prefix.ctypes.data, nd, at, at + 8 * nd, _coord_key(t), threshold,
            ctypes.addressof(ctypes.c_char.from_buffer(out)))
    return out


def torus_extinction(prefix: np.ndarray, gather: np.ndarray, R: int,
                     T_max: int, threshold: int) -> np.ndarray | None:
    """Extinction steps of the torus quotient chain, one replica per row of
    the (B, N) prefix table, each run by ``torus_run`` from R full rows for
    at most T_max steps (-1 if still alive); None without the native
    library, for the caller's numpy loop.

    Row i of the (G, N) ``gather`` gives, for each site of the new top row,
    its source through offset i in the flat R*N rows."""
    if _torus is None:
        return None
    prefix = np.ascontiguousarray(prefix, dtype=np.uint64)
    gather = np.ascontiguousarray(gather, dtype=np.int64)
    (B, N), G = prefix.shape, len(gather)
    if gather.shape != (G, N) or not G or gather.min() < 0 or gather.max() >= R * N:
        raise ValueError(f"gather must be a (G >= 1, {N}) array of indices "
                         f"into the {R}*{N} flat rows")
    rows = np.empty((R + 1) * N, dtype=np.uint8)
    out = np.empty(B, dtype=np.int64)
    all_open = threshold >= _TWO64
    _torus(prefix.ctypes.data, B, N, gather.ctypes.data, G, R, T_max,
           _coord_key(R), int(_COORD_MUL), 0 if all_open else threshold, all_open,
           rows.ctypes.data, out.ctypes.data)
    return out
