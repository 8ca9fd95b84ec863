"""The native step and torus kernels, and the numpy open-mask finish.

``chain_step`` takes one step of ``gosp.dynamics.batch_evolve``, primal or
dual, for any d and R, in one call of the native kernel of the same name:
the OR of the source rows through each offset, the open test finished from
the ``BatchOpenness`` prefix table, the domain mask, the slab shift into
the union window, which replicas are occupied, and the bounding box of the
cells they occupy, from which ``_trim`` only slices.  Without the
library it returns None and the caller runs its numpy step body, which is
the reference; that body finishes the prefix hashes with ``open_mask``,
open_given_hash(extend_hash(prefix, t), threshold) in numpy.

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
kernels: "native" or "numpy"; the library is not built when there is no
compiler or the build fails.
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
    """The library's two ctypes functions, ``chain_step`` and ``torus_run``,
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
    ptr, i64, u64, i32 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_uint64, ctypes.c_int
    step, torus = lib.chain_step, lib.torus_run
    step.argtypes = [ptr, i64, i64, i64, ptr, ptr, i64, ptr, u64, i32, ptr, i32,
                     ptr, ptr, ptr]
    torus.argtypes = [ptr, i64, i64, ptr, i64, i64, i64, u64, u64, u64, i32,
                      ptr, ptr]
    step.restype, torus.restype = ctypes.c_int, None
    return step, torus


_step, _torus = _load()
KIND = "numpy" if _step is None else "native"


def open_mask(prefix: np.ndarray, t: int, threshold: int) -> np.ndarray:
    """Open mask of the shape of ``prefix``: site i of ``prefix`` is open at
    time t iff mix(prefix[i] ^ (u64(t) * C + G)) < threshold."""
    if prefix.dtype != np.uint64:
        raise TypeError(f"prefix hashes must be uint64, not {prefix.dtype}")
    return open_given_hash(extend_hash(prefix, t), threshold)


def _address(a: np.ndarray) -> int:
    """Address of a writable contiguous array's data, faster than
    ``a.ctypes.data``."""
    return ctypes.addressof(ctypes.c_char.from_buffer(a))


def chain_step(rows: np.ndarray, sources: np.ndarray, prefix: np.ndarray,
               times, threshold: int, domain: np.ndarray | None, dual: bool,
               win, uni, old_at, win_at):
    """One ``chain_step`` of the (B, R, *ext) rows into the union window
    ``uni``: the next rows (B, R, *uni), which replicas are occupied (B,)
    and the bounds (lo, hi) in ``uni`` of the cells that any replica
    occupies; None without the native library, for the caller's numpy
    step.

    The old window sits at ``old_at`` in ``uni`` and the new row's window,
    of shape ``win``, at ``win_at``.  Row g of the contiguous (G, 1 + nd)
    ``sources`` is a source row and the place of its window in ``win``.
    The primal new row is masked with the open sites at ``times[0]`` of its
    ``prefix`` window and with ``domain`` (*win); the dual masks source row
    r with those at ``times[r]`` of the old window and with ``domain`` (R,
    *ext).  ``domain`` must be contiguous.
    """
    if _step is None:
        return None
    B, R, *ext = rows.shape
    nd = len(ext)
    if prefix.dtype != np.uint64 or prefix.strides[-1] != 8:
        raise TypeError("prefix hashes must be uint64 with a contiguous last axis")
    masked = tuple(ext) if dual else tuple(win)
    if prefix.shape != (B, *masked):
        raise ValueError(f"prefix of shape {prefix.shape} for {B} replicas "
                         f"of window {masked}")
    dom_shape = (R, *masked) if dual else masked
    if domain is not None and (domain.shape != dom_shape or domain.dtype != bool
                               or not domain.flags.c_contiguous):
        raise ValueError(f"domain must be a contiguous bool array of shape {dom_shape}")
    if rows.dtype != bool or rows.strides[-1] != 1:
        rows = np.ascontiguousarray(rows, dtype=bool)
    geometry = np.array(
        [*ext, *win, *uni, *old_at, *win_at, *rows.strides,
         *[s // 8 for s in prefix.strides], *map(_coord_key, times)],
        dtype=np.uint64)
    out = np.empty((B, R) + tuple(uni), dtype=bool)
    alive = np.empty(B, dtype=bool)
    box = np.empty(2 * nd, dtype=np.int64)
    all_open = threshold >= _TWO64
    if _step(rows.ctypes.data, B, R, nd, _address(geometry), sources.ctypes.data,
             len(sources), prefix.ctypes.data, 0 if all_open else threshold,
             all_open, None if domain is None else domain.ctypes.data, dual,
             _address(out), _address(alive), _address(box)):
        raise MemoryError("chain_step could not allocate its scratch")
    return out, alive, (box[:nd].tolist(), box[nd:].tolist())


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
