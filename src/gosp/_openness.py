"""The native prefix-hash, step and torus kernels.

``prefix_hash`` hashes a column of seeds over a coordinate grid, the shape
of a ``BatchOpenness`` prefix table, in one call of the native kernel of
the same name; ``gosp.field.site_hash`` calls it for that shape only, and
without the library it returns None and ``site_hash`` runs its numpy
chain, which is the reference.

``chain_step`` takes one step of ``gosp.dynamics.batch_evolve``, primal or
dual, for any d and R, in one call of the native kernel of the same name:
the OR of the source rows through each offset, the open test finished from
the ``BatchOpenness`` prefix table, the domain mask, the slab shift into
the union window, the dropping of the replicas that died, and the
bounding box of the cells the others occupy, from which ``_trim`` only
slices.  The survivors' rows fill the first slots of the output, their
prefix-table rows, seeds and original indices move down in place, and each
replica that died gets its extinction step.  Without the library it
returns None and the caller runs its numpy step body, which is the
reference; that body finishes the prefix hashes with
``gosp.field.open_mask`` in numpy and compacts in numpy.

``torus_extinction`` runs the torus quotient chain of
``gosp.dynamics.torus_extinction_batch`` one replica at a time in the native
kernel ``torus_run``, p = 1 included; without the library it returns None
and the caller runs its numpy loop.

The kernels take hashes and coordinate keys, u64(c) * C + G, that their
callers derive in ``gosp.field``; this module imports nothing from gosp,
so ``gosp.field`` can import it.  All three live in one C source,
``_openness.c``, compiled with gcc on first use into a cache directory,
under a name keyed by the source and the flags, and loaded with ctypes.
Its ``target_clones`` let the loader pick AVX-512 or AVX2 at load time, so
one cached library runs on any x86-64 machine.  Loading happens at import,
so forked pool workers inherit the library and never compile.  ``KIND``
says which path runs for all three kernels: "native" or "numpy"; the
library is not built when there is no compiler or the build fails.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import math
import os
import platform
import subprocess
import tempfile

import numpy as np

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


class Drop(ctypes.Structure):
    """The C ``struct drop`` of ``chain_step``: the step and the arrays that
    move with the replicas it keeps.  Build it with ``drop_struct``."""

    _fields_ = [("t", ctypes.c_int64), ("cells", ctypes.c_int64),
                ("table", ctypes.c_void_p), ("seeds", ctypes.c_void_p),
                ("index", ctypes.c_void_p), ("extinction", ctypes.c_void_p)]


def _load():
    """The library's three ctypes functions, ``prefix_hash``, ``chain_step``
    and ``torus_run``, built if not cached; three Nones if it cannot be
    built or loaded."""
    d = _cache_dir()
    if d is None:
        return None, None, None
    path = os.path.join(d, _library_name())
    try:
        if not os.path.exists(path):
            _compile(path)
        lib = ctypes.CDLL(path)
    except (OSError, subprocess.CalledProcessError):
        return None, None, None
    ptr, i64, u64, i32 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_uint64, ctypes.c_int
    hash_, step, torus = lib.prefix_hash, lib.chain_step, lib.torus_run
    hash_.argtypes = [ptr, i64, i64, ptr, ptr, ptr]
    step.argtypes = [ptr, i64, i64, i64, ptr, ptr, i64, ptr, u64, i32, ptr, i32,
                     ptr, ptr, ctypes.POINTER(Drop)]
    torus.argtypes = [ptr, i64, i64, ptr, i64, i64, i64, u64, u64, u64, i32,
                      ptr, ptr]
    hash_.restype = torus.restype = None
    step.restype = i64
    return hash_, step, torus


_hash, _step, _torus = _load()
KIND = "numpy" if _step is None else "native"
# a threshold of 2**64 (p = 1) opens every site and does not fit a u64
_ALL_OPEN = 1 << 64


def _address(a: np.ndarray) -> int:
    """Address of a writable contiguous array's data, faster than
    ``a.ctypes.data``."""
    return ctypes.addressof(ctypes.c_char.from_buffer(a))


def prefix_hash(heads: np.ndarray, keys) -> np.ndarray | None:
    """The (B, *shape) prefix hashes of the B ``heads`` over a grid, with
    ``keys`` one uint64 key array per axis, of the axis's length: site i of
    replica b is heads[b] mixed with keys[0][i_0], then with keys[1][i_1]
    and so on, one mix(h ^ key) per axis, the chain of
    ``gosp.field.site_hash``; None without the native library."""
    if _hash is None:
        return None
    if not keys:
        raise ValueError("a grid needs at least one axis")
    heads = np.ascontiguousarray(heads, dtype=np.uint64)
    shape = np.array([len(k) for k in keys], dtype=np.int64)
    flat = np.concatenate(keys).astype(np.uint64, copy=False)
    out = np.empty((len(heads), *shape.tolist()), dtype=np.uint64)
    _hash(heads.ctypes.data, len(heads), len(shape), shape.ctypes.data,
          flat.ctypes.data, out.ctypes.data)
    return out


def drop_struct(table: np.ndarray, seeds: np.ndarray, index: np.ndarray,
                extinction: np.ndarray) -> Drop:
    """The ``Drop`` over the contiguous (B, ...) prefix ``table``, the (B,)
    ``seeds`` and original ``index`` of B replicas, and the extinction
    array, which ``index`` must index without repeats.  A step moves rows
    down within these buffers, so the struct holds until one of them is
    reallocated; it keeps them alive as ``arrays``."""
    arrays = (table, seeds, index, extinction)
    if ([a.dtype for a in arrays] != [np.uint64, np.uint64, np.int64, np.int64]
            or not len(table) == len(seeds) == len(index)
            or not all(a.flags.c_contiguous and a.flags.writeable for a in arrays)):
        raise ValueError("a chain_step needs the contiguous table, seeds and "
                         "index of its replicas and the extinction array")
    drop = Drop(0, math.prod(table.shape[1:]), *(a.ctypes.data for a in arrays))
    drop.arrays = arrays
    return drop


def chain_step(rows: np.ndarray, sources: np.ndarray, prefix: np.ndarray,
               keys, threshold: int, domain: np.ndarray | None, dual: bool,
               win, uni, old_at, win_at, drop: Drop, t: int):
    """Step t of the (B, R, *ext) rows into the union window ``uni``: the
    next rows (n, R, *uni) of the n replicas that survive it, in replica
    order, and the bounds (lo, hi) in ``uni`` of the cells that they
    occupy; None without the native library, for the caller's numpy step.

    The survivors' rows of the prefix table, of which ``prefix`` is a view,
    and their seeds and original indices move down to rows 0..n-1 of the
    arrays of ``drop``, built for at least B replicas, in place, and each
    replica that died gets ``extinction[index] = t``.

    The old window sits at ``old_at`` in ``uni`` and the new row's window,
    of shape ``win``, at ``win_at``.  Row g of the contiguous (G, 1 + nd)
    ``sources`` is a source row and the place of its window in ``win``.
    The primal new row is masked with the open sites at the time of key
    ``keys[0]`` of its ``prefix`` window and with ``domain`` (*win); the
    dual masks source row r with those at the time of ``keys[r]`` of the
    old window and with ``domain`` (R, *ext).  ``domain`` must be
    contiguous.
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
         *[s // 8 for s in prefix.strides], *keys],
        dtype=np.uint64)
    if B > len(drop.arrays[1]):
        raise ValueError(f"a drop built for {len(drop.arrays[1])} replicas, not {B}")
    drop.t = t
    out = np.empty((B, R) + tuple(uni), dtype=bool)
    box = np.empty(2 * nd, dtype=np.int64)
    all_open = threshold >= _ALL_OPEN
    n = _step(rows.ctypes.data, B, R, nd, _address(geometry), sources.ctypes.data,
              len(sources), prefix.ctypes.data, 0 if all_open else threshold,
              all_open, None if domain is None else domain.ctypes.data, dual,
              _address(out), _address(box), drop)
    if n < 0:
        raise MemoryError("chain_step could not allocate its scratch")
    return out[:n], (box[:nd].tolist(), box[nd:].tolist())


def torus_extinction(prefix: np.ndarray, gather: np.ndarray, R: int,
                     T_max: int, threshold: int, key0: int,
                     key_step: int) -> np.ndarray | None:
    """Extinction steps of the torus quotient chain, one replica per row of
    the (B, N) prefix table, each run by ``torus_run`` from R full rows for
    at most T_max steps (-1 if still alive); None without the native
    library, for the caller's numpy loop.

    Row i of the (G, N) ``gather`` gives, for each site of the new top row,
    its source through offset i in the flat R*N rows.  The top row of step
    t is open at the time of key ``key0 + t * key_step`` (mod 2**64)."""
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
    all_open = threshold >= _ALL_OPEN
    _torus(prefix.ctypes.data, B, N, gather.ctypes.data, G, R, T_max,
           key0, key_step, 0 if all_open else threshold, all_open,
           rows.ctypes.data, out.ctypes.data)
    return out
