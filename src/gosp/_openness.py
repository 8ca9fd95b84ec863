"""The native prefix-hash, step and torus kernels.

``prefix_hash`` hashes a column of seeds over a coordinate grid, the shape
of a ``BatchOpenness`` prefix table, in one call of the native kernel of
the same name; ``gosp.field.site_hash`` calls it for that shape only, and
without the library it returns None and ``site_hash`` runs its numpy
chain, which is the reference.

The native kernel ``chain_step`` takes one step of
``gosp.dynamics.batch_evolve``, primal or dual, for any d and R, in one
call: the OR of the source rows through each offset, the open test
finished from the ``BatchOpenness`` prefix table inside the domain's box
and the clearing of the sites outside it, the slab shift into the union
window, the dropping of the replicas that died, and the bounding box of
the cells the others occupy, from which ``_trim`` only slices.  The
survivors' rows fill the first slots of the output, their prefix-table
rows, seeds and original indices move down in place, and each replica that
died gets its extinction step.  ``chain_step`` here binds the kernel to
one run, as a ``ChainStep``: the model's sources, R, the threshold, where
the old window and the new row sit in their union, and the replicas'
bookkeeping go into a ``Step`` struct once, the prefix table each time it
is reallocated, and each step packs only its integers into a fixed frame
buffer and makes one call.  Without the library it returns None and the
caller runs its numpy step body, which is the reference; that body
finishes the prefix hashes with ``gosp.field.open_mask`` in numpy and
compacts in numpy.

``torus_extinction`` runs the torus quotient chain of
``gosp.dynamics.torus_extinction_batch`` one replica at a time in the native
kernel ``torus_run``, p = 1 included: a torus of R*N <= 64 sites takes the
word path, each replica's rows one uint64 stepped through a per-byte
lookup table, and a larger one the byte path, one byte a site.  Without
the library it returns None and the caller runs its numpy loop.

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
import struct
import subprocess
import tempfile
from operator import add, le, mul, sub

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


class Step(ctypes.Structure):
    """The C ``struct step`` of ``chain_step``: what a run binds once.
    Build it through ``chain_step``."""

    _fields_ = [("R", ctypes.c_int64), ("nd", ctypes.c_int64),
                ("dual", ctypes.c_int64), ("all_open", ctypes.c_int64),
                ("threshold", ctypes.c_uint64), ("sources", ctypes.c_void_p),
                ("G", ctypes.c_int64), ("frame", ctypes.c_void_p),
                ("bounds", ctypes.c_void_p), ("cells", ctypes.c_int64),
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
    step.argtypes = [ptr]
    torus.argtypes = [ptr, i64, i64, ptr, i64, i64, i64, u64, u64, u64, i32,
                      ptr, ptr]
    hash_.restype = torus.restype = None
    step.restype = i64
    return hash_, step, torus


_hash, _step, _torus = _load()
KIND = "numpy" if _step is None else "native"
# a threshold of 2**64 (p = 1) opens every site and does not fit a u64
_ALL_OPEN = 1 << 64
# the C kernels' bound on the number of axes
_MAXDIM = 64


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


class ChainStep:
    """``chain_step`` bound to one run of ``gosp.dynamics.batch_evolve``:
    what does not change between steps is bound once, in a ``Step``, and
    the prefix table by ``bind`` each time it is reallocated, so a call
    packs only its step's integers into the frame."""

    def __init__(self, sources, shift, R: int, dual: bool, threshold: int,
                 seeds: np.ndarray, index: np.ndarray, extinction: np.ndarray):
        arrays = (sources, seeds, index, extinction)
        nd = sources.shape[-1] - 1 if sources.ndim == 2 else 0
        if ([a.dtype for a in arrays] != [np.int64, np.uint64, np.int64, np.int64]
                or not len(sources) or not 1 <= nd <= _MAXDIM or len(shift) != nd
                or not 0 <= sources.min() <= sources[:, 0].max() < R
                or len(seeds) != len(index)
                or not all(a.flags.c_contiguous for a in arrays)
                or not all(a.flags.writeable for a in arrays[1:])):
            raise ValueError("a chain_step needs the contiguous (G >= 1, 1 + nd) "
                             "sources of its R rows, and the seeds and index of "
                             "its replicas and the extinction array")
        self.R, self.nd, self.dual = R, nd, dual
        # the new row's window starts ``shift`` from the old window and is
        # wider by the sources' reach; in their union the two sit at old_at
        # and win_at, and the union is wider than the old window by grow
        self._spread = sources[:, 1:].max(axis=0).tolist()
        self._old_at = [max(-s, 0) for s in shift]
        win_at = [max(s, 0) for s in shift]
        self._grow = [max(o, w + s) for o, w, s in zip(self._old_at, win_at, self._spread)]
        # a step's words, its boxes among them, then what is bound with the
        # run and the table (see struct step)
        keys = R if dual else 1
        self._box_len = 2 * nd * keys
        words = 7 + 4 * nd + self._box_len
        self._frame = np.zeros(words + keys + 3 * nd + 1, dtype=np.int64)
        self._pack = struct.Struct(f"<{words}q{keys}Q").pack_into
        self._frame[words + keys:words + keys + 2 * nd] = self._old_at + win_at
        self._strides = words + keys + 2 * nd
        # lo, hi and where the rows trimmed to them start in out
        self._bounds = np.zeros(2 * nd + 1, dtype=np.int64)
        self._arrays = arrays
        all_open = threshold >= _ALL_OPEN
        self._struct = Step(R, nd, dual, all_open, 0 if all_open else threshold,
                            sources.ctypes.data, len(sources), self._frame.ctypes.data,
                            self._bounds.ctypes.data, 0, None,
                            *(a.ctypes.data for a in arrays[1:]))
        self._at = ctypes.addressof(self._struct)
        self._call = _step
        self.capacity, self._box_shape = 0, ()
        self.table = None
        # the rows the last step returned, as the caller trimmed them, and
        # their address
        self.last, self._last_at = None, 0

    def bind(self, table: np.ndarray | None) -> None:
        """Bind the contiguous (B, *box) prefix ``table`` of the first B
        replicas, or None to let the old one go.  A step moves rows down
        within it, so it holds until the table is reallocated."""
        if table is None:
            self.table, self.capacity, self._struct.table = None, 0, None
            self._box_shape = ()
            return
        if (table.dtype != np.uint64 or table.ndim != 1 + self.nd
                or not table.flags.c_contiguous or not table.flags.writeable
                or len(table) > len(self._arrays[1])):
            raise ValueError("a chain_step needs the contiguous uint64 prefix table "
                             "of its replicas")
        self.table, self.capacity = table, len(table)
        self._box_shape = table.shape[1:]
        self._struct.cells = math.prod(self._box_shape)
        self._struct.table = table.ctypes.data
        self._frame[self._strides:] = strides = [n // 8 for n in table.strides]
        self._table_strides = strides[1:]

    def __call__(self, rows: np.ndarray, anchor, keys, place, box, t: int):
        """Step t of the (B, R, *ext) ``rows`` at ``anchor``: the next rows
        (n, R, *uni) of the n replicas that survive it, in replica order,
        the anchor of uni, the union of the old window and the new row's,
        and the bounds (lo, hi) in uni of the cells that they occupy.

        The open sites are read at the time of key ``keys[0]`` over the new
        row's window (dual: of ``keys[r]`` for source row r, over the old
        window) from the table's window that starts at ``place`` in its
        box.  ``box`` holds the domain's box in that window, its nd lower
        then its nd upper bounds (dual: one such box per source row, R
        boxes in all): the sites outside it are cleared and only those
        inside are tested.  The survivors' table rows, seeds and original indices
        move down to rows 0..n-1 in place, and each replica that died gets
        ``extinction[index] = t``.  The caller that trims the rows to the
        bounds hands them back as ``last``: the next step then finds them
        at the address it wrote them to.
        """
        B, R, *ext = rows.shape
        if B > self.capacity:
            raise ValueError(f"a chain_step bound to {self.capacity} replicas, not {B}")
        if R != self.R:
            raise ValueError(f"a chain_step of {self.R} rows, not {R}")
        if len(box) != self._box_len:
            raise ValueError(f"a chain_step's box holds {self._box_len} ints, "
                             f"not {len(box)}")
        if rows is self.last:
            at = self._last_at
        else:
            if rows.dtype != bool or rows.strides[-1] != 1:
                rows = np.ascontiguousarray(rows, dtype=bool)
            at = rows.ctypes.data
        win = tuple(map(add, ext, self._spread))
        uni = tuple(map(add, ext, self._grow))
        masked = ext if self.dual else win
        if min(place) < 0 or not all(map(le, map(add, place, masked), self._box_shape)):
            raise ValueError(f"a window of shape {tuple(masked)} at {tuple(place)} "
                             f"leaves the table's box {self._box_shape}")
        out = np.empty((B, R, *uni), dtype=bool)
        out_at = ctypes.addressof(ctypes.c_char.from_buffer(out))
        self._pack(self._frame, 0, at, out_at, B, t,
                   sum(map(mul, place, self._table_strides)), *ext, *win, *uni,
                   *rows.strides, *box, *keys)
        n = self._call(self._at)
        if n == -2:
            raise ValueError(f"a box {list(box)} that is not 0 <= lo <= hi <= "
                             f"{tuple(masked)} per axis")
        if n < 0:
            raise MemoryError("chain_step could not allocate its scratch")
        bounds = self._bounds.tolist()
        self.last, self._last_at = None, out_at + bounds.pop()
        return (out[:n], tuple(map(sub, anchor, self._old_at)),
                (bounds[:self.nd], bounds[self.nd:]))


def chain_step(sources: np.ndarray, shift, R: int, dual: bool, threshold: int,
               seeds: np.ndarray, index: np.ndarray,
               extinction: np.ndarray) -> ChainStep | None:
    """The ``ChainStep`` of a run of the chain (``dual``: its dual) with R
    rows, whose open sites are those under ``threshold``, over the (B,)
    ``seeds`` and original ``index`` of its B replicas and the extinction
    array, which ``index`` must index without repeats; None without the
    native library, for the caller's numpy steps.

    Row g of the contiguous (G, 1 + nd) ``sources`` is, per offset, the
    source row and the place of its window in the new row's window, which
    starts ``shift`` (nd integers) from the old window."""
    if _step is None:
        return None
    return ChainStep(sources, shift, R, dual, threshold, seeds, index, extinction)


def torus_extinction(prefix: np.ndarray, gather: np.ndarray, R: int,
                     T_max: int, threshold: int, key0: int,
                     key_step: int) -> np.ndarray | None:
    """Extinction steps of the torus quotient chain, one replica per row of
    the (B, N) prefix table, each run by ``torus_run`` from R full rows for
    at most T_max steps (-1 if still alive); None without the native
    library, for the caller's numpy loop.

    Row i of the (G, N) ``gather`` gives, for each site of the new top row,
    its source through offset i in the flat R*N rows.  The top row of step
    t is open at the time of key ``key0 + t * key_step`` (mod 2**64).
    With R*N <= 64 the kernel keeps each replica's rows in one 64-bit word
    (the word path), otherwise one byte a site (the byte path); both give
    the same steps."""
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
