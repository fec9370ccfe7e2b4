"""ctypes bindings over the compiled kernel: zero-copy on the live buffers.

:class:`DinicCKernel` has the interface of the ``py`` kernel
(:mod:`repro.offline.kernel.py`): the same ten entry points, arguments
and results, over int32 topology arrays where that kernel reads lists.
Every exported function takes raw buffer addresses obtained from
``array.buffer_info()`` — no marshalling, no copies: the C code mutates
the *same* ``array('q')`` capacity buffer that ``FeasibilityNetwork``
snapshots (``cap.tobytes()``) and restores (memoryview slice assignment,
in place).

The address of an ``array``'s buffer is stable for the lifetime of the
object as long as its *length* never changes — the network's contract
once built (topology fixed, only capacity values change) — so addresses
are taken per call without pinning.

Integer arguments that grow with the data are checked against int64
before the call (ctypes truncates a larger Python int silently), and the C
status codes come back as Python errors: ``MemoryError`` for a failed
scratch allocation, ``OverflowError`` for a capacity past int64 or an edge
id past int32 — where the Python kernel's ``array`` stores raise too.
"""

from __future__ import annotations

import ctypes
from array import array
from typing import Optional, Tuple

_I64 = ctypes.c_int64
_I32 = ctypes.c_int32
_PTR = ctypes.c_void_p

#: Status codes of the C entry points (``REPRO_*`` in the generated source).
_NOMEM = -1
_OVERFLOW = -2
_UNSORTED = -3
_EMPTY = -4
_LONG = -5
_FULL = -6
_BIGINT = 1

#: ctypes truncates a Python int passed as ``c_int64`` silently, so every
#: integer argument that can grow with the data is checked against this.
_INT64 = range(-(2**63), 2**63)


def _addr(buf: array) -> Optional[int]:
    """Base address of an array's buffer (NULL for an empty array)."""
    if len(buf) == 0:
        return None
    return buf.buffer_info()[0]


def _int64(value: int, what: str) -> int:
    """``value`` as a ``c_int64`` argument, or ``OverflowError``."""
    if value not in _INT64:
        raise OverflowError(f"dinic_c: {what} {value} does not fit int64")
    return value


def _check(status: int, what: str) -> None:
    """Raise the Python error for a negative C status."""
    if status == _NOMEM:
        raise MemoryError(f"dinic_c: {what}: scratch allocation failed")
    if status == _OVERFLOW:
        raise OverflowError(f"dinic_c: {what}: a capacity does not fit int64")


def _require(typecode: str, *bufs: array) -> None:
    for buf in bufs:
        if buf.typecode != typecode:
            raise TypeError(f"dinic_c: expected array({typecode!r}) buffers")


class DinicCKernel:
    """The loaded shared object with typed entry points.

    Thin by design: argument validation lives on the Python callers (which
    own the layout invariants); this class only guards the buffer typecodes
    so a mis-wired caller fails loudly instead of corrupting memory, refuses
    an integer argument past int64 instead of letting ctypes wrap it, and
    raises the C side's status codes as Python errors.
    """

    #: The name :func:`repro.offline.kernel.get` knows this kernel by.
    name = "c"

    __slots__ = ("lib", "path", "_max_flow", "_greedy", "_topology",
                 "_scale_caps", "_fill_caps", "_grow_sinks", "_drain",
                 "_sweep", "_gather", "_wrap")

    def __init__(self, path: str) -> None:
        lib = ctypes.CDLL(str(path))
        self.lib = lib
        self.path = str(path)
        f = lib.repro_dinic_max_flow
        f.restype = _I64
        f.argtypes = (_I32, _PTR, _PTR, _PTR, _PTR, _I32, _I32, _I64, _PTR)
        self._max_flow = f
        f = lib.repro_greedy_blocking
        f.restype = _I64
        f.argtypes = (_I32, _PTR, _PTR, _PTR, _PTR, _PTR)
        self._greedy = f
        f = lib.repro_build_topology
        f.restype = _I32
        f.argtypes = (_I32, _I32, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR)
        self._topology = f
        f = lib.repro_scale_caps
        f.restype = _I32
        f.argtypes = (_I32, _PTR, _I64, _PTR)
        self._scale_caps = f
        f = lib.repro_fill_caps
        f.restype = _I32
        f.argtypes = (_I32, _PTR, _PTR, _PTR, _PTR, _I64, _PTR, _PTR)
        self._fill_caps = f
        f = lib.repro_grow_sinks
        f.restype = _I32
        f.argtypes = (_I32, _I64, _PTR, _PTR)
        self._grow_sinks = f
        f = lib.repro_drain
        f.restype = _I64
        f.argtypes = (_I32, _I32, _I64, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR)
        self._drain = f
        f = lib.repro_sweep
        f.restype = _I32
        f.argtypes = (_I32, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR,
                      _PTR, _PTR)
        self._sweep = f
        f = lib.repro_gather
        f.restype = _I32
        f.argtypes = (_I32, _I32, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR,
                      _PTR)
        self._gather = f
        f = lib.repro_wrap
        f.restype = _I32
        f.argtypes = (_I32, _I64, _I64, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR,
                      _PTR)
        self._wrap = f

    # -- entry points ---------------------------------------------------------

    def max_flow(
        self, n: int, to: array, head: array, elist: array, cap: array,
        s: int, t: int, limit: Optional[int] = None,
        stats: Optional[array] = None,
    ) -> int:
        """Flow added from ``s`` to ``t`` on the current residual.

        ``limit=None`` runs to disconnection, a ``limit`` of at most 0
        returns 0 at once; ``stats`` (an ``array('q')`` of length >= 3)
        receives ``(phases, paths, retreats)`` when given.  A limit past
        int64 is no bound for an int64 flow, so it runs to disconnection
        too.
        """
        _require("i", to, head, elist)
        _require("q", cap)
        if limit is not None and limit <= 0:
            return 0
        if limit is None or limit not in _INT64:
            limit = -1
        added = self._max_flow(
            n, _addr(to), _addr(head), _addr(elist), _addr(cap),
            s, t, limit, _addr(stats) if stats is not None else None,
        )
        if added < 0:
            raise MemoryError("dinic_c: scratch allocation failed")
        return added

    def greedy_blocking(
        self, n_jobs: int, edf: array, k0: array, k1: array, src: array,
        cap: array,
    ) -> int:
        """The EDF greedy blocking pass; returns the flow pushed."""
        _require("q", cap)
        return self._greedy(
            n_jobs, _addr(edf), _addr(k0), _addr(k1), _addr(src), _addr(cap)
        )

    def build_topology(
        self, n_jobs: int, n_iv: int, k0: array, k1: array, src: array,
        n_edges2: int, n_nodes: int,
    ) -> Tuple[array, array, array]:
        """The arithmetic CSR topology as fresh int32 arrays.

        ``n_edges2`` is the paired edge count ``2 * n_edges`` (the length
        of ``to``/``elist``); ``n_nodes`` sizes ``head``.
        """
        to = array("i", bytes(4 * n_edges2))
        head = array("i", bytes(4 * (n_nodes + 1)))
        elist = array("i", bytes(4 * n_edges2))
        _check(self._topology(
            n_jobs, n_iv, _addr(k0), _addr(k1), _addr(src),
            _addr(to), _addr(head), _addr(elist),
        ), "build_topology")
        return to, head, elist

    def scale_caps(self, len_base: array, lenfac: int) -> array:
        """Per-interval unit capacities ``len_base[k] * lenfac`` (int64)."""
        n_iv = len(len_base)
        iv_caps = array("q", bytes(8 * n_iv))
        _check(self._scale_caps(
            n_iv, _addr(len_base), _int64(lenfac, "length factor"),
            _addr(iv_caps),
        ), "scale_caps")
        return iv_caps

    def fill_caps(
        self, n_jobs: int, k0: array, k1: array, src: array,
        demand_base: array, demfac: int, iv_caps: array, cap: array,
    ) -> None:
        """Cold capacity fill (source demands + window arcs) into ``cap``."""
        _require("q", cap)
        _check(self._fill_caps(
            n_jobs, _addr(k0), _addr(k1), _addr(src), _addr(demand_base),
            _int64(demfac, "demand factor"), _addr(iv_caps), _addr(cap),
        ), "fill_caps")

    def grow_sinks(self, delta: int, iv_caps: array, cap: array) -> None:
        """Grow every sink arc by ``delta`` machines' worth of capacity."""
        _require("q", iv_caps, cap)
        _check(self._grow_sinks(
            len(iv_caps), _int64(delta, "machine step"), _addr(iv_caps),
            _addr(cap),
        ), "grow_sinks")

    def drain(
        self, n_jobs: int, delta: int, iv_caps: array, to: array,
        head: array, elist: array, src: array, cap: array,
    ) -> int:
        """Shrink every sink arc by ``delta`` machines, evicting flow;
        returns the flow drained."""
        _require("q", iv_caps, cap)
        _require("i", to, head, elist, src)
        drained = self._drain(
            n_jobs, len(iv_caps), _int64(delta, "machine step"),
            _addr(iv_caps), _addr(to), _addr(head), _addr(elist),
            _addr(src), _addr(cap),
        )
        _check(drained, "drain")
        return drained

    def sweep(self, r: array, p: array, d: array) -> Optional[tuple]:
        """The table sweep of the ``py`` kernel's ``sweep`` over int64 job data.

        ``r``, ``p``, ``d``: the base-scaled releases (in order),
        processing times and deadlines of ``n >= 1`` jobs.  Returns
        ``(start_base, len_base, k0, k1, src, edf, elementary_count,
        n_edges, max_live, zero_laxity_max, total_demand_base,
        span_base)``, or ``None`` when the span or the total demand passes
        int64.  An edge id past int32 raises ``OverflowError``, as
        ``array('i')`` does.
        """
        _require("q", r, p, d)
        n = len(r)
        if len(p) != n or len(d) != n:
            raise ValueError("dinic_c: sweep: r, p and d differ in length")
        points = 2 * n  # n jobs make at most 2n event points
        start_base = array("q", bytes(8 * points))
        len_base = array("q", bytes(8 * points))
        k0, k1, src, edf = (array("i", bytes(4 * n)) for _ in range(4))
        counts = array("q", bytes(8 * 7))
        status = self._sweep(
            n, _addr(r), _addr(p), _addr(d), _addr(start_base),
            _addr(len_base), _addr(k0), _addr(k1), _addr(src), _addr(edf),
            _addr(counts),
        )
        if status == _BIGINT:
            return None
        if status == _UNSORTED:
            raise ValueError("dinic_c: sweep: releases are not in order")
        if status == _OVERFLOW:
            raise OverflowError("dinic_c: sweep: an edge id does not fit int32")
        _check(status, "sweep")
        n_kept, m_el, n_edges, max_live, zero_max, total, span = counts
        del start_base[n_kept:], len_base[n_kept:]
        return (start_base, len_base, k0, k1, src, edf, m_el, n_edges,
                max_live, zero_max, total, span)

    def gather(
        self, n_jobs: int, n_iv: int, k0: array, k1: array, src: array,
        rank: array, cap: array,
    ) -> Tuple[array, array, array]:
        """A flow's positive window arcs by kept interval: ``(offsets,
        jobs, amounts)`` as int32/int32/int64 arrays, in the ``py``
        kernel's order."""
        _require("i", k0, k1, src, rank)
        _require("q", cap)
        edges = len(cap) // 2  # at least one per window arc, so per piece
        offsets = array("i", bytes(4 * (n_iv + 1)))
        jobs = array("i", bytes(4 * edges))
        amounts = array("q", bytes(8 * edges))
        count = self._gather(
            n_jobs, n_iv, _addr(k0), _addr(k1), _addr(src), _addr(rank),
            _addr(cap), _addr(offsets), _addr(jobs), _addr(amounts),
        )
        _check(count, "gather")
        del jobs[count:], amounts[count:]
        return offsets, jobs, amounts

    def wrap(
        self, m: int, offsets: array, jobs: array, amounts: array,
        start_base, len_base: array, f: int, ids,
    ) -> Optional[array]:
        """The ``py`` kernel's ``wrap`` as one int64 array of ``(job,
        machine, start, end)`` quadruples, or ``None`` where a tick bound
        passes int64 (``f`` does, ``start_base`` is a list of Python ints,
        or a product does), so the caller wraps on Python ints."""
        if f not in _INT64 or not isinstance(start_base, array):
            return None
        _require("i", offsets, jobs)
        _require("q", amounts, start_base, len_base)
        out = array("q", bytes(64 * len(jobs)))  # two segments per piece
        at = array("q", bytes(8))
        # A wrap uses at most one machine per piece, so a larger m is no
        # bound and ctypes must not truncate it.
        status = self._wrap(
            len(offsets) - 1, min(m, _INT64[-1]), f, _addr(offsets),
            _addr(jobs), _addr(amounts), _addr(start_base), _addr(len_base),
            _addr(out), _addr(at),
        )
        if status == _BIGINT:
            return None
        if status == _EMPTY:
            raise ValueError("empty elementary interval")
        if status == _LONG:
            raise ValueError(
                f"piece of job {ids[jobs[at[0]]]} exceeds interval length"
            )
        if status == _FULL:
            raise ValueError("pieces exceed machine capacity")
        del out[at[0]:]
        return out
