"""The Dinic kernels: one interface, a Python and a compiled implementation.

A kernel is an object with the ten entry points the feasibility network,
the table build and extraction call (``max_flow``, ``greedy_blocking``,
``build_topology``, ``scale_caps``, ``fill_caps``, ``grow_sinks``,
``drain``, ``sweep`` — which writes the kept intervals as integer starts
and lengths, the only interval form the feasibility core keeps —
``gather``, ``wrap``) and a ``name``: the
:mod:`~repro.offline.kernel.py` module (``"py"``) or the
compiled :class:`~repro.offline.kernel.abi.DinicCKernel` (``"c"``), which
mirrors it step for step over the same buffers.

Public surface:

* :func:`get` — the kernel called ``"py"`` or ``"c"``; the one place a
  kernel name turns into a kernel.
* :func:`load` — the process-wide :class:`~repro.offline.kernel.abi.DinicCKernel`
  (compiled on first use, then dlopen'ed from the content-addressed cache);
  raises :class:`KernelUnavailable` when it cannot be provided.
* :func:`available` — ``True`` iff :func:`load` would succeed (memoized,
  including the negative answer, which it reads without raising).
  ``backend="auto"`` resolves to ``dinic_c`` exactly when it holds.
* :func:`build_info` — how the kernel was provided (cache hit, compiler,
  object path, content key), surfaced by ``repro stats``.
* :func:`reset` — drop the memoized state (tests flip the env knobs).

Nothing here touches the obs layer: kernel loading happens lazily inside
whatever probe runs first, and emitting counters there would make pinned
counter snapshots depend on load order.  Build provenance is exposed as
plain data via :func:`build_info` instead.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from . import py
from .abi import DinicCKernel
from .build import (
    CACHE_ENV,
    CC_ENV,
    DISABLE_ENV,
    BuildResult,
    KernelUnavailable,
    cache_root,
    disabled,
    ensure_built,
    find_compiler,
)

__all__ = [
    "DinicCKernel",
    "KernelUnavailable",
    "available",
    "build_info",
    "get",
    "load",
    "reset",
    "CACHE_ENV",
    "CC_ENV",
    "DISABLE_ENV",
]

_kernel: Optional[DinicCKernel] = None
_build: Optional[BuildResult] = None
_error: Optional[str] = None


def load() -> DinicCKernel:
    """The process-wide compiled kernel (built/loaded on first call).

    The outcome is memoized either way: a failed load raises a
    :class:`KernelUnavailable` with the same message on every later call
    without re-probing the filesystem (call :func:`reset` after changing
    the env knobs).  The memo keeps the message, not the exception: a
    raised exception carries the frames it passes through, so a memoized
    one would keep its last caller's objects alive.
    """
    global _kernel, _build, _error
    if _kernel is not None:
        return _kernel
    if _error is not None:
        raise KernelUnavailable(_error)
    try:
        result = ensure_built()
        kernel = DinicCKernel(str(result.path))
    except KernelUnavailable as exc:
        _error = str(exc)
        raise
    except OSError as exc:  # corrupt cached object: treat as unavailable
        _error = f"cached kernel failed to load: {exc}"
        raise KernelUnavailable(_error) from exc
    _kernel, _build = kernel, result
    return kernel


def available() -> bool:
    """Whether the compiled kernel can be used in this process.

    Every ``"auto"`` request asks, so a memoized answer raises nothing.
    """
    if _kernel is None and _error is None:
        try:
            load()
        except KernelUnavailable:
            pass
    return _kernel is not None


def get(name: str):
    """The kernel called ``name``: ``"py"`` or ``"c"``.

    ``"py"`` is the :mod:`~repro.offline.kernel.py` module; ``"c"`` is the
    compiled kernel (:func:`load`, which raises :class:`KernelUnavailable`
    where it cannot be provided).
    """
    if name == "py":
        return py
    if name == "c":
        return load()
    raise ValueError(f"unknown kernel {name!r}; expected one of ('py', 'c')")


def build_info() -> Dict[str, Any]:
    """Provenance of the compiled kernel for ``repro stats`` and debugging."""
    info: Dict[str, Any] = {
        "available": available(),
        "disabled": disabled(),
        "cache_dir": str(cache_root()),
    }
    if _build is not None:
        info.update(
            cache_hit=_build.cache_hit,
            compiler=_build.compiler,
            path=str(_build.path),
            key=_build.key,
        )
    elif _error is not None:
        info["error"] = _error
    return info


def reset() -> None:
    """Forget the memoized kernel/verdict (after env-knob changes in tests)."""
    global _kernel, _build, _error
    _kernel = _build = _error = None
