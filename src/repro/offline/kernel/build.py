"""Lazy, content-addressed build of the compiled Dinic kernel.

The shared object is compiled at most once per *source content*: the cache
directory is keyed by :func:`repro.offline.kernel.codegen.source_hash`, so
editing the generated C (or bumping the ABI) lands in a fresh directory and
stale objects are simply never looked at again.  A warm cache needs **no
compiler at all** — the hit path is a single ``dlopen`` — which is what
makes the lazy build safe to ship on the default backend path.

Environment knobs:

* ``REPRO_KERNEL_CACHE`` — override the cache root (used by tests and
  sandboxed CI); default is the platform user cache dir
  (``$XDG_CACHE_HOME``/``~/.cache``/``~/Library/Caches``) under
  ``repro/kernels``.
* ``REPRO_CC`` — compiler override.  When set it is authoritative: if it
  cannot be found the build fails instead of silently falling back to
  another compiler.
* ``REPRO_DINIC_C`` — set to ``off``/``0``/``false`` to disable the
  compiled kernel entirely (exercised by the no-compiler CI leg; the
  ``auto`` backend then resolves to the fastest interpreted kernel).

Builds are concurrency-safe: compilation goes to a unique temporary file
inside the cache directory and is published with an atomic ``os.replace``,
so racing processes at worst compile twice and one wins.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from .codegen import C_SOURCE, source_hash

CACHE_ENV = "REPRO_KERNEL_CACHE"
CC_ENV = "REPRO_CC"
DISABLE_ENV = "REPRO_DINIC_C"

#: Tried in order when ``REPRO_CC`` is unset.
DEFAULT_COMPILERS = ("cc", "gcc", "clang")

#: ``-O1``: every cold start pays this compile.  The kernel's loops are
#: memory-bound index walks, and on gcc 12 (2-vCPU host) ``-O1`` ran the
#: blocking flow, the table sweep and a cold n = 10⁵ search as fast as
#: ``-O2`` while compiling the source in ~0.21 s instead of ~0.34 s.
CFLAGS = ("-O1", "-fPIC", "-shared")


class KernelUnavailable(RuntimeError):
    """The compiled kernel cannot be provided (no compiler, disabled, …).

    Raised by :func:`ensure_built` / :func:`repro.offline.kernel.load`;
    callers on the ``auto`` path catch it and fall back to the interpreted
    kernels, so it only escapes when ``backend="dinic_c"`` was requested
    explicitly.
    """


@dataclass(frozen=True)
class BuildResult:
    """Where the shared object lives and how it got there."""

    path: Path
    cache_hit: bool          # True: loaded from cache, no compiler invoked
    compiler: Optional[str]  # the compiler used (None on a cache hit)
    key: str                 # content hash of (source, ABI version)


def disabled() -> bool:
    """True when ``REPRO_DINIC_C`` explicitly turns the kernel off."""
    return os.environ.get(DISABLE_ENV, "").strip().lower() in ("off", "0", "false", "no")


def cache_root() -> Path:
    """The build-cache root (not created until a build needs it)."""
    override = os.environ.get(CACHE_ENV)
    if override:
        return Path(override)
    if sys.platform == "darwin":
        base = Path.home() / "Library" / "Caches"
    else:
        xdg = os.environ.get("XDG_CACHE_HOME")
        base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "kernels"


def find_compiler() -> Optional[str]:
    """The C compiler to use, or ``None`` when none is available.

    ``REPRO_CC`` is authoritative when set: a bad value yields ``None``
    rather than a silent fallback, so misconfiguration is loud.
    """
    override = os.environ.get(CC_ENV)
    if override:
        return override if shutil.which(override) else None
    for cc in DEFAULT_COMPILERS:
        if shutil.which(cc):
            return cc
    return None


def _object_paths(key: str) -> tuple:
    cache_dir = cache_root() / key[:24]
    return cache_dir, cache_dir / "dinic_c.so", cache_dir / "dinic_c.c"


def ensure_built() -> BuildResult:
    """Return the cached shared object, compiling it first if needed.

    Raises :class:`KernelUnavailable` when the kernel is disabled, no
    compiler exists and the cache is cold, or the compile itself fails.
    """
    if disabled():
        raise KernelUnavailable(
            f"compiled dinic kernel disabled via {DISABLE_ENV}="
            f"{os.environ.get(DISABLE_ENV)!r}"
        )
    key = source_hash()
    cache_dir, so_path, src_path = _object_paths(key)
    if so_path.exists():
        return BuildResult(so_path, cache_hit=True, compiler=None, key=key)
    cc = find_compiler()
    if cc is None:
        raise KernelUnavailable(
            "no C compiler found (tried $REPRO_CC, then "
            + ", ".join(DEFAULT_COMPILERS)
            + ") and no cached build exists under " + str(cache_dir)
        )
    cache_dir.mkdir(parents=True, exist_ok=True)
    src_path.write_text(C_SOURCE, encoding="utf-8")
    fd, tmp_name = tempfile.mkstemp(
        prefix=".dinic_c-", suffix=".so", dir=str(cache_dir)
    )
    os.close(fd)
    try:
        cmd: List[str] = [cc, *CFLAGS, "-o", tmp_name, str(src_path)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise KernelUnavailable(
                f"kernel compile failed ({' '.join(cmd)}):\n{proc.stderr.strip()}"
            )
        # Atomic publish: racing builders at worst compile twice; the
        # replace makes exactly one object visible and never a torn file.
        os.replace(tmp_name, so_path)
    finally:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
    return BuildResult(so_path, cache_hit=False, compiler=cc, key=key)
