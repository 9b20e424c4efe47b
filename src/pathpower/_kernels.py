"""Kernel dispatch: the compiled subset scan when available, pure Python
otherwise.  The scan is the only search kernel; the independence number is
proved by certificate in pathpower.search.

At import the scan kernel `_scan.c` is compiled with the system C compiler
into `__pycache__/_scan-<hash>.so`, where the hash covers the source and the
compiler flags, and loaded with ctypes.  Later imports load the cached
library.  Any failure (no compiler, a failed or timed-out build, a cache
directory that cannot be written, a library that does not load) selects the
pure-Python kernel instead, and BACKEND_REASON says which backend was
chosen and why.  The compiled scan handles graphs of at most 256 vertices;
larger graphs always use the pure kernel, whose Python-int masks have no
width limit.  Set PATHPOWER_PURE=1 in the environment to force the pure
path.  ctypes releases the interpreter lock around the compiled scan, so
threads sharing one search state scan in parallel.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import subprocess
import sysconfig
import tempfile
from pathlib import Path

from . import _kernels_py

COMPILED_MAX_VERTICES = 256
_WORD_MASK = (1 << 64) - 1
_SOURCE = Path(__file__).with_name("_scan.c")
_CACHE_DIR = _SOURCE.parent / "__pycache__"
_CFLAGS = ("-O2", "-shared", "-fPIC")
_BUILD_TIMEOUT_S = 60.0


def _compiler() -> list[str]:
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _compile(source: Path, target: Path) -> None:
    """Compile source into the shared library target; raises OSError,
    CalledProcessError or TimeoutExpired on failure."""
    subprocess.run(
        [*_compiler(), *_CFLAGS, "-o", str(target), str(source)],
        check=True,
        capture_output=True,
        timeout=_BUILD_TIMEOUT_S,
    )


def _library_path(cache_dir: Path, source: bytes) -> Path:
    digest = hashlib.sha256(source + " ".join(_CFLAGS).encode()).hexdigest()[:16]
    return cache_dir / f"_scan-{digest}.so"


def _load(cache_dir: Path):
    """(library, reason) for the scan kernel in cache_dir, compiled there
    first when absent; (None, reason) when that fails.

    The build writes a temporary file and renames it into place, so
    processes that build at the same time each load a complete library.
    """
    try:
        source = _SOURCE.read_bytes()
    except OSError as exc:
        return None, f"pure: cannot read {_SOURCE.name} ({exc.strerror})"
    lib_path = _library_path(cache_dir, source)
    how = "cached"
    if not lib_path.exists():
        how = "built"
        cc = _compiler()[0]
        try:
            cache_dir.mkdir(exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix="_scan-", suffix=".tmp")
            os.close(fd)
        except OSError as exc:
            return None, f"pure: cannot write {cache_dir} ({exc.strerror})"
        try:
            _compile(_SOURCE, Path(tmp))
            os.replace(tmp, lib_path)
        except FileNotFoundError:
            return None, f"pure: no C compiler ({cc} not found)"
        except subprocess.CalledProcessError as exc:
            return None, f"pure: {cc} exited {exc.returncode}"
        except subprocess.TimeoutExpired:
            return None, f"pure: {cc} timed out after {_BUILD_TIMEOUT_S:g} s"
        except OSError as exc:
            return None, f"pure: cannot build {lib_path.name} ({exc.strerror})"
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    try:
        lib = ctypes.CDLL(str(lib_path))
        lib.pp_scan
    except (OSError, AttributeError) as exc:
        return None, f"pure: cannot load {lib_path} ({exc})"
    lib.pp_scan.argtypes = [
        ctypes.POINTER(ctypes.c_uint64),  # adjacency rows
        ctypes.c_int,  # n
        ctypes.c_int,  # words per row
        ctypes.c_int,  # target
        ctypes.c_int,  # stop_at
        ctypes.c_longlong,  # max_nodes
        ctypes.c_double,  # time_limit
        ctypes.POINTER(ctypes.c_longlong),  # shared: next lead, best of any thread
        ctypes.POINTER(ctypes.c_longlong),  # out: best, nodes, truncated, early
        ctypes.POINTER(ctypes.c_uint64),  # out: witness mask
    ]
    lib.pp_scan.restype = ctypes.c_int
    return lib, f"compiled: {how} {lib_path}"


if os.environ.get("PATHPOWER_PURE"):
    _lib, BACKEND_REASON = None, "pure: PATHPOWER_PURE set"
else:
    _lib, BACKEND_REASON = _load(_CACHE_DIR)

HAVE_SPEEDUPS = _lib is not None


def backend_for(n_vertices: int) -> str:
    if _lib is not None and n_vertices <= COMPILED_MAX_VERTICES:
        return "compiled"
    return "pure"


def _scan_compiled(adj, target, stop_at, max_nodes, time_limit, shared):
    """The compiled scan, with the pure kernel's arguments and result."""
    n = len(adj)
    if n > COMPILED_MAX_VERTICES:
        raise ValueError(f"compiled scan is limited to {COMPILED_MAX_VERTICES} vertices, got {n}")
    if not 0 < target <= n:
        raise ValueError(f"subset size {target} outside 1..{n}")
    if shared is None:
        shared = (ctypes.c_longlong * 2)(0, target + 1)
    words = (n + 63) // 64
    rows = (ctypes.c_uint64 * (n * words))(*[(row >> (64 * w)) & _WORD_MASK for row in adj for w in range(words)])
    out = (ctypes.c_longlong * 4)()
    mask_words = (ctypes.c_uint64 * words)()
    if _lib.pp_scan(rows, n, words, target, stop_at, max_nodes, time_limit, shared, out, mask_words):
        raise ValueError(f"compiled scan rejected n={n}, target={target}, next lead={shared[0]}")
    best, nodes, truncated, early = out
    mask = sum(word << (64 * w) for w, word in enumerate(mask_words))
    return best if mask else None, mask, nodes, bool(truncated), bool(early)


def _scan(adj, *args):
    """The kernel that fits the graph, with the kernels' own arguments."""
    impl = _scan_compiled if backend_for(len(adj)) == "compiled" else _kernels_py.scan_min_induced_degree
    return impl(adj, *args)


def scan_min_induced_degree(
    adj: list[int],
    target: int,
    stop_at: int = 1,
    max_nodes: int | None = None,
    time_limit: float | None = None,
    shared=None,
):
    max_nodes = -1 if max_nodes is None else max_nodes
    time_limit = 0.0 if time_limit is None else time_limit
    return _scan(adj, target, stop_at, max_nodes, time_limit, shared)


# perfbench/spans.py still resolves this name when it installs its tracer.
def solve_max_independent_set(*args, **kwargs):
    raise NotImplementedError("the independence number is proved by certificate: use search.max_independent_set")
