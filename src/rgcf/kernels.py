"""The compiled kernels of _kernels.c: one Adam step, and the sorted-column
reductions of the coordinate median and the trimmed mean.

The source is built into one shared library on first use, never at import,
and loaded through ctypes. No contraction or fast-math: a fused
multiply-add or a reciprocal changes the bits.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path

SOURCE = Path(__file__).with_name("_kernels.c")
CC = ("cc", "-O3", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")


def _build(command: tuple[str, ...], lib: Path) -> Path:
    import subprocess
    import threading

    # one name per thread: two threads of a process may build at once
    tmp = lib.with_name(f"{lib.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        subprocess.run([*command, "-o", str(tmp), str(SOURCE), "-lm"], check=True, capture_output=True)
        os.replace(tmp, lib)
    except (OSError, subprocess.CalledProcessError) as e:
        tmp.unlink(missing_ok=True)
        stderr = getattr(e, "stderr", None)
        reason = (stderr.decode(errors="replace").strip() if stderr else "") or str(e)
        raise RuntimeError(f"cannot build the compiled kernels with {command[0]!r}: {reason.splitlines()[0]}") from e
    return lib


def _load(lib: Path):
    import ctypes

    so = ctypes.CDLL(str(lib))
    ptr, size = ctypes.c_void_p, ctypes.c_int64
    so.rgcf_adam_step.restype = size
    so.rgcf_adam_step.argtypes = [ptr, ptr, ptr, ptr, size, ptr, size, ptr, size] + [ctypes.c_double] * 6
    so.rgcf_sorted_columns.restype = None
    so.rgcf_sorted_columns.argtypes = [ptr, size, size, size, size, ptr, ptr]
    return so


def library():
    """The library built from SOURCE by CC: built and loaded on the first
    call, the same object after."""
    return _library(CC)


@functools.cache
def _library(command: tuple[str, ...]):
    """The library built from SOURCE by `command`, loaded through ctypes.

    The library is cached in the package's __pycache__ under a name keyed
    by the sha256 of the source and the command, written under a temporary
    name and renamed into place, so concurrent builds never see a partial
    file. Where that directory is not writable, it is built in a private
    temporary directory, removed once the library is loaded. A failed
    build is a RuntimeError."""
    import hashlib
    import tempfile

    key = hashlib.sha256(SOURCE.read_bytes() + "\0".join(command).encode()).hexdigest()
    cache = SOURCE.parent / "__pycache__"
    lib = cache / f"_kernels.{key[:16]}.so"
    if not lib.exists():
        try:
            cache.mkdir(exist_ok=True)
            writable = os.access(cache, os.W_OK)
        except OSError:
            writable = False
        if not writable:
            with tempfile.TemporaryDirectory() as private:
                # a loaded library stays mapped once its file is removed
                return _load(_build(command, Path(private) / lib.name))
        _build(command, lib)
    return _load(lib)
