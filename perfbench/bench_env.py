"""Locating and (re)loading the library, and the environment block."""

from __future__ import annotations

import importlib
import importlib.util
import os
import platform
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
MODULES = ("arith", "cli", "counting", "fixedreal", "fourier", "harness",
           "parallel", "vaughan")


class MissingLibrary(RuntimeError):
    """The library sources are not beside the benchmark."""


def use_source_tree() -> None:
    if not (SRC / "diophlab" / "__init__.py").is_file():
        raise MissingLibrary(f"no library sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_library(table_limit: int):
    """Import the package afresh, build its table and named constants.

    Returns (lib, table, timings) where timings holds the wall time of the
    import, the table build and the constant construction.  Modules already
    imported by an earlier call are dropped first, so every call pays the
    package's own import; numpy and mpmath stay loaded.
    """
    use_source_tree()
    for name in _library_modules():
        del sys.modules[name]
    t0 = time.perf_counter()
    mods = {m: importlib.import_module(f"diophlab.{m}") for m in MODULES}
    t1 = time.perf_counter()
    table = mods["arith"].build_arith_table(table_limit)
    t2 = time.perf_counter()
    fixedreal = mods["fixedreal"]
    for name in fixedreal.CONSTANT_NAMES:
        fixedreal.constant(name)
    t3 = time.perf_counter()
    if not Path(mods["arith"].__file__).resolve().is_relative_to(SRC):
        raise MissingLibrary(f"diophlab imported from {mods['arith'].__file__}")
    lib = SimpleNamespace(**mods)
    return lib, table, {"import_s": t1 - t0, "build_s": t2 - t1,
                        "constants_s": t3 - t2, "setup_s": t3 - t0}


def time_setup(table_limit: int) -> dict:
    """Time one more set-up, as ``load_library`` does, and discard it.

    The modules loaded before the call are put back afterwards, so the
    library the caller holds stays the one ``sys.modules`` names.
    """
    saved = _library_modules()
    try:
        return load_library(table_limit)[2]
    finally:
        for name in _library_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def _library_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "diophlab" or name.startswith("diophlab.")}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(lib) -> dict:
    """What must match before two runs' figures may be compared."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        # the d=1 fast integral has a JIT kernel only when numba imported
        "d1_fast_kernel": ("jit" if getattr(lib.counting, "_d1_band_sum_jit", None)
                           else "numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "DIOPH_LAB_THREADS": os.environ.get("DIOPH_LAB_THREADS"),
    }
