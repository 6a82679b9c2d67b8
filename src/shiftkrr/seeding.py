"""Deterministic seeds and a deterministic executor for independent replications.

Every replication / grid cell gets its own generator seeded from
``derive_seed(master_seed, *indices)``, so results are reproducible in
isolation and independent of worker scheduling.  ``map_units`` runs such
units on all available cores with BLAS on one thread, so their results
are also independent of the core count and of the BLAS thread setting.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np

T = TypeVar("T")
R = TypeVar("R")

#: (get, set) thread-count entry points of the OpenBLAS builds that numpy
#: (64-bit integer interface) and scipy (32-bit) bundle
_OPENBLAS_THREAD_FUNCS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One step of the SplitMix64 avalanche mixer (Steele et al.).

    Maps a 64-bit integer to a 64-bit integer; every input bit affects
    every output bit.
    """
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(master_seed: int, *indices: int) -> int:
    """Derive a child seed from a master seed and a tuple of stream indices.

    Each index is folded in with xor and re-avalanched, so streams for
    distinct index tuples are statistically independent.
    """
    x = splitmix64(master_seed & _MASK64)
    for idx in indices:
        x = splitmix64(x ^ (int(idx) & _MASK64))
    return x


def rng_for(master_seed: int, *indices: int) -> np.random.Generator:
    """PCG64 generator for the (master_seed, *indices) stream."""
    return np.random.default_rng(derive_seed(master_seed, *indices))


@functools.cache
def _openblas_thread_controls() -> tuple[tuple[Callable[[], int], Callable[[int], None]], ...]:
    """(get, set) thread-count functions of every OpenBLAS loaded in this process.

    Empty when none is found: another BLAS, or no ``/proc/self/maps``.
    Looked up once per process: numpy loads its OpenBLAS at import.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({parts[5].rstrip() for parts in (line.split(maxsplit=5) for line in fh)
                            if len(parts) == 6 and "openblas" in os.path.basename(parts[5])})
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_FUNCS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return tuple(controls)


_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved: list[int] = []


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the body with every loaded OpenBLAS on one thread.

    Reentrant and shared by all threads of the process: a depth counter
    under a lock makes the first entry save the thread counts and set
    them to 1, and the last exit restore them.  OpenBLAS keeps one global
    count, so per-caller restores would race.  On one thread a product
    sums in a fixed order, so its bytes do not depend on the core count or
    ``OPENBLAS_NUM_THREADS``, and small factorizations such as a 200 x 200
    ``eigh`` avoid thread start-up stalls of hundreds of milliseconds.
    Without an OpenBLAS this does nothing.
    """
    global _blas_depth, _blas_saved
    blas = _openblas_thread_controls()
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = [get() for get, _ in blas]
            for _, set_ in blas:
                set_(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                for (_, set_), count in zip(blas, _blas_saved):
                    set_(count)


def map_units(fn: Callable[[T], R], units: Iterable[T]) -> list[R]:
    """``[fn(u) for u in units]``, computed on every core inside ``one_blas_thread``.

    Results come back in the order of ``units``, and the exception of the
    first failing unit propagates (with several workers, once every unit
    has run).  The worker count is the number of cores this process may
    run on, capped at the number of units.  BLAS is on one thread for the
    whole call, serial runs included, so a unit computes the same bytes
    whatever the worker count, the core count or ``OPENBLAS_NUM_THREADS``.
    Where no OpenBLAS is found the units run serially with BLAS untouched.
    """
    units = list(units)
    if not _openblas_thread_controls():
        return [fn(u) for u in units]
    threads = max(1, min(len(os.sched_getaffinity(0)), len(units)))
    with one_blas_thread():
        if threads == 1:
            return [fn(u) for u in units]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, units))
