"""Small numeric and execution helpers used across modules."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import tempfile
import threading
from statistics import NormalDist
from threading import Thread

import numpy as np

from .errors import ConfigurationError


@contextlib.contextmanager
def atomic_file(path):
    """A binary handle to a temp file that replaces ``path`` on a clean exit.

    Readers never see a partial file: an exception inside the block removes
    the temp file and leaves ``path`` as it was.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-gridpcr-")
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path, *parts) -> None:
    """Write ``parts`` (bytes or contiguous buffers) in order to one file.

    Each part is written from its own buffer, without a copy.
    """
    with atomic_file(path) as handle:
        for part in parts:
            handle.write(part)


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))

THREADS_ENV_VAR = "GRIDPCR_THREADS"


def norm_ppf(p: float) -> float:
    """Standard normal quantile, valid for 0 < p < 1.

    This is the standard library's ``statistics.NormalDist().inv_cdf``,
    which implements Wichura's algorithm AS241 (*Applied Statistics*
    37:477-484, 1988), accurate to about 1 part in 1e16.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ConfigurationError(f"quantile level must lie in (0, 1), got {p}")
    return NormalDist().inv_cdf(p)


def mix_seed(base_seed: int, salt: int) -> int:
    """Derive a child seed deterministically (splitmix64-style round)."""
    z = (int(base_seed) * 0x9E3779B97F4A7C15 + int(salt) + 1) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def replicate_rng(base_seed: int, replicate: int) -> np.random.Generator:
    """Counter-keyed generator for one replicate of a seeded study.

    Streams are keyed by (base_seed, replicate), so draws depend only on the
    pair, never on execution order or worker count.
    """
    if replicate < 0:
        raise ConfigurationError("replicate index must be nonnegative")
    key = np.array(
        [np.uint64(base_seed & 0xFFFFFFFFFFFFFFFF), np.uint64(replicate)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def default_threads() -> int:
    raw = os.environ.get(THREADS_ENV_VAR, "1")
    try:
        n = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{THREADS_ENV_VAR} must be an integer, got {raw!r}"
        ) from None
    if n < 1:
        raise ConfigurationError(f"{THREADS_ENV_VAR} must be at least 1, got {raw!r}")
    return n


@functools.cache
def _openblas():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None.

    numpy wheels ship OpenBLAS in ``numpy.libs``; loading it again returns
    the copy numpy already uses. Another BLAS or platform gives None.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


class _BlasPin:
    """Process-wide pin of numpy's OpenBLAS to one thread, shared by callers.

    The first caller in sets the count to 1 when it is not 1 already, and
    the last caller out restores the count it replaced. Overlapping loops on
    different threads therefore all run single-threaded, and a nested loop
    (a study inside a pool worker) never changes the count while other
    workers are inside BLAS.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._restore = None

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                api = _openblas()
                previous = api[0]() if api is not None else 1
                if previous != 1:
                    api[1](1)
                    self._restore = (api[1], previous)
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._restore is not None:
                put, previous = self._restore
                self._restore = None
                put(previous)
        return False


_BLAS_PIN = _BlasPin()


_POOL = threading.local()


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return cpus or os.cpu_count() or 1


def pool_size(count: int, threads=None) -> int:
    """Workers ``run_indexed`` gives ``count`` calls under a ``threads`` cap.

    That is min(threads, count, usable CPUs), with every usable CPU for
    ``threads=None``, and 1 inside a ``run_indexed`` call: pools never
    nest, so a pass inside a replicate runs inline.
    """
    if getattr(_POOL, "inside", False):
        return 1
    cpus = usable_cpus()
    cap = cpus if threads is None else max(1, int(threads))
    return max(1, min(cap, count, cpus))


@contextlib.contextmanager
def _pool_worker():
    """Mark this thread as running ``run_indexed`` tasks while inside."""
    outer = getattr(_POOL, "inside", False)
    _POOL.inside = True
    try:
        yield
    finally:
        _POOL.inside = outer


def run_indexed(fn, count: int, threads: int = 1) -> list:
    """Evaluate ``fn(i)`` for i in range(count), results in index order.

    The calls run on ``pool_size`` workers: the calling thread and, for
    ``threads > 1``, that many minus one helper threads, which all take
    the next index from one shared iterator. Each call must be
    independent (replicate-keyed RNG makes that hold), so the result list
    is identical for any worker count. With helpers every call runs even
    when one raises, and then the exception of the lowest failing index is
    raised; alone, the caller stops at the first failure, which is that
    same index. A ``run_indexed`` call made from inside ``fn`` runs
    inline. BLAS runs single-threaded for every worker count: the workers,
    not BLAS, use the cores, and replicate arithmetic does not depend on
    the BLAS thread setting.
    """
    if count < 0:
        raise ConfigurationError("count must be nonnegative")
    workers = pool_size(count, threads)
    with _BLAS_PIN:
        if workers <= 1:
            with _pool_worker():
                return [fn(i) for i in range(count)]
        return _run_shared(fn, count, workers)


def _run_shared(fn, count: int, workers: int) -> list:
    """``run_indexed`` on the calling thread and ``workers - 1`` helpers."""
    results = [None] * count
    errors = {}
    indices = iter(range(count))
    take = threading.Lock()

    def work():
        with _pool_worker():
            while True:
                with take:
                    i = next(indices, None)
                if i is None:
                    return
                try:
                    results[i] = fn(i)
                except BaseException as exc:
                    errors[i] = exc

    helpers = [Thread(target=work) for _ in range(workers - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]
    return results
