"""Fixed row blocks of the n x n kernels and the samplers, spread over a lazily started thread pool.

A kernel cuts its rows (or columns, or sum-frequency lines, or the events
of a batch) into blocks of BLOCK_CELLS cells, and `_for_row_blocks` hands
each worker one contiguous group of whole blocks.  The partition depends on
the array's shape alone, never on the number of workers, and a kernel
combines any per-block sum in block order, so every output bit is the same
on any machine.  numpy releases the interpreter lock inside its loops, FFTs
and random fills, so the groups run in parallel.

This is the only module that knows about threads.  Work handed to it must
call no public nldc function: span tracers wrap those and assume that
every call runs on one thread.
"""

from __future__ import annotations

import os
import threading

BLOCK_CELLS = 1 << 16  # so an n x n array with n <= 256 is one block, run inline

_pool_thread = threading.local()


def _mark_pool_thread() -> None:
    _pool_thread.marked = True


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


class _Pool:
    """`workers` threads in all, the calling thread included.

    The pool threads start at the first call that has more than one group
    to run.  A call made from a pool thread runs inline, so work may nest.
    """

    def __init__(self, workers: int | None = None):
        self.workers = workers or _cpu_count()
        self._executor = None
        self._lock = threading.Lock()

    def run(self, count: int, fn) -> None:
        """Call fn(b0, b1) on contiguous groups of the blocks 0 .. count - 1, one group per worker.

        The calling thread works the first group.  Every group finishes
        before the first error, in block order, is re-raised.
        """
        groups = min(self.workers, count)
        if groups <= 1 or getattr(_pool_thread, "marked", False):
            fn(0, count)
            return
        bounds = [count * g // groups for g in range(groups + 1)]
        executor = self._started()
        futures = [executor.submit(fn, b0, b1) for b0, b1 in zip(bounds[1:-1], bounds[2:])]
        errors = []
        try:
            fn(bounds[0], bounds[1])
        except BaseException as exc:  # re-raised below, once every group has finished
            errors.append(exc)
        errors += [e for e in (f.exception() for f in futures) if e is not None]
        if errors:
            raise errors[0]

    def _started(self):
        with self._lock:
            if self._executor is None:
                # Imported here, so that importing nldc stays as fast as without the pool.
                from concurrent.futures import ThreadPoolExecutor

                self._executor = ThreadPoolExecutor(
                    self.workers - 1, thread_name_prefix="nldc-blocks", initializer=_mark_pool_thread
                )
            return self._executor

    def shutdown(self) -> None:
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown()
                self._executor = None

    def _forget_threads(self) -> None:
        """In a forked child: the pool threads were not copied, so start new ones when needed."""
        self._executor = None
        self._lock = threading.Lock()


_POOL = _Pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=lambda: _POOL._forget_threads())


def _block_rows(length: int, width: int) -> int:
    """Rows of `width` cells in one block of an array of `length` rows."""
    return min(length, max(1, BLOCK_CELLS // width))


def _for_row_blocks(length: int, width: int, fn) -> None:
    """Call fn(r0, r1) on row ranges of whole blocks that tile 0 .. length, one range per worker."""
    rows = _block_rows(length, width)
    _POOL.run(-(-length // rows), lambda b0, b1: fn(b0 * rows, min(b1 * rows, length)))
