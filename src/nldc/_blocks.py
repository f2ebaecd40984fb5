"""Fixed blocks of the n x n kernels and the samplers, spread over a lazily started thread pool;
chunks of the large text tables, spread over forked processes.

A kernel cuts its rows (or columns, or sum-frequency lines, or the events
of a batch) into blocks of BLOCK_CELLS cells, and `_for_blocks` runs one
call per block, each worker working one contiguous group of whole blocks.
A block allocates the temporaries it works in.  The partition depends on
the array's shape alone, never on the number of workers, and the
per-block results come back in block order, so a kernel that adds them up
in that order gets every output bit the same on any machine.  numpy
releases the interpreter lock inside its loops, FFTs and random fills, so
the groups run in parallel.

Formatting text holds the interpreter lock, so threads cannot share it.
`_write_in_groups` instead cuts a table's chunks into one contiguous group
per worker: the calling process writes the first group into the file, and
a forked child writes each later group into a temporary file, which the
caller appends in group order.  The bytes are those of one process.

This is the only module that knows about threads and processes.  Work
handed to it must call no public nldc function: span tracers wrap those and
assume that every call runs on one thread of one process.
"""

from __future__ import annotations

import io
import os
import threading
import warnings

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


def _for_blocks(length: int, width: int, fn) -> list:
    """Call fn(r0, r1) on each block of rows r0 .. r1 that tiles 0 .. length; return the results in block order.

    A block holds max(1, BLOCK_CELLS // width) rows of `width` cells (all
    rows if fewer), and only the last block may be shorter.  Each worker
    works one contiguous group of blocks in order.
    """
    rows = min(length, max(1, BLOCK_CELLS // width))
    results = [None] * -(-length // rows)

    def group(b0, b1):
        for b in range(b0, b1):
            results[b] = fn(b * rows, min(b * rows + rows, length))

    _POOL.run(len(results), group)
    return results


def _write_in_groups(fh, count: int, write) -> None:
    """Call write(out, c0, c1) on contiguous groups of the chunks 0 .. count - 1, so that fh gets them in order.

    fh is a text file opened with newline="\n"; write must stream its
    chunks into the text file `out`, one chunk's text at a time.  The
    calling process writes the first group straight into fh.  A forked
    child writes each later group into an unlinked temporary file next to
    fh, and leaves by os._exit without flushing anything of its parent's.
    Every child is reaped; then the parts are appended to fh in 1 MiB
    reads.  A child that fails raises an OSError naming fh's file.  When
    the caller's own group raises, the children are killed first, and the
    caller's error is the one raised.
    """
    groups = min(_POOL.workers, count)
    if groups <= 1 or getattr(_pool_thread, "marked", False) or not hasattr(os, "fork"):
        write(fh, 0, count)
        return
    # Imported on first use, so that importing nldc loads no module for the children.
    import shutil
    import signal
    import tempfile

    bounds = [count * g // groups for g in range(groups + 1)]
    directory = os.path.dirname(os.path.abspath(fh.name))
    parts, pids = [], []
    try:
        try:
            for c0, c1 in zip(bounds[1:-1], bounds[2:]):
                parts.append(tempfile.TemporaryFile(dir=directory))
                with warnings.catch_warnings():
                    # Python >= 3.12 warns on a fork beside live threads.  Outside
                    # _POOL.run the pool's threads are idle and hold no lock, and a
                    # child only formats text and writes its file.
                    warnings.filterwarnings("ignore", "This process", DeprecationWarning)
                    pid = os.fork()
                if pid == 0:
                    _write_part(parts[-1], fh.encoding, c0, c1, write)
                pids.append(pid)
            write(fh, bounds[0], bounds[1])
        except BaseException:
            for pid in pids:  # their groups are of no use now
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            statuses = [os.waitpid(pid, 0)[1] for pid in pids]
        for status in statuses:
            if status:
                raise OSError(
                    f"{fh.name}: a forked process formatting its rows failed "
                    f"(exit code {os.waitstatus_to_exitcode(status)})"
                )
        fh.flush()
        for part in parts:
            part.seek(0)
            shutil.copyfileobj(part, fh.buffer, 1 << 20)
    finally:
        for part in parts:
            part.close()


def _write_part(part, encoding: str, c0: int, c1: int, write) -> None:
    """In a forked child: write chunks c0 .. c1 into part, then exit, with status 0 only if all of it is written."""
    code = 1
    try:
        out = io.TextIOWrapper(part, encoding=encoding, newline="\n")
        write(out, c0, c1)
        out.flush()
        code = 0
    finally:
        os._exit(code)
