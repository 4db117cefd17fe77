"""Work shared among one thread per CPU of the process's affinity mask.

``share(items, work, n_threads)`` calls ``work(k, item)`` once for every
item.  The calling thread and the workers of an executor that ends with
the call each take the next item until none is left, so a thread whose
CPU is slowed by other work takes fewer items; ``k`` names the thread,
from 0 (the caller) to ``n_threads - 1``, so work can own a per-thread
buffer.  While the call lasts, each thread is bound to its own CPU of the
mask and the caller's mask is then restored: unbound, Linux wakes a thread
that waited for the GIL on the CPU of the thread that released it, so the
threads kept sharing one CPU and the split cost time.  A worker's
exception is raised again in the caller once every thread has stopped.

Shared work does not share again: inside it ``threads_for`` gives 1 on
every platform (a bound thread also sees one usable CPU), so a nested
call runs inline and starts no threads.  The thread count follows the
affinity mask alone; ``taskset`` is the one control.  ``work`` may run on
several threads at once and must touch nothing but what its item owns.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

#: whether a thread can bind itself to one CPU (Linux)
CAN_BIND = hasattr(os, "sched_setaffinity")

#: ``inside`` is set while a thread runs shared work
_local = threading.local()


def usable_cpus() -> int:
    """CPUs this thread may run on: its affinity mask, read at each call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def threads_for(n_items: int) -> int:
    """Threads ``share`` gives n_items: one per usable CPU and at most one
    per item, or 1 inside shared work."""
    if getattr(_local, "inside", False):
        return 1
    return max(1, min(usable_cpus(), n_items))


def share(items, work, n_threads: int) -> None:
    """Call ``work(k, item)`` for every item on ``n_threads`` threads.

    Callers take ``n_threads`` from ``threads_for`` and size any per-thread
    buffers by it.  With one thread the items run inline, in order, on the
    caller's mask.
    """
    if n_threads <= 1:
        for item in items:
            work(0, item)
        return
    mask = sorted(os.sched_getaffinity(0)) if CAN_BIND else []
    pending = iter(items)
    taking = threading.Lock()

    def run(k):
        if mask:
            os.sched_setaffinity(0, {mask[k % len(mask)]})
        _local.inside = True
        try:
            while True:
                with taking:
                    item = next(pending, pending)
                if item is pending:
                    return
                work(k, item)
        finally:
            _local.inside = False

    try:
        with ThreadPoolExecutor(n_threads - 1) as pool:
            workers = [pool.submit(run, k) for k in range(1, n_threads)]
            run(0)
    finally:
        if mask:
            os.sched_setaffinity(0, mask)
    for worker in workers:
        worker.result()
