"""One scratch workspace per thread, shared by the whole package.

The workspace holds what a kernel pass reads and writes: the temporaries
of the image and theta sums (``special_functions``), the offset and kernel
arrays handed to them and the coupling K made from their results in the
Volterra march, the field's kernel arrays, the initial-data terms
(``volterra._initial_terms``, with the series coefficients that
``transforms._series_at`` gathers) and the (N, m) arrays of the layered
solve.  Those are large (a kernel sum holds about 17 doubles per element)
and made again for every block and call: taken afresh, their pages went
back to the system each time and were faulted in again.  The per-pair
arithmetic around a pass (the pair geometry, the data-term weights, the
field's flux sums) is plain numpy: a few arrays of one block's pairs,
which the allocator hands back from block to block without fresh pages,
so writing them into the workspace would buy nothing.

It is a flat float64 buffer handed out as views in LIFO order.  A public
entry is a frame (``_scratch``): it releases what it took when it returns
or raises, and every array it returns is a fresh one, never a view of the
buffer.  The buffer grows only between calls, to a call's high-water mark
plus 1/8, and never shrinks, so a thread keeps about the scratch of its
largest call resident, and later calls of that size reuse those pages
instead of faulting fresh ones in.
"""
import functools
import math
import threading

import numpy as np


class _Workspace:
    """Scratch for one thread: a flat float64 buffer handed out in LIFO order.

    Inside a frame, ``take`` bumps the top and returns a view of the
    buffer; resetting ``top`` to an earlier value releases everything
    taken since.  A take that does not fit gets a fresh array, but the top
    still counts it, so once the outermost frame is released the buffer
    grows to the call's high-water mark plus 1/8.  The new buffer is not
    written then: its pages come in with the next call, after the fresh
    arrays of this one have gone back to the allocator.  Outside every
    frame a take is a fresh array and the top does not move, so a helper
    called on its own returns arrays that nothing else writes.
    """

    def __init__(self):
        self.buf = np.empty(0)
        self.size = 0
        self.top = 0  # elements in use
        self.peak = 0  # largest top that did not fit
        self.depth = 0  # frames open on this thread

    def take(self, *shape):
        """A float64 array of ``shape``, its contents undefined."""
        if not self.depth:
            return np.empty(shape)
        lo = self.top
        hi = self.top = lo + math.prod(shape)
        if hi <= self.size:
            return self.buf[lo:hi].reshape(shape)
        if hi > self.peak:
            self.peak = hi
        return np.empty(shape)

    def take_many(self, k, *shape):
        """k float64 arrays of ``shape`` from one take, as a list."""
        block = self.take(k, *shape)
        return [block[i, ...] for i in range(k)]

    def take_mask(self, *shape):
        """A boolean array of ``shape``, eight to an element of the buffer."""
        n = math.prod(shape)
        return self.take(-(-n // 8)).view(np.bool_)[:n].reshape(shape)

    def release(self, mark):
        self.top = mark
        if mark == 0 and self.peak > self.size:
            self.buf = None  # drop the old buffer before taking the new one
            self.size = self.peak + self.peak // 8
            self.buf = np.empty(self.size)


class _PerThread(threading.local):
    """One workspace per thread, made on the thread's first call."""

    def __init__(self):
        self.ws = _Workspace()


_local = _PerThread()


def _scratch(fn):
    """Make ``fn`` a workspace frame: what it takes is released when it
    returns or raises, so it must return nothing that views the buffer."""

    @functools.wraps(fn)
    def frame(*args, **kwargs):
        ws = _local.ws
        mark = ws.top
        ws.depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            ws.depth -= 1
            ws.release(mark)

    return frame
