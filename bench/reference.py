"""Reference computation that measures the machine's current speed.

The benchmark machine is shared: the same code runs up to twice as slow
while neighbours are busy, in spells of seconds to tens of seconds, so
raw unit times vary by 20-40% from run to run.  The runner times this
fixed loop right before and right after every unit and reports the
unit's time over the mean of the two, which varied by 2-4% between runs
of the same code.  The loop does the program's kinds of work
(small-array numpy steps of an obliquely reflected Euler scheme, a fixed
point, face masks, CSV formatting) without calling the program, so a
change to the program never changes the reference.
"""

from __future__ import annotations

import io
import time

import numpy as np

_R = np.array([[1.0, -0.3], [-0.3, 1.0]])
_Q = np.identity(2) - _R
_DW = np.random.default_rng(0).standard_normal((1200, 8, 2)) * np.sqrt(5e-4)


def reference_work() -> int:
    """One pass of the reference loop (about 40 ms on a quiet core)."""
    x = np.zeros((8, 2))
    out = io.StringIO()
    for dw in _DW:
        target = x + dw - 5e-4
        w = np.zeros_like(target)
        for _ in range(3):
            w = np.maximum(w @ _Q.T - target, 0.0)
        x = target + w @ _R.T
        tol = 1e-9 * (1.0 + np.sqrt(np.einsum("pj,pj->p", x, x)))
        masks = ((x <= tol[:, np.newaxis]).astype(np.int64)
                 << np.arange(2)).sum(axis=1)
        out.write(",".join(f"{v:.17g}" for v in x[0]) + f",{int(masks[0])}\n")
    return len(out.getvalue())


def time_reference() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start
