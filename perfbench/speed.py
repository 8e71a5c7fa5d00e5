"""A yardstick for the machine's momentary speed.

On a shared 2-vCPU x86-64 virtual machine, the CPU time of one fixed mpmath
loop moved by up to 2x from one few-second stretch to the next, and the
ops of a workload moved with it. The benchmark therefore times the fixed
loop below, which uses mpmath but no qseries code, before and after each op,
and scales the op's CPU time to what it would have been with the loop at
its nominal cost ``REF_S``.
"""

from __future__ import annotations

import time

from mpmath import mp, mpf

REF_S = 0.02   # nominal CPU seconds of one reference() loop


def reference() -> float:
    """CPU seconds of a fixed loop of 40-digit mpf arithmetic."""
    clock = time.process_time
    start = clock()
    with mp.workdps(40):
        s, x = mpf(0), mpf(1) / 3
        for k in range(1, 1500):
            x = (x * x + k) / (x + 2 * k)
            s += x * x
    return clock() - start


def scaled(op_s, ref_s):
    """Each op's seconds at nominal speed, given the reference times
    before the first op and after each op (one more than ops)."""
    return [s * 2 * REF_S / (before + after)
            for s, before, after in zip(op_s, ref_s, ref_s[1:])]
