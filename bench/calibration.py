"""Machine-speed calibration for timings taken on a shared host.

On a shared virtual machine the same pure-Python work runs up to twice as
slow for stretches of one to fifteen seconds while a neighbour is busy.  On
the 2-vCPU Intel Xeon VM this benchmark was defined on, a fixed 10 ms task
read 9 to 19 ms from one second to the next, with CPU time tracking wall
time and no steal time recorded.  A run of the same ops on the same inputs
then moved ops_per_s by 25% between runs.

Every time the benchmark reports is therefore scaled by the speed of a
fixed reference task timed right next to it:

    calibrated = measured * QUIET_REFERENCE_S / (reference time nearby)

which reads as the time the work would take on a quiet core of that VM.
The reference task is interpreted big-integer arithmetic, the work behind
`fractions.Fraction`, and imports nothing, so the set-up probe can run it
in a fresh interpreter before importing wregret.
"""

from time import perf_counter

# The reference task's time on an uncontended vCPU of the VM above.
QUIET_REFERENCE_S = 0.002

_MODULUS = 2**127 - 1


def reference_seconds() -> float:
    """Wall time of one run of the fixed reference task."""
    start = perf_counter()
    num, den = 0, 1
    for i in range(1, 7500):
        d = i % 97 + 1
        num = (num * d + den) % _MODULUS
        den = den * d % _MODULUS
    return perf_counter() - start


def calibrate(seconds: float, before: float, after: float) -> float:
    """Scale a measured time by the reference times taken around it."""
    return seconds * QUIET_REFERENCE_S * 2 / (before + after)
