"""A fixed piece of exact arithmetic that measures the host's current speed.

The machines this runs on change speed by a fifth within seconds and drift
over minutes, as other work shares the host.  Every timed interval of the
benchmark is bracketed by yardstick runs in the same process, and reported in
nominal seconds: measured seconds times NOMINAL_S over the mean of the
yardstick times around it.  The yardstick does the same kind of work as
lietriple (Fraction products and sums, tuples and dicts) without calling it,
so a change to lietriple moves the timed intervals and not the yardstick.
"""

import time
from fractions import Fraction

NOMINAL_S = 0.0125  # about the yardstick's time on the reference machine (see README)
ROUNDS = 1200


def measure():
    """Seconds one yardstick run takes now."""
    t0 = time.perf_counter()
    table = {}
    for i in range(1, ROUNDS):
        a = Fraction(i, i + 7)
        b = Fraction(i + 1, 3 * i + 1)
        re, im = a * b - b * b, a * b + a
        table[i & 63] = (re + im, re - im)
    return time.perf_counter() - t0


def nominal(seconds, before, after):
    """seconds measured between yardstick runs of `before` and `after` seconds."""
    return seconds * NOMINAL_S * 2 / (before + after)
