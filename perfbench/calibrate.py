"""The machine-speed calibration kernel (see README: reference speed)."""

import time

#: Seconds the kernel takes on the reference machine.
REFERENCE_S = 0.05


def kernel() -> float:
    """Seconds for a fixed piece of interpreter work (integer arithmetic
    and dict stores) that does not touch the program under test."""
    start = time.perf_counter()
    total = 0
    table = {}
    for i in range(350_000):
        total += i * i % 7
        table[i & 255] = total
    return time.perf_counter() - start
