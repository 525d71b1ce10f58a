"""How fast the machine runs Python right now, from a fixed reference loop.

On a host whose cores are shared with other virtual machines the same code
runs up to about 2x slower, in stretches from a fraction of a second to
tens of seconds, without any steal time showing in the guest.
``loop_seconds`` times a fixed loop of interpreter work (float arithmetic,
list and dict updates) that does not touch isscert. A time measured next to
such loops, divided by the loop time and multiplied by ``REFERENCE_LOOP_S``,
is that time at the reference speed: a run that falls in a slow stretch
reads about the same as one that does not, while a change to the program
moves it in full.

The module imports nothing but ``time``, so a fresh interpreter can time the
loop before ``import isscert.cli`` without changing what that import costs.
"""

import time

# loop_seconds() on a 2-vCPU KVM guest (Python 3.11.7) when nothing else
# slowed it down.
REFERENCE_LOOP_S = 0.0065


def _loop(n):
    table = {}
    values = []
    acc = 0.0
    for i in range(n):
        x = (i % 97) * 0.03125
        acc += x * x - acc * 1e-3
        values.append(acc)
        table[i & 255] = x
    return acc + len(values) + len(table)


def loop_seconds(repeats=3, n=40000):
    """Mean of ``repeats`` timings of the reference loop."""
    total = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        _loop(n)
        total += time.perf_counter() - start
    return total / repeats
