"""How fast the machine runs right now, measured with a fixed kernel.

The benchmark shares a few cores of a host with other work, and the speed at
which it runs pure Python swings by 20 % and more within seconds.  Wall times
alone then spread more between runs of the same code than a regression the
benchmark must catch.  So every timed request is bracketed by `probe()`, a
fixed piece of work of the same kind as the program's (products of sparse
Laurent polynomials held as dicts of exponent tuples), and its time is scaled
to the speed at which `probe()` takes `REFERENCE_PROBE_S`:

    scaled = elapsed * REFERENCE_PROBE_S / (mean of the probes around it)

The kernel imports nothing from knotparity, so a change to the program cannot
change the yardstick.  `REFERENCE_PROBE_S` is about the median probe time on
the 2-core x86-64 box the benchmark was defined on (CPython 3.11); it only
sets the scale, so scaled numbers there read about as the unscaled ones.  A
probe takes about a tenth of a census request, so probing adds 5-10 % to a
run's wall time.
"""

from __future__ import annotations

import random
import time

REFERENCE_PROBE_S = 0.010
ROUNDS = 4


def _operands():
    rng = random.Random("knotparity-bench/speed")

    def poly():
        return {
            (rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-2, 2)): rng.choice((-1, 1)) * rng.randint(1, 9)
            for _ in range(40)
        }

    return poly(), poly()


_A, _B = _operands()


def _product(a, b):
    r = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            k = tuple(x + y for x, y in zip(k1, k2))
            nv = r.get(k, 0) + v1 * v2
            if nv:
                r[k] = nv
            elif k in r:
                del r[k]
    return r


def probe():
    """Seconds the fixed kernel takes now."""
    start = time.perf_counter()
    for _ in range(ROUNDS):
        _product(_A, _B)
    return time.perf_counter() - start


def scale(latencies, probes):
    """`latencies` at the reference speed: latency i was measured between
    probes[i] and probes[i + 1]."""
    return [
        x * REFERENCE_PROBE_S * 2 / (before + after)
        for x, before, after in zip(latencies, probes, probes[1:])
    ]
