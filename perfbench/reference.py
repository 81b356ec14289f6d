"""Reference loop that tracks the speed of a shared machine.

    python3 perfbench/reference.py [REPEAT]   # prints the mean loop time in seconds

The machine the benchmark runs on is shared: the same pure-Python work
can take twice as long from one minute to the next.  run.py times this
fixed loop in a fresh interpreter, which never imports sgcensus,
between its measurements, and scales every time it reports by
NOMINAL_S / (mean loop time over the run), so times read as seconds at
a fixed reference speed.  The loop does the kind of work the census does (big
integer shift-or, bit counts, small-int dict updates) and allocates no
objects the garbage collector tracks.
"""

from __future__ import annotations

import statistics
import sys
import time

# about the loop's time on the machine the baseline was taken on
NOMINAL_S = 0.1
REPEAT = 15


def loop() -> int:
    acc = 0
    counts: dict[int, int] = {}
    for i in range(60000):
        mask = ((1 << (i % 61 + 20)) - 1) ^ (i * 2654435761 & ((1 << 40) - 1))
        bits = mask & 0xFFFF
        out = 0
        while bits:
            lsb = bits & -bits
            out |= mask << (lsb.bit_length() - 1)
            bits ^= lsb
        acc += out.bit_count()
        key = i % 97
        counts[key] = counts.get(key, 0) + 1
    return acc + len(counts)


def main(argv: list[str]) -> int:
    repeat = int(argv[0]) if argv else REPEAT
    times = []
    for _ in range(repeat):
        t = time.perf_counter()
        loop()
        times.append(time.perf_counter() - t)
    # the mean, not the median: it should follow the machine's speed
    # over the whole second the repeats take, slow stretches included
    print(statistics.mean(times))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
