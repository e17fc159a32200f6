"""Does the code being measured move rep.py's calibration kernel?

Usage (from the repository root, with one BLAS thread):

    OPENBLAS_NUM_THREADS=1 python3 perfbench/calibration_check.py [SECONDS]

One process cycles through short phases of different work while rep.py's
SIGALRM sampler runs, for SECONDS in all (default 60). The phases are nlaa
solves at L = 21 (the mix of scan_grid), nlaa solves at L = 144 (finite_size),
an inert loop of large-array numpy sorts (8 MB arrays, long C calls that evict
the caches) and dense LAPACK eigh calls (what a batched engine would make of
many small solves). Phases alternate every PHASE_S, so drift of the core's
speed falls on all of them alike. For each phase and each cycle through the
phases, the script takes the mean of the timed kernel run rep.py uses, and of
the untimed warm-up run before it, over the phase's samples, divided by the
same mean in the cycle's L = 21 phase; it prints the median and quartiles of
these ratios over the cycles. A ratio away from 1 is the bias a change of the
measured code's mix would put into the scaled times.
"""

import itertools
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import rep

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from nlaa.eigensolve import solve_state       # noqa: E402
from nlaa.model import ModelParams            # noqa: E402

PHASE_S = 0.5
_records = []                 # ((cycle, phase), warm-up run, timed run)
_phase = [None]


def _handler(signum, frame):
    start, t, end = rep.measure()
    _records.append((_phase[0], t - start, end - t))


def _solves(L):
    deltas = itertools.cycle(np.linspace(0.2, 3.8, 19))
    return lambda: solve_state(ModelParams(L=L, J=1.0, Delta=float(next(deltas)),
                                           phi=0.0, U=0.5), "gs")


def _work():
    rng = np.random.default_rng(0)
    big = rng.random(1 << 20)
    dense = rng.random((200, 200))
    dense = dense + dense.T
    return {"solve_L21": _solves(21), "solve_L144": _solves(144),
            "large_sort": lambda: np.sort(big),
            "dense_eigh": lambda: np.linalg.eigh(dense)}


def main():
    seconds = float(sys.argv[1]) if len(sys.argv) > 1 else 60.0
    work = _work()
    for fn in work.values():
        fn()
    signal.signal(signal.SIGALRM, _handler)
    signal.setitimer(signal.ITIMER_REAL, rep.INTERVAL_S, rep.INTERVAL_S)
    end = time.monotonic() + seconds
    cycle = 0
    try:
        while time.monotonic() < end:
            for name, fn in work.items():
                _phase[0] = (cycle, name)
                stop = time.monotonic() + PHASE_S
                while time.monotonic() < stop:
                    fn()
            cycle += 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    means = {}
    for key in {p for p, _, _ in _records}:
        runs = [(w, t) for p, w, t in _records if p == key]
        means[key] = (statistics.fmean(w for w, _ in runs),
                      statistics.fmean(t for _, t in runs))
    first = next(iter(work))
    print(f"{cycle} cycles; ratio to the {first} phase of the same cycle, "
          "median [quartiles]")
    for name in work:
        line = f"{name:12s}"
        for k, run in ((1, "timed run"), (0, "warm-up run")):
            ratios = [means[(c, name)][k] / means[(c, first)][k]
                      for c in range(cycle)
                      if (c, name) in means and (c, first) in means]
            q = statistics.quantiles(ratios, n=4)
            line += f"  {run} {q[1]:.3f} [{q[0]:.3f}, {q[2]:.3f}]"
        print(line)


if __name__ == "__main__":
    main()
