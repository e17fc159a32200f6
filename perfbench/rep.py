"""One repetition of a workload in a fresh interpreter.

Usage: python rep.py SPEC.json  (written by run.py)

The process imports ``nlaa.cli`` from the checkout's ``src``, runs the
spec's warm-up calls, and stamps ``time.monotonic()`` when ready: the parent
takes set-up time as that stamp minus its own stamp before spawning (the
monotonic clock is system-wide). It then optionally installs the tracer and
times the spec's ``nlaa.cli.main`` calls.

From its first line to the end of the timed calls, the process also runs a
fixed calibration kernel every INTERVAL_S from a SIGALRM handler, on its own
core, between the bytecodes of the work being measured. On the shared host
this benchmark was defined on, the speed of a core drifts by 10-30% within
seconds and between minutes, and the kernel slows down with it. Each interval
is reported as its time minus the time the handler took, with the speed
factor NOMINAL_KERNEL_S / (mean timed kernel run in that interval); run.py
multiplies the two, which gives seconds on a core that runs the kernel in
NOMINAL_KERNEL_S. The handler runs the kernel twice and times only the second
run, so that the first refills the caches and branch state the measured code
left behind, and holds off the garbage collector, whose next run depends on
what the measured code allocated. The kernel uses no nlaa code; how far the
measured code's mix still moves its timed run is what ``calibration_check.py``
measures.
"""

import gc
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

INTERVAL_S = 0.02
NOMINAL_KERNEL_S = 2.5e-4     # typical on the 2-vCPU Xeon (KVM, 2.1 GHz) used
KERNEL_STEPS = 20

_EPS = np.cos(2.0 * np.pi * 0.618 * np.arange(21))
_V0 = np.full(21, 1.0 / np.sqrt(21))
_samples = []                 # (start, end, timed run) of each handler call


def _kernel():
    v = _V0
    for _ in range(KERNEL_STEPS):
        w = (_EPS - 0.3 * v * v) * v
        w[:-1] += v[1:]
        w[1:] += v[:-1]
        w = v - 0.05 * w
        v = w / np.linalg.norm(w)


def measure():
    """One calibration: (start, start of the timed run, end)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.monotonic()
        _kernel()             # warm-up run, not timed
        t = time.monotonic()
        _kernel()
        end = time.monotonic()
    finally:
        if enabled:
            gc.enable()
    return start, t, end


def _sample(signum, frame):
    start, t, end = measure()
    _samples.append((start, end, end - t))


def _calibration(a, b):
    """(handler seconds inside [a, b), speed factor over that interval)."""
    inside = [(end - start, timed) for start, end, timed in _samples
              if a <= start < b]
    if not inside:
        sys.exit(f"no calibration samples in [{a}, {b})")
    return (sum(busy for busy, _ in inside),
            NOMINAL_KERNEL_S / statistics.fmean(timed for _, timed in inside))


def main():
    spec = json.loads(Path(sys.argv[1]).read_text())
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        ready, t0, t1, codes = _run(spec)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_cal, setup_speed = _calibration(0.0, ready)
    wall_cal, wall_speed = _calibration(t0, t1)
    Path(spec["result"]).write_text(json.dumps(
        {"ready": ready, "setup_cal_s": setup_cal, "setup_speed": setup_speed,
         "raw_wall_s": t1 - t0 - wall_cal, "wall_speed": wall_speed,
         "peak_rss_mb": peak_rss_mb, "codes": codes,
         "samples": [s for s in _samples if t0 <= s[0] < t1]}))


def _run(spec):
    import nlaa.cli
    src = Path(spec["src"]).resolve()
    if src not in Path(nlaa.cli.__file__).resolve().parents:
        sys.exit(f"imported nlaa from {nlaa.cli.__file__}, not from {src}")

    warm = Path(spec["warm"])
    for i, argv in enumerate(spec["warmup"]):
        code = nlaa.cli.main(argv + ["--out", str(warm / str(i))])
        if code != 0:
            sys.exit(f"warm-up call {argv} exited with {code}")
    ready = time.monotonic()

    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer(spec["rep"])
        tracer.install()

    out = Path(spec["out"])
    codes = []
    t0 = time.monotonic()
    for sub, argv in spec["calls"]:
        codes.append(nlaa.cli.main(argv + ["--out", str(out / sub)]))
    t1 = time.monotonic()
    if tracer is not None:
        tracer.write(spec["spans"])
    return ready, t0, t1, codes


if __name__ == "__main__":
    main()
