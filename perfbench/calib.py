"""Host-speed reference for the end-to-end timings.

The benchmark runs on shared hosts whose speed drifts by a third or more
over minutes, in steps that outlast a whole run.  So the timed passes stop
about every ``EVERY`` seconds between two ops and time one ``sample()``: a
fixed task (enumerate the ground terms of size <= 8 over lam/app in context
``x:exp`` and match each against a fixed pattern) made of the benchmark's
own oracle code, which imports nothing from strictpat.  An op's time is
then reported at the reference speed: multiplied by ``REFERENCE_S`` over
the median sample taken within ``WINDOW`` seconds of the op.  A change to
strictpat moves the op times and not the samples; a slow phase of the host
moves both.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import oracle

# the sample's duration at the reference speed (its median on the host the
# baseline in README.md was taken on)
REFERENCE_S = 0.0045
EVERY = 0.1
WINDOW = 0.25
MIN_SAMPLES = 3

_SIG = oracle.parse_signature("exp : type.\nlam : (exp ->u exp) ->1 exp.\n"
                              "app : exp ->1 exp ->1 exp.\n")
_PSI = oracle.parse_context("x:exp")
_TYPE = oracle.parse_type("exp")
_PATTERN = oracle.parse_term(r"app @1 (lam @1 (\y^u:exp. E[y^u])) @1 F[x^u]")


def sample() -> float:
    """Seconds the reference task takes now.  The collector is off while it
    runs, so the program's heap does not enter the sample."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for m in oracle.enumerate_ground(_SIG, _PSI, _TYPE, 8):
            oracle.matches(_PATTERN, m, _PSI)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def factors(samples, spans) -> list:
    """The scale of each op span (start, end): ``REFERENCE_S`` over the
    median sample taken from ``WINDOW`` before its start to ``WINDOW`` after
    its end, widened to the ``MIN_SAMPLES`` nearest in time if fewer fall
    there.  ``samples`` is a time-ordered list of (time, seconds)."""
    times = [t for t, _ in samples]
    out = []
    for start, end in spans:
        lo = bisect.bisect_left(times, start - WINDOW)
        hi = bisect.bisect_right(times, end + WINDOW)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(times)):
            if lo > 0 and (hi == len(times) or start - times[lo - 1] < times[hi] - end):
                lo -= 1
            else:
                hi += 1
        out.append(REFERENCE_S / statistics.median(s for _, s in samples[lo:hi]))
    return out
