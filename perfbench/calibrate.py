"""Machine-speed probe: one fixed kernel, timed while each CLI run goes on.

The benchmark runs on a few vCPUs of a shared host whose speed drifts.
In slow phases, which last from a second to minutes, the program and
this kernel alike take up to 1.5-2 times their usual CPU time; there is
no steal time then, so CPU time alone does not remove it.  A run of
several seconds mixes fast and slow phases, and in a noisy hour the
medians of whole 40 s benchmark runs spread by 25-30%.

So each CLI run is timed together with a ``Probe``: a thread of the
benchmark, on the same CPU as the child, that calls the kernel every
``INTERVAL_S`` and records the CPU time of each call.  The kernel's
mean time over a span, relative to ``REFERENCE_S``, is the speed factor
of that span, and the runner divides the child's CPU time in the span by
it.  Those times are CPU seconds at the reference speed.

The kernel imports nothing from the program, so a change to ``semikin``
moves the scaled times and leaves the factor alone.  Its mix follows
the program's: a split-step FFT round trip, a Verlet update and a
bilinear gather on numpy arrays, and interpreted Python.  The probe
takes about 6% of the CPU from the child, which shows in wall times.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

import numpy as np

#: typical CPU time of one kernel call made by a probe, on the reference
#: machine: a 2-vCPU "Intel(R) Xeon(R) Processor" VM at 2.1 GHz, Python
#: 3.11, numpy 2.4
REFERENCE_S = 3.6e-3
#: pause between two kernel calls of a probe
INTERVAL_S = 0.05
#: a span with fewer probe calls takes the factor of the whole CLI run
MIN_CALLS = 3

_N_WAVE = 4096
_NX, _NP = 64, 60

_rng = np.random.default_rng(0)
_PSI = _rng.standard_normal(_N_WAVE) + 1j * _rng.standard_normal(_N_WAVE)
_KINETIC = np.exp(-1j * np.linspace(0.0, 3.0, _N_WAVE))
_POTENTIAL = np.exp(-1j * np.linspace(-1.0, 1.0, _N_WAVE) ** 2)
_X0 = _rng.uniform(0.0, _NX - 1.0, _NX * _NP)
_P0 = _rng.uniform(0.0, _NP - 1.0, _NX * _NP)
_RHO = _rng.random((_NX, _NP))


def kernel() -> float:
    """One fixed unit of work, a few ms; returns a checksum."""
    psi = _PSI
    for _ in range(8):
        psi = np.fft.ifft(_KINETIC * np.fft.fft(psi)) * _POTENTIAL
    x, p = _X0.copy(), _P0.copy()
    for _ in range(4):
        p = p - 0.05 * np.sin(x)
        x = x + 0.05 * p
        p = p - 0.05 * np.sin(x)
    ix = np.clip(np.floor(x).astype(np.int64), 0, _NX - 2)
    ip = np.clip(np.floor(p).astype(np.int64), 0, _NP - 2)
    fx, fp = np.clip(x - ix, 0.0, 1.0), np.clip(p - ip, 0.0, 1.0)
    rho = (
        _RHO[ix, ip] * (1 - fx) * (1 - fp) + _RHO[ix + 1, ip] * fx * (1 - fp)
        + _RHO[ix, ip + 1] * (1 - fx) * fp + _RHO[ix + 1, ip + 1] * fx * fp
    )
    names: dict[str, int] = {}
    for i in range(1500):
        key = f"m{i & 127}"
        names[key] = names.get(key, 0) + len(key)
    return float(abs(psi[0]) + rho.sum()) + sum(names.values())


def warm_up(calls: int = 20) -> None:
    """The first calls are slower (FFT plans, caches); keep them untimed."""
    for _ in range(calls):
        kernel()


class Probe:
    """Kernel calls on a thread of their own, for the life of a ``with``.

    The thread runs on the CPUs of the thread that starts it, so a
    benchmark pinned to one CPU probes the CPU its children run on.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []  # time.monotonic() at each call
        self.times: list[float] = []  # CPU time of each call
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            began, start = time.monotonic(), time.thread_time()
            kernel()
            self.times.append(time.thread_time() - start)
            self.starts.append(began)

    def __enter__(self) -> Probe:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, start: float, end: float) -> float | None:
        """Mean kernel time of the calls begun in [start, end] over
        REFERENCE_S: above 1 on a slow machine.  None below MIN_CALLS."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        if hi - lo < MIN_CALLS:
            return None
        return statistics.fmean(self.times[lo:hi]) / REFERENCE_S
