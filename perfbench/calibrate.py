"""Machine-speed calibration for timings taken on a shared, noisy host.

On a shared 2-core sandbox the speed of the same code drifts by +-15% over
tens of seconds, far more than the bounds the benchmark must resolve. The
drift hits orbitdim and a fixed kernel alike, so the runner times this
kernel between ops and scales each op's wall time by ``reference /
measured``: times are reported in reference-machine units. Raw times stay
in the run record.

The kernel has two parts. The interpreter part is dict-of-tuples sparse
arithmetic in Python plus a small complex ``eigh``; the array part is
complex matrix products and streaming over arrays larger than a core's L2
cache. Other tenants slow the two parts differently, and each kind of op
follows one part more than the other. In 100 s traces on that sandbox,
taking the median of 10 s windows, the quartile spread of those medians
was:

- m = 1 ``orbitdim estimate`` CLI ops (about 10 ms): 0.32 raw, 0.17 scaled
  by the whole kernel, 0.05 scaled by the interpreter part;
- ``orbitdim dim`` ops at m = 3, N = 3: 0.08 raw, 0.05 whole, 0.02
  interpreter part;
- m = 2 GO estimates (D x D ``eigh``, D about 190): 0.16 raw, 0.06 whole,
  0.10 interpreter part.

So ops whose time goes to D x D arrays larger than L2 (``Op.array_bound``)
are scaled by the whole kernel and all other ops, and set-up, by the
interpreter part.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median kernel times on the reference machine (2-core x86 sandbox,
#: Python 3.11, numpy 2.4 with OpenBLAS pinned to 1 thread): the
#: interpreter part and the whole kernel.
REFERENCE_INTERP_S = 0.012
REFERENCE_S = 0.024

_RNG = np.random.default_rng(12345)
_A = _RNG.standard_normal((160, 160)) + 1j * _RNG.standard_normal((160, 160))
_H = _A + _A.conj().T
_G = _RNG.standard_normal((192, 192)) + 1j * _RNG.standard_normal((192, 192))
# 8 MiB each: larger than a core's L2, like the D x D matrices of evolve.
_SRC = np.ones(1 << 19, dtype=complex)
_DST = np.empty_like(_SRC)


def kernel() -> tuple[float, float]:
    """Run the fixed calibration work once; return the wall time of its
    interpreter part and of the whole kernel. The array part runs first,
    so that the op after a sample starts with the small interpreter
    working set in cache rather than 8 MiB of streamed arrays."""
    started = time.perf_counter()
    for _ in range(4):
        _G @ _G
    for _ in range(8):
        np.multiply(_SRC, 1.0000001, out=_DST)
    middle = time.perf_counter()
    acc: dict[tuple[int, int, int], complex] = {}
    for i in range(6000):
        key = (i % 97, i % 13, i % 7)
        acc[key] = acc.get(key, 0j) + complex(i, 1) * 0.5
    np.linalg.eigh(_H)
    ended = time.perf_counter()
    return ended - middle, ended - started


def interp_factor(samples: list[tuple[float, float]]) -> float:
    """Reference-time factor of the interpreter part, from kernel samples."""
    return REFERENCE_INTERP_S / statistics.median(interp for interp, _ in samples)


class Calibrator:
    """Kernel samples taken between ops, at least ``interval_s`` apart.

    With ``interval_s = 0`` every op is bracketed by the samples just
    before and after it. The host's speed changes within tenths of a
    second (successive kernel times correlate at 0.58, ten apart at 0.30),
    so a sample next to the op tracks it best: for 10 ms CLI ops, scaling
    by the bracketing samples cut the quartile spread of 9-sample medians
    from 0.10 raw to 0.04. With a longer interval, each sample is first
    replaced by the median of the three centred on it, since one timing of
    the short kernel is itself noisy.
    """

    def __init__(self, interval_s: float) -> None:
        self.interval_s = interval_s
        self.samples: list[tuple[float, float]] = []
        self._last = 0.0

    def sample(self) -> int:
        """Time the kernel now; return the index of this sample."""
        self.samples.append(kernel())
        self._last = time.perf_counter()
        return len(self.samples) - 1

    def due(self) -> bool:
        return time.perf_counter() - self._last >= self.interval_s

    def factors(self, marks: list[int], array_bound: list[bool]) -> list[float]:
        """Reference-time factor for each op, given the index of the last
        sample taken before it (sample ``mark + 1`` came after it) and
        which part of the kernel it follows."""
        half = 1 if self.interval_s > 0 else 0
        smooth = [
            tuple(statistics.median(s[part] for s in self.samples[max(0, j - half):j + half + 1]) for part in (0, 1))
            for j in range(len(self.samples))
        ]
        refs = (REFERENCE_INTERP_S, REFERENCE_S)
        factors = []
        for m, whole in zip(marks, array_bound):
            part = int(whole)
            factors.append(refs[part] / (0.5 * (smooth[m][part] + smooth[m + 1][part])))
        return factors
