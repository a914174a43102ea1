"""Host-speed calibration: a fixed piece of work timed between passes.

The benchmark's host is shared, and its speed drifts by up to a third
over minutes while the code stays the same.  ``run.py`` takes
:func:`samples` before every pass and after the last one, and scales the
run's end-to-end times by ``REFERENCE_S / median(samples)``: they are
reported in seconds of a host that takes ``REFERENCE_S`` for one sample.

The work mirrors the suite's two kinds of time and never changes with
the program under test: a pure-Python LRU page-replacement loop over an
``OrderedDict`` (like the paging and working-set layers) and a numpy
stable sort plus ``unique`` (like the stack-distance kernels).  Its
inputs are generated once, from a fixed seed, when the module loads.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import List

import numpy as np

#: Median seconds of one :func:`sample` on the reference host (2 vCPUs of
#: an ``Intel(R) Xeon(R) Processor``, Python 3.11.7, numpy 2.4.6).
REFERENCE_S = 0.25

_RNG = np.random.default_rng(20_240_101)
_PAGES = ((_RNG.zipf(1.2, 500_000) * 2_654_435_761) % 20_000).tolist()
_FRAMES = 1_500
_KEYS = _RNG.integers(0, 1 << 40, 250_000)


def _paging() -> int:
    frames: "OrderedDict[int, None]" = OrderedDict()
    faults = 0
    for page in _PAGES:
        if page in frames:
            frames.move_to_end(page)
        else:
            faults += 1
            frames[page] = None
            if len(frames) > _FRAMES:
                frames.popitem(last=False)
    return faults


def _sorting() -> int:
    order = np.argsort(_KEYS, kind="stable")
    return int(np.unique(_KEYS[order] >> 8).size)


def sample() -> float:
    """Seconds this host takes for the fixed calibration work, once."""
    started = time.perf_counter()
    _paging()
    _sorting()
    return time.perf_counter() - started


def samples() -> List[float]:
    """Two back-to-back samples: one calibration point of a run."""
    return [sample(), sample()]
