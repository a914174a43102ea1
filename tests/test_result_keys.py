"""Golden result-cache keys: one pinned digest per key kind.

Every cached operation addresses its results by a SHA-256 over its key
parts (:mod:`repro.parallel.cache`).  A digest that moves without a
``CACHE_KEY_VERSION`` bump silently orphans every entry users already
hold, and a kind whose parts drift can stop sharing entries with the
operation it is meant to share with.  These pins fix the digest of one
fixed input per kind, so any refactor of key construction must produce
the same bytes.
"""

import numpy as np
import pytest

from repro.experiments.scale import ExperimentScale
from repro.parallel.cache import SimulationCache
from repro.sim.config import SingleSizeScheme, TLBConfig, TwoLevelConfig
from repro.sim.config import TwoSizeScheme
from repro.sim.driver import (
    run_single_size,
    run_split_two_sizes,
    run_two_level,
    run_two_sizes,
)
from repro.sim.multiprog import (
    run_multiprogrammed,
    run_multiprogrammed_two_sizes,
)
from repro.sim.sweep import sweep_single_size
from repro.studies.engine import compile_study
from repro.studies.spec import Study
from repro.tlb.context import ContextSwitchPolicy
from repro.trace.record import Trace

SMALL = SingleSizeScheme(4096)
TWO = TwoSizeScheme(window=500)


def golden_trace(name="golden", stride=7):
    """A fixed, generator-independent trace: its fingerprint never moves."""
    pages = (np.arange(3000, dtype=np.uint64) * stride) % 211
    return Trace(
        (pages * 4096).astype(np.uint32), name=name, refs_per_instruction=1.25
    )


def programs():
    return [golden_trace("p0", 7), golden_trace("p1", 11)]


def study_run_ids(monkeypatch):
    trace = golden_trace()
    monkeypatch.setattr(ExperimentScale, "trace", lambda self, name: trace)
    study = Study(
        name="golden",
        kind="single",
        workloads=("li",),
        metrics=("cpi_tlb",),
        fixed={"entries": 16},
    )
    scale = ExperimentScale(
        trace_length=3000, window=500, use_cache=False, use_result_cache=False
    )
    return [unit.run_id for unit in compile_study(study, scale).units]


#: kind -> operation storing exactly one result-cache entry.
CACHED = {
    "single": lambda cache: run_single_size(
        golden_trace(), SMALL, TLBConfig(16), cache=cache
    ),
    "policy": lambda cache: run_two_sizes(
        golden_trace(), TWO, [TLBConfig(16)], cache=cache
    ),
    "split": lambda cache: run_split_two_sizes(
        golden_trace(), TWO, TLBConfig(16), TLBConfig(8), cache=cache
    ),
    "twolevel": lambda cache: run_two_level(
        golden_trace(),
        SMALL,
        TwoLevelConfig(TLBConfig(4), TLBConfig(32)),
        cache=cache,
    ),
    # The default ("auto") request: its key records the resolved kernel.
    "sweep": lambda cache: sweep_single_size(
        golden_trace(), [4096], [TLBConfig(16)], cache=cache
    ),
    "multiprog": lambda cache: run_multiprogrammed(
        programs(),
        TLBConfig(16),
        quantum=500,
        switch_policy=ContextSwitchPolicy.FLUSH,
        cache=cache,
    ),
    "multiprog2": lambda cache: run_multiprogrammed_two_sizes(
        programs(),
        TLBConfig(16),
        scheme=TWO,
        quantum=500,
        switch_policy=ContextSwitchPolicy.ASID,
        cache=cache,
    ),
}

GOLDEN = {
    "single": "351ab4334d8363a0359f98001fcd9dc05925e307df13c386d6420a39b7fb4836",
    "policy": "6ccfecd92d86ff1c5ee59574b3bc470c05c309df33ccae8d3d418a9756342e1c",
    "split": "7351bc57ac8faefd978f206100b1e62e56d3fd34aff46ae34ab0c135ea4df14b",
    "twolevel": "823b4383de556f20853b074b252adfc738d71ba6074fe3ec30520adae2ae82df",
    "sweep": "aa8cf27143f095387744728f343fe9fb4878991d4f6160073586ab52b55ce44e",
    "multiprog": "5f0c118615ee81f8f4fc71379f5cb653d571c579f66e4058f749cc6ba99651af",
    "multiprog2": "748193fdddcc5129b05efd352a95974d7760cba8136e6231bb00b7f4a8b69e23",
    "study": "86c542e64c65fa9136a06177401cfc3ed70464cc448e5c85b4d67f17e264a2c6",
}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_result_key_is_pinned(kind, tmp_path, monkeypatch):
    if kind == "study":
        keys = study_run_ids(monkeypatch)
    else:
        cache = SimulationCache.open(tmp_path)
        CACHED[kind](cache)
        keys = sorted(path.stem for path in cache.root.glob("*/*.json"))
    assert keys == [GOLDEN[kind]]
