"""Single-page-size configuration sweeps via stack simulation.

The paper simulated 84 TLB configurations per trace pass with ``tycho``'s
all-associativity simulation; this module is the equivalent convenience:
give it page sizes and TLB shapes, and it extracts every miss count from
one :mod:`repro.stacksim` pass per (page size, set count) family.

Set-index bits default to the low bits of the page number; an explicit
``index_shift`` lets the caller index 4KB pages by large-page (chunk)
bits — the degenerate "two-page-size hardware, no large pages allocated"
case of Table 5.1's second column.

A :class:`~repro.parallel.cache.SimulationCache` replays results
across runs: one pass is expensive, its results are precious, and only
stack passes with an uncached result run.  ``jobs`` fans independent
stack-pass families out as one
:func:`~repro.robustness.executor.run_passes` pass each; the workers
inherit the page-number arrays by fork, and results are still recorded
in serial order.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.mem.misshandler import SINGLE_SIZE_PENALTY_CYCLES
from repro.parallel.cache import SimulationCache, result_key
from repro.perf.kernels import KERNEL_AUTO, resolve_kernel
from repro.robustness import faultinject
from repro.robustness.executor import run_passes
from repro.sim.config import SingleSizeScheme, TLBConfig
from repro.sim.driver import RunResult
from repro.stacksim.lru_stack import (
    MissCurve,
    lru_miss_curve,
    per_set_miss_curve,
)
from repro.trace.record import Trace
from repro.types import log2_exact


def _group_by_sets(configs: Sequence[TLBConfig]) -> Dict[int, List[TLBConfig]]:
    """Group TLB shapes by set count; each group shares one stack pass."""
    by_sets: Dict[int, List[TLBConfig]] = {}
    for config in configs:
        sets = 1 if config.fully_associative else (
            config.entries // config.associativity
        )
        by_sets.setdefault(sets, []).append(config)
    return by_sets


def _family_depth(sets: int, group: Sequence[TLBConfig]) -> int:
    return max(
        config.entries if sets == 1 else config.entries // sets
        for config in group
    )


def _family_curve(
    pages: np.ndarray, index_shift: int, sets: int, depth: int, kernel: str
) -> MissCurve:
    """One stack pass covering every shape with this set count."""
    if sets == 1:
        return lru_miss_curve(pages, max_capacity=depth, kernel=kernel)
    indices = (pages >> np.uint32(index_shift)) & np.uint32(sets - 1)
    return per_set_miss_curve(
        indices, pages, max_associativity=depth, kernel=kernel
    )


def sweep_single_size(
    trace: Trace,
    page_sizes: Sequence[int],
    configs: Sequence[TLBConfig],
    *,
    base_penalty: float = SINGLE_SIZE_PENALTY_CYCLES,
    index_shift: int = 0,
    kernel: str = KERNEL_AUTO,
    cache: Optional[SimulationCache] = None,
    jobs: Optional[int] = None,
) -> Dict[Tuple[int, str], RunResult]:
    """Miss counts for every (page size, TLB shape) pair.

    Args:
        trace: the reference trace.
        page_sizes: page sizes to evaluate.
        configs: TLB shapes; those sharing a set count share one pass.
        base_penalty: per-miss cycles for CPI (20 in the paper).
        index_shift: extra right-shift applied to the page number before
            taking set-index bits (0 = conventional; 3 with 4KB pages =
            index by 32KB chunk bits).
        cache: optional content-addressed result cache; hits are
            replayed instead of re-simulated, fresh results are stored
            back.
        jobs: fan independent stack-pass families out over this many
            worker processes (``0`` = one per CPU; default serial).
            Results and cache contents are identical to a serial sweep.

    Returns:
        {(page_size, config.label): RunResult}
    """
    if not configs:
        raise ConfigurationError("sweep needs at least one TLBConfig")
    # Resolved before the key is built, so "auto" and an explicit
    # request share entries — they are the same computation.
    kernel = resolve_kernel(kernel)

    def key(page_size: int, config: TLBConfig) -> str:
        return result_key(
            "sweep",
            trace=trace.fingerprint,
            page_size=page_size,
            index_shift=index_shift,
            config=config.cache_parts(),
            base_penalty=base_penalty,
            kernel=kernel,
        )

    results: Dict[Tuple[int, str], RunResult] = {}
    # One stack pass per (page size, set count) family still to run.
    # The page arrays reach forked workers by inheritance, and results
    # — therefore the cache store order — follow the serial order.
    families = []
    for page_size in page_sizes:
        remaining: List[TLBConfig] = []
        for config in configs:
            payload = None if cache is None else cache.get(key(page_size, config))
            if payload is None:
                remaining.append(config)
            else:
                results[(page_size, config.label)] = RunResult.from_payload(
                    payload
                )
        if not remaining:
            continue
        faultinject.check("sim.sweep")
        pages = trace.addresses >> np.uint32(log2_exact(page_size))
        for sets, group in _group_by_sets(remaining).items():
            depth = _family_depth(sets, group)
            stack_pass = functools.partial(
                _family_curve, pages, index_shift, sets, depth, kernel
            )
            families.append((page_size, sets, group, stack_pass))
    curves = run_passes(
        [
            (f"sweep family {page_size}/sets{sets}", stack_pass)
            for page_size, sets, _group, stack_pass in families
        ],
        jobs=jobs,
    )
    for (page_size, sets, group, _pass), curve in zip(families, curves):
        for config in group:
            ways = config.entries if sets == 1 else config.entries // sets
            result = RunResult(
                trace_name=trace.name,
                scheme_label=SingleSizeScheme(page_size).label,
                config=config,
                references=len(trace),
                misses=curve.misses(ways),
                large_misses=0,
                reprobes=0,
                invalidations=0,
                promotions=0,
                demotions=0,
                refs_per_instruction=trace.refs_per_instruction,
                miss_penalty_cycles=base_penalty,
                resolved_kernel=kernel,
            )
            results[(page_size, config.label)] = result
            if cache is not None:
                cache.put(key(page_size, config), result.to_payload())
    return results
