"""Multiprogrammed simulation driver (flush vs ASID context handling).

Runs several programs' traces through one TLB with round-robin
scheduling, under either context-switch policy of
:mod:`repro.tlb.context`.  This is the experiment the paper's traces
could not support (Sections 3.1, 6); results are labelled beyond-paper.

Two models share one grid loop, :func:`_sweep_grid`: it probes the
content-addressed result cache per (quantum, policy, configuration),
builds each quantum's interleaving exactly once, evaluates every
uncached geometry of a (quantum, policy) cell from one pass, fans the
cells out via :func:`repro.robustness.executor.run_passes` and stores
the results in serial order.  :func:`sweep_multiprogrammed` (kind
``"multiprog"``) runs one page size on the epoch-segmented stack-depth
kernel (:mod:`repro.perf.multiprog`);
:func:`sweep_multiprogrammed_two_sizes` (kind ``"multiprog2"``) gives
each program its own promotion policy and runs the composed kernel
(:mod:`repro.perf.multiprog_twosize`).  A model supplies only its key
parts, validation, per-mix inputs, cell counters and result type.
:func:`run_multiprogrammed` and :func:`run_multiprogrammed_two_sizes`
are the single-cell cases.  The scalar
:class:`~repro.tlb.context.MultiprogrammedTLB` walks remain the
reference oracles behind ``kernel="scalar"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.mem.misshandler import (
    SINGLE_SIZE_PENALTY_CYCLES,
    TWO_SIZE_PENALTY_FACTOR,
)
from repro.metrics.cpi import TLBPerformance
from repro.parallel.cache import SimulationCache, result_key
from repro.perf.kernels import KERNEL_AUTO, KERNEL_VECTOR, choose_kernel
from repro.perf.multiprog import (
    MultiprogCounts,
    multiprog_counts,
    validate_multiprog_config,
)
from repro.perf.multiprog_twosize import (
    MultiprogTwoSizeCounts,
    fold_event_chunks,
    multiprog_two_size_counts,
)
from repro.policy.vector import PolicyDecisions, policy_decisions
from repro.robustness import faultinject
from repro.robustness.executor import run_passes
from repro.sim.config import TLBConfig, TwoSizeScheme
from repro.tlb.context import ContextSwitchPolicy, MultiprogrammedTLB
from repro.trace.mix import interleave_with_contexts
from repro.trace.record import Trace
from repro.types import log2_exact

#: Sweep result key: (policy value, quantum, config label).
SweepKey = Tuple[str, int, str]


class _MixResult:
    """The CPI view and cache payload both multiprogrammed results share.

    ``_INTEGERS`` names the integer fields; a model extends it with its
    own counters.
    """

    _INTEGERS: Tuple[str, ...] = ("quantum", "references", "misses", "switches")

    @property
    def performance(self) -> TLBPerformance:
        return TLBPerformance(
            misses=self.misses,
            references=self.references,
            refs_per_instruction=self.refs_per_instruction,
            miss_penalty_cycles=self.miss_penalty_cycles,
        )

    @property
    def cpi_tlb(self) -> float:
        return self.performance.cpi_tlb

    def to_payload(self) -> Dict[str, Any]:
        """JSON-serializable form, for the result cache."""
        return {
            "program_names": list(self.program_names),
            "switch_policy": self.switch_policy.value,
            "refs_per_instruction": float(self.refs_per_instruction),
            "miss_penalty_cycles": float(self.miss_penalty_cycles),
            "resolved_kernel": self.resolved_kernel,
            "fallback_reason": self.fallback_reason,
            **{name: int(getattr(self, name)) for name in self._INTEGERS},
        }

    @classmethod
    def _decode(cls, payload: Dict[str, Any], **extra: Any):
        return cls(
            program_names=tuple(payload["program_names"]),
            switch_policy=ContextSwitchPolicy(payload["switch_policy"]),
            refs_per_instruction=float(payload["refs_per_instruction"]),
            miss_penalty_cycles=float(payload["miss_penalty_cycles"]),
            resolved_kernel=payload.get("resolved_kernel"),
            fallback_reason=payload.get("fallback_reason"),
            **{name: int(payload[name]) for name in cls._INTEGERS},
            **extra,
        )


@dataclass(frozen=True)
class MultiprogramResult(_MixResult):
    """Outcome of one multiprogrammed run.

    Attributes:
        program_names: the mixed programs.
        switch_policy: FLUSH or ASID.
        quantum: scheduling quantum in references.
        references: total references simulated.
        misses: TLB misses.
        switches: context switches performed.
        refs_per_instruction: the mix's aggregate RPI.
        miss_penalty_cycles: penalty used for CPI.
        resolved_kernel / fallback_reason: audit trail of the kernel
            switch (excluded from equality so oracle comparisons hold).
    """

    program_names: Sequence[str]
    switch_policy: ContextSwitchPolicy
    quantum: int
    references: int
    misses: int
    switches: int
    refs_per_instruction: float
    miss_penalty_cycles: float
    resolved_kernel: Optional[str] = field(
        default=None, compare=False, repr=False
    )
    fallback_reason: Optional[str] = field(
        default=None, compare=False, repr=False
    )

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "MultiprogramResult":
        """Rebuild a result stored by :meth:`to_payload`."""
        return cls._decode(payload)


def run_multiprogrammed(
    traces: Sequence[Trace],
    config: TLBConfig,
    *,
    quantum: int = 20_000,
    switch_policy: ContextSwitchPolicy = ContextSwitchPolicy.ASID,
    page_size: int = 4096,
    base_penalty: float = SINGLE_SIZE_PENALTY_CYCLES,
    kernel: str = KERNEL_AUTO,
    cache: Optional[SimulationCache] = None,
) -> MultiprogramResult:
    """Simulate a round-robin multiprogrammed mix on one TLB.

    The single-cell case of :func:`sweep_multiprogrammed`: same kernel
    switch, same validation, same cache entries — a later grid sweep
    reuses anything computed here and vice versa.
    """
    results = sweep_multiprogrammed(
        traces,
        (config,),
        quanta=(quantum,),
        policies=(switch_policy,),
        page_size=page_size,
        base_penalty=base_penalty,
        kernel=kernel,
        cache=cache,
    )
    return results[(switch_policy.value, quantum, config.label)]


def sweep_multiprogrammed(
    traces: Sequence[Trace],
    configs: Sequence[TLBConfig],
    *,
    quanta: Sequence[int] = (20_000,),
    policies: Sequence[ContextSwitchPolicy] = (
        ContextSwitchPolicy.FLUSH,
        ContextSwitchPolicy.ASID,
    ),
    page_size: int = 4096,
    base_penalty: float = SINGLE_SIZE_PENALTY_CYCLES,
    kernel: str = KERNEL_AUTO,
    cache: Optional[SimulationCache] = None,
    jobs: Optional[int] = None,
) -> Dict[SweepKey, MultiprogramResult]:
    """One-pass quantum x policy x geometry grid over a program mix.

    Each quantum's interleaving is built exactly once (vectorized
    round-robin mixer) and shared by both policies; each (quantum,
    policy) cell serves *every* geometry from a single epoch-segmented
    kernel pass (or, under ``kernel="scalar"``, one oracle walk driving
    all cell TLBs).  Cached cells are skipped per configuration —
    entries share the ``"multiprog"`` cache kind with
    :func:`run_multiprogrammed`.  ``jobs`` fans the cells out over
    forked workers (the parent-built mixes are inherited through the
    fork); see :func:`_sweep_grid` for the shared loop.

    Returns a dict keyed by ``(policy.value, quantum, config.label)``.
    """
    faultinject.check("sim.multiprog.sweep")

    def pages(mixed: Trace, _contexts: np.ndarray) -> np.ndarray:
        shift = np.uint32(log2_exact(page_size))
        return np.asarray(mixed.addresses >> shift, dtype=np.int64)

    return _sweep_grid(
        "sweep_multiprogrammed",
        traces,
        configs,
        quanta,
        policies,
        kind="multiprog",
        key_parts={"page_size": page_size},
        validate=validate_multiprog_config,
        inputs=pages,
        vector_counts=multiprog_counts,
        scalar_counts=_scalar_counts,
        cell_site="sim.multiprog.cell",
        make_result=lambda common, _pages, _config, count: MultiprogramResult(
            **common,
            misses=count.misses,
            switches=count.switches,
            miss_penalty_cycles=base_penalty,
        ),
        decode=lambda payload, _config: MultiprogramResult.from_payload(payload),
        base_penalty=base_penalty,
        kernel=kernel,
        cache=cache,
        jobs=jobs,
    )


def _sweep_grid(
    caller: str,
    traces: Sequence[Trace],
    configs: Sequence[TLBConfig],
    quanta: Sequence[int],
    policies: Sequence[ContextSwitchPolicy],
    *,
    kind: str,
    key_parts: Dict[str, Any],
    validate: Optional[Callable[[TLBConfig], None]],
    inputs: Callable[[Trace, np.ndarray], Any],
    vector_counts: Callable[..., Sequence[Any]],
    scalar_counts: Callable[..., Sequence[Any]],
    cell_site: str,
    make_result: Callable[..., Any],
    decode: Callable[[Dict[str, Any], TLBConfig], Any],
    base_penalty: float,
    kernel: str,
    cache: Optional[SimulationCache],
    jobs: Optional[int],
) -> Dict[SweepKey, Any]:
    """The quantum x policy x geometry loop both models share.

    Probes the cache for every (quantum, policy, config); builds each
    needed quantum's mix once, in the parent, so forked cell workers
    inherit it; runs one pass per (quantum, policy) cell over that
    cell's uncached configs; then stores and decodes the results in
    serial order.  A failed cell raises as
    :func:`~repro.robustness.executor.run_passes` describes.

    The model supplies only what differs: its cache ``kind`` and extra
    ``key_parts``, a config check ``validate`` (or None), the per-mix
    ``inputs`` built from the interleaved trace and its context stream,
    the vector and scalar cell counters (``(inputs, contexts, policy,
    configs) -> counts``), its cell fault site, ``make_result``
    (``(common fields, inputs, config, counts) -> result``) and
    ``decode`` (``(payload, config) -> result``).
    """
    if not traces:
        raise ConfigurationError("need at least one trace to mix")
    for axis, values in (
        ("TLBConfig", configs),
        ("quantum", quanta),
        ("switch policy", policies),
    ):
        if not values:
            raise ConfigurationError(f"{caller} needs at least one {axis}")
    if validate is not None:
        for config in configs:
            validate(config)
    choice = choose_kernel(
        kernel,
        vector_supported=all(
            config.replacement == "lru" for config in configs
        ),
        reason="non-LRU replacement breaks the epoch-segmented stack identity",
    )
    counts = vector_counts if choice.kernel == KERNEL_VECTOR else scalar_counts

    results: Dict[SweepKey, Any] = {}
    # (quantum, policy) -> [(config, cache key or None), ...] still to run.
    pending: Dict[Tuple[int, ContextSwitchPolicy], List[Any]] = {}
    for quantum in quanta:
        for policy in policies:
            for config in configs:
                key: Optional[str] = None
                if cache is not None:
                    key = result_key(
                        kind,
                        traces=[t.fingerprint for t in traces],
                        quantum=quantum,
                        policy=policy.value,
                        config=config.cache_parts(),
                        base_penalty=base_penalty,
                        kernel=choice.kernel,
                        **key_parts,
                    )
                    payload = cache.get(key)
                    if payload is not None:
                        results[(policy.value, quantum, config.label)] = (
                            decode(payload, config)
                        )
                        continue
                pending.setdefault((quantum, policy), []).append(
                    (config, key)
                )

    # Each needed mix is built once, in the parent: forked cell workers
    # inherit the arrays instead of rebuilding them.
    mixes: Dict[int, Tuple[Trace, np.ndarray, Any]] = {}
    for quantum, _policy in pending:
        if quantum not in mixes:
            mixed, contexts = interleave_with_contexts(traces, quantum=quantum)
            mixes[quantum] = (mixed, contexts, inputs(mixed, contexts))
    program_names = tuple(trace.name for trace in traces)

    def cell(quantum: int, policy: ContextSwitchPolicy, entries: List[Any]):
        def run_cell() -> List[Dict[str, Any]]:
            faultinject.check(cell_site)
            mixed, contexts, data = mixes[quantum]
            cell_configs = [config for config, _key in entries]
            common = dict(
                program_names=program_names,
                switch_policy=policy,
                quantum=quantum,
                references=len(mixed),
                refs_per_instruction=mixed.refs_per_instruction,
                resolved_kernel=choice.kernel,
                fallback_reason=choice.fallback_reason,
            )
            return [
                make_result(common, data, config, count).to_payload()
                for config, count in zip(
                    cell_configs, counts(data, contexts, policy, cell_configs)
                )
            ]

        return run_cell

    cells = list(pending.items())
    outputs = run_passes(
        [
            (f"{kind} cell q{quantum}/{policy.value}", cell(quantum, policy, entries))
            for (quantum, policy), entries in cells
        ],
        jobs=jobs,
    )
    for ((quantum, policy), entries), payloads in zip(cells, outputs):
        for (config, key), payload in zip(entries, payloads):
            if key is not None:
                cache.put(key, payload)
            results[(policy.value, quantum, config.label)] = decode(
                payload, config
            )
    return results


def _scalar_counts(
    pages: np.ndarray,
    contexts: np.ndarray,
    policy: ContextSwitchPolicy,
    configs: Sequence[TLBConfig],
) -> List[MultiprogCounts]:
    """Reference oracle: stateful multiprogrammed TLB walks, one pass.

    Every configuration's TLB sees the identical reference and switch
    stream, so one walk of the mix drives them all — the scalar analogue
    of the kernel's one-pass-many-geometries contract.
    """
    tlbs = [MultiprogrammedTLB(config.build(), policy) for config in configs]
    current = -1
    for page, context in zip(pages.tolist(), contexts.tolist()):
        if context != current:
            for tlb in tlbs:
                tlb.switch_to(context)
            current = context
        for tlb in tlbs:
            tlb.access_single(page)
    return [
        MultiprogCounts(misses=tlb.stats.misses, switches=tlb.switches)
        for tlb in tlbs
    ]


@dataclass(frozen=True)
class TwoSizeMultiprogramResult(_MixResult):
    """Outcome of one multiprogrammed *two-page-size* run.

    Extends :class:`MultiprogramResult`'s counters with the two-size
    accounting: each program runs its own dynamic promotion policy (the
    per-address-space assignment design of Section 6), and the TLB
    additionally reports large-page misses, sequential reprobes and
    shootdown invalidations.
    """

    program_names: Sequence[str]
    switch_policy: ContextSwitchPolicy
    quantum: int
    config: TLBConfig
    references: int
    misses: int
    large_misses: int
    reprobes: int
    invalidations: int
    promotions: int
    demotions: int
    switches: int
    refs_per_instruction: float
    miss_penalty_cycles: float
    resolved_kernel: Optional[str] = field(
        default=None, compare=False, repr=False
    )
    fallback_reason: Optional[str] = field(
        default=None, compare=False, repr=False
    )

    _INTEGERS = _MixResult._INTEGERS + (
        "large_misses",
        "reprobes",
        "invalidations",
        "promotions",
        "demotions",
    )

    def to_payload(self) -> Dict[str, Any]:
        """JSON-serializable form, for the result cache."""
        return {**super().to_payload(), "config": self.config.cache_parts()}

    @classmethod
    def from_payload(
        cls, payload: Dict[str, Any], config: TLBConfig
    ) -> "TwoSizeMultiprogramResult":
        """Rebuild a result stored by :meth:`to_payload`."""
        return cls._decode(payload, config=config)


def _composed_decisions(
    blocks: np.ndarray,
    contexts: np.ndarray,
    scheme: TwoSizeScheme,
    num_programs: int,
    blocks_shift: int,
) -> PolicyDecisions:
    """Interleave per-program policy decision streams into one.

    Each program's fresh policy replays over *its own* block
    subsequence (policies are per-address-space software state and see
    nothing across switches); the promoted/demoted chunk columns are
    folded into the program's private namespace so the composed event
    plan keeps the state machines independent.
    """
    n = int(blocks.size)
    large = np.zeros(n, dtype=bool)
    promoted = np.full(n, -1, dtype=np.int64)
    demoted = np.full(n, -1, dtype=np.int64)
    promotions = demotions = 0
    for ctx in range(num_programs):
        idx = np.flatnonzero(contexts == ctx)
        if idx.size == 0:
            continue
        d = policy_decisions(scheme.fresh_policy(), blocks[idx])
        large[idx] = d.large
        promoted[idx] = fold_event_chunks(ctx, d.promoted, blocks_shift)
        demoted[idx] = fold_event_chunks(ctx, d.demoted, blocks_shift)
        promotions += d.promotions
        demotions += d.demotions
    return PolicyDecisions(
        large=large,
        promoted=promoted,
        demoted=demoted,
        promotions=promotions,
        demotions=demotions,
    )


def run_multiprogrammed_two_sizes(
    traces: Sequence[Trace],
    config: TLBConfig,
    *,
    scheme: TwoSizeScheme = TwoSizeScheme(),
    quantum: int = 20_000,
    switch_policy: ContextSwitchPolicy = ContextSwitchPolicy.ASID,
    base_penalty: float = SINGLE_SIZE_PENALTY_CYCLES,
    penalty_factor: float = TWO_SIZE_PENALTY_FACTOR,
    kernel: str = KERNEL_AUTO,
    cache: Optional[SimulationCache] = None,
) -> TwoSizeMultiprogramResult:
    """Simulate a multiprogrammed mix under the two-page-size scheme.

    The single-cell case of :func:`sweep_multiprogrammed_two_sizes`.
    """
    results = sweep_multiprogrammed_two_sizes(
        traces,
        (config,),
        scheme=scheme,
        quanta=(quantum,),
        policies=(switch_policy,),
        base_penalty=base_penalty,
        penalty_factor=penalty_factor,
        kernel=kernel,
        cache=cache,
    )
    return results[(switch_policy.value, quantum, config.label)]


def sweep_multiprogrammed_two_sizes(
    traces: Sequence[Trace],
    configs: Sequence[TLBConfig],
    *,
    scheme: TwoSizeScheme = TwoSizeScheme(),
    quanta: Sequence[int] = (20_000,),
    policies: Sequence[ContextSwitchPolicy] = (
        ContextSwitchPolicy.FLUSH,
        ContextSwitchPolicy.ASID,
    ),
    base_penalty: float = SINGLE_SIZE_PENALTY_CYCLES,
    penalty_factor: float = TWO_SIZE_PENALTY_FACTOR,
    kernel: str = KERNEL_AUTO,
    cache: Optional[SimulationCache] = None,
    jobs: Optional[int] = None,
) -> Dict[SweepKey, TwoSizeMultiprogramResult]:
    """Quantum x policy x geometry grid of multiprogrammed two-size runs.

    Each program runs its *own* dynamic promotion policy built from
    ``scheme`` — the per-address-space page-size assignment the paper's
    Section 6 leaves to the OS.  The vector path composes the
    per-program decision streams once per quantum and hands every
    (policy, geometry) cell to the composed kernel
    (:mod:`repro.perf.multiprog_twosize`); the scalar oracle walks
    :class:`~repro.tlb.context.MultiprogrammedTLB` wrappers with
    per-program policy objects and forwarded shootdowns.  Cell fan-out,
    failure handling and caching (kind ``"multiprog2"``) are
    :func:`sweep_multiprogrammed`'s: both run :func:`_sweep_grid`.

    Returns a dict keyed by ``(policy.value, quantum, config.label)``.
    """
    faultinject.check("sim.multiprog.sweep_two_sizes")
    pair = scheme.pair
    blocks_shift = log2_exact(pair.blocks_per_chunk)
    penalty = base_penalty * penalty_factor

    def blocks_and_decisions(mixed: Trace, contexts: np.ndarray):
        shift = np.uint32(pair.small_shift)
        blocks = np.asarray(mixed.addresses >> shift, dtype=np.int64)
        return blocks, _composed_decisions(
            blocks, contexts, scheme, len(traces), blocks_shift
        )

    def vector_counts(data, contexts, policy, cell_configs):
        blocks, decisions = data
        return multiprog_two_size_counts(
            blocks, contexts, blocks_shift, decisions, policy, cell_configs
        )

    def scalar_counts(data, contexts, policy, cell_configs):
        return _scalar_two_size_counts(
            data[0], contexts, scheme, policy, cell_configs
        )

    def make_result(common, data, config, count):
        decisions = data[1]
        return TwoSizeMultiprogramResult(
            **common,
            config=config,
            misses=count.misses,
            large_misses=count.large_misses,
            reprobes=count.reprobes,
            invalidations=count.invalidations,
            promotions=decisions.promotions,
            demotions=decisions.demotions,
            switches=count.switches,
            miss_penalty_cycles=penalty,
        )

    return _sweep_grid(
        "sweep_multiprogrammed_two_sizes",
        traces,
        configs,
        quanta,
        policies,
        kind="multiprog2",
        key_parts={
            "scheme": scheme.fresh_policy().cache_token(),
            "penalty_factor": penalty_factor,
        },
        validate=None,
        inputs=blocks_and_decisions,
        vector_counts=vector_counts,
        scalar_counts=scalar_counts,
        cell_site="sim.multiprog.cell_two_sizes",
        make_result=make_result,
        decode=TwoSizeMultiprogramResult.from_payload,
        base_penalty=base_penalty,
        kernel=kernel,
        cache=cache,
        jobs=jobs,
    )


def _scalar_two_size_counts(
    blocks: np.ndarray,
    contexts: np.ndarray,
    scheme: TwoSizeScheme,
    policy: ContextSwitchPolicy,
    configs: Sequence[TLBConfig],
) -> List[MultiprogTwoSizeCounts]:
    """Reference oracle: per-program policies, forwarded shootdowns.

    One walk drives all configurations' TLBs.  At each reference the
    operation order matches the kernel's model: switch to the
    reference's context, apply the issuing program's shootdowns
    (demote, then promote), then access.
    """
    pair = scheme.pair
    blocks_shift = log2_exact(pair.blocks_per_chunk)
    blocks_per_chunk = pair.blocks_per_chunk
    num_programs = int(contexts.max()) + 1 if contexts.size else 0
    policies = [scheme.fresh_policy() for _ in range(num_programs)]
    tlbs = [MultiprogrammedTLB(config.build(), policy) for config in configs]
    current = -1
    for block, context in zip(blocks.tolist(), contexts.tolist()):
        if context != current:
            for tlb in tlbs:
                tlb.switch_to(context)
            current = context
        decision = policies[context].access_block(block)
        promoted = decision.promoted_chunk
        demoted = decision.demoted_chunk
        if promoted is not None or demoted is not None:
            for tlb in tlbs:
                if demoted is not None:
                    tlb.invalidate_large_page(demoted)
                if promoted is not None:
                    tlb.invalidate_small_pages_of_chunk(
                        promoted, blocks_per_chunk
                    )
        chunk = block >> blocks_shift
        large = decision.large
        for tlb in tlbs:
            tlb.access(block, chunk, large)
    return [
        MultiprogTwoSizeCounts(
            misses=tlb.stats.misses,
            large_misses=tlb.stats.large_misses,
            reprobes=tlb.stats.reprobes,
            invalidations=tlb.stats.invalidations,
            switches=tlb.switches,
        )
        for tlb in tlbs
    ]
