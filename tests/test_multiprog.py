"""Tests for the multiprogrammed TLB models, mixers, kernel and driver."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, TraceError
from repro.parallel.cache import SimulationCache
from repro.perf.kernels import KernelFallbackWarning
from repro.perf.multiprog import count_switches, multiprog_counts
from repro.robustness import faultinject
from repro.sim import (
    TLBConfig,
    TwoSizeScheme,
    run_multiprogrammed,
    run_multiprogrammed_two_sizes,
    sweep_multiprogrammed,
    sweep_multiprogrammed_two_sizes,
)
from repro.tlb import ContextSwitchPolicy, FullyAssociativeTLB, MultiprogrammedTLB
from repro.tlb.indexing import IndexingScheme
from repro.trace import Trace, interleave_with_contexts, round_robin_mix
from repro.types import PAGE_4KB

#: The Table 5.1 geometry families, restricted to single-size indexing.
GEOMETRIES = (
    TLBConfig(16),
    TLBConfig(32),
    TLBConfig(64),
    TLBConfig(16, associativity=2, scheme=IndexingScheme.SMALL_INDEX),
    TLBConfig(32, associativity=2, scheme=IndexingScheme.SMALL_INDEX),
    TLBConfig(64, associativity=4, scheme=IndexingScheme.SMALL_INDEX),
)


def reference_interleave(traces, quantum):
    """The original cursor-loop round-robin schedule, kept as an oracle."""
    address_parts, context_parts = [], []
    cursors = [0] * len(traces)
    remaining = sum(len(trace) for trace in traces)
    while remaining > 0:
        for index, trace in enumerate(traces):
            start = cursors[index]
            if start >= len(trace):
                continue
            stop = min(start + quantum, len(trace))
            address_parts.append(trace.addresses[start:stop])
            context_parts.append(np.full(stop - start, index))
            cursors[index] = stop
            remaining -= stop - start
    if not address_parts:
        return np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.int64)
    return np.concatenate(address_parts), np.concatenate(context_parts)


def trace_of_pages(pages, name="t"):
    return Trace(
        np.array(pages, dtype=np.uint32) * PAGE_4KB,
        name=name,
        refs_per_instruction=1.25,
    )


class TestMultiprogrammedTLB:
    def test_flush_policy_empties_on_switch(self):
        tlb = MultiprogrammedTLB(FullyAssociativeTLB(8), ContextSwitchPolicy.FLUSH)
        tlb.access_single(1)
        tlb.switch_to(1)
        assert not tlb.access_single(1)  # flushed
        assert tlb.switches == 1

    def test_asid_policy_keeps_entries_across_switches(self):
        tlb = MultiprogrammedTLB(FullyAssociativeTLB(8), ContextSwitchPolicy.ASID)
        tlb.access_single(1)
        tlb.switch_to(1)
        tlb.access_single(99)
        tlb.switch_to(0)
        assert tlb.access_single(1)  # survived both switches

    def test_asid_distinguishes_same_virtual_page(self):
        # Two contexts touching page 5 must not share an entry.
        tlb = MultiprogrammedTLB(FullyAssociativeTLB(8), ContextSwitchPolicy.ASID)
        assert not tlb.access_single(5)
        tlb.switch_to(1)
        assert not tlb.access_single(5)
        tlb.switch_to(0)
        assert tlb.access_single(5)

    def test_switch_to_same_asid_is_free(self):
        tlb = MultiprogrammedTLB(FullyAssociativeTLB(8), ContextSwitchPolicy.FLUSH)
        tlb.access_single(1)
        tlb.switch_to(0)
        assert tlb.switches == 0
        assert tlb.access_single(1)

    def test_negative_asid_rejected(self):
        tlb = MultiprogrammedTLB(FullyAssociativeTLB(8), ContextSwitchPolicy.ASID)
        with pytest.raises(ConfigurationError):
            tlb.switch_to(-1)

    def test_two_page_sizes_under_asid(self):
        tlb = MultiprogrammedTLB(FullyAssociativeTLB(8), ContextSwitchPolicy.ASID)
        tlb.access(40, 5, large=True)
        tlb.switch_to(1)
        assert not tlb.access(40, 5, large=True)
        tlb.switch_to(0)
        assert tlb.access(47, 5, large=True)


class TestInterleaveWithContexts:
    def test_contexts_follow_schedule(self):
        left = trace_of_pages([1, 2, 3, 4], name="L")
        right = trace_of_pages([9, 8], name="R")
        mixed, contexts = interleave_with_contexts([left, right], quantum=2)
        assert len(mixed) == 6
        assert contexts.tolist() == [0, 0, 1, 1, 0, 0]
        # Addresses are preserved, not offset.
        assert mixed.addresses[2] == 9 * PAGE_4KB

    def test_rejects_empty(self):
        with pytest.raises(TraceError):
            interleave_with_contexts([])

    def test_rejects_bad_quantum(self):
        with pytest.raises(TraceError):
            interleave_with_contexts([trace_of_pages([1])], quantum=0)


class TestRunMultiprogrammed:
    def make_traces(self):
        rng = np.random.default_rng(7)
        return [
            trace_of_pages(rng.integers(0, 12, size=5000), name=f"p{i}")
            for i in range(3)
        ]

    def test_asid_beats_flush(self):
        traces = self.make_traces()
        config = TLBConfig(32)
        flush = run_multiprogrammed(
            traces, config, quantum=500,
            switch_policy=ContextSwitchPolicy.FLUSH,
        )
        asid = run_multiprogrammed(
            traces, config, quantum=500,
            switch_policy=ContextSwitchPolicy.ASID,
        )
        assert flush.switches == asid.switches > 0
        assert asid.misses <= flush.misses

    def test_flush_misses_grow_as_quantum_shrinks(self):
        traces = self.make_traces()
        config = TLBConfig(32)
        short = run_multiprogrammed(
            traces, config, quantum=100,
            switch_policy=ContextSwitchPolicy.FLUSH,
        )
        long = run_multiprogrammed(
            traces, config, quantum=2500,
            switch_policy=ContextSwitchPolicy.FLUSH,
        )
        assert short.misses > long.misses

    def test_result_metrics(self):
        traces = self.make_traces()
        result = run_multiprogrammed(traces, TLBConfig(16), quantum=1000)
        assert result.references == 15_000
        assert result.cpi_tlb == pytest.approx(
            result.misses / (15_000 / 1.25) * 20.0
        )
        assert result.program_names == ("p0", "p1", "p2")

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            run_multiprogrammed([], TLBConfig(16))


class TestMixerEdgeCases:
    def test_all_empty_traces_yield_empty_mix(self):
        empties = [trace_of_pages([], name="a"), trace_of_pages([], name="b")]
        mixed, contexts = interleave_with_contexts(empties, quantum=5)
        assert len(mixed) == 0
        assert contexts.size == 0
        assert len(round_robin_mix(empties, quantum=5)) == 0

    def test_one_empty_trace_among_several(self):
        traces = [
            trace_of_pages([1, 2, 3], name="full"),
            trace_of_pages([], name="empty"),
            trace_of_pages([7, 8], name="tail"),
        ]
        mixed, contexts = interleave_with_contexts(traces, quantum=2)
        # The empty trace is never scheduled; the others interleave.
        assert contexts.tolist() == [0, 0, 2, 2, 0]
        assert (mixed.addresses // PAGE_4KB).tolist() == [1, 2, 7, 8, 3]

    def test_quantum_larger_than_every_trace(self):
        traces = [
            trace_of_pages([1, 2], name="a"),
            trace_of_pages([5], name="b"),
        ]
        mixed, contexts = interleave_with_contexts(traces, quantum=100)
        # One round: plain concatenation in input order.
        assert contexts.tolist() == [0, 0, 1]
        assert (mixed.addresses // PAGE_4KB).tolist() == [1, 2, 5]

    def test_unequal_lengths_match_reference_schedule(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            lengths = rng.integers(0, 60, size=rng.integers(1, 5))
            quantum = int(rng.integers(1, 70))
            traces = [
                trace_of_pages(
                    rng.integers(0, 50, size=length), name=f"t{index}"
                )
                for index, length in enumerate(lengths)
            ]
            mixed, contexts = interleave_with_contexts(
                traces, quantum=quantum
            )
            expected_addresses, expected_contexts = reference_interleave(
                traces, quantum
            )
            assert np.array_equal(mixed.addresses, expected_addresses)
            assert np.array_equal(contexts, expected_contexts)

    def test_round_robin_mix_offsets_by_context(self):
        traces = [
            trace_of_pages([1, 2, 3], name="a"),
            trace_of_pages([9], name="b"),
        ]
        stride = 1 << 28
        mixed = round_robin_mix(traces, quantum=2, context_stride=stride)
        expected = [
            1 * PAGE_4KB,
            2 * PAGE_4KB,
            9 * PAGE_4KB + stride,
            3 * PAGE_4KB,
        ]
        assert mixed.addresses.tolist() == expected

    def test_mix_rpi_aggregates_all_programs(self):
        traces = [
            trace_of_pages([1, 2, 3, 4], name="a"),
            trace_of_pages([5, 6], name="b"),
        ]
        mixed, _ = interleave_with_contexts(traces, quantum=3)
        assert mixed.refs_per_instruction == pytest.approx(1.25)


class TestSwitchCounting:
    def test_initial_context_nonzero_counts_a_switch(self):
        # The TLB starts in address space 0, so a mix whose first
        # reference is context 1 pays a switch before it runs.
        assert count_switches([1, 1, 0, 0]) == 2
        tlb = MultiprogrammedTLB(FullyAssociativeTLB(8), ContextSwitchPolicy.ASID)
        tlb.switch_to(1)
        assert tlb.switches == 1

    def test_initial_context_zero_is_free(self):
        assert count_switches([0, 0, 1, 1, 0]) == 2

    def test_empty_context_stream(self):
        assert count_switches([]) == 0

    def test_matches_scalar_driver(self):
        rng = np.random.default_rng(3)
        traces = [
            trace_of_pages(rng.integers(0, 9, size=40), name=f"p{i}")
            for i in range(3)
        ]
        _, contexts = interleave_with_contexts(traces, quantum=7)
        result = run_multiprogrammed(
            traces, TLBConfig(16), quantum=7, kernel="scalar"
        )
        assert result.switches == count_switches(contexts)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "scheme", [IndexingScheme.EXACT_INDEX, IndexingScheme.LARGE_INDEX]
    )
    def test_two_size_indexed_config_rejected(self, scheme):
        # access_single passes chunk=page, so a two-size indexing rule
        # would compute set bits from a bogus chunk number.
        traces = [trace_of_pages([1, 2, 3])]
        config = TLBConfig(16, associativity=2, scheme=scheme)
        with pytest.raises(ConfigurationError, match="single-page-size"):
            run_multiprogrammed(traces, config)

    def test_small_index_and_fa_accepted(self):
        traces = [trace_of_pages([1, 2, 3])]
        small = TLBConfig(
            16, associativity=2, scheme=IndexingScheme.SMALL_INDEX
        )
        run_multiprogrammed(traces, small)
        # Fully associative shapes never index, whatever the scheme says.
        run_multiprogrammed(traces, TLBConfig(16))


class TestVectorEquivalence:
    def fuzzed_mixes(self):
        rng = np.random.default_rng(29)
        for trial in range(4):
            footprint = int(rng.integers(8, 120))
            traces = [
                trace_of_pages(
                    rng.integers(0, footprint, size=int(rng.integers(0, 1500))),
                    name=f"p{i}",
                )
                for i in range(int(rng.integers(2, 4)))
            ]
            quantum = int(rng.integers(1, 900))
            yield traces, quantum

    def test_bit_exact_against_scalar_oracle(self):
        for traces, quantum in self.fuzzed_mixes():
            for policy in ContextSwitchPolicy:
                for config in GEOMETRIES:
                    kwargs = dict(quantum=quantum, switch_policy=policy)
                    scalar = run_multiprogrammed(
                        traces, config, kernel="scalar", **kwargs
                    )
                    vector = run_multiprogrammed(
                        traces, config, kernel="vector", **kwargs
                    )
                    assert vector.misses == scalar.misses
                    assert vector.switches == scalar.switches
                    assert vector.cpi_tlb == scalar.cpi_tlb
                    assert vector.references == scalar.references

    def test_vector_requires_lru(self):
        traces = [trace_of_pages([1, 2, 3])]
        config = TLBConfig(16, replacement="fifo")
        with pytest.raises(ConfigurationError):
            run_multiprogrammed(traces, config, kernel="vector")
        # "auto" falls back to the scalar oracle — loudly, with the
        # resolution recorded on the result.
        with pytest.warns(KernelFallbackWarning):
            auto = run_multiprogrammed(traces, config, kernel="auto")
        scalar = run_multiprogrammed(traces, config, kernel="scalar")
        assert auto == scalar  # audit fields excluded from equality
        assert auto.resolved_kernel == "scalar"
        assert auto.fallback_reason

    def test_kernel_rejects_mismatched_streams(self):
        with pytest.raises(ConfigurationError):
            multiprog_counts(
                [1, 2, 3], [0, 0], ContextSwitchPolicy.FLUSH, [TLBConfig(16)]
            )

    def test_kernel_rejects_asid_fold_overflow(self):
        with pytest.raises(ConfigurationError, match="ASID fold"):
            multiprog_counts(
                [1 << 26], [0], ContextSwitchPolicy.ASID, [TLBConfig(16)]
            )


class TestSweepMultiprogrammed:
    """The grid contract, for the one-size model.

    :class:`TestSweepMultiprogrammedTwoSizes` reruns every case against
    the two-size model through the hooks below.
    """

    CELL_SITE = "sim.multiprog.cell"

    def sweep(self, traces, configs, **kwargs):
        return sweep_multiprogrammed(traces, configs, **kwargs)

    def run(self, traces, config, **kwargs):
        return run_multiprogrammed(traces, config, **kwargs)

    def make_traces(self):
        rng = np.random.default_rng(17)
        return [
            trace_of_pages(rng.integers(0, 40, size=1200), name=f"p{i}")
            for i in range(3)
        ]

    def grid_kwargs(self):
        return dict(quanta=(150, 700), policies=tuple(ContextSwitchPolicy))

    def test_grid_matches_individual_runs(self):
        traces = self.make_traces()
        configs = (TLBConfig(16), TLBConfig(32))
        grid = self.sweep(traces, configs, **self.grid_kwargs())
        assert len(grid) == 2 * 2 * 2
        for (policy_value, quantum, label), result in grid.items():
            config = next(c for c in configs if c.label == label)
            solo = self.run(
                traces,
                config,
                quantum=quantum,
                switch_policy=ContextSwitchPolicy(policy_value),
            )
            assert solo.to_payload() == result.to_payload()

    @pytest.mark.parallel
    def test_parallel_grid_matches_serial(self):
        traces = self.make_traces()
        configs = (TLBConfig(16), TLBConfig(32))
        serial = self.sweep(traces, configs, **self.grid_kwargs())
        parallel = self.sweep(traces, configs, jobs=2, **self.grid_kwargs())
        assert {k: v.to_payload() for k, v in serial.items()} == {
            k: v.to_payload() for k, v in parallel.items()
        }

    def test_results_flow_through_cache(self, tmp_path):
        traces = self.make_traces()
        configs = (TLBConfig(16),)
        cache = SimulationCache.open(tmp_path)
        first = self.sweep(traces, configs, cache=cache, **self.grid_kwargs())
        assert cache.stats.stores == len(first)
        second = self.sweep(traces, configs, cache=cache, **self.grid_kwargs())
        assert cache.stats.hits == len(first)
        assert {k: v.to_payload() for k, v in first.items()} == {
            k: v.to_payload() for k, v in second.items()
        }
        # A single run shares the grid's cache entries.
        self.run(
            traces,
            configs[0],
            quantum=150,
            switch_policy=ContextSwitchPolicy.FLUSH,
            cache=cache,
        )
        assert cache.stats.hits == len(first) + 1

    def test_serial_cell_failure_propagates_unchanged(self):
        with faultinject.inject(
            faultinject.FaultPlan(times=1, sites=(self.CELL_SITE,))
        ) as plan:
            with pytest.raises(faultinject.TransientInjectedFault):
                self.sweep(self.make_traces(), (TLBConfig(16),))
        assert plan.triggered == 1

    def test_empty_grid_axes_rejected(self):
        traces = self.make_traces()
        with pytest.raises(ConfigurationError):
            self.sweep(traces, ())
        with pytest.raises(ConfigurationError):
            self.sweep(traces, (TLBConfig(16),), quanta=())
        with pytest.raises(ConfigurationError):
            self.sweep(traces, (TLBConfig(16),), policies=())


class TestSweepMultiprogrammedTwoSizes(TestSweepMultiprogrammed):
    """The same grid contract, for the two-size model.

    A short promotion window makes every program promote chunks within
    its 1200 references, so shootdowns are exercised too.
    """

    SCHEME = TwoSizeScheme(window=200)
    CELL_SITE = "sim.multiprog.cell_two_sizes"

    def sweep(self, traces, configs, **kwargs):
        return sweep_multiprogrammed_two_sizes(
            traces, configs, scheme=self.SCHEME, **kwargs
        )

    def run(self, traces, config, **kwargs):
        return run_multiprogrammed_two_sizes(
            traces, config, scheme=self.SCHEME, **kwargs
        )
