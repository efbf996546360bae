"""Tests for repro.pipeline: StencilProblem, compile() and the plan cache."""

import sys
from dataclasses import replace

import pytest

from repro.core import ranges as ranges_module
from repro.core.config import SmacheConfig
from repro.core.grid import IterationPattern
from repro.core.partition import StreamBufferMode
from repro.fpga.synthesis import synthesize_smache
from repro.pipeline import StencilProblem, compile, compile_batch
from repro.pipeline.cache import PlanCache


def count_partitions(monkeypatch) -> list:
    """Count ``partition_into_ranges`` calls under every name ``repro`` binds it to."""
    original = ranges_module.partition_into_ranges
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[:3])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "repro" and getattr(module, "partition_into_ranges", None) is original:
            monkeypatch.setattr(module, "partition_into_ranges", counted)
    return calls


@pytest.fixture
def paper_problem() -> StencilProblem:
    return StencilProblem.paper_example()


class TestStencilProblem:
    def test_from_config_round_trips(self, paper_config):
        problem = StencilProblem.from_config(paper_config)
        back = problem.to_config()
        assert back.grid == paper_config.grid
        assert back.stencil == paper_config.stencil
        assert back.boundary == paper_config.boundary
        assert back.mode == paper_config.mode
        assert back.name == paper_config.name

    def test_default_kernel_matches_stencil_points(self, paper_problem):
        kernel = paper_problem.effective_kernel
        assert kernel.name == "average"
        assert kernel.expected_points == paper_problem.stencil.n_points

    def test_cache_key_is_hashable_and_stable(self, paper_problem):
        assert hash(paper_problem.cache_key()) == hash(StencilProblem.paper_example().cache_key())

    def test_cache_key_distinguishes_modes(self, paper_problem):
        other = StencilProblem.paper_example(mode=StreamBufferMode.REGISTER_ONLY)
        assert paper_problem.cache_key() != other.cache_key()

    def test_describe_names_the_kernel(self, paper_problem):
        assert "average" in paper_problem.describe()

    def test_problem_with_dict_backed_kernel_is_hashable(self):
        # Regression: WeightedKernel carries a dict field; the problem hash
        # must not include it (equality still does).
        from repro.reference.kernels import WeightedKernel

        problem = StencilProblem.paper_example(kernel=WeightedKernel.diffusion_2d(nu=0.2))
        assert isinstance(hash(problem), int)
        assert problem in {problem}
        assert hash(problem.cache_key()) == hash(
            StencilProblem.paper_example(kernel=WeightedKernel.diffusion_2d(nu=0.2)).cache_key()
        )


class TestCompile:
    def test_compile_matches_legacy_config_path(self, paper_config):
        design = compile(StencilProblem.from_config(paper_config), cache=None)
        legacy_plan = paper_config.plan()
        assert design.plan == legacy_plan
        assert design.partition == paper_config.partition(legacy_plan)
        assert design.cost == paper_config.cost_estimate(legacy_plan)

    def test_compile_carries_range_structure(self, paper_problem):
        design = compile(paper_problem, cache=None)
        assert design.n_cases == 9  # the paper's nine stencil cases
        assert design.n_ranges == len(design.ranges)
        assert design.ranges[0].start == 0

    def test_compile_accepts_plain_config(self, paper_config):
        design = compile(paper_config, cache=None)
        assert design.config.grid == paper_config.grid

    def test_describe_mentions_cases_and_cost(self, paper_problem):
        text = compile(paper_problem, cache=None).describe()
        assert "cases" in text and "memory cost" in text

    def test_subset_pattern_keeps_the_contiguous_synthesis_case_count(self, paper_problem):
        # Synthesis sizes the boundary-case decode on the contiguous stream,
        # even when the problem streams only a subset of the grid.
        pattern = IterationPattern.from_indices(paper_problem.grid, range(5 * 11))
        problem = replace(paper_problem, pattern=pattern)
        design = compile(problem, cache=None)
        assert design.n_cases == 6  # no bottom corners or bottom edge
        assert design.synthesis == synthesize_smache(
            design.config,
            plan=design.plan,
            partition=design.partition,
            kernel=problem.effective_kernel,
            n_cases=9,
        )
        assert design.synthesis != synthesize_smache(
            design.config,
            plan=design.plan,
            partition=design.partition,
            kernel=problem.effective_kernel,
            n_cases=design.n_cases,
        )


class TestCompileBatchGeometry:
    @staticmethod
    def problems():
        return [
            StencilProblem.paper_example(rows, cols, max_stream_reach=reach, mode=mode)
            for rows, cols in ((11, 11), (9, 13))
            for reach in (0, 2, 4, 8, None)
            for mode in (StreamBufferMode.HYBRID, StreamBufferMode.REGISTER_ONLY)
        ]

    @pytest.mark.parametrize("cache", [None, "fresh"])
    def test_one_partition_per_distinct_geometry(self, monkeypatch, cache):
        problems = self.problems()
        calls = count_partitions(monkeypatch)
        designs = compile_batch(problems, cache=PlanCache() if cache else None)
        assert len(calls) == 2  # two grids, ten reach x mode points each
        monkeypatch.undo()
        for problem, design in zip(problems, designs):
            assert design == compile(problem, cache=None)

    def test_designs_share_the_geometry_ranges(self):
        designs = compile_batch(self.problems(), cache=None)
        assert all(d.ranges is designs[0].ranges for d in designs[:10])
        assert designs[10].ranges is not designs[0].ranges

    def test_single_compile_partitions_once(self, monkeypatch, paper_problem):
        calls = count_partitions(monkeypatch)
        compile(paper_problem, cache=None)
        assert len(calls) == 1


class TestPlanCache:
    def test_second_compile_hits_the_cache(self, paper_problem):
        cache = PlanCache()
        first = compile(paper_problem, cache=cache)
        second = compile(StencilProblem.paper_example(), cache=cache)
        assert first is second
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1
        assert stats.hit_rate == 0.5

    def test_distinct_problems_occupy_distinct_entries(self):
        cache = PlanCache()
        compile(StencilProblem.paper_example(7, 9), cache=cache)
        compile(StencilProblem.paper_example(9, 11), cache=cache)
        assert len(cache) == 2

    def test_lru_eviction(self):
        cache = PlanCache(max_entries=2)
        a = StencilProblem.paper_example(7, 9)
        b = StencilProblem.paper_example(9, 11)
        c = StencilProblem.paper_example(11, 11)
        compile(a, cache=cache)
        compile(b, cache=cache)
        compile(c, cache=cache)  # evicts a
        assert len(cache) == 2
        assert cache.stats().evictions == 1
        assert cache.peek(a.cache_key()) is None
        assert cache.peek(c.cache_key()) is not None

    def test_clear_resets_counters(self, paper_problem):
        cache = PlanCache()
        compile(paper_problem, cache=cache)
        cache.clear()
        stats = cache.stats()
        assert len(cache) == 0
        assert stats.misses == 0 and stats.hits == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(max_entries=0)

    def test_cache_info_reports_hits_misses_and_sizes(self):
        cache = PlanCache(max_entries=8)
        info = cache.cache_info()
        assert info == (0, 0, 8, 0)
        compile(StencilProblem.paper_example(7, 9), cache=cache)
        compile(StencilProblem.paper_example(7, 9), cache=cache)
        compile(StencilProblem.paper_example(9, 11), cache=cache)
        info = cache.cache_info()
        assert info.hits == 1 and info.misses == 2
        assert info.maxsize == 8 and info.currsize == 2
        assert info.hit_rate == pytest.approx(1 / 3)

    def test_cache_none_bypasses(self, paper_problem):
        first = compile(paper_problem, cache=None)
        second = compile(paper_problem, cache=None)
        assert first is not second
        assert first.plan == second.plan
