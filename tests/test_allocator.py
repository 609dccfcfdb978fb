"""Tests for the MMKP allocator (Eq. 1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocator import (
    AllocationRequest,
    GreedyAllocator,
    LagrangianAllocator,
)
from repro.core.operating_point import OperatingPoint
from repro.core.resource_vector import ErvLayout, ExtendedResourceVector
from repro.platform.topology import raptor_lake_i9_13900k


def _point(layout, utility, power, **erv_counts):
    return OperatingPoint(
        erv=layout.make(**erv_counts), utility=utility, power=power,
        measured=True, samples=1,
    )


@pytest.fixture
def allocator(intel, intel_layout):
    return LagrangianAllocator(intel, intel_layout)


class TestSingleApplication:
    def test_picks_min_cost_point(self, allocator, intel_layout):
        points = [
            _point(intel_layout, utility=10.0, power=100.0, P2=8),  # ζ=100
            _point(intel_layout, utility=5.0, power=10.0, E=8),     # ζ=40
        ]
        result = allocator.allocate(
            [AllocationRequest(pid=1, points=points, max_utility=10.0)]
        )
        assert result.erv_of(1) == intel_layout.make(E=8)
        assert result.feasible

    def test_placement_covers_requested_threads(self, allocator, intel_layout):
        points = [_point(intel_layout, 10.0, 50.0, P1=2, P2=1, E=3)]
        result = allocator.allocate(
            [AllocationRequest(pid=1, points=points, max_utility=10.0)]
        )
        sel = result.selections[1]
        # 2 P cores at 1 thread + 1 P core at 2 threads + 3 E cores.
        assert len(sel.hw_threads) == 2 + 2 + 3

    def test_hysteresis_keeps_near_tied_current_point(self, allocator, intel_layout):
        current = intel_layout.make(P2=8)
        points = [
            _point(intel_layout, utility=10.0, power=100.0, P2=8),
            _point(intel_layout, utility=10.0, power=95.0, E=8),
        ]
        result = allocator.allocate(
            [
                AllocationRequest(
                    pid=1, points=points, max_utility=10.0,
                    preferred_erv=current,
                )
            ]
        )
        assert result.erv_of(1) == current

    def test_hysteresis_does_not_block_clear_wins(self, allocator, intel_layout):
        current = intel_layout.make(P2=8)
        points = [
            _point(intel_layout, utility=10.0, power=100.0, P2=8),
            _point(intel_layout, utility=10.0, power=20.0, E=8),
        ]
        result = allocator.allocate(
            [AllocationRequest(pid=1, points=points, max_utility=10.0,
                               preferred_erv=current)]
        )
        assert result.erv_of(1) == intel_layout.make(E=8)


class TestMultiApplication:
    def test_two_apps_get_disjoint_cores(self, allocator, intel_layout):
        points_a = [_point(intel_layout, 10.0, 60.0, P2=8)]
        points_b = [_point(intel_layout, 6.0, 30.0, E=16)]
        result = allocator.allocate(
            [
                AllocationRequest(pid=1, points=points_a, max_utility=10.0),
                AllocationRequest(pid=2, points=points_b, max_utility=6.0),
            ]
        )
        a = result.selections[1].hw_threads
        b = result.selections[2].hw_threads
        assert a and b and not (a & b)

    def test_contention_resolved_by_repair(self, allocator, intel_layout):
        # Both prefer all E-cores, but only one can have them.
        points = lambda: [
            _point(intel_layout, 6.0, 30.0, E=16),   # cheap
            _point(intel_layout, 10.0, 80.0, P2=8),  # fallback
        ]
        result = allocator.allocate(
            [
                AllocationRequest(pid=1, points=points(), max_utility=10.0),
                AllocationRequest(pid=2, points=points(), max_utility=10.0),
            ]
        )
        ervs = {result.erv_of(1), result.erv_of(2)}
        assert ervs == {intel_layout.make(E=16), intel_layout.make(P2=8)}
        assert result.feasible

    def test_mandatory_requests_never_downgraded(self, allocator, intel_layout):
        fair = _point(intel_layout, 1.0, 1.0, P2=4, E=8)
        big = [
            _point(intel_layout, 10.0, 50.0, P2=8, E=16),
            _point(intel_layout, 5.0, 25.0, P2=4, E=8),
        ]
        result = allocator.allocate(
            [
                AllocationRequest(pid=1, points=[fair], mandatory=True),
                AllocationRequest(pid=2, points=big, max_utility=10.0),
            ]
        )
        assert result.erv_of(1) == intel_layout.make(P2=4, E=8)
        # The flexible app had to shrink around the mandatory share.
        assert result.erv_of(2) == intel_layout.make(P2=4, E=8)

    def test_co_allocation_when_oversubscribed(self, allocator, intel_layout):
        # Three apps each demanding every E-core: two must co-allocate.
        requests = [
            AllocationRequest(
                pid=i,
                points=[_point(intel_layout, 5.0, 20.0, E=16)],
                max_utility=5.0,
                mandatory=True,
            )
            for i in range(3)
        ]
        result = allocator.allocate(requests)
        co = [s for s in result.selections.values() if s.co_allocated]
        assert co
        assert not result.feasible
        for sel in result.selections.values():
            assert sel.hw_threads  # everyone still runs somewhere

    def test_empty_requests(self, allocator):
        result = allocator.allocate([])
        assert result.selections == {}
        assert result.feasible


class TestGreedyAllocator:
    def test_greedy_matches_lagrangian_on_easy_case(self, intel, intel_layout):
        greedy = GreedyAllocator(intel, intel_layout)
        points = [
            _point(intel_layout, 10.0, 100.0, P2=8),
            _point(intel_layout, 5.0, 10.0, E=8),
        ]
        result = greedy.allocate(
            [AllocationRequest(pid=1, points=points, max_utility=10.0)]
        )
        assert result.erv_of(1) == intel_layout.make(E=8)

    def test_greedy_respects_capacity_via_repair(self, intel, intel_layout):
        greedy = GreedyAllocator(intel, intel_layout)
        points = lambda: [
            _point(intel_layout, 6.0, 30.0, E=16),
            _point(intel_layout, 10.0, 80.0, P2=8),
        ]
        result = greedy.allocate(
            [
                AllocationRequest(pid=1, points=points(), max_utility=10.0),
                AllocationRequest(pid=2, points=points(), max_utility=10.0),
            ]
        )
        demand_e = sum(
            s.point.erv.cores_of_type("E") for s in result.selections.values()
        )
        assert demand_e <= 16


_LAYOUT = ErvLayout(raptor_lake_i9_13900k())


@st.composite
def _request(draw, pid):
    n_points = draw(st.integers(1, 5))
    points = []
    for _ in range(n_points):
        p1 = draw(st.integers(0, 4))
        p2 = draw(st.integers(0, 4))
        e = draw(st.integers(0, 8))
        if p1 + p2 == 0 and e == 0:
            e = 1
        points.append(
            OperatingPoint(
                erv=ExtendedResourceVector(_LAYOUT, (p1, p2, e)),
                utility=draw(st.floats(0.1, 20.0)),
                power=draw(st.floats(1.0, 200.0)),
                measured=True,
                samples=1,
            )
        )
    return AllocationRequest(pid=pid, points=points, max_utility=20.0)


class TestAllocatorProperties:
    @given(st.lists(st.integers(), min_size=1, max_size=4).flatmap(
        lambda pids: st.tuples(*[_request(pid=i) for i in range(len(pids))])
    ))
    @settings(max_examples=40, deadline=None)
    def test_placements_disjoint_unless_co_allocated(self, requests):
        allocator = LagrangianAllocator(_LAYOUT.platform, _LAYOUT)
        result = allocator.allocate(list(requests))
        used = set()
        for sel in result.selections.values():
            if sel.co_allocated:
                continue
            assert not (sel.hw_threads & used)
            used |= sel.hw_threads

    @given(st.lists(st.integers(), min_size=1, max_size=3).flatmap(
        lambda pids: st.tuples(*[_request(pid=i) for i in range(len(pids))])
    ))
    @settings(max_examples=40, deadline=None)
    def test_every_app_selected_from_its_own_points(self, requests):
        allocator = LagrangianAllocator(_LAYOUT.platform, _LAYOUT)
        result = allocator.allocate(list(requests))
        for req in requests:
            chosen = result.selections[req.pid].point
            assert any(chosen is p for p in req.points)

    @given(st.lists(st.integers(), min_size=2, max_size=4).flatmap(
        lambda pids: st.tuples(*[_request(pid=i) for i in range(len(pids))])
    ))
    @settings(max_examples=30, deadline=None)
    def test_non_co_allocated_demand_within_capacity(self, requests):
        allocator = LagrangianAllocator(_LAYOUT.platform, _LAYOUT)
        result = allocator.allocate(list(requests))
        capacity = _LAYOUT.platform.capacity_vector()
        demand = [0] * len(capacity)
        for sel in result.selections.values():
            if sel.co_allocated:
                continue
            for i, used in enumerate(sel.point.erv.core_vector()):
                demand[i] += used
        assert all(d <= c for d, c in zip(demand, capacity))
