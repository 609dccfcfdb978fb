"""Tests for Pareto dominance, fronts, IGD, and the common-point ratio."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.pareto import (
    common_point_ratio,
    dominated_cells,
    dominated_mask,
    dominates,
    igd,
    pareto_front,
    pareto_front_indices,
)


class TestDominates:
    def test_strictly_better(self):
        assert dominates([1, 1], [2, 2])

    def test_better_in_one_equal_in_other(self):
        assert dominates([1, 2], [2, 2])

    def test_equal_does_not_dominate(self):
        assert not dominates([1, 1], [1, 1])

    def test_trade_off_does_not_dominate(self):
        assert not dominates([1, 3], [2, 2])
        assert not dominates([2, 2], [1, 3])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dominates([1], [1, 2])


class TestParetoFront:
    def test_simple_front(self):
        pts = np.array([[1, 4], [2, 2], [4, 1], [3, 3], [4, 4]])
        idx = pareto_front_indices(pts)
        assert set(idx) == {0, 1, 2}

    def test_single_point(self):
        assert pareto_front_indices(np.array([[1.0, 2.0]])) == [0]

    def test_duplicates_all_kept(self):
        pts = np.array([[1, 1], [1, 1], [2, 2]])
        assert set(pareto_front_indices(pts)) == {0, 1}

    def test_front_values(self):
        pts = np.array([[1, 4], [2, 2], [3, 3]])
        front = pareto_front(pts)
        assert front.shape == (2, 2)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            pareto_front_indices(np.array([1.0, 2.0]))

    def test_four_objective_front(self):
        # The Fig. 1 filter: time, energy, P-cores, E-cores.
        pts = np.array(
            [
                [10.0, 100.0, 8, 16],
                [12.0, 60.0, 0, 16],
                [11.0, 120.0, 8, 16],
            ]
        )
        assert set(pareto_front_indices(pts)) == {0, 1}


class TestIgd:
    def test_identical_fronts_zero(self):
        ref = np.array([[1.0, 2.0], [2.0, 1.0]])
        assert igd(ref, ref) == pytest.approx(0.0)

    def test_farther_front_larger_igd(self):
        ref = np.array([[0.0, 1.0], [1.0, 0.0]])
        near = np.array([[0.1, 1.0], [1.0, 0.1]])
        far = np.array([[0.5, 1.0], [1.0, 0.5]])
        assert igd(ref, near) < igd(ref, far)

    def test_empty_approximation_infinite(self):
        ref = np.array([[1.0, 1.0]])
        assert igd(ref, np.empty((0, 2))) == float("inf")

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            igd(np.empty((0, 2)), np.array([[1.0, 1.0]]))

    def test_subset_of_reference_is_partial_match(self):
        ref = np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]])
        approx = ref[:1]
        assert igd(ref, approx) > 0


class TestCommonRatio:
    def test_full_overlap(self):
        assert common_point_ratio([1, 2, 3], [3, 2, 1]) == 1.0

    def test_partial_overlap(self):
        assert common_point_ratio([1, 2, 3, 4], [1, 2]) == 0.5

    def test_no_overlap(self):
        assert common_point_ratio([1, 2], [3]) == 0.0

    def test_extra_approx_points_do_not_boost(self):
        assert common_point_ratio([1], [1, 2, 3]) == 1.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            common_point_ratio([], [1])


_points = arrays(
    float,
    st.tuples(st.integers(1, 12), st.just(3)),
    elements=st.floats(0, 100, allow_nan=False),
)


class TestParetoProperties:
    @given(_points)
    @settings(max_examples=60)
    def test_front_is_nonempty_and_mutually_nondominated(self, pts):
        idx = pareto_front_indices(pts)
        assert idx
        for i in idx:
            for j in idx:
                if i != j:
                    assert not dominates(pts[j], pts[i])

    @given(_points)
    @settings(max_examples=60)
    def test_every_point_dominated_by_or_on_front(self, pts):
        idx = set(pareto_front_indices(pts))
        for i in range(len(pts)):
            if i in idx:
                continue
            assert any(dominates(pts[j], pts[i]) for j in idx)

    @given(_points)
    @settings(max_examples=40)
    def test_front_idempotent(self, pts):
        front = pareto_front(pts)
        again = pareto_front(front)
        assert sorted(map(tuple, again)) == sorted(map(tuple, front))

    @given(_points)
    @settings(max_examples=40)
    def test_igd_of_front_against_itself_is_zero(self, pts):
        front = pareto_front(pts)
        assert igd(front, front) == pytest.approx(0.0, abs=1e-12)


@st.composite
def _grid_table(draw):
    """(cost, cells) rows on a small grid, heavy in ties and duplicates."""
    m = draw(st.integers(1, 3))
    sides = draw(st.lists(st.integers(1, 6), min_size=m, max_size=m))
    cell = st.tuples(*[st.integers(0, side - 1) for side in sides])
    cost = st.one_of(
        st.integers(0, 4).map(float),
        st.sampled_from([np.inf, -np.inf, np.nan]),
    )
    rows = draw(st.lists(st.tuples(cost, cell), min_size=1, max_size=30))
    copies = draw(st.lists(st.integers(0, len(rows) - 1), max_size=10))
    rows += [rows[i] for i in copies]
    costs = np.array([c for c, _ in rows])
    cells = np.array([r for _, r in rows], dtype=np.int64).reshape(-1, m)
    return costs, cells


class TestDominatedCells:
    """The grid pruner is the pairwise mask, bit for bit."""

    @given(_grid_table())
    @example((np.full(4, 2.0), np.ones((4, 2), dtype=np.int64)))
    @example((np.array([np.inf]), np.array([[2, 1]])))
    @settings(max_examples=300, deadline=None)
    def test_matches_pairwise_mask(self, table):
        cost, cells = table
        with np.errstate(invalid="ignore"):
            expected = dominated_mask(np.column_stack([cost, cells]))
        np.testing.assert_array_equal(dominated_cells(cost, cells), expected)

    def test_inf_row_dominated_only_from_below(self):
        cost = np.array([np.inf, 1.0, np.inf])
        cells = np.array([[0, 0], [1, 1], [2, 1]])
        assert dominated_cells(cost, cells).tolist() == [False, False, True]

    def test_float_cells_accepted_when_integral(self):
        cost = np.array([1.0, 2.0])
        cells = np.array([[1.0, 0.0], [1.0, 1.0]])
        assert dominated_cells(cost, cells).tolist() == [False, True]

    def test_empty_table(self):
        assert dominated_cells(np.zeros(0), np.zeros((0, 2))).shape == (0,)

    def test_negative_cells_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            dominated_cells(np.array([1.0, 2.0]), np.array([[0, 1], [-1, 2]]))

    def test_fractional_cells_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            dominated_cells(np.array([1.0, 2.0]), np.array([[0.0], [1.5]]))
