"""Tests for the runtime exploration heuristics (§5.3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exploration import ExplorationPlanner, poly_feature_count
from repro.core.operating_point import MaturityStage, OperatingPointTable
from repro.core.resource_vector import ErvLayout
from repro.fleet.node import node_platform
from repro.platform.topology import odroid_xu3e, raptor_lake_i9_13900k


def _measure(table, erv, utility, power):
    table.record_measurement(erv, utility, power)


def _synthetic_truth(erv):
    """A smooth, positive ground truth over the ERV space."""
    p1, p2, e = erv.counts
    utility = 2.0 * p1 + 2.5 * p2 + 1.1 * e
    power = 12.0 * p1 + 15.0 * p2 + 4.0 * e + 8.0
    return utility, power


class TestFeatureCount:
    def test_quadratic_in_three_vars(self):
        # 1 + 3 + 6 monomials.
        assert poly_feature_count(3, 2) == 10

    def test_linear(self):
        assert poly_feature_count(4, 1) == 5


class TestStages:
    def test_initial_until_threshold(self, intel_layout):
        planner = ExplorationPlanner(intel_layout)
        table = OperatingPointTable("a", intel_layout)
        assert planner.stage_of(table) is MaturityStage.INITIAL

    def test_refinement_after_threshold(self, intel_layout):
        planner = ExplorationPlanner(intel_layout)
        table = OperatingPointTable("a", intel_layout)
        grid = intel_layout.enumerate_all()
        for erv in grid[: planner.initial_threshold]:
            _measure(table, erv, *_synthetic_truth(erv))
        assert planner.stage_of(table) is MaturityStage.REFINEMENT

    def test_stable_after_25(self, intel_layout):
        planner = ExplorationPlanner(intel_layout, stable_after=25)
        table = OperatingPointTable("a", intel_layout)
        grid = intel_layout.enumerate_all()
        for erv in grid[:25]:
            _measure(table, erv, *_synthetic_truth(erv))
        assert planner.stage_of(table) is MaturityStage.STABLE

    def test_stage_written_to_table(self, intel_layout):
        planner = ExplorationPlanner(intel_layout)
        table = OperatingPointTable("a", intel_layout)
        planner.stage_of(table)
        assert table.stage is MaturityStage.INITIAL


class TestInitialHeuristic:
    def test_first_point_is_largest_allocation(self, intel_layout):
        planner = ExplorationPlanner(intel_layout)
        table = OperatingPointTable("a", intel_layout)
        candidates = intel_layout.enumerate_all()
        first = planner.next_point(table, candidates)
        assert first.total_threads() == max(
            c.total_threads() for c in candidates
        )

    def test_furthest_point_maximizes_min_distance(self, intel_layout):
        planner = ExplorationPlanner(intel_layout)
        table = OperatingPointTable("a", intel_layout)
        candidates = [
            intel_layout.make(E=1),
            intel_layout.make(E=8),
            intel_layout.make(E=16),
        ]
        _measure(table, intel_layout.make(E=1), 1.0, 4.0)
        chosen = planner.next_point(table, candidates)
        assert chosen == intel_layout.make(E=16)

    def test_measured_candidates_excluded(self, intel_layout):
        planner = ExplorationPlanner(intel_layout)
        table = OperatingPointTable("a", intel_layout)
        candidates = [intel_layout.make(E=1), intel_layout.make(E=2)]
        for erv in candidates:
            _measure(table, erv, 1.0, 1.0)
        assert planner.next_point(table, candidates) is None


def _scalar_furthest_point(measured, candidates):
    """The per-pair definition: max over (min distance, counts)."""
    def min_dist(candidate):
        return min(candidate.distance(m) for m in measured)
    return max(candidates, key=lambda c: (min_dist(c), c.counts))


_LAYOUTS = {
    "intel": ErvLayout(raptor_lake_i9_13900k()),
    "odroid": ErvLayout(odroid_xu3e()),
    "node": ErvLayout(node_platform(0)),
}


@st.composite
def _furthest_point_case(draw):
    layout = _LAYOUTS[draw(st.sampled_from(sorted(_LAYOUTS)))]
    grid = layout.enumerate_all()
    indices = st.integers(0, len(grid) - 1)
    measured = draw(st.sets(indices, min_size=1, max_size=12))
    candidates = draw(
        st.lists(indices, min_size=1, max_size=60, unique=True)
    )
    return (
        {grid[i] for i in measured},
        [grid[i] for i in candidates if i not in measured] or [grid[0]],
    )


class TestFurthestPointEquivalence:
    """The broadcast ``_furthest_point`` picks what the per-pair one does."""

    @given(_furthest_point_case())
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_definition(self, case):
        measured, candidates = case
        planner = ExplorationPlanner(next(iter(measured)).layout)
        assert planner._furthest_point(measured, candidates) is (
            _scalar_furthest_point(measured, candidates)
        )

    def test_distance_tie_goes_to_largest_counts(self, intel_layout):
        planner = ExplorationPlanner(intel_layout)
        measured = {intel_layout.make(E=8)}
        # Both are 4 away from E=8.
        tied = [intel_layout.make(E=4), intel_layout.make(E=12)]
        assert planner._furthest_point(measured, tied) == (
            intel_layout.make(E=12)
        )

    def test_exhaustive_single_measurement_on_odroid(self, odroid_layout):
        planner = ExplorationPlanner(odroid_layout)
        grid = odroid_layout.enumerate_all()
        for seen in grid:
            for other in grid:
                measured = {seen, other}
                candidates = [c for c in grid if c not in measured]
                assert planner._furthest_point(measured, candidates) is (
                    _scalar_furthest_point(measured, candidates)
                )


class TestRefinementHeuristic:
    def _table_in_refinement(self, layout, planner, skew=None):
        table = OperatingPointTable("a", layout)
        grid = layout.enumerate_all()
        rng = np.random.default_rng(0)
        picks = rng.choice(len(grid), size=planner.initial_threshold, replace=False)
        for i in picks:
            u, p = _synthetic_truth(grid[i])
            if skew:
                u, p = skew(grid[i], u, p)
            _measure(table, grid[i], u, p)
        return table, grid

    def test_refinement_selects_some_unmeasured_point(self, intel_layout):
        planner = ExplorationPlanner(intel_layout)
        table, grid = self._table_in_refinement(intel_layout, planner)
        assert planner.stage_of(table) is MaturityStage.REFINEMENT
        chosen = planner.next_point(table, grid)
        assert chosen is not None
        assert table.get(chosen) is None or not table.get(chosen).measured

    def test_negative_prediction_prioritized(self, intel_layout):
        planner = ExplorationPlanner(intel_layout)

        # Construct a pathological dataset whose quadratic fit predicts
        # negative utilities somewhere in the space.
        def skew(erv, u, p):
            return u - 0.4 * erv.counts[2] ** 2, p

        table, grid = self._table_in_refinement(intel_layout, planner, skew)
        models = planner.fit_models(table)
        assert models is not None
        model_u, _ = models
        x = np.array([c.as_array() for c in grid])
        preds = model_u.predict(x)
        if (preds < 0).any():
            chosen = planner.next_point(table, grid)
            assert model_u.predict(chosen.as_array()[None, :])[0] < max(preds)


class TestPrediction:
    def test_predict_missing_fills_candidates(self, intel_layout):
        planner = ExplorationPlanner(intel_layout)
        table = OperatingPointTable("a", intel_layout)
        grid = intel_layout.enumerate_all()[:60]
        for erv in grid[:20]:
            _measure(table, erv, *_synthetic_truth(erv))
        written = planner.predict_missing(table, grid)
        assert written == 40
        assert len(table) == 60

    def test_predictions_clamped_to_measured_envelope(self, intel_layout):
        planner = ExplorationPlanner(intel_layout)
        table = OperatingPointTable("a", intel_layout)
        grid = intel_layout.enumerate_all()
        small = [g for g in grid if g.total_cores() <= 6][:20]
        for erv in small:
            _measure(table, erv, *_synthetic_truth(erv))
        planner.predict_missing(table, grid)
        max_measured = max(p.utility for p in table.measured_points())
        for point in table:
            if not point.measured:
                assert point.utility <= max_measured + 1e-9
                assert point.power >= 0

    def test_predict_missing_never_overwrites_measurements(self, intel_layout):
        planner = ExplorationPlanner(intel_layout)
        table = OperatingPointTable("a", intel_layout)
        grid = intel_layout.enumerate_all()[:30]
        for erv in grid[:15]:
            _measure(table, erv, *_synthetic_truth(erv))
        before = {p.erv: p.utility for p in table.measured_points()}
        planner.predict_missing(table, grid)
        for erv, utility in before.items():
            assert table.get(erv).utility == utility

    def test_too_few_measurements_no_predictions(self, intel_layout):
        planner = ExplorationPlanner(intel_layout)
        table = OperatingPointTable("a", intel_layout)
        _measure(table, intel_layout.make(E=1), 1.0, 1.0)
        assert planner.predict_missing(table, intel_layout.enumerate_all()) == 0
