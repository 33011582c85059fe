import random

import numpy as np
import pytest

from densek import simplex
from densek.simplex import (
    INFEASIBLE,
    OPTIMAL,
    LinearProgram,
    solve_lp,
)
from helpers import (
    EQUAL,
    GREATER_EQUAL,
    LESS_EQUAL,
    GeneralLp,
    highs_optimum,
    lp_feasible,
    random_box_lp,
    solve_general,
    standard_form,
    vertex_enum_optimum,
)


def program(objective, rows=(), rhs=()):
    """``LinearProgram`` from nested lists; ``rows`` may be empty."""
    nv = len(objective)
    return LinearProgram(
        np.array(objective, dtype=float),
        np.array(rows, dtype=float).reshape(len(rhs), nv),
        np.array(rhs, dtype=float),
    )


class TestKnownPrograms:
    def test_two_variable_corner(self):
        # min -x - y  s.t.  x + 2y <= 4, 3x + y <= 6 over the box [0,4] x
        # [0,2] that the rows already imply
        lp = GeneralLp(
            [-1.0, -1.0],
            [(0.0, 4.0), (0.0, 2.0)],
            [([1.0, 2.0], LESS_EQUAL, 4.0), ([3.0, 1.0], LESS_EQUAL, 6.0)],
        )
        sol = solve_general(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(-14.0 / 5.0)
        assert sol.x == pytest.approx([8.0 / 5.0, 6.0 / 5.0])

    def test_equality_row(self):
        # min x + y  s.t.  x + y = 3, x - y >= 1 over [0,3]^2
        lp = GeneralLp(
            [1.0, 1.0],
            [(0.0, 3.0), (0.0, 3.0)],
            [([1.0, 1.0], EQUAL, 3.0), ([1.0, -1.0], GREATER_EQUAL, 1.0)],
        )
        sol = solve_general(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(3.0)

    def test_free_variable(self):
        # min y  s.t.  y >= x - 2, y >= -x: optimum y = -1 at x = 1, inside
        # the box [-10,10]^2 that stands in for free x and y
        lp = GeneralLp(
            [0.0, 1.0],
            [(-10.0, 10.0), (-10.0, 10.0)],
            [([1.0, -1.0], LESS_EQUAL, 2.0), ([-1.0, -1.0], LESS_EQUAL, 0.0)],
        )
        sol = solve_general(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(-1.0)
        assert sol.x[0] == pytest.approx(1.0)

    def test_upper_bounded_variable(self):
        # maximise x + 2y (minimise the negation) within x<=1, y<=2, x+y<=2
        lp = GeneralLp(
            [-1.0, -2.0], [(0.0, 1.0), (0.0, 2.0)], [([1.0, 1.0], LESS_EQUAL, 2.0)]
        )
        sol = solve_general(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(-4.0)
        assert sol.x == pytest.approx([0.0, 2.0])

    def test_negative_lower_bounds(self):
        # min x + y over [-3,-1] x [-2,5] with x + y >= -4.  Shifted to
        # u = x + 3 in [0, 2], v = y + 2 in [0, 7]: x + y = u + v - 5.
        lp = program(
            [1.0, 1.0], [[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]], [-1.0, 2.0, 7.0]
        )
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert sol.objective - 5.0 == pytest.approx(-4.0)

    def test_degenerate_rows(self):
        # x >= 2 twice and 2x >= 4, each negated
        lp = program([1.0], [[-1.0], [-1.0], [-2.0]], [-2.0, -2.0, -4.0])
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL and sol.objective == pytest.approx(2.0)


class TestStatuses:
    def test_infeasible_rows(self):
        # x <= 1 and x >= 2
        lp = program([1.0], [[1.0], [-1.0]], [1.0, -2.0])
        assert solve_lp(lp).status == INFEASIBLE

    def test_infeasible_equalities(self):
        # x + y = 1 and 2x + 2y = 3, over a box that neither row reaches past
        lp = GeneralLp(
            [0.0, 0.0],
            [(0.0, 5.0), (0.0, 5.0)],
            [([1.0, 1.0], EQUAL, 1.0), ([2.0, 2.0], EQUAL, 3.0)],
        )
        assert solve_general(lp).status == INFEASIBLE

    def test_bound_validation(self):
        lp = LinearProgram(np.array([1.0, 2.0]), np.zeros((1, 1)), np.zeros(1))
        with pytest.raises(ValueError):
            solve_lp(lp)
        lp = LinearProgram(np.array([1.0]), np.zeros((2, 1)), np.zeros(1))
        with pytest.raises(ValueError):
            solve_lp(lp)

    def test_negative_cost_is_refused(self):
        # the all-slack basis is dual feasible only for costs >= 0
        with pytest.raises(ValueError):
            solve_lp(program([-1.0]))
        with pytest.raises(ValueError):
            solve_lp(program([1.0, -1e-12], [[1.0, 1.0]], [1.0]))


class TestPivotingRules:
    def beale(self):
        # the classic cycling instance for naive Dantzig pivoting, over the
        # box [0,1]^4, which does not bind at its optimum
        return GeneralLp(
            [-0.75, 150.0, -0.02, 6.0],
            [(0.0, 1.0)] * 4,
            [
                ([0.25, -60.0, -0.04, 9.0], LESS_EQUAL, 0.0),
                ([0.5, -90.0, -0.02, 3.0], LESS_EQUAL, 0.0),
                ([0.0, 0.0, 1.0, 0.0], LESS_EQUAL, 1.0),
            ],
        )

    def test_beale_default(self):
        sol = solve_general(self.beale())
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(-0.05)

    def test_beale_immediate_bland(self, monkeypatch):
        # force Bland's rule from the very first pivot
        monkeypatch.setattr(simplex, "DANTZIG_LIMIT", 0)
        sol = solve_general(self.beale())
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(-0.05)

    def test_dantzig_limit_does_not_change_answers(self, monkeypatch):
        rng = random.Random("bland")
        for _ in range(20):
            lp, _, _ = standard_form(random_box_lp(rng))
            a = solve_lp(lp)
            with monkeypatch.context() as bland:
                bland.setattr(simplex, "DANTZIG_LIMIT", 0)
                b = solve_lp(lp)
            assert a.status == b.status
            if a.status == OPTIMAL:
                assert a.objective == pytest.approx(b.objective, abs=1e-6)


class TestAgainstEnumeration:
    def test_random_boxes(self):
        rng = random.Random("boxlp")
        disagreements = []
        for i in range(120):
            lp = random_box_lp(rng)
            sol = solve_general(lp)
            status, best, _ = vertex_enum_optimum(lp)
            if sol.status != status:
                disagreements.append((i, sol.status, status))
                continue
            if status == OPTIMAL:
                assert sol.objective == pytest.approx(best, abs=1e-6)
                assert lp_feasible(lp, sol.x, tol=1e-6)
        assert not disagreements

    @pytest.mark.parametrize("scale", [0.001, 1.0, 1000.0])
    def test_objective_scaling(self, scale):
        rng = random.Random("scale")
        for _ in range(15):
            lp = random_box_lp(rng)
            scaled = GeneralLp(
                [scale * c for c in lp.objective],
                bounds=list(lp.bounds),
                rows=[(list(r), rel, rhs) for r, rel, rhs in lp.rows],
            )
            a, b = solve_general(lp), solve_general(scaled)
            assert a.status == b.status
            if a.status == OPTIMAL:
                assert b.objective == pytest.approx(scale * a.objective, abs=1e-6 * max(1.0, scale))


class TestAgainstScipy:
    def test_cross_check(self):
        rng = random.Random("scipy-lp")
        for _ in range(60):
            lp, _, _ = standard_form(random_box_lp(rng))
            sol = solve_lp(lp)
            status, optimum = highs_optimum(lp)
            if status == 0:
                assert sol.status == OPTIMAL
                assert sol.objective == pytest.approx(optimum, abs=1e-6)
            elif status == 2:
                assert sol.status == INFEASIBLE
