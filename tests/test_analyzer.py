import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densek import ratio
from densek.ratio import (
    ALGOS,
    FKP5,
    MAX_LATTICE_STEPS,
    RATIO_SETS,
    ExponentPoint,
    error_bound,
    grid_max_min,
)
from helpers import eight_corner_bound, full_grid_max_min, ratio_exponent, scalar_grid_oracle


class TestExponentPoint:
    def test_corner_values(self):
        p = ExponentPoint(1.0, 1.0, 1.0)
        assert ratio_exponent("a1", p) == pytest.approx(1.0)
        assert ratio_exponent("a2", p) == pytest.approx(0.0)
        assert ratio_exponent("a3", p) == pytest.approx(0.0)
        assert ratio_exponent("a4", p) == pytest.approx(1.0 / 3.0)
        assert ratio_exponent("a5", p) is None
        assert ratio_exponent("a6", p) == pytest.approx(1.0 / 3.0)

    def test_origin(self):
        p = ExponentPoint(0.0, 0.0, 0.0)
        assert ratio_exponent("a1", p) == 0.0
        # the degree bound is vacuous at the origin
        assert ratio_exponent("a2", p) == 1.0
        assert ratio_exponent("a3", p) == 0.0
        assert ratio_exponent("a4", p) == 0.0
        assert ratio_exponent("a5", p) == 0.0
        assert ratio_exponent("a6", p) == 0.0

    def test_a5_applies_off_balance(self):
        # K strictly between d and 2d activates the second walk case
        p = ExponentPoint(0.5, 0.8, 0.6)
        assert ratio_exponent("a5", p) is not None

    @pytest.mark.parametrize("g,K,d", [
        (-0.1, 0.5, 0.5),
        (0.5, 0.4, 0.6),
        (0.5, 0.5, 0.4),
        (0.5, 1.1, 0.6),
        (0.5, 0.6, 1.2),
    ])
    def test_rejects_points_outside_domain(self, g, K, d):
        with pytest.raises(ValueError):
            ratio_exponent("a1", ExponentPoint(g, K, d))

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            ratio_exponent("a7", ExponentPoint(0.5, 0.5, 0.5))

    @settings(max_examples=150)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_suite_minimum_at_most_trivial(self, g, kf, df):
        # individual formulas may exceed the trivial bound where they are
        # weak, but the suite minimum never does: the matching bound is g.
        d = g + (1.0 - g) * df
        K = g + (1.0 - g) * kf
        p = ExponentPoint(g, K, d)
        values = [
            v for a in ALGOS if (v := ratio_exponent(a, p)) is not None
        ]
        assert values and min(values) <= g + 1e-9
        assert all(math.isfinite(v) for v in values)


# The continuous max-min exponents (the paper's n^0.32258 and n^0.3159).
EXACT_EXPONENTS = {"fkp5": Fraction(10, 31), "a6combo": Fraction(6, 19)}


class TestErrorBound:
    def test_linear_in_delta(self):
        assert error_bound(0.003) == pytest.approx(13.0 / 3.0 * 0.003)
        with pytest.raises(ValueError):
            error_bound(0.0)

    @pytest.mark.parametrize("delta", [0.01, 0.005, 0.002, 0.001, 0.0005])
    @pytest.mark.parametrize("name", sorted(EXACT_EXPONENTS))
    def test_lattice_within_bound_of_exact(self, delta, name):
        got = grid_max_min(delta, RATIO_SETS[name]).max_exponent
        exact = EXACT_EXPONENTS[name]
        assert got <= exact <= got + error_bound(delta)


class TestGrid:
    def test_quarter_step_known_sets(self):
        r = grid_max_min(0.25, frozenset({"a1", "a2", "a3"}))
        assert r.max_exponent == pytest.approx(0.25)
        assert r.argmax == ExponentPoint(0.25, 0.5, 0.25)
        assert r.evaluations == 55
        r5 = grid_max_min(0.25, FKP5)
        assert r5.max_exponent == pytest.approx(0.25)
        assert r5.argmax == ExponentPoint(0.25, 0.75, 0.25)
        assert r5.evaluations == 55

    def test_single_algorithm(self):
        r = grid_max_min(0.25, frozenset({"a1"}))
        assert r.max_exponent == pytest.approx(1.0)
        assert r.argmax == ExponentPoint(1.0, 1.0, 1.0)

    @pytest.mark.parametrize("delta", [0.25, 0.2])
    @pytest.mark.parametrize("name", sorted(RATIO_SETS))
    def test_matches_scalar_oracle(self, delta, name):
        algos = RATIO_SETS[name]
        got = grid_max_min(delta, algos)
        best, argmax, count = scalar_grid_oracle(delta, algos)
        assert got.max_exponent == pytest.approx(best, abs=1e-12)
        assert (got.argmax.g, got.argmax.K, got.argmax.d) == pytest.approx(argmax)
        assert got.evaluations == count

    # 1/7, 1/33, 1/100, 1/127 and 1/128 give lattices 8, 34, 101, 128 and
    # 129 points wide: the first box's power-of-two side fits 8 and 128
    # exactly and 129 only by doubling to 256, and boxes are cut at the
    # lattice edge and on the d, K >= g diagonal.
    @pytest.mark.parametrize(
        "delta", [0.25, 0.1, 0.05, 0.02, 1 / 7, 1 / 33, 1 / 100, 1 / 127, 1 / 128]
    )
    def test_matches_full_sweep_on_every_subset(self, delta):
        for size in range(1, len(ALGOS) + 1):
            for algos in itertools.combinations(ALGOS, size):
                assert grid_max_min(delta, algos) == full_grid_max_min(delta, algos)

    @pytest.mark.parametrize("name", sorted(RATIO_SETS))
    def test_matches_full_sweep_on_headline_sets(self, name):
        algos = RATIO_SETS[name]
        assert grid_max_min(0.002, algos) == full_grid_max_min(0.002, algos)

    @pytest.mark.parametrize("name", ["fkp5", "a6combo", "custom:a5"])
    def test_bound_prunes_nearly_every_point(self, monkeypatch, name):
        # Each level evaluates one point per surviving box, down to side-1
        # boxes.  A loosened box bound keeps more boxes at every level: at
        # delta = 0.001 the sweep evaluates 0.0003% of the lattice for fkp5,
        # and 0.0036% when a5 is left out of the bound.
        algos = RATIO_SETS.get(name, frozenset({"a5"}))
        evaluated = []
        evaluate = ratio._evaluate

        def counting(g, d, K, algoset):
            evaluated.append(d.size)
            return evaluate(g, d, K, algoset)

        monkeypatch.setattr(ratio, "_evaluate", counting)
        # The first box has side 1024 at 1/delta = 1000 and 2048 at 2000.
        for delta, levels in ((0.001, 11), (1 / MAX_LATTICE_STEPS, 12)):
            evaluated.clear()
            r = grid_max_min(delta, algos)
            assert len(evaluated) == levels, delta
            assert sum(evaluated) < 0.00001 * r.evaluations, delta

    def test_two_corner_bound_is_the_eight_corner_maximum(self):
        # Every formula is monotone on a box, so its peak sits at one of two
        # corners; random aligned boxes of every side, on lattices of several
        # widths, for every subset of a1-a6.
        rng = np.random.default_rng(20)
        subsets = [
            frozenset(c)
            for size in range(1, len(ALGOS) + 1)
            for c in itertools.combinations(ALGOS, size)
        ]
        for imax in (7, 129, 2000):
            delta = 1.0 / imax
            for side in (2 ** p for p in range(imax.bit_length() + 1)):
                i0, j0, l0 = side * rng.integers(0, imax // side + 1, (3, 64))
                for algos in subsets:
                    got = ratio._bound(i0, j0, l0, side, imax, delta, algos)
                    want = eight_corner_bound(i0, j0, l0, side, imax, delta, algos)
                    assert got.tobytes() == want.tobytes(), (imax, side, sorted(algos))

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_max_min(0.3, FKP5)  # 1/delta not an integer
        with pytest.raises(ValueError):
            grid_max_min(0.0, FKP5)
        with pytest.raises(ValueError):
            grid_max_min(0.25, frozenset())
        with pytest.raises(ValueError):
            grid_max_min(0.25, frozenset({"zz"}))

    def test_rejects_lattice_past_the_limit(self, monkeypatch):
        # Refused before any box is bounded.
        monkeypatch.setattr(ratio, "_bound", None)
        with pytest.raises(ValueError, match=str(MAX_LATTICE_STEPS)):
            grid_max_min(0.0001, FKP5)

    def test_evaluation_count_formula(self):
        # sum over grid lines of an (s+1-i)^2 block per outer index
        r = grid_max_min(0.1, FKP5)
        s = 10
        assert r.evaluations == sum((s + 1 - i) ** 2 for i in range(s + 1))

    def test_minimum_over_larger_set_never_grows(self):
        small = grid_max_min(0.1, frozenset({"a1", "a4"}))
        large = grid_max_min(0.1, frozenset({"a1", "a4", "a2", "a3"}))
        assert large.max_exponent <= small.max_exponent + 1e-12
