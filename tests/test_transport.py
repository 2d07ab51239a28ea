import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condpp.transport import (
    Matching,
    check_cost_matrix,
    solve_assignment,
    solve_balanced_transport,
)
from oracles import assignment_cost_bruteforce


def rng(seed):
    return np.random.default_rng(seed)


class TestExamples:
    def test_single_entry(self):
        m = solve_assignment([[0.3]])
        assert m.cost == pytest.approx(0.3)
        assert m.pairs == ((0, 0),)

    def test_two_by_two_picks_diagonal(self):
        m = solve_assignment([[0.1, 0.9], [0.9, 0.2]])
        assert m.cost == pytest.approx(0.3)
        assert sorted(m.pairs) == [(0, 0), (1, 1)]

    def test_two_by_two_picks_antidiagonal(self):
        m = solve_assignment([[0.9, 0.1], [0.2, 0.9]])
        assert m.cost == pytest.approx(0.3)
        assert sorted(m.pairs) == [(0, 1), (1, 0)]

    def test_rectangular_matches_all_rows(self):
        m = solve_assignment([[0.5, 0.1, 0.4]])
        assert m.pairs == ((0, 1),)
        assert m.cost == pytest.approx(0.1)
        assert m.n_rows == 1 and m.n_cols == 3

    def test_mean_cost(self):
        m = solve_assignment([[0.1, 0.9], [0.9, 0.2]])
        assert m.mean_cost == pytest.approx(0.15)
        empty = Matching(pairs=(), cost=0.0, n_rows=0, n_cols=0)
        assert empty.mean_cost == 0.0


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(8))
    def test_square_six(self, seed):
        c = rng(seed).uniform(size=(6, 6))
        got = solve_assignment(c)
        assert got.cost == pytest.approx(assignment_cost_bruteforce(c), abs=1e-12)
        assert len(got.pairs) == 6

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("shape", [(3, 7), (7, 3), (5, 6)])
    def test_rectangular(self, seed, shape):
        c = rng(100 + seed).uniform(size=shape)
        got = solve_assignment(c)
        assert got.cost == pytest.approx(assignment_cost_bruteforce(c), abs=1e-12)
        assert len(got.pairs) == min(shape)
        rows = [i for i, _ in got.pairs]
        assert rows == sorted(rows)

    def test_pairs_are_injective_and_consistent(self):
        c = rng(7).uniform(size=(5, 8))
        got = solve_assignment(c)
        rows = [i for i, _ in got.pairs]
        cols = [j for _, j in got.pairs]
        assert len(set(rows)) == len(rows)
        assert len(set(cols)) == len(cols)
        assert got.cost == pytest.approx(sum(c[i, j] for i, j in got.pairs))


class TestStructure:
    def test_row_permutation_invariance(self):
        c = rng(3).uniform(size=(5, 5))
        perm = rng(4).permutation(5)
        assert solve_assignment(c).cost == pytest.approx(
            solve_assignment(c[perm]).cost, abs=1e-12
        )

    def test_extra_column_cannot_raise_cost(self):
        c = rng(5).uniform(size=(4, 6))
        wider = np.hstack([c, rng(6).uniform(size=(4, 1))])
        assert solve_assignment(wider).cost <= solve_assignment(c).cost + 1e-12

    def test_balanced_requires_square(self):
        with pytest.raises(ValueError):
            solve_balanced_transport([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])

    def test_balanced_matches_assignment_on_square(self):
        c = rng(11).uniform(size=(6, 6))
        assert solve_balanced_transport(c).cost == pytest.approx(
            solve_assignment(c).cost, abs=1e-12
        )


class TestValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_cost_matrix(np.zeros((0, 3)))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            check_cost_matrix([0.1, 0.2])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            check_cost_matrix([[0.1, np.nan]])
        with pytest.raises(ValueError):
            check_cost_matrix([[np.inf]])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            check_cost_matrix([[1.5]])
        with pytest.raises(ValueError):
            check_cost_matrix([[-0.2]])

    def test_clips_rounding_noise(self):
        out = check_cost_matrix([[1.0 + 1e-12, -1e-12]])
        assert out[0, 0] == 1.0
        assert out[0, 1] == 0.0


@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=5),
    cols=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_solver_agrees_with_enumeration(rows, cols, seed):
    c = np.random.default_rng(seed).uniform(size=(rows, cols))
    got = solve_assignment(c)
    assert got.cost == pytest.approx(assignment_cost_bruteforce(c), abs=1e-12)
    assert len(got.pairs) == min(rows, cols)
