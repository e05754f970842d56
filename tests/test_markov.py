import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repeaterlab import markov, protocols
from oracles import equilibrium_bruteforce, hitting_moments_bruteforce

TWO_CYCLE = [[0.0, 1.0], [1.0, 0.0]]
LAZY_TWO = [[0.5, 0.5], [0.4, 0.6]]
BKP_HALF = [[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]


@st.composite
def stochastic_rows(draw, min_n=1, max_n=6):
    """Strictly positive stochastic matrices (irreducible and aperiodic)."""
    n = draw(st.integers(min_n, max_n))
    raw = draw(st.lists(
        st.lists(st.floats(0.05, 1.0, allow_nan=False), min_size=n, max_size=n),
        min_size=n, max_size=n))
    rows = np.asarray(raw)
    rows /= rows.sum(axis=1, keepdims=True)
    # pin the exact row sum so validation never trips on round-off
    rows[:, -1] = 1.0 - rows[:, :-1].sum(axis=1)
    return rows.tolist()


# a probability that is 0 or 1 about half the time
edge_probs = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def same_shape_params(draw):
    """1..6 params of one protocol and shape: multiherald n = 1..4, shs or dhs."""
    kind = draw(st.sampled_from(["multiherald", "shs", "dhs"]))
    rounds = {"multiherald": draw(st.integers(1, 4)), "shs": 1, "dhs": 2}[kind]

    def probs():
        return tuple(draw(edge_probs) for _ in range(rounds))

    def one():
        if kind == "multiherald":
            return protocols.MultiHeraldParams(probs())
        return protocols.TwoLinkParams(probs(), probs(), draw(edge_probs))
    return [one() for _ in range(draw(st.integers(1, 6)))]


class TestValidate:
    def test_accepts_and_freezes(self):
        m = markov.validate(BKP_HALF)
        assert m.n == 3
        assert m[1, 2] == 0.5
        with pytest.raises(ValueError):
            m.rows[0, 0] = 0.9  # read-only view

    def test_validate_is_idempotent_on_instances(self):
        m = markov.validate(LAZY_TWO)
        assert markov.equilibrium(m) is not None

    def test_rejects_non_square(self):
        with pytest.raises(markov.NonSquareError):
            markov.validate([[0.5, 0.5]])
        with pytest.raises(markov.NonSquareError):
            markov.validate([])

    def test_rejects_bad_row_sum(self):
        with pytest.raises(markov.RowSumError) as err:
            markov.validate([[0.6, 0.6], [0.5, 0.5]])
        assert err.value.row == 0

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(markov.EntryRangeError):
            markov.validate([[-0.1, 1.1], [0.5, 0.5]])
        with pytest.raises(markov.EntryRangeError):
            markov.validate([[float("nan"), 1.0], [0.5, 0.5]])

    def test_single_state(self):
        m = markov.validate([[1.0]])
        assert markov.equilibrium(m)[0] == 1.0

    @given(stochastic_rows())
    def test_random_matrices_validate(self, rows):
        m = markov.validate(rows)
        assert m.n == len(rows)


class TestEquilibrium:
    def test_direct_two_state_closed_form(self):
        # pi proportional to (b, a) for [[1-a, a], [b, 1-b]]
        a, b = 0.5, 0.4
        pi = markov.equilibrium(markov.validate(LAZY_TWO))
        assert pi.dtype == np.float64 and not pi.flags.writeable
        assert pi[0] == pytest.approx(b / (a + b), abs=1e-14)
        assert pi[1] == pytest.approx(a / (a + b), abs=1e-14)

    def test_periodic_chain_has_equilibrium(self):
        pi = markov.equilibrium(markov.validate(TWO_CYCLE))
        assert pi[0] == pytest.approx(0.5, abs=1e-14)

    def test_reducible_two_blocks_direct_fails(self):
        rows = [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(markov.MarkovError):
            markov.equilibrium(markov.validate(rows))

    @given(stochastic_rows())
    @settings(max_examples=60, deadline=None)
    def test_direct_residual_and_normalization(self, rows):
        m = markov.validate(rows)
        pi = markov.equilibrium(m)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert pi.min() >= 0.0
        assert np.abs(pi @ np.asarray(rows) - pi).max() < 1e-11

    @given(stochastic_rows())
    @settings(max_examples=30, deadline=None)
    def test_direct_vs_power(self, rows):
        # the direct solve against power iteration of the lazy chain
        direct = markov.equilibrium(markov.validate(rows))
        power = equilibrium_bruteforce(rows)
        assert np.abs(direct - power).max() < 1e-9

    def test_matches_bruteforce_iteration(self):
        pi = markov.equilibrium(markov.validate(BKP_HALF))
        ref = equilibrium_bruteforce(BKP_HALF)
        np.testing.assert_allclose(pi, ref, atol=1e-12)


class TestHitting:
    def test_hitting_stats_deterministic(self):
        # deterministic ladder 0 -> 1 -> 2: vectors indexed by state, 0 at the target
        rows = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
        means, variances = markov.hitting_stats(markov.validate(rows), target=2)
        np.testing.assert_allclose(means, [2.0, 1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(variances, [0.0, 0.0, 0.0], atol=1e-14)
        assert not means.flags.writeable and not variances.flags.writeable

    def test_geometric_hitting(self):
        # stay with prob 1-p, hit with prob p: mean 1/p, var (1-p)/p^2
        p = 0.3
        rows = [[1.0 - p, p], [0.5, 0.5]]
        means, variances = markov.hitting_stats(markov.validate(rows), target=1)
        mean, var = means[0], variances[0]
        assert mean == pytest.approx(1.0 / p, rel=1e-14)
        assert var == pytest.approx((1.0 - p) / p**2, rel=1e-14)

    def test_unreachable_target_is_singular(self):
        rows = [[1.0, 0.0], [0.5, 0.5]]
        with pytest.raises(markov.SingularMatrixError):
            markov.hitting_stats(markov.validate(rows), target=1)

    @given(stochastic_rows(min_n=2, max_n=5))
    @settings(max_examples=25, deadline=None)
    def test_hitting_matches_bruteforce(self, rows):
        m = markov.validate(rows)
        means, variances = markov.hitting_stats(m, target=m.n - 1)
        mean, var = means[0], variances[0]
        ref_mean, ref_var = hitting_moments_bruteforce(rows, 0, m.n - 1)
        assert mean == pytest.approx(ref_mean, abs=1e-8)
        assert var == pytest.approx(ref_var, abs=1e-8)
        assert var >= 0.0

    @given(stochastic_rows(min_n=2, max_n=5))
    @settings(max_examples=25, deadline=None)
    def test_kac_return_time(self, rows):
        # Kac: the mean return time to a state is 1/pi, so the equilibrium
        # solve and the fundamental-matrix hitting means must agree
        m = markov.validate(rows)
        pi = markov.equilibrium(m)
        means, _ = markov.hitting_stats(m, target=0)
        ret = 1.0 + np.asarray(rows)[0] @ means  # means[0] is 0 at the target
        assert ret == pytest.approx(1.0 / pi[0], rel=1e-9)


class TestStack:
    """A stacked chain gives, bit for bit, what its points give one at a time."""

    # a link that almost never succeeds overflows the inverse; hitting_stats
    # then rejects the point, and numpy warns on the way
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(same_shape_params())
    @settings(max_examples=300, deadline=None)
    def test_stacked_calls_equal_one_point_calls(self, params):
        stack = protocols.build_chain(params, 2.5)
        chains = [protocols.build_chain(point, 2.5) for point in params]
        for i, chain in enumerate(chains):
            assert np.array_equal(stack.matrix.rows[i], chain.matrix.rows)
        target = stack.success_state
        solvers = ((lambda m: (markov.equilibrium(m),), markov.SingularSystemError),
                   (lambda m: markov.hitting_stats(m, target), markov.SingularMatrixError))
        for solve, error in solvers:
            alone = {}
            for i, chain in enumerate(chains):
                try:
                    alone[i] = solve(chain.matrix)
                except error:
                    pass  # no equilibrium, or success never reached
            if len(alone) < len(chains):
                with pytest.raises(error):
                    solve(stack.matrix)
            if alone:
                together = solve(protocols.build_chain([params[i] for i in alone]).matrix)
                for j, want in enumerate(alone.values()):
                    for got_all, want_one in zip(together, want):
                        assert np.array_equal(got_all[j], want_one)

    def test_one_bad_point_fails_the_stack(self):
        good, dead = BKP_HALF, [[1.0, 0.0, 0.0], [0.5, 0.0, 0.5], [1.0, 0.0, 0.0]]
        stack = markov.validate([good, dead])
        assert stack.n == 3
        with pytest.raises(markov.SingularMatrixError):
            markov.hitting_stats(stack, target=2)
        with pytest.raises(markov.SingularSystemError):
            markov.equilibrium(markov.validate([LAZY_TWO, [[1.0, 0.0], [0.0, 1.0]]]))
        with pytest.raises(markov.RowSumError) as err:
            markov.validate([LAZY_TWO, [[0.5, 0.5], [0.6, 0.6]]])
        assert err.value.row == 1
        with pytest.raises(markov.EntryRangeError) as err:
            markov.validate([LAZY_TWO, [[0.5, 0.5], [1.5, -0.5]]])
        assert (err.value.row, err.value.col) == (1, 0)
