import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repeaterlab import estimators, markov, protocols
from repeaterlab.protocols import MultiHeraldParams, TwoLinkParams, build_chain
from oracles import (
    asymptotic_variance_kemeny_snell,
    finite_horizon_variance_bruteforce,
    finite_horizon_variance_decimal,
    nested_rate_decimal,
    visit_count_moments_by_path_enumeration,
)

probs = st.floats(0.05, 1.0, allow_nan=False)


def bkp(p1=0.5, p2=0.5, tau=1.0):
    return build_chain(MultiHeraldParams((p1, p2)), tau)


class TestThroughput:
    def test_mean_rate_is_equilibrium_over_tau(self):
        chain = bkp(0.4, 0.7, tau=2.0)
        mean_rate, _ = estimators.estimate_throughput(chain, 1000)
        pi = markov.equilibrium(chain.matrix)
        assert mean_rate == pytest.approx(pi[2] / 2.0, rel=1e-13)

    def test_naive_variance_formula(self):
        chain = bkp(0.5, 0.5)
        _, naive = estimators.estimate_throughput(chain, 250)
        p = markov.equilibrium(chain.matrix)[2]
        assert naive == pytest.approx(p * (1 - p) / 250, rel=1e-13)

    @pytest.mark.parametrize("N", [1, 2, 3, 7, 23, 50])
    def test_exact_variance_matches_literal_double_sum(self, N):
        for chain in (bkp(0.5, 0.5), bkp(0.2, 0.8),
                      build_chain(TwoLinkParams((0.6,), (0.7,), 0.8))):
            got = estimators.exact_throughput_variance(chain, N)
            ref = finite_horizon_variance_bruteforce(
                chain.matrix.rows, chain.start_state, chain.success_state, N)
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-16)

    @pytest.mark.parametrize("p1,p2", [(0.5, 0.5), (0.3, 0.9)])
    def test_exact_moments_match_path_enumeration(self, p1, p2):
        # full path enumeration: the most literal oracle there is
        N = 7
        chain = bkp(p1, p2)
        mean_count, var_count = visit_count_moments_by_path_enumeration(
            chain.matrix.rows, 0, 2, N)
        assert protocols.cf_bkp_exact_mean_throughput(p1, p2, N) \
            == pytest.approx(mean_count / N, rel=1e-12)
        assert estimators.exact_throughput_variance(chain, N) \
            == pytest.approx(var_count / N**2, rel=1e-12)

    @pytest.mark.parametrize("p1,p2", [(0.95, 0.95), (0.5, 0.5)])
    def test_exact_variance_matches_decimal_reference(self, p1, p2):
        # at N = 1e5 the ordered-pair double sum cancels O(N^2) terms down to
        # O(N); evaluated in 45-digit decimals it is the reference to 1e-9
        N = 100_000
        chain = bkp(p1, p2)
        ref = finite_horizon_variance_decimal(chain.matrix.rows, 0, 2, N)
        got = estimators.exact_throughput_variance(chain, N)
        assert got == pytest.approx(ref, rel=1e-9, abs=0)

    def test_exact_variance_approaches_kemeny_snell(self):
        # N tau^2 Var = sigma^2 + c / N up to terms that decay geometrically,
        # so N (N tau^2 Var - sigma^2) reads the same c at both horizons
        chain = bkp(0.3, 0.8)
        sigma2 = asymptotic_variance_kemeny_snell(chain.matrix.rows, 2)
        c = [N * (N * estimators.exact_throughput_variance(chain, N) - sigma2)
             for N in (10_000, 100_000)]
        assert c[1] == pytest.approx(c[0], rel=1e-5)

    def test_exact_variance_scales_with_tau(self):
        a = estimators.exact_throughput_variance(bkp(0.4, 0.6, tau=1.0), 40)
        b = estimators.exact_throughput_variance(bkp(0.4, 0.6, tau=0.5), 40)
        assert b == pytest.approx(4.0 * a, rel=1e-13)

    def test_horizon_validation(self):
        chain = bkp()
        for estimate in (estimators.estimate_throughput, estimators.exact_throughput_variance):
            # a bool or a float is no horizon, not even an integral one
            for N in (0, True, 2.5, 3.0, float("nan"), "3"):
                with pytest.raises(estimators.ArgumentRangeError):
                    estimate(chain, N)
            with pytest.raises(estimators.HorizonError):
                estimate(chain, 10**7)
        assert estimators.estimate_throughput(chain, np.int64(30)) \
            == estimators.estimate_throughput(chain, 30)

    def test_leading_order_converges_to_exact(self):
        # the equilibrium approximation approaches the exact value as N grows
        p1, p2 = 0.5, 0.7
        chain = bkp(p1, p2)
        lead = protocols.cf_bkp_throughput_variance_leading(p1, p2)
        for N, tol in [(1000, 2e-2), (100_000, 2e-4)]:
            exact = estimators.exact_throughput_variance(chain, N)
            assert lead / N == pytest.approx(exact, rel=tol)


class TestLatency:
    def test_two_state_geometric(self):
        chain = build_chain(MultiHeraldParams((0.25,)), tau=3.0)
        mean, var = estimators.estimate_latency(chain)
        assert mean == pytest.approx(4.0 * 3.0, rel=1e-13)
        assert var == pytest.approx((0.75 / 0.0625) * 9.0, rel=1e-13)

    def test_deterministic_shs(self):
        assert estimators.estimate_latency(
            build_chain(TwoLinkParams((1.0,), (1.0,), 1.0))) == (2.0, 0.0)

    def test_shs_with_slow_swap(self):
        mean, var = estimators.estimate_latency(
            build_chain(TwoLinkParams((1.0,), (1.0,), 0.5), tau=2.0))
        assert mean == pytest.approx(8.0, rel=1e-13)
        assert var == pytest.approx(32.0, rel=1e-13)

    @given(probs, probs, probs)
    @settings(max_examples=30, deadline=None)
    def test_mean_is_inverse_equilibrium(self, pl, pr, ps):
        # hitting the success state from restart equals the return time,
        # because the success row repeats the start row
        chain = build_chain(TwoLinkParams((pl,), (pr,), ps))
        mean, _ = estimators.estimate_latency(chain)
        pi = markov.equilibrium(chain.matrix)
        assert mean == pytest.approx(1.0 / pi[chain.success_state], rel=1e-10)

    @pytest.mark.parametrize("builder, slots", [
        (protocols.multiheralded_chain, 3), (protocols.two_link_chain, 3),
        (protocols.two_link_chain, 5)], ids=["multiherald", "shs", "dhs"])
    def test_equilibrium_times_mean_latency_is_tau(self, builder, slots):
        # the success row equals the start row, so pi_S * t_start = 1 exactly
        # in steps: an exact gate between the equilibrium and the hitting solve
        rows = np.random.default_rng(11).uniform(0.05, 0.95, (600, slots))
        chain = builder(rows, 2.5)
        mean, _ = estimators.estimate_latency(chain)
        product = chain.equilibrium[:, chain.success_state] * mean
        assert np.max(np.abs(product / 2.5 - 1)) <= 1e-12

    def test_negative_variance_rejected(self, monkeypatch):
        # hitting_stats lets a variance down to -1e-9 steps^2 through; the
        # latency in time units must not go below -1e-12
        chain = bkp(0.5, 0.5, tau=1.0)
        monkeypatch.setattr(markov, "hitting_stats",
                            lambda matrix, target: (np.ones(3), np.full(3, -1e-10)))
        with pytest.raises(estimators.ArgumentRangeError, match="variance"):
            estimators.estimate_latency(chain)


class TestPairs:
    """The chain estimates are plain (mean, variance) pairs, one entry per point."""

    ROWS = np.array([[0.5, 0.6, 0.7, 0.4, 0.9], [0.2, 0.9, 0.3, 0.8, 0.6],
                     [1.0, 1.0, 1.0, 1.0, 1.0]])

    def test_stacked_pairs_equal_one_chain_pairs(self):
        stack = protocols.two_link_chain(self.ROWS, 2.5)
        throughput = estimators.estimate_throughput(stack, 700)
        latency = estimators.estimate_latency(stack)
        for pair in (throughput, latency):
            assert len(pair) == 2 and all(part.shape == (3,) for part in pair)
        for i, row in enumerate(self.ROWS):
            chain = build_chain(TwoLinkParams.from_row(tuple(row)), 2.5)
            one = (estimators.estimate_throughput(chain, 700), estimators.estimate_latency(chain))
            for stacked, alone in zip((throughput, latency), one):
                assert all(np.shape(part) == () for part in alone)
                assert [part[i] for part in stacked] == list(alone)

    def test_star_import_resolves_all(self):
        import repeaterlab
        namespace = {}
        exec("from repeaterlab import *", namespace)
        assert set(repeaterlab.__all__) <= set(namespace)


class TestNested:
    def test_level_one_closed_form(self):
        for p in [0.2, 0.5, 0.8, 1.0]:
            rate = estimators.nested_throughput(p, 1, "type1")
            assert rate == pytest.approx(p * (2 - p) / (3 - p * p), rel=1e-13)

    def test_types_coincide_at_level_one(self):
        a = estimators.nested_throughput(0.37, 1, "type1")
        b = estimators.nested_throughput(0.37, 1, "type2")
        assert a == b

    def test_perfect_links_goldens(self):
        assert estimators.nested_throughput(1.0, 1, "type1") == pytest.approx(0.5)
        assert estimators.nested_throughput(1.0, 2, "type1") == pytest.approx(0.25)
        assert estimators.nested_throughput(1.0, 2, "type2") == pytest.approx(3 / 11, rel=1e-13)

    def test_per_level_rates_recorded(self):
        # a column over k = 1..3 holds every level; type2 feeds each level's
        # rate back in as the next level's link probability
        rates = estimators.nested_throughput(0.6, np.arange(1, 4), "type2")
        assert rates.shape == (3,)
        assert rates[0] == estimators.nested_throughput(0.6, 1, "type2")
        for a, b in zip(rates, rates[1:]):
            assert b == pytest.approx(a * (2 - a) / (3 - a * a), rel=1e-15)

    @given(probs, st.integers(1, 6), st.sampled_from(["type1", "type2"]))
    @settings(max_examples=60, deadline=None)
    def test_rates_decrease_with_level(self, p, k, method):
        rates = estimators.nested_throughput(p, np.arange(1, k + 1), method)
        assert all(b < a for a, b in zip(rates, rates[1:]))
        assert all(0.0 < r <= 0.5 for r in rates)

    @given(st.integers(1, 5), st.sampled_from(["type1", "type2"]))
    @settings(max_examples=30, deadline=None)
    def test_rate_increases_with_p(self, k, method):
        values = estimators.nested_throughput(np.array([0.1, 0.3, 0.5, 0.7, 0.9]), k, method)
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_clamp_never_fires(self):
        # every level rate is at most 1/2, so a type1 argument 2^j rate_j
        # stays in [0, 1] and no level needs clamping: checked on the 2^20
        # doubles just below 1 and along the type1 recursion
        below_one = (np.float64(1.0).view(np.int64) - np.arange(1, 2**20 + 1)).view(np.float64)
        assert below_one.min() > 0.99 and (2.0 * estimators._level_rate(below_one) <= 1.0).all()
        for p in np.linspace(0.01, 1.0, 34):
            rates = estimators.nested_throughput(p, np.arange(1, 9), "type1")
            assert (2.0 ** np.arange(1, 9) * rates <= 1.0).all()

    def test_matches_decimal_oracle(self):
        # the closed form taken as written loses |log10 p| digits to 1 - ql qr;
        # the package's level formula loses none, down to p = 1e-300
        worst = 0.0
        for p in (1.0, 0.9, 0.5, 0.37, 0.1, 1e-2, 1e-6, 1e-16, 5.6e-17, 1e-100, 1e-300):
            for method in ("type1", "type2"):
                rates = estimators.nested_throughput(p, np.arange(1, 13), method)
                for k, rate in enumerate(rates, 1):
                    exact = nested_rate_decimal(p, k, method)
                    ulps = abs(decimal.Decimal(float(rate)) - exact) / decimal.Decimal(
                        math.ulp(float(exact)))
                    worst = max(worst, float(ulps))
        assert worst <= 8.0, worst

    def test_column_equals_scalar_calls(self):
        rng = np.random.default_rng(15)
        p = np.concatenate([rng.uniform(0.0, 1.0, 40), 10.0 ** -rng.uniform(0, 300, 40), [1.0]])
        k = rng.integers(1, estimators.MAX_NESTED_K + 1, len(p))
        for method in ("type1", "type2"):
            column = estimators.nested_throughput(p, k, method)
            assert column.shape == p.shape
            alone = [estimators.nested_throughput(pi, ki, method) for pi, ki in zip(p, k)]
            assert all(np.shape(rate) == () for rate in alone)
            assert column.tolist() == [float(rate) for rate in alone]
            # one k broadcasts over a column of p
            assert estimators.nested_throughput(p, 3, method).tolist() \
                == [float(estimators.nested_throughput(pi, 3, method)) for pi in p]

    def test_argument_validation(self):
        with pytest.raises(estimators.ArgumentRangeError):
            estimators.nested_throughput(0.0, 1, "type1")
        with pytest.raises(estimators.ArgumentRangeError):
            estimators.nested_throughput(0.5, 0, "type1")
        with pytest.raises(estimators.ArgumentRangeError):
            estimators.nested_throughput(0.5, 1, "type3")
        with pytest.raises(estimators.ArgumentRangeError):
            estimators.nested_throughput(0.5, estimators.MAX_NESTED_K + 1, "type1")
        assert 0.0 < estimators.nested_throughput(0.5, estimators.MAX_NESTED_K, "type2") < 0.01
        # one integer rule with SimConfig: numpy integers pass, bools and floats do not
        for k in (True, 2.0, 1.5, float("nan"), "2", None):
            with pytest.raises(estimators.ArgumentRangeError):
                estimators.nested_throughput(0.5, k, "type1")
        assert estimators.nested_throughput(0.5, np.int64(2), "type1") \
            == estimators.nested_throughput(0.5, 2, "type1")
        # p is a real number: no bool, string or None
        for p in (True, "0.5", None):
            with pytest.raises(estimators.ArgumentRangeError):
                estimators.nested_throughput(p, 2, "type1")
        # a column reports its first bad entry
        with pytest.raises(estimators.ArgumentRangeError, match="p = 1.5 outside"):
            estimators.nested_throughput(np.array([0.5, 1.5, 2.0]), np.array([1, 2, 3]), "type1")

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("method", ["type1", "type2"])
    def test_underflowed_rate_is_arithmetic_error(self, k, method):
        # at the smallest subnormal p every level rate rounds back up to p,
        # but the type1 division by 2 at level 2 rounds it down to 0: a
        # numerical failure, not a rejected argument
        p = 5e-324
        if (method, k) == ("type1", 2):
            with pytest.raises(FloatingPointError, match="type1 rate underflowed to 0 at k = 2"):
                estimators.nested_throughput(p, k, method)
            with pytest.raises(FloatingPointError, match="k = 2, p = 5e-324"):
                estimators.nested_throughput(np.array([0.5, p]), np.array([2, 2]), method)
        else:
            assert estimators.nested_throughput(p, k, method) == p
