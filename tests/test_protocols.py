import hashlib
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repeaterlab import markov, protocols
from repeaterlab.protocols import (
    MultiHeraldParams,
    TwoLinkParams,
    build_chain,
    cf_equilibrium_multiheralded,
    cf_equilibrium_shs,
    cf_latency_variance_multiheralded,
    cf_latency_variance_shs,
)

probs = st.floats(0.05, 1.0, allow_nan=False)
GRID = [0.1 * i for i in range(1, 10)]


def latency_var_by_solver(chain) -> float:
    _, variances = markov.hitting_stats(chain.matrix, chain.success_state)
    return variances[chain.start_state]


class TestParamObjects:
    def test_multiherald_validates(self):
        with pytest.raises(protocols.EmptyRoundsError):
            MultiHeraldParams(())
        with pytest.raises(protocols.ProbabilityRangeError):
            MultiHeraldParams((0.5, 1.2))
        assert MultiHeraldParams((0.5,)).n == 1

    def test_two_link_validates(self):
        with pytest.raises(protocols.HeraldCountError):
            TwoLinkParams((0.5, 0.5, 0.5), (0.5, 0.5, 0.5), 1.0)
        with pytest.raises(protocols.HeraldCountError):
            TwoLinkParams((0.5,), (0.5, 0.5), 1.0)
        with pytest.raises(protocols.ProbabilityRangeError):
            TwoLinkParams((0.5,), (-0.1,), 1.0)

    def test_protocol_names(self):
        assert protocols.protocol_name(MultiHeraldParams((0.5,))) == "multiherald"
        assert protocols.protocol_name(TwoLinkParams((0.5,), (0.5,), 1.0)) == "shs"
        assert protocols.protocol_name(TwoLinkParams((0.5, 0.5), (0.5, 0.5), 1.0)) == "dhs"

    @pytest.mark.parametrize("value", [True, False, "0.5", "1", None, 0.5j])
    def test_non_numbers_rejected_by_field(self, value):
        cases = [
            (lambda: MultiHeraldParams((0.5, value)), "round_probs[1]"),
            (lambda: TwoLinkParams((value,), (0.5,), 1.0), "left_probs[0]"),
            (lambda: TwoLinkParams((0.5, 0.5), (0.5, value), 1.0), "right_probs[1]"),
            (lambda: TwoLinkParams((0.5,), (0.5,), value), "swap_prob"),
        ]
        for make, field in cases:
            with pytest.raises(protocols.ProtocolError, match=r"must be a real number") as err:
                make()
            assert str(err.value).startswith(field)

    @pytest.mark.parametrize("value", [np.float32(0.5), np.float64(0.25), np.int64(1),
                                       np.int8(0), 1, 0])
    def test_numpy_and_python_reals_accepted(self, value):
        want = float(value)
        assert MultiHeraldParams((value, 0.5)).round_probs == (want, 0.5)
        params = TwoLinkParams((value,), (value,), value)
        assert params.row == (want, want, want)
        assert all(type(p) is float for p in params.row)

    def test_rows_round_trip(self):
        for params in (TwoLinkParams((0.6,), (0.4,), 0.9),
                       TwoLinkParams((0.6, 0.2), (0.4, 0.7), 0.8)):
            assert TwoLinkParams.from_row(params.row) == params
            assert np.array_equal(protocols.two_link_chain(params.row).matrix.rows,
                                  build_chain(params).matrix.rows)
        params = MultiHeraldParams((0.2, 0.8, 0.5))
        assert MultiHeraldParams(params.row) == params
        for row in ((0.5, 0.5), (0.5,), (0.5, 0.5, 0.5, 0.5)):
            with pytest.raises(protocols.HeraldCountError):
                TwoLinkParams.from_row(row)
            with pytest.raises(protocols.HeraldCountError):
                protocols.two_link_chain(row)

    def test_chain_requires_positive_tau(self):
        for tau in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(protocols.ProtocolError):
                build_chain(MultiHeraldParams((0.5,)), tau=tau)


class TestMultiHeraldMatrix:
    def test_single_herald_matrix(self):
        chain = build_chain(MultiHeraldParams((0.3,)))
        np.testing.assert_allclose(chain.matrix.rows, [[0.7, 0.3], [0.7, 0.3]], atol=0)
        assert chain.labels == ("0", "1")
        assert (chain.start_state, chain.success_state) == (0, 1)

    def test_bkp_matrix(self):
        chain = build_chain(MultiHeraldParams((0.5, 0.5)))
        np.testing.assert_allclose(
            chain.matrix.rows,
            [[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]], atol=0)

    def test_failure_resets_to_zero(self):
        chain = build_chain(MultiHeraldParams((0.2, 0.4, 0.8)))
        rows = chain.matrix.rows
        for i, p in enumerate((0.2, 0.4, 0.8)):
            assert rows[i, 0] == 1.0 - p
            assert rows[i, i + 1] == p

    @given(st.lists(probs, min_size=1, max_size=5))
    def test_success_row_restarts_the_cycle(self, plist):
        chain = build_chain(MultiHeraldParams(tuple(plist)))
        np.testing.assert_array_equal(chain.matrix.rows[chain.success_state],
                                      chain.matrix.rows[chain.start_state])


class TestTwoLinkMatrices:
    def test_shs_rows(self):
        pl, pr, ps = 0.6, 0.7, 0.8
        chain = build_chain(TwoLinkParams((pl,), (pr,), ps))
        ql, qr = 1.0 - pl, 1.0 - pr
        expect = [
            [ql * qr, ql * pr, pl * qr, pl * pr, 0.0],
            [0.0, ql, 0.0, pl, 0.0],
            [0.0, 0.0, qr, pr, 0.0],
            [1.0 - ps, 0.0, 0.0, 0.0, ps],
            [ql * qr, ql * pr, pl * qr, pl * pr, 0.0],
        ]
        np.testing.assert_allclose(chain.matrix.rows, expect, atol=1e-15)
        assert chain.labels == ("00", "01", "10", "11", "S")

    def test_dhs_labels_and_shape(self):
        chain = build_chain(TwoLinkParams((0.5, 0.5), (0.5, 0.5), 1.0))
        assert chain.labels == ("00", "01", "02", "10", "11", "12", "20", "21", "22", "S")
        assert chain.n == 10
        assert chain.success_state == 9

    def test_dhs_row_mixed_stages(self):
        # left waiting on round 1, right waiting on round 2
        pl1, pl2, pr1, pr2, ps = 0.3, 0.6, 0.5, 0.8, 0.9
        chain = build_chain(TwoLinkParams((pl1, pl2), (pr1, pr2), ps))
        rows = chain.matrix.rows
        labels = list(chain.labels)
        row = rows[labels.index("01")]
        assert row[labels.index("12")] == pytest.approx(pl1 * pr2, abs=1e-15)
        assert row[labels.index("10")] == pytest.approx(pl1 * (1 - pr2), abs=1e-15)
        assert row[labels.index("02")] == pytest.approx((1 - pl1) * pr2, abs=1e-15)
        assert row[labels.index("00")] == pytest.approx((1 - pl1) * (1 - pr2), abs=1e-15)

    def test_dhs_ready_link_holds(self):
        pl1, pl2, pr1, pr2, ps = 0.3, 0.6, 0.5, 0.8, 0.9
        chain = build_chain(TwoLinkParams((pl1, pl2), (pr1, pr2), ps))
        rows = chain.matrix.rows
        labels = list(chain.labels)
        row20 = rows[labels.index("20")]
        # left stays ready while right retries round 1
        assert row20[labels.index("21")] == pytest.approx(pr1, abs=1e-15)
        assert row20[labels.index("20")] == pytest.approx(1 - pr1, abs=1e-15)
        row22 = rows[labels.index("22")]
        assert row22[labels.index("S")] == pytest.approx(ps, abs=1e-15)
        assert row22[labels.index("00")] == pytest.approx(1 - ps, abs=1e-15)

    @given(probs, probs, probs)
    def test_shs_success_row_restarts(self, pl, pr, ps):
        chain = build_chain(TwoLinkParams((pl,), (pr,), ps))
        np.testing.assert_array_equal(chain.matrix.rows[4], chain.matrix.rows[0])


# sha256 of labels, start/success states and rows.tobytes() of every chain
# build_chain makes over golden_points(family)
GOLDEN_MATRIX_DIGESTS = {
    "mh1": "4282141853c4633e97df778879a147590861f0f8665045073b795e56f2b6d633",
    "mh2": "4256c2f938bb1c832b3a0675452f2808d32067fbe491d23cbc114b76a266bbd7",
    "mh3": "f4f65b89828f9ed627b7a52a1e1dd58255632d3c8ab0ffcc9eb6cbcfa4ef9920",
    "mh4": "b94d9d58219c81976870f8a64367b3091f0ba23a6f09cbe2776a1ce5c42a305f",
    "shs": "648dc5d647c82dcb02a5c3363b3d30cbab4bf04c274d31fb27855fb450282f0a",
    "dhs": "31e96c390bf22359ab9d3c50bd5a640c856e1998ccd5d6987bd004c42d925598",
}
EDGE_PROBS = (0.0, 1e-300, 1.0 - 2.0**-53, 1.0)


def golden_points(family):
    """Every edge-value combination plus 64 seeded uniform draws."""
    width = {"shs": 3, "dhs": 5}.get(family) or int(family[2:])
    rng = np.random.default_rng(20261018 + width)
    combos = list(itertools.product(EDGE_PROBS, repeat=width))
    combos += [tuple(float(x) for x in row) for row in rng.random((64, width))]
    for c in combos:
        if family == "shs":
            yield TwoLinkParams(c[:1], c[1:2], c[2])
        elif family == "dhs":
            yield TwoLinkParams(c[:2], c[2:4], c[4])
        else:
            yield MultiHeraldParams(c)


class TestGoldenMatrices:
    """Every transition matrix, to the last bit.

    Any change to a builder's arithmetic that moves one entry by one ulp
    fails here; the points include 0, 1 and the values next to them.
    """

    @pytest.mark.parametrize("family", sorted(GOLDEN_MATRIX_DIGESTS))
    def test_matrices_byte_identical(self, family):
        h = hashlib.sha256()
        for params in golden_points(family):
            chain = build_chain(params)
            h.update(",".join(chain.labels).encode())
            h.update(np.array([chain.start_state, chain.success_state], dtype=np.int64).tobytes())
            h.update(chain.matrix.rows.tobytes())
        assert h.hexdigest() == GOLDEN_MATRIX_DIGESTS[family]


class TestClosedFormEquilibrium:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_multiherald_vs_solver_diagonal(self, n):
        for p in GRID:
            params = MultiHeraldParams((p,) * n)
            chain = build_chain(params)
            pi = markov.equilibrium(chain.matrix)
            assert cf_equilibrium_multiheralded(params) == pytest.approx(
                pi[chain.success_state], abs=1e-12)

    def test_shs_vs_solver(self):
        for pl, pr, ps in itertools.product([0.2, 0.5, 0.9], repeat=3):
            params = TwoLinkParams((pl,), (pr,), ps)
            chain = build_chain(params)
            pi = markov.equilibrium(chain.matrix)
            assert cf_equilibrium_shs(params) == pytest.approx(
                pi[chain.success_state], abs=1e-12)

    @pytest.mark.parametrize("pl, pr, ps", [
        (1e-6, 1e-6, 1.0), (1e-12, 1e-12, 1.0), (1e-100, 3e-100, 0.5), (0.25, 0.9, 0.6),
        (1e-3, 0.7, 0.2), (1.0, 1e-9, 1.0)])
    def test_shs_vs_exact_fractions(self, pl, pr, ps):
        # the closed form as written, in exact rationals: the float form must
        # not lose digits to cancellation at small link probabilities
        pl_, pr_, ps_ = (Fraction(x) for x in (pl, pr, ps))
        ql, qr = 1 - pl_, 1 - pr_
        exact = pl_ * pr_ * ps_ * (1 - ql * qr) / (
            2 * pl_ * pr_ + ql * pr_**2 + qr * pl_**2 - pl_ * pr_ * ql * qr)
        got = cf_equilibrium_shs(TwoLinkParams((pl,), (pr,), ps))
        assert abs(Fraction(got) - exact) <= Fraction(1, 10**15) * exact

    def test_dhs_golden_equilibrium(self):
        # all rounds at 1/2 with a certain swap: success weight 25/233
        chain = build_chain(TwoLinkParams((0.5, 0.5), (0.5, 0.5), 1.0))
        pi = markov.equilibrium(chain.matrix)
        assert pi[chain.success_state] == pytest.approx(25 / 233, abs=1e-14)

    def test_dhs_golden_equilibrium_half_swap(self):
        chain = build_chain(TwoLinkParams((0.5, 0.5), (0.5, 0.5), 0.5))
        pi = markov.equilibrium(chain.matrix)
        assert pi[chain.success_state] == pytest.approx(25 / 466, abs=1e-14)

    def test_dhs_all_ones(self):
        chain = build_chain(TwoLinkParams((1.0, 1.0), (1.0, 1.0), 1.0))
        pi = markov.equilibrium(chain.matrix)
        assert pi[chain.success_state] == pytest.approx(1 / 3, abs=1e-14)

    def test_shs_degenerate_rejected(self):
        with pytest.raises(protocols.DegenerateChainError):
            cf_equilibrium_shs(TwoLinkParams((0.0,), (0.0,), 1.0))

    @given(probs, probs, probs)
    @settings(max_examples=60, deadline=None)
    def test_shs_symmetric_under_link_exchange(self, pl, pr, ps):
        a = cf_equilibrium_shs(TwoLinkParams((pl,), (pr,), ps))
        b = cf_equilibrium_shs(TwoLinkParams((pr,), (pl,), ps))
        assert a == pytest.approx(b, abs=1e-15)

    def test_bkp_order_asymmetry(self):
        # placing the weaker round first always wins
        for p1, p2 in itertools.permutations(GRID, 2):
            eq = cf_equilibrium_multiheralded(MultiHeraldParams((p1, p2)))
            swapped = cf_equilibrium_multiheralded(MultiHeraldParams((p2, p1)))
            if p1 > p2:
                assert eq < swapped
            elif p1 < p2:
                assert eq > swapped


class TestClosedFormLatencyVariance:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_multiherald_vs_solver(self, n):
        # variances reach ~1e8 at small p, where only a relative bound is
        # meaningful in double precision
        for p in [0.15, 0.4, 0.85]:
            params = MultiHeraldParams((p,) * n)
            cf = cf_latency_variance_multiheralded(params)
            assert cf == pytest.approx(latency_var_by_solver(build_chain(params)),
                                       rel=1e-12, abs=1e-9)

    def test_multiherald_mixed_rounds_golden(self):
        params = MultiHeraldParams((0.3, 0.6, 0.9))
        cf = cf_latency_variance_multiheralded(params)
        assert cf == pytest.approx(45.93202255753696, abs=1e-11)
        assert cf == pytest.approx(latency_var_by_solver(build_chain(params)), abs=1e-9)

    def test_single_round_geometric(self):
        for p in [0.5, 0.25, 0.75, 0.125]:  # dyadic, both sides exact in binary
            assert cf_latency_variance_multiheralded(MultiHeraldParams((p,))) \
                == (1 - p) / p**2

    def test_all_ones_vanishes(self):
        for n in range(1, 5):
            assert cf_latency_variance_multiheralded(MultiHeraldParams((1.0,) * n)) == 0.0
        assert cf_latency_variance_shs(TwoLinkParams((1.0,), (1.0,), 1.0)) == 0.0

    def test_shs_golden_half(self):
        params = TwoLinkParams((0.5,), (0.5,), 1.0)
        assert cf_latency_variance_shs(params) == pytest.approx(8 / 3, abs=1e-13)
        chain = build_chain(params)
        means, variances = markov.hitting_stats(chain.matrix, chain.success_state)
        mean, var = means[chain.start_state], variances[chain.start_state]
        assert mean == pytest.approx(11 / 3, abs=1e-13)
        assert var == pytest.approx(8 / 3, abs=1e-13)

    def test_shs_perfect_links_geometric_swap(self):
        for ps in [0.5, 0.25, 0.75]:
            got = cf_latency_variance_shs(TwoLinkParams((1.0,), (1.0,), ps))
            assert got == 4 * (1 - ps) / ps**2

    @given(probs, probs, probs)
    @settings(max_examples=40, deadline=None)
    def test_shs_vs_solver_random(self, pl, pr, ps):
        params = TwoLinkParams((pl,), (pr,), ps)
        cf = cf_latency_variance_shs(params)
        assert cf == pytest.approx(latency_var_by_solver(build_chain(params)),
                                   rel=1e-11, abs=1e-8)

    def test_zero_probability_rejected(self):
        with pytest.raises(protocols.ZeroProbabilityError):
            cf_latency_variance_multiheralded(MultiHeraldParams((0.0, 0.5)))
        with pytest.raises(protocols.ZeroProbabilityError):
            cf_latency_variance_shs(TwoLinkParams((0.5,), (0.5,), 0.0))


class TestBkpThroughputForms:
    def test_exact_mean_n1_is_zero(self):
        assert protocols.cf_bkp_exact_mean_throughput(0.5, 0.7, 1) == 0.0

    def test_visit_sum_identity(self):
        # direct cumulative visit probabilities vs the closed form
        for p1, p2 in [(0.5, 0.5), (0.2, 0.8), (0.9, 0.3)]:
            chain = build_chain(MultiHeraldParams((p1, p2)))
            P = np.asarray(chain.matrix.rows)
            v = np.zeros(3)
            v[0] = 1.0
            acc = 0.0
            for N in range(1, 201):
                v = v @ P
                acc += v[2]
                cf = protocols.cf_bkp_exact_mean_throughput(p1, p2, N)
                assert cf == pytest.approx(acc / N, abs=1e-12)

    def test_leading_variance_positive(self):
        for p1, p2 in itertools.product(GRID, repeat=2):
            assert protocols.cf_bkp_throughput_variance_leading(p1, p2) > 0.0

    def test_exact_mean_requires_positive_horizon(self):
        with pytest.raises(ValueError):
            protocols.cf_bkp_exact_mean_throughput(0.5, 0.5, 0)


class TestParamsJson:
    CASES = [
        MultiHeraldParams((0.5,)),
        MultiHeraldParams((0.2, 0.8, 0.5)),
        TwoLinkParams((0.6,), (0.4,), 0.9),
        TwoLinkParams((0.6, 0.2), (0.4, 0.7), 0.9),
    ]

    @pytest.mark.parametrize("params", CASES)
    def test_round_trip(self, params):
        for tau in (1.0, 0.5):
            text = protocols.params_to_json(params, tau)
            again, tau_again = protocols.params_from_json(text)
            assert again == params
            assert tau_again == tau

    def test_schema_keys(self):
        payload = json.loads(protocols.params_to_json(self.CASES[2]))
        assert set(payload) == {"protocol", "left_probs", "right_probs", "swap_prob", "tau"}
        payload = json.loads(protocols.params_to_json(self.CASES[0]))
        assert set(payload) == {"protocol", "round_probs", "tau"}

    def test_rejects_unknown_protocol(self):
        with pytest.raises(protocols.ProtocolError):
            protocols.params_from_json(json.dumps(
                {"protocol": "teleport", "round_probs": [0.5], "tau": 1.0}))

    def test_rejects_arity_mismatch(self):
        with pytest.raises(protocols.HeraldCountError):
            protocols.params_from_json(json.dumps({
                "protocol": "shs", "left_probs": [0.5, 0.5],
                "right_probs": [0.5, 0.5], "swap_prob": 1.0, "tau": 1.0}))

    def test_rejects_missing_and_unknown_keys(self):
        shs = {"protocol": "shs", "left_probs": [0.5], "right_probs": [0.5]}
        dhs = {"protocol": "dhs", "left_probs": [0.5, 0.5], "right_probs": [0.5, 0.5]}
        docs = [
            {"protocol": "multiherald", "tau": 1.0},
            {"protocol": "multiherald", "round_probs": [0.5], "tau": 1.0, "x": 1},
            shs, dhs,  # no swap_prob
            {**shs, "swap_prob": 1.0, "x": 1},
            {**dhs, "swap_prob": 1.0, "tau": 1.0, "round_count": 2},
            {"protocol": "shs", "round_probs": [0.5], "tau": 1.0},
        ]
        for doc in docs:
            with pytest.raises(protocols.ProtocolError, match="params document"):
                protocols.params_from_json(json.dumps(doc))

    @pytest.mark.parametrize("doc, message", [
        ({"protocol": "multiherald", "round_probs": [True, "0.5"]},
         "round_probs[0] must be a real number"),
        ({"protocol": "multiherald", "round_probs": [0.5, "0.5"]},
         "round_probs[1] must be a real number"),
        ({"protocol": "shs", "left_probs": [0.5], "right_probs": [0.5], "swap_prob": "1"},
         "swap_prob must be a real number"),
        ({"protocol": "shs", "left_probs": [0.5], "right_probs": [0.5], "swap_prob": True},
         "swap_prob must be a real number"),
        ({"protocol": "multiherald", "round_probs": [0.5], "tau": "2"},
         "tau must be a real number"),
        ({"protocol": "multiherald", "round_probs": [0.5], "tau": True},
         "tau must be a real number"),
        ({"protocol": "multiherald", "round_probs": "0.5"}, "round_probs must be a JSON array"),
        ({"protocol": "multiherald", "round_probs": 0.5}, "round_probs must be a JSON array"),
        ({"protocol": "dhs", "left_probs": {"0": 0.5}, "right_probs": [0.5, 0.5],
          "swap_prob": 1.0}, "left_probs must be a JSON array"),
        ({"protocol": "shs", "left_probs": [0.5], "right_probs": "0.5", "swap_prob": 1.0},
         "right_probs must be a JSON array"),
    ])
    def test_rejects_wrong_types_by_field(self, doc, message):
        with pytest.raises(protocols.ProtocolError) as err:
            protocols.params_from_json(json.dumps(doc))
        assert str(err.value).startswith(message)

    @given(st.lists(probs, min_size=1, max_size=6))
    def test_round_trip_random_multiherald(self, plist):
        params = MultiHeraldParams(tuple(plist))
        again, _ = protocols.params_from_json(protocols.params_to_json(params))
        assert again == params
