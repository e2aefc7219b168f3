"""The rate and cost formulas pinned to their values before they were merged into one home.

Three fixed (L0, L1) tables with b = 1, 3 and 6 layers, each with a cutoff
vector, per-layer eta and cost parameters.  Every weight, cost, cap,
iteration count and objective must match the recorded value to a relative
1e-12; the smooth rate weights, which the run CSV's ``grad_sq_weighted``
reads, must match exactly.
"""

import math

import numpy as np
import pytest

from droptrain import costmodel as cm
from droptrain import sampling as sp

CASES = {
    1: dict(
        l0=[[2.0]], l1=[[0.5]], p=(1.0,), eta=(0.7,),
        cost=(0.5, (1.0,), (0.25,)),
    ),
    3: dict(
        l0=[[1.5], [2.0, 1.2], [3.0, 2.5, 0.8]],
        l1=[[0.7], [1.1, 0.6], [0.9, 0.8, 0.3]],
        p=(0.5, 0.3, 0.2), eta=(1.0, 0.5, 0.25),
        cost=(0.4, (1.0, 1.5, 2.0), (0.1, 0.2, 0.3)),
    ),
    6: dict(
        l0=[[1.3], [2.1, 1.7], [0.9, 0.8, 0.6], [3.3, 2.9, 2.2, 1.1], [1.9, 1.8, 1.4, 1.3, 0.7],
            [2.6, 2.4, 2.3, 1.6, 1.2, 0.4]],
        l1=[[0.6], [1.4, 0.9], [0.5, 0.45, 0.3], [2.2, 1.9, 1.1, 0.7], [0.8, 0.8, 0.6, 0.5, 0.2],
            [1.7, 1.5, 1.5, 1.2, 0.9, 0.35]],
        p=(0.3, 0.2, 0.15, 0.15, 0.1, 0.1), eta=(1.0, 0.9, 0.8, 0.7, 0.6, 0.5),
        cost=(0.3, (1.0, 0.8, 1.2, 0.9, 1.1, 1.0), (0.2, 0.1, 0.3, 0.2, 0.1, 0.25)),
    ),
}

# total_cost: (expected_iteration_cost, iterations, total, min_weight) at eps 1e-2,
# delta0 2, no ceiling; optimal_l0l1: (p, value, vertex_value, vertex_beaten,
# first_layer_l1_is_max).  The b = 6 solver vectors are those of the refinement
# that re-checks the source mass before every transfer and can also spread it
# over the other coordinates in proportion; before that fix they held negative
# entries (see test_l0l1_solver_returns_a_probability_vector).
PINNED = {1: {'weights_smooth': ([0.25], 0.25),
         'weights_l0l1': ([2.0], 2.0),
         'weights_stochastic': ([0.7], 0.7),
         'total_cost_smooth': (1.75, 800.0, 1400.0, 0.25),
         'total_cost_l0l1_eps': (1.75, 200.0, 350.0, 2.0),
         'total_cost_l0l1_eps2': (1.75, 80000.0, 140000.0, 2.0),
         'eta_caps': [0.2776246890528022],
         'l0l1_iterations': 80200,
         'objective_smooth': 7.0,
         'objective_l0l1_eps': 0.875,
         'optimal_l0l1_eps': ([1.0], 0.875, 0.875, False, True),
         'objective_l0l1_eps2': 3.5,
         'optimal_l0l1_eps2': ([1.0], 3.5, 3.5, False, True)},
     3: {'weights_smooth': ([0.16666666666666666, 0.25, 0.2683333333333333],
                            0.2283333333333333),
         'weights_l0l1': ([0.7142857142857143, 0.8767123287671235, 1.3333333333333333],
                          0.9747771254620569),
         'weights_stochastic': ([0.5, 0.4, 0.25], 0.3833333333333333),
         'total_cost_smooth': (4.61, 1200.0, 5532.0, 0.16666666666666666),
         'total_cost_l0l1_eps': (4.61, 560.0, 2581.6000000000004, 0.7142857142857143),
         'total_cost_l0l1_eps2': (4.61,
                                  583953.2873793291,
                                  2692024.654818707,
                                  0.7142857142857143),
         'eta_caps': [0.23329805802756487, 0.06990952081305454, 0.054436213539765126],
         'l0l1_iterations': 313964,
         'objective_smooth': 27.660000000000004,
         'objective_l0l1_eps': 6.454000000000001,
         'optimal_l0l1_eps': ([0.7266499328613278, 0.2733500671386718, 0.0],
                              5.008629876693454,
                              6.05,
                              True,
                              False),
         'objective_l0l1_eps2': 67.3006163704677,
         'optimal_l0l1_eps2': ([0.7266499328613278, 0.2733500671386718, 0.0],
                               38.135675296591444,
                               56.02059712773998,
                               True,
                               False)},
     6: {'weights_smooth': ([0.11538461538461538,
                             0.13025210084033614,
                             0.41666666666666663,
                             0.18221003134796238,
                             0.3171952316689159,
                             0.34550933667781497],
                            0.2512029970977186),
         'weights_l0l1': ([0.5,
                           0.4166666666666667,
                           1.4824561403508774,
                           0.4885496183206108,
                           1.3846153846153848,
                           0.7462686567164178],
                          0.8364260777783262),
         'weights_stochastic': ([0.3, 0.45, 0.52, 0.5599999999999999, 0.54, 0.5],
                                0.47833333333333333),
         'total_cost_smooth': (5.295, 1733.3333333333335, 9178.0, 0.11538461538461538),
         'total_cost_l0l1_eps': (5.295, 960.0, 5083.2, 0.4166666666666667),
         'total_cost_l0l1_eps2': (5.295,
                                  2228879.7341602514,
                                  11801918.192378532,
                                  0.4166666666666667),
         'eta_caps': [0.24559862796603163,
                      0.0442077530338857,
                      0.07159150288888372,
                      0.012654891135654302,
                      0.02518960286831094,
                      0.009897258141914708],
         'l0l1_iterations': 553586,
         'objective_smooth': 45.89000000000001,
         'objective_l0l1_eps': 12.708000000000002,
         'optimal_l0l1_eps': ([0.3633699345061751,
                               0.33846238813353685,
                               0.0,
                               0.298167677360288,
                               0.0,
                               0.0],
                              9.85845155932887,
                              16.390000000000004,
                              True,
                              False),
         'objective_l0l1_eps2': 295.04795480946336,
         'optimal_l0l1_eps2': ([0.36336995150355056,
                                0.3384623713641081,
                                0.0,
                                0.29816767713234127,
                                0.0,
                                0.0],
                               166.46257475363262,
                               462.72372655640703,
                               True,
                               False)}}


def setup(b):
    case = CASES[b]
    table = cm.SmoothnessTable.from_rpt_rows(case["l0"], case["l1"])
    return case, table, cm.CostParams(*case["cost"])


def close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("b", CASES)
def test_theory_weights_pinned(b):
    case, table, _ = setup(b)
    tw = cm.theory_weights(case["p"], table, "smooth")
    assert (tw.w.tolist(), tw.mean) == PINNED[b]["weights_smooth"]
    tw = cm.theory_weights(case["p"], table, "l0l1")
    close(tw.w, PINNED[b]["weights_l0l1"][0])
    close(tw.mean, PINNED[b]["weights_l0l1"][1])
    tw = cm.theory_weights(case["p"], table, "stochastic", eta=case["eta"])
    close(tw.w, PINNED[b]["weights_stochastic"][0])
    close(tw.mean, PINNED[b]["weights_stochastic"][1])


@pytest.mark.parametrize("b", CASES)
@pytest.mark.parametrize("regime", ["smooth", "l0l1_eps", "l0l1_eps2"])
def test_total_cost_pinned(b, regime):
    case, table, cp = setup(b)
    bd = cm.total_cost(sp.Rpt(case["p"]), cp, table, 1e-2, regime, delta0=2.0, apply_ceil=False)
    close(
        [bd.expected_iteration_cost, bd.iterations, bd.total, bd.terms["min_weight"]],
        PINNED[b][f"total_cost_{regime}"],
    )


@pytest.mark.parametrize("b", CASES)
def test_iteration_bounds_pinned(b):
    case, table, _ = setup(b)
    close(cm.horizon_eta_caps(case["p"], table, 100), PINNED[b]["eta_caps"])
    assert cm.l0l1_iterations(case["p"], table, 2.0, 1e-2) == PINNED[b]["l0l1_iterations"]


@pytest.mark.parametrize("b", CASES)
def test_cost_objectives_pinned(b):
    case, table, cp = setup(b)
    close(cm.rpt_cost_objective_smooth(case["p"], table, cp), PINNED[b]["objective_smooth"])
    for regime in ("eps", "eps2"):
        close(
            cm.rpt_cost_objective_l0l1(case["p"], table, cp, regime),
            PINNED[b][f"objective_l0l1_{regime}"],
        )


@pytest.mark.parametrize("b", CASES)
@pytest.mark.parametrize("regime", ["eps", "eps2"])
def test_optimal_rpt_probs_l0l1_pinned(b, regime):
    _, table, cp = setup(b)
    sol = cm.optimal_rpt_probs_l0l1(table, cp, regime)
    p, value, vertex_value, beaten, first_max = PINNED[b][f"optimal_l0l1_{regime}"]
    close(sol.p, p)
    close([sol.value, sol.vertex_value], [value, vertex_value])
    assert (sol.vertex_beaten, sol.first_layer_l1_is_max) == (beaten, first_max)


def test_l0l1_solver_returns_a_probability_vector():
    _, table, cp = setup(6)
    sol = cm.optimal_rpt_probs_l0l1(table, cp, "eps")
    assert np.all(sol.p >= 0.0) and math.isclose(sol.p.sum(), 1.0, rel_tol=1e-12)
