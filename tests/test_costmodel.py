"""Cost model and optimal-probability solvers against brute-force oracles."""

import math

import numpy as np
import pytest

from droptrain import costmodel as cm
from droptrain import sampling as sp
from droptrain import verify
from droptrain.costmodel import CostParams, SmoothnessTable, TableMode


def table_b2(l11=1.0, l21=2.0, l22=1.0):
    """Cutoff table rows: layer 1 has {1..2}; layer 2 has {1..2} and {2}."""
    return SmoothnessTable.from_rpt_rows([[l11], [l21, l22]])


CP3 = CostParams(1.0, (1.0, 2.0, 3.0), (0.1, 0.2, 0.3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field, args", [
    ("c_ov", lambda x: (x, (1.0, 1.0), (0.0, 0.0))),
    (r"c\[1\]", lambda x: (1.0, (1.0, x), (0.0, 0.0))),
    (r"c_sharp\[0\]", lambda x: (1.0, (1.0, 1.0), (x, 0.0))),
], ids=["c_ov", "c", "c_sharp"])
def test_cost_params_refuse_a_non_finite_entry_by_name(field, args, bad):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {bad}$"):
        CostParams(*args(bad))


@pytest.mark.parametrize("args, message", [
    (("1", (1.0, 1.0), (0.0, 0.0)), "c_ov: expected a number, got '1'"),
    ((True, (1.0, 1.0), (0.0, 0.0)), "c_ov: expected a number, got True"),
    ((1.0, ("1", True), (0.0, 0.0)), "c[0]: expected a number, got '1'"),
    ((1.0, (1.0, True), (0.0, 0.0)), "c[1]: expected a number, got True"),
    ((1.0, (1.0, 1.0), (0.0, None)), "c_sharp[1]: expected a number, got None"),
    ((1.0, (1.0, 1.0), (0.0, [0.0])), "c_sharp[1]: expected a number, got [0.0]"),
    ((-1.0, (1.0, 1.0), (0.0, 0.0)), "c_ov must be >= 0, got -1.0"),
    ((1.0, (1.0, 0.0), (0.0, 0.0)), "c[1] must be > 0, got 0.0"),
    ((1.0, (1.0, -2.0), (0.0, 0.0)), "c[1] must be > 0, got -2.0"),
    ((1.0, (1.0,) * 6, (0.0,) * 5 + (-1.0,)), "c_sharp[5] must be >= 0, got -1.0"),
], ids=["c_ov_string", "c_ov_bool", "c_string", "c_bool", "c_sharp_none", "c_sharp_list",
        "c_ov_negative", "c_zero", "c_negative", "c_sharp_negative"])
def test_cost_params_refuse_a_non_number_or_a_bad_sign_by_entry(args, message):
    with pytest.raises(ValueError) as info:
        CostParams(*args)
    assert str(info.value) == message


def test_cost_params_accept_numpy_scalars_and_store_floats():
    cp = CostParams(np.int64(1), (np.float64(0.5), 2), np.array([0.0, np.float32(0.25)]))
    assert cp == CostParams(1.0, (0.5, 2.0), (0.0, 0.25))
    assert all(type(x) is float for x in (cp.c_ov,) + cp.c + cp.c_sharp)


# ---------------------------------------------------------------------------
# iteration / expected cost
# ---------------------------------------------------------------------------

def test_iteration_cost_formula():
    assert cm.iteration_cost(frozenset({2, 3}), CP3) == pytest.approx(6.5)


def test_iteration_cost_extremes():
    full = cm.iteration_cost(frozenset({1, 2, 3}), CP3)
    assert full == pytest.approx(1.0 + 6.0 + 0.6)
    assert cm.iteration_cost(frozenset({3}), CP3) == pytest.approx(1.0 + 3.0 + 0.3)


def test_expected_cost_rpt_two_outcomes():
    cp = CostParams(0.0, (1.0, 1.0), (0.0, 0.0))
    scheme = sp.Rpt((0.5, 0.5))
    # enumerate: cost {1,2} = 2 w.p. 1/2, cost {2} = 1 w.p. 1/2
    assert cm.expected_iteration_cost(scheme, cp) == pytest.approx(1.5)


def test_expected_cost_tau_nice_sharp_only():
    cp = CostParams(0.0, (1e-12, 1e-12, 1e-12, 1e-12), (1.0, 1.0, 1.0, 1.0))
    val = cm.expected_iteration_cost(sp.TauNice(4, 2), cp)
    assert val == pytest.approx(2.0, abs=1e-9)  # 4 * tau/b


def test_expected_cost_full_network_is_iteration_cost():
    scheme = sp.FullNetwork(3)
    assert cm.expected_iteration_cost(scheme, CP3) == pytest.approx(
        cm.iteration_cost(frozenset({1, 2, 3}), CP3)
    )


def test_expected_cost_matches_enumeration():
    rng = np.random.default_rng(0)
    for scheme in (
        sp.Rpt((0.2, 0.5, 0.3)),
        sp.TauNice(5, 2),
        sp.TauSubmodel(5, 3, (0.5, 0.2, 0.3)),
        sp.PartitionedSubmodel((frozenset({1, 3}), frozenset({2, 4})), (0.7, 0.3)),
    ):
        cp = verify.random_cost_params(rng, scheme.b)
        exact = sum(
            prob * cm.iteration_cost(s, cp) for s, prob in sp.distribution(scheme).items()
        )
        assert cm.expected_iteration_cost(scheme, cp) == pytest.approx(exact, abs=1e-12)


# ---------------------------------------------------------------------------
# smoothness table
# ---------------------------------------------------------------------------

def test_table_missing_constant_names_pair():
    table = table_b2()
    with pytest.raises(KeyError, match="layer 2, set key 3"):
        table.require(2, 3)


def test_table_monotonicity_violations():
    bad = SmoothnessTable.from_rpt_rows([[1.0], [1.0, 2.0]])  # grows as set shrinks
    assert bad.monotonicity_violations()
    assert table_b2().monotonicity_violations() == []


def test_table_roundtrip():
    t = verify.random_rpt_table(np.random.default_rng(1), 4)
    t2 = SmoothnessTable.from_dict(t.to_dict())
    assert t2.l0 == t.l0 and t2.mode == t.mode and t2.b == t.b


def malformed_tables():
    """One param (table document, error message) per value ``from_dict`` would coerce."""
    cases = []

    def case(name, message):
        doc = SmoothnessTable.from_rpt_rows([[1.0], [2.0, 1.0]], [[0.5], [0.5, 0.5]]).to_dict()
        cases.append(pytest.param(doc, message, id=name))
        return doc

    case("b_float", "table.b: expected an integer, got 2.7")["b"] = 2.7
    case("b_bool", "table.b: expected an integer, got True")["b"] = True
    case("layer_float", "table.l0[0][0]: expected an integer, got 1.5")["l0"][0][0] = 1.5
    case("layer_bool", "table.l0[1][0]: expected an integer, got True")["l0"][1][0] = True
    case("set_key_string", "table.l1[2][1]: expected an integer, got '2'")["l1"][2][1] = "2"
    case("value_string", "table.l0[2][2]: expected a number, got '3'")["l0"][2][2] = "3"
    case("l1_value_bool", "table.l1[0][2]: expected a number, got False")["l1"][0][2] = False
    case("l0_not_list", "table.l0: expected a list, got 1.0")["l0"] = 1.0
    case("approximate_string", "table.approximate: expected a bool, got 'no'")["approximate"] = "no"
    case("second_entry", "table.l0[3]: a second entry for layer 1, set key 1")["l0"].append(
        [1, 1, 9.0]
    )
    return cases


@pytest.mark.parametrize("doc, message", malformed_tables())
def test_table_from_dict_refuses_what_it_would_coerce(doc, message):
    with pytest.raises(ValueError) as info:
        SmoothnessTable.from_dict(doc)
    assert str(info.value) == message


def test_key_for_suffix_and_rejects_non_suffix():
    t = verify.random_rpt_table(np.random.default_rng(2), 4)
    assert t.key_for(frozenset({2, 3, 4})) == 2
    with pytest.raises(ValueError, match="not a suffix"):
        t.key_for(frozenset({2, 4}))


# ---------------------------------------------------------------------------
# smooth-regime recursion
# ---------------------------------------------------------------------------

def test_recursion_hand_example():
    # q1 = 2; r2 = 1 - 2/4 = 1/2; q2 = 2 * (1/2) * 1 = 1; p = (2/3, 1/3)
    p = cm.optimal_rpt_probs_smooth(table_b2(1.0, 2.0, 1.0))
    np.testing.assert_allclose(p, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)


def test_recursion_hand_example_agrees_with_grid_oracle():
    table = table_b2(1.0, 2.0, 1.0)
    cp = CostParams(0.5, (1.0, 1.0), (0.2, 0.2))
    p_star = cm.optimal_rpt_probs_smooth(table)
    oracle = cm.brute_force_optimal_probs(
        lambda p: cm.rpt_cost_objective_smooth(p, table, cp), 2, 200
    )
    assert np.max(np.abs(p_star - oracle)) <= 1.0 / 200 + 1e-12


def test_recursion_vertex_when_first_layer_dominates():
    # r2 = 1 - 4/2 < 0 so all mass stays on cutoff 1
    p = cm.optimal_rpt_probs_smooth(table_b2(2.0, 1.0, 0.5))
    np.testing.assert_array_equal(p, [1.0, 0.0])


def test_recursion_single_layer():
    p = cm.optimal_rpt_probs_smooth(SmoothnessTable.from_rpt_rows([[1.7]]))
    np.testing.assert_array_equal(p, [1.0])


def test_recursion_rejects_zero_constant():
    with pytest.raises(ValueError, match="> 0"):
        cm.optimal_rpt_probs_smooth(table_b2(0.0, 1.0, 1.0))


def test_recursion_tightness_where_mass_positive():
    rng = np.random.default_rng(3)
    for _ in range(50):
        table = verify.random_rpt_table(rng, int(rng.integers(2, 5)))
        q = cm.smooth_recursion_q(table)
        for i in range(1, table.b + 1):
            if q[i - 1] > 0:
                lhs = sum(q[s - 1] / (2 * table.require(i, s)) for s in range(1, i + 1))
                assert lhs == pytest.approx(1.0, abs=1e-9)


def test_full_network_condition():
    t = SmoothnessTable.from_rpt_rows([[3.0], [1.0, 0.5], [2.0, 1.5, 1.0]])
    assert cm.full_network_optimal_smooth(t)  # first constant is the max
    t2 = SmoothnessTable.from_rpt_rows([[1.0], [3.0, 0.5], [2.0, 1.5, 1.0]])
    assert not cm.full_network_optimal_smooth(t2)


def test_vertex_iff_condition_over_random_tables():
    rng = np.random.default_rng(4)
    for _ in range(200):
        table = verify.random_rpt_table(rng, int(rng.integers(2, 5)))
        p = cm.optimal_rpt_probs_smooth(table)
        assert bool(np.all(p[1:] == 0.0)) == cm.full_network_optimal_smooth(table)


# ---------------------------------------------------------------------------
# partitioned closed form
# ---------------------------------------------------------------------------

def test_partition_probs_proportional_exact():
    blocks = (frozenset({1, 2}), frozenset({3, 4}))
    l0 = {(1, 1): 2.0, (2, 1): 4.0, (3, 2): 0.5, (4, 2): 1.0}
    t = SmoothnessTable(TableMode.PARTITION, 4, l0)
    res = cm.optimal_partition_probs(blocks, t, "smooth")
    np.testing.assert_array_equal(res.p, [0.8, 0.2])  # exact: 4/(4+1), 1/(4+1)
    assert res.min_expected_cost is None


def test_partition_probs_uniform_when_equal():
    blocks = tuple(frozenset({i}) for i in range(1, 4))
    l0 = {(i, i): 1.5 for i in range(1, 4)}
    t = SmoothnessTable(TableMode.PARTITION, 3, l0)
    res = cm.optimal_partition_probs(blocks, t, "smooth")
    np.testing.assert_allclose(res.p, 1.0 / 3.0, atol=1e-15)


def test_partition_min_cost_formula():
    blocks = (frozenset({1, 2}), frozenset({3, 4}))
    l0 = {(1, 1): 2.0, (2, 1): 4.0, (3, 2): 0.5, (4, 2): 1.0}
    t = SmoothnessTable(TableMode.PARTITION, 4, l0)
    cp = CostParams(0.5, (1.0,) * 4, (0.2,) * 4)
    res = cm.optimal_partition_probs(blocks, t, "smooth", cp)
    d1 = 0.5 + 4.0 + 0.4  # c_ov + tail costs from layer 1 + block sharp costs
    d2 = 0.5 + 2.0 + 0.4
    assert res.min_expected_cost == pytest.approx(2 * (d1 * 4.0 + d2 * 1.0))


def test_partition_empty_block_rejected():
    t = SmoothnessTable(TableMode.PARTITION, 1, {(1, 1): 1.0})
    with pytest.raises(ValueError, match="empty block"):
        cm.optimal_partition_probs((frozenset(), frozenset({1})), t)


def test_partition_probs_beat_other_distributions():
    # closed form minimizes cost / min-weight over the block simplex
    rng = np.random.default_rng(5)
    blocks = (frozenset({1, 4}), frozenset({2, 3}))
    l0 = {(1, 1): 1.0, (4, 1): 2.5, (2, 2): 1.5, (3, 2): 0.7}
    t = SmoothnessTable(TableMode.PARTITION, 4, l0)
    cp = verify.random_cost_params(rng, 4)
    d = [
        cp.c_ov + sum(cp.c[min(blk) - 1 :]) + sum(cp.c_sharp[j - 1] for j in blk)
        for blk in blocks
    ]
    maxes = [max(l0[(i, k + 1)] for i in blk) for k, blk in enumerate(blocks)]

    def objective(p):
        weights = [p[k] / (2 * maxes[k]) for k in range(2)]
        if min(weights) <= 0:
            return math.inf
        return float(np.dot(d, p)) / min(weights)

    res = cm.optimal_partition_probs(blocks, t, "smooth", cp)
    assert objective(res.p) <= objective(cm.brute_force_optimal_probs(objective, 2, 400)) + 1e-9
    assert objective(res.p) == pytest.approx(res.min_expected_cost, rel=1e-12)


# ---------------------------------------------------------------------------
# (L0, L1) numeric solver
# ---------------------------------------------------------------------------

def l1_table_b2(l1_first, l1_21, l1_22):
    return SmoothnessTable.from_rpt_rows(
        [[1.0], [1.0, 0.8]], [[l1_first], [l1_21, l1_22]]
    )


def test_l0l1_vertex_when_first_layer_max():
    cp = CostParams(0.5, (1.0, 1.0), (0.2, 0.2))
    sol = cm.optimal_rpt_probs_l0l1(l1_table_b2(3.0, 2.0, 1.5), cp, "eps")
    np.testing.assert_array_equal(sol.p, [1.0, 0.0])
    assert sol.first_layer_l1_is_max and not sol.vertex_beaten


def test_l0l1_vertex_beaten_when_first_layer_not_max():
    cp = CostParams(0.5, (1.0, 1.0), (0.2, 0.2))
    sol = cm.optimal_rpt_probs_l0l1(l1_table_b2(1.0, 2.0, 1.5), cp, "eps")
    assert sol.vertex_beaten and not sol.first_layer_l1_is_max
    assert sol.p[1] > 0.0
    assert sol.value < sol.vertex_value


def test_l0l1_solver_matches_grid_oracle():
    rng = np.random.default_rng(6)
    for _ in range(10):
        table = verify.random_l1_rpt_table(rng, 3, first_layer_max=bool(rng.integers(2)))
        cp = verify.random_cost_params(rng, 3)
        sol = cm.optimal_rpt_probs_l0l1(table, cp, "eps")
        oracle = cm.brute_force_optimal_probs(
            lambda p: cm.rpt_cost_objective_l0l1(p, table, cp, "eps"), 3, 60
        )
        oracle_val = cm.rpt_cost_objective_l0l1(oracle, table, cp, "eps")
        assert sol.value <= oracle_val + 1e-9


def test_l0l1_scale_invariance_eps_regime():
    # scaling all L1 by a constant rescales the objective uniformly
    cp = CostParams(0.5, (1.0, 1.0), (0.2, 0.2))
    t1 = l1_table_b2(1.0, 2.0, 1.5)
    t2 = l1_table_b2(3.0, 6.0, 4.5)
    s1 = cm.optimal_rpt_probs_l0l1(t1, cp, "eps")
    s2 = cm.optimal_rpt_probs_l0l1(t2, cp, "eps")
    np.testing.assert_allclose(s1.p, s2.p, atol=1e-12)
    assert s2.value == pytest.approx(3.0 * s1.value, rel=1e-9)


PARTITION3 = SmoothnessTable(
    TableMode.PARTITION, 3, {(1, 1): 1.0, (2, 2): 2.0, (3, 3): 1.0},
    {(1, 1): 0.5, (2, 2): 0.5, (3, 3): 0.5},
)


@pytest.mark.parametrize("read", [
    lambda t: cm.optimal_rpt_probs_l0l1(t, CostParams(1.0, (1.0,) * 3, (0.0,) * 3), "eps"),
    lambda t: cm.horizon_eta_caps([0.5, 0.3, 0.2], t, 10),
    cm.optimal_rpt_probs_smooth,
], ids=["l0l1_solver", "horizon_caps", "smooth_recursion"])
def test_cutoff_keyed_reads_name_a_partition_tables_mode(read):
    message = "^cutoff-keyed constants need an rpt_cutoff-mode table, got partition$"
    with pytest.raises(ValueError, match=message):
        read(PARTITION3)


def test_l0l1_dimension_limit():
    big = SmoothnessTable.from_rpt_rows(
        [[1.0] * i for i in range(1, 10)], [[1.0] * i for i in range(1, 10)]
    )
    with pytest.raises(ValueError, match="partition"):
        cm.optimal_rpt_probs_l0l1(big, CostParams(0.1, (1.0,) * 9, (0.0,) * 9), "eps")


def test_l0l1_eps2_regime_runs_and_uses_l0():
    cp = CostParams(0.5, (1.0, 1.0), (0.2, 0.2))
    sol = cm.optimal_rpt_probs_l0l1(l1_table_b2(1.0, 2.0, 1.5), cp, "eps2")
    assert sol.regime == "eps2" and np.isfinite(sol.value)


# ---------------------------------------------------------------------------
# brute force oracle
# ---------------------------------------------------------------------------

def test_brute_force_constant_objective_first_lexicographic():
    p = cm.brute_force_optimal_probs(lambda p: 1.0, 3, 10)
    np.testing.assert_array_equal(p, [0.0, 0.0, 1.0])  # ascending lexicographic start


def test_brute_force_quadratic_toy():
    target = np.array([0.3, 0.7])
    p = cm.brute_force_optimal_probs(lambda p: float(np.sum((p - target) ** 2)), 2, 10)
    np.testing.assert_allclose(p, [0.3, 0.7], atol=1e-12)  # on-grid minimizer


def test_simplex_grid_counts_and_validity():
    grid = cm.simplex_grid(3, 10)
    assert grid.shape == (math.comb(12, 2), 3)
    np.testing.assert_allclose(grid.sum(axis=1), 1.0, atol=1e-12)


def recursive_compositions(n, b):
    """Reference: all compositions of n into b non-negative parts, ascending lexicographic,
    built by the recursion that ``simplex_grid`` replaced."""
    if b == 1:
        return np.array([[n]])
    rows = []
    for k in range(n + 1):
        rest = recursive_compositions(n - k, b - 1)
        rows.append(np.hstack([np.full((rest.shape[0], 1), k), rest]))
    return np.vstack(rows)


# every (b, n) the solver's L0L1_GRID_DENOMINATOR, verify (b in 2..4 at 1/100 and 1/40)
# and the brute-force tests ask for, and a second b = 1 grid
GRID_SIZES = sorted(set(cm.L0L1_GRID_DENOMINATOR.items())
                    | {(2, 100), (3, 100), (4, 100), (2, 40), (3, 40), (4, 40), (2, 400),
                       (3, 60), (3, 10), (2, 10), (1, 7)})


@pytest.mark.parametrize("b, n", GRID_SIZES, ids=[f"b{b}_n{n}" for b, n in GRID_SIZES])
def test_simplex_grid_equals_the_recursive_compositions(b, n):
    grid = cm.simplex_grid(b, n)
    reference = recursive_compositions(n, b) / float(n)
    assert grid.dtype == reference.dtype and grid.shape == reference.shape
    assert np.array_equal(grid, reference)
    assert not grid.flags.writeable and cm.simplex_grid(b, n) is grid


def test_l0l1_solve_builds_the_dense_cutoff_matrices_once(monkeypatch):
    calls = []
    rpt_matrix = cm._rpt_matrix

    def counting(table, which="l0"):
        calls.append(which)
        return rpt_matrix(table, which)

    monkeypatch.setattr(cm, "_rpt_matrix", counting)
    table = verify.random_l1_rpt_table(np.random.default_rng(8), 8, first_layer_max=False)
    cp = verify.random_cost_params(np.random.default_rng(9), 8)
    for regime in ("eps", "eps2"):
        calls.clear()
        cm.optimal_rpt_probs_l0l1(table, cp, regime)
        assert calls == ["l0", "l1"]


# ---------------------------------------------------------------------------
# total cost
# ---------------------------------------------------------------------------

def test_total_cost_full_network_matches_display():
    # uniform constants L: total = (delta0 / eps) * 2L * (c_ov + sum(c + c_sharp))
    table = SmoothnessTable.from_rpt_rows([[2.0], [2.0, 2.0], [2.0, 2.0, 2.0]])
    bd = cm.total_cost(sp.FullNetwork(3), CP3, table, 1e-2, "smooth", delta0=1.0,
                       apply_ceil=False)
    expected_k = 1.0 / (1e-2 * (1.0 / (2 * 2.0)))
    assert bd.iterations == pytest.approx(expected_k)
    assert bd.total == pytest.approx(expected_k * (1.0 + 6.0 + 0.6))


# blocks {1, 2} and {3} drawn with p = (0.6, 0.4); block-keyed L0 = (2, 3, 1.5), L1 = (0.5, 0.2, 0.1)
PARTITION_SCHEME = sp.PartitionedSubmodel((frozenset({1, 2}), frozenset({3})), (0.6, 0.4))
PARTITION_TABLE = SmoothnessTable(
    TableMode.PARTITION, 3, {(1, 1): 2.0, (2, 1): 3.0, (3, 2): 1.5},
    {(1, 1): 0.5, (2, 1): 0.2, (3, 2): 0.1},
)
PARTITION_COST = CostParams(1.0, (1.0,) * 3, (0.5,) * 3)
# smooth: w = p / (2 L0) = (0.15, 0.1, 0.1333), K = 1 / (eps 0.1);
# l0l1: w = p / L1 = (1.2, 3, 4), K = 2 / (eps 1.2) rounded up, and
# K = 2 sum(p L0 / L1^2) / (eps min w)^2 = 2 (4.8 + 45 + 60) / (1e-3 1.2)^2
PARTITION_COSTS = {"smooth": (10000, 0.1), "l0l1_eps": (1667, 1.2), "l0l1_eps2": (152500000, 1.2)}


@pytest.mark.parametrize("regime", sorted(PARTITION_COSTS))
def test_total_cost_on_a_partitioned_scheme(regime):
    bd = cm.total_cost(PARTITION_SCHEME, PARTITION_COST, PARTITION_TABLE, 1e-3, regime)
    iterations, min_weight = PARTITION_COSTS[regime]
    assert bd.iterations == iterations
    assert bd.terms["min_weight"] == pytest.approx(min_weight, rel=1e-12)
    # c_ov + c.F + c_sharp.Q with F = (0.6, 0.6, 1) and Q = (0.6, 0.6, 0.4)
    assert bd.expected_iteration_cost == pytest.approx(1.0 + 2.2 + 0.8, rel=1e-12)
    assert bd.total == bd.iterations * bd.expected_iteration_cost


def test_total_cost_eps_scaling():
    table = verify.random_rpt_table(np.random.default_rng(8), 3)
    b1 = cm.total_cost(sp.Rpt((0.5, 0.3, 0.2)), CP3, table, 1e-3, "smooth", apply_ceil=False)
    b2 = cm.total_cost(sp.Rpt((0.5, 0.3, 0.2)), CP3, table, 5e-4, "smooth", apply_ceil=False)
    assert b2.iterations == pytest.approx(2 * b1.iterations)


def test_total_cost_degenerate_rpt_equals_full():
    table = verify.random_rpt_table(np.random.default_rng(9), 3)
    a = cm.total_cost(sp.Rpt((1.0, 0.0, 0.0)), CP3, table, 1e-3, "smooth")
    b = cm.total_cost(sp.FullNetwork(3), CP3, table, 1e-3, "smooth")
    assert a.total == pytest.approx(b.total)
    assert a.iterations == b.iterations


@pytest.mark.parametrize("eps, delta0", [
    (math.inf, 1.0), (math.nan, 1.0), (0.0, 1.0), (1e-3, math.inf), (1e-3, math.nan), (1e-3, -1.0),
])
def test_total_cost_refuses_non_positive_or_non_finite_eps_and_delta0(eps, delta0):
    table = verify.random_rpt_table(np.random.default_rng(10), 3)
    with pytest.raises(ValueError, match="eps and delta0 must be positive"):
        cm.total_cost(sp.Rpt((0.5, 0.3, 0.2)), CP3, table, eps, "smooth", delta0=delta0)


def test_total_cost_zero_weight_layer_errors():
    table = verify.random_rpt_table(np.random.default_rng(10), 3)
    with pytest.raises(ValueError, match="layer 1 never updated"):
        cm.total_cost(sp.Rpt((0.0, 0.5, 0.5)), CP3, table, 1e-3, "smooth")


def test_total_cost_l0l1_regimes():
    rng = np.random.default_rng(11)
    table = verify.random_l1_rpt_table(rng, 3, True)
    cp = verify.random_cost_params(rng, 3)
    scheme = sp.Rpt((0.5, 0.3, 0.2))
    b_eps = cm.total_cost(scheme, cp, table, 1e-2, "l0l1_eps", apply_ceil=False)
    b_eps2 = cm.total_cost(scheme, cp, table, 1e-2, "l0l1_eps2", apply_ceil=False)
    assert b_eps.iterations > 0 and b_eps2.iterations > 0
    # the 1/eps^2 term grows faster as eps shrinks
    b_eps_small = cm.total_cost(scheme, cp, table, 1e-4, "l0l1_eps", apply_ceil=False)
    b_eps2_small = cm.total_cost(scheme, cp, table, 1e-4, "l0l1_eps2", apply_ceil=False)
    assert b_eps_small.iterations == pytest.approx(100 * b_eps.iterations)
    assert b_eps2_small.iterations == pytest.approx(10_000 * b_eps2.iterations)


def test_cost_breakdown_consistency():
    table = verify.random_rpt_table(np.random.default_rng(12), 4)
    cp = verify.random_cost_params(np.random.default_rng(13), 4)
    bd = cm.total_cost(sp.Rpt((0.4, 0.3, 0.2, 0.1)), cp, table, 1e-3, "smooth")
    assert bd.total == pytest.approx(bd.iterations * bd.expected_iteration_cost, rel=1e-9)
    assert bd.expected_iteration_cost == pytest.approx(
        bd.terms["overhead"] + bd.terms["backward_forward"] + bd.terms["sharp_update"]
    )


# ---------------------------------------------------------------------------
# tau-nice scan
# ---------------------------------------------------------------------------

def test_tau_scan_constant_l_prefers_full():
    cp = CostParams(0.4, (1.0,) * 5, (0.2,) * 5)
    scan = cm.tau_nice_cost_scan(cp, lambda i, tau: 2.0)
    assert scan.argmin_tau() == 5
    assert scan.cost_factor_strictly_decreasing


def test_tau_scan_linear_l_prefers_single():
    cp = CostParams(0.4, (1.0,) * 5, (0.2,) * 5)
    scan = cm.tau_nice_cost_scan(cp, lambda i, tau: 0.5 * tau)
    assert scan.argmin_tau() == 1


def test_tau_scan_b_factor_full_network_value():
    cp = CostParams(0.4, (1.0, 2.0, 3.0), (0.5, 0.5, 0.5))
    scan = cm.tau_nice_cost_scan(cp, lambda i, tau: 1.0)
    # at tau = b the cost factor is c_ov + sum(c + c_sharp)
    assert scan.rows[-1].cost_factor == pytest.approx(0.4 + 6.0 + 1.5)
