"""Property and oracle suites behind the ``verify`` CLI command.

Each suite function returns a list of CheckResult; a check compares library
output against an independent oracle (brute-force grid minimization, Monte
Carlo frequencies, finite differences, exact enumeration) or asserts an
identity at a stated tolerance.  The suites double as the implementation of
the acceptance tests, which call them with pinned parameters.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import costmodel, geometry, optimizer, problems, sampling
from .costmodel import CostParams, SmoothnessTable, TableMode
from .geometry import NormKind

__all__ = [
    "CheckResult",
    "SUITES",
    "run_suite",
    "random_rpt_table",
    "random_l1_rpt_table",
    "random_cost_params",
    "empirical_marginals",
    "rate_check_setup",
    "cost_ratio_setup",
    "recursion_oracle_checks",
    "l0l1_condition_check",
    "geometry_suite",
    "sampling_suite",
    "descent_suite",
    "rates_suite",
    "cost_suite",
    "stochastic_suite",
]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: dict = field(default_factory=dict)

    def __repr__(self):
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}"


def _check(name: str, passed, **detail) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


# The sizes of the acceptance criteria that the suites state, by criterion
GEOMETRY_MATRICES, GEOMETRY_TOL = 1000, 1e-9  # 1: random matrices per norm kind, tolerance
RATE_SEEDS, RATE_HORIZONS = 20, (10, 100, 1000)  # 3
TREND_K_SHORT, TREND_K_LONG, TREND_FACTOR = 16, 256, 1.5  # 6: horizons, required short / long
TREND_SEEDS = 20  # 6: runs per horizon
COST_RATIO_RPT_SEEDS = 5  # 7


# ---------------------------------------------------------------------------
# Random instance generators (shared by suites and tests)
# ---------------------------------------------------------------------------

def random_rpt_table(rng: np.random.Generator, b: int) -> SmoothnessTable:
    """Random cutoff-keyed L0 table satisfying nested-set monotonicity.

    Row i is drawn from U(0.2, 3) and sorted decreasing in the cutoff s, so
    shrinking the active set never increases a constant.
    """
    rows = [np.sort(rng.uniform(0.2, 3.0, size=i))[::-1].tolist() for i in range(1, b + 1)]
    return SmoothnessTable.from_rpt_rows(rows)


def random_l1_rpt_table(
    rng: np.random.Generator, b: int, first_layer_max: bool
) -> SmoothnessTable:
    """Random (L0, L1) table controlling whether L1_{1,[b]} is the row-1 maximum.

    ``first_layer_max=True`` makes L1_{1,[b]} at least 1.1 times every other
    full-network constant; False makes it at most their maximum / 1.1.
    """
    rows0 = [np.sort(rng.uniform(0.2, 3.0, size=i))[::-1].tolist() for i in range(1, b + 1)]
    rows1 = [np.sort(rng.uniform(0.5, 2.0, size=i))[::-1].tolist() for i in range(2, b + 1)]
    other_max = max(row[0] for row in rows1)
    if first_layer_max:
        first = other_max * 1.1 * float(rng.uniform(1.0, 1.5))
    else:
        first = other_max / 1.1 * float(rng.uniform(0.4, 1.0))
    return SmoothnessTable.from_rpt_rows(rows0, [[first]] + rows1)


def random_cost_params(rng: np.random.Generator, b: int) -> CostParams:
    return CostParams(
        float(rng.uniform(0.0, 1.0)),
        rng.uniform(0.5, 2.0, size=b).tolist(),
        rng.uniform(0.0, 1.0, size=b).tolist(),
    )


def _random_matrix(rng):
    return rng.standard_normal((int(rng.integers(1, 7)), int(rng.integers(1, 7))))


# ---------------------------------------------------------------------------
# geometry suite
# ---------------------------------------------------------------------------

def geometry_suite(seed: int = 0):
    """LMO/sharp identities over random matrices, per norm kind, at ``GEOMETRY_TOL``."""
    rng = np.random.default_rng(seed)
    results = []
    for kind in (NormKind.EUCLIDEAN, NormKind.SPECTRAL):
        worst = {"normlmo": 0.0, "inplmo": 0.0, "inpsharp": 0.0, "normsharp": 0.0,
                 "consistency": 0.0, "cauchy_schwarz": 0.0}
        for _ in range(GEOMETRY_MATRICES):
            m = _random_matrix(rng)
            if not m.any():
                continue
            t = float(rng.uniform(0.1, 5.0))
            step = geometry.lmo(kind, m, t).step
            dn = geometry.dual_norm(kind, m)
            sh = geometry.sharp(kind, m)
            worst["normlmo"] = max(worst["normlmo"], abs(geometry.norm(kind, step) - t))
            worst["inplmo"] = max(worst["inplmo"], abs(float(np.sum(m * step)) + t * dn))
            worst["inpsharp"] = max(
                worst["inpsharp"], abs(float(np.sum(m * sh)) - geometry.norm(kind, sh) ** 2)
            )
            worst["normsharp"] = max(worst["normsharp"], abs(dn - geometry.norm(kind, sh)))
            worst["consistency"] = max(
                worst["consistency"],
                float(np.max(np.abs(sh + dn * geometry.lmo(kind, m, 1.0).step))),
            )
            other = rng.standard_normal(m.shape)
            viol = abs(float(np.sum(m * other))) - dn * geometry.norm(kind, other)
            worst["cauchy_schwarz"] = max(worst["cauchy_schwarz"], viol)
        for name, err in worst.items():
            results.append(_check(f"geometry/{kind.value}/{name}", err <= GEOMETRY_TOL,
                                  max_abs_error=err, tol=GEOMETRY_TOL))
    results.append(_stacked_spectral_check(rng))
    return results


def _stacked_spectral_check(rng: np.random.Generator) -> CheckResult:
    """Stacked nuclear norms, LMO steps and sharp operators equal the per-matrix calls exactly.

    Each of 200 random same-shape stacks may hold a zero (degenerate) and a
    rank-one member; the tolerance is zero.
    """
    n_stacks = 200
    mismatches = 0
    spectral = NormKind.SPECTRAL
    for _ in range(n_stacks):
        m_dim, n_dim = (int(d) for d in rng.integers(1, 13, size=2))
        stack = rng.standard_normal((int(rng.integers(2, 7)), m_dim, n_dim))
        if rng.random() < 0.25:
            stack[int(rng.integers(len(stack)))] = 0.0
        if rng.random() < 0.25:
            stack[int(rng.integers(len(stack)))] = np.outer(
                rng.standard_normal(m_dim), rng.standard_normal(n_dim)
            )
        radii = rng.uniform(0.1, 5.0, size=len(stack))
        nuclear = geometry.dual_norms(spectral, stack)
        steps, degenerate = geometry.lmos(spectral, stack, radii)
        sharps = geometry.sharps(spectral, stack)
        for j, m in enumerate(stack):
            ref = geometry.lmo(spectral, m, float(radii[j]))
            if (
                nuclear[j] != geometry.dual_norm(spectral, m)
                or degenerate[j] != ref.degenerate
                or not np.array_equal(steps[j], ref.step)
                or not np.array_equal(sharps[j], geometry.sharp(spectral, m))
            ):
                mismatches += 1
    return _check(
        "geometry/spectral/stacked_matches_per_matrix", mismatches == 0,
        mismatches=mismatches, stacks=n_stacks, tol=0.0,
    )


# ---------------------------------------------------------------------------
# sampling suite
# ---------------------------------------------------------------------------

def empirical_marginals(scheme, draws, seed):
    """Monte Carlo F_i = P(min S <= i) and Q_i = P(i in S) from ``stream(seed)``.

    Each distinct drawn set adds its count once.
    """
    rng = sampling.stream(seed)
    counts = Counter(sampling.sample(scheme, rng) for _ in range(draws))
    f = np.zeros(scheme.b)
    q = np.zeros(scheme.b)
    for s, n in counts.items():
        f[min(s) - 1 :] += n
        q[[i - 1 for i in s]] += n
    return f / draws, q / draws


def _marginal_check(name, scheme, draws, seed):
    f_emp, q_emp = empirical_marginals(scheme, draws, seed)
    f, q = sampling.marginals(scheme)
    worst_z = 0.0
    ok = True
    for emp, ana in ((f_emp, f), (q_emp, q)):
        for i in range(scheme.b):
            var = ana[i] * (1.0 - ana[i])
            tol = 3.0 * math.sqrt(var / draws) if var > 0 else 0.0
            err = abs(emp[i] - ana[i])
            if err > tol + 1e-12:
                ok = False
            if var > 0:
                worst_z = max(worst_z, err / math.sqrt(var / draws))
    return _check(f"sampling/marginals/{name}", ok, draws=draws, worst_z=worst_z)


def sampling_suite(seed: int = 0):
    """Monte Carlo marginals vs closed forms (3-sigma binomial), plus structure checks."""
    draws = 100_000
    rng = np.random.default_rng(seed)
    p6 = rng.uniform(0.2, 1.0, size=6)
    p6 /= p6.sum()
    schemes = {
        "rpt_b6": sampling.Rpt(tuple(p6)),
        "tau_nice_8_3": sampling.TauNice(8, 3),
        "tau_submodel_7_3": sampling.TauSubmodel(7, 3, (0.3, 0.25, 0.2, 0.15, 0.1)),
        "partitioned_b6": sampling.PartitionedSubmodel(
            (frozenset({1, 4}), frozenset({2, 5}), frozenset({3, 6})), (0.5, 0.3, 0.2)
        ),
    }
    results = [
        _marginal_check(name, scheme, draws, seed + j)
        for j, (name, scheme) in enumerate(schemes.items())
    ]

    f, q = sampling.marginals(sampling.TauNice(8, 3))
    results.append(
        _check("sampling/tau_nice_q_exact", np.allclose(q, 3.0 / 8.0, atol=0), q=q.tolist())
    )
    f, q = sampling.marginals(schemes["rpt_b6"])
    results.append(
        _check(
            "sampling/rpt_f_equals_q_nondecreasing",
            np.array_equal(f, q) and np.all(np.diff(f) >= 0) and abs(f[-1] - 1) < 1e-12,
        )
    )
    f, q = sampling.marginals(sampling.FullNetwork(5))
    results.append(_check("sampling/full_network_ones", np.all(f == 1) and np.all(q == 1)))

    serial = sampling.PartitionedSubmodel(
        tuple(frozenset({i}) for i in range(1, 5)), (0.1, 0.2, 0.3, 0.4)
    )
    _, q = sampling.marginals(serial)
    sizes = {len(sampling.sample(serial, sampling.stream(seed, k))) for k in range(200)}
    results.append(
        _check(
            "sampling/serial_singleton_blocks",
            np.allclose(q, [0.1, 0.2, 0.3, 0.4]) and sizes == {1},
        )
    )

    worst = 0.0
    for b in (1, 2, 7, 64):
        for alpha in (-4.0, -0.5, 0.0, 0.5, 4.0):
            for progress in (0.0, 0.25, 0.5, 1.0):
                p = sampling.epoch_shift_probs(b, alpha, progress)
                worst = max(worst, abs(float(p.sum()) - 1.0))
    results.append(_check("sampling/epoch_shift_sums_to_one", worst <= 1e-12, worst=worst))
    return results


# ---------------------------------------------------------------------------
# descent suite (deterministic path)
# ---------------------------------------------------------------------------

def _weighted_quadratic(rng):
    """Three 2x2 separable layers whose curvature spectra span [L/4, L], L = 1, 2, 1.5."""
    weights = []
    targets = []
    for li in (1.0, 2.0, 1.5):
        w = np.exp(rng.uniform(np.log(li / 4.0), np.log(li), size=(2, 2)))
        w.flat[0] = li  # pin the max so the table constant is exact
        weights.append(w)
        targets.append(rng.standard_normal((2, 2)))
    return problems.SeparableQuadratic(targets, weights)


def rate_check_setup(seed: int = 0):
    """Problem, scheme, table, and start point for the descent/rate checks."""
    rng = np.random.default_rng(seed)
    prob = _weighted_quadratic(rng)
    scheme = sampling.Rpt((0.5, 0.3, 0.2))
    norms = [NormKind.EUCLIDEAN] * 3
    table = problems.smoothness_constants(prob, scheme, norms)
    x0 = [a + rng.standard_normal(a.shape) for a in prob.targets]
    return prob, scheme, table, norms, x0


def descent_suite(seed: int = 0):
    iterations = 300
    results = []
    prob, scheme, table, norms, x0 = rate_check_setup(seed)

    res = optimizer.run(
        prob, scheme, optimizer.SmoothInverse(table), iterations, seed, norms=norms, x0=x0
    )
    descent_ok = all(r.f_after <= r.f_before + 1e-10 for r in res.reports)
    results.append(_check("descent/monotone_f", descent_ok, iterations=iterations))

    worst_gap = math.inf
    ok = True
    for r in res.reports:
        key = min(r.active)
        bound = sum(
            r.grad_dual_norms[i] ** 2 / (2.0 * table.require(i, key)) for i in r.active
        )
        gap = (r.f_before - r.f_after) - bound
        worst_gap = min(worst_gap, gap)
        if gap < -1e-8:
            ok = False
    results.append(_check("descent/per_step_decrease_bound", ok, worst_slack=worst_gap))

    # freeze invariance: inactive layers bit-identical across a step
    snapshots = []
    optimizer.run(
        prob, scheme, optimizer.SmoothInverse(table), 50, seed + 1, norms=norms, x0=x0,
        on_step=lambda view: snapshots.append((view.report.active, _copies(view.layers))),
    )
    frozen_ok = True
    before = x0
    for active, after in snapshots:
        for i in range(1, prob.b + 1):
            if i not in active and not np.array_equal(before[i - 1], after[i - 1]):
                frozen_ok = False
        before = after
    results.append(_check("descent/freeze_invariance", frozen_ok))

    # one zero-noise stochastic step with beta = 1 matches the deterministic direction exactly
    t = 0.1
    res = optimizer.run(
        prob, sampling.FullNetwork(prob.b), optimizer.FixedRadius((t,) * prob.b, beta=1.0), 1,
        seed, norms=norms, x0=x0,
    )
    _, grads = prob.value_and_grad(x0)
    max_err = 0.0
    for i in range(prob.b):
        expected = x0[i] - (t / np.linalg.norm(grads[i])) * grads[i]
        max_err = max(max_err, float(np.max(np.abs(res.model.layers[i] - expected))))
    results.append(
        _check("descent/zero_noise_matches_det_direction", max_err <= 1e-12, max_err=max_err)
    )
    results.append(_prefix_reuse_check(seed))
    return results


def _copies(arrays) -> list[np.ndarray]:
    return [a.copy() for a in arrays]


def _prefix_reuse_check(seed: int) -> CheckResult:
    """Each iterate's f and gradients from a run's prefix-reusing TinyMlp passes equal a
    fresh ``value_and_grad`` call exactly."""
    iterations = 30
    passes = mismatches = 0
    for activation in ("tanh", "relu"):
        mlp = problems.TinyMlp.synthetic([4, 6, 6, 5, 3], 12, activation=activation, seed=seed)
        seen = []  # (layers, f, gradients) at each x_{k+1}
        optimizer.run(
            mlp, sampling.Rpt((0.3, 0.3, 0.2, 0.2)), optimizer.HorizonSchedule(), iterations,
            seed, x0=mlp.weights, noise=problems.NoiseSpec((0.05,) * 4),
            on_step=lambda view: seen.append(
                (_copies(view.layers), view.report.f_after, _copies(view.grads))
            ),
        )
        for layers, f, grads in seen:
            f_ref, grads_ref = mlp.value_and_grad(layers)
            mismatches += f != f_ref or not all(map(np.array_equal, grads, grads_ref))
        passes += len(seen)
    ok = mismatches == 0 and passes == 2 * iterations
    return _check(
        "descent/mlp/prefix_reuse_matches_fresh", ok, passes=passes, mismatches=mismatches
    )


# ---------------------------------------------------------------------------
# rates suite (deterministic rate bound)
# ---------------------------------------------------------------------------

def rates_suite(seed: int = 0):
    """Averaged weighted squared dual gradient norms against the rate bound."""
    prob, scheme, table, norms, x0 = rate_check_setup(seed)
    delta0 = prob.value_and_grad(x0)[0] - prob.f_star
    tw = costmodel.theory_weights(scheme.p, table, "smooth")
    results = []
    for horizon in RATE_HORIZONS:
        values = []
        for s in range(RATE_SEEDS):
            res = optimizer.run(
                prob, scheme, optimizer.SmoothInverse(table), horizon, seed * 1000 + s,
                norms=norms, x0=x0,
            )
            acc = 0.0
            for r in res.reports:
                acc += sum(
                    tw.w[i - 1] / tw.mean * r.grad_dual_norms[i] ** 2
                    for i in range(1, prob.b + 1)
                )
            values.append(acc / horizon)
        lhs = float(np.mean(values))
        rhs = costmodel.smooth_rate_rhs(delta0, horizon, tw)
        results.append(
            _check(
                f"rates/weighted_grad_bound_K{horizon}",
                lhs <= rhs,
                lhs=lhs, rhs=rhs, margin=1.0 - lhs / rhs, seeds=RATE_SEEDS,
            )
        )
    return results


# ---------------------------------------------------------------------------
# cost suite
# ---------------------------------------------------------------------------

def recursion_oracle_checks(rng: np.random.Generator, n_tables: int) -> list[CheckResult]:
    """Checks (a)-(c) of the smooth-regime recursion over ``n_tables`` random tables.

    Per table (b in 2..4, with random cost parameters):
    (a) the recursion's objective is at most every simplex-grid point's
        (resolution 1/100) + 1e-9;
    (b) it returns the vertex iff the full-network condition holds;
    (c) it stays optimal under 10 further cost-parameter draws: its objective
        is at most every resolution-1/40 grid point's + 1e-9.
    """
    worst_excess = -math.inf
    grid_ok = True
    mismatches = 0
    worst_other_excess = -math.inf
    for _ in range(n_tables):
        b = int(rng.integers(2, 5))
        table = random_rpt_table(rng, b)
        cp = random_cost_params(rng, b)
        p_star = costmodel.optimal_rpt_probs_smooth(table)
        val = costmodel.rpt_cost_objective_smooth(p_star, table, cp)
        grid_vals = costmodel._smooth_objective(costmodel.simplex_grid(b, 100), table)(cp)
        excess = val - float(grid_vals.min())
        worst_excess = max(worst_excess, excess)
        grid_ok = grid_ok and excess <= 1e-9
        is_vertex = bool(np.all(p_star[1:] == 0.0))
        mismatches += is_vertex != costmodel.full_network_optimal_smooth(table)
        objective = costmodel._smooth_objective(costmodel.simplex_grid(b, 40), table)
        for _ in range(10):
            other = random_cost_params(rng, b)
            val = costmodel.rpt_cost_objective_smooth(p_star, table, other)
            worst_other_excess = max(worst_other_excess, val - float(objective(other).min()))
    return [
        _check("cost/recursion_beats_grid", grid_ok, tables=n_tables, worst_excess=worst_excess),
        _check("cost/vertex_condition_equivalence", mismatches == 0,
               tables=n_tables, mismatches=mismatches),
        _check("cost/recursion_cost_param_independent", worst_other_excess <= 1e-9,
               tables=n_tables, draws_per_table=10, worst_excess=worst_other_excess),
    ]


def l0l1_condition_check(rng: np.random.Generator, n_tables: int) -> CheckResult:
    """The first-layer L1 condition against the numeric (L0, L1) solver.

    Per draw (b in 2..3): a table whose L1_{1,[b]} is not the maximum must
    have the vertex beaten, and one whose L1_{1,[b]} is the maximum by a 10%
    margin must return the vertex and report the condition.
    """
    beaten_fail = 0
    vertex_fail = 0
    for _ in range(n_tables):
        b = int(rng.integers(2, 4))
        cp = random_cost_params(rng, b)
        t_nonmax = random_l1_rpt_table(rng, b, first_layer_max=False)
        beaten_fail += not costmodel.optimal_rpt_probs_l0l1(t_nonmax, cp, "eps").vertex_beaten
        t_max = random_l1_rpt_table(rng, b, first_layer_max=True)
        sol = costmodel.optimal_rpt_probs_l0l1(t_max, cp, "eps")
        vertex_fail += not (np.array_equal(sol.p, np.eye(b)[0]) and sol.first_layer_l1_is_max)
    return _check(
        "cost/l0l1_first_layer_condition", beaten_fail == 0 and vertex_fail == 0,
        tables=n_tables, non_max_not_beaten=beaten_fail, max_not_vertex=vertex_fail,
    )


def cost_suite(seed: int = 0):
    rng = np.random.default_rng(seed)

    # (a)-(c) the smooth recursion: grid oracle, vertex condition, cost invariance
    results = recursion_oracle_checks(rng, 500)

    # (d) exchange property: positive mass forces a tight constraint
    worst_slack = 0.0
    ok = True
    for _ in range(100):
        b = int(rng.integers(2, 5))
        table = random_rpt_table(rng, b)
        q = costmodel.smooth_recursion_q(table)
        for i in range(1, b + 1):
            if q[i - 1] > 0:
                lhs = sum(q[s - 1] / (2.0 * table.require(i, s)) for s in range(1, i + 1))
                slack = abs(lhs - 1.0)
                worst_slack = max(worst_slack, slack)
                if slack > 1e-9:
                    ok = False
    results.append(_check("cost/exchange_tightness", ok, worst_slack=worst_slack))

    # (e) partitioned closed form: proportionality, LP dual certificate
    blocks = (frozenset({1, 2}), frozenset({3, 4}))
    l0 = {(1, 1): 2.0, (2, 1): 4.0, (3, 2): 0.5, (4, 2): 1.0}
    ptab = SmoothnessTable(TableMode.PARTITION, 4, l0)
    cp4 = CostParams(0.5, (1.0, 1.0, 1.0, 1.0), (0.2, 0.2, 0.2, 0.2))
    part = costmodel.optimal_partition_probs(blocks, ptab, "smooth", cp4)
    prop_ok = np.allclose(part.p, [0.8, 0.2], atol=0) and abs(part.p.sum() - 1.0) == 0.0
    d = [
        cp4.c_ov + sum(cp4.c[min(blk) - 1 :]) + sum(cp4.c_sharp[j - 1] for j in blk)
        for blk in blocks
    ]
    lam = np.zeros(4)
    dual_ok = True
    for k, blk in enumerate(blocks, start=1):
        i_k = max(blk, key=lambda i: l0[(i, k)])
        lam[i_k - 1] = d[k - 1] * 2.0 * l0[(i_k, k)]
        lhs = sum((0.5 / l0[(i, k)]) * lam[i - 1] for i in blk)
        if abs(lhs - d[k - 1]) > 1e-9:  # per-block dual constraint tight
            dual_ok = False
    # strong duality: dual objective equals the primal optimum 2 sum_k d_k max L
    dual_obj = float(lam.sum())
    primal = sum(d[k] * 2.0 * max(l0[(i, k + 1)] for i in blk) for k, blk in enumerate(blocks))
    results.append(
        _check(
            "cost/partition_probs_and_dual_certificate",
            prop_ok and dual_ok and abs(dual_obj - primal) <= 1e-9
            and abs(part.min_expected_cost - primal) <= 1e-9,
            p=part.p.tolist(), dual_obj=dual_obj, primal=primal,
        )
    )

    # (f) expected iteration cost equals the Monte Carlo mean (3 sigma), per family
    draws = 100_000
    fam_rng = np.random.default_rng(seed + 7)
    fam_schemes = {
        "rpt": sampling.Rpt((0.4, 0.3, 0.2, 0.1)),
        "tau_nice": sampling.TauNice(4, 2),
        "tau_submodel": sampling.TauSubmodel(4, 2, (0.5, 0.3, 0.2)),
        "partitioned": sampling.PartitionedSubmodel(
            (frozenset({1, 3}), frozenset({2, 4})), (0.6, 0.4)
        ),
        "full": sampling.FullNetwork(4),
    }
    for name, scheme in fam_schemes.items():
        cp = random_cost_params(fam_rng, scheme.b)
        analytic = costmodel.expected_iteration_cost(scheme, cp)
        costs = _drawn_costs(scheme, cp, draws, seed + 11)
        err = abs(float(costs.mean()) - analytic)
        tol = 3.0 * float(costs.std()) / math.sqrt(draws) + 1e-12
        results.append(
            _check(f"cost/monte_carlo_expected_cost_{name}", err <= tol, err=err, tol=tol)
        )

    # (g) first-layer L1 condition vs the numeric (L0, L1) solver
    results.append(l0l1_condition_check(rng, 200))

    # (h) tau-nice scan: constant L -> tau* = b; linear L -> tau* = 1; B decreasing
    cp6 = CostParams(0.4, (1.0, 0.8, 1.2, 0.9, 1.1, 1.0), (0.3,) * 6)
    scan_const = costmodel.tau_nice_cost_scan(cp6, lambda i, tau: 1.3)
    scan_lin = costmodel.tau_nice_cost_scan(cp6, lambda i, tau: 0.5 * tau * (1 + 0.1 * i))
    b_dec_ok = True
    for b in range(2, 13):
        cpb = CostParams(0.3, (1.0,) * b, (0.1,) * b)
        if not costmodel.tau_nice_cost_scan(cpb, lambda i, tau: 1.0).cost_factor_strictly_decreasing:
            b_dec_ok = False
    results.append(
        _check(
            "cost/tau_nice_scan",
            scan_const.argmin_tau() == 6 and scan_lin.argmin_tau() == 1 and b_dec_ok,
            const_argmin=scan_const.argmin_tau(), linear_argmin=scan_lin.argmin_tau(),
        )
    )

    # (i) total-cost structure: eps halving doubles K; degenerate RPT == full network
    table3 = random_rpt_table(rng, 3)
    cp3 = random_cost_params(rng, 3)
    full = sampling.FullNetwork(3)
    bd1 = costmodel.total_cost(full, cp3, table3, 1e-3, "smooth", apply_ceil=False)
    bd2 = costmodel.total_cost(full, cp3, table3, 5e-4, "smooth", apply_ceil=False)
    vertex_rpt = sampling.Rpt((1.0, 0.0, 0.0))
    bd3 = costmodel.total_cost(vertex_rpt, cp3, table3, 1e-3, "smooth", apply_ceil=False)
    results.append(
        _check(
            "cost/total_cost_structure",
            abs(bd2.iterations - 2 * bd1.iterations) <= 1e-9 * bd1.iterations
            and abs(bd3.total - bd1.total) <= 1e-9 * bd1.total
            and abs(bd1.total - bd1.iterations * bd1.expected_iteration_cost) <= 1e-9 * bd1.total,
        )
    )

    # (j) constructed cost-ratio instance: measured vs predicted speedup
    results.append(cost_ratio_check(seed))
    return results


def _drawn_costs(scheme, cp: CostParams, draws: int, seed: int) -> np.ndarray:
    """``iteration_cost`` of each of ``draws`` sets drawn from ``stream(seed)``, in draw
    order; each distinct set is priced once."""
    rng = sampling.stream(seed)
    drawn = [sampling.sample(scheme, rng) for _ in range(draws)]
    prices = {s: costmodel.iteration_cost(s, cp) for s in set(drawn)}
    return np.array([prices[s] for s in drawn])


def cost_ratio_setup():
    """A 4-layer instance where full-network training is provably suboptimal.

    Layer-wise constants L = (1, 2, 3, 4): the first layer's constant is the
    smallest, so the full-network optimality condition fails.  Every layer
    shares the same slow curvature mu, and the optimal cutoff distribution
    (uniform, by the recursion) activates layer i with probability L_i / L_4,
    which equalizes the per-layer progress rates: both schemes then need the
    same number of iterations to a target gap, and the whole saving is the
    per-iteration cost.
    """
    l_values = (1.0, 2.0, 3.0, 4.0)
    mu = 0.08
    shape = (2, 2)
    targets = [np.zeros(shape) for _ in l_values]
    weights = []
    for li in l_values:
        w = np.full(shape, mu)
        w[0, 0] = li
        weights.append(w)
    prob = problems.SeparableQuadratic(targets, weights)
    x0 = [np.zeros(shape) for _ in l_values]
    for i in range(3):
        x0[i][0, 0] = 1.0  # fast-direction offsets die in one active step
    x0[3] = np.array([[0.5, 3.0], [3.0, 3.0]])  # slow mass rides layer 4
    cp = CostParams(0.5, (1.0,) * 4, (0.25,) * 4)
    scheme_full = sampling.FullNetwork(4)
    table = problems.smoothness_constants(prob, scheme_full, [NormKind.EUCLIDEAN] * 4)
    p_opt = costmodel.optimal_rpt_probs_smooth(table)
    scheme_rpt = sampling.Rpt(tuple(p_opt))
    return prob, x0, cp, table, scheme_full, scheme_rpt


def cost_ratio_check(seed: int = 0) -> CheckResult:
    """Run full-network vs optimal-RPT to one f-gap target and compare cost ratios.

    Fails, without a ratio, when full-network training is optimal on the
    instance or a run does not reach the target within its budget.
    """
    name = "cost/constructed_instance_cost_ratio"
    prob, x0, cp, table, scheme_full, scheme_rpt = cost_ratio_setup()
    if costmodel.full_network_optimal_smooth(table):
        return _check(name, False, error="full-network training is optimal on the instance")
    delta0 = prob.value_and_grad(x0)[0]
    target = 1e-3 * delta0
    norms = [NormKind.EUCLIDEAN] * 4

    def cost_to_target(scheme, run_seed):
        res = optimizer.run(
            prob, scheme, optimizer.SmoothInverse(table), 2000, run_seed,
            norms=norms, x0=[x.copy() for x in x0],
        )
        cum = 0.0
        for r in res.reports:
            cum += costmodel.iteration_cost(r.active, cp)
            if r.f_after - prob.f_star <= target:
                return cum
        return None

    cost_full = cost_to_target(scheme_full, seed)
    costs_rpt = [cost_to_target(scheme_rpt, seed + 1 + s) for s in range(COST_RATIO_RPT_SEEDS)]
    if cost_full is None or None in costs_rpt:
        return _check(name, False, error="target not reached within the iteration budget")
    measured = cost_full / float(np.mean(costs_rpt))

    pred_full = costmodel.total_cost(scheme_full, cp, table, 1e-6, "smooth", delta0=delta0)
    pred_rpt = costmodel.total_cost(scheme_rpt, cp, table, 1e-6, "smooth", delta0=delta0)
    predicted = pred_full.total / pred_rpt.total
    rel_err = abs(measured - predicted) / predicted
    return _check(
        name,
        measured >= 1.1 and rel_err <= 0.15,
        measured_ratio=measured, predicted_ratio=predicted, relative_error=rel_err,
    )


# ---------------------------------------------------------------------------
# stochastic suite
# ---------------------------------------------------------------------------

def stochastic_suite(seed: int = 0):
    rng = np.random.default_rng(seed)
    results = []
    draws = 10_000

    # (a, b) noise is unbiased with the declared per-layer variance
    prob = problems.SeparableQuadratic(
        [rng.standard_normal((2, 3)), rng.standard_normal((3, 2))], [1.0, 2.0]
    )
    x = [rng.standard_normal(s) for s in prob.shapes]
    _, exact = prob.value_and_grad(x)
    spec = problems.NoiseSpec((0.5, 1.5))
    nrng = sampling.stream(seed + 1)
    sums = [np.zeros_like(g) for g in exact]
    sq = [0.0, 0.0]
    for _ in range(draws):
        gs = problems.stoch_grad(exact, spec, nrng)
        for i, g in enumerate(gs):
            noise = g - exact[i]
            sums[i] += noise
            sq[i] += float(np.sum(noise * noise))
    bias_ok = True
    for i, s in enumerate(sums):
        entry_std = spec.sigmas[i] / math.sqrt(exact[i].size)
        if np.any(np.abs(s / draws) > 3.0 * entry_std / math.sqrt(draws)):
            bias_ok = False
    var_ok = all(
        abs(sq[i] / draws - spec.sigmas[i] ** 2) <= 0.05 * spec.sigmas[i] ** 2 for i in range(2)
    )
    results.append(_check("stochastic/noise_unbiased", bias_ok, draws=draws))
    results.append(
        _check("stochastic/noise_variance_5pct", var_ok,
               measured=[sq[i] / draws for i in range(2)], target=[s**2 for s in spec.sigmas])
    )
    results.append(_check(
        "stochastic/zero_sigma_exact",
        all(np.array_equal(a, b) for a, b in zip(
            problems.stoch_grad(exact, problems.NoiseSpec((0.0, 0.0)), sampling.stream(0)),
            exact,
        )),
    ))

    # (c) every applied stochastic update has primal norm exactly t_i; frozen layers stay
    qprob, scheme, _table, norms, x0 = rate_check_setup(seed + 2)
    noise, radii = problems.NoiseSpec((0.1,) * 3), (0.05, 0.1, 0.2)
    steps = []  # (report, layers after the step)
    optimizer.run(
        qprob, scheme, optimizer.FixedRadius(radii, beta=0.7), 100, seed + 3, norms=norms,
        x0=x0, noise=noise,
        on_step=lambda view: steps.append((view.report, _copies(view.layers))),
    )
    worst, frozen_moved, before = 0.0, 0, x0
    for rep, after in steps:
        for i in rep.applied:
            step_norm = geometry.norm(norms[i - 1], after[i - 1] - before[i - 1])
            worst = max(worst, abs(step_norm - radii[i - 1]))
        frozen_moved += sum(
            not np.array_equal(before[i - 1], after[i - 1])
            for i in range(1, qprob.b + 1) if i not in rep.active
        )
        before = after
    results.append(_check(
        "stochastic/normalized_step_norm", worst <= 1e-9 and not frozen_moved,
        worst=worst, frozen_moved=frozen_moved,
    ))

    # (d) per-iteration descent inequality with the run's measured momentum error:
    # f(x_{k+1}) <= f(x_k) + sum_i 2 t_i ||M_i - g_i||_* - t_i ||g_i||_* + L_i t_i^2 / 2
    table = problems.smoothness_constants(qprob, scheme, norms)
    steps = []  # (report, momentum after the step, layers after the step)
    optimizer.run(
        qprob, scheme, optimizer.FixedRadius((0.05,) * 3, beta=0.4), 150, seed + 4,
        norms=norms, x0=x0, noise=noise,
        on_step=lambda view: steps.append(
            (view.report, _copies(view.momentum), _copies(view.layers))
        ),
    )
    violations = []
    f, grads = qprob.value_and_grad(x0)
    for rep, momentum, layers in steps:
        f_after, grads_after = qprob.value_and_grad(layers)
        rhs = f
        for i in rep.active:
            t_i = rep.applied.get(i, 0.0)
            m_err = geometry.dual_norm(norms[i - 1], momentum[i - 1] - grads[i - 1])
            rhs += 2.0 * t_i * m_err - t_i * geometry.dual_norm(norms[i - 1], grads[i - 1])
            rhs += 0.5 * table.require(i, min(rep.active)) * t_i**2
        violations.append(f_after - rhs)
        f, grads = f_after, grads_after
    results.append(_check(
        "stochastic/descent_lemma_diagnostic", all(v <= 1e-9 for v in violations),
        worst_violation=max(violations),
    ))

    # (e) horizon-schedule trend: longer horizons drive the weighted norm lower
    results.append(horizon_trend_check(seed))
    # (f) the noise that run adds is the noise that (a, b) checked
    results.append(_run_noise_check(seed))
    return results


def _run_noise_check(seed: int) -> CheckResult:
    """Each stochastic sample of a run with seed s equals
    ``stoch_grad(g(x_k), spec, stream(s, k + 1))`` bit for bit.

    Under ``FullNetwork`` no active set is drawn, and with beta = 1 the
    momentum after step k is step k's sample.  The four layers alternate two
    shapes, so the samples come from two stacked groups, and one sigma is 0.
    The run's seed comes from the check's own generator, so no other check
    draws from its streams.
    """
    rng = np.random.default_rng(seed + 5)
    iterations, run_seed = 40, int(rng.integers(2**31))
    shapes = [(2, 3), (3, 2), (2, 3), (3, 2)]
    targets = [rng.standard_normal(s) for s in shapes]
    prob = problems.SeparableQuadratic(targets, [1.0, 2.0, 0.5, 1.5])
    x0 = [rng.standard_normal(s) for s in shapes]
    spec = problems.NoiseSpec((0.5, 0.0, 1.5, 0.2))
    seen = []  # (momentum after step k, gradients at x_{k+1})
    optimizer.run(
        prob, sampling.FullNetwork(4), optimizer.FixedRadius((0.05,) * 4, beta=1.0), iterations,
        run_seed, x0=x0, noise=spec,
        on_step=lambda view: seen.append((_copies(view.momentum), _copies(view.grads))),
    )
    _, grads = prob.value_and_grad(x0)
    mismatches = 0
    for k, (momentum, grads_after) in enumerate(seen):
        expected = problems.stoch_grad(grads, spec, sampling.stream(run_seed, k + 1))
        mismatches += not all(map(np.array_equal, momentum, expected))
        grads = grads_after
    return _check(
        "stochastic/run_noise_matches_stoch_grad", mismatches == 0 and len(seen) == iterations,
        iterations=len(seen), mismatches=mismatches,
    )


def horizon_trend_check(seed: int = 0) -> CheckResult:
    """Running-min weighted dual gradient norm at two horizons of the schedule."""
    rng = np.random.default_rng(seed)
    shape = (2, 2)
    prob = problems.SeparableQuadratic(
        [np.zeros(shape) for _ in range(3)], [1.0, 1.0, 1.0]
    )
    scheme = sampling.Rpt((0.5, 0.3, 0.2))
    norms = [NormKind.EUCLIDEAN] * 3
    x0 = [0.25 * rng.standard_normal(shape) + 0.25 for _ in range(3)]
    noise = problems.NoiseSpec((0.1,) * 3)
    cum = np.cumsum(scheme.p)
    weights = cum / cum.mean()  # eta = 1

    def running_min(horizon, run_seed):
        res = optimizer.run(
            prob, scheme, optimizer.HorizonSchedule(), horizon, run_seed,
            norms=norms, x0=[x.copy() for x in x0], noise=noise,
        )
        best = math.inf
        for r in res.reports:
            val = sum(weights[i - 1] * r.grad_dual_norms[i] for i in range(1, 4))
            best = min(best, val)
        _, g_final = prob.value_and_grad(res.model.layers)
        final = sum(
            weights[i - 1] * geometry.dual_norm(norms[i - 1], g_final[i - 1])
            for i in range(1, 4)
        )
        return min(best, final)

    seeds = [seed * 7919 + s for s in range(TREND_SEEDS)]
    short = float(np.mean([running_min(TREND_K_SHORT, s) for s in seeds]))
    long = float(np.mean([running_min(TREND_K_LONG, s) for s in seeds]))
    factor = short / long
    return _check(
        "stochastic/horizon_trend",
        factor >= TREND_FACTOR,
        k_short=TREND_K_SHORT, k_long=TREND_K_LONG, factor=factor, required=TREND_FACTOR,
        short_min=short, long_min=long,
    )


SUITES = {
    "geometry": geometry_suite,
    "sampling": sampling_suite,
    "descent": descent_suite,
    "rates": rates_suite,
    "cost": cost_suite,
    "stochastic": stochastic_suite,
}


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    """Run one named suite, or all of them."""
    if name == "all":
        out = []
        for fn in SUITES.values():
            out.extend(fn(seed))
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](seed)
