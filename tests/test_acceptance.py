"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` (or ``droptrain verify
--suite all`` for the underlying property suites).  Every criterion carries a
runtime budget, asserted alongside the substance.
"""

import time

import numpy as np

from droptrain import problems as pb
from droptrain import sampling as sp
from droptrain import verify


def _report(num: int, title: str, passed: bool, elapsed: float, budget: float, detail: str):
    status = "PASS" if passed and elapsed <= budget else "FAIL"
    print(
        f"[{status}] criterion {num}: {title} ({detail}; {elapsed:.1f}s of {budget:.0f}s budget)"
    )
    assert passed, f"criterion {num} failed: {detail}"
    assert elapsed <= budget, f"criterion {num} exceeded runtime budget: {elapsed:.1f}s"


def test_criterion_1_geometry_identities():
    t0 = time.time()
    assert (verify.GEOMETRY_MATRICES, verify.GEOMETRY_TOL) == (1000, 1e-9)
    results = verify.geometry_suite(seed=0)
    elapsed = time.time() - t0
    identity_checks = [r for r in results if any(
        k in r.name for k in ("normlmo", "inplmo", "inpsharp", "normsharp")
    )]
    assert len(identity_checks) == 8  # four identities x two norm kinds
    worst = max(r.detail["max_abs_error"] for r in identity_checks)
    _report(
        1, "norm-ball identities over 1000 random matrices per kind",
        all(r.passed for r in results), elapsed, 10.0,
        f"worst abs error {worst:.2e} <= 1e-9",
    )


def test_criterion_2_marginals():
    t0 = time.time()
    draws = 100_000
    schemes = {
        "rpt": sp.Rpt((0.3, 0.25, 0.2, 0.15, 0.1)),
        "tau_nice": sp.TauNice(8, 3),
        "tau_submodel": sp.TauSubmodel(7, 3, (0.3, 0.25, 0.2, 0.15, 0.1)),
        "partitioned": sp.PartitionedSubmodel(
            (frozenset({1, 4}), frozenset({2, 5, 6}), frozenset({3})), (0.5, 0.3, 0.2)
        ),
    }
    checks = [
        verify._marginal_check(name, scheme, draws, seed=100 + j)
        for j, (name, scheme) in enumerate(schemes.items())
    ]
    _, q = sp.marginals(sp.TauNice(8, 3))
    exact_q = bool(np.all(q == 3.0 / 8.0))
    elapsed = time.time() - t0
    worst_z = max(c.detail["worst_z"] for c in checks)
    _report(
        2, "empirical marginals match closed forms (1e5 draws, 3-sigma)",
        all(c.passed for c in checks) and exact_q, elapsed, 30.0,
        f"worst z {worst_z:.2f}, tau-nice Q exactly tau/b: {exact_q}",
    )


def test_criterion_3_deterministic_descent_and_rate():
    t0 = time.time()
    descent = [r for r in verify.descent_suite(seed=0) if r.name == "descent/monotone_f"]
    assert (verify.RATE_SEEDS, verify.RATE_HORIZONS) == (20, (10, 100, 1000))
    rates = verify.rates_suite(seed=0)
    elapsed = time.time() - t0
    margins = {r.name.rsplit("K", 1)[1]: r.detail["margin"] for r in rates}
    _report(
        3, "monotone descent and weighted-gradient rate bound (20 seeds)",
        all(r.passed for r in descent + rates), elapsed, 20.0,
        f"bound margins by horizon {margins}",
    )


def test_criterion_4_optimal_probability_oracle():
    t0 = time.time()
    # (a) minimal over the 1/100 simplex grid, (b) vertex iff the full-network
    # condition, (c) minimal over the 1/40 grid under 10 further cost-parameter draws
    grid, vertex, invariant = verify.recursion_oracle_checks(np.random.default_rng(2024), 500)
    elapsed = time.time() - t0
    _report(
        4, "recursion vs simplex-grid oracle over 500 tables",
        grid.passed and vertex.passed and invariant.passed, elapsed, 120.0,
        f"worst grid excess {grid.detail['worst_excess']:.2e}, condition mismatches 0: "
        f"{vertex.passed}, worst excess under other costs {invariant.detail['worst_excess']:.2e}",
    )


def test_criterion_5_l0l1_first_layer_condition():
    t0 = time.time()
    result = verify.l0l1_condition_check(np.random.default_rng(77), 200)
    elapsed = time.time() - t0
    _report(
        5, "first-layer generalized-smooth condition over 200 tables",
        result.passed, elapsed, 120.0,
        f"non-max tables where the vertex survived: {result.detail['non_max_not_beaten']}, "
        f"max-margin tables not returning the vertex: {result.detail['max_not_vertex']}",
    )


def test_criterion_6_stochastic_trend():
    t0 = time.time()
    assert (verify.TREND_K_SHORT, verify.TREND_K_LONG, verify.TREND_FACTOR) == (16, 256, 1.5)
    result = verify.horizon_trend_check(seed=0)
    elapsed = time.time() - t0
    _report(
        6, "running-min weighted gradient norm improves with the horizon",
        result.passed, elapsed, 60.0,
        f"factor {result.detail['factor']:.2f} >= 1.5 over 20 seeds",
    )


def test_criterion_7_cost_ratio_analogue():
    t0 = time.time()
    assert verify.COST_RATIO_RPT_SEEDS == 5
    result = verify.cost_ratio_check(seed=0)
    elapsed = time.time() - t0
    _report(
        7, "constructed-instance cost ratio vs model prediction",
        result.passed, elapsed, 60.0,
        f"measured {result.detail['measured_ratio']:.3f}x, predicted "
        f"{result.detail['predicted_ratio']:.3f}x, rel err "
        f"{result.detail['relative_error']:.3f} <= 0.15",
    )


def test_criterion_8_mlp_truncated_backward_and_cache():
    t0 = time.time()
    mlp = pb.TinyMlp.synthetic([5, 6, 5, 4], n_samples=48, seed=5)
    rng = np.random.default_rng(6)
    x = [w + 0.2 * rng.standard_normal(w.shape) for w in mlp.weights]
    _, full = mlp.value_and_grad(x)
    slices_ok = True
    worst = 0.0
    for s in range(1, mlp.b + 1):
        _, partial, _, _ = mlp._pass(x, [mlp.inputs], s)
        for offset, grad in enumerate(partial):
            err = float(np.max(np.abs(grad - full[s - 1 + offset])))
            worst = max(worst, err)
            if err > 1e-12:
                slices_ok = False

    # cached-prefix half: the oracle pass ``droptrain run`` makes after a step
    # that left layers 1..frozen untouched
    n = mlp.inputs.shape[1]
    layer_macs = [w.size * n for w in mlp.weights]  # out_l * in_l * N
    loss_macs = mlp.weights[-1].shape[0] * n
    layout = pb.Layout([(w.shape,) for w in mlp.weights])
    oracle = mlp.stacked_oracle(layout)
    _, _, full_macs = oracle(layout.stack(x), 0)
    macs_ok = full_macs == sum(layer_macs) + loss_macs
    equal_ok = True
    spent = {}
    for frozen in range(1, mlp.b):
        x2 = [w.copy() for w in x]
        for l in range(frozen, mlp.b):
            x2[l] += 0.01
        loss, grad_stacks, macs = oracle(layout.stack(x2), frozen)
        oracle(layout.stack(x), 0)  # back at x: the next pass reuses these activations
        grads = layout.rows(grad_stacks)
        plain_loss, plain_grads = mlp.value_and_grad(x2)
        spent[frozen] = macs
        macs_ok = macs_ok and macs == sum(layer_macs[frozen:]) + loss_macs and macs < full_macs
        equal_ok = (
            equal_ok
            and loss == plain_loss
            and len(grads) == mlp.b
            and all(map(np.array_equal, grads, plain_grads))
        )
    elapsed = time.time() - t0
    _report(
        8, "truncated backward slices and cached-prefix forward",
        slices_ok and macs_ok and equal_ok, elapsed, 30.0,
        f"worst slice error {worst:.1e} <= 1e-12, prefix-pass macs by frozen layers "
        f"{spent} < full {full_macs} and exact: {macs_ok}, "
        f"loss and gradients identical: {equal_ok}",
    )
