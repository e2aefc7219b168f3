"""Optimizer steps and runs: freeze contracts, exact-step landings, determinism,
rate weights."""

import dataclasses
import importlib.util
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from test_geometry import SCALES, finite_matrices

from droptrain import costmodel as cm
from droptrain import geometry as g
from droptrain import optimizer as op
from droptrain import problems as pb
from droptrain import sampling as sp
from droptrain import verify
from droptrain.geometry import NormKind

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
EUC = NormKind.EUCLIDEAN
SPEC = NormKind.SPECTRAL


def scalar_quadratic(rng, b=3, shape=(2, 2), curvatures=(1.0, 2.0, 0.5)):
    targets = [rng.standard_normal(shape) for _ in range(b)]
    return pb.SeparableQuadratic(targets, curvatures)


def table_for(prob, norms=None):
    norms = norms or [EUC] * prob.b
    return pb.smoothness_constants(prob, sp.FullNetwork(prob.b), norms)


def with_table(policy, table):
    """``policy``, or, for the ``SmoothInverse`` class, the rule that carries ``table``."""
    return policy(table) if policy is op.SmoothInverse else policy


# ---------------------------------------------------------------------------
# deterministic step (driven through run)
# ---------------------------------------------------------------------------

def test_det_step_full_network_exact_newton_landing():
    # gamma = 1/a_i with the Euclidean sharp (identity) lands exactly on the target
    rng = np.random.default_rng(0)
    prob = scalar_quadratic(rng)
    table = table_for(prob)
    x0 = [rng.standard_normal((2, 2)) for _ in range(3)]
    res = op.run(prob, sp.FullNetwork(3), op.SmoothInverse(table), 1, 0, x0=x0)
    for i in range(3):
        np.testing.assert_allclose(res.model.layers[i], prob.targets[i], atol=1e-12)
    rep = res.reports[0]
    assert rep.f_after == pytest.approx(0.0, abs=1e-20)
    assert rep.applied == {1: 1.0, 2: 0.5, 3: 2.0}


def test_det_step_freezes_inactive_layers_bitwise():
    rng = np.random.default_rng(1)
    prob = scalar_quadratic(rng)
    table = table_for(prob)
    x0 = [rng.standard_normal((2, 2)) for _ in range(3)]
    steps = []  # (active set, layers after the step)
    op.run(
        prob, sp.Rpt((0.0, 0.5, 0.5)), op.SmoothInverse(table), 6, 0, x0=x0,
        on_step=lambda view: steps.append((view.report.active, [x.copy() for x in view.layers])),
    )
    before = x0
    for active, after in steps:
        assert 1 not in active
        for i in range(1, 4):
            if i not in active:
                np.testing.assert_array_equal(after[i - 1], before[i - 1])
        before = after
    assert not np.array_equal(steps[0][1][2], x0[2])  # layer 3 is always active


def test_det_step_missing_constant_names_pair():
    rng = np.random.default_rng(3)
    prob = scalar_quadratic(rng)
    table = cm.SmoothnessTable(cm.TableMode.RPT_CUTOFF, 3, {(1, 1): 1.0})  # only one entry
    x0 = [rng.standard_normal((2, 2)) for _ in range(3)]
    with pytest.raises(KeyError, match="iteration 0: .*layer 2, set key 2"):
        op.run(prob, sp.Rpt((0.0, 1.0, 0.0)), op.SmoothInverse(table), 2, 0, x0=x0)


# ---------------------------------------------------------------------------
# momentum + LMO step (driven through run)
# ---------------------------------------------------------------------------

def only(active, b):
    """A scheme whose every draw is ``active``."""
    rest = frozenset(range(1, b + 1)) - active
    return sp.PartitionedSubmodel((active, rest), (1.0, 0.0)) if rest else sp.FullNetwork(b)


def test_beta_one_momentum_is_fresh_gradient():
    # the momentum after step 1, 0 * M + g(x_1), is the gradient the hook saw at x_1
    rng = np.random.default_rng(4)
    prob = scalar_quadratic(rng)
    x0 = [rng.standard_normal((2, 2)) for _ in range(3)]
    seen = []  # (momentum after step k, gradients at x_{k+1})
    op.run(
        prob, sp.FullNetwork(3), op.FixedRadius((0.1,) * 3, beta=1.0), 2, 0, x0=x0,
        on_step=lambda view: seen.append(
            ([m.copy() for m in view.momentum], [gr.copy() for gr in view.grads])
        ),
    )
    for m, gr in zip(seen[1][0], seen[0][1]):
        np.testing.assert_array_equal(m, gr)
    assert not np.array_equal(seen[1][0][0], seen[0][0][0])


def test_radius_step_moves_exactly_radius():
    rng = np.random.default_rng(5)
    prob = pb.SeparableQuadratic(
        [rng.standard_normal((3, 2)) for _ in range(3)], (1.0, 2.0, 0.5)
    )
    radii = (0.05, 0.1, 0.15)
    for kind in (EUC, NormKind.SPECTRAL):
        x0 = [rng.standard_normal((3, 2)) for _ in range(3)]
        res = op.run(
            prob, sp.FullNetwork(3), op.FixedRadius(radii, beta=0.5), 1, 0, norms=[kind] * 3,
            x0=x0,
        )
        assert set(res.reports[0].applied) == {1, 2, 3}
        for i in res.reports[0].applied:
            moved = res.model.layers[i - 1] - x0[i - 1]
            assert g.norm(kind, moved) == pytest.approx(radii[i - 1], abs=1e-9)


def test_radius_step_zero_momentum_flagged_degenerate():
    prob = pb.SeparableQuadratic([np.zeros((2, 2))], (1.0,))
    res = op.run(  # at the optimum: zero gradient
        prob, sp.FullNetwork(1), op.FixedRadius((0.1,), beta=1.0), 1, 0, x0=[np.zeros((2, 2))],
    )
    assert res.reports[0].degenerate == frozenset({1}) and res.reports[0].applied == {}
    np.testing.assert_array_equal(res.model.layers[0], np.zeros((2, 2)))


def test_radius_step_freezes_momentum_and_layers():
    # only layer 2 is ever active: layers 1 and 3 and their momenta M_0 = g(x_0) stay
    rng = np.random.default_rng(6)
    prob = scalar_quadratic(rng)
    x0 = [rng.standard_normal((2, 2)) for _ in range(3)]
    _, g0 = prob.value_and_grad(x0)
    seen = []
    op.run(
        prob, only(frozenset({2}), 3), op.FixedRadius((0.1,) * 3, beta=0.5), 3, 0, x0=x0,
        on_step=lambda view: seen.append(
            ([x.copy() for x in view.layers], [m.copy() for m in view.momentum])
        ),
    )
    for layers, momentum in seen:
        for i in (0, 2):  # layers 1 and 3 frozen
            np.testing.assert_array_equal(layers[i], x0[i])
            np.testing.assert_array_equal(momentum[i], g0[i])
        assert not np.array_equal(layers[1], x0[1])


@pytest.mark.parametrize("field", ["layers", "momentum", "grads"])
def test_on_step_cannot_write_the_run_state(field):
    # a hook that moved frozen layer 1 would leave the prefix-reusing pass stale:
    # run would report an f_final that a fresh pass at its final layers does not give
    prob = pb.TinyMlp.synthetic([4, 6, 6, 5, 3], 12, seed=0)

    def write(view):
        getattr(view, field)[0] += 0.5

    with pytest.raises(ValueError, match="read-only"):
        op.run(
            prob, sp.Rpt((0.0, 0.0, 0.0, 1.0)), op.FixedRadius.horizon(4, 3), 3, 0, x0=prob.weights,
            noise=pb.NoiseSpec((0.05,) * 4), on_step=write,
        )
    res = op.run(
        prob, sp.Rpt((0.0, 0.0, 0.0, 1.0)), op.FixedRadius.horizon(4, 3), 3, 0, x0=prob.weights,
        on_step=lambda view: [x.sum() for x in view.layers + view.momentum + view.grads],
    )
    assert res.f_final == prob.value_and_grad(res.model.layers)[0]


@pytest.mark.parametrize("policy_name", ["smooth_inverse", "horizon"])
def test_on_step_cannot_rewrite_the_report(policy_name):
    # a hook's writes to its report raise, and the run returns the reports of a hook-free run
    rng = np.random.default_rng(8)
    prob = scalar_quadratic(rng)
    x0 = [rng.standard_normal((2, 2)) for _ in range(3)]
    kwargs = dict(x0=x0) if policy_name == "smooth_inverse" else dict(
        x0=x0, noise=pb.NoiseSpec((0.1, 0.2, 0.0))
    )
    policy = op.SmoothInverse(table_for(prob)) if policy_name == "smooth_inverse" \
        else op.FixedRadius.horizon(3, 4)
    writes = [
        lambda r: setattr(r, "f_after", 123.0),
        lambda r: setattr(r, "active", frozenset()),
        lambda r: r.applied.clear(),
        lambda r: r.applied.__setitem__(min(r.active), 0.0),
        lambda r: r.grad_dual_norms.__setitem__(1, 0.0),
    ]
    raised = []

    def rewrite(view):
        for write in writes:
            with pytest.raises((AttributeError, TypeError)):
                write(view.report)
            raised.append(write)

    scheme = sp.Rpt((0.3, 0.3, 0.4))
    res = op.run(prob, scheme, policy, 4, 2, on_step=rewrite, **kwargs)
    assert len(raised) == 4 * len(writes)
    assert res.reports == op.run(prob, scheme, policy, 4, 2, **kwargs).reports
    for write in writes:  # and after the run
        with pytest.raises((AttributeError, TypeError)):
            write(res.reports[-1])


def test_on_step_sees_no_momentum_on_the_deterministic_path():
    rng = np.random.default_rng(7)
    prob = scalar_quadratic(rng)
    seen = []
    op.run(
        prob, sp.FullNetwork(3), op.SmoothInverse(table_for(prob)), 2, 0,
        on_step=lambda view: seen.append((view.report.k, view.momentum, len(view.grads))),
    )
    assert seen == [(0, None, 3), (1, None, 3)]


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_zero_iterations_returns_initial_model():
    rng = np.random.default_rng(7)
    prob = scalar_quadratic(rng)
    x0 = [rng.standard_normal((2, 2)) for _ in range(3)]
    res = op.run(
        prob, sp.FullNetwork(3), op.SmoothInverse(table_for(prob)), 0, 0,
        x0=x0,
    )
    assert res.reports == []
    for a, b in zip(res.model.layers, x0):
        np.testing.assert_array_equal(a, b)


def test_run_descent_on_quadratic():
    rng = np.random.default_rng(8)
    prob = scalar_quadratic(rng)
    res = op.run(
        prob, sp.FullNetwork(3), op.SmoothInverse(table_for(prob)), 20, 0,
        x0=[rng.standard_normal((2, 2)) for _ in range(3)],
    )
    fs = [r.f_before for r in res.reports] + [res.f_final]
    assert all(b <= a + 1e-12 for a, b in zip(fs, fs[1:]))


def test_run_same_seed_bit_identical_trace():
    rng = np.random.default_rng(9)
    prob = scalar_quadratic(rng)
    x0 = [rng.standard_normal((2, 2)) for _ in range(3)]
    kwargs = dict(
        norms=[EUC] * 3, x0=x0, noise=pb.NoiseSpec((0.2,) * 3),
    )
    r1 = op.run(prob, sp.Rpt((0.5, 0.3, 0.2)), op.FixedRadius.horizon(3, 30), 30, 17, **kwargs)
    r2 = op.run(prob, sp.Rpt((0.5, 0.3, 0.2)), op.FixedRadius.horizon(3, 30), 30, 17, **kwargs)
    assert [r.active for r in r1.reports] == [r.active for r in r2.reports]
    for a, b in zip(r1.model.layers, r2.model.layers):
        np.testing.assert_array_equal(a, b)
    assert [r.f_after for r in r1.reports] == [r.f_after for r in r2.reports]


def test_run_different_seed_differs():
    rng = np.random.default_rng(10)
    prob = scalar_quadratic(rng)
    x0 = [rng.standard_normal((2, 2)) for _ in range(3)]
    r1 = op.run(prob, sp.Rpt((0.5, 0.3, 0.2)), op.FixedRadius.horizon(3, 30), 30, 1,
                x0=x0, noise=pb.NoiseSpec((0.2,) * 3))
    r2 = op.run(prob, sp.Rpt((0.5, 0.3, 0.2)), op.FixedRadius.horizon(3, 30), 30, 2,
                x0=x0, noise=pb.NoiseSpec((0.2,) * 3))
    assert [r.active for r in r1.reports] != [r.active for r in r2.reports] or not np.array_equal(
        r1.model.layers[0], r2.model.layers[0]
    )


SEED_SCHEMES = {
    "rpt": sp.Rpt((0.5, 0.3, 0.2)),
    "rpt_certain": sp.Rpt((1.0, 0.0, 0.0)),
    "tau_nice": sp.TauNice(3, 2),
    "tau_nice_all": sp.TauNice(3, 3),
    "tau_submodel": sp.TauSubmodel(3, 2, (0.5, 0.5)),
    "partitioned": sp.PartitionedSubmodel((frozenset({1}), frozenset({2, 3})), (0.4, 0.6)),
    "epoch_shift": sp.EpochShiftRpt(3, 1.0),
    "full_network": sp.FullNetwork(3),
}
SEED_POLICIES = {
    # the table of seed_run's problem; under a drawing scheme the first draw
    # comes before any table lookup
    "smooth_inverse": op.SmoothInverse(
        table_for(scalar_quadratic(np.random.default_rng(19)), [EUC, SPEC, EUC])
    ),
    "fixed_radius": op.FixedRadius((0.1, 0.2, 0.1)),
    "horizon": op.FixedRadius.horizon(3, 6),  # seed_run's K
}
SEED_NOISES = {
    "none": None, "zero": pb.NoiseSpec((0.0,) * 3), "nonzero": pb.NoiseSpec((0.0, 0.2, 0.0)),
}


class DrewFromStream(Exception):
    pass


class Tripwire:
    """A stand-in for a stream's generator that refuses every attribute access."""

    def __getattribute__(self, name):
        raise DrewFromStream(name)


def seed_run(scheme_name, policy_name, noise_name, seed):
    rng = np.random.default_rng(19)
    prob = scalar_quadratic(rng)
    norms = [EUC, SPEC, EUC]
    return op.run(
        prob, SEED_SCHEMES[scheme_name], SEED_POLICIES[policy_name], 6, seed, norms=norms,
        x0=[rng.standard_normal((2, 2)) for _ in range(3)], noise=SEED_NOISES[noise_name],
    )


@pytest.mark.parametrize("noise_name", sorted(SEED_NOISES))
@pytest.mark.parametrize("policy_name", sorted(SEED_POLICIES))
@pytest.mark.parametrize("scheme_name", sorted(SEED_SCHEMES))
def test_uses_seed_is_false_exactly_when_run_draws_nothing(
    monkeypatch, scheme_name, policy_name, noise_name
):
    names = (scheme_name, policy_name, noise_name)
    seed_free = scheme_name == "full_network" and (
        policy_name == "smooth_inverse" or noise_name != "nonzero"
    )
    uses = op.uses_seed(SEED_SCHEMES[scheme_name], SEED_POLICIES[policy_name],
                        SEED_NOISES[noise_name])
    assert uses is not seed_free
    runs = [seed_run(*names, seed) for seed in (0, 7)] if seed_free else []
    monkeypatch.setattr(sp, "stream", lambda seed, *path: Tripwire())
    if not seed_free:
        with pytest.raises(DrewFromStream):
            seed_run(*names, 0)
        return
    runs.append(seed_run(*names, 0))
    first = runs[0]
    for other in runs[1:]:
        assert other.reports == first.reports
        assert (other.f_initial, other.f_final) == (first.f_initial, first.f_final)
        for a, b in zip(other.model.stacks, first.model.stacks):
            assert a.tobytes() == b.tobytes()


def test_run_horizon_schedule_parameters():
    rng = np.random.default_rng(12)
    prob = scalar_quadratic(rng)
    horizon = 15
    res = op.run(
        prob, sp.FullNetwork(3), op.FixedRadius.horizon(3, horizon), horizon, 0,
        x0=[rng.standard_normal((2, 2)) for _ in range(3)],
        noise=pb.NoiseSpec((0.1,) * 3),
    )
    t_expected = 1.0 / (horizon + 1) ** 0.75
    for rep in res.reports:
        for i in rep.applied:
            assert rep.applied[i] == pytest.approx(t_expected)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_radius_policies_reject_a_radius_or_eta_that_is_not_positive_and_finite(bad):
    # caught at construction, not later as a non-finite f_after or momentum
    with pytest.raises(ValueError, match=rf"^radii\[1\] must be positive and finite, got {bad}$"):
        op.FixedRadius((0.1, bad))
    with pytest.raises(ValueError, match=rf"^eta\[0\] must be positive and finite, got {bad}$"):
        op.FixedRadius.horizon(2, 5, eta=(bad, 1.0))


def test_run_radius_policies_start_momentum_at_gradient():
    rng = np.random.default_rng(13)
    prob = scalar_quadratic(rng)
    x0 = [rng.standard_normal((2, 2)) for _ in range(3)]
    _, grads = prob.value_and_grad(x0)
    # beta = 0 keeps M0: without noise the one step is the LMO step along the gradient at x0
    res = op.run(prob, sp.FullNetwork(3), op.FixedRadius((0.1,) * 3, beta=0.0), 1, 0, x0=x0)
    for x, x_start, grad in zip(res.model.layers, x0, grads):
        np.testing.assert_allclose(x, x_start - 0.1 * grad / np.linalg.norm(grad), atol=1e-15)
    assert res.reports[0].degenerate == frozenset()


def test_a_rule_carries_its_own_inputs():
    # the table and the Newton-Schulz config are fields of the rules, not run keywords
    prob = scalar_quadratic(np.random.default_rng(14))
    with pytest.raises(TypeError):
        op.SmoothInverse()
    for keyword in ("table", "newton_schulz_cfg"):
        with pytest.raises(TypeError, match=keyword):
            op.run(prob, sp.FullNetwork(3), op.FixedRadius((0.1,) * 3), 5, 0, **{keyword: None})
    rule = op.FixedRadius((0.1, 0.2), 0.5, "policy")  # positional up to the document path
    assert (rule.radii, rule.beta, rule.ns) == ((0.1, 0.2), 0.5, None)


@pytest.mark.parametrize("mode", ["rpt_cutoff", "partition"])
def test_run_refuses_a_table_sized_for_another_network_before_x0(mode):
    rng = np.random.default_rng(14)
    prob = CountingProblem(scalar_quadratic(rng))
    if mode == "rpt_cutoff":
        scheme = sp.Rpt((0.5, 0.3, 0.2))
        table = cm.SmoothnessTable.from_rpt_rows([[1.0], [2.0, 1.0], [3.0, 2.0, 1.0], [4.0] * 4])
    else:
        scheme = sp.PartitionedSubmodel((frozenset({1, 2}), frozenset({3})), (0.9, 0.1))
        l0 = {(i, k): 1.0 for i in range(1, 5) for k in (1, 2)}
        table = cm.SmoothnessTable(cm.TableMode.PARTITION, 4, l0)
    with pytest.raises(ValueError, match="^the smoothness table has 4 layers, the problem has 3$"):
        op.run(prob, scheme, op.SmoothInverse(table), 20, 0)
    assert prob.calls == 0


def test_fixed_radius_horizon_is_the_schedule_at_its_horizon():
    # t_i = eta_i / (K+1)^(3/4) and beta = (K+1)^(-1/2), with eta_i = 1 by default;
    # eta is checked per entry and for its length, named under a document path when given
    eta, iterations = (0.3, 1.0, 0.2, 0.7), 12
    for given, weights in [(None, np.ones(4)), (eta, np.asarray(eta))]:
        assert op.FixedRadius.horizon(4, iterations, given) == op.FixedRadius(
            tuple(weights / (iterations + 1) ** 0.75), 1.0 / math.sqrt(iterations + 1)
        )
    with pytest.raises(ValueError, match=r"^eta must have one entry per layer$"):
        op.FixedRadius.horizon(3, iterations, eta)
    with pytest.raises(sp.ConfigError, match=r"^policy\.eta: must have one entry per layer$"):
        op.FixedRadius.horizon(3, iterations, eta, "policy")
    negative = (0.3, 1.0, -0.2, 0.7)
    with pytest.raises(ValueError, match=r"^eta\[2\] must be positive and finite, got -0\.2$"):
        op.FixedRadius.horizon(4, iterations, negative)
    with pytest.raises(
        sp.ConfigError, match=r"^policy\.eta\[2\]: must be positive and finite, got -0\.2$"
    ):
        op.FixedRadius.horizon(4, iterations, negative, "policy")


# ---------------------------------------------------------------------------
# theory weights and rate helpers
# ---------------------------------------------------------------------------

def test_theory_weights_hand_example():
    table = cm.SmoothnessTable.from_rpt_rows([[1.0], [2.0, 1.0]])
    tw = cm.theory_weights((0.5, 0.5), table, "smooth")
    np.testing.assert_allclose(tw.w, [0.25, 0.375], atol=1e-15)
    assert tw.mean == pytest.approx(0.3125)


def test_theory_weights_l0l1_vertex_recovers_inverse_l1():
    table = cm.SmoothnessTable.from_rpt_rows(
        [[1.0], [1.0, 0.5], [1.0, 0.7, 0.3]],
        [[2.0], [4.0, 1.0], [5.0, 2.0, 1.0]],
    )
    tw = cm.theory_weights((1.0, 0.0, 0.0), table, "l0l1")
    np.testing.assert_allclose(tw.w, [1 / 2.0, 1 / 4.0, 1 / 5.0], atol=1e-15)


def test_theory_weights_zero_p1_errors():
    table = cm.SmoothnessTable.from_rpt_rows([[1.0], [2.0, 1.0]])
    with pytest.raises(ValueError, match="layer 1 never updated"):
        cm.theory_weights((0.0, 1.0), table, "smooth")


@pytest.mark.parametrize("regime", ["smooth", "l0l1", "stochastic"])
@pytest.mark.parametrize("p", [(0.5, 0.5), (0.4, 0.3, 0.2, 0.1)])
def test_theory_weights_need_one_cutoff_probability_per_layer(regime, p):
    table = cm.SmoothnessTable.from_rpt_rows(
        [[1.0], [1.0, 0.5], [1.0, 0.7, 0.3]], [[2.0], [4.0, 1.0], [5.0, 2.0, 1.0]]
    )
    with pytest.raises(ValueError, match=f"p has {len(p)} entries, the table has 3 layers"):
        cm.theory_weights(p, table, regime)


def test_theory_weights_stochastic():
    table = cm.SmoothnessTable.from_rpt_rows([[1.0], [2.0, 1.0]])
    tw = cm.theory_weights((0.5, 0.5), table, "stochastic", eta=(2.0, 1.0))
    np.testing.assert_allclose(tw.w, [1.0, 1.0], atol=1e-15)


def test_horizon_eta_caps_match_direct_formula():
    table = cm.SmoothnessTable.from_rpt_rows(
        [[1.0], [1.0, 0.5], [1.0, 0.7, 0.3]],
        [[0.5], [0.8, 0.4], [1.2, 0.9, 0.5]],
    )
    p = np.array([0.5, 0.3, 0.2])
    horizon = 16
    caps = cm.horizon_eta_caps(tuple(p), table, horizon)
    assert caps.shape == (3,)
    assert np.all(caps <= 1.0) and np.all(caps > 0.0)
    # direct evaluation of min{horizon term, sampling term, 1}
    beta = 1.0 / np.sqrt(horizon + 1)
    e_max = sum(
        p[s - 1] * max(table.require(i, s, "l1") for i in range(s, 4))
        for s in range(1, 4)
    )
    cum = np.cumsum(p)
    for i in range(1, 4):
        a1 = sum(p[s - 1] * table.require(i, s, "l1") for s in range(1, i + 1))
        horizon_term = np.sqrt(horizon + 1) / (4 * a1 * e_max)
        sampling_term = p[0] / (16 * (1 - beta)) / (cum[i - 1] * a1 * e_max)
        assert caps[i - 1] == pytest.approx(min(horizon_term, sampling_term, 1.0))
    # scaling L1 up tightens the caps (until the cap at 1 binds)
    table_big = cm.SmoothnessTable.from_rpt_rows(
        [[1.0], [1.0, 0.5], [1.0, 0.7, 0.3]],
        [[5.0], [8.0, 4.0], [12.0, 9.0, 5.0]],
    )
    assert np.all(cm.horizon_eta_caps(tuple(p), table_big, horizon) <= caps + 1e-15)


def test_l0l1_iterations_positive_and_monotone_in_eps():
    table = cm.SmoothnessTable.from_rpt_rows(
        [[1.0], [1.0, 0.5]], [[2.0], [4.0, 1.0]]
    )
    k1 = cm.l0l1_iterations((0.5, 0.5), table, delta0=1.0, eps=1e-1)
    k2 = cm.l0l1_iterations((0.5, 0.5), table, delta0=1.0, eps=1e-2)
    assert 0 < k1 < k2


def test_run_epoch_shift_scheme_recomputed_per_iteration():
    rng = np.random.default_rng(16)
    prob = scalar_quadratic(rng)
    res = op.run(
        prob, sp.EpochShiftRpt(3, 4.0), op.SmoothInverse(table_for(prob)), 60, 0,
        x0=[rng.standard_normal((2, 2)) for _ in range(3)],
    )
    mins = [min(r.active) for r in res.reports]
    # strong shallow bias early, deep bias late
    assert np.mean(mins[:20]) < np.mean(mins[-20:])
    fs = [r.f_before for r in res.reports] + [res.f_final]
    assert all(b <= a + 1e-12 for a, b in zip(fs, fs[1:]))


def test_run_newton_schulz_backend_close_to_svd():
    rng = np.random.default_rng(17)
    prob = pb.SeparableQuadratic(
        [rng.standard_normal((3, 3)) for _ in range(2)], (1.0, 1.0)
    )
    x0 = [rng.standard_normal((3, 3)) for _ in range(2)]
    kwargs = dict(norms=[NormKind.SPECTRAL] * 2, x0=x0)
    exact = op.run(prob, sp.FullNetwork(2), op.FixedRadius((0.1, 0.1), beta=1.0), 10, 0, **kwargs)
    approx = op.run(
        prob, sp.FullNetwork(2), op.FixedRadius((0.1, 0.1), beta=1.0, ns=g.NewtonSchulzConfig()),
        10, 0, **kwargs,
    )
    for a, b in zip(exact.model.layers, approx.model.layers):
        assert np.max(np.abs(a - b)) <= 0.05  # same direction up to iteration error
    assert approx.f_final < prob.value_and_grad(x0)[0]  # still makes progress


def test_run_unit_beta_zero_noise_momentum_is_exact_gradient():
    rng = np.random.default_rng(15)
    prob = scalar_quadratic(rng)
    x0 = [rng.standard_normal((2, 2)) for _ in range(3)]
    _, grads = prob.value_and_grad(x0)
    seen = []  # (active set, momentum after the step, gradients at x_{k+1})
    op.run(
        prob, sp.Rpt((0.5, 0.3, 0.2)), op.FixedRadius((0.05,) * 3, beta=1.0), 5, 0, x0=x0,
        on_step=lambda view: seen.append((
            view.report.active, [m.copy() for m in view.momentum],
            [gr.copy() for gr in view.grads],
        )),
    )
    momentum = grads  # M_0 is the exact gradient at x_0
    for active, after, grads_after in seen:
        # beta = 1 with zero noise makes the active momenta the exact gradients at x_k
        for i in range(1, 4):
            expected = grads[i - 1] if i in active else momentum[i - 1]
            np.testing.assert_array_equal(after[i - 1], expected)
        momentum, grads = after, grads_after
    assert len({active for active, *_ in seen}) > 1  # some iterations froze a layer


def test_run_makes_two_svds_per_stochastic_iteration(monkeypatch):
    # one stacked SVD for the gradient dual norms and one for the LMO steps of
    # the same-shape spectral group; no SVD feeds a value nothing reads
    prob = pb.CoupledQuadratic(
        [np.zeros((4, 4))] * 3, (2.0, 2.0, 2.0), 0.5, rng=np.random.default_rng(3)
    )
    rng = np.random.default_rng(21)
    x0 = [rng.standard_normal((4, 4)) for _ in range(3)]
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(None)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    op.run(
        prob, sp.FullNetwork(3), op.FixedRadius.horizon(3, 12), 12, 0, norms=[SPEC] * 3, x0=x0,
        noise=pb.NoiseSpec((0.1,) * 3),
    )
    assert len(calls) == 2 * 12


@pytest.mark.parametrize("scheme", [sp.Rpt((0.3, 0.2, 0.2, 0.2, 0.1)), sp.TauNice(5, 2)])
def test_newton_schulz_run_makes_one_call_per_active_spectral_group(monkeypatch, scheme):
    # each spectral group with an active member orthogonalizes its active rows
    # in one stacked call; the Euclidean group takes none
    rng = np.random.default_rng(25)
    shapes = [(3, 3), (3, 3), (3, 3), (2, 3), (2, 3)]
    prob = pb.SeparableQuadratic([rng.standard_normal(s) for s in shapes], (1.0,) * 5)
    norms = [SPEC, SPEC, EUC, SPEC, SPEC]  # spectral groups {1, 2} and {4, 5}
    calls = []
    newton_schulz = g.newton_schulz

    def counting(m, cfg):
        calls.append(np.shape(m))
        return newton_schulz(m, cfg)

    monkeypatch.setattr(g, "newton_schulz", counting)
    per_iteration = []

    def on_step(view):
        per_iteration.append((list(calls), view.report.active))
        calls.clear()

    policy = dataclasses.replace(op.FixedRadius.horizon(5, 12), ns=g.NewtonSchulzConfig())
    op.run(
        prob, scheme, policy, 12, 0, norms=norms,
        x0=[rng.standard_normal(s) for s in shapes], noise=pb.NoiseSpec((0.1,) * 5),
        on_step=on_step,
    )
    assert len(per_iteration) == 12
    for shapes_seen, active in per_iteration:
        expected = [
            (len(active & group),) + shapes[min(group) - 1]
            for group in ({1, 2}, {4, 5}) if active & group
        ]
        assert shapes_seen == expected


# ---------------------------------------------------------------------------
# one gradient pass per iterate
# ---------------------------------------------------------------------------

def reference_stochastic_run(problem, scheme, policy, iterations, seed, norms, x0, noise):
    """The loop run replaced: each stochastic sample evaluates a fresh gradient plus noise,
    and every layer takes its own dual norms and its own ``geometry.lmo`` step."""

    def fresh_sample(layers, rng):
        _, grads = problem.value_and_grad(layers)
        return [
            gr if sigma == 0.0 else gr + sigma / np.sqrt(gr.size) * rng.standard_normal(gr.shape)
            for gr, sigma in zip(grads, noise.sigmas)
        ]

    b = problem.b
    layers = [np.array(x, dtype=float) for x in x0]
    radii, beta = np.asarray(policy.radii), policy.beta
    momentum = [m.copy() for m in fresh_sample(layers, sp.stream(seed, 0))]
    f, grads = problem.value_and_grad(layers)
    rows = []
    for k in range(iterations):
        rng = sp.stream(seed, k + 1)
        active = sp.sample(scheme, rng)
        gnorms = {i: g.dual_norm(norms[i - 1], grads[i - 1]) for i in range(1, b + 1)}
        sample = fresh_sample(layers, rng)
        for i in sorted(active):
            momentum[i - 1] = (1.0 - beta) * momentum[i - 1] + beta * sample[i - 1]
            step, degenerate = g.lmo(norms[i - 1], momentum[i - 1], float(radii[i - 1]))
            if not degenerate:
                layers[i - 1] += step
        f_before = f
        f, grads = problem.value_and_grad(layers)
        rows.append((active, f_before, f, gnorms))
    return layers, rows


@pytest.mark.parametrize(
    "case",
    ["quad_fixed", "quad_horizon", "mlp_horizon",
     "quad_group_fixed", "coupled_group_horizon", "mlp_group_horizon",
     "coupled_bench_horizon", "quad_tau_nice_fixed", "quad_partitioned_fixed",
     "coupled_unequal_horizon"],
)
def test_run_single_pass_matches_fresh_gradient_reference(case):
    # run takes each group's dual norms, momentum update and LMO step in one
    # stacked call per same-shape, same-norm group; the reference goes layer
    # by layer.  The *_group cases have two or more same-shape spectral
    # layers; coupled_bench has the benchmark's one six-layer 8x8 spectral
    # group; under tau_nice and partitioned the active members of a group are
    # not a suffix of it; coupled_unequal couples layers of unequal sizes
    rng = np.random.default_rng(19)
    scheme = noise = None
    if case.startswith("quad_group"):
        shapes = [(3, 2), (3, 2), (4, 3), (3, 2)]
        prob = pb.SeparableQuadratic(
            [rng.standard_normal(s) for s in shapes], (1.0, 2.0, 0.5, 1.5)
        )
        norms = [SPEC, EUC, SPEC, SPEC]  # group {1, 4}; layer 3 has no partner
        x0 = [rng.standard_normal(s) for s in shapes]
    elif case in ("quad_tau_nice_fixed", "quad_partitioned_fixed"):
        prob = pb.SeparableQuadratic(
            [rng.standard_normal((3, 2)) for _ in range(4)], (1.0, 2.0, 0.5, 1.5)
        )
        x0 = [rng.standard_normal((3, 2)) for _ in range(4)]
        if case == "quad_tau_nice_fixed":
            norms, scheme = [SPEC, EUC, SPEC, SPEC], sp.TauNice(4, 2)
        else:  # blocks {1, 3} and {2, 4}: rows 0 and 2 of the spectral group {1, 2, 3}
            norms = [SPEC, SPEC, SPEC, EUC]
            scheme = sp.PartitionedSubmodel(
                (frozenset({1, 3}), frozenset({2, 4})), (0.5, 0.5)
            )
    elif case == "quad_fixed" or case == "quad_horizon":
        prob = pb.SeparableQuadratic(
            [rng.standard_normal((3, 2)) for _ in range(3)], (1.0, 2.0, 0.5)
        )
        norms = [EUC, SPEC, EUC]
        x0 = [rng.standard_normal((3, 2)) for _ in range(3)]
    elif case == "coupled_bench_horizon":
        prob = pb.CoupledQuadratic(
            [np.zeros((8, 8))] * 6, (2.0,) * 6, 0.5, rng=np.random.default_rng(3)
        )
        norms = [SPEC] * 6
        x0 = [rng.standard_normal((8, 8)) for _ in range(6)]
        scheme, noise = sp.Rpt((0.2, 0.2, 0.2, 0.2, 0.1, 0.1)), pb.NoiseSpec((0.1,) * 6)
    elif case == "coupled_unequal_horizon":
        shapes = [(2, 2), (2, 3), (3, 2), (2, 3)]  # spectral groups {1}, {2, 4}, {3}
        prob = pb.CoupledQuadratic(
            [rng.standard_normal(s) for s in shapes], (2.0, 2.5, 2.0, 3.0), 0.5,
            rng=np.random.default_rng(4),
        )
        norms = [SPEC] * 4
        x0 = [rng.standard_normal(s) for s in shapes]
    elif case.startswith("coupled"):
        prob = pb.CoupledQuadratic(
            [np.zeros((4, 4))] * 3, (2.0, 2.0, 2.0), 0.5, rng=np.random.default_rng(3)
        )
        norms = [SPEC] * 3
        x0 = [rng.standard_normal((4, 4)) for _ in range(3)]
    else:
        sizes = [4, 6, 6, 6, 3] if case == "mlp_group_horizon" else [4, 6, 5, 3]
        prob = pb.TinyMlp.synthetic(sizes, n_samples=16, seed=2)
        norms = [EUC] + [SPEC] * (prob.b - 1)  # mlp_group: group {2, 3}
        x0 = [w + 0.1 * rng.standard_normal(w.shape) for w in prob.weights]
    b = prob.b
    policy = op.FixedRadius((0.05, 0.1, 0.02, 0.07)[:b], beta=0.6) if "fixed" in case \
        else op.FixedRadius.horizon(b, 25)
    if scheme is None:
        scheme = sp.Rpt((0.4, 0.3, 0.2, 0.1)[:b] if b == 4 else (0.5, 0.3, 0.2))
    if noise is None:
        noise = pb.NoiseSpec((0.2, 0.0, 0.3, 0.1)[:b])
    ref_layers, ref_rows = reference_stochastic_run(prob, scheme, policy, 25, 5, norms, x0, noise)
    res = op.run(prob, scheme, policy, 25, 5, norms=norms, x0=x0, noise=noise)
    got = [(r.active, r.f_before, r.f_after, r.grad_dual_norms) for r in res.reports]
    assert got == ref_rows
    assert all(r.degenerate == r.active - set(r.applied) for r in res.reports)
    for a, b in zip(res.model.layers, ref_layers):
        np.testing.assert_array_equal(a, b)


class CountingProblem:
    """Delegates to a problem and counts its gradient evaluations, per layer or stacked."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def value_and_grad(self, layers):
        self.calls += 1
        return self.inner.value_and_grad(layers)

    def stacked_oracle(self, layout):
        oracle = self.inner.stacked_oracle(layout)

        def counted(stacks, forward_from, backward_to):
            self.calls += 1
            return oracle(stacks, forward_from, backward_to)

        return counted


@pytest.mark.parametrize(
    "policy", [op.SmoothInverse, op.FixedRadius((0.1,) * 3), op.FixedRadius.horizon(3, 7)]
)
def test_run_one_gradient_pass_per_iterate(policy):
    rng = np.random.default_rng(20)
    inner = scalar_quadratic(rng)
    prob = CountingProblem(inner)
    iterations = 7
    op.run(
        prob, sp.Rpt((0.5, 0.3, 0.2)), with_table(policy, table_for(inner)), iterations, 0,
        x0=[rng.standard_normal((2, 2)) for _ in range(3)],
        noise=pb.NoiseSpec((0.1,) * 3),
    )
    assert prob.calls == iterations + 1


def shipped_problem(name, rng):
    """A three-layer instance of each problem family the package ships."""
    if name == "separable":
        return scalar_quadratic(rng)
    if name == "coupled":
        return pb.CoupledQuadratic(
            [rng.standard_normal((2, 2)) for _ in range(3)], (2.0, 2.5, 3.0), 0.5, rng=rng
        )
    return pb.TinyMlp.synthetic([3, 4, 4, 2], n_samples=8, seed=3)


@pytest.mark.parametrize(
    "policy",
    [op.SmoothInverse, op.FixedRadius((0.1,) * 3), op.FixedRadius.horizon(3, 10)],
)
@pytest.mark.parametrize("name", ["separable", "coupled", "mlp"])
def test_run_evaluates_only_through_the_stacked_oracle(monkeypatch, name, policy):
    # neither the per-layer value_and_grad nor stoch_grad is on run's path,
    # M0 included: both raise here and the run still finishes
    rng = np.random.default_rng(49)
    prob = shipped_problem(name, rng)
    scheme = sp.Rpt((0.5, 0.3, 0.2))
    table = pb.smoothness_constants(prob, scheme, [EUC] * 3)
    x0 = [0.5 * rng.standard_normal(s) for s in prob.shapes]

    def per_layer_path(*_args, **_kwargs):
        raise AssertionError("run took a per-layer path")

    monkeypatch.setattr(type(prob), "value_and_grad", per_layer_path)
    monkeypatch.setattr(pb, "stoch_grad", per_layer_path)
    noise = pb.NoiseSpec((0.1, 0.0, 0.2))
    res = op.run(prob, scheme, with_table(policy, table), 10, 0, x0=x0, noise=noise)
    assert len(res.reports) == 10 and np.isfinite(res.f_final)


def test_run_refuses_a_problem_without_a_stacked_oracle_before_evaluating_x0():
    class PerLayerOnly:
        b, shapes, f_star = 2, [(2, 2)] * 2, 0.0
        calls = 0

        def value_and_grad(self, layers):
            self.calls += 1
            return 0.0, [np.zeros((2, 2))] * 2

    prob = PerLayerOnly()
    with pytest.raises(AttributeError, match="stacked_oracle"):
        op.run(prob, sp.FullNetwork(2), op.FixedRadius.horizon(2, 3), 3, 0)
    assert prob.calls == 0


# ---------------------------------------------------------------------------
# run-owned frozen-prefix activations on TinyMlp
# ---------------------------------------------------------------------------

MLP_SCHEMES = {
    "rpt": sp.Rpt((0.3, 0.3, 0.2, 0.2)),
    "full_network": sp.FullNetwork(4),
    "partitioned": sp.PartitionedSubmodel((frozenset({1, 3}), frozenset({2, 4})), (0.5, 0.5)),
    "epoch_shift": sp.EpochShiftRpt(4, 3.0),
}


def test_a_sampling_fault_names_its_iteration(monkeypatch):
    prob = scalar_quadratic(np.random.default_rng(3))
    scheme = sp.EpochShiftRpt(3, 1.0)
    table = pb.smoothness_constants(prob, scheme, [EUC] * 3)

    def refusing(scheme, rng):
        raise ValueError("no draw")

    monkeypatch.setattr(sp, "sample", refusing)
    with pytest.raises(ValueError, match=r"^iteration 0: no draw$"):
        op.run(prob, scheme, op.SmoothInverse(table), 5, 0)


# the look-ahead: S_{k+1} is drawn at the end of iteration k, before the pass at x_{k+1}

def test_epoch_shift_look_ahead_draws_iteration_k_plus_1_at_progress_k_plus_1_over_k(
    monkeypatch,
):
    prob = scalar_quadratic(np.random.default_rng(3))
    scheme, iterations, seed = sp.EpochShiftRpt(3, 1.0), 5, 4
    table = pb.smoothness_constants(prob, scheme, [EUC] * 3)
    at, seen, progress = sp.EpochShiftRpt.at, [], []

    def recording(self, t):
        progress.append((len(seen), t))  # (reports seen so far, progress)
        return at(self, t)

    monkeypatch.setattr(sp.EpochShiftRpt, "at", recording)
    res = op.run(prob, scheme, op.SmoothInverse(table), iterations, seed,
                 on_step=lambda view: seen.append(view.report.k))
    # S_0 before the loop; S_{k+1} inside iteration k, before its report
    assert progress == [(0, 0.0)] + [(k, (k + 1) / iterations) for k in range(iterations - 1)]
    monkeypatch.setattr(sp.EpochShiftRpt, "at", at)
    for k, r in enumerate(res.reports):
        assert r.active == sp.sample(scheme.at(k / iterations), sp.stream(seed, k + 1))


def test_a_look_ahead_sampling_fault_names_the_next_iteration(monkeypatch):
    prob = scalar_quadratic(np.random.default_rng(3))
    scheme = sp.Rpt((0.5, 0.3, 0.2))
    sample, draws, seen = sp.sample, [], []

    def refusing_the_third(scheme, rng):
        draws.append(None)
        if len(draws) == 3:
            raise ValueError("no draw")
        return sample(scheme, rng)

    monkeypatch.setattr(sp, "sample", refusing_the_third)
    with pytest.raises(ValueError, match=r"^iteration 2: no draw$"):
        op.run(prob, scheme, op.FixedRadius.horizon(3, 5), 5, 0,
               on_step=lambda view: seen.append(view.report.k))
    assert seen == [0]  # S_2 is drawn in iteration 1, before the pass at x_2


@pytest.mark.parametrize("policy", [op.SmoothInverse, op.FixedRadius.horizon(3, 0)])
def test_zero_iterations_draw_no_active_set(monkeypatch, policy):
    prob = scalar_quadratic(np.random.default_rng(3))
    stream, streams = sp.stream, []

    def recording(*args):
        streams.append(args)
        return stream(*args)

    monkeypatch.setattr(sp, "stream", recording)
    res = op.run(prob, sp.Rpt((0.5, 0.3, 0.2)), with_table(policy, table_for(prob)), 0, 9,
                 noise=pb.NoiseSpec((0.1,) * 3))
    assert res.reports == [] and res.f_final == res.f_initial
    assert streams == ([] if policy is op.SmoothInverse else [(9, op.INIT_STREAM)])


def recording_backward_stops(prob):
    """Wraps the network's one pass; returns the list of the layers its backward stopped at."""
    stops = []
    run_pass = prob._pass

    def recording(layers, prefix, first_layer):
        stops.append(first_layer)
        return run_pass(layers, prefix, first_layer)

    prob._pass = recording
    return stops


@pytest.mark.parametrize("policy", [op.SmoothInverse, op.FixedRadius.horizon(4, 6)])
def test_the_last_pass_runs_a_backward_only_for_a_hook(policy):
    prob = pb.TinyMlp.synthetic([4, 6, 6, 5, 3], n_samples=12, seed=7)
    scheme, norms = sp.Rpt((0.3, 0.3, 0.2, 0.2)), [EUC, SPEC, SPEC, EUC]
    policy = with_table(policy, pb.smoothness_constants(prob, scheme, norms))
    kwargs = dict(norms=norms, x0=prob.weights, noise=pb.NoiseSpec((0.05,) * 4))
    stops = recording_backward_stops(prob)
    lean = op.run(prob, scheme, policy, 6, 3, **kwargs)
    assert stops == [1] * 6 + [prob.b + 1]  # x_0..x_5 with a backward, x_6 f only
    stops.clear()
    views = []
    hooked = op.run(prob, scheme, policy, 6, 3, on_step=views.append, **kwargs)
    assert stops == [1] * 7
    del prob._pass
    assert hooked.reports == lean.reports and hooked.f_final == lean.f_final
    f_ref, grads_ref = prob.value_and_grad(hooked.model.layers)
    assert f_ref == hooked.f_final
    for got, want in zip(views[-1].grads, grads_ref, strict=True):
        assert np.array_equal(got, want)


def recording_prefix_passes(prob):
    """Wraps the network's one pass, ``TinyMlp._pass``; returns the list it records into.

    Each record is (frozen, f, gradients, MACs); delete ``prob._pass`` to stop recording.
    """
    passes = []
    run_pass = prob._pass

    def recording(layers, prefix, first_layer):
        f, grads, acts, macs = run_pass(layers, prefix, first_layer)
        passes.append((len(prefix) - 1, f, [g.copy() for g in grads], macs))
        return f, grads, acts, macs

    prob._pass = recording
    return passes


@pytest.mark.parametrize("policy_name", ["horizon", "fixed_radius", "smooth_inverse"])
@pytest.mark.parametrize("scheme_name", sorted(MLP_SCHEMES))
@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_run_prefix_reuse_matches_fresh_value_and_grad(activation, scheme_name, policy_name):
    sizes = [4, 6, 6, 5, 3]
    prob = pb.TinyMlp.synthetic(sizes, n_samples=12, activation=activation, seed=7)
    scheme = MLP_SCHEMES[scheme_name]
    norms = [EUC, SPEC, SPEC, EUC]
    noise = pb.NoiseSpec((0.05, 0.0, 0.1, 0.05))
    if policy_name == "smooth_inverse":
        policy, noise = op.SmoothInverse(pb.smoothness_constants(prob, scheme, norms)), None
    elif policy_name == "fixed_radius":
        policy = op.FixedRadius((0.05, 0.1, 0.07, 0.03), beta=0.6)
    else:
        policy = op.FixedRadius.horizon(4, 20)
    rng = np.random.default_rng(23)
    x0 = [w + 0.1 * rng.standard_normal(w.shape) for w in prob.weights]
    passes = recording_prefix_passes(prob)
    iterates = [x0]
    res = op.run(
        prob, scheme, policy, 20, 3, norms=norms, x0=x0, noise=noise,
        on_step=lambda view: iterates.append([x.copy() for x in view.layers]),
    )
    del prob._pass  # the reference passes below go through it too
    assert len(passes) == len(iterates) == 21
    for (_, f, grads, _), layers in zip(passes, iterates):
        f_ref, grads_ref = prob.value_and_grad(layers)
        assert f == f_ref
        for g_run, g_ref in zip(grads, grads_ref):
            np.testing.assert_array_equal(g_run, g_ref)
    n = prob.inputs.shape[1]
    for r, (frozen, f, _, macs) in zip(res.reports, passes[1:]):
        s = min(r.active)
        assert frozen == s - 1 and r.f_after == f
        assert r.fwd_macs == macs == sum(
            sizes[l] * sizes[l - 1] * n for l in range(s, prob.b + 1)
        ) + sizes[-1] * n
        assert r.degenerate == r.active - set(r.applied)
    if scheme_name != "full_network":
        assert any(frozen > 0 for frozen, *_ in passes)


def test_run_reports_no_macs_for_problems_without_prefix_reuse():
    rng = np.random.default_rng(24)
    prob = scalar_quadratic(rng)
    res = op.run(prob, sp.Rpt((0.5, 0.3, 0.2)), op.FixedRadius.horizon(3, 5), 5, 0)
    assert all(r.fwd_macs is None for r in res.reports)


# ---------------------------------------------------------------------------
# non-finite guard
# ---------------------------------------------------------------------------

def overflow_quadratic():
    return pb.SeparableQuadratic([np.zeros((2, 2))] * 3, (1, 2, 0.5)), [np.ones((2, 2))] * 3


@pytest.mark.parametrize("path", ["stochastic", "deterministic"])
def test_run_overflowing_step_names_iteration_and_layers(path):
    prob, x0 = overflow_quadratic()
    if path == "stochastic":
        policy = op.FixedRadius((1e308,) * 3, beta=1)
    else:  # constants this small make the stepsize 1/L0 overflow the iterate
        table = cm.SmoothnessTable(cm.TableMode.RPT_CUTOFF, 3, {(i, 1): 1e-308 for i in (1, 2, 3)})
        policy = op.SmoothInverse(table)
    with np.errstate(over="ignore"), pytest.raises(
        ValueError, match=r"iteration 0: f_after is inf after updating layers \[1, 2, 3\]"
    ):
        op.run(prob, sp.FullNetwork(3), policy, 4, 0, x0=x0)


def test_run_overflowing_momentum_norm_names_iteration_and_layer():
    prob, x0 = overflow_quadratic()
    with np.errstate(over="ignore"), pytest.raises(
        ValueError, match=r"iteration 0: layer 1: the radius-1e\+200 step vanished"
    ):
        op.run(
            prob, sp.FullNetwork(3), op.FixedRadius((1e200,) * 3, beta=1), 4, 0,
            x0=x0, noise=pb.NoiseSpec((1e300,) * 3),
        )


class BadGradientAfterFirstStep(CountingProblem):
    """Finite f everywhere; the gradient rows of layers ``bad`` are all ``fill`` from x_1 on."""

    def __init__(self, inner, bad=(2,), fill=np.inf):
        super().__init__(inner)
        self.bad = bad
        self.fill = fill

    def stacked_oracle(self, layout):
        counted = super().stacked_oracle(layout)

        def oracle(stacks, forward_from, backward_to):
            f, grads, macs = counted(stacks, forward_from, backward_to)
            if self.calls > 1:
                for members, grad in zip(layout.members, grads):
                    for row, i in enumerate(members):
                        if i in self.bad:
                            grad[row] = self.fill
            return f, grads, macs

        return oracle


@pytest.mark.parametrize("policy", [op.SmoothInverse, op.FixedRadius((0.1,) * 3)])
def test_run_non_finite_gradient_names_iteration_and_layer(policy):
    rng = np.random.default_rng(21)
    inner = scalar_quadratic(rng)
    with pytest.raises(
        ValueError, match="iteration 1: layer 2: gradient: matrix entries must be finite"
    ):
        op.run(
            BadGradientAfterFirstStep(inner), sp.FullNetwork(3),
            with_table(policy, table_for(inner)), 4, 0,
            x0=[rng.standard_normal((2, 2)) for _ in range(3)],
        )


@pytest.mark.parametrize("norm", [EUC, SPEC])
@pytest.mark.parametrize("policy", [op.SmoothInverse, op.FixedRadius((0.1,) * 3)])
def test_run_nan_gradient_names_iteration_and_layer(policy, norm):
    rng = np.random.default_rng(21)
    inner = scalar_quadratic(rng)
    norms = [norm] * 3
    with pytest.raises(
        ValueError, match="^iteration 1: layer 2: gradient: matrix entries must be finite$"
    ):
        op.run(
            BadGradientAfterFirstStep(inner, fill=np.nan), sp.Rpt((0.5, 0.3, 0.2)),
            with_table(policy, table_for(inner, norms)), 4,
            0, norms=norms, x0=[rng.standard_normal((2, 2)) for _ in range(3)],
        )


@pytest.mark.parametrize("policy", [op.SmoothInverse, op.FixedRadius((0.1,) * 3)])
def test_run_finite_gradient_with_overflowing_norm_names_iteration_and_layer(policy):
    # the entries pass the finiteness check; the Euclidean dual norm is inf
    rng = np.random.default_rng(21)
    inner = scalar_quadratic(rng)
    with np.errstate(over="ignore"), pytest.raises(
        ValueError, match="^iteration 1: layer 2: gradient dual norm is inf$"
    ):
        op.run(
            BadGradientAfterFirstStep(inner, fill=1e200), sp.FullNetwork(3),
            with_table(policy, table_for(inner)), 4, 0,
            x0=[rng.standard_normal((2, 2)) for _ in range(3)],
        )


def first_momentum(grads, noise, seed, scheme, beta=1.0):
    """M_1 = (1 - beta) M_0 + beta S_0 under run's stream rule: M_0 from stream(seed, 0), then
    the iteration-0 active set and its sample S_0 from stream(seed, 1), drawn as
    ``problems.stoch_grad`` draws them (exact for the layers of that active set)."""
    m0 = pb.stoch_grad(grads, noise, sp.stream(seed, 0))
    rng = sp.stream(seed, 1)
    sp.sample(scheme, rng)
    return [(1.0 - beta) * m + beta * s for m, s in zip(m0, pb.stoch_grad(grads, noise, rng))]


def seed_where(condition, grads, noise, scheme):
    """The first seed whose ``first_momentum`` under beta = 1 meets ``condition``."""
    with np.errstate(over="ignore", invalid="ignore"):
        return next(s for s in range(100_000) if condition(first_momentum(grads, noise, s, scheme)))


def non_finite(*layers):
    """Whether each of ``layers`` (1-based) of a momentum has a non-finite entry."""
    return lambda m: all(not np.isfinite(m[i - 1]).all() for i in layers)


HUGE = 1.7e308  # a noise sigma whose draws overflow some entries to inf


@pytest.mark.parametrize(
    "fault, message",
    [
        ("nan", "layer 2: momentum: matrix entries must be finite"),  # 0 * an inf M_0
        ("inf", "layer 2: momentum: matrix entries must be finite"),  # an inf sample
        ("overflow", "layer 2: the radius-0.1 step vanished for a non-zero momentum "
                     "(its norm overflows)"),
    ],
)
def test_run_non_finite_or_overflowing_euclidean_momentum_names_layer(fault, message):
    # layer 2's gradient is finite; its noise makes the momentum M_1 fail
    grads = [np.ones((2, 2)) for _ in range(3)]
    scheme = sp.FullNetwork(3)
    if fault == "overflow":  # finite entries near 1e300, whose Frobenius norm overflows
        noise, seed = pb.NoiseSpec((0.0, 1e300, 0.0)), 0
    else:
        noise = pb.NoiseSpec((0.0, HUGE, 0.0))
        bad = non_finite(2)
        seed = seed_where(
            lambda m: bad(m) and np.isnan(m[1]).any() == (fault == "nan"), grads, noise, scheme,
        )
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        ValueError, match=f"^iteration 0: {re.escape(message)}$"
    ):
        op.run(
            FixedGradients(grads), scheme, op.FixedRadius((0.1,) * 3, beta=1.0), 1, seed,
            x0=[np.zeros((2, 2))] * 3, noise=noise,
        )


class FixedGradients:
    """f = 0 and the same gradients at every point."""

    def __init__(self, grads):
        self.grads = grads
        self.b = len(grads)
        self.shapes = [gr.shape for gr in grads]
        self.f_star = 0.0

    def stacked_oracle(self, layout):
        stacks = [np.array([self.grads[i - 1] for i in ids], dtype=float) for ids in layout.members]
        return lambda _stacks, _forward_from, _backward_to: (0.0, stacks, None)


@st.composite
def grouped_gradients(draw):
    """Up to five gradients of at most two shapes, each Euclidean or spectral, so that
    same-shape Euclidean and spectral groups form; entries at the scales of SCALES."""
    shape_choices = st.sampled_from(
        draw(st.lists(hnp.array_shapes(min_dims=2, max_dims=2, max_side=4), min_size=1, max_size=2))
    )
    grads, kinds = [], []
    for _ in range(draw(st.integers(1, 5))):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        grads.append(draw(st.sampled_from(SCALES)) * rng.standard_normal(draw(shape_choices)))
        kinds.append(draw(st.sampled_from([EUC, SPEC])))
    return grads, kinds


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.lists(finite_matrices(), min_size=1, max_size=3).map(lambda gs: (gs, [EUC] * len(gs))),
        grouped_gradients(),
    ),
    st.floats(1e-3, 1e3),
    st.floats(0.0, 1e3),
    st.booleans(),
)
def test_run_det_update_equals_the_checked_sharp_step(grads_and_kinds, l0, l1, generalized):
    # each layer moves by gamma * sharp(grad), bit for bit the per-layer step
    # through geometry.sharp; a Euclidean group moves by gamma * grad (the
    # identity behind a check_matrix scan), a spectral group takes one
    # stacked sharp; a table with an L1 map gives 1 / (L0 + L1 dn), one
    # without gives 1 / L0
    grads, kinds = grads_and_kinds
    b = len(grads)
    x0 = [np.full_like(gr, 0.5) for gr in grads]
    table = cm.SmoothnessTable(
        cm.TableMode.RPT_CUTOFF, b, {(i, 1): l0 for i in range(1, b + 1)},
        {(i, 1): l1 for i in range(1, b + 1)} if generalized else None,
    )
    policy = op.SmoothInverse(table)
    kwargs = dict(norms=kinds, x0=x0)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = [g.dual_norm(kind, gr) for kind, gr in zip(kinds, grads)]
        if not all(np.isfinite(norms)):
            first = next(i for i, n in enumerate(norms, start=1) if not np.isfinite(n))
            message = f"^iteration 0: layer {first}: gradient dual norm is {norms[first - 1]}$"
            with pytest.raises(ValueError, match=message):
                op.run(FixedGradients(grads), sp.FullNetwork(b), policy, 1, 0, **kwargs)
            return
        res = op.run(FixedGradients(grads), sp.FullNetwork(b), policy, 1, 0, **kwargs)
        for i, (x, gr, dn, kind) in enumerate(zip(x0, grads, norms, kinds), start=1):
            gamma = 1.0 / (l0 + l1 * dn) if generalized else 1.0 / l0
            assert res.reports[0].applied[i] == gamma
            assert res.reports[0].grad_dual_norms[i] == dn
            expected = x.copy()
            expected -= gamma * g.sharp(kind, gr)
            np.testing.assert_array_equal(res.model.layers[i - 1], expected)


def test_run_euclidean_det_loop_scans_no_matrix_and_calls_no_choice(monkeypatch):
    # a SeparableQuadratic run with Euclidean norms, SmoothInverse and Rpt
    # checks each gradient by its dual norm alone: the only check_matrix calls
    # are the model's b checks of x0, and no Generator.choice call validates
    # the cutoff vector again at each draw
    b = 6
    rng = np.random.default_rng(31)
    prob = pb.SeparableQuadratic(
        [rng.standard_normal((4, 3)) for _ in range(b)], (1.0, 2.0, 1.5, 3.0, 0.5, 1.0)
    )
    checks, choices = [], []
    check_matrix = g.check_matrix

    def counting_check(m):
        checks.append(None)
        return check_matrix(m)

    class CountingGenerator(np.random.Generator):
        def choice(self, *args, **kwargs):
            choices.append(None)
            return super().choice(*args, **kwargs)

    monkeypatch.setattr(g, "check_matrix", counting_check)
    monkeypatch.setattr(np.random, "Generator", CountingGenerator)
    sp.stream(0, 1).choice(3)  # the spies are live
    g.check_matrix(np.ones((1, 1)))
    assert (len(checks), len(choices)) == (1, 1)
    checks.clear(), choices.clear()
    counts = []
    op.run(
        prob, sp.Rpt((0.3, 0.2, 0.2, 0.1, 0.1, 0.1)), op.SmoothInverse(table_for(prob)), 20, 0,
        x0=[rng.standard_normal((4, 3)) for _ in range(b)],
        on_step=lambda _view: counts.append((len(checks), len(choices))),
    )
    assert counts == [(b, 0)] * 20


# the same guards where the failing layers share a stacked SVD with others

@pytest.mark.parametrize("policy", [op.SmoothInverse, op.FixedRadius((0.1,) * 3)])
def test_run_non_finite_gradient_in_spectral_group_names_layer(policy):
    rng = np.random.default_rng(21)
    inner = scalar_quadratic(rng)
    norms = [SPEC] * 3
    with pytest.raises(
        ValueError, match="iteration 1: layer 2: gradient: matrix entries must be finite"
    ):
        op.run(
            BadGradientAfterFirstStep(inner), sp.FullNetwork(3),
            with_table(policy, table_for(inner, norms)), 4, 0, norms=norms,
            x0=[rng.standard_normal((2, 2)) for _ in range(3)],
        )


@pytest.mark.parametrize("policy", [op.SmoothInverse, op.FixedRadius((0.1,) * 4)])
def test_run_two_bad_layers_in_spectral_group_names_lowest(policy):
    rng = np.random.default_rng(22)
    inner = pb.SeparableQuadratic(
        [rng.standard_normal((2, 2)) for _ in range(4)], (1.0, 2.0, 0.5, 1.5)
    )
    norms = [SPEC, EUC, SPEC, SPEC]  # layers 1, 3 and 4 share one stack
    with pytest.raises(
        ValueError, match="iteration 1: layer 3: gradient: matrix entries must be finite"
    ):
        op.run(
            BadGradientAfterFirstStep(inner, bad=(4, 3)), sp.FullNetwork(4),
            with_table(policy, table_for(inner, norms)), 4, 0,
            norms=norms, x0=[rng.standard_normal((2, 2)) for _ in range(4)],
        )


@pytest.mark.parametrize("ns_config", [None, g.NewtonSchulzConfig()])
def test_run_two_bad_momenta_in_spectral_group_names_lowest(ns_config):
    rng = np.random.default_rng(23)
    grads = [rng.standard_normal((2, 2)) for _ in range(3)]
    noise, scheme = pb.NoiseSpec((0.0, HUGE, HUGE)), sp.FullNetwork(3)
    seed = seed_where(non_finite(2, 3), grads, noise, scheme)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        ValueError, match="^iteration 0: layer 2: momentum: matrix entries must be finite$"
    ):
        op.run(
            FixedGradients(grads), scheme, op.FixedRadius((0.1,) * 3, beta=1.0, ns=ns_config), 1,
            seed, norms=[SPEC] * 3, x0=[rng.standard_normal((2, 2)) for _ in range(3)],
            noise=noise,
        )


def test_run_refuses_an_underflowed_horizon_radius():
    # eta = 5e-324 over (K + 1)^(3/4) with K = 3 rounds to a zero radius; the rule is
    # refused where it is built, naming the first such eta entry and K
    message = r"^eta\[1\] / \(K\+1\)\^\(3/4\) rounds to 0 at K = 3$"
    with pytest.raises(ValueError, match=message):
        op.FixedRadius.horizon(3, 3, (0.1, 5e-324, 5e-324))
    with pytest.raises(
        sp.ConfigError, match=r"^policy\.eta\[1\]: / \(K\+1\)\^\(3/4\) rounds to 0 at K = 3$"
    ):
        op.FixedRadius.horizon(3, 3, (0.1, 5e-324, 5e-324), "policy")


def test_run_names_an_overflowing_layer_below_a_non_finite_one_in_its_group():
    # the group's stacked call raises for layer 3's nan entries; layer 2, below it
    # in the same group, has finite entries whose dual norm overflows, and is named
    grads = [np.ones((2, 2)), np.full((2, 2), 1e200), np.full((2, 2), np.nan)]
    table = cm.SmoothnessTable(cm.TableMode.RPT_CUTOFF, 3, {(i, 1): 1.0 for i in (1, 2, 3)})
    with np.errstate(over="ignore"), pytest.raises(
        ValueError, match="^iteration 0: layer 2: gradient dual norm is inf$"
    ):
        op.run(
            FixedGradients(grads), sp.FullNetwork(3), op.SmoothInverse(table), 1, 0,
            x0=[np.zeros((2, 2))] * 3,
        )
    # the same for the momentum: layer 2's overflows its norm, layer 3's is not finite
    grads = [np.ones((2, 2)) for _ in range(3)]
    noise, scheme = pb.NoiseSpec((0.0, 1e300, HUGE)), sp.FullNetwork(3)
    seed = seed_where(non_finite(3), grads, noise, scheme)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        ValueError, match=r"^iteration 0: layer 2: the radius-0.1 step vanished"
    ):
        op.run(
            FixedGradients(grads), scheme, op.FixedRadius((0.1,) * 3, beta=1.0), 1, seed,
            x0=[np.zeros((2, 2))] * 3, noise=noise,
        )


def test_run_zero_momentum_in_spectral_group_flagged_degenerate():
    rng = np.random.default_rng(24)
    x0 = [rng.standard_normal((3, 2)) for _ in range(3)]
    grads = [rng.standard_normal((3, 2)), np.zeros((3, 2)), rng.standard_normal((3, 2))]
    res = op.run(
        FixedGradients(grads), sp.FullNetwork(3), op.FixedRadius((0.1, 0.2, 0.3), beta=1.0), 1,
        0, norms=[SPEC] * 3, x0=x0,
    )
    rep = res.reports[0]
    assert rep.degenerate == frozenset({2}) and set(rep.applied) == {1, 3}
    np.testing.assert_array_equal(res.model.layers[1], x0[1])
    for i in (1, 3):
        expected = x0[i - 1] + g.lmo(SPEC, grads[i - 1], rep.applied[i]).step
        np.testing.assert_array_equal(res.model.layers[i - 1], expected)


def test_run_overflowing_momentum_in_spectral_group_names_layer():
    prob, x0 = overflow_quadratic()
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        ValueError, match=r"iteration 0: layer 1: the radius-1e\+200 step vanished"
    ):
        op.run(
            prob, sp.FullNetwork(3), op.FixedRadius((1e200,) * 3, beta=1), 4, 0,
            norms=[SPEC] * 3, x0=x0, noise=pb.NoiseSpec((1e308,) * 3),
        )


@pytest.mark.parametrize("kind, ns_config", [(EUC, None), (SPEC, None), (SPEC, g.NewtonSchulzConfig())])
def test_run_steps_a_momentum_whose_squared_norm_underflows(kind, ns_config):
    # layer 2's momentum is layer 1's scaled by 1e-170, so its squared norm
    # underflows to 0; it takes the same step as layer 1, of norm t
    grads = [np.ones((2, 2)), np.full((2, 2), 1e-170)]
    res = op.run(
        FixedGradients(grads), sp.FullNetwork(2),
        op.FixedRadius((0.1, 0.1), beta=1.0, ns=ns_config), 1, 0,
        norms=[kind] * 2, x0=[np.zeros((2, 2))] * 2,
    )
    rep, layers = res.reports[0], res.model.layers
    assert rep.applied == {1: 0.1, 2: 0.1} and not rep.degenerate
    assert np.isfinite(layers[1]).all()
    np.testing.assert_allclose(layers[1], layers[0], rtol=1e-12)
    if kind == EUC:
        assert g.norm(EUC, layers[1]) == pytest.approx(0.1, rel=1e-15)


@pytest.mark.parametrize(
    "l0, l1, gamma",
    [(np.nan, None, None), (1.0, np.inf, None), (np.inf, None, 0.0)],
)
def test_run_refuses_a_nan_stepsize_denominator(l0, l1, gamma):
    # an inf L1 times layer 2's zero gradient makes the denominator nan too;
    # an infinite denominator is a zero step
    grads = [np.ones((2, 2)), np.zeros((2, 2)), np.ones((2, 2))]
    l0s = {(1, 1): 1.0, (2, 1): l0, (3, 1): 1.0}
    l1s = None if l1 is None else {(1, 1): 0.0, (2, 1): l1, (3, 1): 0.0}
    table = cm.SmoothnessTable(cm.TableMode.RPT_CUTOFF, 3, l0s, l1s)
    policy = op.SmoothInverse(table)
    x0 = [np.zeros((2, 2))] * 3

    def call():
        return op.run(FixedGradients(grads), sp.FullNetwork(3), policy, 1, 0, x0=x0)

    if gamma is not None:
        res = call()
        assert res.reports[0].applied[2] == gamma
        np.testing.assert_array_equal(res.model.layers[1], x0[1])
        return
    message = "^iteration 0: layer 2: stepsize denominator must be positive, got nan$"
    with pytest.raises(ValueError, match=message):
        call()


# ---------------------------------------------------------------------------
# a failed step names the lowest failing layer, across interleaved groups:
# the stacked calls only detect a fault, and the run names it per layer
# ---------------------------------------------------------------------------

FAULTS = ("none", "nan", "inf", "overflow", "zero")


@st.composite
def faulty_layers(draw):
    """Two to five layers of three shapes, each Euclidean or spectral, so that
    shapes and kinds interleave across groups (norms [S, E, S, S] on one
    shape, for one); each gradient carries one random fault or none, and each
    layer a radius."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grads, kinds, radii = [], [], []
    for _ in range(draw(st.integers(2, 5))):
        shape = draw(st.sampled_from([(2, 2), (2, 3), (3, 2)]))
        grad = rng.standard_normal(shape)
        fault = draw(st.sampled_from(FAULTS)) if draw(st.booleans()) else "none"
        if fault in ("nan", "inf"):
            grad[tuple(rng.integers(shape))] = float(fault)
        elif fault == "overflow":  # finite entries whose Frobenius norm overflows
            grad[:] = 1e200
        elif fault == "zero":  # degenerate, not a fault
            grad[:] = 0.0
        grads.append(grad)
        kinds.append(draw(st.sampled_from([EUC, SPEC])))
        radii.append(draw(st.floats(0.1, 1.0)))
    return grads, kinds, radii


def gradient_fault(kinds, grads):
    """Oracle: the message for the lowest layer whose gradient or dual norm is not finite."""
    for i, (kind, grad) in enumerate(zip(kinds, grads), start=1):
        try:
            value = g.dual_norm(kind, grad)
        except ValueError as exc:
            return f"layer {i}: gradient: {exc}"
        if not np.isfinite(value):
            return f"layer {i}: gradient dual norm is {value}"
    return None


def per_matrix_step(kind, m, t, ns_config):
    """The LMO step of one layer on either backend, from the per-matrix functions."""
    step = g.lmo(kind, m, t).step
    if ns_config is not None and kind == SPEC and m.any():
        step = -t * g.newton_schulz(m, ns_config)
    return step


def momentum_fault(i, kind, m, t, ns_config):
    """Oracle: the message for layer i when its LMO step fails or vanishes, else None."""
    try:
        step = per_matrix_step(kind, m, t, ns_config)
    except ValueError as exc:
        return f"layer {i}: momentum: {exc}"
    if m.any() and not step.any():
        return f"layer {i}: the radius-{t} step vanished for a non-zero momentum (its norm overflows)"
    return None


def assert_raises_exactly(message, call):
    if message is None:
        return call()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


NS_BACKENDS = st.sampled_from([None, g.NewtonSchulzConfig()])


@st.composite
def noisy_layers(draw):
    """Two to five layers of three shapes, each Euclidean or spectral, with finite (maybe
    zero) gradients, a radius each and a noise sigma each: none, 1e300 (finite sample
    entries whose Frobenius norm overflows) or HUGE (sample entries that may overflow)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grads, kinds, radii, sigmas = [], [], [], []
    for _ in range(draw(st.integers(2, 5))):
        shape = draw(st.sampled_from([(2, 2), (2, 3), (3, 2)]))
        grads.append(rng.standard_normal(shape) if draw(st.booleans()) else np.zeros(shape))
        kinds.append(draw(st.sampled_from([EUC, SPEC])))
        radii.append(draw(st.floats(0.1, 1.0)))
        sigmas.append(draw(st.sampled_from([0.0, 0.0, 1e300, HUGE])))
    return grads, kinds, radii, sigmas


@settings(max_examples=200, deadline=None)
@given(noisy_layers(), st.data(), NS_BACKENDS, st.integers(0, 2**16))
def test_run_names_the_lowest_failing_momentum_across_groups(layers, data, ns_config, seed):
    grads, kinds, radii, sigmas = layers
    b = len(grads)
    active = frozenset(data.draw(st.sets(st.integers(1, b), min_size=1)))
    scheme, noise = only(active, b), pb.NoiseSpec(sigmas)
    x0 = [np.full_like(gr, 0.5) for gr in grads]
    with np.errstate(over="ignore", invalid="ignore"):
        momentum = first_momentum(grads, noise, seed, scheme)  # beta = 1
        faults = {
            i: momentum_fault(i, kinds[i - 1], momentum[i - 1], radii[i - 1], ns_config)
            for i in active
        }
        first = next((faults[i] for i in sorted(active) if faults[i]), None)
        res = assert_raises_exactly(
            None if first is None else f"iteration 0: {first}",
            lambda: op.run(
                FixedGradients(grads), scheme, op.FixedRadius(radii, beta=1.0, ns=ns_config), 1,
                seed, norms=kinds, x0=x0, noise=noise,
            ),
        )
        if res is None:
            return
        # each active layer moved by its per-matrix LMO step; each frozen one stayed
        for i, (x, start) in enumerate(zip(res.model.layers, x0), start=1):
            expected = start
            if i in active:
                expected = start + per_matrix_step(
                    kinds[i - 1], momentum[i - 1], radii[i - 1], ns_config
                )
            np.testing.assert_array_equal(x, expected)


@settings(max_examples=150, deadline=None)
@given(faulty_layers(), st.sampled_from(["smooth", "svd", "ns"]))
def test_run_names_the_lowest_failing_layer_across_groups(layers, path):
    grads, kinds, radii = layers
    b = len(grads)
    beta = 0.5
    ns_config = g.NewtonSchulzConfig() if path == "ns" else None
    table = cm.SmoothnessTable(cm.TableMode.RPT_CUTOFF, b, {(i, 1): 1.0 for i in range(1, b + 1)})
    policy = op.SmoothInverse(table) if path == "smooth" \
        else op.FixedRadius(radii, beta, ns=ns_config)
    with np.errstate(over="ignore", invalid="ignore"):
        message = gradient_fault(kinds, grads)
        if message is None and path != "smooth":  # M_0 = g, then M_1 = (1 - beta) M_0 + beta g
            momenta = [(1.0 - beta) * gr + beta * gr for gr in grads]
            message = next(
                filter(None, (
                    momentum_fault(i, kind, m, t, ns_config)
                    for i, (kind, m, t) in enumerate(zip(kinds, momenta, radii), start=1)
                )),
                None,
            )
        assert_raises_exactly(
            None if message is None else f"iteration 0: {message}",
            lambda: op.run(
                FixedGradients(grads), sp.FullNetwork(b), policy, 1, 0, norms=kinds,
                x0=[np.full_like(gr, 0.5) for gr in grads],
            ),
        )


def test_a_fault_that_no_single_layer_shows_still_stops_the_step(monkeypatch):
    # the walks name the layer by one-layer checks; a fault that only a stacked
    # call reports still raises rather than being dropped
    dual_norms, lmos = g.dual_norms, g.lmos

    def stacked_lmos_fail(kind, ms, t, ns=None):
        if len(ms) > 1:
            raise ValueError("stacked only")
        return lmos(kind, ms, t, ns=ns)

    grads = [np.ones((2, 2)) for _ in range(3)]
    monkeypatch.setattr(g, "dual_norms", lambda kind, ms: dual_norms(kind, ms) * np.nan)
    table = cm.SmoothnessTable(cm.TableMode.RPT_CUTOFF, 3, {(i, 1): 1.0 for i in (1, 2, 3)})
    with pytest.raises(ValueError, match="^iteration 0: a stacked gradient check failed"):
        op.run(FixedGradients(grads), sp.FullNetwork(3), op.SmoothInverse(table), 1, 0)
    monkeypatch.setattr(g, "dual_norms", dual_norms)
    monkeypatch.setattr(g, "lmos", stacked_lmos_fail)
    with pytest.raises(ValueError, match="^iteration 0: a stacked momentum step failed"):
        op.run(FixedGradients(grads), sp.FullNetwork(3), op.FixedRadius((0.1,) * 3, beta=1.0), 1, 0)


# ---------------------------------------------------------------------------
# stepsizes are derived and checked in the active set's plan, one layer at a
# time in layer order, on tables with and without an L1 map
# ---------------------------------------------------------------------------

STEPSIZE_FAULTS = ("no_l0", "no_l1", "l0_zero", "l0_negative", "nan_denominator")


@st.composite
def stepsize_faults(draw):
    """Two to five layers of two shapes, each Euclidean or spectral, so that groups
    interleave, and a full-set table with an L1 map where each layer may carry one
    fault: a missing L0 or L1, an L0 <= 0, or an inf L1 on a zero gradient."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grads, kinds, l0, l1 = [], [], {}, {}
    for i in range(1, draw(st.integers(2, 5)) + 1):
        fault = draw(st.sampled_from(STEPSIZE_FAULTS)) if draw(st.booleans()) else "none"
        grad = rng.standard_normal(draw(st.sampled_from([(2, 2), (2, 3)])))
        grads.append(0.0 * grad if fault == "nan_denominator" else grad)
        kinds.append(draw(st.sampled_from([EUC, SPEC])))
        if fault != "no_l0":
            l0[(i, 1)] = {"l0_zero": 0.0, "l0_negative": -1.0}.get(fault, 1.5)
        if fault != "no_l1":
            l1[(i, 1)] = np.inf if fault == "nan_denominator" else 0.25
    return grads, kinds, l0, l1


def stepsize_fault(table, generalized, dual_norms):
    """Oracle: the error of the lowest layer with a missing constant (L0 before L1) or a
    stepsize denominator that is not positive, else None."""
    for i, dn in enumerate(dual_norms, start=1):
        if (i, 1) not in table.l0:
            return KeyError(f"missing smoothness constant L0 for layer {i}, set key 1")
        denom = table.l0[(i, 1)]
        if generalized:
            if (i, 1) not in table.l1:
                return KeyError(f"missing smoothness constant L1 for layer {i}, set key 1")
            denom = denom + table.l1[(i, 1)] * dn
        if not denom > 0.0:
            return ValueError(f"layer {i}: stepsize denominator must be positive, got {denom}")
    return None


@settings(max_examples=200, deadline=None)
@given(stepsize_faults(), st.booleans())
def test_run_names_the_lowest_stepsize_fault_across_groups(case, with_l1):
    grads, kinds, l0, l1 = case
    b = len(grads)
    table = cm.SmoothnessTable(cm.TableMode.RPT_CUTOFF, b, l0, l1 if with_l1 else None)
    dual_norms = [g.dual_norm(kind, gr) for kind, gr in zip(kinds, grads)]
    expected = stepsize_fault(table, with_l1, dual_norms)

    def call():
        return op.run(
            FixedGradients(grads), sp.FullNetwork(b), op.SmoothInverse(table), 1, 0, norms=kinds,
            x0=[np.full_like(gr, 0.5) for gr in grads],
        )

    if expected is None:
        applied = call().reports[0].applied
        for i, dn in enumerate(dual_norms, start=1):
            l1_term = l1[(i, 1)] * dn if with_l1 else 0.0
            assert applied[i] == 1.0 / (l0[(i, 1)] + l1_term)
        return
    with pytest.raises(type(expected)) as info:
        call()
    assert info.value.args == (f"iteration 0: {expected.args[0]}",)


class ScriptedGradients(FixedGradients):
    """f = 0 and, at the n-th evaluation, the n-th gradients of ``script`` (the last
    ones from then on)."""

    def __init__(self, script):
        super().__init__(script[0])
        self.script = script

    def stacked_oracle(self, layout):
        calls = []

        def oracle(_stacks, _forward_from, _backward_to):
            grads = self.script[min(len(calls), len(self.script) - 1)]
            calls.append(None)
            stacks = [np.array([grads[i - 1] for i in members]) for members in layout.members]
            return 0.0, stacks, None

        return oracle


def test_run_names_the_lowest_late_stepsize_fault_across_groups():
    # the full set is planned at iteration 0, where every denominator is
    # positive; at iteration 2 layer 3 (in the first group, {1, 3}) gets a nan
    # denominator and layer 2 (in the second) a negative one, and layer 2 is named
    healthy = [np.ones((2, 3)), np.ones((2, 2)), np.ones((2, 3))]
    late = [np.ones((2, 3)), np.full((2, 2), 0.25), np.zeros((2, 3))]  # ||g_2|| = 0.5
    l0 = {(1, 1): 1.0, (2, 1): -1.0, (3, 1): 1.0}
    l1 = {(1, 1): 0.5, (2, 1): 1.0, (3, 1): np.inf}
    table = cm.SmoothnessTable(cm.TableMode.RPT_CUTOFF, 3, l0, l1)
    prob = ScriptedGradients([healthy, healthy, late])
    x0 = [np.zeros(s) for s in prob.shapes]
    reports = []
    message = "^iteration 2: layer 2: stepsize denominator must be positive, got -0.5$"
    with pytest.raises(ValueError, match=message):
        op.run(
            prob, sp.FullNetwork(3), op.SmoothInverse(table), 4, 0, x0=x0,
            on_step=lambda view: reports.append(view.report),
        )
    assert [r.applied for r in reports] == [{1: 1.0 / (1.0 + 0.5 * 6 ** 0.5), 2: 1.0, 3: 0.0}] * 2


@pytest.mark.parametrize("scheme_name", ["rpt", "partitioned"])
def test_gen_smooth_without_l1_equals_smooth_bit_for_bit(scheme_name):
    # SmoothInverse's stepsizes 1 / L0 on a table without an L1 map equal the
    # per-iteration 1 / (L0 + 0 * dn) of the same table with an explicit zero
    # L1 map, bit for bit, on spectral and Euclidean groups with interleaved
    # members
    rng = np.random.default_rng(50)
    shapes = [(3, 2), (2, 2), (3, 2), (3, 2), (2, 2)]
    norms = [SPEC, EUC, EUC, SPEC, SPEC]
    prob = pb.CoupledQuadratic(
        [rng.standard_normal(s) for s in shapes], (2.0, 1.5, 3.0, 1.0, 2.5), 0.3, rng=rng
    )
    scheme = {
        "rpt": sp.Rpt((0.3, 0.2, 0.2, 0.2, 0.1)),
        "partitioned": sp.PartitionedSubmodel(
            (frozenset({1, 3}), frozenset({2, 5}), frozenset({4})), (0.4, 0.3, 0.3)
        ),
    }[scheme_name]
    table = pb.smoothness_constants(prob, scheme, norms)
    assert table.l1 is None
    zero_l1 = cm.SmoothnessTable(table.mode, table.b, table.l0, {k: 0.0 for k in table.l0})
    x0 = [rng.standard_normal(s) for s in shapes]
    smooth, other = (
        op.run(prob, scheme, op.SmoothInverse(t), 20, 3, norms=norms, x0=x0)
        for t in (table, zero_l1)
    )
    assert other.f_final == smooth.f_final
    for a, b in zip(other.model.layers, smooth.model.layers):
        np.testing.assert_array_equal(a, b)
    for r, ref in zip(other.reports, smooth.reports, strict=True):
        assert (r.active, r.f_before, r.f_after, r.applied) == (
            ref.active, ref.f_before, ref.f_after, ref.applied
        )


# ---------------------------------------------------------------------------
# stacked noise and per-active-set plans
# ---------------------------------------------------------------------------

@st.composite
def noisy_stacks(draw):
    """Layers of at most two shapes in interleaved Euclidean and spectral groups, their
    gradients, sigmas with zeros among them, and any non-empty active set."""
    shapes = draw(st.lists(
        st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=2, unique=True
    ))
    b = draw(st.integers(1, 6))
    layer_shapes = [draw(st.sampled_from(shapes)) for _ in range(b)]
    norms = [draw(st.sampled_from([EUC, SPEC])) for _ in range(b)]
    sigmas = [draw(st.sampled_from([0.0, 0.3, 2.0])) for _ in range(b)]
    active = draw(st.sets(st.integers(1, b), min_size=1))
    return layer_shapes, norms, sigmas, frozenset(active), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(noisy_stacks())
def test_stacked_noise_on_active_rows_equals_stoch_grad(case):
    # run adds stoch_grad's noise to the active rows of its gradient stacks only;
    # every active row equals stoch_grad's layer bit for bit, a zero-sigma row is
    # the exact gradient, and the draws leave the generator where stoch_grad does
    shapes, norms, sigmas, active, seed = case
    rng = np.random.default_rng(seed)
    model = op.LayerModel([np.zeros(s) for s in shapes], norms)
    layout = model.layout
    grads = [rng.standard_normal((len(m),) + s) for m, s in zip(layout.members, layout.shapes)]
    per_layer = [None] * len(shapes)
    for members, stack in zip(layout.members, grads):
        for i, row in zip(members, stack):
            per_layer[i - 1] = row
    noise = pb.NoiseSpec(sigmas)
    got_rng, ref_rng = sp.stream(seed % 97, 3), sp.stream(seed % 97, 3)
    ref = pb.stoch_grad(per_layer, noise, ref_rng)
    plan = op._plan(model, active, sigmas=noise.sigmas)
    samples = op._samples(grads, plan, got_rng)
    assert [i for step in plan.groups for i in step.layers] == [
        i for members in layout.members for i in members if i in active
    ]
    for step, sample in zip(plan.groups, samples):
        assert sample.shape == (len(step.layers),) + layout.shapes[step.index]
        for i, row in zip(step.layers, sample):
            assert np.array_equal(row, ref[i - 1])
            if sigmas[i - 1] == 0.0:
                assert np.array_equal(row, per_layer[i - 1])
    assert got_rng.random() == ref_rng.random()


@pytest.mark.parametrize("scheme_name", ["tau_nice", "partitioned"])
def test_run_stacked_noise_on_non_suffix_sets_matches_fresh_reference(scheme_name):
    # interleaved groups {1, 3} (spectral 3x2) and {2, 4} (Euclidean 3x2), a zero sigma,
    # and active sets that are not suffixes of their groups
    rng = np.random.default_rng(46)
    shapes = [(3, 2)] * 4
    prob = pb.SeparableQuadratic([rng.standard_normal(s) for s in shapes], (1.0, 2.0, 0.5, 1.5))
    norms = [SPEC, EUC, SPEC, EUC]
    scheme = sp.TauNice(4, 2) if scheme_name == "tau_nice" else sp.PartitionedSubmodel(
        (frozenset({1, 2}), frozenset({3}), frozenset({4})), (0.4, 0.3, 0.3)
    )
    x0 = [rng.standard_normal(s) for s in shapes]
    noise = pb.NoiseSpec((0.3, 0.0, 0.2, 0.5))
    policy = op.FixedRadius((0.05, 0.1, 0.02, 0.07), beta=0.6)
    ref_layers, ref_rows = reference_stochastic_run(prob, scheme, policy, 25, 5, norms, x0, noise)
    res = op.run(prob, scheme, policy, 25, 5, norms=norms, x0=x0, noise=noise)
    assert [(r.active, r.f_before, r.f_after, r.grad_dual_norms) for r in res.reports] == ref_rows
    for a, b in zip(res.model.layers, ref_layers):
        np.testing.assert_array_equal(a, b)


# interleaved groups {1, 3, 5} (spectral 3x2) and {2, 4, 6} (Euclidean 2x2), noisy but
# for layer 4; the active set {1, 2, 4, 5} freezes the noisy layer 3 between the active
# noisy layers 1 and 5, and keeps the zero-sigma layer 4 active
INTERLEAVED_SHAPES = [(3, 2), (2, 2)] * 3
INTERLEAVED_NORMS = [SPEC, EUC] * 3
INTERLEAVED_SIGMAS = (0.3, 0.5, 0.2, 0.0, 0.4, 0.1)


@pytest.mark.parametrize("active", [{1, 2, 4, 5}, {1, 5}, {4}, {3, 6}, set(range(1, 7))])
def test_noise_entries_of_interleaved_groups_equal_stoch_grad(active):
    # every noisy layer has an entry, in layer order, placed at its row when active and
    # unplaced when frozen; a frozen noisy row in between shifts nothing, a zero-sigma row
    # is the exact gradient, and the gradient stacks are not written
    model = op.LayerModel([np.zeros(s) for s in INTERLEAVED_SHAPES], INTERLEAVED_NORMS)
    noise = pb.NoiseSpec(INTERLEAVED_SIGMAS)
    plan = op._plan(model, frozenset(active), sigmas=noise.sigmas)
    places = {
        i: (g_, j) for g_, step in enumerate(plan.groups) for j, i in enumerate(step.layers)
    }
    # layer sizes 6, 4, 6, 4, 6, 4; layer 4 draws nothing
    assert plan.noise == [
        (INTERLEAVED_SHAPES[i - 1], INTERLEAVED_SIGMAS[i - 1] / math.sqrt(6 if i % 2 else 4),
         places[i] if i in active else None)
        for i in (1, 2, 3, 5, 6)
    ]
    rng = np.random.default_rng(48)
    grads = [rng.standard_normal((3,) + s) for s in model.layout.shapes]
    kept = [gr.copy() for gr in grads]
    got_rng, ref_rng = sp.stream(5, 2), sp.stream(5, 2)
    samples = op._samples(grads, plan, got_rng)
    exact = model.layout.rows(grads)
    ref = pb.stoch_grad(exact, noise, ref_rng)
    for gr, before in zip(grads, kept):
        assert np.array_equal(gr, before)
    for step, sample in zip(plan.groups, samples):
        for i, row in zip(step.layers, sample, strict=True):
            assert np.array_equal(row, ref[i - 1])
            assert np.array_equal(row, exact[i - 1]) == (i == 4)
    assert got_rng.random() == ref_rng.random()


# layers 1 and 2 are noisy and, under RPT with min S = 3, always frozen; layer 3 is
# noiseless and layer 4 noisy, so layer 4's noise follows the two discarded draws
PREFIX_SHAPES = [(2, 3), (3, 3), (3, 3), (2, 3)]
PREFIX_NORMS = [SPEC, EUC, SPEC, SPEC]
PREFIX_NOISE = pb.NoiseSpec((0.4, 0.7, 0.0, 0.3))


def prefix_problem():
    rng = np.random.default_rng(51)
    targets = [rng.standard_normal(s) for s in PREFIX_SHAPES]
    return pb.SeparableQuadratic(targets, (1.0, 2.0, 0.5, 1.5)), [
        rng.standard_normal(s) for s in PREFIX_SHAPES
    ]


def test_run_m0_equals_stoch_grad_at_x0():
    # beta = 0 keeps the momentum at M0, which draws every noisy layer's noise from
    # stream(seed, 0) as stoch_grad does
    prob, x0 = prefix_problem()
    seen = []
    op.run(
        prob, sp.Rpt((0.0, 0.0, 1.0, 0.0)), op.FixedRadius((0.1,) * 4, beta=0.0), 2, 7,
        norms=PREFIX_NORMS, x0=x0, noise=PREFIX_NOISE,
        on_step=lambda view: seen.append([m.copy() for m in view.momentum]),
    )
    m0 = pb.stoch_grad(prob.value_and_grad(x0)[1], PREFIX_NOISE, sp.stream(7, 0))
    for momentum in seen:
        for got, want in zip(momentum, m0, strict=True):
            assert np.array_equal(got, want)


def test_run_frozen_noisy_prefix_draws_and_discards_its_noise():
    # min S = 3: each iteration's sample is stoch_grad's, noisy layers 1 and 2 drawing
    # their normals first; their momentum stays M0 and their layers stay x0
    prob, x0 = prefix_problem()
    scheme, policy = sp.Rpt((0.0, 0.0, 1.0, 0.0)), op.FixedRadius((0.05, 0.1, 0.02, 0.07), 0.6)
    seen = []
    op.run(
        prob, scheme, policy, 6, 8, norms=PREFIX_NORMS, x0=x0, noise=PREFIX_NOISE,
        on_step=lambda view: seen.append(
            ([x.copy() for x in view.layers], [m.copy() for m in view.momentum])
        ),
    )
    layers = [x.copy() for x in x0]
    momentum = pb.stoch_grad(prob.value_and_grad(layers)[1], PREFIX_NOISE, sp.stream(8, 0))
    m0 = [m.copy() for m in momentum]
    for k, (got_layers, got_momentum) in enumerate(seen):
        rng = sp.stream(8, k + 1)
        assert sp.sample(scheme, rng) == {3, 4}
        sample = pb.stoch_grad(prob.value_and_grad(layers)[1], PREFIX_NOISE, rng)
        for i in (3, 4):
            momentum[i - 1] = (1.0 - policy.beta) * momentum[i - 1] + policy.beta * sample[i - 1]
            step, degenerate = g.lmo(PREFIX_NORMS[i - 1], momentum[i - 1], policy.radii[i - 1])
            assert not degenerate
            layers[i - 1] = layers[i - 1] + step
        for i in range(1, 5):
            assert np.array_equal(got_momentum[i - 1], momentum[i - 1])
            assert np.array_equal(got_layers[i - 1], layers[i - 1])
        for i in (1, 2):
            assert np.array_equal(got_momentum[i - 1], m0[i - 1])
            assert np.array_equal(got_layers[i - 1], x0[i - 1])


def test_run_refuses_a_sigma_count_that_is_not_one_per_layer():
    # the refusal comes after x0's pass and before the first iteration
    prob, x0 = prefix_problem()
    passes = []
    oracle = prob.stacked_oracle

    def counted(layout):
        inner = oracle(layout)

        def call(stacks, forward_from, backward_to):
            passes.append((forward_from, backward_to))
            return inner(stacks, forward_from, backward_to)

        return call

    prob.stacked_oracle = counted
    with pytest.raises(ValueError, match=r"^need one sigma per layer$"):
        op.run(prob, sp.Rpt((0.0, 0.0, 1.0, 0.0)), op.FixedRadius((0.1,) * 4), 3, 0,
               norms=PREFIX_NORMS, x0=x0, noise=pb.NoiseSpec((0.4, 0.7, 0.0)))
    assert passes == [(1, 1)]


@pytest.mark.parametrize("blocks", [
    (frozenset({1, 2, 4, 5}), frozenset({3, 6})),
    (frozenset({1, 5}), frozenset({2, 3}), frozenset({4, 6})),
])
def test_run_noise_around_a_frozen_noisy_row_matches_fresh_reference(blocks):
    rng = np.random.default_rng(49)
    shapes = INTERLEAVED_SHAPES
    prob = pb.SeparableQuadratic([rng.standard_normal(s) for s in shapes], (1, 2, 0.5, 1.5, 1, 3))
    scheme = sp.PartitionedSubmodel(blocks, (1.0 / len(blocks),) * len(blocks))
    x0 = [rng.standard_normal(s) for s in shapes]
    noise = pb.NoiseSpec(INTERLEAVED_SIGMAS)
    policy = op.FixedRadius((0.05, 0.1, 0.02, 0.07, 0.04, 0.03), beta=0.6)
    ref_layers, ref_rows = reference_stochastic_run(
        prob, scheme, policy, 20, 6, INTERLEAVED_NORMS, x0, noise
    )
    res = op.run(prob, scheme, policy, 20, 6, norms=INTERLEAVED_NORMS, x0=x0, noise=noise)
    assert [(r.active, r.f_before, r.f_after, r.grad_dual_norms) for r in res.reports] == ref_rows
    for a, b in zip(res.model.layers, ref_layers):
        np.testing.assert_array_equal(a, b)


def first_iteration_drawing(scheme, seed, cutoff, iterations):
    """The first iteration k < iterations whose active set has min S == cutoff, or None."""
    for k in range(iterations):
        if min(sp.sample(scheme, sp.stream(seed, k + 1))) == cutoff:
            return k
    return None


def test_run_names_a_missing_constant_without_quotes():
    # a KeyError's str() is its repr; run's message takes the fault's own text
    rng = np.random.default_rng(50)
    prob = pb.SeparableQuadratic([rng.standard_normal((2, 2)) for _ in range(2)], (1.0, 2.0))
    scheme = sp.Rpt((0.0, 1.0))
    table = pb.smoothness_constants(prob, scheme, [EUC] * 2)
    del table.l0[(2, 2)]
    with pytest.raises(KeyError) as info:
        op.run(prob, scheme, op.SmoothInverse(table), 3, 0)
    message = "iteration 0: missing smoothness constant L0 for layer 2, set key 2"
    assert info.value.args == (message,)
    assert "'" not in info.value.args[0]


def test_run_plans_an_active_set_on_its_first_draw_only():
    # the table lacks only cutoff 3's constants: the run stops at the first
    # iteration k > 0 that draws cutoff 3, and runs to the end under a scheme
    # that never draws it; a run that planned every set in advance would stop
    # before its first step
    rng = np.random.default_rng(47)
    prob = pb.SeparableQuadratic([rng.standard_normal((2, 2)) for _ in range(4)], (1, 2, 0.5, 3))
    scheme = sp.Rpt((0.3, 0.3, 0.2, 0.2))
    table = pb.smoothness_constants(prob, scheme, [EUC] * 4)
    table.l0 = {(i, s): v for (i, s), v in table.l0.items() if s != 3}
    iterations = 40
    seed = next(
        s for s in range(100) if (first_iteration_drawing(scheme, s, 3, iterations) or 0) > 0
    )
    k = first_iteration_drawing(scheme, seed, 3, iterations)
    x0 = [np.zeros((2, 2))] * 4
    with pytest.raises(KeyError, match=f"iteration {k}: .*for layer 3, set key 3"):
        op.run(prob, scheme, op.SmoothInverse(table), iterations, seed, x0=x0)
    never = sp.Rpt((0.4, 0.3, 0.0, 0.3))
    res = op.run(prob, never, op.SmoothInverse(table), iterations, seed, x0=x0)
    assert len(res.reports) == iterations
    assert {min(r.active) for r in res.reports} == {1, 2, 4}


def test_run_plans_each_distinct_active_set_once(monkeypatch):
    # Layout.active_rows runs once per (set, group) and SmoothnessTable.require
    # once per (set, layer), however often a set is drawn
    rng = np.random.default_rng(48)
    shapes = [(3, 2), (2, 2), (3, 2), (3, 2), (2, 2)]
    prob = pb.SeparableQuadratic([rng.standard_normal(s) for s in shapes], (1, 2, 0.5, 3, 1.5))
    scheme = sp.Rpt((0.2,) * 5)
    table = pb.smoothness_constants(prob, scheme, [EUC] * 5)
    rows_calls, require_calls = [], []
    active_rows, require = pb.Layout.active_rows, cm.SmoothnessTable.require

    def counting_rows(self, g, active):
        rows_calls.append((self.members[g], active))
        return active_rows(self, g, active)

    def counting_require(self, i, key, which="l0"):
        require_calls.append((i, key, which))
        return require(self, i, key, which)

    monkeypatch.setattr(pb.Layout, "active_rows", counting_rows)
    monkeypatch.setattr(cm.SmoothnessTable, "require", counting_require)
    res = op.run(prob, scheme, op.SmoothInverse(table), 60, 2)
    drawn = {r.active for r in res.reports}
    assert len(drawn) >= 3 and len(res.reports) > 2 * len(drawn)
    groups = [(1, 3, 4), (2, 5)]  # by shape
    assert sorted(rows_calls) == sorted((m, a) for m in groups for a in drawn)
    assert len(require_calls) == len(set(require_calls)) == sum(len(a) for a in drawn)


# the benchmark tracer opens an iteration on run's per-iteration stream call

def _benchmark_workloads():
    spec = importlib.util.spec_from_file_location("workloads", BENCHMARKS / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the runs `droptrain run` makes: quad_det's seed-free "full" variant runs once
RUNS_MADE = {"quad_det": 1 + 4, "mlp_rpt": 2 * 2}


@pytest.mark.parametrize("name", ["quad_det", "mlp_rpt"])
def test_benchmark_tracer_sees_every_iteration(name, tmp_path):
    cfg = _benchmark_workloads().make_config(name, 0, tiny=True)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    proc = subprocess.run(
        [sys.executable, str(BENCHMARKS / "child.py"), "--config", str(config),
         "--out", str(tmp_path / "out"), "--result", str(tmp_path / "result.json"),
         "--trace", str(tmp_path / "spans.json")],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "result.json").read_text())["rc"] == 0
    iterations = json.loads((tmp_path / "spans.json").read_text())["iterations"]
    assert len(iterations) == RUNS_MADE[name] * cfg["iterations"]
    assert all(it[4] is not None and it[5] is not None for it in iterations)  # closed, with min S
