"""Suite plumbing: every named suite runs and reports structured results."""

import dataclasses

import numpy as np
import pytest

from droptrain import cli, costmodel, geometry, optimizer, problems, sampling, verify


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        verify.run_suite("nope")


def test_run_suite_all_concatenates_the_suites_in_order(monkeypatch):
    stubs = {name: (lambda seed, name=name: [verify.CheckResult(f"{name}/{seed}", True)])
             for name in verify.SUITES}
    monkeypatch.setattr(verify, "SUITES", stubs)
    assert [r.name for r in verify.run_suite("all", 3)] == [f"{name}/3" for name in stubs]


def test_check_result_repr():
    assert "PASS" in repr(verify.CheckResult("x", True))
    assert "FAIL" in repr(verify.CheckResult("x", False))


def test_cost_suite_passes():
    results = verify.cost_suite(seed=1)
    failed = [r for r in results if not r.passed]
    assert not failed, failed


def test_sampling_suite_passes():
    results = verify.sampling_suite(0)
    failed = [r for r in results if not r.passed]
    assert results and not failed, failed


@pytest.mark.parametrize("seed", [0, 1])
def test_descent_suite_passes(seed):
    results = verify.descent_suite(seed=seed)
    assert "descent/mlp/prefix_reuse_matches_fresh" in {r.name for r in results}
    failed = [r for r in results if not r.passed]
    assert not failed, failed


def test_stochastic_suite_passes():
    results = verify.stochastic_suite(seed=1)
    assert results[-1].name == "stochastic/run_noise_matches_stoch_grad"
    failed = [r for r in results if not r.passed]
    assert not failed, failed


# every scheme family, with zero-probability cutoffs, starts and blocks where it has them
MARGINAL_SCHEMES = {
    "rpt": sampling.Rpt((0.4, 0.0, 0.35, 0.25)),
    "tau_nice": sampling.TauNice(6, 2),
    "tau_submodel": sampling.TauSubmodel(5, 2, (0.5, 0.0, 0.3, 0.2)),
    "partitioned": sampling.PartitionedSubmodel(
        (frozenset({1, 4}), frozenset({2}), frozenset({3, 5})), (0.5, 0.0, 0.5)
    ),
    "full": sampling.FullNetwork(4),
    "epoch_shift": sampling.EpochShiftRpt(5, 0.7).at(0.3),
}


def per_draw_marginals(scheme, draws, seed):
    """Reference: the per-draw loop that the counted ``empirical_marginals`` replaced."""
    b = scheme.b
    f = np.zeros(b)
    q = np.zeros(b)
    rng = sampling.stream(seed)
    for _ in range(draws):
        s = sampling.sample(scheme, rng)
        f[min(s) - 1 :] += 1
        for i in s:
            q[i - 1] += 1
    return f / draws, q / draws


@pytest.mark.parametrize("name", MARGINAL_SCHEMES)
def test_counted_empirical_marginals_equal_the_per_draw_loop(name):
    scheme = MARGINAL_SCHEMES[name]
    for draws, seed in ((1, 0), (5000, 3)):
        got = verify.empirical_marginals(scheme, draws, seed)
        want = per_draw_marginals(scheme, draws, seed)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("name", MARGINAL_SCHEMES)
def test_drawn_costs_equal_per_draw_pricing(name):
    scheme = MARGINAL_SCHEMES[name]
    cp = verify.random_cost_params(np.random.default_rng(4), scheme.b)
    rng = sampling.stream(11)
    want = np.array([costmodel.iteration_cost(sampling.sample(scheme, rng), cp)
                     for _ in range(5000)])
    got = verify._drawn_costs(scheme, cp, 5000, 11)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_stochastic_descent_lemma_check_keeps_its_worst_violation():
    # check (d) drives optimizer.run itself
    results = {r.name: r for r in verify.stochastic_suite(seed=0)}
    check = results["stochastic/descent_lemma_diagnostic"]
    assert check.passed
    assert check.detail["worst_violation"] == -0.002339504740431264


def test_stochastic_suite_reports_a_moved_frozen_layer_as_fail(monkeypatch, capsys):
    # check (c) folds the frozen-layer invariant into its result instead of asserting
    stoch_step = optimizer._stoch_step

    def moving_frozen_layers(model, samples, momentum, beta, plan, ns_config):
        report = stoch_step(model, samples, momentum, beta, plan, ns_config)
        for i in range(1, model.b + 1):
            if i not in plan.active:
                model.layers[i - 1] += 1.0
        return report

    monkeypatch.setattr(optimizer, "_stoch_step", moving_frozen_layers)
    results = {r.name: r for r in verify.stochastic_suite(seed=0)}
    check = results["stochastic/normalized_step_norm"]
    assert not check.passed and check.detail["frozen_moved"] > 0
    assert check.detail["worst"] <= 1e-9  # the applied steps still have norm t_i
    assert cli.main(["verify", "--suite", "stochastic"]) == 1
    assert "[FAIL] stochastic/normalized_step_norm" in capsys.readouterr().out


def scaled_lmo_steps(monkeypatch, factor):
    """Mutate run's LMO: every step it applies is scaled by ``factor``."""
    lmos = geometry.lmos

    def scaled(kind, ms, t, ns=None):
        res = lmos(kind, ms, t, ns=ns)
        return res._replace(step=factor * res.step)

    monkeypatch.setattr(geometry, "lmos", scaled)


def tripled_noise(monkeypatch):
    """Mutate run's samples: the noise on each noisy row is three times its scale."""
    samples = optimizer._samples

    def tripled(grads, plan, rng):
        noise = [(shape, 3.0 * scale, place) for shape, scale, place in plan.noise]
        return samples(grads, dataclasses.replace(plan, noise=noise), rng)

    monkeypatch.setattr(optimizer, "_samples", tripled)


def stale_mlp_prefix(monkeypatch):
    """Mutate the MLP oracle: each pass starts its forward one layer too high, reusing one
    activation layer more than is unchanged."""
    call = problems._MlpPasses.__call__

    def one_too_high(self, stacks, forward_from, backward_to):
        return call(self, stacks, min(forward_from + 1, self._mlp.b), backward_to)

    monkeypatch.setattr(problems._MlpPasses, "__call__", one_too_high)


@pytest.mark.parametrize("mutate, suite, name", [
    (lambda mp: scaled_lmo_steps(mp, 1.0 + 1e-6), "stochastic", "stochastic/normalized_step_norm"),
    (lambda mp: scaled_lmo_steps(mp, 1.0 + 1e-6), "descent",
     "descent/zero_noise_matches_det_direction"),
    (lambda mp: scaled_lmo_steps(mp, -1.0), "stochastic", "stochastic/descent_lemma_diagnostic"),
    (stale_mlp_prefix, "descent", "descent/mlp/prefix_reuse_matches_fresh"),
    (tripled_noise, "stochastic", "stochastic/run_noise_matches_stoch_grad"),
], ids=["scaled_step_norm", "scaled_step_direction", "reversed_step", "stale_prefix",
        "tripled_noise"])
def test_each_check_that_drives_run_fails_on_a_mutation_of_run(monkeypatch, capsys, mutate,
                                                               suite, name):
    mutate(monkeypatch)
    assert cli.main(["verify", "--suite", suite]) == 1
    assert f"[FAIL] {name}" in capsys.readouterr().out


def force_full_network_optimal(monkeypatch):
    monkeypatch.setattr(costmodel, "full_network_optimal_smooth", lambda table: True)
    return "full-network training is optimal on the instance"


def force_target_not_reached(monkeypatch):
    run = optimizer.run

    def one_iteration(prob, scheme, policy, _iterations, seed, **kwargs):
        return run(prob, scheme, policy, 1, seed, **kwargs)

    monkeypatch.setattr(optimizer, "run", one_iteration)
    return "target not reached within the iteration budget"


@pytest.mark.parametrize("force", [force_full_network_optimal, force_target_not_reached])
def test_cost_ratio_check_reports_a_broken_premise_as_fail(monkeypatch, capsys, force):
    error = force(monkeypatch)
    result = verify.cost_ratio_check(seed=0)
    assert result.name == "cost/constructed_instance_cost_ratio"
    assert not result.passed and result.detail == {"error": error}
    # the CLI runs the cost suite narrowed to this check, which is the one that raised
    monkeypatch.setitem(verify.SUITES, "cost", lambda seed: [verify.cost_ratio_check(seed)])
    assert cli.main(["verify", "--suite", "cost"]) == 1
    out = capsys.readouterr().out
    assert f"[FAIL] cost/constructed_instance_cost_ratio (error={error})" in out


def test_random_table_generator_monotone():
    import numpy as np

    rng = np.random.default_rng(0)
    for _ in range(20):
        table = verify.random_rpt_table(rng, int(rng.integers(2, 6)))
        assert table.monotonicity_violations() == []
    t_l1 = verify.random_l1_rpt_table(rng, 3, first_layer_max=True)
    assert t_l1.monotonicity_violations() == []
    full = [t_l1.require(i, 1, "l1") for i in range(1, 4)]
    assert full[0] == max(full)
