"""Suite plumbing: every named suite runs and reports structured results."""

import pytest

from droptrain import verify


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        verify.run_suite("nope")


def test_check_result_repr():
    assert "PASS" in repr(verify.CheckResult("x", True))
    assert "FAIL" in repr(verify.CheckResult("x", False))


def test_quick_cost_suite_passes():
    results = verify.cost_suite(seed=1, quick=True)
    failed = [r for r in results if not r.passed]
    assert not failed, failed


@pytest.mark.parametrize("seed", [0, 1])
def test_descent_suite_passes(seed):
    results = verify.descent_suite(seed=seed)
    assert "descent/mlp/prefix_reuse_matches_fresh" in {r.name for r in results}
    failed = [r for r in results if not r.passed]
    assert not failed, failed


def test_quick_stochastic_suite_passes():
    results = verify.stochastic_suite(seed=1, quick=True)
    failed = [r for r in results if not r.passed]
    assert not failed, failed


def test_stochastic_descent_lemma_check_keeps_its_worst_violation():
    # check (d) drives stoch_step itself; quick shortens only checks (a, b, e)
    results = {r.name: r for r in verify.stochastic_suite(seed=0, quick=True)}
    check = results["stochastic/descent_lemma_diagnostic"]
    assert check.passed
    assert check.detail["worst_violation"] == -0.002339504740431264


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
