"""Norm/LMO/sharp identities checked against independent oracles.

Oracles: power iteration for the spectral norm, explicit SVD sums for the
nuclear norm, and random sampling of the sharp operator's defining argmax.
The stacked primitives are pinned to the per-matrix ones exactly.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from droptrain import geometry as g

EUC = g.NormKind.EUCLIDEAN
SPEC = g.NormKind.SPECTRAL
KINDS = [EUC, SPEC]


def power_iteration_norm(m, iters=2000):
    """Independent largest-singular-value oracle."""
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(m.shape[1])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = m.T @ (m @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
    return float(np.linalg.norm(m @ v))


def random_matrix(rng, max_dim=6):
    shape = (int(rng.integers(1, max_dim + 1)), int(rng.integers(1, max_dim + 1)))
    return rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_euclidean_norm_345():
    assert g.norm(EUC, [[3.0, 4.0]]) == pytest.approx(5.0)


def test_spectral_norm_diagonal():
    assert g.norm(SPEC, np.diag([2.0, 1.0])) == pytest.approx(2.0)


def test_spectral_norm_vs_power_iteration():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rng.standard_normal((2, 2))
        assert g.norm(SPEC, m) == pytest.approx(power_iteration_norm(m), rel=1e-8)


def test_dual_norm_euclidean_self_dual():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((3, 4))
    assert g.dual_norm(EUC, m) == pytest.approx(g.norm(EUC, m))


def test_dual_norm_nuclear_svd_sum():
    m = np.diag([2.0, 1.0])
    s = np.linalg.svd(m, compute_uv=False)
    assert g.dual_norm(SPEC, m) == pytest.approx(float(s.sum())) == pytest.approx(3.0)


def test_dual_norm_zero():
    assert g.dual_norm(SPEC, np.zeros((3, 2))) == 0.0


def test_norm_rejects_nonfinite():
    with pytest.raises(ValueError):
        g.norm(EUC, [[np.nan]])
    with pytest.raises(ValueError):
        g.norm(EUC, np.zeros((0, 2)))


# ---------------------------------------------------------------------------
# lmo
# ---------------------------------------------------------------------------

def test_lmo_spectral_positive_diagonal():
    res = g.lmo(SPEC, np.diag([2.0, 1.0]), 0.5)
    assert not res.degenerate
    np.testing.assert_allclose(res.step, -0.5 * np.eye(2), atol=1e-12)


def test_lmo_euclidean_normalized_direction():
    res = g.lmo(EUC, [[3.0, 4.0]], 1.0)
    np.testing.assert_allclose(res.step, [[-0.6, -0.8]], atol=1e-12)


def test_lmo_attains_negative_dual_norm():
    rng = np.random.default_rng(9)
    for _ in range(50):
        m = rng.standard_normal((3, 2))
        step = g.lmo(SPEC, m, 1.0).step
        assert float(np.sum(m * step)) == pytest.approx(-g.dual_norm(SPEC, m), abs=1e-10)


def test_lmo_zero_is_degenerate():
    res = g.lmo(SPEC, np.zeros((2, 2)), 1.0)
    assert res.degenerate
    np.testing.assert_array_equal(res.step, np.zeros((2, 2)))


def test_lmo_requires_positive_radius():
    with pytest.raises(ValueError):
        g.lmo(EUC, [[1.0]], 0.0)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, -1.0])
@pytest.mark.parametrize("kind", KINDS)
def test_lmo_rejects_a_radius_that_is_not_positive_and_finite(kind, t):
    with pytest.raises(ValueError, match=f"^lmo radius t must be positive and finite, got {t}$"):
        g.lmo(kind, [[1.0, 2.0]], t)
    with pytest.raises(g.MemberError, match="^lmo radius t must be positive") as info:
        g.lmos(kind, np.ones((3, 1, 2)), [0.5, t, t])
    assert info.value.member == 1


# ---------------------------------------------------------------------------
# sharp
# ---------------------------------------------------------------------------

def test_sharp_euclidean_is_identity():
    rng = np.random.default_rng(10)
    m = rng.standard_normal((4, 3))
    np.testing.assert_array_equal(g.sharp(EUC, m), m)


def test_sharp_spectral_diag_matches_sampled_argmax():
    # sharp maximizes <M, X> - ||X||^2 / 2; no sampled point may beat it
    m = np.diag([2.0, 1.0])
    out = g.sharp(SPEC, m)
    np.testing.assert_allclose(out, 3.0 * np.eye(2), atol=1e-12)
    best = float(np.sum(m * out)) - 0.5 * g.norm(SPEC, out) ** 2
    rng = np.random.default_rng(11)
    for _ in range(2000):
        x = 3.0 * rng.standard_normal((2, 2))
        val = float(np.sum(m * x)) - 0.5 * g.norm(SPEC, x) ** 2
        assert val <= best + 1e-9


def test_sharp_zero():
    np.testing.assert_array_equal(g.sharp(SPEC, np.zeros((2, 3))), np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# the Euclidean dual norm and LMO check finiteness by the norm they compute
# ---------------------------------------------------------------------------

def checked_euclidean_dual_norm(m):
    """The Euclidean dual norm computed after a full check_matrix scan."""
    return float(np.linalg.norm(g.check_matrix(m)))


def checked_euclidean_lmo(m, t):
    """The Euclidean LMO computed after a full check_matrix scan."""
    m = g.check_matrix(m)
    if not m.any():
        return np.zeros_like(m), True
    return -(t / np.linalg.norm(m)) * m, False


# zero, subnormal, tiny (the squared norm underflows to 0 while entries do
# not), unit, huge (the norm overflows to inf while entries stay finite)
SCALES = (0.0, 5e-324, 1e-300, 1e-170, 1.0, 1e150, 1e170, 1e300)


@st.composite
def finite_matrices(draw):
    shape = draw(hnp.array_shapes(min_dims=2, max_dims=2, max_side=6))
    if draw(st.booleans()):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        return draw(hnp.arrays(np.float64, shape, elements=finite))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return draw(st.sampled_from(SCALES)) * rng.standard_normal(shape)


@settings(max_examples=300, deadline=None)
@given(finite_matrices(), st.floats(1e-3, 1e3))
def test_euclidean_dual_norm_and_lmo_equal_the_checked_calls(m, t):
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        assert g.dual_norm(EUC, m) == checked_euclidean_dual_norm(m)
        res = g.lmo(EUC, m, t)
        step, degenerate = checked_euclidean_lmo(m, t)
    assert res.degenerate == degenerate
    np.testing.assert_array_equal(res.step, step)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_euclidean_dual_norm_and_lmo_reject_non_finite_entries(bad):
    m = np.ones((3, 2))
    m[2, 1] = bad
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        g.dual_norm(EUC, m)
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        g.lmo(EUC, m, 1.0)


@pytest.mark.parametrize("m", [np.zeros((0, 2)), np.ones(3), np.ones((1, 2, 2))])
def test_euclidean_dual_norm_and_lmo_reject_non_matrices(m):
    message = re.escape(f"expected a 2-D matrix with positive dims, got shape {m.shape}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        g.dual_norm(EUC, m)
    with pytest.raises(ValueError, match=f"^{message}$"):
        g.lmo(EUC, m, 1.0)


def test_euclidean_dual_norm_of_finite_entries_may_overflow():
    # finite entries pass the check; the norm itself overflows, and the
    # caller (optimizer.run) names the layer whose dual norm is inf
    m = np.full((2, 2), 1e200)
    with np.errstate(over="ignore"):
        assert g.dual_norm(EUC, m) == np.inf


# ---------------------------------------------------------------------------
# identity properties (norm of lmo, inner products, sharp consistency)
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(KINDS), st.floats(0.1, 5.0))
def test_lmo_identities(seed, kind, t):
    rng = np.random.default_rng(seed)
    m = random_matrix(rng)
    if not m.any():
        return
    step = g.lmo(kind, m, t).step
    assert abs(g.norm(kind, step) - t) <= 1e-9
    assert abs(float(np.sum(m * step)) + t * g.dual_norm(kind, m)) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(KINDS))
def test_sharp_identities(seed, kind):
    rng = np.random.default_rng(seed)
    m = random_matrix(rng)
    sh = g.sharp(kind, m)
    assert abs(float(np.sum(m * sh)) - g.norm(kind, sh) ** 2) <= 1e-9
    assert abs(g.dual_norm(kind, m) - g.norm(kind, sh)) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(KINDS))
def test_sharp_lmo_consistency(seed, kind):
    rng = np.random.default_rng(seed)
    m = random_matrix(rng)
    if not m.any():
        return
    expected = -g.dual_norm(kind, m) * g.lmo(kind, m, 1.0).step
    np.testing.assert_allclose(g.sharp(kind, m), expected, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(KINDS))
def test_generalized_cauchy_schwarz(seed, kind):
    rng = np.random.default_rng(seed)
    a = random_matrix(rng, 4)
    b = rng.standard_normal(a.shape)
    lhs = abs(float(np.sum(a * b)))
    assert lhs <= g.dual_norm(kind, a) * g.norm(kind, b) + 1e-9


# ---------------------------------------------------------------------------
# stacked primitives: exactly the per-matrix calls
# ---------------------------------------------------------------------------

def assert_stack_matches_per_matrix(kind, stack, radii):
    norms = g.dual_norms(kind, stack)
    steps, degenerate = g.lmos(kind, stack, radii)
    sharps = g.sharps(kind, stack)
    assert len(norms) == len(steps) == len(degenerate) == len(sharps) == len(stack)
    for j, m in enumerate(stack):
        ref = g.lmo(kind, m, float(radii[j]))
        assert norms[j] == g.dual_norm(kind, m)
        assert degenerate[j] == ref.degenerate
        np.testing.assert_array_equal(steps[j], ref.step)
        np.testing.assert_array_equal(sharps[j], g.sharp(kind, m))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 10_000), st.integers(1, 12), st.integers(1, 12), st.integers(1, 6),
    st.booleans(), st.booleans(),
)
def test_stacked_spectral_matches_per_matrix(seed, m_dim, n_dim, count, with_zero, deficient):
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((count, m_dim, n_dim)) * 10.0 ** rng.uniform(-3, 3, (count, 1, 1))
    if deficient:  # below full rank when min(m, n) > 1: the truncation drops a value
        r = max(1, min(m_dim, n_dim) - 1)
        j = int(rng.integers(count))
        stack[j] = rng.standard_normal((m_dim, r)) @ rng.standard_normal((r, n_dim))
    if with_zero:
        stack[int(rng.integers(count))] = 0.0
    assert_stack_matches_per_matrix(SPEC, stack, rng.uniform(0.1, 5.0, count))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
    st.lists(st.sampled_from(SCALES), min_size=1, max_size=6),
)
def test_stacked_euclidean_matches_per_matrix(seed, shape, scales):
    # SCALES holds a zero member, members whose squared norm underflows and
    # finite members whose Frobenius norm overflows to inf
    rng = np.random.default_rng(seed)
    stack = np.array(scales)[:, None, None] * rng.standard_normal((len(scales),) + shape)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        assert_stack_matches_per_matrix(EUC, stack, rng.uniform(1e-3, 1e3, len(scales)))


LAYER_SHAPES = [(6, 8, 8), (2, 64, 64), (3, 64, 16), (2, 8, 64)]


@pytest.mark.parametrize("shape", LAYER_SHAPES)
def test_stacked_spectral_matches_per_matrix_layer_shapes(shape):
    rng = np.random.default_rng(26)
    for _ in range(5):
        assert_stack_matches_per_matrix(SPEC, rng.standard_normal(shape), [0.3] * shape[0])


@pytest.mark.parametrize("shape", LAYER_SHAPES)
def test_stacked_euclidean_matches_per_matrix_layer_shapes(shape):
    rng = np.random.default_rng(27)
    for _ in range(5):
        assert_stack_matches_per_matrix(EUC, rng.standard_normal(shape), [0.3] * shape[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", KINDS)
def test_stacked_primitives_raise_the_per_matrix_message_for_the_lowest_bad_member(kind, bad):
    stack = np.ones((4, 3, 2))
    stack[0] = 1e200  # finite entries; the Euclidean norm overflows
    stack[3, 0, 0] = stack[2, 1, 1] = bad
    calls = (
        lambda: g.dual_norms(kind, stack),
        lambda: g.lmos(kind, stack, [1.0] * 4),
        lambda: g.sharps(kind, stack),
    )
    for call in calls:
        with np.errstate(over="ignore"), pytest.raises(
            g.MemberError, match="^matrix entries must be finite$"
        ) as info:
            call()
        assert info.value.member == 2
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        g.dual_norm(kind, stack[2])


def test_stacked_spectral_rejects_bad_input():
    stack = np.ones((2, 2, 2))
    with pytest.raises(ValueError, match="lmo radius t must be positive"):
        g.lmos(SPEC, stack, [0.5, 0.0])
    with pytest.raises(ValueError, match="one lmo radius per matrix"):
        g.lmos(SPEC, stack, [0.5])
    stack[1, 0, 0] = np.inf
    for call in (lambda: g.dual_norms(SPEC, stack), lambda: g.lmos(SPEC, stack, [1.0, 1.0])):
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            call()
    with pytest.raises(ValueError, match="stack of 2-D matrices"):
        g.dual_norms(SPEC, np.ones((2, 2)))


# ---------------------------------------------------------------------------
# newton-schulz
# ---------------------------------------------------------------------------

def test_newton_schulz_orthogonal_near_fixed_point():
    rng = np.random.default_rng(21)
    for n in (2, 3, 5):
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        out = g.newton_schulz(q, g.NewtonSchulzConfig(iterations=5))
        assert np.linalg.norm(out - q) <= 1e-2


def test_newton_schulz_diag_close_to_identity():
    out = g.newton_schulz(np.diag([2.0, 1.0]), g.NewtonSchulzConfig(iterations=5))
    s = np.linalg.svd(out, compute_uv=False)
    assert np.all(np.abs(s - 1.0) <= 0.3)
    # exact polar factor of a positive diagonal is the identity
    np.testing.assert_allclose(out, np.eye(2), atol=0.3)


def test_newton_schulz_zero_iterations_is_normalized_input():
    rng = np.random.default_rng(22)
    m = rng.standard_normal((3, 4))
    out = g.newton_schulz(m, g.NewtonSchulzConfig(iterations=0))
    np.testing.assert_allclose(out, m / np.linalg.norm(m), atol=1e-15)


def test_newton_schulz_zero_matrix_raises():
    with pytest.raises(ValueError, match="zero matrix"):
        g.newton_schulz(np.zeros((2, 2)))


def test_newton_schulz_band_contract_ratio_100():
    # singular-value ratio <= 100 lands every output singular value in [0.7, 1.3]
    rng = np.random.default_rng(23)
    for _ in range(50):
        m_dim, n_dim = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        r = min(m_dim, n_dim)
        log_s = rng.uniform(np.log(1.0 / 100.0), 0.0, size=r)
        log_s[int(rng.integers(0, r))] = 0.0  # pin the ratio anchor
        s = np.exp(log_s) * rng.uniform(0.5, 4.0)
        u = np.linalg.qr(rng.standard_normal((m_dim, m_dim)))[0][:, :r]
        v = np.linalg.qr(rng.standard_normal((n_dim, n_dim)))[0][:, :r]
        m = u @ np.diag(s) @ v.T
        out = g.newton_schulz(m, g.NewtonSchulzConfig(iterations=5))
        sigma = np.linalg.svd(out, compute_uv=False)
        assert sigma.min() >= 0.7 and sigma.max() <= 1.3


def test_newton_schulz_matches_exact_polar_factor():
    rng = np.random.default_rng(24)
    for _ in range(10):
        m = rng.standard_normal((4, 3))
        u, _, vt = np.linalg.svd(m, full_matrices=False)
        out = g.newton_schulz(m)
        assert np.linalg.norm(out - u @ vt) <= 0.05


def test_newton_schulz_cubic_coefficients_converge():
    # the classical convergent choice, exposed for callers who want a fixed point
    rng = np.random.default_rng(25)
    q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    cfg = g.NewtonSchulzConfig(
        iterations=5, coefficients=g.NEWTON_SCHULZ_CUBIC, polish_iterations=0
    )
    assert np.linalg.norm(g.newton_schulz(q, cfg) - q) <= 1e-5


# ---------------------------------------------------------------------------
# newton-schulz on a stack, and as the LMO backend of lmos
# ---------------------------------------------------------------------------

NS_CONFIGS = [
    g.NewtonSchulzConfig(),
    g.NewtonSchulzConfig(iterations=0),
    g.NewtonSchulzConfig(iterations=2, polish_iterations=1),
]


def assert_ns_lmos_match_per_matrix(stack, radii, cfg):
    steps, degenerate = g.lmos(SPEC, stack, radii, ns=cfg)
    assert len(steps) == len(degenerate) == len(stack)
    for j, m in enumerate(stack):
        if m.any():
            assert not degenerate[j]
            np.testing.assert_array_equal(steps[j], -radii[j] * g.newton_schulz(m, cfg))
        else:
            assert degenerate[j]
            assert not np.signbit(steps[j]).any() and not steps[j].any()  # +0


@pytest.mark.parametrize("cfg", NS_CONFIGS)
@pytest.mark.parametrize("shape", LAYER_SHAPES + [(3, 5, 3), (2, 1, 4)])
def test_newton_schulz_stack_matches_per_matrix(shape, cfg):
    rng = np.random.default_rng(28)
    stack = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, (shape[0], 1, 1))
    out = g.newton_schulz(stack, cfg)
    assert out.shape == stack.shape
    for j, m in enumerate(stack):
        np.testing.assert_array_equal(out[j], g.newton_schulz(m, cfg))
    assert_ns_lmos_match_per_matrix(stack, rng.uniform(0.1, 5.0, shape[0]), cfg)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 10_000), st.integers(1, 9), st.integers(1, 9),
    st.lists(st.booleans(), min_size=1, max_size=5), st.sampled_from(NS_CONFIGS),
)
def test_newton_schulz_lmos_match_per_matrix_with_zero_members(seed, m_dim, n_dim, zero, cfg):
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((len(zero), m_dim, n_dim))
    stack[zero] = 0.0
    assert_ns_lmos_match_per_matrix(stack, rng.uniform(0.1, 5.0, len(zero)), cfg)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_newton_schulz_lmos_raise_the_lowest_bad_member(bad):
    cfg = g.NewtonSchulzConfig()
    stack = np.ones((4, 3, 2))
    stack[0] = 0.0  # zero members are degenerate, not failures
    stack[3, 0, 0] = stack[2, 1, 1] = bad
    with pytest.raises(g.MemberError, match="^matrix entries must be finite$") as info:
        g.lmos(SPEC, stack, [1.0] * 4, ns=cfg)
    assert info.value.member == 2
    message = f"^lmo radius t must be positive and finite, got {bad}$"
    with pytest.raises(g.MemberError, match=message) as info:
        g.lmos(SPEC, np.ones((4, 3, 2)), [1.0, bad, 1.0, bad], ns=cfg)
    assert info.value.member == 1
    # entries, then radius, member by member, as the per-matrix lmo checks them
    with pytest.raises(g.MemberError, match="^lmo radius t must be positive") as info:
        g.lmos(SPEC, stack, [1.0, bad, 1.0, 1.0], ns=cfg)
    assert info.value.member == 1


def test_newton_schulz_stack_names_the_lowest_zero_or_non_finite_member():
    stack = np.ones((3, 2, 2))
    stack[1] = 0.0
    stack[2, 0, 0] = np.nan
    with pytest.raises(g.MemberError, match="^cannot orthogonalize zero matrix$") as info:
        g.newton_schulz(stack)
    assert info.value.member == 1
    with pytest.raises(g.MemberError, match="^matrix entries must be finite$") as info:
        g.newton_schulz(stack[::-1])
    assert info.value.member == 0


def test_euclidean_lmos_ignore_newton_schulz():
    rng = np.random.default_rng(29)
    stack = rng.standard_normal((3, 4, 2))
    stack[1] = 0.0
    plain = g.lmos(EUC, stack, [0.5, 1.0, 2.0])
    with_ns = g.lmos(EUC, stack, [0.5, 1.0, 2.0], ns=g.NewtonSchulzConfig())
    np.testing.assert_array_equal(with_ns.step, plain.step)
    np.testing.assert_array_equal(with_ns.degenerate, plain.degenerate)
