"""Test objectives: gradients vs finite differences, smoothness certificates,
noise statistics, truncated backprop, and frozen-prefix reuse."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from droptrain import problems as pb
from droptrain import sampling as sp
from droptrain.geometry import NormKind
from droptrain.optimizer import LayerModel

EUC, SPEC = NormKind.EUCLIDEAN, NormKind.SPECTRAL


def finite_difference_grads(problem, layers, h=1e-5):
    """Central-difference oracle for the per-layer gradients."""
    grads = []
    for li, x in enumerate(layers):
        g = np.zeros_like(x)
        for idx in np.ndindex(x.shape):
            xp = [a.copy() for a in layers]
            xm = [a.copy() for a in layers]
            xp[li][idx] += h
            xm[li][idx] -= h
            g[idx] = (problem.value_and_grad(xp)[0] - problem.value_and_grad(xm)[0]) / (2 * h)
        grads.append(g)
    return grads


def rel_err(a, b):
    denom = max(np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def make_separable(rng, weighted=False):
    shapes = [(2, 3), (3, 2)]
    targets = [rng.standard_normal(s) for s in shapes]
    if weighted:
        curvs = [np.exp(rng.uniform(-1, 1, size=s)) for s in shapes]
    else:
        curvs = [1.0, 2.0]
    return pb.SeparableQuadratic(targets, curvs)


def make_coupled(rng, coupling=0.3):
    shapes = [(2, 2), (2, 3), (3, 2)]
    targets = [rng.standard_normal(s) for s in shapes]
    return pb.CoupledQuadratic(targets, (2.0, 1.5, 2.5), coupling, rng=rng)


# ---------------------------------------------------------------------------
# value_and_grad
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [make_separable, make_coupled], ids=["separable", "coupled"])
def test_quadratic_minimum_at_targets(make):
    prob = make(np.random.default_rng(0))
    assert prob.f_star == 0.0
    val, grads = prob.value_and_grad(prob.targets)
    assert val == 0.0
    assert all(not g.any() for g in grads)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    for prob in (make_separable(rng, weighted=True), make_coupled(rng)):
        for _ in range(5):
            x = [rng.standard_normal(s) for s in prob.shapes]
            _, grads = prob.value_and_grad(x)
            fd = finite_difference_grads(prob, x)
            for g, gf in zip(grads, fd):
                assert rel_err(g, gf) <= 1e-6


def test_mlp_gradients_match_finite_differences():
    mlp = pb.TinyMlp.synthetic([3, 4, 3, 2], n_samples=16, seed=2)
    rng = np.random.default_rng(3)
    for _ in range(3):
        x = [w + 0.1 * rng.standard_normal(w.shape) for w in mlp.weights]
        _, grads = mlp.value_and_grad(x)
        fd = finite_difference_grads(mlp, x)
        for g, gf in zip(grads, fd):
            assert rel_err(g, gf) <= 1e-4


def test_coupled_zero_coupling_matches_separable():
    rng = np.random.default_rng(4)
    shapes = [(2, 2), (3, 2)]
    targets = [rng.standard_normal(s) for s in shapes]
    coup = pb.CoupledQuadratic(targets, (2.0, 1.5), 0.0, rng=rng)
    sep = pb.SeparableQuadratic(targets, (2.0, 1.5))
    x = [rng.standard_normal(s) for s in shapes]
    vc, gc = coup.value_and_grad(x)
    vs, gs = sep.value_and_grad(x)
    assert vc == pytest.approx(vs, abs=1e-12)
    for a, b in zip(gc, gs):
        np.testing.assert_allclose(a, b, atol=1e-12)


@pytest.mark.parametrize("path, prefix", [(None, "coupling "), ("problem", "problem.coupling: ")])
def test_coupled_rejects_indefinite(path, prefix):
    rng = np.random.default_rng(6)
    targets = [rng.standard_normal((2, 2)), rng.standard_normal((2, 2))]
    with pytest.raises(ValueError) as info:
        pb.CoupledQuadratic(targets, (0.1, 0.1), 5.0, rng=rng, path=path)
    message = r"makes the Hessian not PSD \(min eigenvalue -\d\.\d{3}e\+00\); reduce it"
    assert re.fullmatch(re.escape(prefix) + message, str(info.value)), str(info.value)


@st.composite
def coupled_specs(draw):
    """(shapes, curvatures, coupling, map seed); a curvature may sit on its layer's
    certificate boundary |coupling| * deg_i, just below it, or on it times (1 + margin)."""
    b = draw(st.integers(1, 5))
    dims = st.tuples(st.integers(1, 3), st.integers(1, 3))
    shapes = draw(st.lists(dims, min_size=b, max_size=b))
    coupling = draw(st.floats(-4.0, 4.0))
    curvatures = []
    for i in range(b):
        edge = abs(coupling) * ((i > 0) + (i < b - 1))
        if edge > 0 and draw(st.booleans()):
            margin = pb.CoupledQuadratic._psd_margin
            curvatures.append(edge * draw(st.sampled_from([1.0 - 1e-6, 1.0, 1.0 + margin])))
        else:
            curvatures.append(draw(st.floats(0.05, 3.0, exclude_min=True, exclude_max=True)))
    return shapes, curvatures, coupling, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(coupled_specs())
@example(([(2, 2)] * 3, [1.0, 1.0, 1.0], 0.6, 0))  # uncertified (1 < 2 * 0.6), yet PSD
@example(([(2, 2)] * 3, [0.5, 1.0, 0.5], -0.5, 1))  # every curvature on its boundary
@example(([(1, 1), (2, 1)], [0.99, 0.99], 1.0, 2))  # just below it: min eigenvalue -0.01
def test_coupled_refuses_iff_the_dense_hessian_is_indefinite(spec):
    shapes, curvatures, coupling, seed = spec
    targets = [np.zeros(s) for s in shapes]
    # the maps do not depend on the coupling: draw them uncoupled, assemble with it
    ref = pb.CoupledQuadratic(targets, curvatures, 0.0, rng=np.random.default_rng(seed))
    ref.coupling = coupling
    indefinite = np.linalg.eigvalsh(ref._assemble_hessian()).min() < -1e-10
    try:
        prob = pb.CoupledQuadratic(targets, curvatures, coupling, rng=np.random.default_rng(seed))
    except ValueError as exc:
        assert indefinite and "not PSD" in str(exc)
    else:
        assert not indefinite and prob.f_star == 0.0
        assert all(np.array_equal(m, r) for m, r in zip(prob.maps, ref.maps))


def test_coupled_uncertified_psd_hessian_is_accepted_by_the_dense_check(monkeypatch):
    # the middle layer's row sum 1 - 2 * 0.6 < 0 certifies nothing, yet the
    # smallest eigenvalue is at least 1 - 0.6 * sqrt(2) > 0
    calls = []
    assemble = pb.CoupledQuadratic._assemble_hessian
    monkeypatch.setattr(pb.CoupledQuadratic, "_assemble_hessian",
                        lambda self: calls.append(self) or assemble(self))
    prob = pb.CoupledQuadratic([np.zeros((2, 2))] * 3, (1.0, 1.0, 1.0), 0.6)
    assert calls == [prob] and prob.f_star == 0.0


def test_shape_mismatch_raises():
    prob = make_separable(np.random.default_rng(7))
    with pytest.raises(ValueError):
        prob.value_and_grad([np.zeros((1, 1)), np.zeros((3, 2))])


# the stacked value_and_grad equals the per-layer formulas bit for bit

def separable_reference(prob, layers):
    """The per-layer formula: each layer's term summed over its entries, added in order."""
    val, grads = 0.0, []
    for x, a, w in zip(layers, prob.targets, prob.weights):
        e = np.asarray(x, dtype=float) - a
        we = w * e
        val += 0.5 * float((we * e).sum())
        grads.append(we)
    return val, grads


def coupled_reference(prob, layers):
    """The per-layer formula, with its order of additions: a_i e_i + c R_{i-1}^T e_{i-1}
    first, then + c R_i e_{i+1}; f adds the map terms map by map."""
    errs = [(np.asarray(x, dtype=float) - a).ravel() for x, a in zip(layers, prob.targets)]
    val = 0.5 * sum(prob.curvatures[i] * float(e @ e) for i, e in enumerate(errs))
    gvecs = [prob.curvatures[i] * e for i, e in enumerate(errs)]
    for i, r in enumerate(prob.maps):
        r_next = r @ errs[i + 1]
        val += prob.coupling * float(errs[i] @ r_next)
        gvecs[i] = gvecs[i] + prob.coupling * r_next
        gvecs[i + 1] = gvecs[i + 1] + prob.coupling * (r.T @ errs[i])
    return float(val), [gv.reshape(prob.shapes[i]) for i, gv in enumerate(gvecs)]


def assert_value_and_grad_equal(prob, reference, layers):
    val, grads = prob.value_and_grad(layers)
    ref_val, ref_grads = reference(prob, layers)
    assert val == ref_val
    assert len(grads) == len(ref_grads)
    for g, ref in zip(grads, ref_grads):
        assert g.shape == ref.shape and np.array_equal(g, ref)


SHAPE_MIXES = {
    "one_group": [(8, 8)] * 6,
    "mixed": [(3, 2), (3, 2), (4, 3), (3, 2), (2, 6), (4, 3)],
    "unequal": [(2, 2), (2, 3), (3, 2), (1, 5)],
    "interleaved": [(2, 3), (3, 3), (2, 3), (2, 3), (3, 3)],
}


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("mix", sorted(SHAPE_MIXES))
def test_separable_stacked_value_and_grad_equals_per_layer_formula(mix, weighted):
    rng = np.random.default_rng(40)
    shapes = SHAPE_MIXES[mix]
    curvs = [np.exp(rng.uniform(-1, 1, s)) if weighted else float(rng.uniform(0.5, 3))
             for s in shapes]
    prob = pb.SeparableQuadratic([rng.standard_normal(s) for s in shapes], curvs)
    for scale in (1e-3, 1.0, 1e3):
        assert_value_and_grad_equal(
            prob, separable_reference, [scale * rng.standard_normal(s) for s in shapes]
        )


@pytest.mark.parametrize("mix", sorted(SHAPE_MIXES))
def test_coupled_stacked_value_and_grad_equals_per_layer_formula(mix):
    rng = np.random.default_rng(41)
    shapes = SHAPE_MIXES[mix]
    b = len(shapes)
    prob = pb.CoupledQuadratic(
        [rng.standard_normal(s) for s in shapes], rng.uniform(2.0, 3.0, b).tolist(), 0.5, rng=rng
    )
    for scale in (1e-3, 1.0, 1e3):
        assert_value_and_grad_equal(
            prob, coupled_reference, [scale * rng.standard_normal(s) for s in shapes]
        )
    # integer entries are taken as floats, as the per-layer formula takes them
    assert_value_and_grad_equal(prob, coupled_reference, [np.ones(s, dtype=int) for s in shapes])


@pytest.mark.parametrize("kind", ["separable", "coupled"])
def test_value_and_grad_repeated_calls_equal_a_fresh_instances(kind):
    # the per-layer oracle is built on the first call and kept: later calls
    # on one instance still equal a first call on a fresh one
    def build():
        rng = np.random.default_rng(42)
        if kind == "separable":
            return make_separable(rng, weighted=True)
        return make_coupled(rng)

    prob = build()
    rng = np.random.default_rng(43)
    for _ in range(3):
        layers = [rng.standard_normal(s) for s in prob.shapes]
        val, grads = prob.value_and_grad(layers)
        ref_val, ref_grads = build().value_and_grad(layers)
        assert val == ref_val
        assert len(grads) == len(ref_grads)
        for g, ref in zip(grads, ref_grads):
            assert np.array_equal(g, ref)
    with pytest.raises(ValueError, match="layer shapes"):
        prob.value_and_grad([np.zeros(s) for s in prob.shapes[:-1]])
    with pytest.raises(ValueError, match="layer shapes"):
        prob.value_and_grad([np.zeros(s[::-1]) for s in prob.shapes])


# the stacked oracle on a model's layer groups equals value_and_grad bit for bit

def assert_oracle_equals_value_and_grad(prob, layers, norms):
    """The oracle bound to the layout of (layers, norms) against the per-layer evaluation."""
    model = LayerModel([np.array(x, dtype=float) for x in layers], norms)
    f, grads, macs = prob.stacked_oracle(model.layout)(model.stacks, 1, 1)
    ref_f, ref_grads = prob.value_and_grad(model.layers)
    assert f == ref_f and macs is None
    assert len(grads) == len(model.layout.members)
    for shape, members, stack in zip(model.layout.shapes, model.layout.members, grads):
        assert stack.shape == (len(members),) + shape
        for i, row in zip(members, stack):
            assert np.array_equal(row, ref_grads[i - 1])


@st.composite
def grouped_layers(draw):
    """Two to six layers of at most two shapes, each Euclidean or spectral, so that one shape
    splits into a Euclidean and a spectral group whose members interleave (e.g. S, E, S, S)."""
    shapes = draw(st.lists(
        st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=2, unique=True
    ))
    b = draw(st.integers(2, 6))
    layer_shapes = [draw(st.sampled_from(shapes)) for _ in range(b)]
    norms = [draw(st.sampled_from([EUC, SPEC])) for _ in range(b)]
    return layer_shapes, norms, draw(st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("weighted", [False, True])
@settings(max_examples=60, deadline=None)
@given(grouped_layers())
@example(([(2, 2)] * 4, [SPEC, EUC, SPEC, SPEC], 0))  # one shape, groups {1, 3, 4} and {2}
def test_separable_oracle_equals_value_and_grad_on_any_grouping(weighted, case):
    shapes, norms, seed = case
    rng = np.random.default_rng(seed)
    curvs = [np.exp(rng.uniform(-1, 1, s)) if weighted else float(rng.uniform(0.5, 3))
             for s in shapes]
    prob = pb.SeparableQuadratic([rng.standard_normal(s) for s in shapes], curvs)
    for scale in (1e-3, 1.0, 1e3):
        assert_oracle_equals_value_and_grad(
            prob, [scale * rng.standard_normal(s) for s in shapes], norms
        )


@settings(max_examples=60, deadline=None)
@given(grouped_layers())
@example(([(2, 2)] * 4, [SPEC, EUC, SPEC, SPEC], 0))  # one shape, groups {1, 3, 4} and {2}
def test_coupled_oracle_equals_value_and_grad_on_any_grouping(case):
    shapes, norms, seed = case
    rng = np.random.default_rng(seed)
    b = len(shapes)
    prob = pb.CoupledQuadratic(
        [rng.standard_normal(s) for s in shapes], rng.uniform(2.0, 3.0, b).tolist(), 0.5, rng=rng
    )
    for scale in (1e-3, 1.0, 1e3):
        assert_oracle_equals_value_and_grad(
            prob, [scale * rng.standard_normal(s) for s in shapes], norms
        )


@pytest.mark.parametrize(
    "norms", [[SPEC] * 4, [SPEC, EUC, SPEC, SPEC], [EUC, SPEC, EUC, SPEC]], ids=["S", "SESS", "ESES"]
)
def test_coupled_oracle_equals_value_and_grad_on_unequal_shapes(norms):
    # the shapes of the unequal-size coupled run: maps 2x2-2x3, 2x3-3x2, 3x2-2x3
    shapes = [(2, 2), (2, 3), (3, 2), (2, 3)]
    rng = np.random.default_rng(43)
    prob = pb.CoupledQuadratic(
        [rng.standard_normal(s) for s in shapes], (2.0, 2.5, 2.0, 3.0), 0.5, rng=rng
    )
    assert_oracle_equals_value_and_grad(prob, [rng.standard_normal(s) for s in shapes], norms)


# problems.Layout: the one description of the layer groups

def test_layout_groups_layers_by_key_in_order_of_first_appearance():
    keys = [((2, 3), EUC), ((3, 3), SPEC), ((2, 3), EUC), ((2, 3), SPEC), ((3, 3), SPEC)]
    layout = pb.Layout(keys)
    assert layout.keys == [((2, 3), EUC), ((3, 3), SPEC), ((2, 3), SPEC)]
    assert layout.shapes == [(2, 3), (3, 3), (2, 3)]
    assert layout.members == [(1, 3), (2, 5), (4,)]
    assert layout.where == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]
    for g, members in enumerate(layout.members):
        assert [layout.where[i - 1] for i in members] == [(g, row) for row in range(len(members))]


def test_layout_stack_then_rows_gives_views_in_layer_order():
    shapes = [(2, 3), (3, 3), (2, 3), (2, 3), (3, 3)]
    layout = pb.Layout([(s,) for s in shapes])
    arrays = [np.full(s, i) for i, s in enumerate(shapes, start=1)]  # ints, stacked as floats
    stacks = layout.stack(arrays)
    assert [(x.shape, x.dtype) for x in stacks] == [((3, 2, 3), float), ((2, 3, 3), float)]
    rows = layout.rows(stacks)
    for row, a, (g, _) in zip(rows, arrays, layout.where):
        assert np.array_equal(row, a) and row.base is stacks[g]
    rows[3] += 10.0  # layer 4 is row 2 of group 0
    assert stacks[0][2, 0, 0] == 14.0 and arrays[3][0, 0] == 4


def test_layout_active_rows_slices_a_suffix_and_lists_other_sets():
    # interleaved shapes A B A B A B: groups {1, 3, 5} and {2, 4, 6}
    layout = pb.Layout([((2, 2),), ((3, 2),)] * 3)
    assert layout.members == [(1, 3, 5), (2, 4, 6)]
    for s in range(1, 7):
        suffix = frozenset(range(s, 7))
        for g, members in enumerate(layout.members):
            rows, layers = layout.active_rows(g, suffix)
            assert layers == [i for i in members if i >= s]
            if layers:
                assert isinstance(rows, slice) and list(members[rows]) == layers
    assert layout.active_rows(0, frozenset({1, 5})) == ([0, 2], [1, 5])
    assert layout.active_rows(1, frozenset({1, 5})) == ([], [])
    assert layout.active_rows(1, frozenset({2, 4, 5})) == (slice(0, 2), [2, 4])


def test_oracle_refuses_a_layout_that_does_not_match_the_layer_shapes():
    # a layout of other shapes, of the problem's shapes in another order, or of
    # another layer count is refused by check and by every stacked oracle
    rng = np.random.default_rng(44)
    sep, coup = make_separable(rng), make_coupled(rng)
    mlp = pb.TinyMlp.synthetic([3, 4, 2], n_samples=5, seed=1)
    for prob in (sep, coup, mlp):
        wrong = pb.Layout([((1, 1), EUC)] * prob.b)
        reordered = pb.Layout([(s, EUC) for s in prob.shapes[::-1]])
        short = pb.Layout([(prob.shapes[0], EUC)])
        longer = pb.Layout([(s, EUC) for s in prob.shapes + prob.shapes[:1]])
        for layout in (wrong, reordered, short, longer):
            with pytest.raises(ValueError, match="layer shapes do not match the problem"):
                layout.check(prob.shapes)
            with pytest.raises(ValueError, match="layer shapes do not match the problem"):
                prob.stacked_oracle(layout)
        prob.stacked_oracle(pb.Layout([(s, SPEC) for s in prob.shapes]))


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_mlp_oracle_equals_a_fresh_pass_for_every_frozen_prefix(activation):
    # layers 2 and 3 share a shape and a group; after each pass the oracle
    # keeps its activations, and a pass that moves only layers >= forward_from
    # equals a fresh value_and_grad in f and in every row >= backward_to, for
    # every pair of ends; the rows below backward_to read NaN
    sizes = [4, 6, 6, 6, 3]
    mlp = pb.TinyMlp.synthetic(sizes, n_samples=12, activation=activation, seed=5)
    model = LayerModel([w.copy() for w in mlp.weights], [EUC, SPEC, SPEC, EUC])
    oracle = mlp.stacked_oracle(model.layout)
    rng = np.random.default_rng(45)
    n = mlp.inputs.shape[1]
    for forward_from in [1, 4, 2, 3, 1, 3]:
        for backward_to in range(1, mlp.b + 2):
            for x in model.layers[forward_from - 1 :]:
                x += 0.05 * rng.standard_normal(x.shape)
            f, grads, macs = oracle(model.stacks, forward_from, backward_to)
            ref_f, ref_grads = mlp.value_and_grad(model.layers)
            assert f == ref_f
            for members, stack in zip(model.layout.members, grads):
                for i, row in zip(members, stack):
                    if i >= backward_to:
                        assert np.array_equal(row, ref_grads[i - 1])
                    else:
                        assert np.isnan(row).all()
            recomputed = range(forward_from, mlp.b + 1)
            assert macs == sum(sizes[l] * sizes[l - 1] * n for l in recomputed) + 3 * n


# ---------------------------------------------------------------------------
# stochastic gradients
# ---------------------------------------------------------------------------

def test_stoch_grad_zero_sigma_exact():
    prob = make_separable(np.random.default_rng(8))
    x = [np.ones(s) for s in prob.shapes]
    _, exact = prob.value_and_grad(x)
    noisy = pb.stoch_grad(exact, pb.NoiseSpec((0.0, 0.0)), sp.stream(0))
    for a, b in zip(noisy, exact):
        np.testing.assert_array_equal(a, b)


def test_stoch_grad_unbiased_and_variance():
    prob = make_separable(np.random.default_rng(9))
    x = [np.ones(s) for s in prob.shapes]
    _, exact = prob.value_and_grad(x)
    spec = pb.NoiseSpec((0.4, 1.2))
    rng = sp.stream(10)
    n = 10_000
    sums = [np.zeros_like(g) for g in exact]
    sq = [0.0, 0.0]
    for _ in range(n):
        gs = pb.stoch_grad(exact, spec, rng)
        for i in range(2):
            noise = gs[i] - exact[i]
            sums[i] += noise
            sq[i] += float(np.sum(noise**2))
    for i in range(2):
        entry_std = spec.sigmas[i] / math.sqrt(exact[i].size)
        assert np.all(np.abs(sums[i] / n) <= 3 * entry_std / math.sqrt(n))
        assert abs(sq[i] / n - spec.sigmas[i] ** 2) <= 0.05 * spec.sigmas[i] ** 2


@pytest.mark.parametrize(
    "sigmas", [(0.4, 0.0, 1.2, 0.3, 0.0), (0.0,) * 5, (0.1,) * 5, (0.0, 0.0, 0.0, 0.0, 2.0)]
)
def test_stoch_grad_one_draw_equals_per_layer_draws(sigmas):
    # mixed shapes and zero sigmas; the generator is left where per-layer draws leave it
    rng = np.random.default_rng(42)
    grads = [rng.standard_normal(s) for s in [(2, 3), (3, 2), (8, 8), (2, 3), (1, 4)]]
    got_rng, ref_rng = sp.stream(3, 7), sp.stream(3, 7)
    got = pb.stoch_grad(grads, pb.NoiseSpec(sigmas), got_rng)
    ref = [
        g if sigma == 0.0
        else g + sigma / np.sqrt(g.size) * ref_rng.standard_normal(g.shape)
        for g, sigma in zip(grads, sigmas)
    ]
    for g, want, sigma, grad in zip(got, ref, sigmas, grads):
        assert np.array_equal(g, want)
        assert (g is grad) == (sigma == 0.0)
    assert got_rng.random() == ref_rng.random()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1])
def test_noise_spec_rejects_a_sigma_that_is_not_finite_and_non_negative(bad):
    with pytest.raises(ValueError, match=rf"^sigmas\[1\] must be finite and >= 0, got {bad}$"):
        pb.NoiseSpec((0.1, bad, 0.2))


# ---------------------------------------------------------------------------
# smoothness constants
# ---------------------------------------------------------------------------

def test_separable_constants_independent_of_cutoff():
    prob = pb.SeparableQuadratic([np.zeros((2, 2)), np.zeros((2, 2))], (1.0, 2.0))
    table = pb.smoothness_constants(prob, sp.FullNetwork(2), [NormKind.EUCLIDEAN] * 2)
    assert table.require(2, 1) == table.require(2, 2) == 2.0
    assert table.require(1, 1) == 1.0
    assert not table.approximate


def test_separable_spectral_factor_min_dim():
    prob = pb.SeparableQuadratic([np.zeros((3, 2))], (1.5,))
    table = pb.smoothness_constants(prob, sp.FullNetwork(1), [NormKind.SPECTRAL])
    assert table.require(1, 1) == pytest.approx(2 * 1.5)  # min(3, 2) * a


def test_spectral_factor_is_attained():
    # the Frobenius-to-spectral ratio min(m, n) is achieved at equal singular values
    a = 1.5
    gamma = np.vstack([np.eye(2), np.zeros((1, 2))])  # 3x2, singular values (1, 1)
    fro_sq = np.sum(gamma**2)
    spec_sq = np.linalg.norm(gamma, 2) ** 2
    assert fro_sq / spec_sq == pytest.approx(2.0)
    # quadratic bound with L = a * min(m, n) is tight on this direction
    assert a * fro_sq == pytest.approx((a * 2.0) * spec_sq)


def test_coupled_constants_monotone_in_cutoff():
    rng = np.random.default_rng(11)
    prob = make_coupled(rng)
    table = pb.smoothness_constants(prob, sp.FullNetwork(3), [NormKind.EUCLIDEAN] * 3)
    for i in range(1, 4):
        for s in range(2, i + 1):
            assert table.require(i, s) <= table.require(i, s - 1) + 1e-12
    # coupling makes the constants genuinely set-dependent
    assert table.require(2, 2) < table.require(2, 1)


def test_quadratic_smoothness_certificate():
    # f(X + G) - f(X) - <grad, G> <= sum_{i in S} L_{i,S}/2 ||G_i||^2
    rng = np.random.default_rng(12)
    for prob in (make_separable(rng, weighted=True), make_coupled(rng)):
        scheme = sp.FullNetwork(prob.b)
        table = pb.smoothness_constants(prob, scheme, [NormKind.EUCLIDEAN] * prob.b)
        for _ in range(100):
            s_cut = int(rng.integers(1, prob.b + 1))
            active = frozenset(range(s_cut, prob.b + 1))
            x = [rng.standard_normal(s) for s in prob.shapes]
            gamma = [
                rng.standard_normal(s) if (i + 1) in active else np.zeros(s)
                for i, s in enumerate(prob.shapes)
            ]
            f0, g0 = prob.value_and_grad(x)
            f1, _ = prob.value_and_grad([a + d for a, d in zip(x, gamma)])
            lhs = f1 - f0 - sum(float(np.sum(g * d)) for g, d in zip(g0, gamma))
            rhs = sum(
                table.require(i, s_cut) / 2 * float(np.sum(gamma[i - 1] ** 2))
                for i in active
            )
            assert lhs <= rhs + 1e-9


def test_mlp_constants_flagged_approximate():
    mlp = pb.TinyMlp.synthetic([3, 4, 2], n_samples=8, seed=13)
    table = pb.smoothness_constants(
        mlp, sp.FullNetwork(2), [NormKind.EUCLIDEAN] * 2, secant_samples=50
    )
    assert table.approximate
    assert all(v > 0 for v in table.l0.values())


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_mlp_secant_estimates_take_one_backward_per_sample(activation, monkeypatch):
    # each secant on layer s needs the loss and layer s's gradient at x, from a backward
    # that stops at s, and the loss at x + gamma, from a forward that restarts at s on
    # x's activations: the estimates equal those of full passes bit for bit
    mlp = pb.TinyMlp.synthetic([3, 5, 4, 2], n_samples=12, activation=activation, seed=24)
    one_pass = pb.TinyMlp._pass
    calls = []

    def counted(self, layers, prefix, first_layer):
        calls.append((first_layer, len(prefix)))
        return one_pass(self, layers, prefix, first_layer)

    def full_passes(self, layers, prefix, first_layer):
        loss, grads, acts, macs = one_pass(self, layers, [self.inputs], 1)
        return loss, grads[first_layer - 1 :], acts, macs

    monkeypatch.setattr(pb.TinyMlp, "_pass", counted)
    got = pb._mlp_secant_estimates(mlp, 30)
    cutoffs = [first for first, _ in calls[::2]]
    assert calls == [c for s in cutoffs for c in ((s, 1), (mlp.b + 1, s))]
    assert set(cutoffs) == {1, 2, 3}
    # a backward from the loss down to layer s covers b - s + 1 layers, not b
    assert sum(mlp.b - s + 1 for s in cutoffs) < 30 * mlp.b
    monkeypatch.setattr(pb.TinyMlp, "_pass", full_passes)
    assert np.array_equal(got, pb._mlp_secant_estimates(mlp, 30))


# ---------------------------------------------------------------------------
# truncated backward pass and frozen-prefix reuse
# ---------------------------------------------------------------------------

def test_truncated_backward_bit_identical_slices():
    mlp = pb.TinyMlp.synthetic([4, 5, 4, 3], n_samples=32, seed=14)
    rng = np.random.default_rng(15)
    x = [w + 0.2 * rng.standard_normal(w.shape) for w in mlp.weights]
    _, full = mlp.value_and_grad(x)
    for s in range(1, mlp.b + 1):
        loss, partial, _, _ = mlp._pass(x, [mlp.inputs], s)
        assert len(partial) == mlp.b - s + 1
        for offset, g in enumerate(partial):
            np.testing.assert_array_equal(g, full[s - 1 + offset])


def reference_mlp_value_and_grad(mlp, layers):
    """Backpropagation that keeps every z_l and re-evaluates phi'(z_l) from it."""
    acts, zs = [mlp.inputs], []
    for l, w in enumerate(layers):
        zs.append(w @ acts[-1])
        if l < mlp.b - 1:
            acts.append(np.tanh(zs[-1]) if mlp.activation == "tanh" else np.maximum(zs[-1], 0.0))
    n = mlp.inputs.shape[1]
    loss = 0.5 * float(np.sum((zs[-1] - mlp.targets_out) ** 2)) / n
    delta = (zs[-1] - mlp.targets_out) / n
    grads = [None] * mlp.b
    for l in range(mlp.b, 0, -1):
        grads[l - 1] = delta @ acts[l - 1].T
        if l > 1:
            z = zs[l - 2]
            if mlp.activation == "tanh":
                t = np.tanh(z)
                dphi = 1.0 - t * t
            else:
                dphi = (z > 0.0).astype(float)
            delta = (layers[l - 1].T @ delta) * dphi
    return loss, grads


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_backward_from_stored_activations_matches_phi_prime_of_z(activation):
    mlp = pb.TinyMlp.synthetic([4, 6, 5, 5, 3], n_samples=20, activation=activation, seed=21)
    rng = np.random.default_rng(22)
    for _ in range(5):
        x = [w + 0.3 * rng.standard_normal(w.shape) for w in mlp.weights]
        loss_ref, grads_ref = reference_mlp_value_and_grad(mlp, x)
        loss, grads = mlp.value_and_grad(x)
        assert loss == loss_ref
        for g, g_ref in zip(grads, grads_ref):
            np.testing.assert_array_equal(g, g_ref)
        for s in range(1, mlp.b + 1):
            _, partial, _, _ = mlp._pass(x, [mlp.inputs], s)
            for g, g_ref in zip(partial, grads_ref[s - 1 :]):
                np.testing.assert_array_equal(g, g_ref)


@pytest.mark.parametrize("frozen", [0, 1, 2])
def test_prefix_pass_reuses_activations_and_counts_recomputed_macs(frozen):
    mlp = pb.TinyMlp.synthetic([4, 6, 5, 3], n_samples=16, seed=23)
    layout = pb.Layout([(w.shape,) for w in mlp.weights])
    oracle = mlp.stacked_oracle(layout)
    x = [w.copy() for w in mlp.weights]
    f0, stacks0, macs0 = oracle(layout.stack(x), 1, 1)
    grads0 = layout.rows(stacks0)
    f0_ref, grads0_ref = mlp.value_and_grad(x)
    assert f0 == f0_ref
    for g, g_ref in zip(grads0, grads0_ref):
        np.testing.assert_array_equal(g, g_ref)
    layer_macs = [6 * 4 * 16, 5 * 6 * 16, 3 * 5 * 16]
    assert macs0 == sum(layer_macs) + 3 * 16
    for l in range(frozen, mlp.b):  # layers 1..frozen stay as they were
        x[l] += 0.05
    f, stacks, macs = oracle(layout.stack(x), frozen + 1, 1)
    grads = layout.rows(stacks)
    f_ref, grads_ref = mlp.value_and_grad(x)
    assert f == f_ref and f != f0
    assert len(grads) == mlp.b
    for g, g_ref in zip(grads, grads_ref):
        np.testing.assert_array_equal(g, g_ref)
    assert macs == sum(layer_macs[frozen:]) + 3 * 16
    assert frozen == 0 or macs < macs0
    with pytest.raises(ValueError, match="forward_from must be in"):
        oracle(layout.stack(x), 4, 1)
    # a new oracle's first pass is fresh whatever its forward start
    assert mlp.stacked_oracle(layout)(layout.stack(x), frozen + 1, 1)[::2] == (f, macs0)


def test_mlp_oracle_first_pass_is_fresh_and_refused_ends_keep_its_activations():
    mlp = pb.TinyMlp.synthetic([4, 6, 5, 3], n_samples=16, seed=23)
    layout = pb.Layout([(w.shape,) for w in mlp.weights])
    stacks = layout.stack(mlp.weights)
    oracle = mlp.stacked_oracle(layout)
    f_full, _, macs_full = oracle(stacks, 2, 1)  # no earlier activations: a fresh pass
    assert f_full == mlp.value_and_grad(mlp.weights)[0]
    assert macs_full == 6 * 4 * 16 + 5 * 6 * 16 + 3 * 5 * 16 + 3 * 16
    for forward_from, backward_to in ((0, 1), (4, 1), (1, 0), (1, 5)):
        message = (rf"^forward_from must be in \[1, 3\] and backward_to in \[1, 4\], "
                   rf"got {forward_from} and {backward_to}$")
        with pytest.raises(ValueError, match=message):
            oracle(stacks, forward_from, backward_to)
    f, _, macs = oracle(stacks, 3, 1)  # the refused calls left the first pass's activations
    assert f == f_full and macs == 3 * 5 * 16 + 3 * 16


def test_relu_activation_gradients_close():
    mlp = pb.TinyMlp.synthetic([3, 5, 2], n_samples=16, activation="relu", seed=19)
    rng = np.random.default_rng(20)
    x = [w + 0.1 * rng.standard_normal(w.shape) for w in mlp.weights]
    _, grads = mlp.value_and_grad(x)
    fd = finite_difference_grads(mlp, x)
    for g, gf in zip(grads, fd):
        assert rel_err(g, gf) <= 1e-3  # looser near relu kinks
