"""Sampling distributions: closed-form marginals vs enumeration and Monte Carlo."""

import dataclasses
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droptrain import costmodel as cm
from droptrain import sampling as sp


def enumerated_marginals(scheme):
    """Oracle: marginals computed from the exact subset distribution."""
    b = scheme.b
    dist = sp.distribution(scheme)
    f = np.zeros(b)
    q = np.zeros(b)
    for subset, prob in dist.items():
        for i in range(1, b + 1):
            if min(subset) <= i:
                f[i - 1] += prob
            if i in subset:
                q[i - 1] += prob
    return f, q


def empirical_marginals(scheme, n_draws, seed):
    b = scheme.b
    f = np.zeros(b)
    q = np.zeros(b)
    rng = sp.stream(seed)
    for _ in range(n_draws):
        s = sp.sample(scheme, rng)
        mn = min(s)
        for i in range(mn, b + 1):
            f[i - 1] += 1
        for i in s:
            q[i - 1] += 1
    return f / n_draws, q / n_draws


ALL_SCHEMES = [
    sp.Rpt((0.5, 0.3, 0.2)),
    sp.Rpt((0.25, 0.0, 0.5, 0.25)),
    sp.TauNice(4, 2),
    sp.TauNice(5, 5),
    sp.TauSubmodel(5, 2, (0.4, 0.3, 0.2, 0.1)),
    sp.PartitionedSubmodel(
        (frozenset({1, 4}), frozenset({2, 5}), frozenset({3})), (0.5, 0.3, 0.2)
    ),
    sp.FullNetwork(3),
]


# ---------------------------------------------------------------------------
# construction / validation
# ---------------------------------------------------------------------------

def test_probability_vector_must_sum_to_one():
    with pytest.raises(ValueError):
        sp.Rpt((0.5, 0.4))
    with pytest.raises(ValueError):
        sp.Rpt((0.5, -0.5, 1.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_probability_vectors_refuse_a_non_finite_entry(bad):
    # a NaN entry fails no comparison, so the sum check alone lets it through
    message = rf"^p\[1\] must be finite, got {bad}$"
    with pytest.raises(ValueError, match=message):
        sp.Rpt((0.5, bad, 0.5))
    with pytest.raises(ValueError, match=message):
        sp.TauSubmodel(3, 2, (0.5, bad))
    with pytest.raises(ValueError, match=message):
        sp.PartitionedSubmodel(({1}, {2, 3}), (0.5, bad))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_epoch_shift_refuses_a_non_finite_alpha(bad):
    message = f"^alpha must be finite, got {bad}$"
    with pytest.raises(ValueError, match=message):
        sp.EpochShiftRpt(3, bad)


def test_tau_bounds():
    with pytest.raises(ValueError):
        sp.TauNice(3, 0)
    with pytest.raises(ValueError):
        sp.TauNice(3, 4)


def test_partition_must_cover():
    with pytest.raises(ValueError):
        sp.PartitionedSubmodel((frozenset({1}), frozenset({3})), (0.5, 0.5))
    with pytest.raises(ValueError):
        sp.PartitionedSubmodel((frozenset({1, 2}), frozenset({2})), (0.5, 0.5))


def test_rpt_zero_p1_flagged_not_rejected():
    # a valid scheme for the cost tools; the rate weights flag the layer it never updates
    scheme = sp.Rpt((0.0, 1.0))
    np.testing.assert_array_equal(sp.marginals(scheme)[0], [0.0, 1.0])
    table = cm.SmoothnessTable.from_rpt_rows([[1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="layer 1 never updated"):
        cm.theory_weights(scheme.p, table, "smooth")


# ---------------------------------------------------------------------------
# sample()
# ---------------------------------------------------------------------------

def test_full_network_always_everything():
    rng = sp.stream(0)
    for _ in range(10):
        assert sp.sample(sp.FullNetwork(3), rng) == frozenset({1, 2, 3})


def test_rpt_degenerate_last_cutoff():
    rng = sp.stream(1)
    scheme = sp.Rpt((0.0, 0.0, 1.0))
    for _ in range(10):
        assert sp.sample(scheme, rng) == frozenset({3})


def test_tau_nice_uniform_over_subsets():
    # frequency of each of the C(4,2)=6 subsets within 3 sigma of 1/6
    scheme = sp.TauNice(4, 2)
    n = 100_000
    rng = sp.stream(2)
    counts: dict[frozenset, int] = {}
    for _ in range(n):
        s = sp.sample(scheme, rng)
        counts[s] = counts.get(s, 0) + 1
    assert len(counts) == 6
    p = 1.0 / 6.0
    tol = 3.0 * math.sqrt(p * (1 - p) / n)
    for subset, c in counts.items():
        assert abs(c / n - p) <= tol, (subset, c / n)


def test_tau_submodel_is_contiguous_window():
    scheme = sp.TauSubmodel(5, 3, (0.5, 0.25, 0.25))
    rng = sp.stream(3)
    for _ in range(50):
        s = sorted(sp.sample(scheme, rng))
        assert len(s) == 3
        assert s == list(range(s[0], s[0] + 3))


def test_sample_determinism_same_stream_path():
    scheme = sp.Rpt((0.5, 0.3, 0.2))
    a = [sp.sample(scheme, sp.stream(42, 1, k)) for k in range(20)]
    b = [sp.sample(scheme, sp.stream(42, 1, k)) for k in range(20)]
    assert a == b
    c = [sp.sample(scheme, sp.stream(43, 1, k)) for k in range(20)]
    assert a != c


def choice_reference(scheme, rng):
    """The active set ``Generator.choice`` draws for a scheme with a probability vector."""
    k = int(rng.choice(len(scheme.p), p=np.asarray(scheme.p)))
    if isinstance(scheme, sp.Rpt):
        return frozenset(range(k + 1, scheme.b + 1))
    if isinstance(scheme, sp.TauSubmodel):
        return frozenset(range(k + 1, k + 1 + scheme.tau))
    return scheme.blocks[k]


CHOICE_SCHEMES = {
    "rpt-zero-first": sp.Rpt((0.0, 0.3, 0.2, 0.5)),
    "rpt-zero-last": sp.Rpt((0.4, 0.35, 0.25, 0.0)),
    "rpt-zeros-both-ends": sp.Rpt((0.0, 0.0, 1.0, 0.0)),
    "tau-submodel-zeros-both-ends": sp.TauSubmodel(6, 3, (0.0, 0.3, 0.7, 0.0)),
    "partitioned-zero-first": sp.PartitionedSubmodel(
        (frozenset({2}), frozenset({1, 4}), frozenset({3, 5})), (0.0, 0.6, 0.4)
    ),
    "partitioned-zero-last": sp.PartitionedSubmodel(
        (frozenset({1, 2}), frozenset({3}), frozenset({4})), (0.9, 0.1, 0.0)
    ),
    **{
        f"epoch-shift-at-{progress}": sp.EpochShiftRpt(5, 0.8).at(progress)
        for progress in (0.0, 0.3, 1.0)
    },
}


@pytest.mark.parametrize("scheme", CHOICE_SCHEMES.values(), ids=CHOICE_SCHEMES.keys())
def test_sample_draws_what_generator_choice_draws(scheme):
    # the cached CDF reproduces Generator.choice draw for draw, and like it
    # takes one double from the stream, so the noise drawn next is unchanged
    for k in range(10_000):
        rng, ref = sp.stream(7, k), sp.stream(7, k)
        assert sp.sample(scheme, rng) == choice_reference(scheme, ref), k
        assert rng.random() == ref.random(), k


# ---------------------------------------------------------------------------
# stream: bit for bit the SeedSequence generator it replaces
# ---------------------------------------------------------------------------

STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**140 + 17]
STREAM_PATHS = [
    (), (0,), (255,), (256,), (2**32 - 1,), (2**32,), (2**64 - 1,), (2**70,),
    (1, 7), (3, 2**33), (0, 0, 0),
]


def reference_stream(seed, *path):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))


def assert_same_stream(rng, ref):
    assert type(rng.bit_generator) is type(ref.bit_generator)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert np.array_equal(rng.random(5), ref.random(5))
    assert np.array_equal(rng.standard_normal(5), ref.standard_normal(5))
    assert np.array_equal(rng.integers(0, 2**40, 5), ref.integers(0, 2**40, 5))
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("path", STREAM_PATHS, ids=str)
@pytest.mark.parametrize("seed", STREAM_SEEDS, ids=str)
def test_stream_equals_seed_sequence_generator(seed, path):
    assert_same_stream(sp.stream(seed, *path), reference_stream(seed, *path))


def test_stream_equals_seed_sequence_generator_across_blocks():
    # consecutive keys as optimizer.run asks for them, across block bounds,
    # and keys whose entropy outgrows the precomputed hash constants
    for k in range(1000):
        assert_same_stream(sp.stream(9, k + 1), reference_stream(9, k + 1))
    for seed, path in [(2**600 + 3, (1,)), (5, (2**700, 2**513 + 9)), (2**600, ())]:
        assert_same_stream(sp.stream(seed, *path), reference_stream(seed, *path))
    assert_same_stream(sp.stream(np.int64(4), np.uint8(2)), reference_stream(4, 2))


def test_streams_for_one_key_share_no_state():
    # drawing from one generator does not move the other
    a, b = sp.stream(3, 17), sp.stream(3, 17)
    ref_a, ref_b = reference_stream(3, 17), reference_stream(3, 17)
    a.random(1000), ref_a.random(1000)
    assert_same_stream(b, ref_b)
    assert_same_stream(a, ref_a)


def test_stream_survives_pickling():
    rng = sp.stream(11, 300)
    rng.random(7)
    copy = pickle.loads(pickle.dumps(rng))
    assert_same_stream(copy, rng)


@pytest.mark.parametrize(
    "bad, error", [(-1, ValueError), (1.5, TypeError)], ids=["negative", "float"]
)
def test_stream_refuses_keys_as_seed_sequence_does(bad, error):
    for args in [(bad,), (bad, 1), (0, bad), (0, 1, bad)]:
        with pytest.raises(error):
            reference_stream(*args)
        with pytest.raises(error):
            sp.stream(*args)


# ---------------------------------------------------------------------------
# marginals
# ---------------------------------------------------------------------------

def test_rpt_marginals_cumulative():
    f, q = sp.marginals(sp.Rpt((0.5, 0.3, 0.2)))
    np.testing.assert_allclose(f, [0.5, 0.8, 1.0], atol=1e-15)
    np.testing.assert_allclose(q, f, atol=1e-15)


def test_tau_nice_q_is_tau_over_b():
    f, q = sp.marginals(sp.TauNice(4, 2))
    np.testing.assert_allclose(q, 0.5, atol=1e-15)
    # F_1: 3 of the 6 two-element subsets of {1..4} contain layer 1
    assert f[0] == pytest.approx(0.5)


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: type(s).__name__)
def test_marginals_match_enumeration(scheme):
    f, q = sp.marginals(scheme)
    f_ref, q_ref = enumerated_marginals(scheme)
    np.testing.assert_allclose(f, f_ref, atol=1e-12)
    np.testing.assert_allclose(q, q_ref, atol=1e-12)


@pytest.mark.parametrize(
    "scheme",
    [sp.Rpt((0.5, 0.3, 0.2)), sp.TauNice(4, 2),
     sp.TauSubmodel(5, 2, (0.4, 0.3, 0.2, 0.1)),
     sp.PartitionedSubmodel((frozenset({1, 3}), frozenset({2})), (0.6, 0.4))],
    ids=lambda s: type(s).__name__,
)
def test_marginals_match_monte_carlo(scheme):
    n = 20_000
    f_emp, q_emp = empirical_marginals(scheme, n, seed=5)
    f, q = sp.marginals(scheme)
    for name, emp, ana in (("F", f_emp, f), ("Q", q_emp, q)):
        for i in range(scheme.b):
            tol = 3.0 * math.sqrt(max(ana[i] * (1 - ana[i]), 0.0) / n) + 1e-12
            assert abs(emp[i] - ana[i]) <= tol, (name, i + 1)


def test_full_network_marginals_all_one():
    f, q = sp.marginals(sp.FullNetwork(4))
    np.testing.assert_array_equal(f, np.ones(4))
    np.testing.assert_array_equal(q, np.ones(4))


def test_rpt_f_nondecreasing_ends_at_one():
    f, q = sp.marginals(sp.Rpt((0.1, 0.2, 0.3, 0.4)))
    np.testing.assert_array_equal(f, q)
    assert np.all(np.diff(f) >= 0)
    assert f[-1] == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# support / distribution
# ---------------------------------------------------------------------------

def test_support_full_network():
    assert sp.distribution(sp.FullNetwork(3)) == {frozenset({1, 2, 3}): 1.0}


def test_support_rpt_drops_zero_cutoffs():
    assert sp.distribution(sp.Rpt((0.5, 0.0, 0.5))) == {
        frozenset({1, 2, 3}): 0.5, frozenset({3}): 0.5,
    }


def test_support_partitioned():
    scheme = sp.PartitionedSubmodel((frozenset({1, 3}), frozenset({2})), (0.25, 0.75))
    assert sp.distribution(scheme) == {frozenset({1, 3}): 0.25, frozenset({2}): 0.75}


def test_singleton_partition_is_serial_sampling():
    # single-coordinate blocks reproduce serial block-coordinate sampling
    scheme = sp.PartitionedSubmodel(
        tuple(frozenset({i}) for i in range(1, 5)), (0.1, 0.2, 0.3, 0.4)
    )
    _, q = sp.marginals(scheme)
    np.testing.assert_allclose(q, [0.1, 0.2, 0.3, 0.4], atol=1e-15)
    rng = sp.stream(6)
    for _ in range(50):
        assert len(sp.sample(scheme, rng)) == 1


# ---------------------------------------------------------------------------
# epoch shift
# ---------------------------------------------------------------------------

def test_epoch_shift_alpha_zero_uniform():
    np.testing.assert_allclose(sp.epoch_shift_probs(3, 0.0, 0.7), np.full(3, 1 / 3), atol=1e-15)


def test_epoch_shift_half_progress_symmetric_uniform():
    # at progress 1/2 the exponent is constant in the layer index
    np.testing.assert_allclose(sp.epoch_shift_probs(3, 0.5, 0.5), np.full(3, 1 / 3), atol=1e-14)


def test_epoch_shift_progress_zero_matches_formula():
    # weights exp(alpha * (b - 1 - i)) for i in {0, 1, 2}: exponents (1.0, 0.5, 0.0)
    w = np.exp([1.0, 0.5, 0.0])
    expected = w / w.sum()
    np.testing.assert_allclose(sp.epoch_shift_probs(3, 0.5, 0.0), expected, atol=1e-14)


def test_epoch_shift_monotone_directions():
    p0 = sp.epoch_shift_probs(5, 0.8, 0.0)
    p1 = sp.epoch_shift_probs(5, 0.8, 1.0)
    assert np.all(np.diff(p0) < 0)  # shallow-biased at the start
    assert np.all(np.diff(p1) > 0)  # deep-biased at the end


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 64), st.floats(-4.0, 4.0), st.floats(0.0, 1.0))
def test_epoch_shift_valid_probability_vector(b, alpha, progress):
    p = sp.epoch_shift_probs(b, alpha, progress)
    assert np.all(p >= 0)
    assert abs(p.sum() - 1.0) <= 1e-12


def test_epoch_shift_scheme_materializes_rpt():
    scheme = sp.EpochShiftRpt(4, 0.8)
    rpt = scheme.at(0.0)
    assert isinstance(rpt, sp.Rpt)
    np.testing.assert_allclose(rpt.p, sp.epoch_shift_probs(4, 0.8, 0.0), atol=1e-15)
    assert rpt.p[0] > 0  # exponential weights never vanish
    assert scheme.at(1.0).p[-1] > scheme.at(0.0).p[-1]


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

KINDS = {
    sp.Rpt: "rpt", sp.TauNice: "tau_nice", sp.TauSubmodel: "tau_submodel",
    sp.PartitionedSubmodel: "partitioned_submodel", sp.FullNetwork: "full_network",
    sp.EpochShiftRpt: "epoch_shift",
}


def config_document(scheme):
    """The scheme as a JSON config document: its kind plus every dataclass field."""
    fields = json.loads(json.dumps(dataclasses.asdict(scheme), default=sorted))
    return {"kind": KINDS[type(scheme)], **fields}


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: type(s).__name__)
def test_scheme_roundtrip(scheme):
    assert sp.scheme_from_dict(config_document(scheme)) == scheme


def test_epoch_shift_scheme_roundtrip():
    scheme = sp.EpochShiftRpt(5, -0.3)
    assert sp.scheme_from_dict(config_document(scheme)) == scheme
