"""Per-layer norm geometry: norms, dual norms, LMOs over norm balls, and sharp operators.

Every optimizer update in this package is built from two primitives over a
layer's chosen norm ball:

* ``lmo(kind, m, t)`` -- the minimizer of ``<m, Z>`` over ``||Z|| <= t``,
* ``sharp(kind, m)``  -- the maximizer of ``<m, X> - ||X||^2 / 2``,

related by ``sharp(m) = -dual_norm(m) * lmo(m, 1)``.  Two norm kinds ship:
the Euclidean (Frobenius) norm, whose dual is itself and whose sharp operator
is the identity, and the spectral norm, whose dual is the nuclear norm and
whose LMO direction is the orthogonal polar factor ``U V^T``.

All functions are pure; matrices are dense 2-D float arrays and are never
mutated.  Spectral quantities use full SVD (matrices here are desk-scale);
``newton_schulz`` provides the cheaper approximate orthogonalization used by
Muon-style optimizers.  An optimizer reaches it through ``lmos(..., ns=)``,
so both backends share one LMO contract, and tests pin the SVD path.

``dual_norms``, ``lmos`` and ``sharps`` are the stacked forms of ``dual_norm``,
``lmo`` and ``sharp``: they take a stack of same-shape matrices, shape
(n, m, k), and return stacked results that equal the per-matrix calls bit
for bit.  A spectral stack takes one ``np.linalg.svd`` call, which LAPACK
factors one matrix at a time exactly as the per-matrix calls do, and its
LMO or sharp step takes one stacked ``u @ vt`` when no member needs rank
truncation.  A Euclidean stack takes each member's Frobenius norm as the
same BLAS dot product ``np.linalg.norm`` uses.  They exist because at desk
scale the per-call overhead, not the arithmetic, dominates.

Every function checks its input once.  A stacked form checks the stack as a
whole: an inf or nan entry anywhere raises ``matrix entries must be
finite``, then the first radius that is not positive and finite raises the
per-matrix radius message; naming the member is the caller's business.  The
stacked Euclidean forms and a ``newton_schulz`` stack scan the entries only
when a Frobenius norm they compute anyway is not finite, as any inf or nan
entry makes it; a finite matrix whose norm overflows passes, and its inf
norm is returned.  The per-matrix functions, the reference the stacked
forms are tested against, scan the entries first.  A Euclidean LMO or
Newton-Schulz step divides a non-zero matrix whose norm is below
``SQRT_TINY`` by its largest absolute entry and measures it again, since its
squared norm underflows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "NormKind",
    "NewtonSchulzConfig",
    "LmoResult",
    "check_matrix",
    "norm",
    "norm_ratio_squared",
    "dual_norm",
    "lmo",
    "sharp",
    "dual_norms",
    "lmos",
    "sharps",
    "newton_schulz",
    "NEWTON_SCHULZ_QUINTIC",
    "NEWTON_SCHULZ_CUBIC",
]

# Quintic coefficients from the reference Muon implementation (slope-maximizing;
# does NOT converge to the polar factor, it oscillates in roughly [0.68, 1.14]).
NEWTON_SCHULZ_QUINTIC = (3.4445, -4.7750, 2.0315)
# Classical convergent iteration: x <- 1.5 x - 0.5 x^3, superattracting at 1.
NEWTON_SCHULZ_CUBIC = (1.5, -0.5, 0.0)

# Singular values below RANK_TOL * sigma_max are treated as zero when forming
# U V^T; the polar direction is undefined on the null space.
RANK_TOL = 1e-12

# A Frobenius norm below this has a squared norm below the smallest normal float.
SQRT_TINY = math.sqrt(np.finfo(float).tiny)


class NormKind(str, enum.Enum):
    """Per-layer norm choice."""

    EUCLIDEAN = "euclidean"  # Frobenius norm; self-dual
    SPECTRAL = "spectral"    # operator 2->2 norm; dual is the nuclear norm


@dataclass(frozen=True)
class NewtonSchulzConfig:
    """Configuration for the approximate orthogonalization.

    ``iterations`` quintic steps with ``coefficients`` are followed by
    ``polish_iterations`` classical cubic steps.  The polish is needed because
    the slope-maximizing quintic alone leaves singular values oscillating in a
    band that dips below 0.7 (it maps 1 to ~0.701); three cubic steps contract
    that band into [0.998, 1.0] without hurting the small-singular-value
    amplification the quintic is chosen for.  With ``iterations=0`` the
    operator is exactly the Frobenius-normalized input and no polish runs.
    """

    iterations: int = 5
    coefficients: tuple[float, float, float] = NEWTON_SCHULZ_QUINTIC
    polish_iterations: int = 3

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.polish_iterations < 0:
            raise ValueError("polish_iterations must be >= 0")
        if len(self.coefficients) != 3:
            raise ValueError("coefficients must be a triple (a, b, c)")


class LmoResult(NamedTuple):
    """An LMO step plus a degeneracy flag (set when the input was zero).

    The stacked ``lmos`` return an (n, m, k) step and an (n,) flag array.
    """

    step: np.ndarray
    degenerate: bool | np.ndarray


def check_matrix(m: np.ndarray) -> np.ndarray:
    """Validate and return ``m`` as a 2-D float array with finite entries."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix with positive dims, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _bad_radius(t: float) -> str:
    return f"lmo radius t must be positive and finite, got {t}"


def _stack(ms) -> np.ndarray:
    """``ms`` as a 3-D float stack of matrices with positive dims (it may hold none)."""
    a = np.asarray(ms, dtype=float)
    if a.ndim != 3 or 0 in a.shape[1:]:
        raise ValueError(f"expected a stack of 2-D matrices, got shape {a.shape}")
    return a


def _members(a: np.ndarray) -> np.ndarray:
    """A stack as an (n, m * k) array, one member per row (a view of a contiguous stack)."""
    return a.reshape(len(a), a.shape[1] * a.shape[2])


def _nonzero_members(a: np.ndarray) -> np.ndarray:
    return np.logical_or.reduce(_members(a), axis=1)


def _check_stack(a: np.ndarray, t: np.ndarray | None = None, nrm: np.ndarray | None = None) -> None:
    """Raise ValueError if ``a`` has an inf or nan entry, then if a radius in ``t`` is bad;
    given the members' Frobenius norms ``nrm``, scan the entries only if one is not finite."""
    if (nrm is None or not np.isfinite(nrm).all()) and not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if t is not None:
        bad = [v for v in t.tolist() if not 0.0 < v < math.inf]
        if bad:
            raise ValueError(_bad_radius(bad[0]))


def _frobenius_norms(a: np.ndarray) -> np.ndarray:
    """Each member's Frobenius norm, the same BLAS dot product ``np.linalg.norm`` takes."""
    rows = _members(a)
    return np.sqrt((rows[:, None, :] @ rows[:, :, None]).reshape(len(a)))


def _remeasure_small(
    a: np.ndarray, nrm: np.ndarray, nonzero: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``a`` and ``nrm``, with each non-zero member whose norm is below ``SQRT_TINY``
    divided by its largest absolute entry and measured again (copies when any is)."""
    small = nonzero & (nrm < SQRT_TINY)
    if small.any():
        a, nrm = a.copy(), nrm.copy()
        a[small] /= np.abs(a[small]).max(axis=(1, 2), keepdims=True)
        nrm[small] = _frobenius_norms(a[small])
    return a, nrm


def _compact_svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compact SVD with near-zero singular values dropped (rank truncation)."""
    return _truncate(*np.linalg.svd(m, full_matrices=False))


def _truncate(
    u: np.ndarray, s: np.ndarray, vt: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drop the near-zero singular values of one compact SVD (copies ``u`` and ``vt``)."""
    if s.size == 0 or s[0] <= 0.0:
        return u[:, :0], s[:0], vt[:0, :]
    keep = s > RANK_TOL * s[0]
    return u[:, keep], s[keep], vt[keep, :]


def _polar_stack(a: np.ndarray, nonzero: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """``c_j * U_j V_j^T`` for each ``nonzero`` member of ``a``, zero for the others.

    ``c_j`` is ``-t[j]`` (the LMO step) or, without ``t``, the sum of the kept
    singular values (the sharp operator).  One compact SVD covers the
    non-zero members; when none needs rank truncation one stacked ``u @ vt``
    follows, else each member is truncated as ``_truncate`` does it.
    """
    if not nonzero.any():
        return np.zeros_like(a)
    every = nonzero.all()
    u, s, vt = np.linalg.svd(a if every else a[nonzero], full_matrices=False)
    neg_t = None if t is None else -(t if every else t[nonzero])
    if all(lo > RANK_TOL * hi for hi, lo in zip(s[:, 0].tolist(), s[:, -1].tolist())):
        c = s.sum(axis=-1) if t is None else neg_t
        polar = c[:, None, None] * (u @ vt)
    else:
        polar = np.empty((len(s),) + a.shape[1:])
        for j, factors in enumerate(zip(u, s, vt)):
            uj, sj, vtj = _truncate(*factors)
            polar[j] = (float(sj.sum()) if t is None else neg_t[j]) * (uj @ vtj)
    if every:
        return polar
    out = np.zeros_like(a)
    out[nonzero] = polar
    return out


def norm(kind: NormKind, m: np.ndarray) -> float:
    """Primal norm of ``m``: Frobenius or largest singular value."""
    m = check_matrix(m)
    if kind == NormKind.EUCLIDEAN:
        return float(np.linalg.norm(m))
    s = np.linalg.svd(m, compute_uv=False)
    return float(s[0]) if s.size else 0.0


def norm_ratio_squared(kind: NormKind, shape: tuple[int, ...]) -> int:
    """The exact integer rho^2 with ||X|| <= ||X||_F <= rho ||X|| on ``shape`` matrices:
    min(m, n) for the spectral norm (rho = sqrt(min(m, n))), 1 for the Euclidean."""
    return min(shape) if kind == NormKind.SPECTRAL else 1


def dual_norm(kind: NormKind, m: np.ndarray) -> float:
    """Dual norm of ``m``: Frobenius (self-dual) or nuclear (sum of singular values)."""
    m = check_matrix(m)
    if kind == NormKind.EUCLIDEAN:
        return float(np.linalg.norm(m))
    return float(np.linalg.svd(m, compute_uv=False).sum())


def lmo(kind: NormKind, m: np.ndarray, t: float) -> LmoResult:
    """Minimize ``<m, Z>`` over the radius-``t`` ball of ``kind``.

    Euclidean: ``-t * m / ||m||_F``.  Spectral: ``-t * U V^T`` from the compact
    SVD of ``m``.  A zero ``m`` makes the minimizer set-valued; by convention
    the zero matrix is returned with ``degenerate=True`` (a zero step is a
    valid minimizer limit and keeps runs deterministic).
    """
    m = check_matrix(m)
    if not 0.0 < t < math.inf:
        raise ValueError(_bad_radius(t))
    if not m.any():
        return LmoResult(np.zeros_like(m), True)
    if kind == NormKind.EUCLIDEAN:
        nrm = np.linalg.norm(m)
        if nrm < SQRT_TINY:  # the squared norm underflows: measure m / max|m| instead
            m = m / np.abs(m).max()
            nrm = np.linalg.norm(m)
        return LmoResult(-(t / nrm) * m, False)
    u, _, vt = _compact_svd(m)
    return LmoResult(-t * (u @ vt), False)


def sharp(kind: NormKind, m: np.ndarray) -> np.ndarray:
    """Sharp operator: argmax of ``<m, X> - ||X||^2 / 2`` in the ``kind`` norm.

    Equals ``dual_norm(m)`` times the negated unit-ball LMO direction.  For the
    Euclidean norm this is the identity map; for the spectral norm it is the
    nuclear norm times the polar factor ``U V^T``.  Zero in, zero out.
    """
    m = check_matrix(m)
    if kind == NormKind.EUCLIDEAN:
        return m.copy()
    if not m.any():
        return np.zeros_like(m)
    u, s, vt = _compact_svd(m)
    return float(s.sum()) * (u @ vt)


def dual_norms(kind: NormKind, ms) -> np.ndarray:
    """Dual norms of a stack of same-shape matrices; entry j equals ``dual_norm(kind, ms[j])``.

    The spectral stack takes one values-only SVD call.
    """
    a = _stack(ms)
    if kind == NormKind.EUCLIDEAN:
        nrm = _frobenius_norms(a)
        _check_stack(a, nrm=nrm)
        return nrm
    _check_stack(a)
    return np.linalg.svd(a, compute_uv=False).sum(axis=-1)


def lmos(kind: NormKind, ms, t, ns: NewtonSchulzConfig | None = None) -> LmoResult:
    """LMOs of a stack of same-shape matrices at radii ``t``, one per matrix.

    Step j and flag j equal ``lmo(kind, ms[j], t[j])``.  Zero matrices come
    back degenerate with a zero step and stay out of the spectral SVD.  With
    ``ns``, a spectral stack's non-zero members take ``-t[j] *
    newton_schulz(ms[j], ns)``, one stacked call; a Euclidean stack ignores it.
    """
    a = _stack(ms)
    t = np.asarray(t, dtype=float)
    if t.shape != (len(a),):
        raise ValueError("need one lmo radius per matrix")
    nonzero = _nonzero_members(a)
    if kind == NormKind.EUCLIDEAN:
        nrm = _frobenius_norms(a)
        _check_stack(a, t, nrm)
        a, nrm = _remeasure_small(a, nrm, nonzero)
        step = -np.divide(t, nrm, out=np.zeros_like(nrm), where=nonzero)[:, None, None] * a
        if not nonzero.all():
            step[~nonzero] = 0.0  # +0, as lmo returns for a zero matrix
        return LmoResult(step, ~nonzero)
    _check_stack(a, t)
    if ns is None:
        return LmoResult(_polar_stack(a, nonzero, t), ~nonzero)
    step = np.zeros_like(a)
    step[nonzero] = -t[nonzero][:, None, None] * newton_schulz(a[nonzero], ns)
    return LmoResult(step, ~nonzero)


def sharps(kind: NormKind, ms) -> np.ndarray:
    """Sharp operators of a stack of same-shape matrices; member j equals ``sharp(kind, ms[j])``."""
    a = _stack(ms)
    _check_stack(a)
    if kind == NormKind.EUCLIDEAN:
        return a.copy()
    return _polar_stack(a, _nonzero_members(a))


def newton_schulz(m: np.ndarray, cfg: NewtonSchulzConfig = NewtonSchulzConfig()) -> np.ndarray:
    """Approximately orthogonalize ``m`` (approximate the polar factor ``U V^T``).

    The input is pre-normalized by its Frobenius norm, then ``cfg.iterations``
    quintic steps ``X <- aX + (bA + cA^2)X`` with ``A = X X^T`` run, followed by
    ``cfg.polish_iterations`` cubic steps.  With the defaults, any input whose
    singular-value ratio is at most 100 comes out with every singular value in
    [0.7, 1.3] (empirically in [0.998, 1.0]).

    ``m`` may be a stack, shape (n, m, k), orthogonalized in one pass as the
    per-matrix calls would be.  Raises ValueError on a non-finite entry, then
    on a zero matrix (the polar factor is undefined there).
    """
    if np.ndim(m) != 3:
        return newton_schulz(check_matrix(m)[None], cfg)[0]
    m = _stack(m)
    nrm = _frobenius_norms(m)
    _check_stack(m, nrm=nrm)
    nonzero = _nonzero_members(m)
    if not nonzero.all():
        raise ValueError("cannot orthogonalize zero matrix")
    m, nrm = _remeasure_small(m, nrm, nonzero)
    x = m / nrm[:, None, None]
    if cfg.iterations == 0:
        return x
    transpose = x.shape[1] > x.shape[2]
    if transpose:
        x = x.swapaxes(1, 2)
    a, b, c = cfg.coefficients
    for _ in range(cfg.iterations):
        g = x @ x.swapaxes(1, 2)
        x = a * x + (b * g + c * (g @ g)) @ x
    ap, bp, _ = NEWTON_SCHULZ_CUBIC
    for _ in range(cfg.polish_iterations):
        g = x @ x.swapaxes(1, 2)
        x = ap * x + bp * (g @ x)
    return x.swapaxes(1, 2) if transpose else x
