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
Muon-style optimizers and is exposed separately so tests can pin the SVD path.

``nuclear_norms`` and ``spectral_lmos`` are the stacked forms of the spectral
``dual_norm`` and ``lmo``: one ``np.linalg.svd`` call over a stack of
same-shape matrices, which LAPACK factors one matrix at a time exactly as the
per-matrix calls do, so every result equals the per-matrix one bit for bit.
They exist because at desk scale the per-call overhead, not the
factorization, dominates the cost of an SVD.

Every function checks its input once.  The Euclidean ``dual_norm`` and
``lmo`` check finiteness by the Frobenius norm they compute anyway: a matrix
with an inf or nan entry always has a non-finite norm, and only then does
``check_matrix`` scan the entries, to raise its message.  A finite matrix
whose norm overflows passes that scan, and its infinite norm is returned.
The other functions scan with ``check_matrix`` first.
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
    "dual_norm",
    "lmo",
    "nuclear_norms",
    "spectral_lmos",
    "sharp",
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
    """An LMO step plus a degeneracy flag (set when the input was zero)."""

    step: np.ndarray
    degenerate: bool


def check_matrix(m: np.ndarray) -> np.ndarray:
    """Validate and return ``m`` as a 2-D float array with finite entries."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix with positive dims, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _checked_frobenius(m: np.ndarray) -> tuple[np.ndarray, np.float64]:
    """``m`` as a float matrix and its Frobenius norm, raising as ``check_matrix`` does.

    The entries are scanned only when the shape is wrong or the norm is not
    finite; an overflowing norm of finite entries is returned as it is.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or not a.size:
        check_matrix(a)  # raises the shape message
    nrm = np.linalg.norm(a)
    if not math.isfinite(nrm):
        check_matrix(a)  # raises on an inf or nan entry
    return a, nrm


def _check_stack(ms) -> np.ndarray:
    """Validate and return ``ms`` as a 3-D float stack of finite same-shape matrices."""
    a = np.asarray(ms, dtype=float)
    if a.ndim != 3 or 0 in a.shape:
        raise ValueError(f"expected a non-empty stack of 2-D matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


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


def norm(kind: NormKind, m: np.ndarray) -> float:
    """Primal norm of ``m``: Frobenius or largest singular value."""
    m = check_matrix(m)
    if kind == NormKind.EUCLIDEAN:
        return float(np.linalg.norm(m))
    s = np.linalg.svd(m, compute_uv=False)
    return float(s[0]) if s.size else 0.0


def dual_norm(kind: NormKind, m: np.ndarray) -> float:
    """Dual norm of ``m``: Frobenius (self-dual) or nuclear (sum of singular values)."""
    if kind == NormKind.EUCLIDEAN:
        return float(_checked_frobenius(m)[1])
    m = check_matrix(m)
    s = np.linalg.svd(m, compute_uv=False)
    return float(s.sum())


def lmo(kind: NormKind, m: np.ndarray, t: float) -> LmoResult:
    """Minimize ``<m, Z>`` over the radius-``t`` ball of ``kind``.

    Euclidean: ``-t * m / ||m||_F``.  Spectral: ``-t * U V^T`` from the compact
    SVD of ``m``.  A zero ``m`` makes the minimizer set-valued; by convention
    the zero matrix is returned with ``degenerate=True`` (a zero step is a
    valid minimizer limit and keeps runs deterministic).
    """
    if kind == NormKind.EUCLIDEAN:
        m, nrm = _checked_frobenius(m)
    else:
        m = check_matrix(m)
    if t <= 0.0:
        raise ValueError("lmo radius t must be positive")
    if not m.any():
        return LmoResult(np.zeros_like(m), True)
    if kind == NormKind.EUCLIDEAN:
        return LmoResult(-(t / nrm) * m, False)
    u, _, vt = _compact_svd(m)
    return LmoResult(-t * (u @ vt), False)


def nuclear_norms(ms) -> np.ndarray:
    """Nuclear norms of a stack of same-shape matrices, from one SVD call.

    Entry j equals ``dual_norm(SPECTRAL, ms[j])`` exactly.
    """
    return np.linalg.svd(_check_stack(ms), compute_uv=False).sum(axis=-1)


def spectral_lmos(ms, t) -> list[LmoResult]:
    """Spectral-norm LMOs of a stack of same-shape matrices at radii ``t``.

    Result j equals ``lmo(SPECTRAL, ms[j], t[j])`` exactly.  The non-zero
    matrices share one compact SVD call; each is rank-truncated as ``lmo``
    does it.  Zero matrices stay out of that call and come back degenerate.
    """
    a = _check_stack(ms)
    t = [float(x) for x in t]
    if len(t) != len(a):
        raise ValueError("need one lmo radius per matrix")
    if any(tj <= 0.0 for tj in t):
        raise ValueError("lmo radius t must be positive")
    nonzero = a.any(axis=(1, 2))
    factors = zip(*np.linalg.svd(a[nonzero], full_matrices=False)) if nonzero.any() else None
    out = []
    for j, is_nonzero in enumerate(nonzero.tolist()):
        if is_nonzero:
            u, _, vt = _truncate(*next(factors))
            out.append(LmoResult(-t[j] * (u @ vt), False))
        else:
            out.append(LmoResult(np.zeros_like(a[j]), True))
    return out


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


def newton_schulz(m: np.ndarray, cfg: NewtonSchulzConfig = NewtonSchulzConfig()) -> np.ndarray:
    """Approximately orthogonalize ``m`` (approximate the polar factor ``U V^T``).

    The input is pre-normalized by its Frobenius norm, then ``cfg.iterations``
    quintic steps ``X <- aX + (bA + cA^2)X`` with ``A = X X^T`` run, followed by
    ``cfg.polish_iterations`` cubic steps.  With the defaults, any input whose
    singular-value ratio is at most 100 comes out with every singular value in
    [0.7, 1.3] (empirically in [0.998, 1.0]).

    Raises ValueError on a zero matrix: the polar factor is undefined there.
    """
    m = check_matrix(m)
    if not m.any():
        raise ValueError("cannot orthogonalize zero matrix")
    x = m / np.linalg.norm(m)
    if cfg.iterations == 0:
        return x
    transpose = x.shape[0] > x.shape[1]
    if transpose:
        x = x.T
    a, b, c = cfg.coefficients
    for _ in range(cfg.iterations):
        g = x @ x.T
        x = a * x + (b * g + c * (g @ g)) @ x
    ap, bp, _ = NEWTON_SCHULZ_CUBIC
    for _ in range(cfg.polish_iterations):
        g = x @ x.T
        x = ap * x + bp * (g @ x)
    return x.T if transpose else x
