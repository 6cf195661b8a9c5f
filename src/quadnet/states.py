"""Gaussian quadrature states and channels in shot-noise units.

The quadrature vector of an ``n``-mode state is ordered X-block first,
``(X_0, ..., X_{n-1}, Y_0, ..., Y_{n-1})``, and the vacuum variance of
every single quadrature is 1/4.  States and channels are immutable
values and every operation is a pure function, so all of this is safe
to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

from .errors import PhysicalityError

VACUUM_VARIANCE = 0.25
MAX_SQUEEZING = 10.0

_SYMMETRY_TOL = 1e-12
_NOISE_PSD_TOL = 1e-10
_PHYSICALITY_TOL = 1e-10
_APPLY_TOL = 1e-9
_RELATIVE_PHYSICALITY_TOL = 1e-14


class Axis(str, Enum):
    """Quadrature axis: amplitude (X) or phase (Y)."""

    X = "X"
    Y = "Y"


@dataclass(frozen=True)
class QuadIndex:
    """Address of a single quadrature: a mode number and an axis."""

    mode: int
    axis: Axis

    def flat(self, n_modes: int) -> int:
        """Position of this quadrature in the X-block-first ordering."""
        if not 0 <= self.mode < n_modes:
            raise ValueError(f"mode {self.mode} outside [0, {n_modes})")
        return self.mode + (0 if self.axis is Axis.X else n_modes)


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Gaussian state of ``n_modes`` modes: a mean vector and a covariance matrix.

    Parameters
    ----------
    n_modes : int
        Number of optical modes.
    mean : ndarray, shape (2*n_modes,)
        Finite quadrature means, X block first.
    cov : ndarray, shape (2*n_modes, 2*n_modes)
        Finite, symmetric covariance matrix (symmetry enforced to 1e-12).
    """

    n_modes: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("need at least one mode")
        d = 2 * self.n_modes
        mean = _readonly(np.asarray(self.mean, dtype=float))
        cov = _readonly(np.asarray(self.cov, dtype=float))
        if mean.shape != (d,):
            raise ValueError(f"mean must have shape ({d},), got {mean.shape}")
        if cov.shape != (d, d):
            raise ValueError(f"cov must have shape ({d}, {d}), got {cov.shape}")
        # a non-finite entry makes the asymmetry NaN or inf, so the check
        # for it only runs when the symmetry check fails
        if not np.max(np.abs(cov - cov.T)) <= _SYMMETRY_TOL:
            if not np.isfinite(cov).all():
                raise ValueError("covariance matrix must be finite")
            raise ValueError("covariance matrix is not symmetric within 1e-12")
        if not np.isfinite(mean).all():
            raise ValueError("mean must be finite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


@dataclass(frozen=True, eq=False)
class GaussianChannel:
    """Deterministic Gaussian map ``V -> T V T^t + N``, ``mean -> T mean``.

    ``N`` must be symmetric positive semidefinite (eigenvalues >= -1e-10);
    symplectic maps are exactly the ``N = 0`` case.
    """

    T: np.ndarray
    N: np.ndarray

    def __post_init__(self):
        T = _readonly(np.asarray(self.T, dtype=float))
        N = _readonly(np.asarray(self.N, dtype=float))
        if T.ndim != 2 or T.shape[0] % 2 or T.shape[1] % 2:
            raise ValueError("T must be 2m x 2n")
        if N.shape != (T.shape[0], T.shape[0]):
            raise ValueError("N must be square and match T's output dimension")
        if np.max(np.abs(N - N.T)) > _SYMMETRY_TOL:
            raise ValueError("N must be symmetric")
        if np.linalg.eigvalsh(N).min() < -_NOISE_PSD_TOL:
            raise ValueError("N must be positive semidefinite within 1e-10")
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "N", N)


def vacuum(n_modes: int) -> GaussianState:
    """Vacuum state: zero mean, covariance ``(1/4) I``."""
    if n_modes < 1:
        raise ValueError("need at least one mode")
    d = 2 * n_modes
    return GaussianState(n_modes, np.zeros(d), VACUUM_VARIANCE * np.eye(d))


def commutation_matrix(n_modes: int) -> np.ndarray:
    """Antisymmetric form Sigma with ``Sigma[X_k, Y_k] = +1``."""
    n = n_modes
    s = np.zeros((2 * n, 2 * n))
    s[:n, n:] = np.eye(n)
    s[n:, :n] = -np.eye(n)
    return s


def is_physical(state: GaussianState, tol: float = _PHYSICALITY_TOL) -> bool:
    """Check the uncertainty relation ``cov + (i/4) Sigma >= 0``.

    Eigenvalues down to ``-max(tol, 1e-14 * largest eigenvalue)`` are
    accepted as round-off.
    """
    sigma = commutation_matrix(state.n_modes)
    eigs = np.linalg.eigvalsh(state.cov + 0.25j * sigma)
    return bool(eigs[0] >= _eigenvalue_floor(eigs[-1], tol))


def _eigenvalue_floor(largest: float, tol: float = _PHYSICALITY_TOL) -> float:
    """Round-off floor ``-max(tol, 1e-14 * largest)``, relative for ``e^{2r}`` entries."""
    return -max(tol, _RELATIVE_PHYSICALITY_TOL * largest)


def is_symplectic(T: np.ndarray, tol: float = 1e-10) -> bool:
    """True when ``T Sigma T^t = Sigma`` (phase-space-structure preserving)."""
    T = np.asarray(T, dtype=float)
    if T.ndim != 2 or T.shape[0] != T.shape[1] or T.shape[0] % 2:
        return False
    sigma = commutation_matrix(T.shape[0] // 2)
    return bool(np.max(np.abs(T @ sigma @ T.T - sigma)) <= tol)


def squeezer(n_modes: int, mode: int, r: float, axis: Axis | str) -> GaussianChannel:
    """Single-mode squeezer reducing the variance of ``axis`` by ``e^{-2r}``.

    The conjugate axis is stretched by ``e^{+2r}``.  ``r`` is capped at
    ``MAX_SQUEEZING`` and must be non-negative.
    """
    axis = Axis(axis)
    _check_mode(n_modes, mode)
    if not 0.0 <= r <= MAX_SQUEEZING:
        raise ValueError(f"squeezing parameter must lie in [0, {MAX_SQUEEZING}]")
    d = 2 * n_modes
    T = np.eye(d)
    x, y = mode, mode + n_modes
    if axis is Axis.Y:
        T[x, x] = math.exp(r)
        T[y, y] = math.exp(-r)
    else:
        T[x, x] = math.exp(-r)
        T[y, y] = math.exp(r)
    return GaussianChannel(T, np.zeros((d, d)))


def phase_shift(n_modes: int, mode: int, phi: float) -> GaussianChannel:
    """Phase rotation of one mode: ``phi = pi/2`` maps ``X -> Y, Y -> -X``."""
    _check_mode(n_modes, mode)
    d = 2 * n_modes
    T = np.eye(d)
    c, s = math.cos(phi), math.sin(phi)
    x, y = mode, mode + n_modes
    T[x, x] = c
    T[x, y] = s
    T[y, x] = -s
    T[y, y] = c
    return GaussianChannel(T, np.zeros((d, d)))


def beam_splitter(n_modes: int, mode_i: int, mode_j: int, theta: float) -> GaussianChannel:
    """Balanced 50/50 mixing of two modes with relative phase ``theta``.

    The phase is applied to ``mode_j`` before an equal-weight mix; the sum
    lands on ``mode_i``'s line and the difference on ``mode_j``'s line:

        out_i = (in_i + R(theta) in_j) / sqrt(2)
        out_j = (in_i - R(theta) in_j) / sqrt(2)

    Alternative port/sign placements are realized by composing with
    :func:`phase_shift`, as the packaged experiment networks do.
    """
    _check_mode(n_modes, mode_i)
    _check_mode(n_modes, mode_j)
    if mode_i == mode_j:
        raise ValueError("beam splitter needs two distinct modes")
    d = 2 * n_modes
    mix = np.eye(d)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for off in (0, n_modes):
        a, b = mode_i + off, mode_j + off
        mix[a, a] = inv_sqrt2
        mix[a, b] = inv_sqrt2
        mix[b, a] = inv_sqrt2
        mix[b, b] = -inv_sqrt2
    T = mix @ phase_shift(n_modes, mode_j, theta).T
    return GaussianChannel(T, np.zeros((d, d)))


def loss_channel(n_modes: int, mode: int, eta: float) -> GaussianChannel:
    """Pure attenuation of one mode with intensity transmission ``eta``.

    The lost fraction is replaced by vacuum, so any single-mode quadrature
    variance maps to ``eta * v + (1 - eta) / 4``.
    """
    _check_mode(n_modes, mode)
    if not 0.0 <= eta <= 1.0:
        raise ValueError("efficiency must lie in [0, 1]")
    d = 2 * n_modes
    T = np.eye(d)
    N = np.zeros((d, d))
    root = math.sqrt(eta)
    for k in (mode, mode + n_modes):
        T[k, k] = root
        N[k, k] = (1.0 - eta) * VACUUM_VARIANCE
    return GaussianChannel(T, N)


def apply(state: GaussianState, channel: GaussianChannel, check: bool = True) -> GaussianState:
    """Propagate ``state`` through ``channel``.

    The output covariance is re-symmetrized, and (unless ``check=False``)
    verified to satisfy the uncertainty relation (see :func:`is_physical`)
    to an eigenvalue floor of -max(1e-9, 1e-14 * largest eigenvalue); a
    violation signals a malformed channel.
    """
    d = 2 * state.n_modes
    if channel.T.shape[1] != d:
        raise ValueError(
            f"channel expects dimension {channel.T.shape[1]}, state has {d}"
        )
    mean = channel.T @ state.mean
    cov = channel.T @ state.cov @ channel.T.T + channel.N
    cov = 0.5 * (cov + cov.T)
    out = GaussianState(channel.T.shape[0] // 2, mean, cov)
    if check and not is_physical(out, tol=_APPLY_TOL):
        raise PhysicalityError("channel output violates the uncertainty relation")
    return out


@dataclass(frozen=True, eq=False)
class QuadForm:
    """Real linear combination of quadratures, ``sum_k c_k q_k``.

    ``coeffs`` is laid out like a state's quadrature vector (X block then
    Y block) and must contain at least one nonzero entry.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = _readonly(np.asarray(self.coeffs, dtype=float))
        if c.ndim != 1 or c.size % 2:
            raise ValueError("coefficients must be a 1-d vector of even length")
        if not np.any(c):
            raise ValueError("combination must have at least one nonzero coefficient")
        object.__setattr__(self, "coeffs", c)

    @property
    def n_modes(self) -> int:
        return self.coeffs.size // 2

    @classmethod
    def single_axis(cls, n_modes: int, axis: Axis | str, weights: Mapping[int, float]) -> "QuadForm":
        """Combination living on one axis, e.g. ``{0: 1, 1: -1}`` for X0 - X1."""
        axis = Axis(axis)
        c = np.zeros(2 * n_modes)
        for mode, w in weights.items():
            c[QuadIndex(mode, axis).flat(n_modes)] = w
        return cls(c)

    def scaled(self, factor: float) -> "QuadForm":
        return QuadForm(factor * self.coeffs)

    def x_part(self) -> np.ndarray:
        """Per-mode X coefficients."""
        return self.coeffs[: self.n_modes]

    def y_part(self) -> np.ndarray:
        """Per-mode Y coefficients."""
        return self.coeffs[self.n_modes :]


def snl(form: QuadForm) -> float:
    """Shot-noise level of a combination: its variance on vacuum."""
    return float(form.coeffs @ form.coeffs) * VACUUM_VARIANCE


def combination_variance(state: GaussianState, form: QuadForm) -> float:
    """Variance of a quadrature combination on a Gaussian state."""
    if form.coeffs.size != 2 * state.n_modes:
        raise ValueError(
            f"combination is over {form.n_modes} modes, state has {state.n_modes}"
        )
    return float(form.coeffs @ state.cov @ form.coeffs)


def variance_db(state: GaussianState, form: QuadForm) -> float:
    """Combination variance relative to shot noise, in dB (negative = below)."""
    return 10.0 * math.log10(combination_variance(state, form) / snl(form))


def _check_mode(n_modes: int, mode: int) -> None:
    if n_modes < 1:
        raise ValueError("need at least one mode")
    if not 0 <= mode < n_modes:
        raise ValueError(f"mode {mode} outside [0, {n_modes})")
