"""Gaussian-state machinery on 2n x 2n covariance matrices.

Coordinates are interleaved, (x0, p0, x1, p1, ...), first moments are zero
throughout, and the vacuum covariance is the identity.  A covariance Gamma
is physical when Gamma + i*Sigma >= 0, i.e. all symplectic eigenvalues are
at least 1.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import NDArray

if TYPE_CHECKING:
    from .model import OscillatorNetwork

#: condition number of Gamma beyond which the Hermitian-form fallback is used
ILL_CONDITIONED = 1e8

#: default tolerance on symplectic eigenvalues for physicality checks
COV_TOL = 1e-9


def symplectic_form(n_modes: int) -> NDArray[np.float64]:
    """Block-diagonal symplectic form, n copies of [[0, 1], [-1, 0]]."""
    s = np.zeros((2 * n_modes, 2 * n_modes))
    idx = np.arange(n_modes)
    s[2 * idx, 2 * idx + 1] = 1.0
    s[2 * idx + 1, 2 * idx] = -1.0
    return s


def embed_orthogonal(m: NDArray[np.float64]) -> NDArray[np.float64]:
    """Apply the same n x n matrix to all positions and all momenta."""
    n = m.shape[0]
    e = np.zeros((2 * n, 2 * n))
    e[0::2, 0::2] = m
    e[1::2, 1::2] = m
    return e


def thermal_factor(x: float) -> float:
    """Mean occupation factor 1 + 2/(exp(x) - 1) = coth(x/2) for x > 0.

    Tends to 2/x for small x and to 1 as x -> inf; evaluated via expm1 so
    both limits are reached at full precision.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("thermal_factor requires a positive argument")
    # beyond ~700 expm1 overflows; the correction is < 1e-300 there anyway
    safe = np.minimum(x, 700.0)
    out = 1.0 + 2.0 / np.expm1(safe)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class NormalModes:
    """Orthogonal normal-mode data of a stiffness matrix V.

    mode_matrix M satisfies M^T (2V) M = diag(tilde_omegas**2) with columns
    ordered by ascending frequency.  With unit masses the phase-space map to
    mode coordinates is embed_orthogonal(M^T), orthogonal *and* symplectic,
    so positions and momenta never mix.  The arrays are read-only, since an
    OscillatorNetwork shares its modes with every caller.
    """

    mode_matrix: NDArray[np.float64]
    tilde_omegas: NDArray[np.float64]


def normal_modes(v: NDArray[np.float64]) -> NormalModes:
    """Diagonalise the quadratic Hamiltonian defined by a stiffness matrix.

    Parameters
    ----------
    v : ndarray, shape (n, n)
        Symmetric positive definite stiffness matrix.

    Returns
    -------
    NormalModes
        Mode frequencies sqrt(eig(2V)) ascending and the transformation
        matrices, all read-only; raises ValueError when 2V has a nonpositive
        eigenvalue.
    """
    v = np.asarray(v, dtype=float)
    evals, m = np.linalg.eigh(2.0 * v)
    if evals.min() <= 0.0:
        raise ValueError(
            f"stiffness matrix is not positive definite (min eig of 2V = {evals.min():.3e})"
        )
    modes = NormalModes(mode_matrix=m, tilde_omegas=np.sqrt(evals))
    for a in (modes.mode_matrix, modes.tilde_omegas):
        a.setflags(write=False)
    return modes


def thermal_diagonal(omegas: NDArray[np.float64], beta: float) -> NDArray[np.float64]:
    """Gibbs covariance of uncoupled oscillators, which is diagonal.

    Returns the interleaved diagonal (f(beta*w)/w, f(beta*w)*w) per
    frequency w, with f the thermal factor; beta = inf gives the ground
    state.  Callers place it on the diagonal of a matrix they already own.
    """
    if not beta > 0.0:
        raise ValueError("beta must be positive")
    omegas = np.asarray(omegas, dtype=float)
    f = np.atleast_1d(thermal_factor(beta * omegas))
    d = np.empty(2 * omegas.size)
    d[0::2] = f / omegas
    d[1::2] = f * omegas
    return d


def gibbs_covariance(modes: NormalModes, beta: float) -> NDArray[np.float64]:
    """Covariance of the Gibbs state exp(-beta H) for a quadratic H.

    The position block M diag(f/w) M^T and momentum block M diag(f w) M^T, f the
    thermal factor of beta w, interleaved; the x-p entries are exact zeros.
    """
    x, p = _gibbs_blocks(modes, beta)
    out = embed_orthogonal(x)
    out[1::2, 1::2] = p
    return out


def _gibbs_blocks(modes: NormalModes,
                  beta: float) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """The n x n position and momentum blocks of gibbs_covariance."""
    d = thermal_diagonal(modes.tilde_omegas, beta)
    m = modes.mode_matrix
    return (m * d[0::2]) @ m.T, (m * d[1::2]) @ m.T


def propagator(net: OscillatorNetwork, t: float) -> NDArray[np.float64]:
    """Symplectic phase-space map S_t = exp(t Sigma W) of the network flow.

    Built from the network's normal modes: each mode rotates as
    [[cos(w t), sin(w t)/w], [-w sin(w t), cos(w t)]], conjugated back to
    the original coordinates.  Valid for any real t; S_0 is the identity
    and S_{t+s} = S_t S_s.
    """
    return _propagator_from_modes(net.modes, t)


def _propagator_from_modes(modes: NormalModes, t: float) -> NDArray[np.float64]:
    tw = modes.tilde_omegas
    n = tw.size
    r = np.zeros((2 * n, 2 * n))
    c, s = np.cos(tw * t), np.sin(tw * t)
    idx = np.arange(n)
    r[2 * idx, 2 * idx] = c
    r[2 * idx + 1, 2 * idx + 1] = c
    r[2 * idx, 2 * idx + 1] = s / tw
    r[2 * idx + 1, 2 * idx] = -s * tw
    # dense T^T R T, not n x n blocks: the onset references pin its bits (ROADMAP item 3)
    tmat = embed_orthogonal(modes.mode_matrix.T)
    return tmat.T @ r @ tmat


def trajectory(gamma0: NDArray[np.float64], modes: NormalModes,
               times: Iterable[float]) -> Iterator[NDArray[np.float64]]:
    """Yield Gamma_t = S_t Gamma_0 S_t^T for each t in times, one at a time.

    Nothing is stacked, so memory stays at a few 2n x 2n matrices.
    """
    for t in times:
        s = _propagator_from_modes(modes, float(t))
        yield s @ gamma0 @ s.T


def evolve(gamma: NDArray[np.float64], net: OscillatorNetwork,
           t: float) -> NDArray[np.float64]:
    """Evolve a covariance matrix: Gamma_t = S_t Gamma S_t^T."""
    return next(trajectory(gamma, net.modes, (t,)))


def symplectic_spectrum(gamma: NDArray[np.float64]) -> NDArray[np.float64]:
    """Symplectic eigenvalues of a symmetric positive definite matrix.

    Returned ascending.  Computed from the eigenvalues of Sigma*Gamma; for
    condition numbers beyond 1e8 they are instead the positive eigenvalues
    of the Hermitian matrix i L^T Sigma L with Gamma = L L^T, L = U sqrt(w)
    from Gamma = U diag(w) U^T, which is stabler for strongly squeezed states.
    """
    gamma = np.asarray(gamma, dtype=float)
    n2 = gamma.shape[0]
    if gamma.shape != (n2, n2) or n2 % 2:
        raise ValueError("covariance matrix must be square with even dimension")
    evals = np.linalg.eigvalsh(gamma)
    if evals.min() <= 0.0:
        raise ValueError(
            f"matrix is not positive definite (min eigenvalue {evals.min():.3e})"
        )
    n = n2 // 2
    if evals.max() / evals.min() > ILL_CONDITIONED:
        return _spectrum_schur(gamma)
    sig = symplectic_form(n)
    eigs = np.linalg.eigvals(sig @ gamma)
    # eigenvalues come in pairs +-i d; sorting |Im| pairs them up
    d = np.sort(np.abs(eigs.imag))
    return d[1::2]


def _spectrum_schur(gamma: NDArray[np.float64]) -> NDArray[np.float64]:
    n = gamma.shape[0] // 2
    w, u = np.linalg.eigh(gamma)
    root = u * np.sqrt(w)
    # L^T Sigma L is real antisymmetric with eigenvalues +-i*d, so the
    # Hermitian matrix i L^T Sigma L has eigenvalues +-d, the upper n ascending
    return np.linalg.eigvalsh(1j * (root.T @ symplectic_form(n) @ root))[n:]


def is_valid_covariance(gamma: NDArray[np.float64], tol: float = COV_TOL) -> bool:
    """True when Gamma is symmetric, positive definite and Gamma + i Sigma >= 0."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim != 2 or gamma.shape[0] != gamma.shape[1] or gamma.shape[0] % 2:
        return False
    if not np.allclose(gamma, gamma.T, rtol=0.0, atol=1e-10 * (1.0 + np.abs(gamma).max())):
        return False
    try:
        spec = symplectic_spectrum(gamma)
    except ValueError:
        return False
    return bool(spec.min() >= 1.0 - tol)


def is_pure(gamma: NDArray[np.float64], tol: float = 1e-9) -> bool:
    """Purity test: (Sigma Gamma)^2 = -1 exactly on pure Gaussian states.

    The residual of a pure state held in doubles rounds like eps ||Gamma||_F^2
    (6e-6 at squeezing r = 6), so the bound is tol + 8 eps ||Gamma||_F^2.
    """
    return bool(purity_residual(gamma) <= _purity_bound(gamma, tol))


def _purity_bound(gamma: NDArray[np.float64], tol: float) -> float:
    return tol + 8.0 * np.finfo(float).eps * float(np.sum(np.square(gamma, dtype=float)))


def purity_residual(gamma: NDArray[np.float64]) -> float:
    gamma = np.asarray(gamma, dtype=float)
    n = gamma.shape[0] // 2
    sg = symplectic_form(n) @ gamma
    return float(np.linalg.norm(sg @ sg + np.eye(2 * n)))


def mean_energy(gamma: NDArray[np.float64], w: NDArray[np.float64]) -> float:
    """Energy expectation tr(W Gamma)/4 of a zero-mean Gaussian state.

    Summed elementwise in O(n^2).  The flow of W conserves it along a trajectory.
    """
    return float(np.einsum("ij,ji->", np.asarray(w, float), np.asarray(gamma, float)) / 4.0)


def make_pure_gaussian(r: float, theta: float) -> NDArray[np.float64]:
    """Single-mode pure squeezed covariance R(theta) diag(e^{2r}, e^{-2r}) R(theta)^T."""
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    return rot @ np.diag([np.exp(2.0 * r), np.exp(-2.0 * r)]) @ rot.T
