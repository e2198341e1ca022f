"""Oscillator-network model: one tagged oscillator bilinearly coupled to a bath.

The network consists of a distinguished system oscillator (index 0) and N
bath oscillators (indices 1..N), all of unit mass, with Hamiltonian

    H = p0^2/2 + w0^2 x0^2/2                      (system)
      + sum_j (pj^2/2 + wj^2 xj^2/2)              (bath)
      - x0 * sum_j kj xj                          (coupling)

Everything downstream works with the stiffness matrix V (positions) and the
full phase-space quadratic form W, ordered as (x0, p0, x1, p1, ...).  A
network diagonalises V once, on construction, and keeps the result as its
`modes`; the Gibbs states, the propagator and every workflow reuse it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .symplectic import NormalModes, normal_modes

POS_DEF_RTOL = 1e-12


def _readonly(a: NDArray[np.float64]) -> NDArray[np.float64]:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class OscillatorNetwork:
    """Frequencies and couplings of the system+bath network.

    Parameters
    ----------
    omegas : array_like, shape (N+1,)
        Angular frequencies; omegas[0] is the system oscillator.
    kappas : array_like, shape (N,)
        Bilinear position couplings of the system to each bath mode.

    All frequencies must be positive and the resulting stiffness matrix
    strictly positive definite; values are immutable after construction.
    modes holds the normal modes of V, computed once on construction.
    """

    omegas: NDArray[np.float64]
    kappas: NDArray[np.float64]
    modes: NormalModes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        omegas = _readonly(self.omegas)
        kappas = _readonly(self.kappas)
        if omegas.ndim != 1 or omegas.size < 1:
            raise ValueError("omegas must be a 1-d array with at least one entry")
        if kappas.ndim != 1 or kappas.size != omegas.size - 1:
            raise ValueError(
                f"kappas must have length {omegas.size - 1}, got {kappas.size}"
            )
        if not np.all(np.isfinite(omegas)) or not np.all(np.isfinite(kappas)):
            raise ValueError("frequencies and couplings must be finite")
        if np.any(omegas <= 0.0):
            raise ValueError("all frequencies must be positive")
        if np.any(kappas < 0.0):
            raise ValueError("couplings must be nonnegative")
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "kappas", kappas)
        object.__setattr__(self, "modes",
                           _positive_definite_modes(_potential_entries(omegas, kappas)))

    @property
    def n_env(self) -> int:
        return self.kappas.size

    @property
    def n_modes(self) -> int:
        return self.omegas.size


@dataclass(frozen=True)
class SpectralFamily:
    """Power-law coupling family kappa_j proportional to omega_j**exponent.

    Bath frequencies are the uniform grid j*omega_max/n_env for j = 1..n_env
    and the couplings are normalised so that sum(kappa**2) == coupling_norm.
    exponent 1 is the linear (Ohmic-like) family; <1 softer, >1 stiffer.
    """

    exponent: float
    omega_max: float
    coupling_norm: float
    n_env: int

    def __post_init__(self) -> None:
        if self.omega_max <= 0.0:
            raise ValueError("omega_max must be positive")
        if self.coupling_norm < 0.0:
            raise ValueError("coupling_norm must be nonnegative")
        if self.n_env < 1:
            raise ValueError("n_env must be at least 1")


def _potential_entries(omegas: NDArray[np.float64],
                       kappas: NDArray[np.float64]) -> NDArray[np.float64]:
    v = np.diag(omegas**2 / 2.0)
    # -kappa/2 in both off-diagonal slots so that x^T V x reproduces the
    # coupling term -x0 * sum_j kappa_j xj exactly.
    v[0, 1:] = -kappas / 2.0
    v[1:, 0] = -kappas / 2.0
    return v


def _positive_definite_modes(v: NDArray[np.float64]) -> NormalModes:
    """Normal modes of V, which must be positive definite beyond POS_DEF_RTOL."""
    advice = "couplings are too strong for the given frequencies"
    try:
        modes = normal_modes(v)
    except ValueError as exc:
        raise ValueError(f"{exc}; {advice}") from None
    # eigenvalues of V, ascending
    eigs = modes.tilde_omegas**2 / 2.0
    if eigs[0] <= POS_DEF_RTOL * eigs[-1]:
        raise ValueError(
            "stiffness matrix is not positive definite "
            f"(min eigenvalue {eigs[0]:.3e}, norm {eigs[-1]:.3e}); {advice}"
        )
    return modes


def build_potential_matrix(net: OscillatorNetwork) -> NDArray[np.float64]:
    """Return the (N+1)x(N+1) stiffness matrix V with H = p.p/2 + x^T V x.

    Diagonal entries are omega_j^2/2; row/column 0 carries -kappa_j/2.
    OscillatorNetwork checks on construction that V is strictly positive
    definite (tolerance 1e-12 relative to ||V||) and keeps its normal modes;
    its arrays are read-only.
    """
    return _potential_entries(net.omegas, net.kappas)


def build_quadratic_form(v: NDArray[np.float64]) -> NDArray[np.float64]:
    """Assemble the phase-space quadratic form W with H = (1/2) o^T W o.

    In the interleaved ordering o = (x0, p0, x1, p1, ...) the position block
    is 2V and the momentum block the identity.
    """
    v = np.asarray(v, dtype=float)
    n = v.shape[0]
    if v.shape != (n, n):
        raise ValueError("V must be square")
    w = np.zeros((2 * n, 2 * n))
    w[0::2, 0::2] = 2.0 * v
    w[1::2, 1::2] = np.eye(n)
    return w


def make_spectral_model(fam: SpectralFamily,
                        omega_sys: float = 1.0) -> OscillatorNetwork:
    """Instantiate the oscillator network for a power-law coupling family.

    Bath frequencies are j*omega_max/n_env for j = 1..n_env; couplings are
    alpha * omega_j**exponent with alpha chosen so that the squared coupling
    norm equals fam.coupling_norm exactly. Raises ValueError if the requested
    norm makes the stiffness matrix lose positive definiteness, or if the sum
    of omega_j**(2 * exponent) is zero or not finite in double precision.
    """
    j = np.arange(1, fam.n_env + 1, dtype=float)
    omega_env = j * fam.omega_max / fam.n_env
    with np.errstate(over="ignore"):
        weights = omega_env**fam.exponent
        total = np.sum(weights**2)
    if not 0.0 < total < np.inf:
        raise ValueError(
            f"sum of omega_j^(2p) over the bath is {total:g} in double precision; "
            "omega_max and p leave no coupling weights to normalise")
    alpha = np.sqrt(fam.coupling_norm / total)
    kappas = alpha * weights
    omegas = np.concatenate(([float(omega_sys)], omega_env))
    return OscillatorNetwork(omegas=omegas, kappas=kappas)
