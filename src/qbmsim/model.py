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

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .symplectic import NormalModes, _modes_of_doubled

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
        _check_squares(omegas)
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "kappas", kappas)
        # 2V doubled in place, bit for bit 2.0 * V: no second n x n copy while eigh runs
        two_v = _potential_entries(omegas, kappas)
        two_v *= 2.0
        object.__setattr__(self, "modes", _positive_definite_modes(two_v))

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
    Raises ValueError for a family that builds no network, such as a sum of
    omega_j**(2 * exponent) that is 0 or inf in doubles; n_env 4.0 is kept as 4.
    """

    exponent: float
    omega_max: float
    coupling_norm: float
    n_env: int

    def __post_init__(self) -> None:
        if not self.omega_max > 0.0:
            raise ValueError("omega_max must be positive")
        if not self.coupling_norm >= 0.0:
            raise ValueError("coupling_norm must be nonnegative")
        if not (self.n_env >= 1 and float(self.n_env).is_integer()):
            raise ValueError("n_env must be a positive integer")
        object.__setattr__(self, "n_env", int(self.n_env))
        # the largest squared weight decides the sum wherever n_env of it, with slack, stay
        # finite: then a family whose n_env no workflow runs, a sweep's, allocates nothing
        with np.errstate(over="ignore"):
            top = float(np.max(_weights_at(self, np.array([1.0, self.n_env]))[1] ** 2))
        if not (0.0 < top and 2.0 * self.n_env * top < math.inf):  # a NaN fails too
            # a top of 0 or inf is the sum's; between, it must be summed as it was
            total = top if top in (0.0, math.inf) else _bath_weights(self)[2]
            if not 0.0 < total < np.inf:
                raise ValueError(
                    f"sum of omega_j^(2p) over the bath is {total:g} in double precision; "
                    "omega_max and p leave no coupling weights to normalise")
        # every network of the family, whatever its n_env, has omega_max on V's diagonal
        _check_squares(np.array([self.omega_max]))


def _bath_weights(fam: SpectralFamily) -> tuple[NDArray[np.float64], NDArray[np.float64], float]:
    """The bath frequencies, their weights omega_j**exponent and the sum of squared weights."""
    omega_env, weights = _weights_at(fam, np.arange(1, fam.n_env + 1, dtype=float))
    with np.errstate(over="ignore"):
        return omega_env, weights, np.sum(weights**2)


def _weights_at(fam: SpectralFamily,
                j: NDArray[np.float64]) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """The frequencies j * omega_max / n_env of bath modes j and their weights omega**exponent.

    The weight is monotone in omega, so the largest lies at j = 1 or j = n_env.
    """
    omega_env = j * fam.omega_max / fam.n_env
    with np.errstate(over="ignore"):
        return omega_env, omega_env**fam.exponent


def _check_squares(omegas: NDArray[np.float64]) -> None:
    """Raise ValueError naming a frequency whose square, on V's diagonal, overflows to inf."""
    with np.errstate(over="ignore"):
        finite = np.isfinite(np.square(omegas))
    if not finite.all():
        w = omegas[np.argmin(finite)]
        raise ValueError(f"squared frequency ({w:g})^2 overflows double precision")


def _potential_entries(omegas: NDArray[np.float64],
                       kappas: NDArray[np.float64]) -> NDArray[np.float64]:
    v = np.diag(omegas**2 / 2.0)
    # -kappa/2 in both off-diagonal slots so that x^T V x reproduces the
    # coupling term -x0 * sum_j kappa_j xj exactly.
    v[0, 1:] = -kappas / 2.0
    v[1:, 0] = -kappas / 2.0
    return v


def _positive_definite_modes(two_v: NDArray[np.float64]) -> NormalModes:
    """Normal modes of V, given as 2V, which must be positive definite beyond POS_DEF_RTOL."""
    try:
        modes = _modes_of_doubled(two_v)
    except ValueError as exc:
        raise ValueError(f"{exc}; {_indefinite_cause(two_v)}") from None
    # eigenvalues of V, ascending
    eigs = modes.tilde_omegas**2 / 2.0
    if not eigs[0] > POS_DEF_RTOL * eigs[-1]:  # a NaN eigenvalue fails too
        raise ValueError(
            "stiffness matrix is not positive definite "
            f"(min eigenvalue {eigs[0]:.3e}, norm {eigs[-1]:.3e}); {_indefinite_cause(two_v)}"
        )
    return modes


def _indefinite_cause(two_v: NDArray[np.float64]) -> str:
    """Why V failed, given as 2V: its uncoupled diagonal omega^2/2 alone, or the couplings."""
    d = two_v.diagonal()
    if d.min() <= POS_DEF_RTOL * d.max():
        return (f"the squared frequencies alone, {d.min():.3e} to {d.max():.3e}, "
                f"span more than 1/POS_DEF_RTOL = {1.0 / POS_DEF_RTOL:.0e}")
    return "couplings are too strong for the given frequencies"


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
    norm makes the stiffness matrix lose positive definiteness.
    """
    omega_env, weights, total = _bath_weights(fam)
    alpha = np.sqrt(fam.coupling_norm / total)
    kappas = alpha * weights
    omegas = np.concatenate(([float(omega_sys)], omega_env))
    return OscillatorNetwork(omegas=omegas, kappas=kappas)
