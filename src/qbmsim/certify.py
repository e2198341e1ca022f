"""Separability certificates and entanglement-onset analysis.

Two complementary workflows live here.  The first constructs a mixed system
state that provably never entangles with a thermal bath: a reference Gibbs
state of the full network dominates the product initial state, domination is
preserved by the symplectic flow, and adding noise to a separable state
keeps it separable.  The second quantifies the opposite regime: a pure
system state entangles with at least one bath mode immediately, and the
onset curve lambda_t is traced on a short-time grid together with the
analytic time derivative at t = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .entanglement import ppt_verdict, reduce_two_mode, lambda_of_block
from .model import OscillatorNetwork, SpectralFamily, make_spectral_model
from .symplectic import (
    gibbs_covariance,
    is_valid_covariance,
    purity_residual,
    symplectic_spectrum,
    thermal_diagonal,
    trajectory,
)

#: default slack for the bath-block feasibility condition
DEFAULT_MARGIN = 1e-6

#: bisection bracket for the critical inverse temperature
BETA_BRACKET = (1e-6, 1e3)

#: verification threshold on the PT symplectic minimum
VERIFY_TOL = 1e-8

#: det(B) - 1 below this makes the onset derivative one-sided
DEGENERATE_DET_B = 1e-12


class FeasibilityError(RuntimeError):
    """No inverse temperature in the searched bracket satisfies the bath condition."""


@dataclass(frozen=True)
class CertificateConstants:
    """Model-derived constants entering the separability certificate.

    omega_env_max is the largest bath frequency, delta twice the squared
    coupling norm, omega_bound an upper bound on the largest normal-mode
    frequency, and gamma_ref the inverse temperature whose full-network
    Gibbs state dominates the vacuum in mode coordinates.
    """

    omega_env_max: float
    delta: float
    omega_bound: float
    gamma_ref: float


@dataclass(frozen=True)
class SeparabilityCertificate:
    constants: CertificateConstants
    beta_star: float
    beta: float
    gamma0_sys: NDArray[np.float64]
    margin: float


@dataclass(frozen=True)
class VerificationReport:
    times: NDArray[np.float64]
    min_pt_by_time: NDArray[np.float64]
    min_pt: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class OnsetReport:
    """Short-time entanglement onset between the system and the bath.

    lambda_by_mode holds the two-mode lambda curves of every probed
    system-mode pair; lambda_min is their per-time minimum.  A pair value
    below 1 certifies entanglement of that pair, hence of the joint state,
    but the converse fails: hot spectator modes inject enough noise that
    every pairwise reduction can stay PPT while the joint state is already
    entangled.  The decisive witness is therefore lambda_full, the squared
    minimum symplectic eigenvalue of the partially transposed joint state,
    and `passed` keys on it.  epsilon_found is the largest grid time t such
    that every sampled time up to t shows joint entanglement.  onset_order
    and onset_coeff come from fitting 1 - lambda_full ~ coeff * t**order on
    the small-time part of the curve.
    """

    times: NDArray[np.float64]
    probed_modes: tuple[int, ...]
    lambda_by_mode: NDArray[np.float64]
    lambda_min: NDArray[np.float64]
    pt_min: NDArray[np.float64]
    lambda_dot0: float
    lambda_dot0_fd: float
    onset_order: float
    onset_coeff: float
    epsilon_found: float
    passed: bool

    @property
    def lambda_full(self) -> NDArray[np.float64]:
        return self.pt_min ** 2

    @property
    def onset_curve(self) -> list[tuple[float, float]]:
        return list(zip(self.times.tolist(), self.lambda_full.tolist()))


@dataclass(frozen=True)
class ScalingRow:
    n_env: int
    delta: float
    omega_bound: float
    gamma_ref: float
    beta_star: float


def certificate_constants(net: OscillatorNetwork) -> CertificateConstants:
    """Compute the reference inverse temperature and its ingredients.

    gamma_ref = min(2, ln(1 + 2/Omega)/Omega) with Omega^2 = omega_env_max^2
    + 2 sqrt(delta); at this inverse temperature every normal mode of the
    coupled network carries at least vacuum noise in both quadratures.
    """
    if net.n_env < 1:
        raise ValueError("certificate constants need at least one bath mode")
    omega_env_max = float(net.omegas[1:].max())
    delta = float(2.0 * np.sum(net.kappas**2))
    omega_bound = math.sqrt(omega_env_max**2 + 2.0 * math.sqrt(delta))
    gamma = min(2.0, math.log1p(2.0 / omega_bound) / omega_bound)
    return CertificateConstants(
        omega_env_max=omega_env_max,
        delta=delta,
        omega_bound=omega_bound,
        gamma_ref=gamma,
    )


def bath_gibbs_covariance(net: OscillatorNetwork, beta: float) -> NDArray[np.float64]:
    """Thermal covariance of the uncoupled bath, shape (2N, 2N); it is diagonal."""
    return np.diag(thermal_diagonal(net.omegas[1:], beta))


def product_initial_covariance(gamma_sys: NDArray[np.float64],
                               net: OscillatorNetwork,
                               beta: float) -> NDArray[np.float64]:
    """System state tensored with the thermal bath at inverse temperature beta."""
    gamma_sys = np.asarray(gamma_sys, dtype=float)
    if gamma_sys.shape != (2, 2):
        raise ValueError("system covariance must be 2x2")
    d = thermal_diagonal(net.omegas[1:], beta)
    out = np.zeros((d.size + 2,) * 2)
    out[:2, :2] = gamma_sys
    np.fill_diagonal(out[2:, 2:], d)
    return out


def _bath_gap(omega_bath: NDArray[np.float64], env_block: NDArray[np.float64],
              beta: float) -> NDArray[np.float64]:
    """Gamma(beta H_bath) - env_block, adding the bath's diagonal in place."""
    # (0 - e) + d rounds exactly like d - e, signed zeros included
    gap = 0.0 - env_block
    gap[np.diag_indices_from(gap)] += thermal_diagonal(omega_bath, beta)
    return gap


def _bath_feasible(omega_bath: NDArray[np.float64],
                   neg_blocks: tuple[NDArray[np.float64], NDArray[np.float64]],
                   beta: float, margin: float) -> bool:
    """True when the bath gap minus margin * identity is positive definite.

    neg_blocks are the position and momentum blocks of -env_block.  The gap
    has no x-p entries, so it is definite exactly when both blocks are; each
    is tested by a Cholesky factorisation on its own diagonal-shifted copy.
    """
    d = thermal_diagonal(omega_bath, beta)
    for neg, diag in zip(neg_blocks, (d[0::2], d[1::2])):
        shifted = neg.copy()
        # same rounding as ((0 - e) + d) - margin on the full gap's diagonal
        shifted[np.diag_indices_from(shifted)] += diag
        shifted[np.diag_indices_from(shifted)] -= margin
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            return False
    return True


def _bisect_beta(omega_bath: NDArray[np.float64], env_block: NDArray[np.float64],
                 margin: float) -> float:
    """Bisect BETA_BRACKET for the largest beta whose bath gap is >= margin.

    Feasibility is tested by Cholesky on the position and momentum blocks of
    the gap, which needs env_block to have no x-p entries; a Gibbs state of
    the network has none, and any other input raises ValueError.
    """
    if margin <= 0.0:
        raise ValueError("margin must be positive")
    if np.any(env_block[0::2, 1::2]) or np.any(env_block[1::2, 0::2]):
        raise ValueError("env_block has x-p correlations; the bath gap does not "
                         "split into position and momentum blocks")
    # (0 - e) rounds like the full gap's 0.0 - env_block, signed zeros included
    neg_blocks = (0.0 - env_block[0::2, 0::2], 0.0 - env_block[1::2, 1::2])
    lo, hi = BETA_BRACKET
    if not _bath_feasible(omega_bath, neg_blocks, lo, margin):
        raise FeasibilityError(
            f"bath condition infeasible across the whole bracket ({lo:g}, {hi:g}); "
            f"margin {margin:g} may be too large for this model"
        )
    if _bath_feasible(omega_bath, neg_blocks, hi, margin):
        return hi
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if _bath_feasible(omega_bath, neg_blocks, mid, margin):
            lo = mid
        else:
            hi = mid
    return lo


def critical_beta(net: OscillatorNetwork, margin: float = DEFAULT_MARGIN) -> float:
    """Largest bath inverse temperature dominated by the reference Gibbs state.

    Finds beta* such that Gamma(beta H_bath) - [Gamma(gamma_ref H)]_EE >=
    margin * identity.  The thermal factor decreases in beta, so feasibility
    is monotone and bisection applies; the bracket is (1e-6, 1e3) and the
    returned value is feasible with bracket width below 1e-10.  Each step
    tests feasibility by Cholesky on the position and momentum blocks of the
    gap, which decouple because the reference Gibbs state has no x-p entries.
    """
    constants = certificate_constants(net)
    full = gibbs_covariance(net.modes, constants.gamma_ref)
    return _bisect_beta(net.omegas[1:], full[2:, 2:], margin)


def build_certificate(net: OscillatorNetwork,
                      margin: float = DEFAULT_MARGIN) -> SeparabilityCertificate:
    """Construct an initial system state that stays separable for all times.

    Chooses beta = beta*/2 and takes the smallest system block that makes
    the product state dominate the reference Gibbs state, via the Schur
    complement of the bath gap, plus margin times the identity.  If the
    resulting 2x2 block fails the uncertainty relation (it cannot, up to
    rounding) the margin is doubled, at most 8 attempts.
    """
    constants = certificate_constants(net)
    full = gibbs_covariance(net.modes, constants.gamma_ref)
    beta_star = _bisect_beta(net.omegas[1:], full[2:, 2:], margin)
    beta = 0.5 * beta_star
    sys_block = full[:2, :2]
    cross = full[:2, 2:]
    gap = _bath_gap(net.omegas[1:], full[2:, 2:], beta)
    schur = sys_block + cross @ np.linalg.solve(gap, cross.T)
    schur = (schur + schur.T) / 2.0
    m = margin
    for _ in range(8):
        gamma0_sys = schur + m * np.eye(2)
        if is_valid_covariance(gamma0_sys):
            break
        m *= 2.0
    else:
        raise RuntimeError(
            "system block failed the uncertainty relation even after margin inflation"
        )
    # product state minus reference state; its bath block is the gap above
    diff = -full
    diff[:2, :2] += gamma0_sys
    diff[2:, 2:] = gap
    min_eig = np.linalg.eigvalsh(diff).min()
    norm = np.abs(diff).max()
    if min_eig < -1e-10 * max(norm, 1.0):
        raise RuntimeError(
            f"certificate does not dominate the reference state (min eig {min_eig:.3e})"
        )
    return SeparabilityCertificate(
        constants=constants,
        beta_star=beta_star,
        beta=beta,
        gamma0_sys=gamma0_sys,
        margin=m,
    )


def verify_all_times_separable(cert: SeparabilityCertificate,
                               net: OscillatorNetwork,
                               times: NDArray[np.float64]) -> VerificationReport:
    """Evolve the certified state and run the PPT test at every grid time."""
    times = np.asarray(times, dtype=float)
    gamma0 = product_initial_covariance(cert.gamma0_sys, net, cert.beta)
    minima = np.empty(times.size)
    for i, (t, gamma_t) in enumerate(zip(times, trajectory(gamma0, net.modes, times))):
        spec = symplectic_spectrum(gamma_t)
        if spec.min() < 1.0 - 1e-9:
            raise RuntimeError(
                f"evolved covariance invalid at t={t:g} "
                f"(min symplectic eigenvalue {spec.min():.12f}); propagator bug"
            )
        minima[i] = ppt_verdict(gamma_t).min_pt_symplectic
    min_pt = float(minima.min())
    return VerificationReport(
        times=times,
        min_pt_by_time=minima,
        min_pt=min_pt,
        threshold=VERIFY_TOL,
        passed=bool(min_pt >= 1.0 - VERIFY_TOL),
    )


def lambda_dot_analytic(gamma_sys: NDArray[np.float64], net: OscillatorNetwork,
                        env_mode: int, beta: float) -> float:
    """Exact d(lambda)/dt at t = 0 for a pure system and a thermal bath: 0.

    Take lambda = d/2 - sqrt(disc) as in lambda_of_block.  At t = 0 the
    product state has C = 0 and C = O(t), so det C and disc's C terms are
    O(t^2).  A and B move under their own traceless generators Sigma W_jj,
    so det A and det B are fixed to first order.  As det A = 1 < det B,
    sqrt(disc) = (det B - det A)/2 + O(t^2), hence lambda'(0) = 0.  Raises
    ValueError for an impure system, env_mode outside 1..n_env, or
    det B - 1 <= DEGENERATE_DET_B (a bath mode effectively at zero temperature).
    """
    resid = purity_residual(np.asarray(gamma_sys, dtype=float))
    if resid > 1e-8:
        raise ValueError(f"system state must be pure (purity residual {resid:.3e})")
    block = reduce_two_mode(product_initial_covariance(gamma_sys, net, beta), env_mode)
    det_b = np.linalg.det(block.b)
    if det_b - 1.0 <= DEGENERATE_DET_B:
        raise ValueError(
            f"bath mode {env_mode} is effectively at zero temperature "
            f"(det B - 1 = {det_b - 1.0:.3e}); the derivative at t = 0 is one-sided"
        )
    return 0.0


def lambda_dot_finite_difference(gamma_sys: NDArray[np.float64],
                                 net: OscillatorNetwork, env_mode: int,
                                 beta: float, h: float = 1e-6) -> float:
    """Richardson-refined central difference of lambda_t at t = 0."""
    gamma0 = product_initial_covariance(gamma_sys, net, beta)
    half = h / 2.0
    lam_h, lam_mh, lam_half, lam_mhalf = (
        lambda_of_block(reduce_two_mode(gamma_t, env_mode))
        for gamma_t in trajectory(gamma0, net.modes, (h, -h, half, -half)))
    central_h = (lam_h - lam_mh) / (2.0 * h)
    central_half = (lam_half - lam_mhalf) / (2.0 * half)
    return float((4.0 * central_half - central_h) / 3.0)


def immediate_entanglement_check(gamma_sys: NDArray[np.float64],
                                 net: OscillatorNetwork, beta: float,
                                 times: NDArray[np.float64] | None = None) -> OnsetReport:
    """Probe the joint state and every coupled pair for short-time entanglement.

    The system state must be pure.  Defaults to 25 logarithmically spaced
    times in [1e-4, 1e-1], small enough to expose the onset and large enough
    that 1 - lambda sits above rounding noise.  The check passes when the
    partially transposed joint state is nonphysical (lambda_full < 1) at
    every sampled time; per-pair curves are recorded alongside but do not
    gate the verdict, since they certify only one direction.  If some time
    shows no entanglement the report is returned with passed=False rather
    than raising, so the curve stays available for inspection.
    """
    gamma_sys = np.asarray(gamma_sys, dtype=float)
    resid = purity_residual(gamma_sys)
    if resid > 1e-8:
        raise ValueError(f"system state must be pure (purity residual {resid:.3e})")
    if times is None:
        times = np.geomspace(1e-4, 1e-1, 25)
    times = np.asarray(times, dtype=float)
    if np.any(times <= 0.0):
        raise ValueError("onset times must be strictly positive")
    probed = tuple(int(j) + 1 for j in np.flatnonzero(net.kappas > 0.0))
    if not probed:
        probed = tuple(range(1, net.n_modes))
    gamma0 = product_initial_covariance(gamma_sys, net, beta)
    lam = np.empty((times.size, len(probed)))
    pt_min = np.empty(times.size)
    for i, gamma_t in enumerate(trajectory(gamma0, net.modes, times)):
        for j, mode in enumerate(probed):
            lam[i, j] = lambda_of_block(reduce_two_mode(gamma_t, mode))
        pt_min[i] = ppt_verdict(gamma_t).min_pt_symplectic
    lam_min = lam.min(axis=1)
    entangled = pt_min < 1.0
    passed = bool(entangled.all())
    if passed:
        epsilon = float(times[-1])
    else:
        first_bad = int(np.argmin(entangled))
        epsilon = float(times[first_bad - 1]) if first_bad > 0 else 0.0
    leading = probed[int(np.argmin(lam[0]))]
    try:
        ld0 = lambda_dot_analytic(gamma_sys, net, leading, beta)
    except ValueError:
        # purity and the mode index hold here: only a zero-temperature mode raises
        ld0 = ld0_fd = float("nan")
    else:
        ld0_fd = lambda_dot_finite_difference(gamma_sys, net, leading, beta)
    order, coeff = _fit_onset(times, pt_min ** 2)
    return OnsetReport(
        times=times,
        probed_modes=probed,
        lambda_by_mode=lam,
        lambda_min=lam_min,
        pt_min=pt_min,
        lambda_dot0=ld0,
        lambda_dot0_fd=ld0_fd,
        onset_order=order,
        onset_coeff=coeff,
        epsilon_found=epsilon,
        passed=passed,
    )


def _fit_onset(times: NDArray[np.float64],
               lam: NDArray[np.float64]) -> tuple[float, float]:
    """Least-squares fit of 1 - lambda ~ c * t**k on the onset window.

    Points are kept when 1 - lambda is above rounding noise (1e-11) and
    below 0.5, the small-depletion regime where the power law applies.
    """
    gap = 1.0 - lam
    keep = (gap > 1e-11) & (gap < 0.5)
    if keep.sum() < 3:
        return float("nan"), float("nan")
    slope, intercept = np.polyfit(np.log(times[keep]), np.log(gap[keep]), 1)
    return float(slope), float(np.exp(intercept))


def n_scaling_study(fam: SpectralFamily, ns: list[int],
                    margin: float = DEFAULT_MARGIN,
                    omega_sys: float = 1.0) -> list[ScalingRow]:
    """Certificate constants and critical beta across bath sizes.

    ns must be strictly ascending.  The coupling family keeps the squared
    coupling norm fixed, so gamma_ref should be independent of N and
    beta_star should stay bounded away from zero.
    """
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("bath sizes must be strictly ascending")
    rows = []
    for n in ns:
        net = make_spectral_model(replace(fam, n_env=int(n)), omega_sys=omega_sys)
        constants = certificate_constants(net)
        beta_star = critical_beta(net, margin=margin)
        rows.append(ScalingRow(
            n_env=int(n),
            delta=constants.delta,
            omega_bound=constants.omega_bound,
            gamma_ref=constants.gamma_ref,
            beta_star=beta_star,
        ))
    return rows
