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
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .entanglement import (
    lambda_of_block,
    ppt_verdict,
    product_state_pt_minima,
    reduce_two_mode,
)
from .model import OscillatorNetwork, SpectralFamily, make_spectral_model
from .symplectic import (
    _gibbs_blocks,
    _purity_bound,
    is_pure,
    is_valid_covariance,
    purity_residual,
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


def _gap_blocks(omega_bath: NDArray[np.float64],
                env_blocks: tuple[NDArray[np.float64], NDArray[np.float64]],
                beta: float) -> Iterator[NDArray[np.float64]]:
    """Position, then momentum block of Gamma(beta H_bath) - env; it has no x-p entries."""
    d = thermal_diagonal(omega_bath, beta)
    for env, diag in zip(env_blocks, (d[0::2], d[1::2])):
        # (0 - e) + d rounds exactly like d - e, signed zeros included
        gap = 0.0 - env
        gap[np.diag_indices_from(gap)] += diag
        yield gap


#: unit roundoff of IEEE double precision
_UNIT_ROUNDOFF = 2.0**-53

#: float64 entries per row chunk of an n x n sweep (256 KB)
_CHUNK_ENTRIES = 32768

#: warm-started power steps before each Temple bound
_POWER_STEPS = 3


class _GapBlock:
    """One n x n block A = diag(d) - E - margin * I of the bath gap, for bisection.

    decide(d, margin) returns exactly the boolean that np.linalg.cholesky
    gives on the gap built as gap = 0 - E, gap_ii += d_i, gap_ii -= margin,
    deciding in O(n) or O(n^2) from rigorous bounds wherever they settle it
    and running that very Cholesky otherwise.  With a_i = ((0 - E_ii) + d_i)
    - margin, the diagonal of that gap, and H = S A S for S = diag(a^-1/2)
    (unit diagonal, so H = I - K with K = S offdiag(E) S):

    - a_i <= 0 for some i: infeasible.  Every pivot of row i is a_i minus
      rounded squares, hence <= a_i, and LAPACK stops on a pivot <= 0.
    - lambda_min(H) > tau with tau = 8 n g / (1 - n g), g = gamma_{n+1} =
      (n+1) u / (1 - (n+1) u): Cholesky succeeds, by Demmel's bound (Higham,
      Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 10.7,
      which needs only n g / (1 - g)).
    - lambda_min(H) < -tau: Cholesky fails.  A factor R that ran to the end
      has R^T R = A + dA with |dA_ij| <= g/(1 - g) sqrt(a_i a_j) (Higham
      Thm 10.3 and Cauchy-Schwarz), so lambda_min(H) >= -||S dA S||_2 >= -tau/8.

    lambda_min(H) is bounded from ||K||_F (lambda_min >= 1 - ||K||_F) and,
    when that does not settle it, from a few warm-started power steps on K:
    for the iterate y, c = y^T K y and r = K y - c y, with eta = sqrt(||K||_F^2
    - c^2) >= mu_2(K), the Kato-Temple inequality gives 1 - c - |r|^2/(c -
    eta) <= lambda_min(H) when c > eta, and the Rayleigh quotient
    lambda_min(H) <= 1 - c always.  Each bound is widened by a rounding
    allowance for s, K y, c, r and ||K||_F, and by the asymmetry of E in its
    last bits (LAPACK reads one triangle).  A proven lambda_min(H) > tau also
    holds for every larger diagonal a' >= a: for unit x and y_i = x_i
    sqrt(a_i / a'_i), x^T H' x >= sum x_i^2 (1 - (1 - lambda) a_i / a'_i) >=
    lambda when lambda = lambda_min(H) <= 1.  So the block keeps the last
    such a and certifies every later a' >= a in O(n).  Between -tau and tau,
    or when the bounds are too loose, it falls back to np.linalg.cholesky on
    the gap built exactly as before.
    """

    def __init__(self, env: NDArray[np.float64]) -> None:
        env = np.asarray(env, dtype=float)
        n = env.shape[0]
        self.diag = env.diagonal().copy()
        # zero-diagonal copy: K's matvecs, ||K||_F and the fallback's off-diagonal
        self.off = np.array(env, order="C")
        np.fill_diagonal(self.off, 0.0)
        self.rows = max(1, _CHUNK_ENTRIES // n)
        u = _UNIT_ROUNDOFF
        g = (n + 1) * u / (1.0 - (n + 1) * u)
        self.tau = 8.0 * n * g / (1.0 - n * g)
        self.rounding = 8.0 * (n + 8) * u
        self.rho = self._asymmetry()
        self.certified: NDArray[np.float64] | None = None
        self.y: NDArray[np.float64] | None = None

    def _chunks(self) -> Iterator[slice]:
        n = self.off.shape[0]
        return (slice(i, min(i + self.rows, n)) for i in range(0, n, self.rows))

    def _asymmetry(self) -> float:
        """Smallest rho with |E_ij - E_ji| <= rho sqrt(|E_ii E_jj|) off the diagonal."""
        root = np.sqrt(np.abs(self.diag))
        rho = 0.0
        for rows in self._chunks():
            ratio = np.subtract(self.off[rows], self.off[:, rows].T)
            np.abs(ratio, out=ratio)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio /= root[rows, None]
                ratio /= root
            # 0/0 where E_ij = E_ji and a diagonal entry is 0
            rho = max(rho, float(np.fmax.reduce(ratio, axis=None, initial=0.0)))
        return rho * (1.0 + 4.0 * _UNIT_ROUNDOFF)

    def decide(self, d: NDArray[np.float64], margin: float) -> bool:
        """True exactly when np.linalg.cholesky accepts this block's gap."""
        a = ((0.0 - self.diag) + d) - margin
        if not (a > 0.0).all():
            return False
        verdict = self._bound(a)
        return self._cholesky(a) if verdict is None else verdict

    def _cholesky(self, a: NDArray[np.float64]) -> bool:
        """np.linalg.cholesky on the gap, built in place of the zero-diagonal copy.

        0 - (0 - e) = e, so undoing it restores every entry (a -0.0 as +0.0,
        which builds the same +0.0 gap entry).
        """
        gap, diagonal = self.off, np.diag_indices_from(self.off)
        np.subtract(0.0, gap, out=gap)
        gap[diagonal] = a
        try:
            np.linalg.cholesky(gap)
        except np.linalg.LinAlgError:
            return False
        finally:
            gap[diagonal] = 0.0
            np.subtract(0.0, gap, out=gap)
        return True

    def certify(self, d: NDArray[np.float64], margin: float) -> None:
        """Run the bounds only, so that a proven feasibility serves later steps."""
        a = ((0.0 - self.diag) + d) - margin
        if (a > 0.0).all():
            self._bound(a)

    def _bound(self, a: NDArray[np.float64]) -> bool | None:
        """Feasibility of a block with positive diagonal a; None when only Cholesky can tell."""
        if self.certified is not None and (a >= self.certified).all():
            return True
        w = 1.0 / a
        fro_sq = 0.0
        for rows in self._chunks():
            fro_sq += float(w[rows] @ (np.square(self.off[rows]) @ w))
        # ||K||_F and its allowance; omega bounds the part that asymmetry of E adds
        omega = self.rho * float(np.abs(self.diag) @ w)
        fro = math.sqrt(fro_sq) * (1.0 + self.rounding) + omega
        delta = 2.0 * omega + self.rounding * (1.0 + fro)
        if fro + delta < 1.0 - self.tau:
            self.certified = a
            return True
        s = np.sqrt(w)
        # |K_ij| <= v_i v_j for v = s sqrt(diag E) when E is a covariance: a cold start
        y = s * np.sqrt(np.abs(self.diag)) if self.y is None else self.y
        x = s * (self.off @ (s * y))
        for _ in range(_POWER_STEPS):
            norm = math.sqrt(float(x @ x))
            if not 0.0 < norm < math.inf:
                return None
            y = x / norm
            x = s * (self.off @ (s * y))
        self.y = y
        yy = float(y @ y)
        c = float(y @ x) / yy
        r = x - c * y
        res = math.sqrt(float(r @ r) / yy) * (1.0 + self.rounding) + delta
        c_lo, c_hi = c - delta, c + delta
        if c_lo - 1.0 > self.tau:
            return False
        if c_lo > 0.0:
            eta = math.sqrt(max(fro - c_lo, 0.0) * (fro + c_lo)) * (1.0 + self.rounding)
            if c_lo > eta and 1.0 - c_hi - res**2 / (c_lo - eta) > self.tau + delta:
                self.certified = a
                return True
        return None


def _bath_feasible(omega_bath: NDArray[np.float64], blocks: list[_GapBlock],
                   beta: float, margin: float) -> bool:
    """True when the bath gap minus margin * identity passes Cholesky in both blocks.

    A block after one that fails is not needed for the answer; it runs its
    bounds anyway, so that a feasibility proven at this beta skips it at
    every later, smaller beta.
    """
    d = thermal_diagonal(omega_bath, beta)
    verdict = True
    for block, diag in zip(blocks, (d[0::2], d[1::2])):
        if verdict:
            verdict = block.decide(diag, margin)
        else:
            block.certify(diag, margin)
    return verdict


def _bisect_beta(omega_bath: NDArray[np.float64],
                 env_blocks: tuple[NDArray[np.float64], NDArray[np.float64]],
                 margin: float) -> float:
    """Bisect BETA_BRACKET for the largest beta whose gap over env_blocks is >= margin.

    Every step's verdict is the Cholesky outcome on the position and the
    momentum block of the gap, decided by _GapBlock from bounds where they
    settle it.
    """
    if margin <= 0.0:
        raise ValueError("margin must be positive")
    blocks = [_GapBlock(env) for env in env_blocks]
    lo, hi = BETA_BRACKET
    if not _bath_feasible(omega_bath, blocks, lo, margin):
        raise FeasibilityError(
            f"bath condition infeasible across the whole bracket ({lo:g}, {hi:g}); "
            f"margin {margin:g} may be too large for this model"
        )
    if _bath_feasible(omega_bath, blocks, hi, margin):
        return hi
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if _bath_feasible(omega_bath, blocks, mid, margin):
            lo = mid
        else:
            hi = mid
    return lo


def critical_beta(net: OscillatorNetwork, margin: float = DEFAULT_MARGIN) -> float:
    """Largest bath inverse temperature dominated by the reference Gibbs state.

    Finds beta* such that Gamma(beta H_bath) - [Gamma(gamma_ref H)]_EE >=
    margin * identity.  The thermal factor decreases in beta, so feasibility
    is monotone and bisection applies; the bracket is (1e-6, 1e3) and the
    returned value is feasible with bracket width below 1e-10.  A step is
    feasible when Cholesky accepts the N x N position and momentum blocks of
    the gap minus margin * identity.  Each block decides that outcome from
    rigorous bounds in O(N) (a nonpositive diagonal entry) or O(N^2) (the
    Frobenius norm and a Kato-Temple bracket of the least eigenvalue of the
    unit-diagonal scaling, against Demmel's and the backward-error bounds
    for Cholesky), and runs np.linalg.cholesky only where those leave it
    open; see _GapBlock.  The verdicts, and so beta*, are those of Cholesky
    at every step.
    """
    ref = _gibbs_blocks(net.modes, certificate_constants(net).gamma_ref)
    return _bisect_beta(net.omegas[1:], tuple(g[1:, 1:] for g in ref), margin)


def build_certificate(net: OscillatorNetwork,
                      margin: float = DEFAULT_MARGIN) -> SeparabilityCertificate:
    """Construct an initial system state that stays separable for all times.

    Chooses beta = beta*/2 and takes the smallest system block that makes
    the product state dominate the reference Gibbs state, via the Schur
    complement of the bath gap, plus margin times the identity.  If the
    resulting 2x2 block fails the uncertainty relation (it cannot, up to
    rounding) the margin is doubled, at most 8 attempts.  Positions and momenta
    never mix, so all of this runs on n x n blocks and gamma0_sys is diagonal.
    """
    constants = certificate_constants(net)
    ref = _gibbs_blocks(net.modes, constants.gamma_ref)
    env_blocks = tuple(g[1:, 1:] for g in ref)
    beta_star = _bisect_beta(net.omegas[1:], env_blocks, margin)
    beta = 0.5 * beta_star
    gaps = list(_gap_blocks(net.omegas[1:], env_blocks, beta))
    schur = np.diag([g[0, 0] + g[0, 1:] @ np.linalg.solve(gap, g[0, 1:])
                     for g, gap in zip(ref, gaps)])
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
    # product state minus reference state, block by block; its bath block is the gap
    min_eig, norm = np.inf, 0.0
    for g, gap, sys_entry in zip(ref, gaps, np.diag(gamma0_sys)):
        diff = -g
        diff[0, 0] += sys_entry
        diff[1:, 1:] = gap
        min_eig = min(min_eig, np.linalg.eigvalsh(diff).min())
        norm = max(norm, np.abs(diff).max())
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
    """Evolve the certified state and run the PPT test at every grid time.

    Each time costs O(n^2) and forms no 2n x 2n matrix: product_state_pt_minima
    reads the PT spectrum off rows 0 and 1 of S_t.  Raises ValueError if
    cert.gamma0_sys is unphysical, checked once (the symplectic flow keeps the
    product state's symplectic spectrum), or if times is empty or not finite.
    """
    if not is_valid_covariance(cert.gamma0_sys):
        raise ValueError("certificate gamma0_sys is not a valid single-mode covariance")
    times = _time_grid(times)
    minima = product_state_pt_minima(cert.gamma0_sys, net.modes, net.omegas[1:],
                                     cert.beta, times)
    min_pt = float(minima.min())
    return VerificationReport(
        times=times,
        min_pt_by_time=minima,
        min_pt=min_pt,
        threshold=VERIFY_TOL,
        passed=bool(min_pt >= 1.0 - VERIFY_TOL),
    )


def _time_grid(times: NDArray[np.float64]) -> NDArray[np.float64]:
    """times as a float array; raises ValueError when it is empty or not finite."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("times must not be empty")
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    return times


def _require_pure(gamma_sys: NDArray[np.float64]) -> None:
    """Raise ValueError unless is_pure(gamma_sys, tol=1e-8)."""
    if not is_pure(gamma_sys, tol=1e-8):
        raise ValueError(f"system state must be pure (purity residual "
                         f"{purity_residual(gamma_sys):.3e}, "
                         f"bound {_purity_bound(gamma_sys, 1e-8):.3e})")


def lambda_dot_analytic(gamma_sys: NDArray[np.float64], net: OscillatorNetwork,
                        env_mode: int, beta: float) -> float:
    """Exact d(lambda)/dt at t = 0 for a pure system and a thermal bath: 0.

    Take lambda = d/2 - sqrt(disc) as in lambda_of_block.  At t = 0 the
    product state has C = 0 and C = O(t), so det C and disc's C terms are
    O(t^2).  A and B move under their own traceless generators Sigma W_jj,
    so det A and det B are fixed to first order.  As det A = 1 < det B,
    sqrt(disc) = (det B - det A)/2 + O(t^2), hence lambda'(0) = 0.  B is the
    thermal diag(f/w, f w), so det B = f(beta w)^2.  Raises ValueError for an
    impure system, env_mode outside 1..n_env, or det B - 1 <= DEGENERATE_DET_B
    (a bath mode effectively at zero temperature).
    """
    _require_pure(gamma_sys)
    if not 1 <= env_mode <= net.n_env:
        raise ValueError(f"env_mode must be in 1..{net.n_env}, got {env_mode}")
    det_b = np.prod(thermal_diagonal(net.omegas[env_mode:env_mode + 1], beta))
    if det_b - 1.0 <= DEGENERATE_DET_B:
        raise ValueError(
            f"bath mode {env_mode} is effectively at zero temperature "
            f"(det B - 1 = {det_b - 1.0:.3e}); the derivative at t = 0 is one-sided"
        )
    return 0.0


def lambda_dot_finite_difference(gamma_sys: NDArray[np.float64],
                                 net: OscillatorNetwork, env_mode: int,
                                 beta: float, h: float = 1e-6) -> float:
    """Richardson-refined central difference of lambda_t at t = 0, for a finite step h > 0."""
    if not 0.0 < h < math.inf:
        raise ValueError(f"step h must be positive and finite, got {h!r}")
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
    than raising, so the curve stays available for inspection.  Raises
    ValueError for an impure system state and for times that are empty, not
    finite or not strictly positive.
    """
    gamma_sys = np.asarray(gamma_sys, dtype=float)
    _require_pure(gamma_sys)
    if times is None:
        times = np.geomspace(1e-4, 1e-1, 25)
    times = _time_grid(times)
    if np.any(times <= 0.0):
        raise ValueError("onset times must be strictly positive")
    probed = tuple(int(j) + 1 for j in np.flatnonzero(net.kappas > 0.0))
    if not probed:
        probed = tuple(range(1, net.n_modes))
    gamma0 = product_initial_covariance(gamma_sys, net, beta)
    lam = np.empty((times.size, len(probed)))
    pt_min = np.empty(times.size)
    for i, gamma_t in enumerate(trajectory(gamma0, net.modes, times)):
        lam[i] = lambda_of_block(reduce_two_mode(gamma_t, probed))
        pt_min[i] = ppt_verdict(gamma_t).min_pt_symplectic
    del gamma0, gamma_t  # freed, not stacked under the finite difference's own dense states
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
        lambda_min=lam.min(axis=1),
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
