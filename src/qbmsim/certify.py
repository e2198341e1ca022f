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
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .entanglement import (
    lambda_of_block,
    ppt_verdict,
    product_state_pt_minima,
    reduce_two_mode,
)
from .model import OscillatorNetwork
from .symplectic import (
    COV_TOL,
    NormalModes,
    _gibbs_blocks,
    _purity_bound,
    is_pure,
    is_valid_covariance,
    purity_residual,
    thermal_diagonal,
    thermal_factor,
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

#: time step of lambda_dot_finite_difference
_FD_STEP = 1e-6


class FeasibilityError(RuntimeError):
    """No inverse temperature in the searched bracket satisfies the bath condition."""


class ImpureStateError(ValueError):
    """The system state is not pure, which the short-time onset check requires."""


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
    margin_floor: float = 0.0


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

    lambda_dot0 is the exact d(lambda)/dt at t = 0 of the leading pair, the
    probed mode with the least lambda at the first grid time: 0.  Take
    lambda = d/2 - sqrt(disc) as in lambda_of_block.  The product state has
    C = 0 at t = 0 and C = O(t), so det C and disc's C terms are O(t^2).  A
    and B move under their own traceless generators Sigma W_jj, so det A
    and det B are fixed to first order.  As det A = 1 < det B, sqrt(disc) =
    (det B - det A)/2 + O(t^2), hence lambda'(0) = 0.  B is the thermal
    diag(f/w, f w), so det B = f(beta w)^2.  lambda_dot0_fd is its
    finite-difference check (lambda_dot_finite_difference).  Both are NaN
    when det B - 1 <= DEGENERATE_DET_B: that bath mode is effectively at
    zero temperature, and the derivative at t = 0 is one-sided.
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


def certificate_constants(net: OscillatorNetwork) -> CertificateConstants:
    """Compute the reference inverse temperature and its ingredients.

    gamma_ref = min(2, ln(1 + 2/Omega)/Omega) with Omega^2 = max(omega_sys,
    omega_env_max)^2 + 2 sqrt(delta), which bounds every eigenvalue of 2V
    (Weyl: max_k omega_k^2 + ||kappa||).  At this inverse temperature every
    normal mode carries at least vacuum noise in both quadratures, so the
    reference Gibbs state is >= the identity.
    """
    if net.n_env < 1:
        raise ValueError("certificate constants need at least one bath mode")
    omega_env_max = float(net.omegas[1:].max())
    delta = float(2.0 * np.sum(net.kappas**2))
    omega_max = max(float(net.omegas[0]), omega_env_max)
    omega_bound = math.sqrt(omega_max**2 + 2.0 * math.sqrt(delta))
    gamma = min(2.0, math.log1p(2.0 / omega_bound) / omega_bound)
    return CertificateConstants(
        omega_env_max=omega_env_max,
        delta=delta,
        omega_bound=omega_bound,
        gamma_ref=gamma,
    )


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
    np.fill_diagonal(out[2:, 2:], d.T.ravel())  # thermal_diagonal's rows, interleaved
    return out


#: unit roundoff of IEEE double precision
_UNIT_ROUNDOFF = 2.0**-53

#: float64 entries per row chunk of the Frobenius sweep over E (256 KB): its squares
#: take one chunk, not an n x n temporary
_CHUNK_ENTRIES = 32768

#: side of the square tiles in which _GapBlock mirrors E: 64 x 64 doubles (32 KB)
_MIRROR_TILE = 64
_STRICT_UPPER = np.triu(np.ones((_MIRROR_TILE, _MIRROR_TILE), dtype=bool), 1)

#: warm-started power steps before each Temple bound
_POWER_STEPS = 3

#: relative distance from the estimated beta* at which the first proofs are planted
_PLANT_GAP = 1e-9

#: evaluations the Newton search for beta* may spend
_SEARCH_STEPS = 12

#: attempts at each planted proof, each 16 times further from the estimate
_PLANT_TRIES = 3


def _mirror_lower(a: NDArray[np.float64]) -> None:
    """Copy the strict lower triangle of square a onto its upper one, in place.

    Tile by tile, in a few calls per tile: each transposed read of a tile
    stays in cache, where a row-by-row mirror reads a column of a C-ordered
    n x n array 8n bytes apart per entry and pays one call per row.
    """
    n, k = a.shape[0], _MIRROR_TILE
    for lo in range(0, n, k):
        hi = min(lo + k, n)
        tile = a[lo:hi, lo:hi]
        np.copyto(tile, tile.T.copy(), where=_STRICT_UPPER[:hi - lo, :hi - lo])
        for c in range(hi, n, k):
            a[lo:hi, c:c + k] = a[c:c + k, lo:hi].T


class _GapBlock:
    """One n x n block A = diag(d) - E - margin * I of the bath gap, for bisection.

    decide(d) returns exactly the boolean that np.linalg.cholesky gives on
    the gap built as gap = 0 - E, gap_ii += d_i, gap_ii -= margin, deciding
    in O(n) or O(n^2) from rigorous bounds wherever they settle it and
    running that very Cholesky otherwise.  With a_i = ((0 - E_ii) + d_i)
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
    allowance for s, K y, c, r and ||K||_F.  Bounds and Cholesky see one
    symmetric E: its strict lower triangle, the only one np.linalg.cholesky
    reads, mirrored onto the upper one.  Between -tau and tau, or when the
    bounds are too loose, prove leaves the block open with its diagonal a,
    and _cholesky runs np.linalg.cholesky on the gap built from it exactly
    as before.

    A proof at one diagonal a settles every diagonal on one side of it:

    - Feasibility, lambda_min(H) > tau, holds for every a' >= a: for unit x
      and y_i = x_i sqrt(a_i / a'_i), x^T H' x >= sum x_i^2 (1 - (1 -
      lambda) a_i / a'_i) >= lambda when lambda = lambda_min(H) <= 1.
    - Infeasibility holds for every a' <= a.  A nonpositive a_i stays
      nonpositive.  A proven lambda_min(H) < -tau has a witness z = S x with
      z^T A z < -tau z^T D z, D = diag(a); A' = A - diag(a - a') and D' <= D
      give z^T A' z <= z^T A z < -tau z^T D z <= -tau z^T D' z, so
      lambda_min(H') < -tau for a' > 0 and Cholesky fails by the same
      backward-error argument.

    Rounding is monotone, so a = ((0 - E_ii) + d_i) - margin is nondecreasing
    in the thermal diagonal d in rounded arithmetic too.  prove therefore
    keeps the last proof of each kind on d, for the margin fixed when the
    block is built, and settles a later d' >= d or d' <= d in O(n).

    The bounds also leave what a Newton search for the edge needs: the
    Rayleigh quotient c of the warm power vector y, x = K y, and w = 1/a
    (see newton_step).  A block with a warm y runs its power steps after a
    Frobenius certificate too, so that it keeps a Newton step wherever the
    bounds run.

    The block works in env, which may be a strided view such as the bath
    block g[1:, 1:] of a reference block: it keeps a copy of the diagonal,
    zeroes it, and mirrors the lower triangle.  Each matvec is one BLAS call
    on env, which copies nothing; only the Frobenius sweep runs through row
    chunks (see _CHUNK_ENTRIES).
    """

    def __init__(self, env: NDArray[np.float64], margin: float) -> None:
        n = env.shape[0]
        self.margin = margin
        self.diag = env.diagonal().copy()
        # env itself becomes the zero-diagonal E, lower triangle mirrored without
        # temporaries: K's matvecs, ||K||_F and the fallback's off-diagonal
        self.off = env
        np.fill_diagonal(self.off, 0.0)
        _mirror_lower(self.off)
        self.rows = max(1, _CHUNK_ENTRIES // n)
        u = _UNIT_ROUNDOFF
        g = (n + 1) * u / (1.0 - (n + 1) * u)
        self.tau = 8.0 * n * g / (1.0 - n * g)
        self.rounding = 8.0 * (n + 8) * u
        self.certified: NDArray[np.float64] | None = None
        self.refuted: NDArray[np.float64] | None = None
        # the diagonal a of the last prove when no proof settled it, for Cholesky
        self.open: NDArray[np.float64] | None = None
        self.y: NDArray[np.float64] | None = None
        # the last bounds' Rayleigh quotient, K y and 1/a; c is None when they ran no power steps
        self.c: float | None = None
        self.x: NDArray[np.float64] | None = None
        self.w: NDArray[np.float64] | None = None

    def _chunks(self) -> Iterator[slice]:
        """Row chunks of the Frobenius sweep over E, which squares one chunk at a time."""
        n = self.off.shape[0]
        return (slice(i, min(i + self.rows, n)) for i in range(0, n, self.rows))

    def decide(self, d: NDArray[np.float64]) -> bool:
        """True exactly when np.linalg.cholesky accepts this block's gap."""
        verdict = self.prove(d)
        return self._cholesky() if verdict is None else verdict

    def prove(self, d: NDArray[np.float64]) -> bool | None:
        """The verdict of a kept proof, or of a new one, kept; None when only Cholesky can tell."""
        self.c = self.open = None
        if self.certified is not None and (d >= self.certified).all():
            return True
        if self.refuted is not None and (d <= self.refuted).all():
            return False
        a = ((0.0 - self.diag) + d) - self.margin
        verdict = self._bound(a) if (a > 0.0).all() else False
        if verdict:
            self.certified = d
        elif verdict is not None:
            self.refuted = d
        else:
            self.open = a
        return verdict

    def _cholesky(self) -> bool:
        """np.linalg.cholesky on the gap with the diagonal the last prove left open.

        The gap is built in place of the zero-diagonal copy.  0 - (0 - e) = e,
        so undoing it restores every entry (a -0.0 as +0.0, which builds the
        same +0.0 gap entry).
        """
        gap, diagonal = self.off, np.diag_indices_from(self.off)
        np.subtract(0.0, gap, out=gap)
        gap[diagonal] = self.open
        try:
            np.linalg.cholesky(gap)
        except np.linalg.LinAlgError:
            return False
        finally:
            gap[diagonal] = 0.0
            np.subtract(0.0, gap, out=gap)
        return True

    def _bound(self, a: NDArray[np.float64]) -> bool | None:
        """Feasibility of a block with positive diagonal a; None when only Cholesky can tell."""
        w = 1.0 / a
        fro_sq = 0.0
        for rows in self._chunks():
            fro_sq += float(w[rows] @ (np.square(self.off[rows]) @ w))
        fro = math.sqrt(fro_sq) * (1.0 + self.rounding)
        delta = self.rounding * (1.0 + fro)
        if fro + delta < 1.0 - self.tau:
            if self.y is not None:
                self._power(w)  # a warm block keeps its Newton step
            return True
        res = self._power(w)
        if res is None:
            return None
        c, res = self.c, res * (1.0 + self.rounding) + delta
        c_lo, c_hi = c - delta, c + delta
        if c_lo - 1.0 > self.tau:
            return False
        if c_lo > 0.0:
            eta = math.sqrt(max(fro - c_lo, 0.0) * (fro + c_lo)) * (1.0 + self.rounding)
            if c_lo > eta and 1.0 - c_hi - res**2 / (c_lo - eta) > self.tau + delta:
                return True
        return None

    def _power(self, w: NDArray[np.float64]) -> float | None:
        """Warm-started power steps on K for 1/a = w: the residual norm |K y - c y| / |y|.

        Leaves the Rayleigh quotient c of the last iterate y, x = K y and w on the
        block; None when an iterate over- or underflows.
        """
        s = np.sqrt(w)
        # |K_ij| <= v_i v_j for v = s sqrt(diag E) when E is a covariance: a cold start
        y = s * np.sqrt(np.abs(self.diag)) if self.y is None else self.y
        # E v is one BLAS matvec on the view of the reference block, which copies nothing
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
        self.c, self.x, self.w = c, x, w
        return math.sqrt(float(r @ r) / yy)

    def newton_step(self, a_dot: NDArray[np.float64]) -> float | None:
        """Newton step in beta toward c = 1 from the last bounds; None without a usable one.

        a_dot is da/dbeta.  With y held fixed, dc/dbeta = -sum (a'_i / a_i) y_i x_i
        / y^T y in O(n).  The step is Newton's on 1/c - 1 rather than on 1 - c: K is
        close to rank one on network Gibbs states, so c grows like 1/a_j near the
        beta where a_j reaches 0 and 1/c is close to linear in beta around the edge.
        """
        if self.c is None:
            return None
        slope = -float((a_dot * self.w * self.y) @ self.x) / float(self.y @ self.y)
        return self.c * (1.0 - self.c) / slope if slope > 0.0 else None


def _evaluate_beta(omega_bath: NDArray[np.float64], blocks: list[_GapBlock],
                   beta: float) -> tuple[bool | None, float | None]:
    """What kept proofs and bounds settle at beta, and the edge Newton steps predict.

    The verdict is None unless a block is proved infeasible or both are
    proved feasible; a block left open keeps Cholesky's diagonal.  Every
    block runs, so that one proved feasible here is kept even when another
    is proved infeasible.  The estimate is the least edge that a Newton step
    from the bounds just run predicts; None when they ran no power steps.
    """
    f = thermal_factor(beta * omega_bath)
    # thermal_diagonal's rows, f / w and f w, from the f that the Newton slope needs too
    verdicts = [block.prove(d) for block, d in zip(blocks, (f / omega_bath, f * omega_bath))]
    verdict = False if False in verdicts else None if None in verdicts else True
    if all(block.c is None for block in blocks):
        return verdict, None
    # d/dbeta of f(beta w) / w and of f(beta w) w, with f' = -(f^2 - 1) / 2
    f_dot = -0.5 * (f - 1.0) * (f + 1.0)
    steps = [block.newton_step(a_dot)
             for block, a_dot in zip(blocks, (f_dot, f_dot * omega_bath**2))]
    steps = [step for step in steps if step is not None]
    return verdict, (beta + min(steps) if steps else None)


def _bath_feasible(omega_bath: NDArray[np.float64], blocks: list[_GapBlock],
                   beta: float) -> tuple[bool, float | None]:
    """Cholesky's verdict on both blocks, run where _evaluate_beta left one open; its estimate."""
    verdict, estimate = _evaluate_beta(omega_bath, blocks, beta)
    if verdict is None:
        verdict = all(block._cholesky() for block in blocks if block.open is not None)
    return verdict, estimate


def _search_beta(omega_bath: NDArray[np.float64], blocks: list[_GapBlock],
                 lo: float, hi: float, beta: float) -> float | None:
    """Newton's estimate of beta* in (lo, hi), from a first estimate beta; None without one.

    Each Newton step, at most _SEARCH_STEPS, proves what the bounds can at
    its beta and narrows (lo, hi) by it; a step that leaves (lo, hi) is
    replaced by its midpoint, which the loop evaluates again as its next
    midpoint if no step has narrowed (lo, hi) yet.  It stops once the error left after a step,
    taken as the step times its ratio to the step before, is below the
    planting gap, and returns the last estimate when its steps run out.
    """
    previous = 0.0
    for _ in range(_SEARCH_STEPS):
        if not lo < beta < hi:
            beta = 0.5 * (lo + hi)
        verdict, estimate = _evaluate_beta(omega_bath, blocks, beta)
        if verdict is not None:
            lo, hi = (beta, hi) if verdict else (lo, beta)
        if estimate is None:
            return None
        step = abs(estimate - beta)
        if step * (min(1.0, step / previous) if previous else 1.0) <= _PLANT_GAP * beta:
            return estimate
        previous, beta = step, estimate
    return beta


def _plant(omega_bath: NDArray[np.float64], blocks: list[_GapBlock], beta: float) -> None:
    """Prove infeasibility just above the estimate beta and feasibility just below it.

    Each side tries _PLANT_TRIES betas, each 16 times further from beta,
    until one proves its side; the blocks keep every proof made.  The
    infeasible side comes first: every block runs there, so the blocks that
    do not bind are proved feasible up to it.
    """
    for side in (1.0, -1.0):
        gap = _PLANT_GAP
        for _ in range(_PLANT_TRIES):
            verdict, _ = _evaluate_beta(omega_bath, blocks, beta * (1.0 + side * gap))
            if verdict is (side < 0.0):
                break
            gap *= 16.0


def _bisect_beta(omega_bath: NDArray[np.float64],
                 env_blocks: tuple[NDArray[np.float64], NDArray[np.float64]],
                 margin: float) -> float:
    """Bisect BETA_BRACKET for the largest beta whose gap over env_blocks is >= margin.

    Once the ends of the bracket are checked, one loop halves the bracket at
    its midpoints, each normally evaluated once by _bath_feasible, the
    Cholesky outcome on the position and the momentum block: a kept proof settles it
    in O(n), the bounds in O(n^2), Cholesky the rest.  The first midpoint
    whose bounds leave a Newton estimate inside the bracket the loop has
    reached starts _search_beta there, and _plant proves both sides of its
    estimate; the blocks keep those proofs, so the loop decides every later
    midpoint outside the two in O(n).  Both blocks are built with margin,
    fixed for every proof they keep.  The bisection works in env_blocks,
    two writeable float64 arrays or views, and leaves each with a zero
    diagonal and its strict lower triangle mirrored onto the upper one.
    """
    if not margin > 0.0:
        raise ValueError("margin must be positive")
    blocks = [_GapBlock(env, margin) for env in env_blocks]
    lo, hi = BETA_BRACKET
    if not _bath_feasible(omega_bath, blocks, lo)[0]:
        raise FeasibilityError(
            f"bath condition infeasible across the whole bracket ({lo:g}, {hi:g}); "
            f"margin {margin:g} may be too large for this model"
        )
    if _bath_feasible(omega_bath, blocks, hi)[0]:
        return hi
    searching = True
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        feasible, estimate = _bath_feasible(omega_bath, blocks, mid)
        lo, hi = (mid, hi) if feasible else (lo, mid)
        if searching and estimate is not None and lo < estimate < hi:
            searching = False
            estimate = _search_beta(omega_bath, blocks, lo, hi, estimate)
            if estimate is not None and lo < estimate < hi:
                _plant(omega_bath, blocks, estimate)
    return lo


def critical_beta(net: OscillatorNetwork, margin: float = DEFAULT_MARGIN) -> float:
    """Largest bath inverse temperature dominated by the reference Gibbs state.

    Finds beta* such that Gamma(beta H_bath) - [Gamma(gamma_ref H)]_EE >=
    margin * identity: it bisects (1e-6, 1e3) to a width below 1e-10 and
    returns the feasible end, since the thermal factor decreases in beta and
    feasibility is monotone.  A step is
    feasible when Cholesky accepts the N x N position and momentum blocks of
    the gap minus margin * identity, so beta* is the float that Cholesky at
    every step gives.  Rigorous bounds settle most steps without it, and a
    kept proof settles every later step on its side in O(N) (see _GapBlock);
    a Newton estimate of beta* only chooses where proofs are planted (see
    _bisect_beta).  The bisection works in the bath blocks g[1:, 1:] of the
    two reference blocks, where they lie.
    """
    ref = _gibbs_blocks(net.modes, certificate_constants(net).gamma_ref)
    return _bisect_beta(net.omegas[1:], tuple(g[1:, 1:] for g in ref), margin)


def _schur_entry(diff: NDArray[np.float64], gap_diagonal: NDArray[np.float64],
                 margin: float) -> tuple[float, float, float]:
    """g00 + q + margin, g00 and q = r^T gap^-1 r of reference block diff, by one Cholesky.

    diff becomes product - reference with the system row last and a large finite
    corner, which the factor's last row z = L^-1 r does not read; LinAlgError when
    Cholesky rejects the gap.
    """
    n, g00 = diff.shape[0] - 1, float(diff[0, 0])
    np.subtract(0.0, diff, out=diff)  # (0 - g) + d rounds like d - g, signed zeros too
    np.fill_diagonal(diff[1:, 1:], gap_diagonal)
    diff[0, 0] = 1e300
    diff[[0, n]] = diff[[n, 0]]
    diff[:, [0, n]] = diff[:, [n, 0]]
    z = np.linalg.cholesky(diff)[n, :n]
    q = float(z @ z)
    return g00 + q + margin, g00, q


def build_certificate(net: OscillatorNetwork,
                      margin: float = DEFAULT_MARGIN) -> SeparabilityCertificate:
    """Construct an initial system state that stays separable for all times.

    Chooses beta = beta*/2 and takes the smallest system block that makes
    the product state dominate the reference Gibbs state, via the Schur
    complement of the bath gap, plus margin times the identity.  Positions
    and momenta never mix, so each quadrature is one (n+1) x (n+1) block
    diff = product - reference, built in the reference block, whose one
    Cholesky gives both the Schur step and the verdict every bisection step
    uses (see _schur_entry): it accepts the gap, and its last pivot (entry -
    g00) - q, the margin up to 2 ulp(g00 + q) of rounding, exceeds the floor
    4 ulp(g00 + q), the larger of which is margin_floor.  So at any BLAS
    thread count a margin below half the floor is rejected and one above 1.5
    times it accepted; a RuntimeError names a block it rejects.  The Schur
    complement is at least the reference state's system block, which is >= 1
    (see certificate_constants), so the diagonal gamma0_sys >= (1 + margin) I
    obeys the uncertainty relation; a RuntimeError guards the rounding.
    """
    constants = certificate_constants(net)
    # the bisection zeroes each bath diagonal, which the gap needs.  Allocated before the
    # blocks, the copies split no hole that a block's Cholesky factor fits into
    g_diags = np.empty((2, net.n_env))
    ref = _gibbs_blocks(net.modes, constants.gamma_ref)
    for g_diag, g in zip(g_diags, ref):
        g_diag[:] = g.diagonal()[1:]
    beta_star = _bisect_beta(net.omegas[1:], tuple(g[1:, 1:] for g in ref), margin)
    beta = 0.5 * beta_star
    entries, floors = [], []
    for name, diff, g_diag, diag in zip(("position", "momentum"), ref, g_diags,
                                        thermal_diagonal(net.omegas[1:], beta)):
        try:
            entry, g00, q = _schur_entry(diff, (0.0 - g_diag) + diag, margin)
        except np.linalg.LinAlgError:
            entry = g00 = q = math.nan
        floors.append(4.0 * math.ulp(g00 + q))
        if not (entry - g00) - q > floors[-1]:
            raise RuntimeError(f"certificate does not dominate the reference state in "
                               f"the {name} block at margin {margin:g}")
        entries.append(entry)
    # the symplectic eigenvalue of diag(x, p) is sqrt(x p): is_valid_covariance's test
    if not math.sqrt(entries[0] * entries[1]) >= 1.0 - COV_TOL:
        raise RuntimeError("system block failed the uncertainty relation")
    return SeparabilityCertificate(
        constants=constants,
        beta_star=beta_star,
        beta=beta,
        gamma0_sys=np.diag(entries),
        margin=margin,
        margin_floor=max(floors),
    )


def verify_all_times_separable(cert: SeparabilityCertificate,
                               net: OscillatorNetwork,
                               times: NDArray[np.float64]) -> VerificationReport:
    """Evolve the certified state and run the PPT test at every grid time.

    Each time costs O(n^2) and forms no 2n x 2n matrix: product_state_pt_minima
    reads the PT spectrum off rows 0 and 1 of S_t.  Raises ValueError if
    cert.gamma0_sys is unphysical, checked once (the symplectic flow keeps the
    product state's symplectic spectrum), or if times is empty, not finite
    or too large for its phases w t (see product_state_pt_minima).
    """
    if not is_valid_covariance(cert.gamma0_sys):
        raise ValueError("certificate gamma0_sys is not a valid single-mode covariance")
    times = _time_grid(times)
    minima = product_state_pt_minima(cert.gamma0_sys, net, cert.beta, times)
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


def lambda_dot_finite_difference(gamma0: NDArray[np.float64], modes: NormalModes,
                                 env_mode: int) -> float:
    """Richardson-refined central difference of lambda_t at t = 0, with step _FD_STEP.

    lambda_t is the pair lambda of mode 0 and env_mode in the state gamma0
    evolved under the normal modes `modes`.
    """
    h = _FD_STEP
    half = h / 2.0
    lam_h, lam_mh, lam_half, lam_mhalf = (
        lambda_of_block(reduce_two_mode(gamma_t, env_mode))
        for gamma_t in trajectory(gamma0, modes, (h, -h, half, -half)))
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
    ImpureStateError, a ValueError, for an impure system state, and ValueError
    for a system state with an entry of magnitude 2^255 or more or for times
    that are empty, not finite, not strictly positive or too large for
    their phases w t to be finite.
    """
    gamma_sys = np.asarray(gamma_sys, dtype=float)
    if not is_pure(gamma_sys, tol=1e-8):
        raise ImpureStateError(f"system state must be pure (purity residual "
                               f"{purity_residual(gamma_sys):.3e}, "
                               f"bound {_purity_bound(gamma_sys, 1e-8):.3e})")
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
    del gamma_t  # freed, not stacked under the finite difference's own dense states
    entangled = pt_min < 1.0
    passed = bool(entangled.all())
    if passed:
        epsilon = float(times[-1])
    else:
        first_bad = int(np.argmin(entangled))
        epsilon = float(times[first_bad - 1]) if first_bad > 0 else 0.0
    leading = probed[int(np.argmin(lam[0]))]
    # det B of the leading pair; see OnsetReport for lambda_dot0 = 0
    if np.prod(thermal_diagonal(net.omegas[leading:leading + 1], beta)) - 1.0 <= DEGENERATE_DET_B:
        ld0 = ld0_fd = float("nan")
    else:
        ld0, ld0_fd = 0.0, lambda_dot_finite_difference(gamma0, net.modes, leading)
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
