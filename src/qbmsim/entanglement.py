"""PPT-based separability tests for Gaussian states.

The one bipartition is mode 0, the system, against the bath.  With a single
mode on one side, positivity of the partial transpose is necessary and
sufficient for separability, so the verdicts here are decisions, not just
witnesses.  The partial transpose acts on covariance matrices by flipping the
momentum sign of every bath mode.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.typing import NDArray

from .model import OscillatorNetwork
from .symplectic import (
    _require_bounded_entries,
    _require_finite_phases,
    symplectic_spectrum,
    thermal_diagonal,
)

SEPARABLE = "separable"
ENTANGLED = "entangled"
INCONCLUSIVE = "inconclusive"

#: absolute tolerance on the PT symplectic eigenvalue at the boundary
PPT_TOL = 1e-9

#: discriminants below this are treated as invalid two-mode blocks
DISCRIMINANT_FLOOR = -1e-12


@dataclass(frozen=True)
class EntanglementVerdict:
    """Outcome of a PPT test.

    status is one of SEPARABLE, ENTANGLED or INCONCLUSIVE; the inconclusive
    band (width 2*tol below the separability threshold) flags states too
    close to the boundary to call either way.  log_negativity is
    max(0, -ln(min_pt_symplectic)), reported as exactly 0 whenever the state
    is not entangled at tolerance.  A verdict on an array of minima holds
    arrays, one entry per state (see verdict_from_pt_minimum).
    """

    status: str | NDArray[np.str_]
    min_pt_symplectic: float | NDArray[np.float64]
    log_negativity: float | NDArray[np.float64]


@dataclass(frozen=True)
class TwoModeBlock:
    """4x4 covariance of (system, one bath mode): [[A, C], [C^T, B]], or a stack of k."""

    a: NDArray[np.float64]
    b: NDArray[np.float64]
    c: NDArray[np.float64]

    @property
    def assembled(self) -> NDArray[np.float64]:
        return np.block([[self.a, self.c], [np.swapaxes(self.c, -1, -2), self.b]])


def partial_transpose(gamma: NDArray[np.float64]) -> NDArray[np.float64]:
    """Flip the momentum sign of every mode but mode 0, the system.

    This is the partial transpose across the cut of mode 0 against the bath,
    conjugation by D = diag(1, 1, 1, -1, ..., 1, -1), so applying it twice
    restores the input exactly.  Raises ValueError for a covariance with no
    bath mode.
    """
    gamma = np.asarray(gamma, dtype=float)
    n = gamma.shape[0] // 2
    if n < 2:
        raise ValueError("the partial transpose needs at least one bath mode")
    signs = np.ones(2 * n)
    signs[3::2] = -1.0
    return signs[:, None] * gamma * signs[None, :]


def ppt_verdict(gamma: NDArray[np.float64], tol: float = PPT_TOL) -> EntanglementVerdict:
    """Decide whether mode 0 is separable from the bath.

    Across this 1 x N cut the PPT criterion is conclusive in both directions
    (Werner and Wolf, PRL 86, 3658, 2001): see verdict_from_pt_minimum.
    """
    spec = symplectic_spectrum(partial_transpose(gamma))
    return verdict_from_pt_minimum(float(spec.min()), tol)


def verdict_from_pt_minimum(min_pt: float | NDArray[np.float64],
                            tol: float = PPT_TOL) -> EntanglementVerdict:
    """The PPT verdict on a state whose smallest PT symplectic eigenvalue is min_pt.

    Separable when min_pt >= 1 - tol, entangled when min_pt < 1 - 3 tol and
    inconclusive in between; log_negativity is max(0, -ln min_pt), and
    exactly 0 for a separable state.  An array of minima gives one verdict
    whose fields are arrays, elementwise the verdicts of its entries; ln is
    taken only where the state is not separable.
    """
    m = np.asarray(min_pt, dtype=float)
    separable = m >= 1.0 - tol
    status = np.where(separable, SEPARABLE,
                      np.where(m < 1.0 - 3.0 * tol, ENTANGLED, INCONCLUSIVE))
    neg_log = -np.log(m, out=np.zeros_like(m), where=~separable)
    # max(0, x) as Python's max takes it: 0 for a NaN and for -0.0
    log_neg = np.where(neg_log > 0.0, neg_log, 0.0)
    if m.ndim == 0:
        return EntanglementVerdict(status=str(status), min_pt_symplectic=min_pt,
                                   log_negativity=float(log_neg))
    return EntanglementVerdict(status=status, min_pt_symplectic=m, log_negativity=log_neg)


#: elements of one (times, modes) array in a chunk of the time grid; the kernel
#: keeps at most eight such arrays alive, so its memory does not grow with T
_CHUNK_ELEMENTS = 1 << 15

#: a probe where the bath border is singular moves up one ulp, at most this often
_MAX_NUDGES = 8

#: a chunk drops its converged times once they are half of it and hold this many
#: (time, mode) elements; fewer cost a pass less than the copy that drops them
_DROP_ELEMENTS = 512

#: passes of the count per chunk: one checks the bracket's lower end, and the
#: 63 value bits of a positive double take at most 63 more
_MAX_PASSES = 64


def product_state_pt_minima(gamma_sys: NDArray[np.float64], net: OscillatorNetwork,
                            beta: float, times: Iterable[float]) -> NDArray[np.float64]:
    """Smallest PT symplectic eigenvalue of S_t Gamma_0 S_t^T at each time.

    Gamma_0 is gamma_sys (mode 0) tensored with the Gibbs state of the
    uncoupled bath of net at inverse temperature beta, and S_t is the flow
    of net, read off its normal modes.  Each time costs O(n^2) work: no
    2n x 2n matrix is formed and no eigensolver runs, and the times are
    taken in chunks of at most _CHUNK_ELEMENTS / n, so memory does not grow
    with their number.  The values equal
    ppt_verdict(S_t Gamma_0 S_t^T).min_pt_symplectic up to rounding.

    Factor Gamma_0 = L L^T with L = chol(gamma_sys) + diag(sqrt(d)), d the
    bath's thermal_diagonal.  Then L^T Sigma L = K = nu_s J + sum_j nu_j J
    with nu_s = L_00 L_11 and nu_j = sqrt(d_xj d_pj) = f(beta omega_j), and
    since S_t is symplectic, (S_t L)^T Sigma (S_t L) = K at every t.  The
    partial transpose flips p_0, i.e. Sigma -> Sigma - 2(e_0 e_1^T - e_1 e_0^T),
    so the PT symplectic eigenvalues are the positive eigenvalues of

        H = i(K - 2(a b^T - b a^T)),   a = L^T S_t^T e_0,   b = L^T S_t^T e_1,

    a rank-two update of iK (Golub, SIAM Rev. 15, 318, 1973; Bunch, Nielsen
    and Sorensen, Numer. Math. 31, 31, 1978).  Only rows 0 and 1 of S_t
    enter; from the mode matrix M and frequencies w they are the rows of
    xx = pp = M diag(cos wt) M^T, xp = M diag(sin(wt)/w) M^T and
    px = -M diag(w sin wt) M^T, three matrix products over a chunk of times.

    H is split into the system block and the bath.  The system block is
    H_ss = i(nu_s - 2(a_0 b_1 - a_1 b_0)) J.  The bath block is the poles
    D = diag(+-nu_j), with eigenvectors (1, -+i)/sqrt(2), plus U C U^H, where
    U holds [a_B b_B] in that eigenbasis and C = [[0, -2i], [2i, 0]]; the
    coupling is H_sB = P C U^H in the same basis, P = [a_s b_s].  Sylvester's
    law of inertia on the bordered matrix [[D - lam, U], [U^H, -C^-1]] and
    Haynsworth's inertia additivity on H - lam count its eigenvalues below lam:

        #(+-nu_j < lam) + #neg(-C^-1 - G) - 1 + #neg(H_ss - lam - P C W C P^T),

    with G = U^H (D - lam)^-1 U and the Woodbury form W = G - G(C^-1 + G)^-1 G.
    Per bath mode, with x = (a_xj, b_xj) and p = (a_pj, b_pj), G sums
    (lam (x x^T + p p^T) + i nu_j (x p^T - p x^T)) / ((nu_j - lam)(nu_j + lam)),
    which is O(N) real work.  C W C = C - (C^-1 + G)^-1 and H_ss - P C P^T =
    i nu_s J, so the last block is evaluated as i nu_s J - lam +
    P (C^-1 + G)^-1 P^T, which takes no difference of large terms near a pole.

    The smallest lam with one positive eigenvalue below it is found to one
    ulp by a search that the count alone steers: a double of the result
    counts >= 1 and the double below it 0.  Each pass probes every time of
    the chunk once with one vectorised count.  The count also returns Newton's
    step on the smooth function

        F(lam) = det A det Schur_s = det(P)^2 - lam (n_0 + n_1)
                 + (lam^2 - nu_s^2) det A - 2 nu_s n_3,

    n the contraction of quad with g before the quotient by det A.  F's zeros
    are the PT symplectic eigenvalues and its poles the nu_j.  Where count(hi)
    is 1 and no pole lies in the bracket, the next probe is Newton's estimate;
    once that estimate has converged it is checked 8 ulps to either side, and
    elsewhere the bracket's bits are bisected (see _smallest_root).  A chunk
    of an unsqueezed state's evolution takes about 21 passes where bisection
    took 56, and F and F' are evaluated on about 13 of them, the passes
    where some time may take Newton's step; a minimum on a pole, the least
    nu_j at t = 0 when the system is hotter than the bath for one, is still
    found by bisection alone.

    The bracket holds at every t.  Above: the update has one positive and
    one negative eigenvalue, so by Weyl's inequalities the smallest positive
    eigenvalue of H is at most the second smallest of nu_s and the nu_j.
    Below: a symplectic eigenvalue of a positive matrix is at least its
    smallest eigenvalue, which the partial transpose keeps, and each mode
    rotates on an ellipse of axis ratio w_k, so ||S_t^-1|| <= kappa =
    max(w_max, 1/w_min) and lam_min(Gamma_t) >= lam_min(Gamma_0) / kappa^2.
    The bracket [lam_min(Gamma_0) / (2 kappa^2), 2 x second smallest] spans
    far fewer bit patterns than one from 0, and a time that has bisected it
    takes no more than 64 passes, one of them the check of its lower end:
    the search keeps to that bound, bisecting a time that has no spare
    pass left.  nu_s is not a pole in this bordered form, so at t = 0, where
    the minimum is nu_s itself, it is found to rounding; a secular equation
    over all 2n poles would put that root on a pole.
    Raises ValueError for a time that is not finite or whose phase w t
    overflows, or a gamma_sys that is not a 2x2 positive definite matrix or
    has an entry of magnitude 2^255 or more.
    """
    gamma_sys = np.asarray(gamma_sys, dtype=float)
    times = np.asarray(times, dtype=float).ravel()
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    m, w = net.modes.mode_matrix, net.modes.tilde_omegas
    _require_finite_phases(times, w)
    if gamma_sys.shape != (2, 2):
        raise ValueError("system covariance must be 2x2")
    _require_bounded_entries(gamma_sys)
    # the Cholesky factor [[l00, 0], [l10, l11]] in closed form, from the lower triangle
    a, c, b = float(gamma_sys[0, 0]), float(gamma_sys[1, 0]), float(gamma_sys[1, 1])
    l00 = math.sqrt(a) if a > 0.0 else math.nan
    pivot = b - (c / l00) ** 2
    if not pivot > 0.0:
        raise ValueError("system covariance must be positive definite")
    chol = (l00, c / l00, math.sqrt(pivot))
    root = np.sqrt(thermal_diagonal(net.omegas[1:], beta))
    nu_s = chol[0] * chol[2]
    nu = root[0] * root[1]
    # lam_min(gamma_sys) as det / lam_max: the closed form for lam_min cancels
    # on a squeezed state
    lam_min = min(nu_s * nu_s / (0.5 * (a + b) + math.hypot(0.5 * (a - b), c)),
                  float(root.min()) ** 2)
    kappa = max(float(w[-1]), 1.0 / float(w[0]))
    bracket = (0.5 * lam_min / (kappa * kappa), 2.0 * sorted([nu_s, *nu.tolist()])[1])
    minima = np.empty(times.size)
    step = max(1, _CHUNK_ELEMENTS // w.size)
    for start in range(0, times.size, step):
        terms = _rank_two_terms(times[start:start + step], m, w, chol, root)
        minima[start:start + step] = _smallest_root(bracket, *terms, nu_s, nu)
        del terms  # the next chunk's arrays replace these, not join them
    return minima


def _rank_two_terms(times: NDArray[np.float64], m: NDArray[np.float64],
                    w: NDArray[np.float64], chol: tuple[float, float, float],
                    root: NDArray[np.float64]):
    """The count's inputs at each time: coef, shape (4, T, N), and quad, shape (4, 4, T).

    coef holds per bath mode a_x^2 + a_p^2, b_x^2 + b_p^2, a_x b_x + a_p b_p
    and nu (a_x b_p - a_p b_x).  With g = (gaa, gbb, gab, q) the entries of
    A = C^-1 + G, X = A^-1 = adj(A) / det A, and quad maps g to det A times
    the entries s00, s11, Re s01 and Im s01 of P X P^T: its rows 0 to 2 map
    (gaa, gbb, gab) and quad[3, 3] = -det P maps q.  quad[3, :3] holds the
    sum of rows 0 and 1, which Newton's step reads.  Products go to
    their destination in place, so at most seven (T, n) arrays are alive at
    once.
    """
    m0 = m[0]
    s = np.multiply.outer(times, w)
    c = np.cos(s)
    np.sin(s, out=s)
    c *= m0
    xx = c @ m.T
    del c
    xp = (s * (m0 / w)) @ m.T
    s *= -m0 * w
    px = s @ m.T
    del s
    l00, l10, l11 = chol
    a0, a1 = l00 * xx[:, 0] + l10 * xp[:, 0], l11 * xp[:, 0]
    b0, b1 = l00 * px[:, 0] + l10 * xx[:, 0], l11 * xx[:, 0]
    # P = [[a0, b0], [a1, b1]]; adj(A) = [[gbb, -gab - iq], [-gab + iq, gaa]]
    quad = np.zeros((4, 4, times.size))
    quad[0, :3] = b0 * b0, a0 * a0, -2.0 * a0 * b0
    quad[1, :3] = b1 * b1, a1 * a1, -2.0 * a1 * b1
    quad[2, :3] = b0 * b1, a0 * a1, -(a0 * b1 + b0 * a1)
    quad[3, :3] = quad[0, :3] + quad[1, :3]
    quad[3, 3] = b0 * a1 - a0 * b1
    rx, rp = root
    coef = np.empty((4, times.size, rx.size))
    ax = np.multiply(rx, xx[:, 1:], out=coef[0])
    bx = np.multiply(rx, px[:, 1:], out=coef[1])
    del px
    bp = rp * xx[:, 1:]
    del xx
    ap = rp * xp[:, 1:]
    del xp
    np.multiply(ax, bx, out=coef[2])
    coef[2] += ap * bp
    np.multiply(ax, bp, out=coef[3])
    coef[3] -= ap * bx
    coef[3] *= rx * rp
    ax *= ax
    ap *= ap
    ax += ap
    bx *= bx
    bp *= bp
    bx += bp
    return coef, quad


def _smallest_root(bracket: tuple[float, float], coef: NDArray[np.float64],
                   quad: NDArray[np.float64], nu_s: float,
                   nu: NDArray[np.float64]) -> NDArray[np.float64]:
    """Per time, the least double lam in the bracket with a positive eigenvalue <= lam.

    Each pass probes every time once with one vectorised count, and the
    count alone moves the bracket: hi to a probe that counts >= 1, lo to one
    that counts 0.  A positive double and the int64 of its bits order alike,
    so the search ends on one ulp, on a double that counts >= 1 while the one
    below it counts 0.  The first pass checks that the lower end counts 0
    and starts a time where it does not from 0 instead.  What the search
    chooses is the next probe, from the step F/F' that the count returns at
    the last probe x, which is lo or hi, and which is evaluated only when
    some time meets the first rule's conditions on count(hi), the poles, the
    window and the spare passes:

    - Newton's estimate x - F(x)/F'(x), when count(hi) is 1 and no nu_j lies
      in [lo, hi), so that F has one simple zero and no pole there, and the
      estimate falls strictly inside the bracket.  A pole within twice the
      step of x dominates F there, and the step then only crawls away from
      it: such a time bisects.
    - Once the step is within 2 ulps of x, or points back past x's own end
      of the bracket, the estimate is checked: the probes are the estimate
      -+ 8 ulps, where they fall inside the bracket.  A probe on the wrong
      side of the count's root widens the window x8, at most twice; then the
      time bisects.
    - Otherwise the midpoint of the bits, lo + (hi - lo) // 2: both ends of
      a bracket above 2 have bits beyond 2^62, and their sum overflows.

    A time whose passes so far plus ceil(log2(hi - lo)) reach _MAX_PASSES
    only bisects, so no time takes more.  Newton's steps from one end leave
    the far end where it was and spend that budget, so with two spare passes
    left a step whose far end is more than four steps away goes twice as
    far: once Newton converges quadratically that probe lies past the root
    and closes the bracket from the far end.  One spare pass is enough to
    check a converged estimate: its first probe leaves the bracket about a
    window wide, which frees the passes for the second.

    A time whose bracket is one ulp wide probes lo again, which counted 0
    before, so its bracket stays put.  Once such times are half of the
    chunk and hold _DROP_ELEMENTS (time, mode) elements, they leave it, so
    that the passes still to come run on the other times alone.

    The state is one entry per time of the chunk.  The bracket's ends are
    one (2, T) array of bits, lo over hi, and the poles below them another,
    so that one putmask per array moves whichever end each probe replaces;
    the count at hi, the estimate under check and its window are (T,)
    arrays.
    """
    poles = sorted(nu.tolist())
    above = np.array(poles + [math.inf])  # above[k]: the least pole >= lam when k poles lie below
    below = np.array([-poles[0]] + poles)  # below[k]: the greatest pole < lam
    size = coef.shape[1]
    ends = np.repeat(np.array(bracket)[:, None], size, axis=1).view(np.int64)  # lo, hi as bits
    counts, newton_step, k_lo = _positive_eigenvalues_below(ends[0].view(np.float64), coef,
                                                            quad, nu_s, nu)
    k_ends = np.stack((k_lo, np.full(size, float(nu.size))))  # the poles below lo and below hi
    ends[0, counts >= 1.0] = 0
    k_ends[0, counts >= 1.0] = 0
    x = ends[0].copy()  # the last probe; newton_step gives F/F' there
    top = np.zeros(size)  # count(hi), 0 until a probe sets hi
    est = np.zeros(size, dtype=np.int64)  # the estimate under check
    rad = np.zeros(size, dtype=np.int64)  # its window's half width: 0 not yet, -1 never
    minima = np.empty(size)
    at = np.arange(size)  # the time of each entry of the arrays above
    for passes in range(1, _MAX_PASSES):
        lo, hi = ends
        width = hi - lo
        done = width <= 1
        converged = np.count_nonzero(done)
        if converged == done.size:
            break
        # passes + ceil(log2 width) < _MAX_PASSES: the pass need not halve the bracket
        spare = width <= 1 << (_MAX_PASSES - 1 - passes)
        newton = (top == 1.0) & spare & (rad == 0) & (k_ends[0] == k_ends[1])
        # F/F' only on a pass where some time may take Newton's step; the count's
        # arrays are released before the next count either way
        steps = newton_step() if newton.any() else None
        newton_step = None
        if 2 * converged >= done.size and converged * nu.size >= _DROP_ELEMENTS:
            minima[at[done]] = hi[done].view(np.float64)
            live = np.flatnonzero(~done)
            ends, k_ends = ends[:, live], k_ends[:, live]
            at, x, top, est, rad, width, spare, newton = (
                a[live] for a in (at, x, top, est, rad, width, spare, newton))
            lo, hi = ends
            steps = None if steps is None else steps[live]
            coef, quad = coef[:, live], quad[:, :, live]
        probe = lo + width // 2
        if steps is not None:
            newton &= np.isfinite(steps)
        if newton.any():
            xf = x.view(np.float64)
            guess = (xf - steps).view(np.int64)
            from_lo = x == lo
            ahead = np.where(from_lo, guess - x, x - guess)  # ulps from x towards the far end
            settled = newton & (ahead <= 2)
            if settled.any():
                np.putmask(est, settled, np.where(ahead > 0, guess, x))
                np.putmask(rad, settled, 8)
                newton ^= settled
            # the poles around x, read where k_lo = k_hi, as it is wherever newton holds
            k_x = k_ends[1].astype(np.intp)
            newton &= 2.0 * np.abs(steps) < np.minimum(above[k_x] - xf, xf - below[k_x])
            ahead <<= (width > 1 << max(_MAX_PASSES - 3 - passes, 0)) & (width > 4 * ahead)
            np.putmask(probe, newton & (ahead < width), np.where(from_lo, x + ahead, x - ahead))
        checking = (rad > 0) & spare
        check = checking.any()
        if check:
            low, high = est - rad, est + rad
            np.putmask(probe, checking & (high < hi), high)
            np.putmask(probe, checking & (lo < low), low)
        counts, newton_step, k = _positive_eigenvalues_below(probe.view(np.float64), coef,
                                                             quad, nu_s, nu)
        sides = np.empty(ends.shape, dtype=bool)  # where the probe replaces lo, and hi
        up = np.greater_equal(counts, 1.0, out=sides[1])
        np.logical_not(up, out=sides[0])
        if check:
            # the root lies outside the window: widen it, or give up on it
            missed = checking & (probe == np.where(up, low, high))
            if missed.any():
                np.putmask(rad, missed, np.where(rad < 512, 8 * rad, -1))
        # putmask repeats the (T,) values over each row of the (2, T) arrays
        np.putmask(ends, sides, probe)
        np.putmask(k_ends, sides, k)
        np.putmask(top, up, counts)
        x = probe
    minima[at] = ends[1].view(np.float64)
    return minima


def _positive_eigenvalues_below(lam: NDArray[np.float64], coef: NDArray[np.float64],
                                quad: NDArray[np.float64], nu_s: float,
                                nu: NDArray[np.float64]
                                ) -> tuple[NDArray[np.float64],
                                           Callable[[], NDArray[np.float64]],
                                           NDArray[np.float64]]:
    """Number of positive eigenvalues of H below lam[i] at time i, F/F' and #(nu_j < lam[i]).

    F/F' comes as a function of no arguments, to be called at most once: it
    takes about a quarter of a count, and the search calls it only on a
    pass where some time may take Newton's step.

    coef and quad are as _rank_two_terms returns them.  The counts are small
    integers, held as doubles, and so is the number of poles below lam, one
    of their terms.  A probe on a pole moves up to the next double that is
    not one (see _off_the_poles); a cold bath puts dozens of poles on 1.0 and
    on runs of consecutive doubles above it.  A probe where the bath border
    A = C^-1 + G is singular moves up one ulp, and the whole batch is counted
    again, at most _MAX_NUDGES times.  A time's values are the same bits
    whichever times share its batch, as the search drops converged times.
    See product_state_pt_minima for the derivation.

    F = det A det Schur_s, written with n = quad g, the Schur block times
    det A before it is shifted by lam and nu_s, as

        F = det(P)^2 - lam (n_0 + n_1) + (lam^2 - nu_s^2) det A - 2 nu_s n_3,

    since det(P X P^T) det A^2 = det(P)^2 det A.  It is smooth between the
    poles nu_j, its zeros are the PT symplectic eigenvalues, and it takes no
    quotient by det A, which the count does, so it keeps its accuracy where
    A is near singular.  F' needs the derivatives of g: sum coef (1/dist +
    2 lam^2/dist^2) for its first three entries and sum coef_3 2 lam/dist^2
    for q, dist = nu_j^2 - lam^2.
    """
    probe = lam
    for _ in range(_MAX_NUDGES):
        dist = nu - probe[:, None]
        if not dist.all():
            probe = _off_the_poles(probe, dist, nu)
            dist = nu - probe[:, None]
        dist *= nu + probe[:, None]
        # #(nu_j < lam); a product with ones sums the mask exactly, and faster than
        # a reduction along rows as short as a small bath's
        below = (dist < 0.0) @ np.ones(nu.size)
        inv = np.divide(1.0, dist, out=dist)
        g = np.einsum("ktn,tn->kt", coef, inv)
        # A = [[gaa, gab + iq], [gab - iq, gbb]]
        gaa, gbb, gab = g[:3] * probe
        q = g[3] - 0.5
        det = gaa * gbb - (gab * gab + q * q)
        singular = det == 0.0
        if singular.any():
            # the next double up where A is singular, and the whole batch again
            probe = (probe.view(np.int64) + singular).view(np.float64)
            continue
        # Schur_s = i nu_s J - lam + P X P^T = [[s00, s01], [conj s01, s11]]; quad's
        # last column is 0 but for quad[3, 3] = -det P, and its products are
        # taken elementwise, which no batch shape can reorder
        quad3, minus_det_p = quad[:3, :3], quad[3, 3]
        n = quad3[:, 0] * gaa + quad3[:, 1] * gbb + quad3[:, 2] * gab
        s00, s11, s01_re = n / det
        s01_im = minus_det_p * q / det
        s00 -= probe
        s11 -= probe
        s01_im += nu_s
        det_s = s00 * s11 - (s01_re * s01_re + s01_im * s01_im)
        # #(nu_j < lam) + #neg(-A) + #neg(Schur_s) - 2, with #neg(-A) =
        # 1 + [det > 0] sign(gaa) and #neg(Schur_s) = 1 - [det_s > 0] sign(s00)
        # (a 2x2 Hermitian matrix with det > 0 is definite, its diagonal of
        # one sign) and #neg(Schur_s) = [s00 + s11 < 0] where det_s = 0
        count = (det > 0.0) * ((gaa > 0.0) * 2.0 - 1.0)
        count -= (det_s > 0.0) * ((s00 > 0.0) * 2.0 - 1.0)
        if not det_s.all():
            zero = det_s == 0.0
            count[zero] += (s00 + s11 < 0.0)[zero] - 1.0
        count += below

        def newton_step():
            # squares inv in place: the count has no further use for it
            dg = np.einsum("ktn,tn->kt", coef, np.multiply(inv, inv, out=inv))
            two_lam = 2.0 * probe
            dg *= two_lam
            dg[:3] *= probe
            dg[:3] += g[:3]
            n_sum = n[0] + n[1]
            q_sum = quad[3, :3]
            dn_sum = q_sum[0] * dg[0] + q_sum[1] * dg[1] + q_sum[2] * dg[2]
            shift = probe * probe - nu_s * nu_s
            f = minus_det_p * (minus_det_p - 2.0 * nu_s * q) - probe * n_sum + shift * det
            d_det = dg[0] * gbb + gaa * dg[1] - 2.0 * (gab * dg[2] + q * dg[3])
            df = (two_lam * det - n_sum - probe * dn_sum + shift * d_det
                  - 2.0 * nu_s * minus_det_p * dg[3])
            if not df.all():
                df[df == 0.0] = np.nan  # no Newton step where F is flat
            return f / df

        return count, newton_step, below
    raise RuntimeError(f"PT spectrum count undefined near {float(probe[singular][0])!r}")


def _off_the_poles(lam: NDArray[np.float64], dist: NDArray[np.float64],
                   nu: NDArray[np.float64]) -> NDArray[np.float64]:
    """lam with each entry that is a pole moved up to the next double that is not one.

    dist holds nu_j - lam_i, zero exactly on a pole.  A bisection finds that
    pole in the sorted poles, and the walk up from it passes over every pole
    on the doubles that follow, so a run of any length costs no nudge.
    """
    poles = sorted(set(nu.tolist()))
    moved = lam.copy()
    for i in np.flatnonzero((dist == 0.0).any(axis=1)).tolist():
        k = bisect.bisect_right(poles, moved[i])  # poles[k - 1] is moved[i]
        up = math.nextafter(poles[k - 1], math.inf)
        while k < len(poles) and poles[k] == up:
            k += 1
            up = math.nextafter(up, math.inf)
        moved[i] = up
    return moved


def reduce_two_mode(gamma: NDArray[np.float64], env_mode: int | Sequence[int]) -> TwoModeBlock:
    """Project the covariance onto (system mode 0, bath mode env_mode).

    A sequence of k modes gives their k pairs as (k, 2, 2) stacks, a broadcast.
    The principal submatrix of a physical covariance is again physical, so
    the block feeds directly into lambda_of_block or ppt_verdict.
    """
    gamma = np.asarray(gamma, dtype=float)
    n = gamma.shape[0] // 2
    modes = np.asarray(env_mode)
    bad = modes[(modes < 1) | (modes > n - 1)]
    if bad.size:
        raise ValueError(f"env_mode must be in 1..{n - 1}, got {bad.flat[0]}")
    idx = 2 * modes[..., None] + np.arange(2)  # the (x, p) rows of each bath mode
    b = gamma[idx[..., :, None], idx[..., None, :]]
    c = np.moveaxis(gamma[:2, idx], 0, -2)
    return TwoModeBlock(a=np.broadcast_to(gamma[:2, :2], b.shape), b=b, c=c)


def lambda_of_block(block: TwoModeBlock) -> float | NDArray[np.float64]:
    """Squared smallest PT symplectic eigenvalue of a two-mode covariance.

    With d = det A + det B - 2 det C this is d/2 - sqrt(d^2/4 - det Gamma),
    evaluated as det Gamma / (d/2 + sqrt(d^2/4 - det Gamma)), the product of
    the roots over the large one: the difference cancels terms of size
    det B / 2 on a hot bath mode.  Values below 1 certify entanglement of the
    pair.  The discriminant is evaluated in a cancellation-free form,

        d^2/4 - det Gamma = (det A - det B)^2 / 4
                            - det C (det A + det B) + tr(adj(A) C adj(B) C^T),

    which stays accurate when det A, det B and det Gamma are all close to 1
    (near-pure pairs at cold temperatures).  Discriminants below -1e-12
    signal an invalid block and raise; tiny negatives round up to zero.
    Stacked (..., 2, 2) fields give one value per pair; one invalid pair raises.
    """
    a, b, c = block.a, block.b, block.c
    det_a, det_b, det_c = map(np.linalg.det, (a, b, c))
    d = det_a + det_b - 2.0 * det_c
    # adj(m) = [[m11, -m01], [-m10, m00]], transposed as Gamma_t is symmetric only to rounding
    adj_a, adj_b = (m[..., ::-1, ::-1].swapaxes(-1, -2) * [[1.0, -1.0], [-1.0, 1.0]]
                    for m in (a, b))
    disc = ((det_a - det_b) ** 2 / 4.0
            - det_c * (det_a + det_b)
            + np.trace(adj_a @ c @ adj_b @ np.swapaxes(c, -1, -2), axis1=-2, axis2=-1))
    if np.any(disc < DISCRIMINANT_FLOOR):
        raise ValueError(f"negative discriminant {np.nanmin(disc):.3e}: "
                         "block is not a valid covariance")
    lam = np.linalg.det(block.assembled) / (d / 2.0 + np.sqrt(np.maximum(disc, 0.0)))
    return float(lam) if lam.ndim == 0 else lam
