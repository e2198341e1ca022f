"""PPT-based separability tests for Gaussian states.

For a bipartition with a single mode on one side, positivity of the partial
transpose is necessary and sufficient for separability, so the verdicts here
are decisions, not just witnesses.  The partial transpose acts on covariance
matrices by flipping the momentum sign of every environment mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from numpy.typing import NDArray

from .symplectic import (
    NormalModes,
    _require_bounded_entries,
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
    is not entangled at tolerance.
    """

    status: str
    min_pt_symplectic: float
    log_negativity: float


@dataclass(frozen=True)
class TwoModeBlock:
    """4x4 covariance of (system, one bath mode): [[A, C], [C^T, B]], or a stack of k."""

    a: NDArray[np.float64]
    b: NDArray[np.float64]
    c: NDArray[np.float64]

    @property
    def assembled(self) -> NDArray[np.float64]:
        return np.block([[self.a, self.c], [np.swapaxes(self.c, -1, -2), self.b]])


def partial_transpose(gamma: NDArray[np.float64],
                      system_modes: Iterable[int] = (0,)) -> NDArray[np.float64]:
    """Flip the momentum sign of every mode outside system_modes.

    Equivalent to conjugation by a diagonal sign matrix, so applying it
    twice restores the input exactly.
    """
    gamma = np.asarray(gamma, dtype=float)
    n = gamma.shape[0] // 2
    sys = set(int(m) for m in system_modes)
    if not sys or sys >= set(range(n)):
        raise ValueError("system_modes must be a nonempty proper subset of the modes")
    if min(sys) < 0 or max(sys) >= n:
        raise ValueError(f"mode index out of range for {n} modes")
    signs = np.ones(2 * n)
    signs[1::2] = [1.0 if m in sys else -1.0 for m in range(n)]
    return signs[:, None] * gamma * signs[None, :]


def ppt_verdict(gamma: NDArray[np.float64],
                system_modes: Iterable[int] = (0,),
                tol: float = PPT_TOL) -> EntanglementVerdict:
    """Decide separability across the given bipartition.

    Requires one side of the bipartition to consist of a single mode, the
    regime where the PPT criterion is conclusive in both directions.
    """
    gamma = np.asarray(gamma, dtype=float)
    n = gamma.shape[0] // 2
    sys = set(int(m) for m in system_modes)
    if min(len(sys), n - len(sys)) >= 2:
        raise ValueError(
            "PPT is only conclusive when one side of the bipartition is a single mode"
        )
    spec = symplectic_spectrum(partial_transpose(gamma, sys))
    return verdict_from_pt_minimum(float(spec.min()), tol)


def verdict_from_pt_minimum(min_pt: float, tol: float = PPT_TOL) -> EntanglementVerdict:
    """The PPT verdict on a state whose smallest PT symplectic eigenvalue is min_pt.

    Separable when min_pt >= 1 - tol, entangled when min_pt < 1 - 3 tol and
    inconclusive in between; log_negativity is max(0, -ln min_pt), and
    exactly 0 for a separable state.
    """
    if min_pt >= 1.0 - tol:
        status = SEPARABLE
    elif min_pt < 1.0 - 3.0 * tol:
        status = ENTANGLED
    else:
        status = INCONCLUSIVE
    log_neg = 0.0 if status == SEPARABLE else max(0.0, -float(np.log(min_pt)))
    return EntanglementVerdict(status=status, min_pt_symplectic=min_pt,
                               log_negativity=log_neg)


#: elements of one (times, modes) array in a chunk of the time grid; the kernel
#: keeps at most eight such arrays alive, so its memory does not grow with T
_CHUNK_ELEMENTS = 1 << 15

#: a probe on a pole or a bath-block eigenvalue moves up one ulp, at most this often
_MAX_NUDGES = 8


def product_state_pt_minima(gamma_sys: NDArray[np.float64], modes: NormalModes,
                            omega_bath: NDArray[np.float64], beta: float,
                            times: Iterable[float]) -> NDArray[np.float64]:
    """Smallest PT symplectic eigenvalue of S_t Gamma_0 S_t^T at each time.

    Gamma_0 is gamma_sys (mode 0) tensored with the Gibbs state of the
    uncoupled bath at inverse temperature beta, and S_t is the flow of the
    network with normal modes `modes`.  Each time costs O(n^2) work: no
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

    The smallest lam with one positive eigenvalue below it is found by
    bisection over the bit patterns of positive doubles, to one ulp.  Each
    pass moves every time of the chunk one step with one vectorised count.
    The bracket holds at every t.  Above: the update has one positive and
    one negative eigenvalue, so by Weyl's inequalities the smallest positive
    eigenvalue of H is at most the second smallest of nu_s and the nu_j.
    Below: a symplectic eigenvalue of a positive matrix is at least its
    smallest eigenvalue, which the partial transpose keeps, and each mode
    rotates on an ellipse of axis ratio w_k, so ||S_t^-1|| <= kappa =
    max(w_max, 1/w_min) and lam_min(Gamma_t) >= lam_min(Gamma_0) / kappa^2.
    The bracket [lam_min(Gamma_0) / (2 kappa^2), 2 x second smallest] spans
    far fewer bit patterns than one from 0: an unsqueezed state takes about
    55 passes instead of 62, plus one that checks the lower end, and no
    chunk takes more than 64.  nu_s is not a pole in this
    bordered form, so at t = 0, where the minimum is nu_s itself, it is
    found to rounding; a secular equation over all 2n poles would put that
    root on a pole.
    Raises ValueError for a non-finite time, a gamma_sys that is not a 2x2
    positive definite matrix or has an entry of magnitude 2^255 or more, or
    an omega_bath that does not match the bath modes.
    """
    gamma_sys = np.asarray(gamma_sys, dtype=float)
    times = np.asarray(times, dtype=float).ravel()
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
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
    root = np.sqrt(thermal_diagonal(omega_bath, beta))
    m, w = modes.mode_matrix, modes.tilde_omegas
    if root.size // 2 + 1 != w.size:
        raise ValueError(f"omega_bath has {root.size // 2} modes, "
                         f"the network {w.size - 1} bath modes")
    nu_s = chol[0] * chol[2]
    nu = root[0::2] * root[1::2]
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
    the entries s00, s11, Re s01 and Im s01 of P X P^T.  Products go to
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
    quad[3, 3] = b0 * a1 - a0 * b1
    rx, rp = root[0::2], root[1::2]
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

    A positive double and the int64 of its bits order alike, so bisection
    over the bits ends on one ulp.  The first pass checks that the lower
    end counts 0 and starts a time where it does not from 0 instead.
    lo + (hi - lo) // 2 keeps the midpoint in range: both ends of a bracket
    above 2 have bits beyond 2^62, and their sum overflows.  A time whose
    bracket is one ulp wide probes lo again, which counted 0 before, so its
    bracket stays put.
    """
    lo, hi = (np.full(coef.shape[1], end).view(np.int64) for end in bracket)
    found = _positive_eigenvalues_below(lo.view(np.float64), coef, quad, nu_s, nu) >= 1.0
    lo = np.where(found, 0, lo)
    for _ in range(63):  # positive doubles have 63 value bits
        half = (hi - lo) // 2
        if not half.any():
            break
        mid = lo + half
        found = _positive_eigenvalues_below(mid.view(np.float64), coef, quad, nu_s, nu) >= 1.0
        hi = np.where(found, mid, hi)
        lo = np.where(found, lo, mid)
    return hi.view(np.float64)


def _positive_eigenvalues_below(lam: NDArray[np.float64], coef: NDArray[np.float64],
                                quad: NDArray[np.float64], nu_s: float,
                                nu: NDArray[np.float64]) -> NDArray[np.float64]:
    """Number of positive eigenvalues of H below lam[i] at time i, for every time at once.

    coef and quad are as _rank_two_terms returns them.  The counts are small
    integers, held as doubles.  A probe on a pole, or where the bath border
    A = C^-1 + G is singular, moves up one ulp for that time alone, at most
    _MAX_NUDGES times.  See product_state_pt_minima for the derivation.
    """
    counts = np.empty(lam.size)
    retry = None  # the times to probe again; None probes every time
    for _ in range(_MAX_NUDGES):
        probe = lam if retry is None else lam[retry]
        at = slice(None) if retry is None else retry
        dist = nu - probe[:, None]
        dist *= nu + probe[:, None]
        below = (dist < 0.0).sum(axis=1, dtype=float)  # #(nu_j < lam)
        undefined = None
        if not dist.all():
            undefined = (dist == 0.0).any(axis=1)  # on a pole
            dist[undefined] = 1.0  # such a time is probed again; never divide by its zero
        g = np.einsum("ktn,tn->kt", coef[:, at], np.divide(1.0, dist, out=dist))
        g[:3] *= probe
        g[3] -= 0.5
        # A = [[gaa, gab + iq], [gab - iq, gbb]]
        gaa, gbb, gab, q = g
        det = gaa * gbb - (gab * gab + q * q)
        singular = det == 0.0
        undefined = singular if undefined is None else undefined | singular
        stuck = undefined.any()
        if stuck:
            det[undefined] = 1.0
        neg_bath = np.where(det < 0.0, 1.0, np.where(gaa > 0.0, 2.0, 0.0))  # #neg(-A)
        # Schur_s = i nu_s J - lam + P X P^T = [[s00, s01], [conj s01, s11]]
        s00, s11, s01_re, s01_im = np.einsum("kjt,jt->kt", quad[:, :, at], g) / det
        s00 -= probe
        s11 -= probe
        s01_im += nu_s
        det_s = s00 * s11 - (s01_re * s01_re + s01_im * s01_im)
        neg_sys = np.where(det_s < 0.0, 1.0,
                           np.where(det_s > 0.0, np.where(s00 < 0.0, 2.0, 0.0),
                                    np.where(s00 + s11 < 0.0, 1.0, 0.0)))
        counts[at] = below + neg_bath + neg_sys - 2.0
        if not stuck:
            return counts
        retry = np.flatnonzero(undefined) if retry is None else retry[undefined]
        if probe is lam:
            lam = lam.copy()
        lam.view(np.int64)[retry] += 1  # the next double up
    raise RuntimeError(f"PT spectrum count undefined near {float(lam[retry[0]])!r}")


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
