"""PPT-based separability tests for Gaussian states.

For a bipartition with a single mode on one side, positivity of the partial
transpose is necessary and sufficient for separability, so the verdicts here
are decisions, not just witnesses.  The partial transpose acts on covariance
matrices by flipping the momentum sign of every environment mode.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from numpy.typing import NDArray

from .symplectic import NormalModes, symplectic_spectrum, thermal_diagonal

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
    """4x4 covariance of (system, one bath mode): [[A, C], [C^T, B]]."""

    a: NDArray[np.float64]
    b: NDArray[np.float64]
    c: NDArray[np.float64]

    @property
    def assembled(self) -> NDArray[np.float64]:
        return np.block([[self.a, self.c], [self.c.T, self.b]])


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
    for m in range(n):
        if m not in sys:
            signs[2 * m + 1] = -1.0
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
    min_pt = float(spec.min())
    if min_pt >= 1.0 - tol:
        status = SEPARABLE
    elif min_pt < 1.0 - 3.0 * tol:
        status = ENTANGLED
    else:
        status = INCONCLUSIVE
    log_neg = 0.0 if status == SEPARABLE else max(0.0, -float(np.log(min_pt)))
    return EntanglementVerdict(status=status, min_pt_symplectic=min_pt,
                               log_negativity=log_neg)


def product_state_pt_minima(gamma_sys: NDArray[np.float64], modes: NormalModes,
                            omega_bath: NDArray[np.float64], beta: float,
                            times: Iterable[float]) -> NDArray[np.float64]:
    """Smallest PT symplectic eigenvalue of S_t Gamma_0 S_t^T at each time.

    Gamma_0 is gamma_sys (mode 0) tensored with the Gibbs state of the
    uncoupled bath at inverse temperature beta, and S_t is the flow of the
    network with normal modes `modes`.  Each time costs O(n^2) work and O(n)
    memory: no 2n x 2n matrix is formed and no eigensolver runs.  The values
    equal ppt_verdict(S_t Gamma_0 S_t^T).min_pt_symplectic up to rounding.

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
    px = -M diag(w sin wt) M^T, three matrix-vector products.

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
    bisection over the bit patterns of positive doubles: at most 63 counts,
    to one ulp.  nu_s is not a pole in this bordered form, so at t = 0, where
    the minimum is nu_s itself, it is found to rounding; a secular equation
    over all 2n poles would put that root on a pole.  Raises ValueError for a
    non-finite time, a gamma_sys that is not a 2x2 positive definite matrix,
    or an omega_bath that does not match the bath modes.
    """
    gamma_sys = np.asarray(gamma_sys, dtype=float)
    times = np.asarray(times, dtype=float).ravel()
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    if gamma_sys.shape != (2, 2):
        raise ValueError("system covariance must be 2x2")
    try:
        chol = np.linalg.cholesky(gamma_sys)
    except np.linalg.LinAlgError:
        raise ValueError("system covariance must be positive definite") from None
    l00, l10, l11 = float(chol[0, 0]), float(chol[1, 0]), float(chol[1, 1])
    root = np.sqrt(thermal_diagonal(omega_bath, beta))
    rx, rp = root[0::2], root[1::2]
    m, w = modes.mode_matrix, modes.tilde_omegas
    if rx.size + 1 != w.size:
        raise ValueError(f"omega_bath has {rx.size} modes, the network {w.size - 1} bath modes")
    nu_s, nu = l00 * l11, rx * rp
    poles = sorted(nu.tolist())
    nu_max = max([nu_s, *poles])
    m0 = m[0]
    m0_over_w, m0_w = m0 / w, m0 * w
    minima = np.empty(times.size)
    for i, t in enumerate(times):
        c, s = np.cos(w * t), np.sin(w * t)
        xx, xp, px = np.stack((m0 * c, m0_over_w * s, -m0_w * s)) @ m.T
        ax, ap, bx, bp = rx * xx[1:], rp * xp[1:], rx * px[1:], rp * xx[1:]
        coef = np.stack((ax * ax + ap * ap, bx * bx + bp * bp,
                         ax * bx + ap * bp, nu * (ax * bp - ap * bx)))
        a0, a1 = l00 * xx[0] + l10 * xp[0], l11 * xp[0]
        b0, b1 = l00 * px[0] + l10 * xx[0], l11 * xx[0]
        norm_a2 = coef[0].sum() + a0 * a0 + a1 * a1
        norm_b2 = coef[1].sum() + b0 * b0 + b1 * b1
        # ||H|| <= max nu + 4 |a| |b|, so twice that lies above every eigenvalue
        upper = 2.0 * (nu_max + 4.0 * math.sqrt(norm_a2 * norm_b2))
        rows = (float(a0), float(a1), float(b0), float(b1))
        lo, hi = 0, _F64_BITS.unpack(_F64.pack(upper))[0]
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lam = _F64.unpack(_F64_BITS.pack(mid))[0]
            if _positive_eigenvalues_below(lam, coef, rows, nu_s, poles, nu) >= 1:
                hi = mid
            else:
                lo = mid
        minima[i] = _F64.unpack(_F64_BITS.pack(hi))[0]
    return minima


#: a positive double and the int64 of its bits order alike
_F64, _F64_BITS = struct.Struct("<d"), struct.Struct("<q")

#: a probe on a pole or a bath-block eigenvalue moves up one ulp, at most this often
_MAX_NUDGES = 8


def _positive_eigenvalues_below(lam: float, coef: NDArray[np.float64],
                                rows: tuple[float, float, float, float], nu_s: float,
                                poles: list[float], nu: NDArray[np.float64]) -> int:
    """Number of positive eigenvalues of H below lam, by the bordered inertia count.

    coef holds, per bath mode, the rows a_x^2 + a_p^2, b_x^2 + b_p^2,
    a_x b_x + a_p b_p and nu (a_x b_p - a_p b_x); rows is (a_0, a_1, b_0, b_1);
    poles is nu sorted.  See product_state_pt_minima for the derivation.
    """
    a0, a1, b0, b1 = rows
    for _ in range(_MAX_NUDGES):
        below = bisect_left(poles, lam)
        if below == len(poles) or poles[below] != lam:
            gaa, gbb, gab, h = (coef @ (1.0 / ((nu - lam) * (nu + lam)))).tolist()
            gaa, gbb, gab = lam * gaa, lam * gbb, lam * gab
            # A = C^-1 + G = [[gaa, y], [conj y, gbb]]
            y = complex(gab, h - 0.5)
            det = gaa * gbb - (y.real * y.real + y.imag * y.imag)
            if det != 0.0:
                break
        lam = math.nextafter(lam, math.inf)
    else:
        raise RuntimeError(f"PT spectrum count undefined near {lam!r}")
    neg_bath = 1 if det < 0.0 else (2 if gaa > 0.0 else 0)  # #neg(-A)
    # X = A^-1; Schur_s = i nu_s J - lam + P X P^T with P = [[a0, b0], [a1, b1]]
    xi1, xi2, zeta = gbb / det, gaa / det, -y / det
    s00 = a0 * a0 * xi1 + b0 * b0 * xi2 + 2.0 * a0 * b0 * zeta.real - lam
    s11 = a1 * a1 * xi1 + b1 * b1 * xi2 + 2.0 * a1 * b1 * zeta.real - lam
    s01 = (a0 * a1 * xi1 + b0 * b1 * xi2 + a0 * b1 * zeta + b0 * a1 * zeta.conjugate()
           + 1j * nu_s)
    det_s = s00 * s11 - (s01.real * s01.real + s01.imag * s01.imag)
    if det_s < 0.0:
        neg_sys = 1
    elif det_s > 0.0:
        neg_sys = 2 if s00 < 0.0 else 0
    else:
        neg_sys = 1 if s00 + s11 < 0.0 else 0
    return below + neg_bath + neg_sys - 2


def reduce_two_mode(gamma: NDArray[np.float64], env_mode: int) -> TwoModeBlock:
    """Project the covariance onto (system mode 0, bath mode env_mode).

    The principal submatrix of a physical covariance is again physical, so
    the block feeds directly into lambda_of_block or ppt_verdict.
    """
    gamma = np.asarray(gamma, dtype=float)
    n = gamma.shape[0] // 2
    if not 1 <= env_mode <= n - 1:
        raise ValueError(f"env_mode must be in 1..{n - 1}, got {env_mode}")
    k = 2 * env_mode
    idx = np.array([0, 1, k, k + 1])
    sub = gamma[np.ix_(idx, idx)]
    return TwoModeBlock(a=sub[:2, :2], b=sub[2:, 2:], c=sub[:2, 2:])


def _adjugate2(m: NDArray[np.float64]) -> NDArray[np.float64]:
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])


def lambda_of_block(block: TwoModeBlock) -> float:
    """Squared smallest PT symplectic eigenvalue of a two-mode covariance.

    With d = det A + det B - 2 det C this is d/2 - sqrt(d^2/4 - det Gamma);
    values below 1 certify entanglement of the pair.  The discriminant is
    evaluated in a cancellation-free form,

        d^2/4 - det Gamma = (det A - det B)^2 / 4
                            - det C (det A + det B) + tr(adj(A) C adj(B) C^T),

    which stays accurate when det A, det B and det Gamma are all close to 1
    (near-pure pairs at cold temperatures).  Discriminants below -1e-12
    signal an invalid block and raise; tiny negatives round up to zero.
    """
    a, b, c = block.a, block.b, block.c
    det_a, det_b, det_c = map(np.linalg.det, (a, b, c))
    d = det_a + det_b - 2.0 * det_c
    disc = ((det_a - det_b) ** 2 / 4.0
            - det_c * (det_a + det_b)
            + np.trace(_adjugate2(a) @ c @ _adjugate2(b) @ c.T))
    if disc < DISCRIMINANT_FLOOR:
        raise ValueError(
            f"negative discriminant {disc:.3e}: block is not a valid covariance"
        )
    return float(d / 2.0 - np.sqrt(max(disc, 0.0)))
