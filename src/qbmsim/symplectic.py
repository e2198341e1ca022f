"""Gaussian-state machinery on 2n x 2n covariance matrices.

Coordinates are interleaved, (x0, p0, x1, p1, ...), first moments are zero
throughout, and the vacuum covariance is the identity.  A covariance Gamma
is physical when Gamma + i*Sigma >= 0, i.e. all symplectic eigenvalues are
at least 1.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import sys
import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import NDArray

if TYPE_CHECKING:
    from .model import OscillatorNetwork

#: largest condition number of Gamma for the eigvals route, which runs only where
#: _well_conditioned proves it; the Hermitian-form route runs elsewhere
ILL_CONDITIONED = 1e8

#: tolerance on symplectic eigenvalues for physicality checks
COV_TOL = 1e-9

#: rows per strip of the symmetry check, which reads Gamma transposed
_SKEW_STRIP = 64

#: bound on a system state's entries, about 5.8e76: a product of two stays below
#: 2^510, so det^2, the purity residual and the evolution's products stay finite
_MAX_STATE_ENTRY = 2.0**255


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
    if not (x > 0.0).all():  # a NaN fails too
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
    return _modes_of_doubled(2.0 * np.asarray(v, dtype=float))


def _modes_of_doubled(two_v: NDArray[np.float64]) -> NormalModes:
    """normal_modes from 2V itself, for a caller that built 2V in place of V.

    Passing 2V instead of V spares the n x n copy that doubling V makes while
    the eigensolver runs.
    """
    evals, m = np.linalg.eigh(two_v)
    if not evals.min() > 0.0:  # a NaN eigenvalue fails too
        raise ValueError(
            f"stiffness matrix is not positive definite (min eig of 2V = {evals.min():.3e})"
        )
    modes = NormalModes(mode_matrix=m, tilde_omegas=np.sqrt(evals))
    for a in (modes.mode_matrix, modes.tilde_omegas):
        a.setflags(write=False)
    return modes


def _thermal_factors(omegas: NDArray[np.float64], beta: float) -> NDArray[np.float64]:
    """thermal_factor(beta * omegas), where a product past the double range is inf.

    A beta near the top of the double range, such as 1e308, takes beta * w to
    inf, whose factor is 1: the ground state, as it is for every finite
    beta * w beyond about 700.  That overflow is expected, so it does not warn.
    """
    with np.errstate(over="ignore"):
        x = beta * np.asarray(omegas, dtype=float)
    return thermal_factor(x)


def thermal_diagonal(omegas: NDArray[np.float64], beta: float) -> NDArray[np.float64]:
    """Gibbs covariance of uncoupled oscillators, which is diagonal.

    Returns its diagonal as a (2, n) array, one column per frequency w: row 0
    holds the position entries f(beta*w)/w and row 1 the momentum entries
    f(beta*w)*w, with f the thermal factor; beta = inf gives the ground state.
    """
    if not beta > 0.0:
        raise ValueError("beta must be positive")
    omegas = np.asarray(omegas, dtype=float)
    f = np.atleast_1d(_thermal_factors(omegas, beta))
    d = np.empty((2, f.size))
    np.divide(f, omegas, out=d[0])
    np.multiply(f, omegas, out=d[1])
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
    x, p = thermal_diagonal(modes.tilde_omegas, beta)
    m = modes.mode_matrix
    return (m * x) @ m.T, (m * p) @ m.T


def propagator(net: OscillatorNetwork, t: float) -> NDArray[np.float64]:
    """Symplectic phase-space map S_t = exp(t Sigma W) of the network flow.

    Built from the network's normal modes: each mode rotates as
    [[cos(w t), sin(w t)/w], [-w sin(w t), cos(w t)]], conjugated back to
    the original coordinates.  Valid for any real t whose phases w t are
    finite, a ValueError beyond; S_0 is the identity and S_{t+s} = S_t S_s.
    """
    return _propagator_from_modes(net.modes, t)


def _propagator_from_modes(modes: NormalModes, t: float,
                           tmat: NDArray[np.float64] | None = None) -> NDArray[np.float64]:
    """S_t from the modes; tmat, when given, is embed_orthogonal(modes.mode_matrix.T)."""
    tw = modes.tilde_omegas
    _require_finite_phases(t, tw)
    n = tw.size
    r = np.zeros((2 * n, 2 * n))
    c, s = np.cos(tw * t), np.sin(tw * t)
    idx = np.arange(n)
    r[2 * idx, 2 * idx] = c
    r[2 * idx + 1, 2 * idx + 1] = c
    r[2 * idx, 2 * idx + 1] = s / tw
    r[2 * idx + 1, 2 * idx] = -s * tw
    if tmat is None:
        tmat = embed_orthogonal(modes.mode_matrix.T)
    # dense T^T R T, not n x n blocks: the onset references pin its bits (ROADMAP item 3)
    return tmat.T @ r @ tmat


def trajectory(gamma0: NDArray[np.float64], modes: NormalModes,
               times: Iterable[float]) -> Iterator[NDArray[np.float64]]:
    """Yield Gamma_t = S_t Gamma_0 S_t^T for each t in times, one at a time.

    Nothing is stacked, so memory stays at a few 2n x 2n matrices.
    """
    tmat = embed_orthogonal(modes.mode_matrix.T)
    for t in times:
        s = _propagator_from_modes(modes, float(t), tmat)
        gamma_t = s @ gamma0 @ s.T
        del s  # not held while the caller works on gamma_t
        yield gamma_t


def evolve(gamma: NDArray[np.float64], net: OscillatorNetwork,
           t: float) -> NDArray[np.float64]:
    """Evolve a covariance matrix: Gamma_t = S_t Gamma S_t^T."""
    return next(trajectory(gamma, net.modes, (t,)))


def symplectic_spectrum(gamma: NDArray[np.float64]) -> NDArray[np.float64]:
    """Symplectic eigenvalues of a symmetric positive definite matrix.

    Returned ascending.  Where _well_conditioned proves, in O(n^2), that
    Gamma is positive definite with condition number at most ILL_CONDITIONED,
    they come from the eigenvalues of Sigma*Gamma.  Elsewhere they are the
    positive eigenvalues of the Hermitian matrix i L^T Sigma L with
    Gamma = L L^T, L = U sqrt(w) from Gamma = U diag(w) U^T, which is stabler
    for strongly squeezed states; that eigh also rejects a matrix that is not
    positive definite.  A Gamma with an entry that is not finite, or whose
    entries differ from their transposes by more than 1e-10 (1 + max|Gamma|),
    is rejected before either route.

    The eigensolves run with OpenBLAS set to one thread: on the 2n x 2n
    matrices of a workflow (130 x 130 in `immediate` at n_env 64) its
    threading of the small level-2 calls inside the Hessenberg/QR reduction
    costs more than it saves, and there the eigenvalues come out bit for bit
    as on two threads.  The thread count is process-wide, so BLAS calls of
    other threads run on one thread too while an eigensolve runs; the
    caller's count is restored afterwards, on return and on raise alike.
    Matrix products keep the caller's count, apart from the two that form
    the Hermitian matrix between its route's eigensolves.
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim != 2 or gamma.shape[0] != gamma.shape[1] or gamma.shape[0] % 2:
        raise ValueError("covariance matrix must be square with even dimension")
    if not gamma.size:
        raise ValueError("covariance matrix is empty: it needs at least one mode")
    scale = float(np.abs(gamma).max())
    if not scale < math.inf:  # a NaN fails too
        raise ValueError("covariance matrix has an entry that is not finite")
    skew = _max_skew(gamma)
    if not skew <= 1e-10 * (1.0 + scale):
        raise ValueError(
            f"covariance matrix is not symmetric: max |Gamma - Gamma^T| = {skew:.3e}")
    if not _well_conditioned(gamma):
        return _spectrum_schur(gamma)
    with _one_blas_thread():
        eigs = np.linalg.eigvals(_sigma_times(gamma))
    # eigenvalues come in pairs +-i d; sorting |Im| pairs them up
    d = np.sort(np.abs(eigs.imag))
    return d[1::2]


def _max_skew(gamma: NDArray[np.float64]) -> float:
    """max |gamma - gamma^T| of a square gamma with finite entries, the same float.

    Strip by strip: rows lo:hi from the diagonal rightwards against columns
    lo:hi from the diagonal down, read transposed.  Each pair of entries
    meets once, and |a - b| = |b - a| exactly.  A strip's transposed read
    walks rows of _SKEW_STRIP contiguous entries that stay in cache, where
    gamma.T strides 8n bytes per entry across the whole matrix.  A
    difference past the double range is inf, and does not warn.
    """
    n, k = gamma.shape[0], _SKEW_STRIP
    skew = 0.0
    with np.errstate(over="ignore"):
        for lo in range(0, n, k):
            diff = gamma[lo:lo + k, lo:] - gamma[lo:, lo:lo + k].T
            skew = max(skew, float(np.abs(diff, out=diff).max()))
    return skew


def _well_conditioned(gamma: NDArray[np.float64]) -> bool:
    """True only when an O(n^2) bound proves that the eigvals route may run.

    That is: gamma is positive definite with condition number at most
    ILL_CONDITIONED.  The bound reads the lower triangle, as the Hermitian
    route's eigh does: G, the symmetric matrix with gamma's diagonal and
    strict lower triangle.  symplectic_spectrum has checked that gamma is
    symmetric to 1e-10 (1 + max|gamma|) before it asks.

    - With d = diag(G) > 0 and H = D^-1/2 G D^-1/2, which has a unit
      diagonal, ||H - I||_2 <= ||H - I||_F = f, f^2 = 2 sum_{i>j}
      g_ij^2 / (d_i d_j).  f is widened for its own rounding, as
      certify._GapBlock._bound widens ||K||_F; the absolute term also covers
      scaled entries that underflow.  Its margin over the sum's rounding,
      tens of eps, also covers the few roundings of the ends and of their
      comparison below.
    - By Ostrowski's theorem every eigenvalue of G = D^1/2 H D^1/2 lies in
      [(1 - f) min d, (1 + f) max d] when f < 1, so the condition number is
      at most the ratio of those ends.  The lower end must be a positive
      normal double.

    This is the Frobenius certificate of _GapBlock.  A NaN, an inf or a
    diagonal entry <= 0 proves nothing.  The scaled lower triangle is one
    n x n float temporary (np.tril's mask adds n x n bytes).
    """
    d = gamma.diagonal()
    d_min, d_max = float(d.min(initial=math.inf)), float(d.max(initial=0.0))
    if not 0.0 < d_min <= d_max < math.inf:  # a NaN, and an empty gamma, fail too
        return False
    n = gamma.shape[0]
    slack = (n + 8) ** 2 * float(np.finfo(float).eps) / 2.0
    s = 1.0 / np.sqrt(d)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        h = np.tril(gamma, -1)
        h *= s[:, None]
        h *= s
        f_sq = 2.0 * float(np.vdot(h, h))
    f = math.sqrt(f_sq) * (1.0 + slack) + slack
    if not f < 1.0:  # inf and NaN fail too
        return False
    bottom = (1.0 - f) * d_min
    return float(np.finfo(float).tiny) <= bottom and (1.0 + f) * d_max <= ILL_CONDITIONED * bottom


def _spectrum_schur(gamma: NDArray[np.float64]) -> NDArray[np.float64]:
    n = gamma.shape[0] // 2
    with _one_blas_thread():
        w, u = np.linalg.eigh(gamma)
        if not w[0] > 0.0:  # a NaN fails too
            raise ValueError(f"matrix is not positive definite (min eigenvalue {w[0]:.3e})")
        root = u * np.sqrt(w)
        # L^T Sigma L is real antisymmetric with eigenvalues +-i*d, so the
        # Hermitian matrix i L^T Sigma L has eigenvalues +-d, the upper n ascending
        form = 1j * (root.T @ symplectic_form(n) @ root)
        return np.linalg.eigvalsh(form)[n:]


def _sigma_times(gamma: NDArray[np.float64]) -> NDArray[np.float64]:
    """symplectic_form(n) @ gamma bit for bit, in O(n^2) by moving rows.

    Each entry of the product has one nonzero term, so row 2i is row 2i+1 of
    gamma and row 2i+1 is row 2i negated.  Adding and subtracting from +0.0
    turns a zero into +0.0, as the product's sum of terms does.
    """
    sg = np.empty_like(gamma)
    np.add(gamma[1::2], 0.0, out=sg[0::2])
    np.subtract(0.0, gamma[0::2], out=sg[1::2])
    return sg


#: OpenBLAS's (get, set) num-threads pair, looked up on first use; () where none is loaded
_blas_thread_calls: tuple | None = None
_blas_thread_lock = threading.Lock()


def _find_blas_thread_calls() -> tuple:
    """The get/set-num-threads functions of the OpenBLAS mapped into this process, or ()."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return ()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return ()


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Run the body with OpenBLAS on one thread, then restore the count it had.

    The count is process-wide, so the lock keeps two callers from restoring
    each other's 1.  Without OpenBLAS this does nothing.
    """
    global _blas_thread_calls
    with _blas_thread_lock:
        if _blas_thread_calls is None:
            _blas_thread_calls = _find_blas_thread_calls()
        if _blas_thread_calls:
            get, put = _blas_thread_calls
            before = get()
            put(1)
            try:
                yield
            finally:
                put(before)
            return
    yield


def is_valid_covariance(gamma: NDArray[np.float64]) -> bool:
    """True when Gamma is symmetric, positive definite and Gamma + i Sigma >= 0 to COV_TOL.

    The shape, finiteness and symmetry checks are symplectic_spectrum's;
    symmetry holds to 1e-10 (1 + max|Gamma|).
    """
    try:
        spec = symplectic_spectrum(gamma)
    except ValueError:
        return False
    return bool(spec.min() >= 1.0 - COV_TOL)


def is_pure(gamma: NDArray[np.float64], tol: float = 1e-9) -> bool:
    """Purity test: (Sigma Gamma)^2 = -1 exactly on pure Gaussian states.

    The residual of a pure state held in doubles rounds like eps ||Gamma||_F^2
    (6e-6 at squeezing r = 6), so the bound is tol + 8 eps ||Gamma||_F^2.
    Raises ValueError, as purity_residual does, for an entry of magnitude 2^255
    or more.
    """
    return bool(purity_residual(gamma) <= _purity_bound(gamma, tol))


def _require_bounded_entries(gamma: NDArray[np.float64]) -> None:
    """Raise ValueError when an entry of gamma reaches _MAX_STATE_ENTRY in magnitude."""
    if np.abs(gamma).max() >= _MAX_STATE_ENTRY:
        raise ValueError("system covariance entries must be below 2^255 in magnitude, "
                         "beyond which products of entries overflow double precision")


def _require_finite_phases(times: float | NDArray[np.float64],
                           tilde_omegas: NDArray[np.float64]) -> None:
    """Raise ValueError naming the first time whose phase w t overflows for some mode.

    The test is |t| > max double / w_max, taken one ulp below the rounded
    quotient, so that neither it nor a phase of a time it passes overflows.
    """
    w_max = float(tilde_omegas[-1])  # tilde_omegas ascend
    times = np.atleast_1d(times)
    far = np.flatnonzero(np.abs(times) > math.nextafter(sys.float_info.max / w_max, 0.0))
    if far.size:
        raise ValueError(f"time {float(times[far[0]])!r} is too large: its phase w t "
                         f"overflows at the fastest normal mode, w = {w_max!r}")


def _purity_bound(gamma: NDArray[np.float64], tol: float) -> float:
    return tol + 8.0 * np.finfo(float).eps * float(np.sum(np.square(gamma, dtype=float)))


def purity_residual(gamma: NDArray[np.float64]) -> float:
    """||(Sigma Gamma)^2 + 1||_F, which is 0 on pure Gaussian states.

    Raises ValueError for an entry of magnitude 2^255 or more: the residual
    squares entries of size det Gamma, which would overflow.
    """
    gamma = np.asarray(gamma, dtype=float)
    _require_bounded_entries(gamma)
    sg = _sigma_times(gamma)
    return float(np.linalg.norm(sg @ sg + np.eye(gamma.shape[0])))


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
