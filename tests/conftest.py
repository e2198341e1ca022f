import numpy as np
import pytest

import qbmsim.entanglement
from qbmsim import OscillatorNetwork, make_pure_gaussian
from qbmsim.entanglement import DISCRIMINANT_FLOOR, TwoModeBlock


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


def random_network(rng, n_env, omega_lo=0.2, omega_hi=3.0, fill=None):
    """Random coupled network with a guaranteed positive definite potential.

    V is positive definite iff sum(kappa^2 / omega_env^2) < omega_sys^2
    (Schur complement on the system entry), so couplings are drawn and then
    rescaled to land at a random fill factor strictly below 1.
    """
    omegas = np.concatenate(([1.0], rng.uniform(omega_lo, omega_hi, n_env)))
    kappas = rng.uniform(0.1, 1.0, n_env)
    if fill is None:
        fill = rng.uniform(0.1, 0.8)
    scale = np.sqrt(fill / np.sum(kappas ** 2 / omegas[1:] ** 2))
    return OscillatorNetwork(omegas=omegas, kappas=kappas * scale)


def random_explicit_network(rng, n_env):
    """Explicit network with repeated bath frequencies and ~15 % zero couplings."""
    omega_sys = rng.uniform(0.5, 2.0)
    pool = rng.uniform(0.2, 3.0, n_env // 2 + 1)
    omegas = np.concatenate(([omega_sys], rng.choice(pool, n_env)))
    kappas = rng.uniform(0.1, 1.0, n_env) * (rng.random(n_env) >= 0.15)
    # V is positive definite iff sum(kappa^2 / omega_j^2) < omega_sys^2
    load = np.sum(kappas ** 2 / omegas[1:] ** 2)
    if load > 0.0:
        kappas *= np.sqrt(rng.uniform(0.1, 0.8) * omega_sys ** 2 / load)
    return OscillatorNetwork(omegas=omegas, kappas=kappas)


def random_pure_system(rng, r_max=1.5):
    return make_pure_gaussian(rng.uniform(0.0, r_max), rng.uniform(0.0, np.pi))


def two_mode_squeezed(r):
    ch, sh = np.cosh(2.0 * r), np.sinh(2.0 * r)
    a = ch * np.eye(2)
    c = sh * np.diag([1.0, -1.0])
    return TwoModeBlock(a=a, b=a.copy(), c=c)


def random_covariance(rng, n_modes, spread=1.0):
    """Valid covariance: identity plus a random PSD part."""
    d = 2 * n_modes
    L = rng.normal(0.0, spread, (d, d))
    return np.eye(d) + L @ L.T / d


def random_two_mode_block(rng, spread=1.0):
    g = random_covariance(rng, 2, spread)
    return TwoModeBlock(a=g[:2, :2], b=g[2:, 2:], c=g[:2, 2:])


def scalar_lambda_of_block(block):
    """lambda_of_block for one 2x2 pair, with explicit adjugates: the stacked form's oracle."""
    def adjugate(m):
        return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])

    a, b, c = block.a, block.b, block.c
    det_a, det_b, det_c = map(np.linalg.det, (a, b, c))
    d = det_a + det_b - 2.0 * det_c
    disc = ((det_a - det_b) ** 2 / 4.0
            - det_c * (det_a + det_b)
            + np.trace(adjugate(a) @ c @ adjugate(b) @ c.T))
    if disc < DISCRIMINANT_FLOOR:
        raise ValueError(f"negative discriminant {disc:.3e}: block is not a valid covariance")
    return float(np.linalg.det(block.assembled) / (d / 2.0 + np.sqrt(max(disc, 0.0))))


def bisect_smallest_root(bracket, coef, quad, nu_s, nu):
    """The PT kernel's roots by bisection over the bits of doubles: the oracle of its search.

    One pass checks the lower end of the bracket, then each pass halves
    every time's bracket with one vectorised count, 63 passes at most.
    """
    count = qbmsim.entanglement._positive_eigenvalues_below
    lo, hi = (np.full(coef.shape[1], end).view(np.int64) for end in bracket)
    found = count(lo.view(np.float64), coef, quad, nu_s, nu)[0] >= 1.0
    lo = np.where(found, 0, lo)
    for _ in range(63):  # positive doubles have 63 value bits
        half = (hi - lo) // 2
        if not half.any():
            break
        mid = lo + half
        found = count(mid.view(np.float64), coef, quad, nu_s, nu)[0] >= 1.0
        hi = np.where(found, mid, hi)
        lo = np.where(found, lo, mid)
    return hi.view(np.float64)
