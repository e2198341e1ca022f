import ast
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import qbmsim.symplectic
from qbmsim import (
    OscillatorNetwork,
    build_potential_matrix,
    build_quadratic_form,
    embed_orthogonal,
    evolve,
    gibbs_covariance,
    is_pure,
    is_valid_covariance,
    make_pure_gaussian,
    mean_energy,
    normal_modes,
    propagator,
    purity_residual,
    symplectic_form,
    symplectic_spectrum,
    thermal_factor,
    trajectory,
)

from conftest import random_covariance, random_network


def test_symplectic_form_structure():
    sig = symplectic_form(3)
    npt.assert_array_equal(sig[:2, :2], [[0.0, 1.0], [-1.0, 0.0]])
    npt.assert_array_equal(sig.T, -sig)
    npt.assert_array_equal(sig @ sig, -np.eye(6))


def test_thermal_factor_frozen_value():
    # f(1) = 1 + 2/(e - 1)
    npt.assert_allclose(thermal_factor(1.0), 2.1639534137386525, rtol=1e-15)


def test_thermal_factor_zero_occupation_limit():
    assert abs(thermal_factor(50.0) - 1.0) <= 1e-15


def test_thermal_factor_laurent_expansion():
    x = 0.001
    npt.assert_allclose(thermal_factor(x), 2.0 / x + x / 6.0, rtol=1e-6)


def test_thermal_factor_rejects_nonpositive():
    for x in (0.0, -1.0):
        with pytest.raises(ValueError):
            thermal_factor(x)


@given(st.floats(min_value=0.01, max_value=20.0),
       st.floats(min_value=0.01, max_value=20.0))
@settings(max_examples=50, deadline=None)
def test_thermal_factor_decreasing(x, y):
    lo, hi = min(x, y), max(x, y)
    assert thermal_factor(lo) >= thermal_factor(hi) > 1.0


def test_normal_modes_uncoupled_sorted():
    net = OscillatorNetwork(omegas=[1.0, 0.5, 2.0], kappas=[0.0, 0.0])
    modes = normal_modes(build_potential_matrix(net))
    npt.assert_allclose(modes.tilde_omegas, [0.5, 1.0, 2.0], atol=1e-14)
    # columns of the mode matrix form a signed permutation
    npt.assert_allclose(np.abs(modes.mode_matrix).sum(axis=0), 1.0, atol=1e-12)


def test_normal_modes_analytic_two_by_two():
    net = OscillatorNetwork(omegas=[1.0, 1.0], kappas=[0.2])
    modes = normal_modes(build_potential_matrix(net))
    npt.assert_allclose(modes.tilde_omegas ** 2, [0.8, 1.2], rtol=1e-14)


def test_normal_modes_diagonalize_and_embed(rng):
    net = random_network(rng, 6)
    v = build_potential_matrix(net)
    modes = normal_modes(v)
    m = modes.mode_matrix
    npt.assert_allclose(m.T @ m, np.eye(7), atol=1e-12)
    off = m.T @ (2.0 * v) @ m - np.diag(modes.tilde_omegas ** 2)
    assert np.abs(off).max() <= 1e-11
    t = embed_orthogonal(modes.mode_matrix.T)
    sig = symplectic_form(7)
    npt.assert_allclose(t @ sig @ t.T, sig, atol=1e-12)
    npt.assert_allclose(t.T @ t, np.eye(14), atol=1e-12)


def test_embed_orthogonal_layout():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    e = embed_orthogonal(m)
    npt.assert_array_equal(e[0::2, 0::2], m)
    npt.assert_array_equal(e[1::2, 1::2], m)
    npt.assert_array_equal(e[0::2, 1::2], np.zeros((2, 2)))


def test_gibbs_single_mode_values():
    net = OscillatorNetwork(omegas=[2.0], kappas=[])
    modes = normal_modes(build_potential_matrix(net))
    f = thermal_factor(2.0)
    npt.assert_allclose(gibbs_covariance(modes, 1.0),
                        np.diag([f / 2.0, 2.0 * f]), rtol=1e-14)
    # beta -> inf approaches the mode ground state diag(1/omega, omega)
    npt.assert_allclose(gibbs_covariance(modes, 1e3), np.diag([0.5, 2.0]),
                        atol=1e-12)


def test_gibbs_unit_mode_cold_limit_is_vacuum():
    net = OscillatorNetwork(omegas=[1.0], kappas=[])
    modes = normal_modes(build_potential_matrix(net))
    npt.assert_allclose(gibbs_covariance(modes, 1e3), np.eye(2), atol=1e-12)


def test_gibbs_rejects_nonpositive_beta():
    net = OscillatorNetwork(omegas=[1.0], kappas=[])
    modes = normal_modes(build_potential_matrix(net))
    with pytest.raises(ValueError):
        gibbs_covariance(modes, 0.0)


def test_gibbs_stationary_under_evolution(rng):
    net = random_network(rng, 3)
    modes = normal_modes(build_potential_matrix(net))
    gamma = gibbs_covariance(modes, 0.7)
    assert is_valid_covariance(gamma)
    for t in np.linspace(0.0, 100.0, 7):
        drift = np.abs(evolve(gamma, net, t) - gamma).max()
        assert drift <= 1e-8


def test_propagator_identity_and_periodicity():
    net = OscillatorNetwork(omegas=[1.0, 2.0], kappas=[0.0])
    npt.assert_allclose(propagator(net, 0.0), np.eye(4), atol=0)
    s = propagator(net, 2.0 * np.pi / 2.0)
    npt.assert_allclose(s[2:, 2:], np.eye(2), atol=1e-12)


def test_propagator_group_law(rng):
    net = random_network(rng, 4)
    for _ in range(5):
        t, s = rng.uniform(0.0, 10.0, 2)
        err = np.abs(propagator(net, t + s)
                     - propagator(net, t) @ propagator(net, s)).max()
        assert err <= 1e-9


def test_propagator_matches_exponential_oracle(rng):
    for _ in range(10):
        net = random_network(rng, int(rng.integers(1, 8)))
        w = build_quadratic_form(build_potential_matrix(net))
        sig = symplectic_form(net.n_modes)
        t = rng.uniform(0.0, 10.0)
        err = np.abs(propagator(net, t) - expm(t * sig @ w)).max()
        assert err <= 1e-8


def test_propagator_symplectic(rng):
    for _ in range(10):
        net = random_network(rng, int(rng.integers(1, 17)))
        sig = symplectic_form(net.n_modes)
        s = propagator(net, rng.uniform(0.0, 50.0))
        assert np.abs(s @ sig @ s.T - sig).max() <= 1e-10


def test_trajectory_matches_propagator_conjugation(rng):
    net = random_network(rng, 4)
    gamma0 = random_covariance(rng, net.n_modes)
    modes = normal_modes(build_potential_matrix(net))
    times = [0.0, -2.5, 0.3, 1e4, -1e3]
    states = list(trajectory(gamma0, modes, times))
    assert len(states) == len(times)
    for t, gamma_t in zip(times, states):
        s = propagator(net, t)
        assert np.array_equal(gamma_t, s @ gamma0 @ s.T)


def test_evolve_quarter_period_squeezed():
    # uncoupled mode omega: quarter period maps diag(a, 1/a) to
    # diag(1/(a omega^2), a omega^2)
    omega, a = 1.7, 3.0
    net = OscillatorNetwork(omegas=[omega], kappas=[])
    gamma = evolve(np.diag([a, 1.0 / a]), net, np.pi / (2.0 * omega))
    npt.assert_allclose(gamma, np.diag([1.0 / (a * omega ** 2), a * omega ** 2]),
                        atol=1e-12)


def test_evolve_preserves_validity_and_energy(rng):
    net = random_network(rng, 5)
    w = build_quadratic_form(build_potential_matrix(net))
    gamma0 = random_covariance(rng, net.n_modes)
    e0 = mean_energy(gamma0, w)
    for t in rng.uniform(0.0, 100.0, 10):
        gamma_t = evolve(gamma0, net, float(t))
        assert symplectic_spectrum(gamma_t).min() >= 1.0 - 1e-9
        assert abs(mean_energy(gamma_t, w) - e0) <= 1e-9 * abs(e0)


def test_symplectic_spectrum_known_cases():
    npt.assert_allclose(symplectic_spectrum(np.eye(6)), np.ones(3), atol=1e-12)
    npt.assert_allclose(symplectic_spectrum(np.diag([3.0, 1.0 / 3.0])), [1.0],
                        rtol=1e-12)
    npt.assert_allclose(symplectic_spectrum(2.5 * np.eye(2)), [2.5], rtol=1e-12)


def test_symplectic_spectrum_thermal_product():
    f1, f2 = 1.3, 4.0
    gamma = np.diag([f1, f1, f2, f2])
    npt.assert_allclose(symplectic_spectrum(gamma), [f1, f2], rtol=1e-12)


def test_symplectic_spectrum_rejects_indefinite():
    with pytest.raises(ValueError):
        symplectic_spectrum(np.diag([1.0, -1.0]))


def test_symplectic_spectrum_ill_conditioned_fallback():
    # r = 5 squeezing gives condition number e^20 > 1e8, forcing the
    # Schur-form route; the spectrum of a pure state is still all ones
    gamma = make_pure_gaussian(5.0, 0.4)
    assert np.linalg.cond(gamma) > 1e8
    npt.assert_allclose(symplectic_spectrum(gamma), [1.0], rtol=1e-8)


def test_symplectic_spectrum_fallback_mixed_pair():
    big = make_pure_gaussian(5.0, 0.0)
    gamma = np.zeros((4, 4))
    gamma[:2, :2] = big
    gamma[2:, 2:] = 1.8 * np.eye(2)
    vals = symplectic_spectrum(gamma)
    npt.assert_allclose(vals, [1.0, 1.8], rtol=1e-7)


def test_validity_checks():
    assert is_valid_covariance(np.eye(4))
    assert not is_valid_covariance(0.5 * np.eye(2))
    assert not is_valid_covariance(np.array([[1.0, 0.2], [0.1, 1.0]]))


def test_purity_checks():
    assert is_pure(np.eye(2))
    assert is_pure(np.diag([2.0, 0.5]))
    assert not is_pure(2.0 * np.eye(2))
    assert purity_residual(np.eye(2)) <= 1e-14
    assert purity_residual(2.0 * np.eye(2)) > 1.0


@pytest.mark.parametrize("theta", [0.3, 1.0])
@pytest.mark.parametrize("r", [4.75, 6.0, 9.0])
def test_is_pure_allows_for_the_rounding_of_squeezed_states(r, theta):
    # the residual rounds like eps ||gamma||_F^2: 2.7e-9 at r = 4.75, theta = 0.3
    pure = make_pure_gaussian(r, theta)
    assert is_pure(pure)
    # a state mixed by one part in 1e4 (residual 2.8e-4) stands out until the
    # rounding allowance 8 eps e^{4r} reaches that size, at r = 6.5
    assert is_pure(1.0001 * pure) == (r > 6.5)


def test_mean_energy_values():
    net = OscillatorNetwork(omegas=[1.0], kappas=[])
    w = build_quadratic_form(build_potential_matrix(net))
    npt.assert_allclose(mean_energy(np.eye(2), w), 0.5, atol=0)
    omega, f = 1.9, 2.3
    net2 = OscillatorNetwork(omegas=[omega], kappas=[])
    w2 = build_quadratic_form(build_potential_matrix(net2))
    npt.assert_allclose(mean_energy(np.diag([f / omega, f * omega]), w2),
                        f * omega / 2.0, rtol=1e-14)


@given(st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=0.0, max_value=2.0 * np.pi))
@settings(max_examples=50, deadline=None)
def test_make_pure_gaussian_properties(r, theta):
    gamma = make_pure_gaussian(r, theta)
    assert abs(np.linalg.det(gamma) - 1.0) <= 1e-12
    assert is_pure(gamma, tol=1e-9)


def test_make_pure_gaussian_axis_aligned():
    npt.assert_allclose(make_pure_gaussian(0.0, 0.0), np.eye(2), atol=1e-15)
    npt.assert_allclose(make_pure_gaussian(0.5, 0.0),
                        np.diag([np.e, 1.0 / np.e]), rtol=1e-15)


def test_symplectic_imports_model_for_type_checking_only():
    # the dependency runs one way, model -> symplectic
    tree = ast.parse(Path(qbmsim.symplectic.__file__).read_text(encoding="utf-8"))
    guarded = {id(inner) for node in ast.walk(tree)
               if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING"
               for inner in ast.walk(node)}
    model_imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                     and (node.module or "").split(".")[-1] == "model"]
    assert all(id(node) in guarded for node in model_imports)
