from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import qbmsim.model
from qbmsim import (
    OscillatorNetwork,
    SpectralFamily,
    build_potential_matrix,
    build_quadratic_form,
    evolve,
    make_spectral_model,
    propagator,
)

from conftest import random_network


def test_potential_uncoupled_diagonal():
    net = OscillatorNetwork(omegas=[1.0, 1.0], kappas=[0.0])
    npt.assert_array_equal(build_potential_matrix(net), np.diag([0.5, 0.5]))


def test_potential_entries_half_convention():
    net = OscillatorNetwork(omegas=[1.0, 1.0], kappas=[0.2])
    npt.assert_allclose(build_potential_matrix(net),
                        [[0.5, -0.1], [-0.1, 0.5]], atol=0)


def test_potential_rejects_indefinite():
    # 2x2 eigenvalues are omega^2/2 -+ kappa/2: below 0, 0, and 5e-15 <= 1e-12 ||V||
    for kappa in (1.1, 1.0, 1.0 - 1e-14):
        with pytest.raises(ValueError, match="couplings are too strong"):
            OscillatorNetwork(omegas=[1.0, 1.0], kappas=[kappa])


def test_network_diagonalises_once_and_shares_read_only_modes(monkeypatch):
    calls = []
    original = qbmsim.model.normal_modes

    def counting(v):
        calls.append(v.shape)
        return original(v)

    monkeypatch.setattr(qbmsim.model, "normal_modes", counting)
    net = OscillatorNetwork(omegas=[1.0, 1.5, 2.0], kappas=[0.2, 0.1])
    propagator(net, 0.5)
    evolve(np.eye(6), net, 1.0)
    assert calls == [(3, 3)]
    expected = original(build_potential_matrix(net))
    for name in ("mode_matrix", "tilde_omegas"):
        assert np.array_equal(getattr(net.modes, name), getattr(expected, name))
        with pytest.raises(ValueError):
            getattr(net.modes, name)[0] = 5.0
    changed = replace(net, kappas=[0.3, 0.0])
    assert calls == [(3, 3), (3, 3)]
    assert np.array_equal(changed.modes.tilde_omegas,
                          original(build_potential_matrix(changed)).tilde_omegas)
    assert not np.array_equal(changed.modes.tilde_omegas, net.modes.tilde_omegas)


def test_network_field_validation():
    with pytest.raises(ValueError):
        OscillatorNetwork(omegas=[1.0, -1.0], kappas=[0.1])
    with pytest.raises(ValueError):
        OscillatorNetwork(omegas=[1.0, 2.0], kappas=[-0.1])
    with pytest.raises(ValueError):
        OscillatorNetwork(omegas=[1.0, 2.0], kappas=[0.1, 0.2])
    with pytest.raises(ValueError):
        OscillatorNetwork(omegas=[1.0, np.nan], kappas=[0.1])


def test_quadratic_form_system_alone():
    net = OscillatorNetwork(omegas=[1.0], kappas=[])
    w = build_quadratic_form(build_potential_matrix(net))
    npt.assert_array_equal(w, np.eye(2))


def test_quadratic_form_uncoupled_interleaved():
    net = OscillatorNetwork(omegas=[1.0, 2.0], kappas=[0.0])
    w = build_quadratic_form(build_potential_matrix(net))
    npt.assert_array_equal(w, np.diag([1.0, 1.0, 4.0, 1.0]))


def test_quadratic_form_coupled_blocks():
    net = OscillatorNetwork(omegas=[1.0, 1.0], kappas=[0.2])
    w = build_quadratic_form(build_potential_matrix(net))
    npt.assert_allclose(w[0::2, 0::2], [[1.0, -0.2], [-0.2, 1.0]], atol=0)
    npt.assert_array_equal(w[1::2, 1::2], np.eye(2))
    npt.assert_array_equal(w[0::2, 1::2], np.zeros((2, 2)))


def test_quadratic_form_matches_hamiltonian(rng):
    # 1/2 o^T W o must equal kinetic + potential + interaction termwise
    net = random_network(rng, 5)
    v = build_potential_matrix(net)
    w = build_quadratic_form(v)
    for _ in range(100):
        x = rng.normal(size=6)
        p = rng.normal(size=6)
        o = np.empty(12)
        o[0::2] = x
        o[1::2] = p
        h_direct = (0.5 * p @ p + 0.5 * np.sum(net.omegas ** 2 * x ** 2)
                    - x[0] * np.sum(net.kappas * x[1:]))
        h_form = 0.5 * o @ w @ o
        npt.assert_allclose(h_form, h_direct, rtol=1e-12)


def test_spectral_model_single_mode():
    fam = SpectralFamily(exponent=1.0, omega_max=1.0, coupling_norm=0.04, n_env=1)
    net = make_spectral_model(fam)
    npt.assert_allclose(net.omegas, [1.0, 1.0], atol=0)
    npt.assert_allclose(net.kappas, [0.2], rtol=1e-14)


def test_spectral_model_two_mode_normalization():
    # alpha solves alpha^2 (0.25 + 1.0) = c
    c = 0.09
    net = make_spectral_model(
        SpectralFamily(exponent=1.0, omega_max=1.0, coupling_norm=c, n_env=2))
    npt.assert_allclose(net.omegas[1:], [0.5, 1.0], atol=0)
    alpha = np.sqrt(c / 1.25)
    npt.assert_allclose(net.kappas, alpha * np.array([0.5, 1.0]), rtol=1e-13)


@pytest.mark.parametrize("n_env", [2, 7, 32, 256])
@pytest.mark.parametrize("exponent", [0.5, 1.0, 2.0])
def test_spectral_model_coupling_norm_exact(n_env, exponent):
    target = 0.1
    net = make_spectral_model(SpectralFamily(
        exponent=exponent, omega_max=2.0, coupling_norm=target, n_env=n_env))
    assert abs(np.sum(net.kappas ** 2) - target) <= 1e-12 * target


def test_spectral_model_decoupling_limit():
    net = make_spectral_model(
        SpectralFamily(exponent=1.0, omega_max=2.0, coupling_norm=1e-30, n_env=4))
    assert np.all(net.kappas <= 1e-14)


def test_spectral_model_rejects_overcoupling():
    with pytest.raises(ValueError):
        make_spectral_model(
            SpectralFamily(exponent=1.0, omega_max=1.0, coupling_norm=50.0, n_env=2))


def test_uncoupled_eigenvalues_are_squared_frequencies(rng):
    omegas = np.concatenate(([1.0], rng.uniform(0.3, 3.0, 6)))
    net = OscillatorNetwork(omegas=omegas, kappas=np.zeros(6))
    eig = np.linalg.eigvalsh(build_potential_matrix(net))
    npt.assert_allclose(np.sort(eig), np.sort(omegas ** 2 / 2), atol=1e-12)


def test_norm_bound_from_couplings(rng):
    # ||V|| <= omega_max^2/2 + sqrt(delta), delta = 2 sum kappa^2,
    # omega_max taken over every oscillator including the system
    for _ in range(20):
        net = random_network(rng, 6)
        v = build_potential_matrix(net)
        delta = 2.0 * np.sum(net.kappas ** 2)
        bound = np.max(net.omegas) ** 2 / 2 + np.sqrt(delta)
        assert np.linalg.norm(v, 2) <= bound + 1e-12


def test_network_arrays_read_only():
    net = OscillatorNetwork(omegas=[1.0, 2.0], kappas=[0.1])
    with pytest.raises(ValueError):
        net.omegas[0] = 5.0
