import re
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

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
    normal_modes,
    propagator,
)

from qbmsim.model import _bath_weights
from qbmsim.symplectic import NormalModes

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
    # the network hands the eigensolver 2V, doubled in place, instead of calling
    # normal_modes(V): the modes are those of normal_modes(V), bit for bit
    calls = []
    original = qbmsim.model._modes_of_doubled

    def counting(two_v):
        calls.append(two_v.shape)
        return original(two_v)

    monkeypatch.setattr(qbmsim.model, "_modes_of_doubled", counting)
    net = OscillatorNetwork(omegas=[1.0, 1.5, 2.0], kappas=[0.2, 0.1])
    propagator(net, 0.5)
    evolve(np.eye(6), net, 1.0)
    assert calls == [(3, 3)]
    expected = normal_modes(build_potential_matrix(net))
    for name in ("mode_matrix", "tilde_omegas"):
        assert np.array_equal(getattr(net.modes, name), getattr(expected, name))
        with pytest.raises(ValueError):
            getattr(net.modes, name)[0] = 5.0
    changed = replace(net, kappas=[0.3, 0.0])
    assert calls == [(3, 3), (3, 3)]
    assert np.array_equal(changed.modes.tilde_omegas,
                          normal_modes(build_potential_matrix(changed)).tilde_omegas)
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


@pytest.mark.parametrize("omegas, name", [
    ([1.0, 1e200], "1e+200"),
    ([1e200, 1.0], "1e+200"),
    ([1.0, 2.0, 1.5e154], "1.5e+154"),
    ([1.0, 2.0, 1.7976931348623157e308], "1.79769e+308"),
])
def test_network_rejects_a_frequency_whose_square_overflows(omegas, name):
    # omega^2/2 on V's diagonal would be inf, and eigh would return NaN modes that
    # a <= comparison lets through; the check itself warns of no overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(
                f"squared frequency ({name})^2 overflows double precision")):
            OscillatorNetwork(omegas=omegas, kappas=[0.2] * (len(omegas) - 1))
    # below sqrt(DBL_MAX) the square is finite: the spread is what fails
    with pytest.raises(ValueError, match="span more than 1/POS_DEF_RTOL"):
        OscillatorNetwork(omegas=[1.0, 1.3e154], kappas=[0.2])


def test_nan_normal_modes_are_not_positive_definite(monkeypatch):
    # both checks fail on a NaN eigenvalue, which no <= comparison catches
    two_v = np.array([[2.0, -0.2], [-0.2, np.inf]])
    with pytest.raises(ValueError, match="min eig of 2V = nan"):
        qbmsim.model._modes_of_doubled(two_v.copy())
    nan_modes = NormalModes(mode_matrix=np.eye(2), tilde_omegas=np.array([np.nan, 1.0]))
    monkeypatch.setattr(qbmsim.model, "_modes_of_doubled", lambda two_v: nan_modes)
    with pytest.raises(ValueError, match="min eigenvalue nan"):
        qbmsim.model._positive_definite_modes(two_v.copy())


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


@pytest.mark.parametrize("args, message", [
    ((1.0, 2.0, 0.1, 2.5), "n_env must be a positive integer"),
    ((1.0, 0.0, 0.1, 4), "omega_max must be positive"),
    ((1.0, 2.0, -0.1, 4), "coupling_norm must be nonnegative"),
    ((0.5, 1e200, 0.1, 4), "squared frequency (1e+200)^2 overflows double precision"),
    ((1.0, 1e200, 0.1, 4), "sum of omega_j^(2p) over the bath is inf in double precision"),
])
def test_spectral_family_rejects_a_family_that_builds_no_network(args, message):
    # before, n_env 2.5 built 3 bath modes at 0.8, 1.6 and 2.4, past omega_max 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            SpectralFamily(*args)


@pytest.mark.parametrize("exponent", [-200.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 200.0])
def test_spectral_family_decides_the_weight_sum_as_summing_does(exponent):
    # the largest squared weight decides in O(1) what the sum over every mode decided
    for omega_max in (1e-3, 0.1, 1.0, 2.0, 5.88, 10.0, 1e3):
        for n_env in (1, 2, 7, 100, 10**4, 10**6):
            summed = _bath_weights(SimpleNamespace(exponent=exponent, omega_max=omega_max,
                                                   n_env=n_env))[2]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if 0.0 < summed < np.inf:
                    SpectralFamily(exponent, omega_max, 0.1, n_env)
                else:
                    message = f"sum of omega_j^(2p) over the bath is {summed:g} in"
                    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
                        SpectralFamily(exponent, omega_max, 0.1, n_env)


def test_spectral_family_of_a_size_no_one_runs_allocates_nothing_that_size():
    tracemalloc.start()
    try:
        family = SpectralFamily(1.0, 2.0, 0.1, 10**15)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert family.n_env == 10**15 and peak < 2**20


def test_spectral_family_keeps_an_integral_float_size_as_an_int():
    family = SpectralFamily(1.0, 2.0, 0.1, 4.0)
    assert family == SpectralFamily(1.0, 2.0, 0.1, 4) and type(family.n_env) is int


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
