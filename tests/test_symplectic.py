import ast
import contextlib
import math
import os
import sys
import threading
import warnings
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
    SpectralFamily,
    build_potential_matrix,
    build_quadratic_form,
    embed_orthogonal,
    evolve,
    gibbs_covariance,
    immediate_entanglement_check,
    is_pure,
    is_valid_covariance,
    make_pure_gaussian,
    make_spectral_model,
    mean_energy,
    normal_modes,
    partial_transpose,
    product_initial_covariance,
    propagator,
    purity_residual,
    symplectic_form,
    symplectic_spectrum,
    thermal_factor,
    trajectory,
)

from conftest import perfbench_workloads, random_covariance, random_network


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


def test_thermal_factor_and_diagonal_reject_nan():
    for x in (np.nan, np.array([1.0, np.nan])):
        with pytest.raises(ValueError, match="^thermal_factor requires a positive argument$"):
            thermal_factor(x)
    with pytest.raises(ValueError, match="^thermal_factor requires a positive argument$"):
        qbmsim.symplectic.thermal_diagonal(np.array([1.0, np.nan]), 1.0)


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


def test_thermal_diagonal_rows_are_the_position_and_momentum_entries(rng):
    omegas = rng.uniform(0.05, 5.0, 17)
    net = OscillatorNetwork(omegas=np.concatenate(([1.0], omegas)), kappas=np.zeros(17))
    for beta in (1e-6, 0.3, 2.0, 50.0, np.inf):
        d = qbmsim.symplectic.thermal_diagonal(omegas, beta)
        f = thermal_factor(beta * omegas)
        assert d.shape == (2, 17)
        assert np.array_equal(d[0], f / omegas) and np.array_equal(d[1], f * omegas)
        # the dense builder interleaves them as (x1, p1, x2, p2, ...)
        bath = product_initial_covariance(np.eye(2), net, beta)[2:, 2:]
        assert np.array_equal(np.diag(bath)[0::2], d[0])
        assert np.array_equal(np.diag(bath)[1::2], d[1])
        assert np.array_equal(bath, np.diag(np.diag(bath)))


def test_thermal_diagonal_at_the_top_of_the_double_range_is_the_ground_state():
    # beta * omega overflows to inf, whose thermal factor is 1, and does not warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = qbmsim.symplectic.thermal_diagonal([1.0, 2.0], 1e308)
    assert np.array_equal(d, [[1.0, 0.5], [1.0, 2.0]])


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


def test_symplectic_spectrum_rejects_an_empty_matrix(monkeypatch):
    # 0 is even, so the shape check lets 0 x 0 through; it must not reach
    # numpy's "zero-size array to reduction operation minimum", on either route
    message = "^covariance matrix is empty: it needs at least one mode$"
    with pytest.raises(ValueError, match=message):
        symplectic_spectrum(np.zeros((0, 0)))
    monkeypatch.setattr(qbmsim.symplectic, "_well_conditioned", lambda gamma: False)
    with pytest.raises(ValueError, match=message):
        symplectic_spectrum(np.zeros((0, 0)))


def test_schur_route_rejects_what_eigh_finds_indefinite():
    # the Schur route's eigh alone decides positive definiteness: on a near-singular
    # matrix it must raise, not take the root of a negative
    with pytest.raises(ValueError, match="not positive definite"):
        qbmsim.symplectic._spectrum_schur(np.diag([1e10, 1.0, -1e-3, 1.0]))


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


def blas_thread_calls():
    """The loaded OpenBLAS's (get, set) num-threads pair; skips where there is none."""
    calls = qbmsim.symplectic._find_blas_thread_calls()
    if not calls:
        pytest.skip("no OpenBLAS with a thread-count API is loaded")
    return calls


def test_symplectic_spectrum_restores_the_blas_thread_count(rng, monkeypatch):
    get, put = blas_thread_calls()
    during = []
    for name in ("eigvalsh", "eigvals", "eigh"):
        solve = getattr(np.linalg, name)

        def recording(*args, solve=solve, **kwargs):
            during.append(get())
            return solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    valid = random_covariance(rng, 40)
    squeezed = make_pure_gaussian(5.0, 0.4)  # the Schur route
    before = get()
    try:
        # the caller's count, 1 and 2: a restore must not assume either of them
        for start in sorted({before, 1, 2}):
            put(start)
            assert get() == start
            for gamma in (valid, squeezed):
                symplectic_spectrum(gamma)
                assert get() == start
            for indefinite in (np.diag([1.0, -1.0, 2.0, 2.0]), np.diag([1e10, 1.0, -1e-3, 1.0])):
                with pytest.raises(ValueError, match="not positive definite"):
                    symplectic_spectrum(indefinite)
                assert get() == start
            with pytest.raises(ValueError, match="not positive definite"):
                qbmsim.symplectic._spectrum_schur(np.diag([1e10, 1.0, -1e-3, 1.0]))
            assert get() == start
    finally:
        put(before)
    assert during and set(during) == {1}


def test_concurrent_spectra_leave_the_blas_thread_count_as_they_found_it(rng):
    # the count is process-wide: without the lock, a caller that starts inside
    # another's eigensolve reads 1 and restores 1 after the other restored 2
    get, put = blas_thread_calls()
    gamma = random_covariance(rng, 40)
    expected = symplectic_spectrum(gamma)
    results = []

    def work():
        for _ in range(25):
            results.append(np.array_equal(symplectic_spectrum(gamma), expected))

    threads = [threading.Thread(target=work) for _ in range((os.cpu_count() or 1) + 2)]
    before, interval = get(), sys.getswitchinterval()
    try:
        put(2)
        sys.setswitchinterval(1e-6)
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert get() == 2
    finally:
        sys.setswitchinterval(interval)
        put(before)
    assert len(results) == 25 * len(threads) and all(results)


def onset_workload_input(seed):
    """The system state, network, beta and 30 times of the onset-n64 benchmark input."""
    config = perfbench_workloads().make_config("onset-n64", seed)
    fam = config["model"]["family"]
    net = make_spectral_model(SpectralFamily(exponent=fam["p"], omega_max=fam["omega_max"],
                                             coupling_norm=fam["coupling_norm"],
                                             n_env=fam["n_env"]))
    state, grid = config["system_state"], config["time_grid"]
    assert state["kind"] == "squeezed" and grid["spacing"] == "log"
    times = np.geomspace(grid["start"], grid["stop"], grid["points"])
    return make_pure_gaussian(state["r"], state["theta"]), net, config["beta"], times


def onset_workload_states(seed):
    """Gamma_t and its partial transpose at four times of the onset-n64 benchmark input."""
    gamma_sys, net, beta, times = onset_workload_input(seed)
    gamma0 = product_initial_covariance(gamma_sys, net, beta)
    return [g for gamma_t in trajectory(gamma0, net.modes, times[[0, 9, 19, -1]])
            for g in (gamma_t, partial_transpose(gamma_t))]


@pytest.mark.parametrize("seed", range(4))
def test_one_thread_eigensolves_keep_every_bit_of_the_onset_spectra(monkeypatch, seed):
    states = onset_workload_states(seed)
    assert states[0].shape == (130, 130)
    spectra = [symplectic_spectrum(g) for g in states]
    # the same eigensolves at the caller's thread count
    monkeypatch.setattr(qbmsim.symplectic, "_one_blas_thread", contextlib.nullcontext)
    for gamma, spectrum in zip(states, spectra):
        assert np.array_equal(symplectic_spectrum(gamma), spectrum)


def spectrum_or_error(gamma):
    """symplectic_spectrum's bits, or the type and message of what it raised."""
    try:
        return symplectic_spectrum(gamma).view(np.int64).tolist()
    except Exception as exc:  # every kind counts: the route must not change which
        return type(exc), str(exc)


def eigvals_oracle(gamma):
    """The eigvals route, written out: |Im| of the eigenvalues of Sigma Gamma, paired."""
    with qbmsim.symplectic._one_blas_thread():
        eigs = np.linalg.eigvals(symplectic_form(gamma.shape[0] // 2) @ gamma)
    return np.sort(np.abs(eigs.imag))[1::2].view(np.int64).tolist()


def hermitian_oracle(gamma):
    """The Hermitian route, written out: the upper half of eigvalsh(i L^T Sigma L)."""
    n = gamma.shape[0] // 2
    with qbmsim.symplectic._one_blas_thread():
        w, u = np.linalg.eigh(gamma)
        if not w[0] > 0.0:
            return ValueError, f"matrix is not positive definite (min eigenvalue {w[0]:.3e})"
        root = u * np.sqrt(w)
        form = 1j * (root.T @ symplectic_form(n) @ root)
        return np.linalg.eigvalsh(form)[n:].view(np.int64).tolist()


def eigvalsh_era_bound(gamma):
    """The route proof from when eigvalsh(gamma) picked the route wherever it failed.

    It had to predict eigvalsh's verdict, so it charged eigvalsh's backward
    error to both ends and asked for half of ILL_CONDITIONED.
    """
    d = gamma.diagonal()
    d_min, d_max = float(d.min(initial=np.inf)), float(d.max(initial=0.0))
    if not 0.0 < d_min <= d_max < np.inf:
        return False
    slack = (gamma.shape[0] + 8) ** 2 * float(np.finfo(float).eps) / 2.0
    s = 1.0 / np.sqrt(d)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        h = np.tril(gamma, -1) * s[:, None] * s
        f = math.sqrt(2.0 * float(np.vdot(h, h))) * (1.0 + slack) + slack
    if not f < 1.0:
        return False
    top = (1.0 + f) * (1.0 + slack) * d_max
    bottom = (1.0 - f) * d_min - slack * (1.0 + f) * d_max
    ill = qbmsim.symplectic.ILL_CONDITIONED
    return float(np.finfo(float).tiny) <= bottom and top <= ill / 2.0 * bottom


def route_proof_cases(rng):
    """Finite symmetric inputs on both sides of the route proof, indefinite ones too."""
    cases = [g for seed in range(4) for g in onset_workload_states(seed)]
    for n in (1, 2, 3, 5, 8, 17, 33, 65):
        for spread in (0.05, 0.3, 1.0):
            gamma = random_covariance(rng, n, spread)
            cases += [gamma, 1e150 * gamma, 1e-150 * gamma]
            if n > 1:
                cases += [partial_transpose(gamma), 1e150 * partial_transpose(gamma)]
    # a product state and its partial transpose hold +0.0 and -0.0 off the diagonal
    product = product_initial_covariance(make_pure_gaussian(0.7, 0.3), random_network(rng, 4), 1.5)
    cases += [product, partial_transpose(product)]
    # the Hermitian route, and indefinite inputs that its eigh rejects
    mixed = np.zeros((4, 4))
    mixed[:2, :2] = make_pure_gaussian(5.0, 0.0)
    mixed[2:, 2:] = 1.8 * np.eye(2)
    cases += [make_pure_gaussian(5.0, 0.4), mixed, np.diag([1.0, -1.0]),
              np.diag([1e10, 1.0, -1e-3, 1.0]), np.zeros((2, 2)),
              np.diag([5e-324, 5e-324]), np.diag([1e308, 1e308])]
    # nearly diagonal, with condition numbers on both sides of ILL_CONDITIONED
    near_identity = np.eye(8) + 0.01 * random_covariance(rng, 4)
    for ratio in (1e6, 6e7, 1.5e8, 1e12):
        root = np.sqrt(np.geomspace(1.0, ratio, 8))
        cases.append(root[:, None] * near_identity * root)
    return cases


def test_route_proof_keeps_every_spectrum_and_error(rng):
    cases = route_proof_cases(rng)
    proved = [bool(qbmsim.symplectic._well_conditioned(g)) for g in cases]
    assert any(proved) and not all(proved)
    # the proof only loosened: what the eigvalsh-era bound proved stays proved
    assert all(p for g, p in zip(cases, proved) if eigvalsh_era_bound(g))
    for gamma, p in zip(cases, proved):
        if p:
            evals = np.linalg.eigvalsh(gamma)
            assert 0.0 < evals[0] and evals[-1] / qbmsim.symplectic.ILL_CONDITIONED <= evals[0]
            assert spectrum_or_error(gamma) == eigvals_oracle(gamma)
        else:
            assert spectrum_or_error(gamma) == hermitian_oracle(gamma)


def count_eigensolves(monkeypatch):
    """Spy on numpy's eigensolvers: a dict of calls per name, filled as they run."""
    calls = {"eigvals": 0, "eigvalsh": 0, "eigh": 0}
    for name in calls:
        solve = getattr(np.linalg, name)

        def counting(*args, name=name, solve=solve, **kwargs):
            calls[name] += 1
            return solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def test_unproved_spectrum_runs_one_eigh_and_no_eigvals(monkeypatch):
    gamma = make_pure_gaussian(5.0, 0.4)
    assert not qbmsim.symplectic._well_conditioned(gamma)
    calls = count_eigensolves(monkeypatch)
    symplectic_spectrum(gamma)
    # the eigvalsh is the one on the complex Hermitian form
    assert calls == {"eigvals": 0, "eigvalsh": 1, "eigh": 1}


def test_onset_spectra_run_no_eigvalsh(monkeypatch):
    # every dense spectrum of the onset-n64 input is proved well conditioned, so a
    # bound that is tightened or dropped fails here, not only in the benchmark
    for seed in range(4):
        assert all(qbmsim.symplectic._well_conditioned(g) for g in onset_workload_states(seed))
    gamma_sys, net, beta, times = onset_workload_input(0)
    calls = count_eigensolves(monkeypatch)
    immediate_entanglement_check(gamma_sys, net, beta, times)
    assert times.size == 30 and calls == {"eigvals": 30, "eigvalsh": 0, "eigh": 0}


def contract_violations():
    """Inputs with an entry that is not finite, or an upper triangle unlike the lower."""
    cases = []
    for value in (np.nan, np.inf, -np.inf):
        for index in ((0, 0), (1, 0), (0, 1)):
            gamma = np.eye(2) + 0.1
            gamma[index] = value
            cases.append(gamma)
    upper = np.triu_indices(4, 1)
    for value in (0.5, 3.0):
        gamma = np.eye(4)
        gamma[upper] = value
        cases += [gamma, gamma.T.copy()]
    # its lower triangle is the identity; unchecked it gave the spectrum [0.]
    cases.append(np.array([[1.0, 3.0], [0.0, 1.0]]))
    # Gamma - Gamma^T overflows
    cases.append(np.array([[1.0, 1e308], [-1e308, 1.0]]))
    return cases


@pytest.mark.parametrize("proved", [False, True])
def test_spectrum_rejects_what_breaks_its_contract_on_either_route(monkeypatch, proved):
    monkeypatch.setattr(qbmsim.symplectic, "_well_conditioned", lambda gamma: proved)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for gamma in contract_violations():
            with pytest.raises(ValueError, match="^covariance matrix (has an entry that is "
                               "not finite|is not symmetric: .*)$") as info:
                symplectic_spectrum(gamma)
            assert "\n" not in str(info.value)
            assert not is_valid_covariance(gamma)
        # asymmetry within 1e-10 (1 + max|Gamma|) passes
        gamma = np.eye(2)
        gamma[0, 1] = 1.5e-10
        assert is_valid_covariance(gamma)
        npt.assert_allclose(symplectic_spectrum(gamma), [1.0], rtol=1e-9)


def test_max_skew_is_the_transposed_difference_bit_for_bit(rng):
    # the strips meet each pair of entries once; the value must be the float of
    # the whole-matrix form, so that the verdict and its message stay the same
    cases = [rng.standard_normal((n, n)) for n in (2, 4, 63, 64, 65, 130, 200)]
    sym = random_covariance(rng, 70)
    # one pair off: across the first and last strips, at a strip's edge, on a diagonal block
    for i, j in ((139, 0), (0, 139), (70, 64), (5, 6)):
        lopsided = sym.copy()
        lopsided[i, j] += 1e-9
        cases.append(lopsided)
    huge = np.finfo(float).max
    cases.append(huge * rng.uniform(-1.0, 1.0, (130, 130)))  # differences overflow to inf
    cases.append(np.array([[1.0, huge], [-huge, 1.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for gamma in cases:
            with np.errstate(over="ignore"):
                expected = float(np.abs(gamma - gamma.T).max())
            assert qbmsim.symplectic._max_skew(gamma) == expected
    assert qbmsim.symplectic._max_skew(sym) == 0.0


def test_sigma_times_is_the_product_bit_for_bit(rng):
    cases = [random_covariance(rng, n) for n in (1, 2, 5, 33)]
    # a product state and its partial transpose hold +0.0 and -0.0 off the diagonal
    net = random_network(rng, 4)
    product = product_initial_covariance(make_pure_gaussian(0.7, 0.3), net, 1.5)
    cases += [product, partial_transpose(product), -np.eye(4), np.zeros((2, 2))]
    for gamma in cases:
        sg = qbmsim.symplectic._sigma_times(gamma)
        expected = symplectic_form(gamma.shape[0] // 2) @ gamma
        assert np.array_equal(sg.view(np.int64), expected.view(np.int64))


def test_validity_checks():
    assert is_valid_covariance(np.eye(4))
    assert not is_valid_covariance(0.5 * np.eye(2))
    assert not is_valid_covariance(np.array([[1.0, 0.2], [0.1, 1.0]]))


def test_spectrum_rejects_a_shape_that_is_not_square_and_even():
    for gamma in (1.0, np.ones(2), np.eye(3), np.ones((2, 4)), np.ones((2, 2, 2))):
        with pytest.raises(ValueError, match="^covariance matrix must be square with even "
                                             "dimension$"):
            symplectic_spectrum(gamma)
        assert not is_valid_covariance(gamma)


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


def test_purity_rejects_entries_from_2_to_the_255():
    # the residual squares entries of size det(gamma): diag(1e77, 1e77) and
    # diag(1e150, 1e150) overflowed in its matrix product
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for entry in (1e77, 1e150, 2.0**255):
            gamma = np.diag([entry, entry])
            for check in (is_pure, purity_residual):
                with pytest.raises(ValueError, match=r"entries must be below 2\^255"):
                    check(gamma)
        for entry in (1e76, np.nextafter(2.0**255, 0.0)):
            assert not is_pure(np.diag([entry, entry]))
            assert purity_residual(np.diag([entry, entry])) > 1.0


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
