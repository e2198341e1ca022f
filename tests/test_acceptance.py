"""End-to-end acceptance gate.

Ten criteria, one test each, covering the propagator oracle, the physical
invariants of the flow, the vacuum-noise bound behind the separability
certificate, both certification workflows at full scale, the closed-form
entanglement values, the derivative cross-check, the bath-size scaling
study, and the decoupling limit.  Each test prints a PASS line on success
(visible with pytest -s); tolerances are fixed here and nowhere else.
"""

import time
from dataclasses import replace

import numpy as np
import numpy.testing as npt
from scipy.linalg import expm

from qbmsim import (
    OscillatorNetwork,
    SpectralFamily,
    build_certificate,
    build_potential_matrix,
    build_quadratic_form,
    certificate_constants,
    critical_beta,
    evolve,
    gibbs_covariance,
    immediate_entanglement_check,
    lambda_dot_finite_difference,
    lambda_of_block,
    make_pure_gaussian,
    make_spectral_model,
    mean_energy,
    normal_modes,
    ppt_verdict,
    product_initial_covariance,
    propagator,
    reduce_two_mode,
    symplectic_form,
    symplectic_spectrum,
    verify_all_times_separable,
)
from qbmsim.symplectic import _propagator_from_modes

from conftest import random_network, random_pure_system, two_mode_squeezed

OHMIC8 = SpectralFamily(exponent=1.0, omega_max=2.0, coupling_norm=0.1, n_env=8)


def _record(n, label):
    print(f"ACCEPTANCE {n:2d} {label}: PASS")


def test_criterion_01_propagator_matches_dense_exponential():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        net = random_network(rng, int(rng.integers(1, 11)))
        t = float(rng.uniform(0.0, 10.0))
        s = propagator(net, t)
        w = build_quadratic_form(build_potential_matrix(net))
        oracle = expm(t * symplectic_form(net.n_modes) @ w)
        worst = max(worst, float(np.abs(s - oracle).max()))
    wall = time.perf_counter() - t0
    assert worst <= 1e-8, f"max deviation from dense exponential {worst:.3e}"
    assert wall < 10.0
    _record(1, f"propagator oracle (max dev {worst:.1e}, {wall:.1f}s)")


def test_criterion_02_symplectic_and_physical_invariants():
    rng = np.random.default_rng(202)
    sigma_dev = 0.0
    sympl_floor = np.inf
    drift = 0.0
    for _ in range(10):
        net = random_network(rng, int(rng.integers(1, 7)))
        sigma = symplectic_form(net.n_modes)
        w = build_quadratic_form(build_potential_matrix(net))
        gamma0 = product_initial_covariance(
            random_pure_system(rng, r_max=1.0), net, beta=1.0)
        e0 = mean_energy(gamma0, w)
        for t in np.linspace(0.0, 100.0, 40):
            s = propagator(net, float(t))
            sigma_dev = max(sigma_dev, float(np.abs(s @ sigma @ s.T - sigma).max()))
            gamma_t = evolve(gamma0, net, float(t))
            sympl_floor = min(sympl_floor, float(symplectic_spectrum(gamma_t).min()))
            drift = max(drift, abs(mean_energy(gamma_t, w) - e0) / e0)
    assert sigma_dev <= 1e-10
    assert sympl_floor >= 1.0 - 1e-9
    assert drift <= 1e-9
    _record(2, f"flow invariants (sympl dev {sigma_dev:.1e}, energy drift {drift:.1e})")


def test_criterion_03_reference_gibbs_dominates_vacuum():
    rng = np.random.default_rng(303)
    floor = np.inf
    for _ in range(50):
        net = random_network(rng, int(rng.integers(1, 7)))
        gamma_ref = certificate_constants(net).gamma_ref
        g = gibbs_covariance(normal_modes(build_potential_matrix(net)), gamma_ref)
        floor = min(floor, float(np.linalg.eigvalsh(g).min()))
    assert floor >= 1.0 - 1e-10
    _record(3, f"vacuum-noise bound at gamma_ref (min eig {floor:.12f})")


def test_criterion_04_certified_state_separable_at_scale():
    net = make_spectral_model(OHMIC8)
    t0 = time.perf_counter()
    cert = build_certificate(net)
    report = verify_all_times_separable(cert, net, np.linspace(0.0, 100.0, 400))
    wall = time.perf_counter() - t0
    assert report.passed
    assert report.min_pt >= 1.0 - 1e-8
    assert wall < 30.0
    _record(4, f"all-times separability (min PT {report.min_pt:.3f}, {wall:.1f}s)")


def test_criterion_05_immediate_entanglement_all_temperatures():
    net = make_spectral_model(OHMIC8)
    states = (("vacuum", np.eye(2)), ("squeezed", make_pure_gaussian(1.0, 0.0)))
    fitted = []
    for label, gamma_sys in states:
        for beta in (0.01, 1.0, 10.0):
            report = immediate_entanglement_check(gamma_sys, net, beta)
            tag = f"{label} beta={beta}"
            assert report.passed, tag
            assert np.all(report.lambda_full < 1.0), tag
            gap0 = 1.0 - report.lambda_full[0]
            assert 0.0 < gap0 <= 1e-3, tag  # lambda -> 1 as t -> 0
            assert 1.0 <= report.onset_order <= 3.0, tag
            assert report.onset_coeff > 0.0, tag
            if beta == 10.0:
                # cold bath: single-pair reductions carry the witness too
                assert np.all(report.lambda_min < 1.0), tag
            else:
                # warm bath: hot spectator modes keep every pair PPT at the
                # earliest sample even though the joint state is already NPT,
                # so the joint partial transpose is the deciding witness
                assert report.lambda_min[0] > 1.0, tag
            fitted.append(report.onset_order)
    _record(5, f"entanglement onset (orders {min(fitted):.2f}..{max(fitted):.2f})")


def test_criterion_06_no_entanglement_at_time_zero():
    rng = np.random.default_rng(606)
    cases = [
        (np.eye(2), OscillatorNetwork(omegas=[1.0, 2.0], kappas=[0.1]), 10.0),
        (make_pure_gaussian(1.0, 0.4), make_spectral_model(OHMIC8), 1.0),
    ]
    for _ in range(20):
        cases.append((random_pure_system(rng),
                      random_network(rng, int(rng.integers(1, 5))),
                      float(rng.uniform(0.05, 10.0))))
    worst = 0.0
    for gamma_sys, net, beta in cases:
        gamma0 = product_initial_covariance(gamma_sys, net, beta)
        for mode in range(1, net.n_modes):
            lam0 = lambda_of_block(reduce_two_mode(gamma0, mode))
            worst = max(worst, abs(lam0 - 1.0))
        pt0 = ppt_verdict(gamma0).min_pt_symplectic
        worst = max(worst, abs(pt0**2 - 1.0))
    assert worst <= 1e-10
    _record(6, f"product states sit on the boundary (max |lambda0-1| {worst:.1e})")


def test_criterion_07_two_mode_squeezed_closed_form():
    worst_lam = worst_pt = 0.0
    for r in (0.0, 0.1, 0.5, 1.0, 2.0):
        block = two_mode_squeezed(r)
        lam = lambda_of_block(block)
        pt = ppt_verdict(block.assembled).min_pt_symplectic
        worst_lam = max(worst_lam, abs(lam - np.exp(-4.0 * r)))
        worst_pt = max(worst_pt, abs(pt - np.exp(-2.0 * r)))
    assert worst_lam <= 1e-10
    assert worst_pt <= 1e-10
    _record(7, f"squeezed-pair closed form (|dlam| {worst_lam:.1e}, |dpt| {worst_pt:.1e})")


def test_criterion_08_derivative_against_finite_differences():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(200):
        n_env = int(rng.integers(1, 6))
        net = random_network(rng, n_env)
        gamma_sys = random_pure_system(rng, r_max=1.2)
        beta = float(rng.uniform(0.05, 6.0))
        mode = int(rng.integers(1, n_env + 1))
        gamma0 = product_initial_covariance(gamma_sys, net, beta)
        worst = max(worst, abs(lambda_dot_finite_difference(gamma0, net.modes, mode)))
    assert worst <= 1e-6
    _record(8, f"exact derivative 0 vs finite differences (max {worst:.1e})")


def test_criterion_09_bath_size_scaling():
    # measured on the first passing run:
    #   N=4  beta*=0.27537113029107352
    #   N=8  beta*=0.27263536420547385
    #   N=16 beta*=0.27097729198538778
    #   N=32 beta*=0.27005896529517104
    #   N=64 beta*=0.26957488344371816
    # gamma_ref = 0.29108091143649417 at every N; ratio 64/4 = 0.979
    t0 = time.perf_counter()
    gammas, beta_stars = [], []
    for n in (4, 8, 16, 32, 64):
        net = make_spectral_model(replace(OHMIC8, n_env=n))
        gammas.append(certificate_constants(net).gamma_ref)
        beta_stars.append(critical_beta(net))
    wall = time.perf_counter() - t0
    npt.assert_allclose(gammas, gammas[0], atol=1e-12)
    assert all(beta_star > 0.0 for beta_star in beta_stars)
    assert beta_stars[-1] >= 0.25 * beta_stars[0]
    assert wall < 120.0
    _record(9, f"bath-size scaling (beta*64/beta*4 = "
               f"{beta_stars[-1] / beta_stars[0]:.3f}, {wall:.1f}s)")


def test_criterion_10_decoupling_limit():
    weak = make_spectral_model(SpectralFamily(exponent=1.0, omega_max=2.0,
                                              coupling_norm=1e-8, n_env=8))
    gamma_ref = certificate_constants(weak).gamma_ref
    beta_star = critical_beta(weak)
    assert abs(beta_star - gamma_ref) <= 1e-4
    # the certified state stays exactly at zero log-negativity; an uncertified
    # product state would not (any nonzero coupling entangles it eventually)
    cert = build_certificate(weak)
    gamma0 = product_initial_covariance(cert.gamma0_sys, weak, cert.beta)
    modes = normal_modes(build_potential_matrix(weak))
    for t in np.linspace(0.0, 100.0, 400):
        s = _propagator_from_modes(modes, float(t))
        assert ppt_verdict(s @ gamma0 @ s.T).log_negativity == 0.0
    _record(10, f"decoupling limit (|beta*-gamma| {abs(beta_star - gamma_ref):.1e})")
