import math
from collections import Counter
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import qbmsim.certify
import qbmsim.model
from qbmsim import (
    FeasibilityError,
    OscillatorNetwork,
    ScalingRow,
    SpectralFamily,
    bath_gibbs_covariance,
    build_certificate,
    build_potential_matrix,
    certificate_constants,
    critical_beta,
    gibbs_covariance,
    immediate_entanglement_check,
    is_valid_covariance,
    lambda_dot_analytic,
    lambda_dot_finite_difference,
    make_pure_gaussian,
    make_spectral_model,
    n_scaling_study,
    normal_modes,
    product_initial_covariance,
    thermal_factor,
    verify_all_times_separable,
)

from conftest import random_network, random_pure_system

OHMIC = SpectralFamily(exponent=1.0, omega_max=2.0, coupling_norm=0.1, n_env=8)


def reference_gibbs(net, beta):
    return gibbs_covariance(normal_modes(build_potential_matrix(net)), beta)


def bath_gap_min(net, beta, gamma):
    """Smallest eigenvalue of the bath feasibility gap at inverse temperature beta."""
    env_block = reference_gibbs(net, gamma)[2:, 2:]
    gap = bath_gibbs_covariance(net, beta) - env_block
    return np.linalg.eigvalsh(gap).min()


# ---------------------------------------------------------------- constants


def test_constants_decoupled_unit_bath():
    net = OscillatorNetwork(omegas=[1.0, 1.0], kappas=[0.0])
    c = certificate_constants(net)
    assert c.delta == 0.0
    assert c.omega_bound == 1.0
    npt.assert_allclose(c.gamma_ref, math.log(3.0), rtol=1e-15)


def test_constants_single_coupled_mode():
    net = OscillatorNetwork(omegas=[1.0, 2.0], kappas=[0.1])
    c = certificate_constants(net)
    npt.assert_allclose(c.delta, 0.02, rtol=1e-15)
    omega = math.sqrt(4.0 + 2.0 * math.sqrt(0.02))
    npt.assert_allclose(c.omega_bound, omega, rtol=1e-15)
    npt.assert_allclose(c.gamma_ref, math.log1p(2.0 / omega) / omega, rtol=1e-15)


def test_constants_take_max_over_bath_only():
    # the system frequency never enters omega_env_max
    net = OscillatorNetwork(omegas=[1.0, 0.4, 0.7], kappas=[0.05, 0.05])
    assert certificate_constants(net).omega_env_max == 0.7


def test_gamma_ref_decreases_with_stiffer_bath():
    gammas = []
    for w in (0.5, 1.0, 2.0, 5.0, 20.0):
        net = OscillatorNetwork(omegas=[1.0, w], kappas=[0.1])
        gammas.append(certificate_constants(net).gamma_ref)
    assert all(a > b for a, b in zip(gammas, gammas[1:]))
    assert gammas[-1] < 0.1


def test_gamma_ref_capped_at_two():
    net = OscillatorNetwork(omegas=[1.0, 0.01], kappas=[0.001])
    c = certificate_constants(net)
    assert c.gamma_ref == 2.0


def test_constants_require_a_bath():
    with pytest.raises(ValueError, match="bath"):
        certificate_constants(OscillatorNetwork(omegas=[1.0], kappas=[]))


def test_constants_invariant_under_bath_relabeling(rng):
    net = random_network(rng, 5)
    perm = rng.permutation(5)
    shuffled = OscillatorNetwork(
        omegas=np.concatenate(([1.0], net.omegas[1:][perm])),
        kappas=net.kappas[perm],
    )
    a, b = certificate_constants(net), certificate_constants(shuffled)
    npt.assert_allclose(
        [a.delta, a.omega_bound, a.gamma_ref],
        [b.delta, b.omega_bound, b.gamma_ref],
        rtol=1e-13,
    )
    npt.assert_allclose(critical_beta(net), critical_beta(shuffled), atol=1e-9)


def test_reference_gibbs_at_vacuum_noise(rng):
    """At gamma_ref every quadrature of the coupled state carries >= vacuum noise."""
    for _ in range(10):
        net = random_network(rng, rng.integers(1, 6))
        gamma = reference_gibbs(net, certificate_constants(net).gamma_ref)
        assert np.linalg.eigvalsh(gamma).min() >= 1.0 - 1e-10


# ------------------------------------------------------------- critical beta


def test_critical_beta_sits_on_the_feasibility_edge():
    net = make_spectral_model(OHMIC)
    margin = 1e-6
    beta_star = critical_beta(net, margin=margin)
    gamma = certificate_constants(net).gamma_ref
    assert bath_gap_min(net, beta_star, gamma) >= margin
    assert bath_gap_min(net, 1.01 * beta_star, gamma) < margin
    # feasibility is monotone: anything colder-than-critical stays feasible
    assert bath_gap_min(net, 0.5 * beta_star, gamma) >= margin
    assert bath_gap_min(net, 0.01 * beta_star, gamma) >= margin


def test_critical_beta_regression_ohmic_eight_modes():
    # pinned bisection output for the stock model; bracket width is 1e-10
    beta_star = critical_beta(make_spectral_model(OHMIC))
    npt.assert_allclose(beta_star, 0.27263536420547385, atol=1e-8)


def test_critical_beta_shrinks_with_margin():
    net = make_spectral_model(OHMIC)
    assert critical_beta(net, margin=1e-2) < critical_beta(net, margin=1e-6)


def test_critical_beta_decoupled_limit():
    """As couplings vanish the critical temperature approaches the reference."""
    net = OscillatorNetwork(omegas=[1.0, 2.0], kappas=[1e-8])
    gamma = certificate_constants(net).gamma_ref
    assert abs(critical_beta(net) - gamma) <= 1e-4


def test_critical_beta_rejects_bad_margin():
    net = OscillatorNetwork(omegas=[1.0, 1.0], kappas=[0.1])
    with pytest.raises(ValueError, match="margin"):
        critical_beta(net, margin=0.0)


def test_critical_beta_infeasible_margin_raises():
    net = OscillatorNetwork(omegas=[1.0, 1.0], kappas=[0.1])
    with pytest.raises(FeasibilityError, match="bracket"):
        critical_beta(net, margin=1e9)


def test_critical_beta_within_bracket(rng):
    for _ in range(5):
        net = random_network(rng, rng.integers(1, 5))
        beta_star = critical_beta(net)
        assert 1e-6 < beta_star <= 1e3


# -------------------------------------------------------------- certificate


def reference_env_block(net):
    return reference_gibbs(net, certificate_constants(net).gamma_ref)[2:, 2:]


def eigvalsh_bisect(omega_bath, env_block, margin):
    """The bisection by eigvalsh of the whole 2N x 2N gap; None when infeasible."""
    def feasible(beta):
        gap = qbmsim.certify._bath_gap(omega_bath, env_block, beta)
        return np.linalg.eigvalsh(gap).min() >= margin

    lo, hi = qbmsim.certify.BETA_BRACKET
    if not feasible(lo):
        return None
    if feasible(hi):
        return hi
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def eigvalsh_beta_oracle(net, margin):
    return eigvalsh_bisect(net.omegas[1:], reference_env_block(net), margin)


def explicit_networks(rng):
    """Random explicit networks; some have unsorted or repeated bath frequencies."""
    nets = [random_network(rng, int(n)) for n in rng.integers(1, 12, 10)]
    omegas = [1.0, 2.5, 0.7, 0.7, 1.9, 0.3, 1.9]
    nets.append(OscillatorNetwork(omegas=omegas, kappas=[0.05, 0.1, 0.08, 0.02, 0.1, 0.04]))
    nets.append(OscillatorNetwork(omegas=[1.0, 0.9, 0.9, 0.9], kappas=[0.3, 0.0, 0.2]))
    return nets


@pytest.mark.parametrize("exponent", [0.5, 1.0, 2.0])
def test_critical_beta_is_bit_identical_to_eigvalsh_oracle(exponent):
    for n_env in (1, 4, 33, 128):
        net = make_spectral_model(replace(OHMIC, exponent=exponent, n_env=n_env))
        for margin in ((1e-6, 1e-3) if n_env < 128 else (1e-6,)):
            assert critical_beta(net, margin) == eigvalsh_beta_oracle(net, margin)


def test_critical_beta_explicit_networks_match_eigvalsh_oracle(rng):
    nets, infeasible = explicit_networks(rng), 0
    for net in nets:
        for margin in (1e-6, 1e-3, 1e7):
            expected = eigvalsh_beta_oracle(net, margin)
            if expected is None:
                infeasible += 1
                with pytest.raises(FeasibilityError, match="infeasible"):
                    critical_beta(net, margin)
            else:
                assert critical_beta(net, margin) == expected
    # margin 1e7 is infeasible everywhere, and only it
    assert infeasible == len(nets)


def test_reference_gibbs_has_exactly_zero_xp_entries(rng):
    for net in explicit_networks(rng):
        for beta in (1e-3, 0.7, 50.0):
            g = reference_gibbs(net, beta)
            assert not np.any(g[0::2, 1::2])
            assert not np.any(g[1::2, 0::2])


def test_bisect_beta_tests_the_momentum_block_too():
    # on network Gibbs states the position block binds; a hotter momentum
    # block makes the momentum block bind instead
    net = make_spectral_model(OHMIC)
    env_block = reference_env_block(net)
    env_block[1::2, 1::2] *= 1.5
    beta = qbmsim.certify._bisect_beta(net.omegas[1:], env_block, 1e-6)
    assert beta == eigvalsh_bisect(net.omegas[1:], env_block, 1e-6)
    assert beta < critical_beta(net, 1e-6)


def test_bisect_beta_rejects_xp_correlations():
    net = make_spectral_model(OHMIC)
    env_block = reference_env_block(net)
    env_block[4, 7] = 1e-300
    with pytest.raises(ValueError, match="x-p correlations"):
        qbmsim.certify._bisect_beta(net.omegas[1:], env_block, 1e-6)


def test_product_state_layout():
    net = OscillatorNetwork(omegas=[1.0, 2.0], kappas=[0.1])
    gamma_sys = make_pure_gaussian(0.3, 0.1)
    gamma = product_initial_covariance(gamma_sys, net, beta=1.0)
    assert gamma.shape == (4, 4)
    npt.assert_allclose(gamma[:2, :2], gamma_sys)
    npt.assert_allclose(gamma[:2, 2:], 0.0)
    f = thermal_factor(2.0)
    npt.assert_allclose(gamma[2:, 2:], np.diag([f / 2.0, 2.0 * f]), rtol=1e-13)


def test_bath_gibbs_closed_form_is_bit_identical_to_eigh_path(rng):
    nets = [make_spectral_model(replace(OHMIC, n_env=n)) for n in (1, 8, 64)]
    nets += [random_network(rng, rng.integers(1, 9)) for _ in range(10)]
    nets.append(OscillatorNetwork(omegas=[1.0, 2.5, 0.3, 1.7, 0.3, 0.9],
                                  kappas=[0.1, 0.05, 0.0, 0.02, 0.1]))
    assert np.any(np.diff(nets[-1].omegas[1:]) < 0.0)
    gamma_sys = make_pure_gaussian(0.4, 0.3)
    for net in nets:
        bath_modes = normal_modes(np.diag(net.omegas[1:] ** 2 / 2))
        for beta in (1e-6, 0.05, 1.0, 30.0, 1e3):
            expected = gibbs_covariance(bath_modes, beta)
            assert np.array_equal(bath_gibbs_covariance(net, beta), expected)
            gamma = product_initial_covariance(gamma_sys, net, beta)
            assert np.array_equal(gamma[2:, 2:], expected)
            assert np.array_equal(gamma[:2, :2], gamma_sys)
            assert not gamma[:2, 2:].any() and not gamma[2:, :2].any()


def test_certificate_diagonalises_and_thermalises_once(monkeypatch):
    calls = Counter()

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in ((qbmsim.model, "normal_modes"), (qbmsim.certify, "gibbs_covariance")):
        monkeypatch.setattr(module, name, counting(getattr(module, name)))
    build_certificate(make_spectral_model(OHMIC))
    assert calls == {"normal_modes": 1, "gibbs_covariance": 1}


def test_product_state_rejects_bad_system_shape():
    net = OscillatorNetwork(omegas=[1.0, 2.0], kappas=[0.1])
    with pytest.raises(ValueError, match="2x2"):
        product_initial_covariance(np.eye(4), net, beta=1.0)


def test_certificate_dominates_reference_state():
    net = make_spectral_model(OHMIC)
    cert = build_certificate(net)
    gamma0 = product_initial_covariance(cert.gamma0_sys, net, cert.beta)
    diff = gamma0 - reference_gibbs(net, cert.constants.gamma_ref)
    scale = max(np.abs(diff).max(), 1.0)
    assert np.linalg.eigvalsh(diff).min() >= -1e-10 * scale


def test_certificate_system_block_is_physical():
    net = make_spectral_model(OHMIC)
    cert = build_certificate(net)
    g = cert.gamma0_sys
    assert g.shape == (2, 2)
    npt.assert_allclose(g, g.T, atol=1e-14)
    assert is_valid_covariance(g)
    assert np.linalg.det(g) >= 1.0
    assert cert.beta == 0.5 * cert.beta_star
    assert cert.margin >= 1e-6


def test_certificate_decoupled_bath():
    # zero coupling: the Schur correction vanishes and the system block is
    # the reference thermal state plus the margin
    net = OscillatorNetwork(omegas=[1.0, 1.5, 2.5], kappas=[0.0, 0.0])
    cert = build_certificate(net)
    gamma = cert.constants.gamma_ref
    expected = thermal_factor(gamma) * np.eye(2) + cert.margin * np.eye(2)
    npt.assert_allclose(cert.gamma0_sys, expected, rtol=1e-12)


def test_verified_separable_along_evolution():
    net = make_spectral_model(OHMIC)
    cert = build_certificate(net)
    times = np.linspace(0.0, 50.0, 120)
    report = verify_all_times_separable(cert, net, times)
    assert report.passed
    assert report.min_pt >= 1.0 - 1e-8
    assert report.threshold == 1e-8
    npt.assert_array_equal(report.times, times)
    npt.assert_allclose(report.min_pt, report.min_pt_by_time.min())


def test_certified_separability_random_models(rng):
    """Certificate construction implies PPT at all sampled times, any model."""
    for _ in range(20):
        net = random_network(rng, rng.integers(1, 5))
        cert = build_certificate(net)
        times = np.sort(rng.uniform(0.0, 40.0, 100))
        report = verify_all_times_separable(cert, net, times)
        assert report.passed


def test_overheated_bath_breaks_the_certificate():
    # same system block, bath far hotter than certified: entanglement shows up
    net = make_spectral_model(OHMIC)
    cert = build_certificate(net)
    hot = replace(cert, beta=10.0 * cert.beta_star)
    report = verify_all_times_separable(hot, net, np.linspace(0.0, 100.0, 400))
    assert not report.passed
    assert report.min_pt <= 0.99


# ---------------------------------------------------------- lambda derivative


def test_lambda_dot_zero_exactly_for_vacuum_decoupled():
    net = OscillatorNetwork(omegas=[1.0, 1.3], kappas=[0.0])
    assert lambda_dot_analytic(np.eye(2), net, 1, beta=1.0) == 0.0


def test_lambda_dot_vanishes_at_t_zero(rng):
    """The pair determinant invariants make the first derivative zero."""
    for _ in range(30):
        n_env = int(rng.integers(1, 5))
        net = random_network(rng, n_env)
        gamma_sys = random_pure_system(rng, r_max=1.2)
        beta = rng.uniform(0.05, 6.0)
        mode = int(rng.integers(1, n_env + 1))
        ld = lambda_dot_analytic(gamma_sys, net, mode, beta)
        assert abs(ld) <= 1e-12


def test_lambda_dot_matches_finite_difference(rng):
    for _ in range(30):
        n_env = int(rng.integers(1, 5))
        net = random_network(rng, n_env)
        gamma_sys = random_pure_system(rng, r_max=1.2)
        beta = rng.uniform(0.05, 6.0)
        mode = int(rng.integers(1, n_env + 1))
        ld = lambda_dot_analytic(gamma_sys, net, mode, beta)
        fd = lambda_dot_finite_difference(gamma_sys, net, mode, beta)
        assert abs(ld - fd) <= 1e-6 * max(1.0, abs(fd))


def test_lambda_dot_rejects_mixed_system():
    net = OscillatorNetwork(omegas=[1.0, 1.0], kappas=[0.1])
    with pytest.raises(ValueError, match="pure"):
        lambda_dot_analytic(2.0 * np.eye(2), net, 1, beta=1.0)


def test_lambda_dot_rejects_frozen_bath_mode():
    # beta*omega ~ 2e5: det B - 1 underflows and the two-sided derivative
    # stops existing
    net = OscillatorNetwork(omegas=[1.0, 2.0], kappas=[0.1])
    with pytest.raises(ValueError, match="zero temperature"):
        lambda_dot_analytic(np.eye(2), net, 1, beta=1e5)


def test_lambda_dot_rejects_system_index():
    net = OscillatorNetwork(omegas=[1.0, 2.0], kappas=[0.1])
    for env_mode in (0, net.n_env + 1):
        with pytest.raises(ValueError, match="env_mode must be in 1..1"):
            lambda_dot_analytic(np.eye(2), net, env_mode, beta=1.0)


# ------------------------------------------------------------- onset report


def test_immediate_entanglement_warm_bath():
    net = make_spectral_model(OHMIC)
    report = immediate_entanglement_check(np.eye(2), net, beta=1.0)
    assert report.passed
    assert np.all(report.pt_min < 1.0)
    assert report.epsilon_found == report.times[-1]
    npt.assert_allclose(report.lambda_full, report.pt_min**2, rtol=1e-15)
    assert 1.0 <= report.onset_order <= 3.0
    assert report.onset_coeff > 0.0
    assert abs(report.lambda_dot0) <= 1e-10
    assert abs(report.lambda_dot0_fd) <= 1e-6


def test_immediate_entanglement_squeezed_and_hot():
    net = make_spectral_model(OHMIC)
    squeezed = make_pure_gaussian(1.0, 0.0)
    for beta in (0.01, 1.0):
        report = immediate_entanglement_check(squeezed, net, beta=beta)
        assert report.passed, f"beta={beta}"
        assert np.all(report.lambda_full < 1.0)


def test_immediate_entanglement_cold_bath_pairwise():
    # cold bath: even single pair reductions cross the boundary immediately
    net = make_spectral_model(OHMIC)
    report = immediate_entanglement_check(np.eye(2), net, beta=10.0)
    assert report.passed
    assert np.all(report.lambda_min < 1.0)


def test_immediate_entanglement_decoupled_fails_cleanly():
    net = OscillatorNetwork(omegas=[1.0, 1.0, 2.0], kappas=[0.0, 0.0])
    report = immediate_entanglement_check(np.eye(2), net, beta=1.0)
    assert not report.passed
    assert report.epsilon_found == 0.0
    npt.assert_allclose(report.pt_min, 1.0, atol=1e-12)
    assert report.probed_modes == (1, 2)


def test_immediate_entanglement_probes_coupled_modes_only():
    net = OscillatorNetwork(omegas=[1.0, 1.0, 2.0, 3.0], kappas=[0.3, 0.0, 0.2])
    report = immediate_entanglement_check(np.eye(2), net, beta=1.0)
    assert report.probed_modes == (1, 3)
    assert report.lambda_by_mode.shape == (report.times.size, 2)


def test_immediate_entanglement_custom_times_echoed():
    net = make_spectral_model(OHMIC)
    times = np.geomspace(1e-3, 1e-2, 7)
    report = immediate_entanglement_check(np.eye(2), net, beta=1.0, times=times)
    npt.assert_array_equal(report.times, times)
    curve = report.onset_curve
    assert len(curve) == 7
    assert curve[0] == (times[0], report.lambda_full[0])


def test_immediate_entanglement_input_validation():
    net = make_spectral_model(OHMIC)
    with pytest.raises(ValueError, match="pure"):
        immediate_entanglement_check(2.0 * np.eye(2), net, beta=1.0)
    with pytest.raises(ValueError, match="positive"):
        immediate_entanglement_check(np.eye(2), net, beta=1.0,
                                     times=np.array([0.0, 0.1]))


# ------------------------------------------------------------- bath scaling


def test_scaling_study_constant_gamma():
    rows = n_scaling_study(OHMIC, [2, 4, 8, 16])
    assert [r.n_env for r in rows] == [2, 4, 8, 16]
    gammas = np.array([r.gamma_ref for r in rows])
    npt.assert_allclose(gammas, gammas[0], atol=1e-12)
    deltas = np.array([r.delta for r in rows])
    npt.assert_allclose(deltas, 2.0 * OHMIC.coupling_norm, rtol=1e-12)
    assert all(isinstance(r, ScalingRow) and r.beta_star > 0.0 for r in rows)


def test_scaling_study_requires_ascending_sizes():
    with pytest.raises(ValueError, match="ascending"):
        n_scaling_study(OHMIC, [4, 4, 8])


def test_scaling_study_weak_coupling_limit():
    fam = replace(OHMIC, coupling_norm=1e-8)
    rows = n_scaling_study(fam, [2, 4])
    for row in rows:
        assert abs(row.beta_star - row.gamma_ref) <= 1e-4
