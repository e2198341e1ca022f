import importlib.util
import math
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import qbmsim.certify
import qbmsim.model
from qbmsim import (
    FeasibilityError,
    OscillatorNetwork,
    ScalingRow,
    SeparabilityCertificate,
    SpectralFamily,
    bath_gibbs_covariance,
    build_certificate,
    build_potential_matrix,
    certificate_constants,
    critical_beta,
    embed_orthogonal,
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
    reduce_two_mode,
    thermal_factor,
    verify_all_times_separable,
)
from qbmsim.certify import DEGENERATE_DET_B
from qbmsim.symplectic import thermal_diagonal

from conftest import random_explicit_network, random_network, random_pure_system

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
        gap = np.diag(thermal_diagonal(omega_bath, beta)) - env_block
        return np.linalg.eigvalsh(gap).min() >= margin

    return bisect_bracket(feasible)


def bisect_bracket(feasible):
    """critical_beta's bisection over a feasibility test; None when its hot end fails."""
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
    blocks = (env_block[0::2, 0::2], env_block[1::2, 1::2])
    beta = qbmsim.certify._bisect_beta(net.omegas[1:], blocks, 1e-6)
    assert beta == eigvalsh_bisect(net.omegas[1:], env_block, 1e-6)
    assert beta < critical_beta(net, 1e-6)


def cholesky_accepts(env, d, margin):
    """The bisection step before the bounds: Cholesky of the gap, built from env."""
    gap = 0.0 - env
    gap[np.diag_indices_from(gap)] += d
    gap[np.diag_indices_from(gap)] -= margin
    try:
        np.linalg.cholesky(gap)
    except np.linalg.LinAlgError:
        return False
    return True


def cholesky_bisect(omega_bath, env_blocks, margin):
    """The bisection before the bounds: both blocks by Cholesky at every step."""
    def feasible(beta):
        d = thermal_diagonal(omega_bath, beta)
        return all(cholesky_accepts(env, diag, margin)
                   for env, diag in zip(env_blocks, (d[0::2], d[1::2])))

    return bisect_bracket(feasible)


def env_blocks_of(net):
    ref = qbmsim.certify._gibbs_blocks(net.modes, certificate_constants(net).gamma_ref)
    return tuple(g[1:, 1:] for g in ref)


def decision_cases(rng):
    nets = [make_spectral_model(replace(OHMIC, exponent=p, n_env=n, coupling_norm=norm))
            for p in (0.5, 1.0, 2.0) for n, norm in ((64, 0.3), (256, 0.1))]
    nets += [random_network(rng, int(n)) for n in (3, 17, 40)]
    nets += [random_explicit_network(rng, int(n)) for n in (5, 29, 90)]
    for net in nets:
        yield net, env_blocks_of(net)
    # a hotter momentum block, which then binds
    x, p = env_blocks_of(nets[0])
    yield nets[0], (x, 1.5 * p)


def test_gap_block_decides_like_cholesky(rng):
    margin = 1e-6
    settled = Counter()
    for net, env_blocks in decision_cases(rng):
        omega_bath = net.omegas[1:]
        beta_star = cholesky_bisect(omega_bath, env_blocks, margin)
        probes = np.concatenate((np.geomspace(*qbmsim.certify.BETA_BRACKET, 40),
                                 beta_star * (1.0 + 1e-12 * np.arange(-50, 51))))
        for k, env in enumerate(env_blocks):
            warm = qbmsim.certify._GapBlock(env)
            for beta in probes:
                diag = thermal_diagonal(omega_bath, beta)[k::2]
                expected = cholesky_accepts(env, diag, margin)
                # a fresh block starts its power steps cold; the warm one has
                # seen every earlier probe, as in a bisection
                assert qbmsim.certify._GapBlock(env).decide(diag, margin) == expected
                assert warm.decide(diag, margin) == expected
                settled[expected] += 1
    assert min(settled.values()) > 400


def test_critical_beta_is_bit_identical_to_cholesky_bisection_at_512():
    # the margins of the sweep-n8-512 benchmark: 1e-6 times a stretch of up to 1.1
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    margins = {workloads.make_config("sweep-n8-512", seed)["tolerances"]["margin"]
               for seed in range(workloads.VARIANTS)}
    assert len(margins) == 4 and all(1e-6 <= m <= 1.1e-6 for m in margins)
    net = make_spectral_model(replace(OHMIC, n_env=512))
    blocks = env_blocks_of(net)
    for margin in sorted(margins):
        assert critical_beta(net, margin) == cholesky_bisect(net.omegas[1:], blocks, margin)


@pytest.mark.parametrize("n_env", [256, 512])
def test_critical_beta_runs_at_most_four_choleskys(monkeypatch, n_env):
    net = make_spectral_model(replace(OHMIC, n_env=n_env))
    calls = []
    cholesky = np.linalg.cholesky

    def counting(a):
        calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    critical_beta(net)
    # 62-63 before the bounds, two blocks at each of ~46 steps
    assert len(calls) <= 4


def test_block_proved_feasible_once_is_skipped_after(monkeypatch):
    # the momentum block never binds on network Gibbs states: once proved
    # feasible, every later and smaller beta skips its O(n^2) bounds
    blocks, sweeps = [], Counter()
    init, chunks = qbmsim.certify._GapBlock.__init__, qbmsim.certify._GapBlock._chunks

    def recording_init(self, env):
        blocks.append(self)
        init(self, env)

    def counting_chunks(self):
        sweeps[id(self)] += 1
        return chunks(self)

    monkeypatch.setattr(qbmsim.certify._GapBlock, "__init__", recording_init)
    monkeypatch.setattr(qbmsim.certify._GapBlock, "_chunks", counting_chunks)
    critical_beta(make_spectral_model(replace(OHMIC, n_env=256)))
    position, momentum = (sweeps[id(b)] for b in blocks)
    assert position > 20
    # the asymmetry scan, the hot end of the bracket and the first two steps
    # whose momentum diagonal is positive; every later step is smaller than
    # the second of those
    assert momentum <= 4


def dense_certificate(net, margin):
    """(beta_star, gamma0_sys) built on interleaved 2n x 2n matrices.

    The reference Gibbs state is T^T D T with T = embed_orthogonal(M^T), the
    Schur complement solves the whole 2N x 2N bath gap, and domination is
    checked by eigvalsh on the whole difference.
    """
    constants = certificate_constants(net)
    t = embed_orthogonal(net.modes.mode_matrix.T)
    d = thermal_diagonal(net.modes.tilde_omegas, constants.gamma_ref)
    full = t.T @ (d[:, None] * t)
    beta_star = eigvalsh_bisect(net.omegas[1:], full[2:, 2:], margin)
    beta = 0.5 * beta_star
    gap = np.diag(thermal_diagonal(net.omegas[1:], beta)) - full[2:, 2:]
    cross = full[:2, 2:]
    schur = full[:2, :2] + cross @ np.linalg.solve(gap, cross.T)
    gamma0_sys = (schur + schur.T) / 2.0 + margin * np.eye(2)
    diff = product_initial_covariance(gamma0_sys, net, beta) - full
    assert np.linalg.eigvalsh(diff).min() >= -1e-10 * max(np.abs(diff).max(), 1.0)
    return beta_star, gamma0_sys


def test_certificate_matches_the_dense_construction(rng):
    nets = [make_spectral_model(replace(OHMIC, exponent=p, n_env=n))
            for p in (0.5, 1.0, 2.0) for n in (1, 8, 64, 128)]
    for net in nets + explicit_networks(rng):
        cert = build_certificate(net)
        beta_star, gamma0_sys = dense_certificate(net, cert.margin)
        assert cert.margin == qbmsim.certify.DEFAULT_MARGIN
        assert cert.beta_star == beta_star
        assert np.abs(cert.gamma0_sys - gamma0_sys).max() <= 1e-13 * np.abs(gamma0_sys).max()


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

    for module, name in ((qbmsim.model, "normal_modes"), (qbmsim.certify, "_gibbs_blocks")):
        monkeypatch.setattr(module, name, counting(getattr(module, name)))
    build_certificate(make_spectral_model(OHMIC))
    assert calls == {"normal_modes": 1, "_gibbs_blocks": 1}


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


def test_certificate_builds_no_dense_matrix():
    # one dense 2n x 2n float64 matrix at n_env = 256 is 2.1 MB; the Gibbs
    # state, bath gap and domination check are n x n blocks of 0.53 MB each
    net = make_spectral_model(replace(OHMIC, n_env=256))
    tracemalloc.start()
    try:
        build_certificate(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (2 * net.n_modes) ** 2 * 8


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


def test_unphysical_certificate_is_rejected_before_evolving():
    # I/2 violates the uncertainty relation; the 2x2 block is checked once
    net = make_spectral_model(OHMIC)
    cert = SeparabilityCertificate(constants=certificate_constants(net),
                                   beta_star=1.0, beta=0.5,
                                   gamma0_sys=0.5 * np.eye(2), margin=1e-6)
    with pytest.raises(ValueError, match="gamma0_sys"):
        verify_all_times_separable(cert, net, np.linspace(0.0, 10.0, 5))


BAD_GRIDS = pytest.mark.parametrize("times, match", [
    ([], "empty"),
    ([0.5, np.nan], "finite"),
    ([0.5, np.inf], "finite"),
], ids=["empty", "nan", "inf"])


@BAD_GRIDS
def test_verify_rejects_bad_time_grid(times, match):
    net = make_spectral_model(OHMIC)
    cert = build_certificate(net)
    with pytest.raises(ValueError, match=match):
        verify_all_times_separable(cert, net, np.array(times))


def test_verify_streams_without_dense_matrices():
    # one dense 2n x 2n float64 matrix at n_env = 256 is 2.1 MB; the PPT test
    # per step reads rows 0 and 1 of S_t and keeps O(n) memory
    net = make_spectral_model(replace(OHMIC, n_env=256))
    cert = build_certificate(net)
    times = np.linspace(0.0, 100.0, 50)
    tracemalloc.start()
    try:
        report = verify_all_times_separable(cert, net, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < (2 * net.n_modes) ** 2 * 8


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


@pytest.mark.parametrize("h", [0.0, -1e-6, float("nan"), float("inf")])
def test_lambda_dot_finite_difference_rejects_a_bad_step(h):
    net = OscillatorNetwork(omegas=[1.0, 1.3], kappas=[0.2])
    with pytest.raises(ValueError, match="step h must be positive and finite"):
        lambda_dot_finite_difference(np.eye(2), net, 1, beta=1.0, h=h)


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


def test_lambda_dot_zero_temperature_decision_matches_dense_det():
    """det B read off the thermal diagonal decides like det of the dense bath block."""
    def dense_degenerate(net, mode, beta):
        block = reduce_two_mode(product_initial_covariance(np.eye(2), net, beta), mode)
        return np.linalg.det(block.b) - 1.0 <= DEGENERATE_DET_B

    explicit = OscillatorNetwork(omegas=[1.0, 2.0, 0.7], kappas=[0.1, 0.05])
    # beta * omega around 29, where det B - 1 = 4 e^{-beta omega} crosses 1e-12
    cases = [(explicit, mode, x / explicit.omegas[mode])
             for mode in (1, 2) for x in np.linspace(27.0, 31.0, 401)]
    # the frozen bath of the immediate CLI test: every mode at beta = 1e5
    frozen = make_spectral_model(SpectralFamily(1.0, 2.0, 0.1, 4))
    cases += [(frozen, mode, 1e5) for mode in range(1, 5)]
    decisions = Counter()
    for net, mode, beta in cases:
        degenerate = dense_degenerate(net, mode, beta)
        decisions[degenerate] += 1
        if degenerate:
            with pytest.raises(ValueError, match="zero temperature"):
                lambda_dot_analytic(np.eye(2), net, mode, beta)
        else:
            assert lambda_dot_analytic(np.eye(2), net, mode, beta) == 0.0
    assert decisions[True] > 4 and decisions[False] > 0


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


@pytest.mark.parametrize("theta", [0.3, 1.0])
@pytest.mark.parametrize("r", [4.75, 5.0, 6.0])
def test_purity_gate_accepts_strongly_squeezed_pure_states(r, theta):
    # the residual of a pure state held in doubles rounds like
    # eps ||gamma||_F^2 = eps e^{4r}: 1.5e-8 at r = 4.75 and 2.3e-6 at r = 6
    # (theta = 1), both above the old absolute gate of 1e-8
    net = make_spectral_model(OHMIC)
    gamma_sys = make_pure_gaussian(r, theta)
    assert lambda_dot_analytic(gamma_sys, net, 1, beta=1.0) == 0.0
    report = immediate_entanglement_check(gamma_sys, net, beta=1.0,
                                          times=np.geomspace(1e-3, 1e-1, 4))
    assert report.passed


def test_purity_gate_rejects_a_slightly_mixed_state():
    net = make_spectral_model(OHMIC)
    mixed = 1.0001 * make_pure_gaussian(1.0, 0.3)  # purity residual 2.8e-4
    with pytest.raises(ValueError, match="pure"):
        lambda_dot_analytic(mixed, net, 1, beta=1.0)
    with pytest.raises(ValueError, match="pure"):
        immediate_entanglement_check(mixed, net, beta=1.0)


@BAD_GRIDS
def test_immediate_rejects_bad_time_grid(times, match):
    net = make_spectral_model(OHMIC)
    with pytest.raises(ValueError, match=match):
        immediate_entanglement_check(np.eye(2), net, beta=1.0, times=np.array(times))


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
