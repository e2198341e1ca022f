import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
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
    SeparabilityCertificate,
    SpectralFamily,
    build_certificate,
    build_potential_matrix,
    certificate_constants,
    critical_beta,
    embed_orthogonal,
    gibbs_covariance,
    immediate_entanglement_check,
    is_valid_covariance,
    lambda_dot_finite_difference,
    make_pure_gaussian,
    make_spectral_model,
    normal_modes,
    product_initial_covariance,
    reduce_two_mode,
    thermal_factor,
    verify_all_times_separable,
)
from qbmsim.certify import DEGENERATE_DET_B, ImpureStateError
from qbmsim.symplectic import thermal_diagonal

from conftest import (
    perfbench_workloads,
    random_explicit_network,
    random_network,
    random_pure_system,
)

OHMIC = SpectralFamily(exponent=1.0, omega_max=2.0, coupling_norm=0.1, n_env=8)


def reference_gibbs(net, beta):
    return gibbs_covariance(normal_modes(build_potential_matrix(net)), beta)


def bath_gap_min(net, beta, gamma):
    """Smallest eigenvalue of the bath feasibility gap at inverse temperature beta."""
    env_block = reference_gibbs(net, gamma)[2:, 2:]
    gap = np.diag(thermal_diagonal(net.omegas[1:], beta).T.ravel()) - env_block
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
    # the system sits below every bath frequency, so the bath sets Omega
    gammas = []
    for w in (0.5, 1.0, 2.0, 5.0, 20.0):
        net = OscillatorNetwork(omegas=[0.4, w], kappas=[0.1])
        gammas.append(certificate_constants(net).gamma_ref)
    assert all(a > b for a, b in zip(gammas, gammas[1:]))
    assert gammas[-1] < 0.1


def test_gamma_ref_capped_at_two():
    # every frequency near 0.01, the system's too: Omega ~ 0.011
    net = OscillatorNetwork(omegas=[0.01, 0.01], kappas=[1e-5])
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


def networks_with_system_above_the_band(rng):
    """The Ohmic family and random networks with omega_sys in [3, 30], above every bath mode."""
    nets = [make_spectral_model(OHMIC, omega_sys=w) for w in (5.0, 10.0, 30.0)]
    for _ in range(10):
        # a stiffer system keeps V positive definite
        net = random_network(rng, rng.integers(1, 6))
        nets.append(replace(net, omegas=np.concatenate(([rng.uniform(3.0, 30.0)],
                                                        net.omegas[1:]))))
    assert all(net.omegas[0] > net.omegas[1:].max() for net in nets)
    return nets


def test_reference_gibbs_at_vacuum_noise(rng):
    """At gamma_ref every quadrature of the coupled state carries >= vacuum noise."""
    nets = [random_network(rng, rng.integers(1, 6)) for _ in range(10)]
    for net in nets + networks_with_system_above_the_band(rng):
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


@pytest.mark.parametrize("margin", [-0.0, float("nan")])
def test_critical_beta_rejects_a_margin_that_is_not_positive(margin):
    net = OscillatorNetwork(omegas=[1.0, 1.0], kappas=[0.1])
    with pytest.raises(ValueError, match="margin must be positive"):
        critical_beta(net, margin=margin)


def test_critical_beta_infinite_margin_is_infeasible():
    net = OscillatorNetwork(omegas=[1.0, 1.0], kappas=[0.1])
    with pytest.raises(FeasibilityError, match="bracket"):
        critical_beta(net, margin=float("inf"))


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
        gap = np.diag(thermal_diagonal(omega_bath, beta).T.ravel()) - env_block
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
    # copies: the bisection consumes its blocks
    blocks = (env_block[0::2, 0::2].copy(), env_block[1::2, 1::2].copy())
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
        return all(cholesky_accepts(env, diag, margin)
                   for env, diag in zip(env_blocks, thermal_diagonal(omega_bath, beta)))

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


def decision_probes(net, env_blocks, margin):
    """40 betas across the bracket and 101 within 5e-11 relative of the Cholesky beta*."""
    beta_star = cholesky_bisect(net.omegas[1:], env_blocks, margin)
    return np.concatenate((np.geomspace(*qbmsim.certify.BETA_BRACKET, 40),
                           beta_star * (1.0 + 1e-12 * np.arange(-50, 51))))


def test_cholesky_reads_only_the_lower_triangle(rng):
    for net, env_blocks in decision_cases(rng):
        for env in env_blocks:
            gap = np.diag(thermal_diagonal(net.omegas[1:], 1e-3)[0]) - env
            upper = gap.copy()
            upper[np.triu_indices_from(upper, 1)] = np.nan
            assert np.array_equal(np.linalg.cholesky(upper), np.linalg.cholesky(gap))


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130, 200])
def test_gap_block_mirrors_the_lower_triangle_bit_for_bit(rng, n):
    env = rng.standard_normal((n, n))
    env[n - 1, 0] = -0.0  # the sign of a zero moves too
    env[np.triu_indices(n, 1)] = np.nan
    expected = env.copy()
    np.fill_diagonal(expected, 0.0)
    for i in range(n - 1):  # the row-by-row mirror the tiles replace
        expected[i, i + 1:] = expected[i + 1:, i]
    block = qbmsim.certify._GapBlock(env.copy(), 1e-6)
    assert np.array_equal(block.off.view(np.int64), expected.view(np.int64))


def test_gap_block_decides_like_cholesky(rng):
    settled = Counter()
    for (net, env_blocks), margin in itertools.product(decision_cases(rng), (1e-6, 1e-3)):
        omega_bath = net.omegas[1:]
        probes = decision_probes(net, env_blocks, margin)
        for k, env in enumerate(env_blocks):
            # copies throughout: a block consumes the array it is given
            warm = qbmsim.certify._GapBlock(env.copy(), margin)
            for beta in probes:
                diag = thermal_diagonal(omega_bath, beta)[k]
                expected = cholesky_accepts(env, diag, margin)
                # a fresh block starts its power steps cold; the warm one has
                # seen every earlier probe, as in a bisection
                assert qbmsim.certify._GapBlock(env.copy(), margin).decide(diag) == expected
                assert warm.decide(diag) == expected
                settled[expected] += 1
    assert min(settled.values()) > 400


def test_gap_block_never_reads_the_upper_triangle(rng):
    # Cholesky reads E's lower triangle only; noise far above rounding, or
    # NaN, in the upper one changes neither its outcome nor the block's
    margin = 1e-6
    settled = Counter()
    for net, env_blocks in decision_cases(rng):
        omega_bath = net.omegas[1:]
        probes = decision_probes(net, env_blocks, margin)
        for k, env in enumerate(env_blocks):
            upper = np.triu_indices_from(env, 1)
            noisy, blank = env.copy(), env.copy()
            noisy[upper] *= 1.0 + 1e-3 * rng.standard_normal(upper[0].size)
            blank[upper] = np.nan
            # a block consumes the array it is given: warm consumes noisy, which
            # is not read again, and every fresh block gets a copy of blank
            warm = qbmsim.certify._GapBlock(noisy, margin)
            for beta in probes:
                diag = thermal_diagonal(omega_bath, beta)[k]
                expected = cholesky_accepts(env, diag, margin)
                assert warm.decide(diag) == expected
                assert qbmsim.certify._GapBlock(blank.copy(), margin).decide(diag) == expected
                settled[expected] += 1
    assert min(settled.values()) > 400


def bits(value):
    """value as comparable bits: an array's int64 view, a float's hex, None as is."""
    if isinstance(value, np.ndarray):
        return value.view(np.int64).tolist()
    return value.hex() if isinstance(value, float) else value


@pytest.mark.parametrize("n_env", [64, 256])
def test_gap_block_on_the_strided_view_gives_the_contiguous_bits(n_env):
    # the bisection works in g[1:, 1:], rows n_env + 1 doubles apart; a block on a
    # contiguous copy of it must prove, factorize and step exactly alike
    margin = 1e-6
    net = make_spectral_model(replace(OHMIC, exponent=0.5, n_env=n_env))
    ref = qbmsim.certify._gibbs_blocks(net.modes, certificate_constants(net).gamma_ref)
    omega_bath = net.omegas[1:]
    probes = decision_probes(net, tuple(g[1:, 1:] for g in ref), margin)
    settled = Counter()
    for k, g in enumerate(ref):
        contiguous = qbmsim.certify._GapBlock(np.ascontiguousarray(g[1:, 1:]), margin)
        strided = qbmsim.certify._GapBlock(g[1:, 1:], margin)
        assert not strided.off.flags.c_contiguous and np.shares_memory(strided.off, g)
        for beta in probes:
            f = thermal_factor(beta * omega_bath)
            d, a_dot = ((f / omega_bath, -0.5 * (f - 1.0) * (f + 1.0)) if k == 0 else
                        (f * omega_bath, -0.5 * (f - 1.0) * (f + 1.0) * omega_bath**2))
            verdicts = []
            for block in (strided, contiguous):
                block.certified = block.refuted = None  # the bounds run at every probe
                verdict = block.prove(d)
                state = [bits(block.c), bits(block.newton_step(a_dot)), bits(block.y),
                         bits(block.x)]
                # Cholesky at every probe, not only where the bounds leave it open
                block.open = ((0.0 - block.diag) + d) - margin
                accepted = block._cholesky()
                assert verdict in (None, accepted)
                verdicts.append((verdict, accepted, *state, bits(block.off)))
            assert verdicts[0] == verdicts[1]
            settled[verdicts[0][1]] += 1
    assert min(settled[True], settled[False]) > 20, settled


def test_critical_beta_is_bit_identical_to_cholesky_bisection_at_512():
    # the margins of the sweep-n8-512 benchmark: 1e-6 times a stretch of up to 1.1
    workloads = perfbench_workloads()
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


def sweep_workload():
    """The sweep-n8-512 benchmark's bath sizes and its four margins, 1e-6 times up to 1.1."""
    workloads = perfbench_workloads()
    configs = [workloads.make_config("sweep-n8-512", seed) for seed in range(workloads.VARIANTS)]
    margins = sorted({config["tolerances"]["margin"] for config in configs})
    assert len(margins) == 4 and all(1e-6 <= m <= 1.1e-6 for m in margins)
    return configs[0]["sweep_ns"], margins


def test_critical_beta_runs_at_most_24_bounds_at_the_sweep_sizes(monkeypatch):
    calls = []
    bound = qbmsim.certify._GapBlock._bound

    def counting(self, a):
        calls.append(a.size)
        return bound(self, a)

    monkeypatch.setattr(qbmsim.certify._GapBlock, "_bound", counting)
    sizes, margins = sweep_workload()
    assert sizes == [8, 16, 32, 64, 128, 256, 512]
    for n_env in sizes:
        net = make_spectral_model(replace(OHMIC, n_env=n_env))
        for margin in margins:
            calls.clear()
            critical_beta(net, margin)
            # 64 at every size when each step ran the bounds of both blocks
            assert len(calls) <= 24, (n_env, margin)


def test_every_bisection_step_decides_like_cholesky(monkeypatch, rng):
    # kept proofs decide most steps in O(n) and the bounds most others: each
    # verdict, both ends included, is still the one Cholesky gives on both
    # blocks at that beta, and so is every verdict that the search and the
    # plants prove
    margin, steps, proved = 1e-6, [], []
    bath_feasible, evaluate = qbmsim.certify._bath_feasible, qbmsim.certify._evaluate_beta

    def spying(omega_bath, blocks, beta):
        verdict, estimate = bath_feasible(omega_bath, blocks, beta)
        steps.append((beta, verdict))
        return verdict, estimate

    def spying_evaluate(omega_bath, blocks, beta):
        verdict, estimate = evaluate(omega_bath, blocks, beta)
        proved.append((beta, verdict))
        return verdict, estimate

    monkeypatch.setattr(qbmsim.certify, "_bath_feasible", spying)
    monkeypatch.setattr(qbmsim.certify, "_evaluate_beta", spying_evaluate)
    for net, env_blocks in decision_cases(rng):
        steps.clear()
        proved.clear()
        # copies: the bisection consumes its blocks
        qbmsim.certify._bisect_beta(net.omegas[1:], tuple(e.copy() for e in env_blocks), margin)
        assert len(steps) > 40
        assert any(verdict is not None for _, verdict in proved)
        for beta, verdict in steps + [step for step in proved if step[1] is not None]:
            d = thermal_diagonal(net.omegas[1:], beta)
            assert verdict == all(cholesky_accepts(env, d[k], margin)
                                  for k, env in enumerate(env_blocks)), beta


def test_critical_beta_evaluates_no_beta_twice_at_the_sweep_sizes(monkeypatch):
    # the search starts from the loop's own midpoints and hands the loop its
    # proofs, so no beta's thermal factor and proofs are computed twice
    betas = []
    evaluate = qbmsim.certify._evaluate_beta

    def spying(omega_bath, blocks, beta):
        betas.append(beta)
        return evaluate(omega_bath, blocks, beta)

    monkeypatch.setattr(qbmsim.certify, "_evaluate_beta", spying)
    sizes, margins = sweep_workload()
    for n_env in sizes:
        net = make_spectral_model(replace(OHMIC, n_env=n_env))
        for margin in margins:
            betas.clear()
            critical_beta(net, margin)
            assert len(set(betas)) == len(betas), (n_env, margin)
            # the two ends, 44 midpoints, and the betas of the search and the plants
            assert len(betas) <= 50, (n_env, margin)


def test_a_kept_proof_settles_its_side_without_bounds(monkeypatch, rng):
    # a = ((0 - E_ii) + d_i) - margin is nondecreasing in d: a feasibility
    # proved at d holds for every d' >= d, an infeasibility for every d' <= d
    calls = []
    bound = qbmsim.certify._GapBlock._bound

    def counting(self, a):
        calls.append(a.size)
        return bound(self, a)

    monkeypatch.setattr(qbmsim.certify._GapBlock, "_bound", counting)
    margin, settled = 1e-6, Counter()
    for net, env_blocks in decision_cases(rng):
        omega_bath = net.omegas[1:]
        probes = decision_probes(net, env_blocks, margin)[::5]
        for k, env in enumerate(env_blocks):
            for beta in probes:
                block = qbmsim.certify._GapBlock(env.copy(), margin)
                d = thermal_diagonal(omega_bath, beta)[k]
                verdict = block.prove(d)
                if verdict is None:
                    continue
                settled[verdict] += 1
                # half of the entries moved past the proof by up to 50 %, the rest equal
                up = d * (1.0 + rng.uniform(0.0, 0.5, d.size) * (rng.random(d.size) < 0.5))
                moved = up if verdict else d - (up - d)
                calls.clear()
                assert block.prove(moved) is verdict
                assert block.prove(d) is verdict
                assert not calls
                assert cholesky_accepts(env, moved, margin) == verdict
    assert min(settled.values()) > 20


@pytest.mark.parametrize("error", [0.9, 1.0 - 1e-8, 1.0 + 1e-8, 1.1, -1.0, math.inf, math.nan])
def test_a_wrong_estimate_changes_no_verdict(monkeypatch, error):
    # the estimate only chooses where proofs are tried: a plant that proves the
    # other side, or nothing, is not kept as the one asked for, and an estimate
    # outside the bracket plants nothing
    search = qbmsim.certify._search_beta
    monkeypatch.setattr(qbmsim.certify, "_search_beta", lambda *args: error * search(*args))
    for net in (make_spectral_model(replace(OHMIC, n_env=64)), OscillatorNetwork(
            omegas=[1.0, 2.5, 0.7, 0.7, 1.9, 0.3, 1.9], kappas=[0.05, 0.1, 0.08, 0.02, 0.1, 0.04])):
        blocks = env_blocks_of(net)
        beta = qbmsim.certify._bisect_beta(net.omegas[1:], tuple(b.copy() for b in blocks), 1e-6)
        assert beta == cholesky_bisect(net.omegas[1:], blocks, 1e-6)


def test_bisection_without_bounds_is_the_plain_cholesky_bisection(monkeypatch, rng):
    # bounds that never settle leave no Rayleigh quotient, so no search and no
    # planted proof: every step runs Cholesky, as before the bounds
    calls = []
    cholesky = np.linalg.cholesky

    def counting(a):
        calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    for net, env_blocks in decision_cases(rng):
        if net.n_env > 100:
            continue
        calls.clear()
        expected = cholesky_bisect(net.omegas[1:], env_blocks, 1e-6)
        plain = len(calls)
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(qbmsim.certify._GapBlock, "_bound", lambda self, a: None)
            beta = qbmsim.certify._bisect_beta(
                net.omegas[1:], tuple(e.copy() for e in env_blocks), 1e-6)
        assert beta == expected
        assert 0 < len(calls) <= plain


def test_block_proved_feasible_once_is_skipped_after(monkeypatch):
    # the momentum block never binds on network Gibbs states: once proved
    # feasible, every later and smaller beta skips its O(n^2) bounds.  Every
    # O(n^2) pass over E is a Frobenius sweep through the row chunks or one of
    # the 1 + _POWER_STEPS matvecs of a power call
    blocks, sweeps = [], Counter()
    block_type = qbmsim.certify._GapBlock
    init, chunks, power = block_type.__init__, block_type._chunks, block_type._power

    def recording_init(self, env, margin):
        blocks.append(self)
        init(self, env, margin)

    def counting_chunks(self):
        sweeps[id(self)] += 1
        return chunks(self)

    def counting_power(self, w):
        sweeps[id(self)] += 1 + qbmsim.certify._POWER_STEPS
        return power(self, w)

    monkeypatch.setattr(block_type, "__init__", recording_init)
    monkeypatch.setattr(block_type, "_chunks", counting_chunks)
    monkeypatch.setattr(block_type, "_power", counting_power)
    critical_beta(make_spectral_model(replace(OHMIC, n_env=256)))
    position, momentum = (sweeps[id(b)] for b in blocks)
    assert position > 20
    # the hot end of the bracket and the first two steps whose momentum
    # diagonal is positive; every later step is smaller than the second of those
    assert momentum <= 3


def dense_certificate(net, margin):
    """(beta_star, gamma0_sys) built on interleaved 2n x 2n matrices.

    The reference Gibbs state is T^T D T with T = embed_orthogonal(M^T), the
    Schur complement solves the whole 2N x 2N bath gap, and domination is
    checked by eigvalsh on the whole difference.
    """
    constants = certificate_constants(net)
    t = embed_orthogonal(net.modes.mode_matrix.T)
    d = thermal_diagonal(net.modes.tilde_omegas, constants.gamma_ref).T.ravel()
    full = t.T @ (d[:, None] * t)
    beta_star = eigvalsh_bisect(net.omegas[1:], full[2:, 2:], margin)
    beta = 0.5 * beta_star
    gap = np.diag(thermal_diagonal(net.omegas[1:], beta).T.ravel()) - full[2:, 2:]
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

    for module, name in ((qbmsim.model, "_modes_of_doubled"), (qbmsim.certify, "_gibbs_blocks")):
        monkeypatch.setattr(module, name, counting(getattr(module, name)))
    build_certificate(make_spectral_model(OHMIC))
    assert calls == {"_modes_of_doubled": 1, "_gibbs_blocks": 1}


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


def traced_peak(call):
    """Peak bytes of the allocations tracemalloc sees while call() runs, and its result."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_certificate_builds_no_dense_matrix():
    # n_modes x n_modes float64 arrays alive at the peak of each phase, at
    # n_env 256 (0.53 MB each; a dense 2n x 2n matrix would be 4 of them).
    # tracemalloc sees numpy's arrays, not the buffers numpy's LAPACK wrappers
    # take from malloc: eigh's copy of 2V and its workspace, Cholesky's copy.
    # The mode matrix exists before tracing starts.  Each bound has half an
    # array of headroom, for numpy versions that keep one more elementwise
    # temporary alive; a second copy of 2V or of a reference block is a whole one.
    n_env = 256
    unit = (n_env + 1) ** 2 * 8
    net, network = traced_peak(lambda: make_spectral_model(replace(OHMIC, n_env=n_env)))
    # 2V and the eigenvectors
    assert network <= 2.5 * unit, network / unit
    # the two reference blocks, in which the bisection and the domination test
    # work, and one of: the product m * d of the second Gibbs block, Cholesky's
    # factor
    _, bisection = traced_peak(lambda: critical_beta(net))
    assert bisection <= 3.5 * unit, bisection / unit
    _, certificate = traced_peak(lambda: build_certificate(net))
    assert certificate <= 3.5 * unit, certificate / unit


def lowering_entry(block, k, margin):
    """_schur_entry whose call number `block` lowers that Schur entry by k margins."""
    schur_entry, calls = qbmsim.certify._schur_entry, []

    def lowered(*args):
        entry, g00, q = schur_entry(*args)
        if len(calls) == block:
            entry -= k * margin
        calls.append(block)
        return entry, g00, q

    return lowered


@pytest.mark.parametrize("n_env", [8, 256, 1024])
def test_domination_check_rejects_a_system_block_lowered_past_the_margin(monkeypatch, n_env):
    # the Schur step is the least entry that dominates; the margin is all the slack,
    # so a lowering by 1.1 margins breaks domination and one by 0.9 margins does not
    net = make_spectral_model(replace(OHMIC, n_env=n_env))
    margin = qbmsim.certify.DEFAULT_MARGIN
    exact = build_certificate(net).gamma0_sys
    for block, name in enumerate(("position", "momentum")):
        monkeypatch.setattr(qbmsim.certify, "_schur_entry", lowering_entry(block, 0.9, margin))
        lowered = build_certificate(net).gamma0_sys
        assert lowered[block, block] < exact[block, block] - 0.8 * margin
        monkeypatch.setattr(qbmsim.certify, "_schur_entry", lowering_entry(block, 1.1, margin))
        with pytest.raises(RuntimeError, match=f"in the {name} block at margin 1e-06"):
            build_certificate(net)


def test_certificate_factors_each_block_once(monkeypatch):
    shapes, cholesky = [], np.linalg.cholesky

    def counting(a, *args, **kwargs):
        shapes.append(a.shape)
        return cholesky(a, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("build_certificate ran np.linalg.solve")

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    monkeypatch.setattr(np.linalg, "solve", forbidden)
    build_certificate(make_spectral_model(OHMIC))
    assert shapes == [(9, 9), (9, 9)]


def test_certificate_margin_below_the_rounding_floor_is_rejected():
    # at n_env = 256 and p = 0.5, 1e-15 is below half the pivot floor of the
    # position block, 4 ulp(g00 + q) = 7.1e-15; 1e-12 is well above it
    net = make_spectral_model(replace(OHMIC, exponent=0.5, n_env=256))
    with pytest.raises(RuntimeError, match="in the position block at margin 1e-15"):
        build_certificate(net, 1e-15)
    cert = build_certificate(net, 1e-12)
    assert cert.margin == 1e-12
    assert 1e-15 < 0.5 * cert.margin_floor < 1.5 * cert.margin_floor < 1e-12


FLOOR_PROBE = """
from qbmsim import SpectralFamily, build_certificate, make_spectral_model
net = make_spectral_model(SpectralFamily(exponent=0.5, omega_max=2.0, coupling_norm=0.1,
                                         n_env=256))
try:
    build_certificate(net, 1e-15)
except RuntimeError as exc:
    print(exc)
print(build_certificate(net, 1e-12).margin)
"""


def test_certificate_rounding_floor_holds_at_one_blas_thread():
    # the verdict on margins far from the floor must not move with the BLAS
    # thread count, which changes the rounding of the factor's last row
    src = str(Path(qbmsim.__file__).resolve().parents[1])
    one_thread = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                         "MKL_NUM_THREADS")}
    proc = subprocess.run([sys.executable, "-c", FLOOR_PROBE], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, **one_thread, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "certificate does not dominate the reference state in the position block "
        "at margin 1e-15",
        "1e-12",
    ]


def test_certificate_runs_no_eigensolver(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("build_certificate ran an eigensolver")

    net = make_spectral_model(replace(OHMIC, n_env=64))
    net.modes  # the network's one eigh, before the eigensolvers are forbidden
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    build_certificate(net)


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


def test_certificate_keeps_the_requested_margin(rng):
    # the reference Gibbs state is >= 1, so gamma0_sys >= (1 + margin) I
    # holds without inflating the margin, the system above the band too
    nets = [random_network(rng, int(n)) for n in rng.integers(1, 12, 6)]
    for net in nets + networks_with_system_above_the_band(rng):
        for margin in (1e-9, 1e-6, 1e-3):
            cert = build_certificate(net, margin)
            assert cert.margin == margin
            assert np.diag(cert.gamma0_sys).min() >= 1.0 + margin - 1e-12


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
    assert immediate_entanglement_check(np.eye(2), net, beta=1.0).lambda_dot0 == 0.0


def test_lambda_dot_vanishes_at_t_zero(rng):
    """The pair determinant invariants make the first derivative zero."""
    for _ in range(30):
        n_env = int(rng.integers(1, 5))
        net = random_network(rng, n_env)
        gamma_sys = random_pure_system(rng, r_max=1.2)
        beta = rng.uniform(0.05, 6.0)
        report = immediate_entanglement_check(gamma_sys, net, beta,
                                              times=np.geomspace(1e-3, 1e-1, 4))
        assert report.lambda_dot0 == 0.0
        assert abs(report.lambda_dot0_fd) <= 1e-6


def test_lambda_dot_matches_finite_difference(rng):
    # lambda'(0) = 0 for every bath mode, not only the leading one that immediate checks
    for _ in range(30):
        n_env = int(rng.integers(1, 5))
        net = random_network(rng, n_env)
        gamma_sys = random_pure_system(rng, r_max=1.2)
        beta = rng.uniform(0.05, 6.0)
        mode = int(rng.integers(1, n_env + 1))
        gamma0 = product_initial_covariance(gamma_sys, net, beta)
        assert abs(lambda_dot_finite_difference(gamma0, net.modes, mode)) <= 1e-6


def test_lambda_dot_rejects_frozen_bath_mode():
    # beta*omega ~ 2e5: det B - 1 underflows and the two-sided derivative
    # stops existing, so neither the exact value nor its check is reported
    net = OscillatorNetwork(omegas=[1.0, 2.0], kappas=[0.1])
    report = immediate_entanglement_check(np.eye(2), net, beta=1e5)
    assert math.isnan(report.lambda_dot0) and math.isnan(report.lambda_dot0_fd)


def test_lambda_dot_zero_temperature_decision_matches_dense_det():
    """det B read off the thermal diagonal decides like det of the dense bath block."""
    def dense_degenerate(net, mode, beta):
        block = reduce_two_mode(product_initial_covariance(np.eye(2), net, beta), mode)
        return np.linalg.det(block.b) - 1.0 <= DEGENERATE_DET_B

    # one bath mode, so that it is the leading one, at beta * omega around 29,
    # where det B - 1 = 4 e^{-beta omega} crosses 1e-12
    cases = [(OscillatorNetwork(omegas=[1.0, omega], kappas=[kappa]), x / omega)
             for omega, kappa in ((2.0, 0.1), (0.7, 0.05))
             for x in np.linspace(27.0, 31.0, 401)]
    # the frozen bath of the immediate CLI test: every mode at beta = 1e5
    cases.append((make_spectral_model(SpectralFamily(1.0, 2.0, 0.1, 4)), 1e5))
    decisions = Counter()
    for net, beta in cases:
        report = immediate_entanglement_check(np.eye(2), net, beta, times=np.array([1e-3]))
        leading = report.probed_modes[int(np.argmin(report.lambda_by_mode[0]))]
        degenerate = dense_degenerate(net, leading, beta)
        decisions[degenerate] += 1
        if degenerate:
            assert math.isnan(report.lambda_dot0) and math.isnan(report.lambda_dot0_fd)
        else:
            assert report.lambda_dot0 == 0.0 and math.isfinite(report.lambda_dot0_fd)
    assert decisions[True] > 4 and decisions[False] > 0


def test_immediate_builds_the_initial_state_once(monkeypatch):
    """The finite difference evolves the very Gamma_0 that the onset curve came from."""
    built, differenced = [], []
    build = qbmsim.certify.product_initial_covariance
    difference = qbmsim.certify.lambda_dot_finite_difference

    def counting_build(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    def recording_difference(gamma0, modes, env_mode):
        differenced.append(gamma0)
        return difference(gamma0, modes, env_mode)

    monkeypatch.setattr(qbmsim.certify, "product_initial_covariance", counting_build)
    monkeypatch.setattr(qbmsim.certify, "lambda_dot_finite_difference", recording_difference)
    report = immediate_entanglement_check(make_pure_gaussian(1.0, 0.3),
                                          make_spectral_model(OHMIC), beta=1.0)
    assert len(built) == 1 and len(differenced) == 1
    assert differenced[0] is built[0]
    assert report.lambda_dot0 == 0.0 and abs(report.lambda_dot0_fd) <= 1e-6


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
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the bound goes first: 1e77 overflows the purity residual
        for entry in (1e77, 2.0**255):
            with pytest.raises(ValueError, match=r"entries must be below 2\^255") as info:
                immediate_entanglement_check(np.diag([entry, entry]), net, beta=1.0)
            assert not isinstance(info.value, ImpureStateError)
        below = np.nextafter(2.0**255, 0.0)
        with pytest.raises(ImpureStateError):
            immediate_entanglement_check(np.diag([below, below]), net, beta=1.0)


@pytest.mark.parametrize("theta", [0.3, 1.0])
@pytest.mark.parametrize("r", [4.75, 5.0, 6.0])
def test_purity_gate_accepts_strongly_squeezed_pure_states(r, theta):
    # the residual of a pure state held in doubles rounds like
    # eps ||gamma||_F^2 = eps e^{4r}: 1.5e-8 at r = 4.75 and 2.3e-6 at r = 6
    # (theta = 1), both above the old absolute gate of 1e-8
    net = make_spectral_model(OHMIC)
    gamma_sys = make_pure_gaussian(r, theta)
    report = immediate_entanglement_check(gamma_sys, net, beta=1.0,
                                          times=np.geomspace(1e-3, 1e-1, 4))
    assert report.passed
    assert report.lambda_dot0 == 0.0


def test_purity_gate_rejects_a_slightly_mixed_state():
    net = make_spectral_model(OHMIC)
    mixed = 1.0001 * make_pure_gaussian(1.0, 0.3)  # purity residual 2.8e-4
    with pytest.raises(ImpureStateError, match="pure"):
        immediate_entanglement_check(mixed, net, beta=1.0)


@BAD_GRIDS
def test_immediate_rejects_bad_time_grid(times, match):
    net = make_spectral_model(OHMIC)
    with pytest.raises(ValueError, match=match):
        immediate_entanglement_check(np.eye(2), net, beta=1.0, times=np.array(times))


# ------------------------------------------------------------- bath scaling


def scaling_rows(fam, ns):
    """(certificate constants, critical beta) of the family at each bath size."""
    rows = []
    for n in ns:
        net = make_spectral_model(replace(fam, n_env=n))
        rows.append((certificate_constants(net), critical_beta(net)))
    return rows


def test_scaling_study_constant_gamma():
    rows = scaling_rows(OHMIC, [2, 4, 8, 16])
    gammas = np.array([c.gamma_ref for c, _ in rows])
    npt.assert_allclose(gammas, gammas[0], atol=1e-12)
    deltas = np.array([c.delta for c, _ in rows])
    npt.assert_allclose(deltas, 2.0 * OHMIC.coupling_norm, rtol=1e-12)
    assert all(beta_star > 0.0 for _, beta_star in rows)


def test_scaling_study_weak_coupling_limit():
    fam = replace(OHMIC, coupling_norm=1e-8)
    for constants, beta_star in scaling_rows(fam, [2, 4]):
        assert abs(beta_star - constants.gamma_ref) <= 1e-4
