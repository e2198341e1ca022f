import importlib.util
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import qbmsim.entanglement
from qbmsim import (
    ENTANGLED,
    INCONCLUSIVE,
    SEPARABLE,
    OscillatorNetwork,
    SpectralFamily,
    TwoModeBlock,
    bath_gibbs_covariance,
    build_certificate,
    build_potential_matrix,
    gibbs_covariance,
    lambda_of_block,
    make_pure_gaussian,
    make_spectral_model,
    normal_modes,
    partial_transpose,
    ppt_verdict,
    product_initial_covariance,
    product_state_pt_minima,
    propagator,
    reduce_two_mode,
    symplectic_spectrum,
    trajectory,
)
from qbmsim.cli import parse_config, run_certify, run_evolve
from qbmsim.symplectic import thermal_diagonal

from conftest import (
    bisect_smallest_root,
    random_covariance,
    random_explicit_network,
    random_network,
    random_pure_system,
    random_two_mode_block,
    scalar_lambda_of_block,
    two_mode_squeezed,
)


def pt_of_block(block):
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    return flip @ block.assembled @ flip


def test_partial_transpose_identity_fixed():
    npt.assert_array_equal(partial_transpose(np.eye(6)), np.eye(6))


def test_partial_transpose_two_mode_squeezed_sign_flip():
    block = two_mode_squeezed(0.7)
    pt = partial_transpose(block.assembled)
    npt.assert_allclose(pt[:2, 2:], np.sinh(1.4) * np.eye(2), atol=1e-15)


def test_partial_transpose_involution(rng):
    gamma = random_covariance(rng, 4)
    npt.assert_array_equal(partial_transpose(partial_transpose(gamma)), gamma)


def test_partial_transpose_rejects_bad_index_sets():
    gamma = np.eye(6)
    with pytest.raises(ValueError):
        partial_transpose(gamma, system_modes=())
    with pytest.raises(ValueError):
        partial_transpose(gamma, system_modes=(0, 1, 2))
    with pytest.raises(ValueError):
        partial_transpose(gamma, system_modes=(5,))


def test_ppt_identity_separable():
    verdict = ppt_verdict(np.eye(8))
    assert verdict.status == SEPARABLE
    assert verdict.min_pt_symplectic >= 1.0 - 1e-12
    assert verdict.log_negativity == 0.0


def test_ppt_product_state_separable(rng):
    for _ in range(10):
        gamma_s = random_covariance(rng, 1)
        gamma_e = random_covariance(rng, 3)
        gamma = np.zeros((8, 8))
        gamma[:2, :2] = gamma_s
        gamma[2:, 2:] = gamma_e
        verdict = ppt_verdict(gamma)
        assert verdict.status == SEPARABLE
        assert verdict.log_negativity == 0.0


def test_ppt_product_plus_psd_separable(rng):
    # sufficiency mechanism: adding a PSD part to a product covariance
    # cannot create entanglement
    for _ in range(20):
        gamma = np.zeros((6, 6))
        gamma[:2, :2] = random_covariance(rng, 1)
        gamma[2:, 2:] = random_covariance(rng, 2)
        L = rng.normal(0.0, 0.6, (6, 6))
        verdict = ppt_verdict(gamma + L @ L.T / 6)
        assert verdict.status == SEPARABLE


def test_ppt_two_mode_squeezed_entangled():
    r = 0.5
    verdict = ppt_verdict(two_mode_squeezed(r).assembled)
    assert verdict.status == ENTANGLED
    npt.assert_allclose(verdict.min_pt_symplectic, np.exp(-2.0 * r), rtol=1e-12)
    npt.assert_allclose(verdict.log_negativity, 2.0 * r, rtol=1e-10)


def test_ppt_rejects_many_vs_many():
    with pytest.raises(ValueError):
        ppt_verdict(np.eye(8), system_modes=(0, 1))


def test_ppt_inconclusive_band():
    # min PT of 1 - 2e-9 sits inside the (1 - 3 tol, 1 - tol) no-call band
    r = 1e-9
    verdict = ppt_verdict(two_mode_squeezed(r).assembled, tol=1e-9)
    assert verdict.status == INCONCLUSIVE


def test_ppt_verdict_tolerance_scales():
    r = 0.001
    strict = ppt_verdict(two_mode_squeezed(r).assembled, tol=1e-9)
    loose = ppt_verdict(two_mode_squeezed(r).assembled, tol=1e-2)
    assert strict.status == ENTANGLED
    assert loose.status == SEPARABLE


def test_reduce_two_mode_product_structure(rng):
    net = random_network(rng, 3)
    modes = normal_modes(build_potential_matrix(net))
    beta = 0.8
    gamma = np.zeros((8, 8))
    gamma[:2, :2] = np.eye(2)
    bath_net = OscillatorNetwork(omegas=net.omegas[1:], kappas=np.zeros(2))
    bath_modes = normal_modes(build_potential_matrix(bath_net))
    gamma[2:, 2:] = gibbs_covariance(bath_modes, beta)
    block = reduce_two_mode(gamma, 2)
    npt.assert_allclose(np.linalg.det(block.a), 1.0, atol=1e-14)
    assert np.linalg.det(block.b) > 1.0
    npt.assert_array_equal(block.c, np.zeros((2, 2)))
    # modes come back in interleaved order
    npt.assert_array_equal(block.b, gamma[4:6, 4:6])


def test_reduce_two_mode_rejects_out_of_range():
    gamma = np.eye(6)
    for bad, shown in ((0, 0), (3, 3), (-1, -1), ([1, 3], 3), ((0, 2), 0), ([2, 1, -4], -4)):
        with pytest.raises(ValueError, match=rf"^env_mode must be in 1\.\.2, got {shown}$"):
            reduce_two_mode(gamma, bad)


def test_reduce_two_mode_stacks_the_pairs_of_a_mode_sequence(rng):
    gamma = random_covariance(rng, 5)
    modes = (3, 1, 4, 4)
    stack = reduce_two_mode(gamma, modes)
    assert stack.a.shape == stack.b.shape == stack.c.shape == (4, 2, 2)
    for i, mode in enumerate(modes):
        single = reduce_two_mode(gamma, mode)
        for field in ("a", "b", "c", "assembled"):
            npt.assert_array_equal(getattr(stack, field)[i], getattr(single, field))
        idx = [0, 1, 2 * mode, 2 * mode + 1]
        npt.assert_array_equal(stack.assembled[i], gamma[np.ix_(idx, idx)])


def test_lambda_two_mode_vacuum():
    block = TwoModeBlock(a=np.eye(2), b=np.eye(2), c=np.zeros((2, 2)))
    npt.assert_allclose(lambda_of_block(block), 1.0, atol=1e-14)


def test_lambda_pure_thermal_product_is_one():
    f = 3.7
    block = TwoModeBlock(a=np.diag([2.0, 0.5]),
                         b=np.diag([f / 1.3, f * 1.3]),
                         c=np.zeros((2, 2)))
    npt.assert_allclose(lambda_of_block(block), 1.0, atol=1e-12)


def test_lambda_two_mode_squeezed_closed_form():
    for r in (0.1, 0.5, 1.0, 2.0):
        lam = lambda_of_block(two_mode_squeezed(r))
        npt.assert_allclose(lam, np.exp(-4.0 * r), atol=1e-10)


def test_lambda_matches_pt_spectrum(rng):
    # lambda must equal the squared minimum PT symplectic eigenvalue
    worst = 0.0
    for _ in range(1000):
        block = random_two_mode_block(rng, spread=rng.uniform(0.2, 1.5))
        lam = lambda_of_block(block)
        nu = symplectic_spectrum(pt_of_block(block)).min()
        worst = max(worst, abs(lam - nu ** 2))
    assert worst <= 1e-10


def assert_matches_scalar_oracle(stack, refs):
    for lam, ref in zip(lambda_of_block(stack).tolist(), refs, strict=True):
        assert abs(lam - ref) <= 1e-14 * max(1.0, abs(ref))


def test_stacked_lambda_matches_the_scalar_oracle_on_random_blocks(rng):
    blocks = [random_two_mode_block(rng, spread=rng.uniform(0.2, 1.5)) for _ in range(1000)]
    stack = TwoModeBlock(*(np.stack([getattr(blk, f) for blk in blocks]) for f in "abc"))
    refs = [scalar_lambda_of_block(blk) for blk in blocks]
    assert_matches_scalar_oracle(stack, refs)
    single = lambda_of_block(blocks[0])  # one pair gives a float, as before
    assert type(single) is float and abs(single - refs[0]) <= 1e-14 * max(1.0, abs(refs[0]))


def test_stacked_lambda_matches_the_scalar_oracle_on_every_evolved_pair(rng):
    for _ in range(20):
        net = random_explicit_network(rng, int(rng.integers(1, 12)))
        beta = float(np.exp(rng.uniform(np.log(0.05), np.log(40.0))))
        gamma0 = product_initial_covariance(random_pure_system(rng, r_max=2.0), net, beta)
        s = propagator(net, float(rng.uniform(1e-4, 20.0)))
        gamma_t = s @ gamma0 @ s.T
        modes = range(1, net.n_modes)
        refs = [scalar_lambda_of_block(reduce_two_mode(gamma_t, m)) for m in modes]
        assert_matches_scalar_oracle(reduce_two_mode(gamma_t, modes), refs)


def exact_det(m):
    """Determinant of a square list of Fractions by cofactor expansion."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * exact_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def exact_lambda(block):
    """d/2 - sqrt(d^2/4 - det Gamma) on one pair's doubles: exact rationals, a 40-digit root."""
    g = [[Fraction(x) for x in row] for row in block.assembled.tolist()]
    det_a = exact_det([row[:2] for row in g[:2]])
    det_b = exact_det([row[2:] for row in g[2:]])
    det_c = exact_det([row[2:] for row in g[:2]])
    d = det_a + det_b - 2 * det_c
    disc = d * d / 4 - exact_det(g)
    with localcontext() as ctx:
        ctx.prec = 40
        half_d = Decimal(d.numerator) / Decimal(2 * d.denominator)
        return float(half_d - (Decimal(disc.numerator) / Decimal(disc.denominator)).sqrt())


def test_lambda_near_one_on_a_hot_bath_has_no_cancellation():
    # at beta = 0.05, det B = f^2 is 1.8e5 to 1.6e6 on modes 1-3: d/2 - sqrt(disc)
    # cancels terms of that size and lands about 9e-11 off this oracle
    net = make_spectral_model(SpectralFamily(exponent=1.0, omega_max=2.0,
                                             coupling_norm=0.1, n_env=64))
    gamma0 = product_initial_covariance(make_pure_gaussian(1.0, 0.0), net, 0.05)
    worst = 0.0
    for gamma_t in trajectory(gamma0, net.modes, np.geomspace(1e-4, 1e-1, 10)):
        gamma_t = (gamma_t + gamma_t.T) / 2.0  # the oracle's d and disc assume symmetry
        lam = lambda_of_block(reduce_two_mode(gamma_t, [1, 2, 3]))
        for mode, value in enumerate(lam.tolist(), start=1):
            worst = max(worst, abs(value - exact_lambda(reduce_two_mode(gamma_t, mode))))
    assert worst <= 1e-14


def test_stacked_lambda_raises_on_one_invalid_pair(rng):
    blocks = [random_two_mode_block(rng) for _ in range(5)]
    # A = I, B = -I, C = I / 2 has discriminant -1
    blocks[3] = TwoModeBlock(a=np.eye(2), b=-np.eye(2), c=0.5 * np.eye(2))
    stack = TwoModeBlock(*(np.stack([getattr(blk, f) for blk in blocks]) for f in "abc"))
    with pytest.raises(ValueError, match="negative discriminant -1.000e"):
        lambda_of_block(stack)
    with pytest.raises(ValueError, match="negative discriminant -1.000e"):
        scalar_lambda_of_block(blocks[3])


def test_lambda_entangled_iff_full_pt(rng):
    # two-mode case: lambda < 1 exactly when the PT verdict says entangled
    for r in (0.05, 0.3, 1.2):
        block = two_mode_squeezed(r)
        assert lambda_of_block(block) < 1.0
        assert ppt_verdict(block.assembled).status == ENTANGLED


def test_log_negativity_positive_for_squeezed():
    for r in (0.01, 0.1, 1.0):
        verdict = ppt_verdict(two_mode_squeezed(r).assembled)
        assert verdict.log_negativity > 0.0


# ------------------------------------------------- rank-two PT spectrum kernel


def oracle_system_states(rng, net):
    def squeezed():
        return make_pure_gaussian(rng.uniform(-2.0, 2.0), rng.uniform(0.0, np.pi))

    return {
        "vacuum": np.eye(2),
        "squeezed": squeezed(),
        "mixed": rng.uniform(1.0, 3.0) * squeezed(),
        "certificate": build_certificate(net).gamma0_sys,
    }


def dense_pt_minimum(gamma_sys, net, beta, t):
    """ppt_verdict on S_t Gamma_0 S_t^T, every matrix 2n x 2n."""
    gamma0 = np.zeros((2 * net.n_modes,) * 2)
    gamma0[:2, :2] = gamma_sys
    gamma0[2:, 2:] = bath_gibbs_covariance(net, beta)
    s = propagator(net, t)
    return ppt_verdict(s @ gamma0 @ s.T).min_pt_symplectic


def assert_matches_dense(gamma_sys, net, beta, times, label):
    got = product_state_pt_minima(gamma_sys, net.modes, net.omegas[1:], beta, times)
    assert got.shape == (len(times),)
    for t, value in zip(times, got):
        ref = dense_pt_minimum(gamma_sys, net, beta, t)
        assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), (label, beta, t, value, ref)


def spy_on_count(monkeypatch):
    """Record the probes of every call of the vectorised PT count."""
    probes = []
    count = qbmsim.entanglement._positive_eigenvalues_below

    def recording(lam, *args):
        probes.append((lam.copy(), args))
        return count(lam, *args)

    monkeypatch.setattr(qbmsim.entanglement, "_positive_eigenvalues_below", recording)
    return probes


def oracle_draws(rng):
    """40 explicit networks with a temperature, 7 times and each kind of system state."""
    for _ in range(40):
        net = random_explicit_network(rng, int(rng.integers(1, 13)))
        beta = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
        times = np.concatenate(([0.0, 1e-8], rng.uniform(0.0, 40.0, 5)))
        for name, gamma_sys in oracle_system_states(rng, net).items():
            yield name, gamma_sys, net, beta, times


def test_pt_minima_match_dense_ppt_verdict(rng, monkeypatch):
    probes = spy_on_count(monkeypatch)
    for name, gamma_sys, net, beta, times in oracle_draws(rng):
        probes.clear()
        assert_matches_dense(gamma_sys, net, beta, times, name)
        # the 7 times fit one chunk, and each pass probes all of them in
        # one count: one pass checks the lower end of the bracket, and
        # the 63 value bits of a positive double take at most 63 more
        assert 0 < len(probes) <= 64
        assert all(lam.shape == times.shape for lam, _ in probes)


def record_roots(monkeypatch):
    """Record the inputs, result and count passes of every call of the kernel's search."""
    roots = []
    probes = spy_on_count(monkeypatch)
    search = qbmsim.entanglement._smallest_root

    def recording(*args):
        probes.clear()
        minima = search(*args)
        roots.append((args, minima, len(probes)))
        return minima

    monkeypatch.setattr(qbmsim.entanglement, "_smallest_root", recording)
    return roots


def test_pt_minima_stop_where_the_count_turns(rng, monkeypatch):
    # the count alone moves the bracket, so each minimum counts >= 1 and the
    # double below it counts 0, whichever probes led there
    roots = record_roots(monkeypatch)
    count = qbmsim.entanglement._positive_eigenvalues_below
    for _, gamma_sys, net, beta, times in oracle_draws(rng):
        roots.clear()
        product_state_pt_minima(gamma_sys, net.modes, net.omegas[1:], beta, times)
        ((_, *inputs), minima, _), = roots
        assert count(minima, *inputs)[0].min() >= 1.0
        npt.assert_array_equal(count(np.nextafter(minima, 0.0), *inputs)[0], 0.0)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("workload, max_passes", [("evolve-n8", 24), ("certify-n256", 32)])
def test_pt_minima_take_few_passes_on_the_benchmark_inputs(monkeypatch, workload,
                                                           max_passes, seed):
    # the bisection took 56 passes on every evolve-n8 variant and 57-58 on certify-n256
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    config = parse_config(workloads.make_config(workload, seed))
    roots = record_roots(monkeypatch)
    run_evolve(config) if workload == "evolve-n8" else run_certify(config)
    monkeypatch.undo()
    assert roots
    for (bracket, coef, quad, nu_s, nu), minima, passes in roots:
        assert passes <= max_passes
        npt.assert_allclose(minima, bisect_smallest_root(bracket, coef, quad, nu_s, nu),
                            rtol=1e-13, atol=0.0)


def test_pt_minima_above_two_match_dense(rng):
    # the bits of doubles >= 2 are >= 2^62, so a bisection midpoint taken as
    # (lo + hi) // 2 overflows int64 on such a bracket
    net = random_explicit_network(rng, 6)
    times = np.concatenate(([0.0, 1e-8], rng.uniform(0.0, 40.0, 10)))
    hot = 5.0 * np.eye(2)
    minima = product_state_pt_minima(hot, net.modes, net.omegas[1:], 0.05, times)
    assert minima.min() >= 2.0
    assert_matches_dense(hot, net, 0.05, times, "hot")


def test_pt_minima_drop_converged_times_without_moving_any(monkeypatch):
    # a system hotter than the bath: at t = 0 the minimum is the bath's least
    # nu_j, a pole of F that only bisection finds, so that time runs on alone
    net = make_spectral_model(SpectralFamily(1.0, 2.0, 0.1, 8))
    times = np.linspace(0.0, 200.0, 500)
    args = (3.0 * np.eye(2), net.modes, net.omegas[1:], 1.0, times)
    probes = spy_on_count(monkeypatch)
    minima = product_state_pt_minima(*args)
    sizes = [lam.size for lam, _ in probes]
    assert sizes[0] == times.size and sizes[-1] < times.size // 50 and len(sizes) <= 64
    d = thermal_diagonal(net.omegas[1:], 1.0)
    assert minima[0] == np.min(np.sqrt(d[0::2]) * np.sqrt(d[1::2]))
    # each time's probes are its own, so keeping every time changes no value
    monkeypatch.setattr(qbmsim.entanglement, "_DROP_ELEMENTS", np.inf)
    probes.clear()
    npt.assert_array_equal(product_state_pt_minima(*args), minima)
    assert len(probes) == len(sizes) and all(lam.size == times.size for lam, _ in probes)


def test_pt_count_at_a_time_does_not_depend_on_its_batch(rng, monkeypatch):
    # the search drops converged times and nudges single times on a pole, so
    # the count and the step at a time must not move with the times beside it
    net = random_explicit_network(rng, 40)
    roots = record_roots(monkeypatch)
    product_state_pt_minima(random_pure_system(rng), net.modes, net.omegas[1:], 0.5,
                            rng.uniform(0.0, 40.0, 33))
    ((_, coef, quad, nu_s, nu), minima, _), = roots
    count = qbmsim.entanglement._positive_eigenvalues_below
    for lam in (minima, np.nextafter(minima, 0.0), minima * rng.uniform(0.999, 1.001, 33)):
        whole = count(lam, coef, quad, nu_s, nu)
        for batch in ([i] for i in range(lam.size)), [slice(1, None, 3), slice(0, 7)]:
            for at in batch:
                for got, want in zip(count(lam[at], coef[:, at], quad[:, :, at], nu_s, nu),
                                     whole):
                    npt.assert_array_equal(got, want[at])


def test_pt_count_nudges_only_the_times_on_a_pole(monkeypatch):
    # nu_s equals the nu_j of bath modes 2 and 4 and is the minimum at t = 0:
    # the bisection probes that pole exactly at the two t = 0 times only
    net = OscillatorNetwork(omegas=[2.1, 0.7, 2.1, 1.3, 2.1], kappas=[0.1, 0.2, 0.0, 0.15])
    gamma_sys = np.diag(thermal_diagonal([2.1], 1.0))
    probes = spy_on_count(monkeypatch)
    minima = product_state_pt_minima(gamma_sys, net.modes, net.omegas[1:], 1.0,
                                     [0.0, 0.3, 0.0, 7.0])
    args = probes[0][1]
    nu = args[-1]
    pole = minima[0]
    assert pole in nu
    on_pole = np.array([np.isin(lam, nu) for lam, _ in probes]).any(axis=0)
    npt.assert_array_equal(on_pole, [True, False, True, False])

    # one batch: two probes on the pole, one an ulp below the root at t = 0.3
    # (count 0) and one on the root at t = 7 (count >= 1); only the first two
    # may move up an ulp
    count = qbmsim.entanglement._positive_eigenvalues_below
    up = np.nextafter(pole, np.inf)
    lam = np.array([pole, np.nextafter(minima[1], 0.0), pole, minima[3]])
    counts = count(lam, *args)
    assert counts[0][1] == 0.0 and counts[0][3] >= 1.0
    for got, want in zip(counts, count(np.where(lam == pole, up, lam), *args)):
        npt.assert_array_equal(got, want)
    npt.assert_array_equal(lam, [pole, np.nextafter(minima[1], 0.0), pole, minima[3]])


def test_pt_count_gives_up_after_eight_nudges():
    # poles on eight consecutive doubles: every nudge lands on the next one
    nu = np.array([1.5])
    for _ in range(7):
        nu = np.append(nu, np.nextafter(nu[-1], np.inf))
    count = qbmsim.entanglement._positive_eigenvalues_below
    with pytest.raises(RuntimeError, match="undefined near"):
        count(np.array([1.5, 3.0]), np.zeros((4, 2, 8)), np.ones((4, 4, 2)), 1.0, nu)


@pytest.mark.parametrize("beta", [0.05, 1.0, 20.0])
def test_pt_minima_when_system_and_bath_symplectic_eigenvalues_collide(beta):
    # thermal system at the frequency of bath modes 2 and 4 and the bath's
    # temperature: nu_s equals their nu_j bit for bit and is the smallest
    net = OscillatorNetwork(omegas=[2.1, 0.7, 2.1, 1.3, 2.1], kappas=[0.1, 0.2, 0.0, 0.15])
    d = thermal_diagonal([2.1], beta)
    gamma_sys = np.diag(d)
    times = [0.0, 1e-8, 1e-4, 0.3, 7.0]
    assert_matches_dense(gamma_sys, net, beta, times, "thermal")
    nu_s = np.sqrt(d[0]) * np.sqrt(d[1])
    npt.assert_allclose(product_state_pt_minima(gamma_sys, net.modes, net.omegas[1:],
                                                beta, [0.0]), nu_s, rtol=4e-16)


def test_pt_minima_memory_does_not_grow_with_the_time_grid():
    # the kernel takes the times in chunks of _CHUNK_ELEMENTS / n; one
    # (20 000, 65) double array alone would be 10.4 MB
    net = make_spectral_model(SpectralFamily(1.0, 2.0, 0.1, 64))
    budget = 16 * qbmsim.entanglement._CHUNK_ELEMENTS * 8
    for size in (200, 20_000):
        times = np.linspace(0.0, 100.0, size)
        tracemalloc.start()
        try:
            minima = product_state_pt_minima(np.eye(2), net.modes, net.omegas[1:], 1.0, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert minima.shape == (size,)
        assert peak < budget, (size, peak)


def test_pt_minima_input_errors():
    net = OscillatorNetwork(omegas=[1.0, 1.5, 2.0], kappas=[0.2, 0.1])
    args = (net.modes, net.omegas[1:], 1.0)
    with pytest.raises(ValueError, match="finite"):
        product_state_pt_minima(np.eye(2), *args, [0.0, np.nan])
    with pytest.raises(ValueError, match="2x2"):
        product_state_pt_minima(np.eye(4), *args, [0.0])
    with pytest.raises(ValueError, match="positive definite"):
        product_state_pt_minima(-np.eye(2), *args, [0.0])
    with pytest.raises(ValueError, match="bath modes"):
        product_state_pt_minima(np.eye(2), net.modes, net.omegas[2:], 1.0, [0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the bound goes first: 1e151 overflows the PT count
        for entry in (1e151, 2.0**255):
            with pytest.raises(ValueError, match=r"entries must be below 2\^255"):
                product_state_pt_minima(np.diag([entry, entry]), *args,
                                        np.geomspace(1e-3, 1.0, 4))
    assert product_state_pt_minima(np.eye(2), *args, []).shape == (0,)
