import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbmsim
import qbmsim.entanglement
import qbmsim.symplectic
from qbmsim import (
    INCONCLUSIVE,
    build_certificate,
    build_potential_matrix,
    build_quadratic_form,
    critical_beta,
    make_pure_gaussian,
    make_spectral_model,
    ppt_verdict,
    product_initial_covariance,
    propagator,
    reduce_two_mode,
    symplectic_spectrum,
    thermal_factor,
)
from qbmsim.cli import (
    ConfigError,
    ExperimentConfig,
    ResultTable,
    emit,
    load_config,
    main,
    parse_config,
    run_certify,
    run_evolve,
    run_immediate,
    run_sweep,
)
from qbmsim.entanglement import PPT_TOL
from qbmsim.model import SpectralFamily

from conftest import (
    random_covariance,
    random_explicit_network,
    random_network,
    scalar_lambda_of_block,
)

EXPLICIT = {"omegas": [1.0, 1.5, 2.0], "kappas": [0.2, 0.1]}
FAMILY = {"family": {"p": 1.0, "omega_max": 2.0, "coupling_norm": 0.1, "n_env": 4}}
EPS = np.finfo(float).eps


def minimal(**extra):
    data = {"model": dict(EXPLICIT), "beta": 1.0}
    data.update(extra)
    return data


def read_csv(path):
    """Split an output file into (metadata dict, header, data rows)."""
    meta, data_lines = {}, []
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("# "):
                key, _, val = line[2:].partition(": ")
                meta[key] = val
            else:
                data_lines.append(line)
    reader = csv.reader(data_lines)
    header = next(reader)
    return meta, header, list(reader)


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


# ------------------------------------------------------------------ parsing


def test_parse_minimal_defaults():
    config = parse_config(minimal())
    assert config.version == 1
    assert config.beta == 1.0
    assert config.seed == 0
    assert config.system_state == {"kind": "vacuum"}
    assert config.ppt_tol == 1e-9
    assert config.margin == 1e-6


def test_parse_tolerance_overrides():
    config = parse_config(minimal(tolerances={"ppt": 1e-6, "margin": 1e-4}))
    assert config.ppt_tol == 1e-6
    assert config.margin == 1e-4


@pytest.mark.parametrize("data,fragment", [
    ([1, 2], "top level"),
    ({"model": dict(EXPLICIT), "beta": 1.0, "extra": 1}, "extra"),
    ({"model": dict(EXPLICIT), "beta": 1.0, "version": 2}, "version"),
    ({"beta": 1.0}, "model"),
    ({"model": {}, "beta": 1.0}, "exactly one"),
    ({"model": {"omegas": [1.0], "kappas": [], "family": {}}, "beta": 1.0},
     "exactly one"),
    ({"model": {"omegas": [1.0]}, "beta": 1.0}, "model.kappas"),
    ({"model": {"omegas": [1.0, -2.0], "kappas": [0.1]}, "beta": 1.0},
     r"omegas\[1\]"),
    ({"model": {"omegas": "nope", "kappas": []}, "beta": 1.0},
     "list of numbers"),
    ({"model": {"omegas": [1.0, True], "kappas": [0.1]}, "beta": 1.0},
     "list of numbers"),
    ({"model": {"family": {"p": 1.0, "omega_max": 2.0, "coupling_norm": 0.1}},
      "beta": 1.0}, "n_env"),
    ({"model": {"family": {"p": 1, "omega_max": 0, "coupling_norm": 0.1,
                           "n_env": 4}}, "beta": 1.0}, "omega_max"),
    ({"model": {"family": {"p": 1, "omega_max": 2, "coupling_norm": -0.1,
                           "n_env": 4}}, "beta": 1.0}, "coupling_norm"),
    ({"model": {"family": {"p": 1, "omega_max": 2, "coupling_norm": 0.1,
                           "n_env": 2.5}}, "beta": 1.0}, "n_env"),
    (minimal(beta=0.0), "beta"),
    (minimal(beta=-1.0), "beta"),
    (minimal(beta=True), "beta"),
    (minimal(system_state={}), "system_state"),
    (minimal(system_state={"kind": "coherent"}), "kind"),
    (minimal(system_state={"kind": "squeezed", "r": 1.0}), "theta"),
    (minimal(system_state={"kind": "matrix", "entries": [[1, 0, 0]]}), "2x2"),
    (minimal(system_state={"kind": "matrix",
                           "entries": [[0.5, 0.0], [0.0, 0.5]]}), "not a valid"),
    (minimal(time_grid={"start": 0.0, "points": 5}), "time_grid.stop"),
    (minimal(time_grid={"start": 0.0, "stop": 1.0, "points": 1}), "points"),
    (minimal(time_grid={"start": 0.0, "stop": 1.0, "points": 2.0}), "points"),
    (minimal(time_grid={"start": 0.0, "stop": 1.0, "points": 5,
                        "spacing": "cubic"}), "spacing"),
    (minimal(time_grid={"start": 1.0, "stop": 1.0, "points": 5}), "stop"),
    (minimal(time_grid={"start": 0.0, "stop": 1.0, "points": 5,
                        "spacing": "log"}), "positive"),
    (minimal(time_grid={"start": -1.0, "stop": 1.0, "points": 5}),
     "nonnegative"),
    (minimal(tolerances={"foo": 1e-9}), "unknown tolerance"),
    (minimal(tolerances={"ppt": 0.0}), "positive"),
    (minimal(seed=-1), "seed"),
    (minimal(seed="7"), "seed"),
    (minimal(sweep_ns=[]), "sweep_ns"),
    (minimal(sweep_ns=[4, "8"]), "sweep_ns"),
    (minimal(sweep_ns=8), "sweep_ns"),
    (minimal(time_grid={"start": 0.0, "stop": 1.0, "points": 5,
                        "spacng": "log"}), "time_grid: unknown keys.*spacng"),
    ({"model": {"family": {"p": 1, "omega_max": 2, "coupling_norm": 0.1,
                           "n_env": 4, "omega_sy": 1.0}}, "beta": 1.0},
     "model.family: unknown keys.*omega_sy"),
    ({"model": {"omegas": [1.0, 1.5], "kappas": [0.1], "masses": [1, 1]},
      "beta": 1.0}, "model: unknown keys.*masses"),
    (minimal(system_state={"kind": "vacuum", "r": 1.0}),
     r"system_state: unknown keys \['r'\]"),
    (minimal(system_state={"kind": "squeezed", "r": 1.0, "theta": 0.0,
                           "phi": 0.1}), "system_state: unknown keys.*phi"),
    (minimal(system_state={"kind": "certificate", "margin": 1e-3}),
     "system_state: unknown keys.*margin"),
    *[({"model": {"family": {**FAMILY["family"], "omega_sys": w0}}, "beta": 1.0},
       "model.family.omega_sys: ") for w0 in ("x", True, 0, -1.0)],
    ({"model": {"omegas": [1.0], "kappas": []}, "beta": 1.0}, "model.kappas: "),
])
def test_parse_rejects_and_names_the_field(data, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(data)


def test_load_config_reports_json_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"model": {},\n  "beta": }\n', encoding="utf-8")
    with pytest.raises(ConfigError, match=r"line 2, column 11"):
        load_config(str(path))


def test_bad_explicit_model_is_a_config_error():
    # overcoupled: passes schema checks, fails positive definiteness
    config = parse_config({"model": {"omegas": [1.0, 1.0], "kappas": [1.1]},
                           "beta": 1.0,
                           "time_grid": {"start": 0.0, "stop": 1.0, "points": 3}})
    with pytest.raises(ConfigError, match="model"):
        run_evolve(config)


# ------------------------------------------------------------------- evolve


def test_evolve_echoes_the_time_grid():
    grid = {"start": 0.0, "stop": 2.0, "points": 9}
    table = run_evolve(parse_config(minimal(time_grid=grid)))
    assert table.columns == ["t", "min_pt_symplectic", "log_negativity",
                             "mean_energy", "min_symplectic"]
    npt.assert_array_equal([r[0] for r in table.rows], np.linspace(0.0, 2.0, 9))


def test_evolve_log_spacing():
    grid = {"start": 0.01, "stop": 10.0, "points": 7, "spacing": "log"}
    table = run_evolve(parse_config(minimal(time_grid=grid)))
    npt.assert_array_equal([r[0] for r in table.rows],
                           np.geomspace(0.01, 10.0, 7))


def test_evolve_decoupled_is_never_entangled():
    data = {"model": {"omegas": [1.0, 2.0], "kappas": [0.0]}, "beta": 0.5,
            "time_grid": {"start": 0.0, "stop": 10.0, "points": 40}}
    table = run_evolve(parse_config(data))
    for row in table.rows:
        assert row[2] == 0.0
        assert row[1] >= 1.0 - 1e-9


def test_evolve_requires_grid_and_beta():
    with pytest.raises(ConfigError, match="time_grid"):
        run_evolve(parse_config(minimal()))
    data = {"model": dict(EXPLICIT),
            "time_grid": {"start": 0.0, "stop": 1.0, "points": 3}}
    with pytest.raises(ConfigError, match="beta"):
        run_evolve(parse_config(data))


def test_evolve_from_certificate_state_stays_separable():
    data = {"model": dict(FAMILY),
            "system_state": {"kind": "certificate"},
            "time_grid": {"start": 0.0, "stop": 30.0, "points": 60}}
    table = run_evolve(parse_config(data))
    assert all(row[1] >= 1.0 - 1e-8 for row in table.rows)
    # beta comes from the certificate, half the critical value
    net = make_spectral_model(SpectralFamily(1.0, 2.0, 0.1, 4))
    npt.assert_allclose(float(table.metadata["beta"]),
                        0.5 * critical_beta(net), rtol=1e-12)


def test_evolve_conserved_columns_match_the_per_step_oracle(rng):
    """mean_energy and min_symplectic are constants of motion on every row.

    The oracle evaluates tr(W Gamma_t)/4 and the symplectic spectrum of each
    evolved covariance, step by step.
    """
    grid = {"start": 0.0, "stop": 20.0, "points": 15}
    for _ in range(6):
        net = random_network(rng, int(rng.integers(1, 6)))
        w = build_quadratic_form(build_potential_matrix(net))
        beta = float(rng.uniform(0.2, 3.0))
        r, theta = float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.0, np.pi))
        entries = random_covariance(rng, 1, spread=2.0)
        cert = build_certificate(net)
        cases = [({"kind": "vacuum"}, np.eye(2), beta),
                 ({"kind": "squeezed", "r": r, "theta": theta},
                  make_pure_gaussian(r, theta), beta),
                 ({"kind": "matrix", "entries": entries.tolist()}, entries, beta),
                 ({"kind": "certificate"}, cert.gamma0_sys, cert.beta)]
        for state, gamma_sys, state_beta in cases:
            table = run_evolve(parse_config({
                "model": {"omegas": net.omegas.tolist(), "kappas": net.kappas.tolist()},
                "beta": beta, "system_state": state, "time_grid": grid}))
            energy, min_sympl = table.rows[0][3], table.rows[0][4]
            assert all(row[3] == energy and row[4] == min_sympl for row in table.rows)
            gamma0 = product_initial_covariance(gamma_sys, net, state_beta)
            for t in np.linspace(0.0, 20.0, 15):
                s = propagator(net, t)
                gamma_t = s @ gamma0 @ s.T
                oracle_energy = float(np.trace(w @ gamma_t)) / 4.0
                oracle_sympl = float(symplectic_spectrum(gamma_t).min())
                assert abs(energy - oracle_energy) <= 1e-12 * max(1.0, abs(oracle_energy))
                assert abs(min_sympl - oracle_sympl) <= 1e-12 * max(1.0, abs(oracle_sympl))


def dense_verdicts(gamma_sys, net, beta, times, tol):
    """ppt_verdict on every S_t Gamma_0 S_t^T, each a dense 2n x 2n matrix."""
    gamma0 = product_initial_covariance(gamma_sys, net, beta)
    verdicts = []
    for t in times:
        s = propagator(net, float(t))
        verdicts.append(ppt_verdict(s @ gamma0 @ s.T, tol=tol))
    return verdicts


def assert_rows_match_dense(rows, verdicts, label):
    for row, ref in zip(rows, verdicts, strict=True):
        pt, log_neg = row[1], row[2]
        assert abs(pt - ref.min_pt_symplectic) <= 1e-12 * ref.min_pt_symplectic, (label, row)
        assert abs(log_neg - ref.log_negativity) <= 1e-12 * max(1.0, ref.log_negativity), \
            (label, row, ref)


def test_evolve_matches_the_dense_ppt_oracle(rng):
    grid = {"start": 0.0, "stop": 25.0, "points": 11}
    times = np.linspace(0.0, 25.0, 11)
    for _ in range(6):
        net = random_explicit_network(rng, int(rng.integers(1, 8)))
        beta = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        r, theta = float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.0, np.pi))
        entries = random_covariance(rng, 1, spread=2.0)
        cert = build_certificate(net)
        cases = [({"kind": "vacuum"}, np.eye(2), beta),
                 ({"kind": "squeezed", "r": r, "theta": theta},
                  make_pure_gaussian(r, theta), beta),
                 ({"kind": "matrix", "entries": entries.tolist()}, entries, beta),
                 ({"kind": "certificate"}, cert.gamma0_sys, cert.beta)]
        for state, gamma_sys, state_beta in cases:
            table = run_evolve(parse_config({
                "model": {"omegas": net.omegas.tolist(), "kappas": net.kappas.tolist()},
                "beta": beta, "system_state": state, "time_grid": grid}))
            verdicts = dense_verdicts(gamma_sys, net, state_beta, times, PPT_TOL)
            assert_rows_match_dense(table.rows, verdicts, state["kind"])


def test_evolve_tol_override_matches_the_dense_inconclusive_band(tmp_path, rng):
    net = random_explicit_network(rng, 4)
    data = {"model": {"omegas": net.omegas.tolist(), "kappas": net.kappas.tolist()},
            "beta": 5.0, "time_grid": {"start": 0.0, "stop": 20.0, "points": 9}}
    times = np.linspace(0.0, 20.0, 9)
    # the vacuum entangles with a cold bath; a tolerance of half the deepest
    # dip puts that time mid-band, 1 - 3 tol < min_pt < 1 - tol
    dip = min(row[1] for row in run_evolve(parse_config(data)).rows)
    assert dip < 1.0 - 1e-6
    tol = (1.0 - dip) / 2.0
    config, out = write_config(tmp_path, data), str(tmp_path / "evolve.csv")
    assert main(["evolve", "--config", config, "--out", out, "--tol", repr(tol)]) == 0
    _, header, cells = read_csv(out)
    rows = [tuple(float(c) for c in row) for row in cells]
    verdicts = dense_verdicts(np.eye(2), net, 5.0, times, tol)
    assert INCONCLUSIVE in {v.status for v in verdicts}
    assert_rows_match_dense(rows, verdicts, "tol override")


def test_evolve_builds_no_dense_matrix_per_step(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("evolve ran a dense per-step routine")

    for module, name in ((qbmsim.symplectic, "trajectory"),
                         (qbmsim.symplectic, "propagator"),
                         (qbmsim.symplectic, "_propagator_from_modes"),
                         (qbmsim.entanglement, "ppt_verdict")):
        monkeypatch.setattr(module, name, forbidden)
    # nor a dense Gamma_0, W or PPT test; raising=False also covers a later import into cli
    for name in ("product_initial_covariance", "build_quadratic_form", "ppt_verdict"):
        monkeypatch.setattr(qbmsim.cli, name, forbidden, raising=False)
    spectra = []
    spectrum = qbmsim.symplectic.symplectic_spectrum

    def counting(gamma):
        spectra.append(gamma.shape)
        return spectrum(gamma)

    for module in (qbmsim.symplectic, qbmsim.entanglement, qbmsim.cli):
        monkeypatch.setattr(module, "symplectic_spectrum", counting, raising=False)
    grid = {"start": 0.0, "stop": 10.0, "points": 200}
    table = run_evolve(parse_config(minimal(time_grid=grid)))
    assert len(table.rows) == 200
    # the constant mean_energy and min_symplectic columns are closed forms
    assert spectra == []


# ------------------------------------------------------------------ certify


def test_certify_metadata_roundtrip():
    grid = {"start": 0.0, "stop": 20.0, "points": 50}
    table, cert = run_certify(parse_config({"model": dict(FAMILY),
                                            "time_grid": grid}))
    assert table.metadata["passed"] == "True"
    # 17 significant digits round-trip float64 exactly
    net = make_spectral_model(SpectralFamily(1.0, 2.0, 0.1, 4))
    assert float(table.metadata["beta_star"]) == critical_beta(net)
    assert float(table.metadata["gamma_ref"]) == cert.constants.gamma_ref
    stored = np.asarray(json.loads(table.metadata["gamma0_sys"]))
    npt.assert_array_equal(stored, cert.gamma0_sys)
    assert len(table.rows) == 50
    assert min(r[1] for r in table.rows) == float(table.metadata["min_pt_overall"])


def test_certify_writes_sidecar(tmp_path, capsys):
    grid = {"start": 0.0, "stop": 10.0, "points": 20}
    config = write_config(tmp_path, {"model": dict(FAMILY), "time_grid": grid})
    out = str(tmp_path / "certify.csv")
    assert main(["certify", "--config", config, "--out", out]) == 0
    sidecar = json.loads(Path(out + ".certificate.json").read_text(encoding="utf-8"))
    assert set(sidecar) == {"constants", "beta_star", "beta", "margin", "gamma0_sys"}
    assert sidecar["beta"] == 0.5 * sidecar["beta_star"]
    assert np.asarray(sidecar["gamma0_sys"]).shape == (2, 2)
    captured = capsys.readouterr()
    assert "certificate written" in captured.out
    assert "result: OK" in captured.out


# ---------------------------------------------------------------- immediate


def test_immediate_prepends_separable_origin():
    table, report = run_immediate(parse_config({"model": dict(FAMILY),
                                                "beta": 1.0}))
    assert report.passed
    assert table.columns == ["t", "lambda_mode_1", "lambda_mode_2",
                             "lambda_mode_3", "lambda_mode_4", "lambda_full",
                             "min_pt_symplectic"]
    assert len(table.rows) == 26
    first = table.rows[0]
    assert first[0] == 0.0
    npt.assert_allclose(first[1:], 1.0, atol=1e-12)
    assert table.metadata["passed"] == "True"
    assert float(table.metadata["epsilon_found"]) > 0.0


def test_immediate_origin_row_matches_the_dense_oracle(rng):
    """Row t = 0 against the dense product state's PT spectrum and per-pair lambda."""
    grid = {"start": 1e-3, "stop": 1e-1, "points": 3, "spacing": "log"}
    for _ in range(4):
        net = random_explicit_network(rng, int(rng.integers(1, 8)))
        model = {"omegas": net.omegas.tolist(), "kappas": net.kappas.tolist()}
        r, theta = float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.0, np.pi))
        states = [({"kind": "vacuum"}, np.eye(2)),
                  ({"kind": "squeezed", "r": r, "theta": theta}, make_pure_gaussian(r, theta))]
        # beta = 40 puts every f(beta omega) within 1e-3 of 1, most within rounding
        for beta in (0.05, 1.0, 40.0):
            for state, gamma_sys in states:
                table, report = run_immediate(parse_config({
                    "model": model, "beta": beta, "system_state": state, "time_grid": grid}))
                gamma0 = product_initial_covariance(gamma_sys, net, beta)
                pt0 = ppt_verdict(gamma0).min_pt_symplectic
                lam0 = [scalar_lambda_of_block(reduce_two_mode(gamma0, m))
                        for m in report.probed_modes]
                # the oracle rounds too: det gamma_sys like eps ||gamma_sys||_F^2, and each
                # pair's d/2 - sqrt(disc) cancels terms of size det B_j = f_j^2
                f_sq = [thermal_factor(beta * net.omegas[m]) ** 2 for m in report.probed_modes]
                scales = np.sum(gamma_sys ** 2) + np.array([0.0, *f_sq, 0.0, 0.0])
                refs = [0.0, *lam0, pt0 ** 2, pt0]
                for cell, ref, scale in zip(table.rows[0], refs, scales, strict=True):
                    tol = 1e-14 * max(1.0, abs(ref)) + 8.0 * EPS * scale
                    assert abs(cell - ref) <= tol, (state, beta, cell, ref)


def test_immediate_runs_one_dense_spectrum_per_grid_time(monkeypatch):
    # row 0 is in closed form; only pt_min at t > 0 still takes the dense PPT test
    for name in ("product_initial_covariance", "ppt_verdict"):
        assert not hasattr(qbmsim.cli, name)
    spectra = []
    spectrum = qbmsim.symplectic.symplectic_spectrum

    def counting(gamma):
        spectra.append(gamma.shape)
        return spectrum(gamma)

    for module in (qbmsim.symplectic, qbmsim.entanglement, qbmsim.cli):
        monkeypatch.setattr(module, "symplectic_spectrum", counting, raising=False)
    # the config of the onset-n64 benchmark workload, seed 0
    data = {"model": {"family": dict(FAMILY["family"], n_env=64)}, "beta": 1.0,
            "system_state": {"kind": "squeezed", "r": 1.0, "theta": 0.0},
            "time_grid": {"start": 1e-4, "stop": 1e-1, "points": 30, "spacing": "log"}}
    table, _ = run_immediate(parse_config(data))
    assert len(table.rows) == 31
    assert spectra == [(130, 130)] * 30


def test_immediate_rejects_zero_start():
    data = {"model": dict(FAMILY), "beta": 1.0,
            "time_grid": {"start": 0.0, "stop": 0.1, "points": 5}}
    with pytest.raises(ConfigError, match="positive"):
        run_immediate(parse_config(data))


def test_immediate_mixed_state_is_a_config_error(tmp_path, capsys):
    data = {"model": dict(FAMILY), "beta": 1.0,
            "system_state": {"kind": "matrix",
                             "entries": [[2.0, 0.0], [0.0, 2.0]]}}
    config = write_config(tmp_path, data)
    out = str(tmp_path / "x.csv")
    assert main(["immediate", "--config", config, "--out", out]) == 2
    assert "purity residual" in capsys.readouterr().err


def test_immediate_decoupled_fails_with_exit_one(tmp_path, capsys):
    data = {"model": {"omegas": [1.0, 2.0], "kappas": [0.0]}, "beta": 1.0}
    config = write_config(tmp_path, data)
    out = str(tmp_path / "flat.csv")
    assert main(["immediate", "--config", config, "--out", out]) == 1
    captured = capsys.readouterr()
    assert "result: FAIL" in captured.err
    meta, _, rows = read_csv(out)
    assert meta["passed"] == "False"
    assert meta["epsilon_found"] == "0"


def test_immediate_frozen_bath_writes_nan_derivatives(tmp_path):
    # beta*omega >= 5e4 for every bath mode: det B - 1 underflows, so the
    # derivative at t = 0 is one-sided and neither estimate is defined
    config = write_config(tmp_path, {"model": dict(FAMILY), "beta": 1e5})
    out = str(tmp_path / "cold.csv")
    assert main(["immediate", "--config", config, "--out", out]) == 0
    meta, _, _ = read_csv(out)
    assert meta["lambda_dot0"] == "nan"
    assert meta["lambda_dot0_fd"] == "nan"


# -------------------------------------------------------------------- sweep


def test_sweep_rows_and_error_recovery(tmp_path, capsys):
    data = {"model": dict(FAMILY), "sweep_ns": [0, 4]}
    config = write_config(tmp_path, data)
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep", "--config", config, "--out", out]) == 0
    meta, header, rows = read_csv(out)
    assert header == ["n_env", "delta", "omega_bound", "gamma_ref",
                      "beta_star", "wall_clock_s", "status"]
    assert meta["n_ok"] == "1"
    assert rows[0][0] == "0" and rows[0][6].startswith("error:")
    assert rows[1][0] == "4" and rows[1][6] == "ok"
    assert float(rows[1][4]) > 0.0


def test_sweep_gamma_constant_across_sizes():
    table = run_sweep(parse_config({"model": dict(FAMILY),
                                    "sweep_ns": [2, 4, 8]}))
    gammas = [row[3] for row in table.rows]
    npt.assert_allclose(gammas, gammas[0], atol=1e-12)


def test_sweep_rejects_duplicate_sizes(tmp_path, capsys):
    config = write_config(tmp_path, {"model": dict(FAMILY), "sweep_ns": [4, 4, 2]})
    assert main(["sweep", "--config", config, "--out", str(tmp_path / "s.csv")]) == 2
    err = capsys.readouterr().err
    assert err == "config error: sweep_ns: must be a nonempty list of distinct integers\n"


def test_sweep_requires_family_and_sizes():
    with pytest.raises(ConfigError, match="sweep_ns"):
        run_sweep(parse_config({"model": dict(FAMILY), "beta": 1.0}))
    with pytest.raises(ConfigError, match="family"):
        run_sweep(parse_config(minimal(sweep_ns=[2, 4])))


def test_sweep_all_failed_exits_one(tmp_path, capsys):
    data = {"model": dict(FAMILY), "sweep_ns": [0]}
    config = write_config(tmp_path, data)
    out = str(tmp_path / "none.csv")
    assert main(["sweep", "--config", config, "--out", out]) == 1
    assert "result: FAIL" in capsys.readouterr().err


def test_sweep_bad_omega_sys_is_a_config_error(tmp_path, capsys):
    data = {"model": {"family": {**FAMILY["family"], "omega_sys": "x"}},
            "sweep_ns": [2, 4]}
    config = write_config(tmp_path, data)
    assert main(["sweep", "--config", config, "--out", str(tmp_path / "s.csv")]) == 2
    assert capsys.readouterr().err.startswith("config error: model.family.omega_sys:")


# ----------------------------------------------------------------- emitting


def test_csv_layout_and_quoting(tmp_path):
    table = ResultTable(columns=["t", "status"],
                        rows=[(1.0, "ok"), (0.1, "error: a, b"), (2, "ok")])
    path = tmp_path / "bare.csv"
    emit(table, "csv", str(path))
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n") and "\r" not in text
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0] == "t,status"
    assert lines[1] == "1,ok"
    assert lines[2] == '0.10000000000000001,"error: a, b"'
    assert lines[3] == "2,ok"
    with open(path, encoding="utf-8") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[2] == ["0.10000000000000001", "error: a, b"]
    assert float(parsed[2][0]) == 0.1


def test_csv_floats_roundtrip(tmp_path):
    values = [1.0 / 3.0, 1e-300, 0.27263536420547385, 6.02e23]
    table = ResultTable(columns=["i", "v"],
                        rows=[(i, v) for i, v in enumerate(values)])
    path = tmp_path / "vals.csv"
    emit(table, "csv", str(path))
    _, _, rows = read_csv(str(path))
    assert [float(r[1]) for r in rows] == values


def test_emit_rejects_empty_and_unknown_format(tmp_path):
    table = ResultTable(columns=["t", "v"], rows=[(0.0, 1.0)])
    with pytest.raises(ValueError, match="empty"):
        emit(ResultTable(columns=["t"], rows=[]), "csv", str(tmp_path / "e.csv"))
    with pytest.raises(ValueError, match="format"):
        emit(table, "json", str(tmp_path / "e.json"))


def test_result_table_validates_rows():
    with pytest.raises(ValueError, match="cells"):
        ResultTable(columns=["a", "b"], rows=[(1.0,)])
    with pytest.raises(ValueError, match="finite"):
        ResultTable(columns=["a"], rows=[(float("nan"),)])


def test_svg_output_is_wellformed(tmp_path):
    xs = np.linspace(0.0, 5.0, 30)
    table = ResultTable(columns=["t", "y"],
                        rows=[(float(x), float(np.cos(x))) for x in xs])
    path = tmp_path / "chart.svg"
    emit(table, "svg", str(path), y_column="y")
    root = ET.fromstring(path.read_text(encoding="utf-8"))
    assert root.tag.endswith("svg")
    tags = [el.tag.split("}")[-1] for el in root.iter()]
    assert "polyline" in tags
    assert tags.count("text") >= 11  # title plus two tick labels per gridline


def test_svg_rejects_unknown_column(tmp_path):
    table = ResultTable(columns=["t", "y"], rows=[(0.0, 1.0), (1.0, 2.0)])
    with pytest.raises(ValueError, match="unknown column"):
        emit(table, "svg", str(tmp_path / "x.svg"), y_column="z")


def test_svg_via_main(tmp_path):
    grid = {"start": 0.0, "stop": 5.0, "points": 20}
    config = write_config(tmp_path, minimal(time_grid=grid))
    out = str(tmp_path / "evolve.svg")
    code = main(["evolve", "--config", config, "--out", out, "--format", "svg"])
    assert code == 0
    ET.fromstring(Path(out).read_text(encoding="utf-8"))


# ----------------------------------------------------- reproducible artifacts


def strip_wall_clock(path):
    with open(path, encoding="utf-8") as fh:
        return [l for l in fh if not l.startswith("# wall_clock_s:")]


def test_evolve_output_is_deterministic(tmp_path):
    grid = {"start": 0.0, "stop": 8.0, "points": 30}
    config = write_config(tmp_path, minimal(time_grid=grid, seed=7))
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["evolve", "--config", config, "--out", out1]) == 0
    assert main(["evolve", "--config", config, "--out", out2]) == 0
    assert strip_wall_clock(out1) == strip_wall_clock(out2)


def test_config_echo_roundtrips(tmp_path):
    grid = {"start": 0.0, "stop": 1.0, "points": 4}
    raw = minimal(time_grid=grid, seed=3)
    config = write_config(tmp_path, raw)
    out = str(tmp_path / "echo.csv")
    assert main(["evolve", "--config", config, "--out", out]) == 0
    meta, _, _ = read_csv(out)
    assert json.loads(meta["config"]) == raw
    assert meta["seed"] == "3"
    assert meta["command"] == "evolve"
    assert "artifact_version" in meta


def test_seed_override_is_echoed(tmp_path):
    grid = {"start": 0.0, "stop": 1.0, "points": 4}
    config = write_config(tmp_path, minimal(time_grid=grid))
    out = str(tmp_path / "seeded.csv")
    assert main(["evolve", "--config", config, "--out", out, "--seed", "11"]) == 0
    meta, _, _ = read_csv(out)
    assert meta["seed"] == "11"


# --------------------------------------------------------------- exit codes


def test_main_missing_config_file(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    code = main(["evolve", "--config", str(tmp_path / "absent.json"),
                 "--out", out])
    assert code == 2
    assert "config error:" in capsys.readouterr().err


def test_main_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code = main(["evolve", "--config", str(path), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "JSON syntax error" in capsys.readouterr().err


#: an integer literal that json keeps exact and float() cannot convert
HUGE_INT = "1" + "0" * 400


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400",
                                     pytest.param(HUGE_INT, id="int400")])
@pytest.mark.parametrize("field", ["beta", "stop", "omega_max"])
def test_main_rejects_non_finite_numbers(tmp_path, capsys, field, literal):
    values = {"beta": "1.0", "stop": "1.0", "omega_max": "2.0"}
    values[field] = literal
    path = tmp_path / "config.json"
    path.write_text(
        '{"model": {"family": {"p": 1.0, "omega_max": ' + values["omega_max"]
        + ', "coupling_norm": 0.1, "n_env": 4}}, '
        f'"beta": {values["beta"]}, '
        f'"time_grid": {{"start": 0.0, "stop": {values["stop"]}, "points": 4}}}}',
        encoding="utf-8")
    code = main(["evolve", "--config", str(path), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    if literal == HUGE_INT:
        assert err.startswith("config error:")
        assert "integer 100000000000... (401 digits) is too large for a double" in err
    else:
        assert err.startswith("config error:") and f"non-finite number {literal}" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("field, value, message", [
    ("beta", 1e-320, "beta: 1e-320 is too small"),
    ("beta", 5e-324, "beta: 5e-324 is too small"),
    ("omega_max", 1e-300, "model: sum of omega_j^(2p) over the bath is 0"),
    ("omega_max", 1e300, "model: sum of omega_j^(2p) over the bath is inf"),
    ("p", 600.0, "model: sum of omega_j^(2p) over the bath is inf"),
])
@pytest.mark.parametrize("command", ["evolve", "immediate"])
def test_main_rejects_underflowing_temperatures_and_frequencies(
        tmp_path, capsys, command, field, value, message):
    family = {"p": 1.0, "omega_max": 2.0, "coupling_norm": 0.1, "n_env": 4}
    data = {"model": {"family": family}, "beta": 1.0,
            "system_state": {"kind": "squeezed", "r": 0.5, "theta": 0.0},
            "time_grid": {"start": 1e-3, "stop": 1.0, "points": 4}}
    if field == "beta":
        data["beta"] = value
    else:
        family[field] = value
    config = write_config(tmp_path, data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--config", config, "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}"), err
    assert len(err.splitlines()) == 1


def test_main_bad_flag_values(tmp_path, capsys):
    grid = {"start": 0.0, "stop": 1.0, "points": 4}
    config = write_config(tmp_path, minimal(time_grid=grid))
    out = str(tmp_path / "x.csv")
    # 1e400 parses as inf; nan would make every verdict inconclusive, inf every one separable
    for tol in ("-1", "0", "nan", "inf", "1e400"):
        assert main(["evolve", "--config", config, "--out", out, "--tol", tol]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --tol: must be positive and finite"), tol
        assert len(err.splitlines()) == 1
    assert main(["evolve", "--config", config, "--out", out, "--seed", "-4"]) == 2


def test_main_success_message(tmp_path, capsys):
    grid = {"start": 0.0, "stop": 1.0, "points": 4}
    config = write_config(tmp_path, minimal(time_grid=grid))
    out = str(tmp_path / "ok.csv")
    assert main(["evolve", "--config", config, "--out", out]) == 0
    captured = capsys.readouterr()
    assert f"wrote {out}" in captured.out
    assert "result: OK" in captured.out


def test_main_unwritable_output_path(tmp_path, capsys):
    grid = {"start": 0.0, "stop": 1.0, "points": 4}
    config = write_config(tmp_path, minimal(time_grid=grid))
    out = str(tmp_path / "no" / "such" / "dir" / "x.csv")
    assert main(["evolve", "--config", config, "--out", out]) == 2
    assert "config error:" in capsys.readouterr().err


def test_main_numerics_error_is_a_one_line_failure(tmp_path, capsys):
    # the margin passes the schema but no bath temperature can honour it
    data = minimal(tolerances={"margin": 1e7},
                   time_grid={"start": 0.0, "stop": 1.0, "points": 4})
    config = write_config(tmp_path, data)
    assert main(["certify", "--config", config, "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("failure: bath condition infeasible")
    assert len(err.splitlines()) == 1


def test_main_out_of_memory_is_a_one_line_failure(tmp_path, capsys, monkeypatch):
    # a bath too large for memory; raised by a stand-in, nothing is allocated
    def exhausted(config):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(qbmsim.cli, "run_evolve", exhausted)
    config = write_config(tmp_path, {"model": dict(FAMILY), "beta": 1.0,
                                     "time_grid": {"start": 0.0, "stop": 1.0, "points": 4}})
    assert main(["evolve", "--config", config, "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err == "failure: Unable to allocate 7.28 TiB for an array\n"


@pytest.mark.parametrize("state, field", [
    # e^{4|r|} beyond 2^52, i.e. |r| > 9.0109: the evolved covariance would
    # lose positive definiteness
    ({"kind": "squeezed", "r": 30, "theta": 0}, "r"),
    ({"kind": "squeezed", "r": 9.011, "theta": 0}, "r"),
    ({"kind": "squeezed", "r": -400, "theta": 0.3}, "r"),
    ({"kind": "matrix", "entries": [[1e10, 0], [0, 1e-10]]}, "entries"),
])
def test_main_rejects_states_double_precision_cannot_evolve(tmp_path, capsys, state, field):
    data = minimal(system_state=state, time_grid={"start": 0.0, "stop": 1.0, "points": 4})
    config = write_config(tmp_path, data)
    assert main(["evolve", "--config", config, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: system_state.{field}: ")
    assert len(err.splitlines()) == 1


@st.composite
def small_configs(draw):
    """A subcommand and a config of at most 4 modes and 6 grid points."""
    n_env = draw(st.integers(0, 3))
    if draw(st.booleans()):
        model = {"omegas": draw(st.lists(st.floats(0.1, 4.0), min_size=n_env + 1,
                                         max_size=n_env + 1)),
                 "kappas": draw(st.lists(st.floats(0.0, 1.5), min_size=n_env,
                                         max_size=n_env))}
    else:
        model = {"family": {"p": draw(st.floats(0.0, 2.0)),
                            "omega_max": draw(st.floats(0.1, 4.0)),
                            "coupling_norm": draw(st.floats(0.0, 1.0)),
                            "n_env": max(n_env, 1)}}
    kind = draw(st.sampled_from(["vacuum", "squeezed", "matrix", "certificate"]))
    state = {"kind": kind}
    if kind == "squeezed":
        # across the bound ln(2^52)/4 = 9.011
        state.update(r=draw(st.floats(-12.0, 12.0)), theta=draw(st.floats(0.0, 6.3)))
    elif kind == "matrix":
        a, b = draw(st.floats(1e-3, 1e3)), draw(st.floats(1e-3, 1e3))
        c = draw(st.floats(-1e3, 1e3))
        state["entries"] = [[a, c], [c, b]]
    start = draw(st.floats(0.0, 5.0))
    data = {"model": model, "beta": draw(st.floats(1e-3, 50.0)), "system_state": state,
            "time_grid": {"start": start, "stop": start + draw(st.floats(1e-3, 50.0)),
                          "points": draw(st.integers(2, 6)),
                          "spacing": draw(st.sampled_from(["linear", "log"]))},
            "tolerances": {"margin": draw(st.sampled_from([1e-6, 1e-2, 1e7]))},
            "sweep_ns": draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))}
    return draw(st.sampled_from(["evolve", "certify", "immediate", "sweep"])), data


@given(small_configs())
@settings(max_examples=60, deadline=None)
def test_main_exit_code_is_0_1_or_2_for_any_small_config(case):
    command, data = case
    with tempfile.TemporaryDirectory() as tmp:
        config = write_config(Path(tmp), data)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([command, "--config", config, "--out", str(Path(tmp) / "x.csv")])
    assert code in (0, 1, 2)
    assert len(err.getvalue().splitlines()) <= 1


def test_runtime_imports_no_scipy():
    # scipy is a test-only dependency: the library and the CLI need numpy alone
    src = str(Path(qbmsim.__file__).resolve().parents[1])
    code = ("import sys, qbmsim, qbmsim.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"



def test_every_subcommand_runs_with_scipy_unimportable(tmp_path):
    # importing qbmsim.cli is not enough: a lazy import inside a workflow
    # shows only when that workflow runs
    grid = {"start": 0.0, "stop": 1.0, "points": 4}
    configs = {
        "evolve": minimal(time_grid=grid),
        "certify": {"model": FAMILY, "time_grid": grid},
        "immediate": minimal(system_state={"kind": "squeezed", "r": 0.5, "theta": 0.0},
                             time_grid=dict(grid, start=1e-3, spacing="log")),
        "sweep": {"model": FAMILY, "sweep_ns": [2, 8]},
    }
    argvs = [[command, "--config", write_config(tmp_path, data, f"{command}.json"),
              "--out", str(tmp_path / f"{command}.csv")]
             for command, data in configs.items()]
    code = ("import sys; sys.modules['scipy'] = None; from qbmsim.cli import main; "
            f"sys.exit(max(main(argv) for argv in {argvs!r}))")
    src = str(Path(qbmsim.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("result: OK") == 4


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_shipped_config_runs(tmp_path, capsys, name):
    # each shipped config is named after its subcommand: certify_ohmic8.json -> certify
    command = name.split("_")[0]
    out = str(tmp_path / f"{name}.csv")
    assert main([command, "--config", str(CONFIGS / name), "--out", out]) == 0
    assert "result: OK" in capsys.readouterr().out
    assert Path(out).stat().st_size > 0


def test_every_subcommand_has_a_shipped_config():
    # certify ships two sizes; every config names a subcommand
    assert {p.name.split("_")[0] for p in CONFIGS.glob("*.json")} == {
        "certify", "evolve", "immediate", "sweep"}


@pytest.mark.parametrize("command, name", [("certify", "certify_ohmic8.json"),
                                           ("immediate", "immediate_squeezed.json"),
                                           ("evolve", None)])
def test_workflow_diagonalises_the_network_once(tmp_path, monkeypatch, command, name):
    if name is None:
        config = write_config(tmp_path, {
            "model": {"family": FAMILY["family"] | {"n_env": 8}},
            "system_state": {"kind": "certificate"},
            "time_grid": {"start": 0.0, "stop": 1.0, "points": 4}})
    else:
        config = str(CONFIGS / name)
    calls = []
    original = qbmsim.model.normal_modes

    def counting(v):
        calls.append(v.shape)
        return original(v)

    monkeypatch.setattr(qbmsim.model, "normal_modes", counting)
    out = str(tmp_path / "out.csv")
    assert main([command, "--config", config, "--out", out]) == 0
    assert calls == [(9, 9)]
