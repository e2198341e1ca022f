"""Command-line front end: evolve, certify, immediate, sweep.

Configs are JSON with a versioned schema; results are written as CSV (RFC
4180 quoting, LF endings, 17 significant digits) or as a static SVG line
chart.  The config file is a run's only input; the flags name the files and the
output format.  Exit codes: 0 success, 1 scientific or numerical failure, 2
config, command-line or I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from collections.abc import Collection
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .certify import (
    DEFAULT_MARGIN,
    FeasibilityError,
    ImpureStateError,
    SeparabilityCertificate,
    build_certificate,
    immediate_entanglement_check,
    n_scaling_study,
    verify_all_times_separable,
)
from .entanglement import PPT_TOL, product_state_pt_minima, verdict_from_pt_minimum
from .model import OscillatorNetwork, SpectralFamily, make_spectral_model
from .symplectic import (
    _MAX_STATE_ENTRY,
    is_valid_covariance,
    make_pure_gaussian,
    thermal_diagonal,
    thermal_factor,
)


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


_TOP_KEYS = {"version", "model", "beta", "system_state", "time_grid",
             "tolerances", "seed", "sweep_ns"}
#: system_state kind -> the keys that kind requires, and the only ones it allows
_STATE_KEYS = {"vacuum": ("kind",), "squeezed": ("kind", "r", "theta"),
               "matrix": ("kind", "entries"), "certificate": ("kind",)}
#: largest eigenvalue ratio of a system state that double precision can evolve;
#: beyond it the evolved covariance loses positive definiteness in rounding
_MAX_STATE_CONDITION = 2.0**52
#: squeezing with e^{4|r|} = _MAX_STATE_CONDITION, about 9.011
_MAX_SQUEEZING = math.log(_MAX_STATE_CONDITION) / 4.0


@dataclass(frozen=True)
class ExperimentConfig:
    model: dict
    version: int = 1
    beta: float | None = None
    system_state: dict = field(default_factory=lambda: {"kind": "vacuum"})
    time_grid: dict | None = None
    tolerances: dict = field(default_factory=dict)
    seed: int = 0
    sweep_ns: list[int] | None = None
    raw: dict = field(default_factory=dict)

    @property
    def ppt_tol(self) -> float:
        return float(self.tolerances.get("ppt", PPT_TOL))

    @property
    def margin(self) -> float:
        return float(self.tolerances.get("margin", DEFAULT_MARGIN))


def parse_config(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("top level: expected a JSON object")
    _check_keys(data, "top level", optional=_TOP_KEYS)
    version = data.get("version", 1)
    if version != 1:
        raise ConfigError(f"version: unsupported schema version {version!r}")
    model = data.get("model")
    if not isinstance(model, dict):
        raise ConfigError("model: required and must be an object")
    has_explicit = "omegas" in model or "kappas" in model
    has_family = "family" in model
    if has_explicit == has_family:
        raise ConfigError(
            "model: exactly one of {omegas, kappas} or {family} must be given"
        )
    if has_explicit:
        _check_keys(model, "model", required=("omegas", "kappas"))
        for key in ("omegas", "kappas"):
            _require_number_list(model[key], f"model.{key}")
        for i, w in enumerate(model["omegas"]):
            if w <= 0.0:
                raise ConfigError(f"model.omegas[{i}]: must be positive, got {w!r}")
        if not model["kappas"]:
            raise ConfigError("model.kappas: the bath needs at least one mode")
    else:
        _check_keys(model, "model", required=("family",))
        fam = model["family"]
        if not isinstance(fam, dict):
            raise ConfigError("model.family: must be an object")
        required = ("p", "omega_max", "coupling_norm", "n_env")
        _check_keys(fam, "model.family", required, optional=("omega_sys",))
        for key in required:
            if not _is_number(fam[key]):
                raise ConfigError(f"model.family.{key}: must be a finite number")
        omega_sys = fam.get("omega_sys", 1.0)
        if not _is_number(omega_sys) or omega_sys <= 0:
            raise ConfigError("model.family.omega_sys: must be a positive finite number, "
                              f"got {omega_sys!r}")
        if fam["omega_max"] <= 0:
            raise ConfigError("model.family.omega_max: must be positive")
        if fam["coupling_norm"] < 0:
            raise ConfigError("model.family.coupling_norm: must be nonnegative")
        if int(fam["n_env"]) != fam["n_env"] or fam["n_env"] < 1:
            raise ConfigError("model.family.n_env: must be a positive integer")
    beta = data.get("beta")
    if beta is not None:
        if not _is_number(beta) or beta <= 0:
            raise ConfigError(f"beta: must be a positive finite number, got {beta!r}")
        beta = float(beta)
    state = data.get("system_state", {"kind": "vacuum"})
    _validate_state(state)
    grid = data.get("time_grid")
    if grid is not None:
        _validate_grid(grid)
    tol = data.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ConfigError("tolerances: must be an object")
    for key, val in tol.items():
        if key not in ("ppt", "margin"):
            raise ConfigError(f"tolerances.{key}: unknown tolerance")
        if not _is_number(val) or val <= 0:
            raise ConfigError(f"tolerances.{key}: must be positive and finite, got {val!r}")
    seed = data.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        raise ConfigError(f"seed: must be a nonnegative integer, got {seed!r}")
    sweep_ns = data.get("sweep_ns")
    if sweep_ns is not None:
        if (not isinstance(sweep_ns, list) or not sweep_ns
                or not all(_is_int(n) for n in sweep_ns)
                or len(set(sweep_ns)) != len(sweep_ns)):
            raise ConfigError("sweep_ns: must be a nonempty list of distinct integers")
    return ExperimentConfig(model=model, version=version, beta=beta,
                            system_state=state, time_grid=grid, tolerances=tol,
                            seed=seed, sweep_ns=sweep_ns, raw=data)


def _is_number(value) -> bool:
    """A JSON number that is finite as a double: int or float, but not bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the range of a double
        return False


def _is_int(value) -> bool:
    return isinstance(value, int) and _is_number(value)


def _check_keys(obj: dict, where: str, required: Collection[str] = (),
                optional: Collection[str] = ()) -> None:
    """Reject a config object that lacks a required key or has any other key."""
    for key in required:
        if key not in obj:
            raise ConfigError(f"{where}.{key}: missing")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _require_number_list(value, name: str) -> None:
    if not isinstance(value, list) or not all(_is_number(x) for x in value):
        raise ConfigError(f"{name}: must be a list of numbers")


def _validate_state(state) -> None:
    if not isinstance(state, dict) or "kind" not in state:
        raise ConfigError("system_state: must be an object with a 'kind' key")
    kind = state["kind"]
    if kind not in _STATE_KEYS:
        raise ConfigError(f"system_state.kind: must be one of {tuple(_STATE_KEYS)}")
    _check_keys(state, "system_state", required=_STATE_KEYS[kind])
    if kind == "squeezed":
        for key in ("r", "theta"):
            if not _is_number(state.get(key)):
                raise ConfigError(f"system_state.{key}: must be a finite number")
        if abs(state["r"]) > _MAX_SQUEEZING:
            raise ConfigError(
                f"system_state.r: |r| must be at most {_MAX_SQUEEZING:.4f} = ln(2^52)/4, "
                f"beyond which double precision cannot evolve the state; got {state['r']!r}")
    if kind == "matrix":
        entries = state.get("entries")
        if (not isinstance(entries, list) or len(entries) != 2
                or any(not isinstance(row, list) or len(row) != 2
                       or not all(map(_is_number, row)) for row in entries)):
            raise ConfigError("system_state.entries: must be a 2x2 array of finite numbers")
        m = np.asarray(entries, dtype=float)
        if np.abs(m).max() >= _MAX_STATE_ENTRY:
            raise ConfigError("system_state.entries: every entry must be below 2^255 "
                              "in magnitude, beyond which products of entries overflow "
                              "double precision")
        # before is_valid_covariance, whose spectrum routine forms the eigenvalue ratio;
        # compared as evals[1] / 2^52 here, since the ratio itself may overflow
        lo, hi = np.linalg.eigvalsh(m).tolist()
        if lo > 0.0 and hi / _MAX_STATE_CONDITION > lo:
            raise ConfigError(
                f"system_state.entries: eigenvalue ratio {hi / lo:.3e} "
                "exceeds 2^52, beyond which double precision cannot evolve the state")
        if not is_valid_covariance(m):
            raise ConfigError(
                "system_state.entries: not a valid single-mode covariance matrix"
            )


def _validate_grid(grid) -> None:
    if not isinstance(grid, dict):
        raise ConfigError("time_grid: must be an object")
    _check_keys(grid, "time_grid", required=("start", "stop", "points"),
                optional=("spacing",))
    start, stop, points = grid["start"], grid["stop"], grid["points"]
    spacing = grid.get("spacing", "linear")
    if spacing not in ("linear", "log"):
        raise ConfigError(f"time_grid.spacing: must be 'linear' or 'log', got {spacing!r}")
    if not _is_int(points) or points < 2:
        raise ConfigError("time_grid.points: must be an integer >= 2")
    for key in ("start", "stop"):
        if not _is_number(grid[key]):
            raise ConfigError(f"time_grid.{key}: must be a finite number")
    if stop <= start:
        raise ConfigError("time_grid.stop: must exceed time_grid.start")
    if spacing == "log" and start <= 0:
        raise ConfigError("time_grid.start: must be positive for log spacing")
    if start < 0:
        raise ConfigError("time_grid.start: must be nonnegative")


def load_config(path: str) -> ExperimentConfig:
    def finite(text: str) -> float:
        # also receives NaN, Infinity and -Infinity, which json accepts
        value = float(text)
        if not math.isfinite(value):
            raise ConfigError(f"{path}: non-finite number {text} is not allowed")
        return value

    def integer(text: str) -> int:
        # the config's numbers are used as doubles; past 4300 digits int() refuses too
        try:
            value = int(text)
            float(value)
        except (OverflowError, ValueError):
            raise ConfigError(f"{path}: integer {text[:12]}... ({len(text.lstrip('-'))} "
                              "digits) is too large for a double") from None
        return value

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_float=finite, parse_int=integer,
                             parse_constant=finite)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: JSON syntax error at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from exc
    return parse_config(data)


def _grid_times(grid: dict) -> np.ndarray:
    spacing = grid.get("spacing", "linear")
    if spacing == "log":
        return np.geomspace(grid["start"], grid["stop"], grid["points"])
    return np.linspace(grid["start"], grid["stop"], grid["points"])


def _spectral_family(config: ExperimentConfig) -> tuple[SpectralFamily, float]:
    """The config's coupling family and system frequency omega_sys."""
    fam = config.model["family"]
    family = SpectralFamily(exponent=float(fam["p"]),
                            omega_max=float(fam["omega_max"]),
                            coupling_norm=float(fam["coupling_norm"]),
                            n_env=int(fam["n_env"]))
    return family, float(fam.get("omega_sys", 1.0))


def _materialize_network(config: ExperimentConfig) -> OscillatorNetwork:
    try:
        if "family" in config.model:
            family, omega_sys = _spectral_family(config)
            return make_spectral_model(family, omega_sys=omega_sys)
        return OscillatorNetwork(omegas=np.asarray(config.model["omegas"], float),
                                 kappas=np.asarray(config.model["kappas"], float))
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc


def _system_covariance(config: ExperimentConfig, net: OscillatorNetwork, power: int):
    """Return (gamma_sys, beta), building a certificate when requested.

    A config beta must keep f(beta w)^power finite for every bath mode, f the
    thermal factor: evolve's rank-two kernel forms f^2 = (f/w)(f w), and
    immediate's pair discriminant squares det B = f^2.
    """
    kind = config.system_state["kind"]
    if kind == "certificate":
        cert = build_certificate(net, margin=config.margin)
        return cert.gamma0_sys, cert.beta
    if kind == "vacuum":
        gamma_sys = np.eye(2)
    elif kind == "squeezed":
        gamma_sys = make_pure_gaussian(float(config.system_state["r"]),
                                       float(config.system_state["theta"]))
    else:
        gamma_sys = np.asarray(config.system_state["entries"], dtype=float)
    if config.beta is None:
        raise ConfigError("beta: required unless system_state.kind is 'certificate'")
    with np.errstate(over="ignore"):
        try:
            diag = thermal_diagonal(net.omegas[1:], config.beta)
        except ValueError:  # beta * omega underflows to zero
            diag = np.full(2, math.inf)
        f_power = np.max(diag[0::2] * diag[1::2]) ** (power // 2)
    if not np.isfinite(diag).all():
        raise ConfigError(f"beta: {config.beta!r} is too small; the bath's thermal "
                          "covariance f(beta w)/w is not finite in double precision")
    if not math.isfinite(f_power):
        raise ConfigError(f"beta: {config.beta!r} is too small; the bath's thermal factor "
                          f"f(beta w)^{power} overflows double precision")
    return gamma_sys, config.beta


@dataclass
class ResultTable:
    columns: list[str]
    rows: list[tuple]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for i, row in enumerate(self.rows):
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row {i} has {len(row)} cells, expected {len(self.columns)}"
                )
            if any(isinstance(cell, float) and not math.isfinite(cell) for cell in row):
                raise ValueError(f"row {i} contains a non-finite value")


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def emit(table: ResultTable, fmt: str, path: str, y_column: str | None = None) -> None:
    """Write a result table as 'csv' or 'svg' (single static line chart)."""
    if not table.rows:
        raise ValueError("refusing to write an empty table")
    if fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            for key in sorted(table.metadata):
                fh.write(f"# {key}: {table.metadata[key]}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(table.columns)
            # a Python float, the common cell, skips _format_cell's type dispatch
            writer.writerows([f"{c:.17g}" if type(c) is float else _format_cell(c) for c in row]
                             for row in table.rows)
    elif fmt == "svg":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_svg_line_chart(table, y_column))
    else:
        raise ValueError(f"unknown output format {fmt!r}")


def escape(text: str) -> str:
    """Escape &, < and > in SVG text content, as xml.sax.saxutils.escape does."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _svg_line_chart(table: ResultTable, y_column: str | None) -> str:
    if y_column is None:
        if len(table.columns) < 2:
            raise ValueError("table needs at least two columns for a chart")
        y_column = table.columns[1]
    if y_column not in table.columns:
        raise ValueError(f"unknown column {y_column!r} for SVG output")
    xi, yi = 0, table.columns.index(y_column)
    pts = [(float(r[xi]), float(r[yi])) for r in table.rows
           if isinstance(r[xi], (int, float, np.integer, np.floating))
           and isinstance(r[yi], (int, float, np.integer, np.floating))]
    if not pts:
        raise ValueError("no numeric rows to plot")
    width, height = 720, 480
    left, right, top, bottom = 80, 20, 30, 50
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    if xmax == xmin:
        xmax = xmin + 1.0
    if ymax == ymin:
        ymax = ymin + 1.0

    def sx(x):
        return left + (x - xmin) / (xmax - xmin) * (width - left - right)

    def sy(y):
        return height - bottom - (y - ymin) / (ymax - ymin) * (height - top - bottom)

    points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">'
        f'{escape(y_column)} vs {escape(table.columns[xi])}</text>',
    ]
    for i in range(5):
        frac = i / 4.0
        xv = xmin + frac * (xmax - xmin)
        yv = ymin + frac * (ymax - ymin)
        gx, gy = sx(xv), sy(yv)
        parts.append(f'<line x1="{gx:.2f}" y1="{height - bottom}" x2="{gx:.2f}" '
                     f'y2="{height - bottom + 5}" stroke="black"/>')
        parts.append(f'<text x="{gx:.2f}" y="{height - bottom + 18}" '
                     f'text-anchor="middle" font-family="sans-serif" font-size="11">'
                     f'{escape(f"{xv:.4g}")}</text>')
        parts.append(f'<line x1="{left - 5}" y1="{gy:.2f}" x2="{left}" '
                     f'y2="{gy:.2f}" stroke="black"/>')
        parts.append(f'<text x="{left - 8}" y="{gy + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">'
                     f'{escape(f"{yv:.4g}")}</text>')
    parts.append(f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" '
                 f'stroke="black"/>')
    parts.append(f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" '
                 f'y2="{height - bottom}" stroke="black"/>')
    parts.append(f'<polyline points="{points}" fill="none" stroke="#1f6feb" '
                 f'stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _base_metadata(config: ExperimentConfig, command: str) -> dict:
    return {
        "artifact_version": __version__,
        "command": command,
        "config": json.dumps(config.raw, sort_keys=True, separators=(",", ":")),
        "seed": str(config.seed),
    }


def _product_state_spectrum(gamma_sys: np.ndarray, net: OscillatorNetwork, beta: float):
    """det gamma_sys, f(beta omega_j) and the product state's least symplectic eigenvalue."""
    det_sys, f = float(np.linalg.det(gamma_sys)), thermal_factor(beta * net.omegas[1:])
    return det_sys, f, min(math.sqrt(det_sys), float(f.min()))


def run_evolve(config: ExperimentConfig) -> ResultTable:
    t0 = time.perf_counter()
    net = _materialize_network(config)
    if config.time_grid is None:
        raise ConfigError("time_grid: required for evolve")
    times = _grid_times(config.time_grid)
    gamma_sys, beta = _system_covariance(config, net, power=2)
    # the conserved energy and symplectic spectrum {sqrt(det gamma_sys), f_j}, in closed form
    _, f, min_symplectic = _product_state_spectrum(gamma_sys, net, beta)
    energy = float((net.omegas[0] ** 2 * gamma_sys[0, 0] + gamma_sys[1, 1]) / 4.0
                   + np.sum(net.omegas[1:] * f) / 2.0)
    minima = product_state_pt_minima(gamma_sys, net.modes, net.omegas[1:], beta, times)
    verdicts = (verdict_from_pt_minimum(m, config.ppt_tol) for m in minima.tolist())
    rows = [(float(t), v.min_pt_symplectic, v.log_negativity, energy, min_symplectic)
            for t, v in zip(times, verdicts)]
    meta = _base_metadata(config, "evolve")
    meta["beta"] = _format_cell(float(beta))
    meta["wall_clock_s"] = f"{time.perf_counter() - t0:.6f}"
    return ResultTable(
        columns=["t", "min_pt_symplectic", "log_negativity", "mean_energy",
                 "min_symplectic"],
        rows=rows,
        metadata=meta,
    )


def run_certify(config: ExperimentConfig) -> tuple[ResultTable, SeparabilityCertificate]:
    t0 = time.perf_counter()
    net = _materialize_network(config)
    grid = config.time_grid or {"start": 0.0, "stop": 100.0, "points": 400,
                                "spacing": "linear"}
    cert = build_certificate(net, margin=config.margin)
    report = verify_all_times_separable(cert, net, _grid_times(grid))
    rows = [(float(t), float(m))
            for t, m in zip(report.times, report.min_pt_by_time)]
    meta = _base_metadata(config, "certify")
    cert_fields = certificate_to_dict(cert)
    cert_fields.update(cert_fields.pop("constants"), min_pt_overall=report.min_pt)
    meta.update({key: _format_cell(value) for key, value in cert_fields.items()})
    meta["gamma0_sys"] = json.dumps(cert_fields["gamma0_sys"])
    meta["passed"] = str(report.passed)
    meta["wall_clock_s"] = f"{time.perf_counter() - t0:.6f}"
    table = ResultTable(columns=["t", "min_pt_symplectic"], rows=rows, metadata=meta)
    return table, cert


def certificate_to_dict(cert: SeparabilityCertificate) -> dict:
    c = cert.constants
    return {
        "constants": {
            "omega_env_max": c.omega_env_max,
            "delta": c.delta,
            "omega_bound": c.omega_bound,
            "gamma_ref": c.gamma_ref,
        },
        "beta_star": cert.beta_star,
        "beta": cert.beta,
        "margin": cert.margin,
        "gamma0_sys": cert.gamma0_sys.tolist(),
    }


def run_immediate(config: ExperimentConfig):
    t0 = time.perf_counter()
    net = _materialize_network(config)
    gamma_sys, beta = _system_covariance(config, net, power=4)
    if config.time_grid is not None:
        if config.time_grid["start"] <= 0:
            raise ConfigError("time_grid.start: must be positive for immediate")
        times = _grid_times(config.time_grid)
    else:
        times = None
    try:
        report = immediate_entanglement_check(gamma_sys, net, beta, times=times)
    except ImpureStateError as exc:
        # a mixed matrix state passes schema validation but not the purity gate; any
        # other ValueError of the check is numerical and reaches main as a failure
        raise ConfigError(f"system_state: {exc}") from exc
    lam_cols = [f"lambda_mode_{m}" for m in report.probed_modes]
    # at t = 0 every pair has C = 0, so lambda_j = min(det A, det B_j = f_j^2), and the
    # partial transpose leaves the product state's symplectic spectrum as it is
    det_sys, f, pt0 = _product_state_spectrum(gamma_sys, net, beta)
    lam0 = np.minimum(det_sys, f[np.array(report.probed_modes) - 1] ** 2)
    curves = np.column_stack((report.times, report.lambda_by_mode, report.lambda_full,
                              report.pt_min))
    rows = [(0.0, *lam0.tolist(), pt0 ** 2, pt0), *map(tuple, curves.tolist())]
    meta = _base_metadata(config, "immediate")
    meta.update({
        "beta": _format_cell(float(beta)),
        "lambda_dot0": _format_cell(report.lambda_dot0),
        "lambda_dot0_fd": _format_cell(report.lambda_dot0_fd),
        "onset_order": _format_cell(report.onset_order),
        "onset_coeff": _format_cell(report.onset_coeff),
        "epsilon_found": _format_cell(report.epsilon_found),
        "passed": str(report.passed),
    })
    meta["wall_clock_s"] = f"{time.perf_counter() - t0:.6f}"
    table = ResultTable(columns=["t", *lam_cols, "lambda_full", "min_pt_symplectic"],
                        rows=rows, metadata=meta)
    return table, report


def run_sweep(config: ExperimentConfig) -> ResultTable:
    if config.sweep_ns is None:
        raise ConfigError("sweep_ns: required for sweep")
    if "family" not in config.model:
        raise ConfigError("model.family: sweep requires a spectral-family model")
    rows = []
    n_ok = 0
    for n in sorted(config.sweep_ns):
        t0 = time.perf_counter()
        try:
            family, omega_sys = _spectral_family(config)
            (row,) = n_scaling_study(family, [n], margin=config.margin,
                                     omega_sys=omega_sys)
            rows.append((row.n_env, row.delta, row.omega_bound, row.gamma_ref,
                         row.beta_star, time.perf_counter() - t0, "ok"))
            n_ok += 1
        except (ValueError, FeasibilityError) as exc:
            rows.append((int(n), "", "", "", "", time.perf_counter() - t0,
                         f"error: {exc}"))
    meta = _base_metadata(config, "sweep")
    meta["n_ok"] = str(n_ok)
    return ResultTable(
        columns=["n_env", "delta", "omega_bound", "gamma_ref", "beta_star",
                 "wall_clock_s", "status"],
        rows=rows,
        metadata=meta,
    )


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors take the one-line config error path."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qbmsim",
        description="Gaussian dynamics and entanglement certification for an "
                    "oscillator coupled to a harmonic bath",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("evolve", "evolve an initial state and track entanglement and energy"),
        ("certify", "build an always-separable initial state and verify it"),
        ("immediate", "trace the short-time entanglement onset"),
        ("sweep", "scan certificate constants across bath sizes"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--out", required=True, help="output file path")
        p.add_argument("--format", choices=("csv", "svg"), default="csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = load_config(args.config)
        failed = False
        if args.command == "evolve":
            table = run_evolve(config)
        elif args.command == "certify":
            table, cert = run_certify(config)
            cert_path = args.out + ".certificate.json"
            with open(cert_path, "w", encoding="utf-8") as fh:
                json.dump(certificate_to_dict(cert), fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"certificate written to {cert_path}")
            failed = table.metadata["passed"] != "True"
        elif args.command == "immediate":
            table, report = run_immediate(config)
            failed = not report.passed
        else:
            table = run_sweep(config)
            failed = int(table.metadata["n_ok"]) == 0
        emit(table, args.format, args.out)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError, np.linalg.LinAlgError, MemoryError) as exc:
        # numerics errors, FeasibilityError among them; ConfigError is a ValueError
        # and is caught above
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.out}")
    if failed:
        print("result: FAIL", file=sys.stderr)
        return 1
    print("result: OK")
    return 0
