"""Benchmark workloads: which qbmsim workflow runs on which generated config.

Every workload uses the Ohmic family of ``configs/certify_ohmic8.json``
(p = 1, omega_max = 2, coupling_norm = 0.1); only the bath size and the
workflow change.  The seed selects one of ``VARIANTS`` input variants per
workload.  A variant moves a time-grid endpoint (or, for the sweep, the
feasibility margin) by up to 10 %, which changes every output value but not
the amount of work, so reference outputs can be stored for each variant and
any seed maps onto one of them.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

#: number of distinct input variants; seed s runs variant s % VARIANTS
VARIANTS = 4

_FAMILY = {"p": 1.0, "omega_max": 2.0, "coupling_norm": 0.1}

#: workload name -> (qbmsim subcommand, size parameters)
WORKLOADS = {
    # large matrices, few steps: symplectic spectra of 514 x 514 covariances
    # dominate, the critical_beta bisection inside build_certificate is the rest
    "certify-n256": ("certify", {"n_env": 256, "points": 8}),
    # small matrices, many steps: per-call interpreter overhead of the
    # trajectory layers (spectrum, propagator, partial transpose, CSV cells)
    "evolve-n8": ("evolve", {"n_env": 8, "points": 500}),
    # the only user of the two-mode path (reduce_two_mode, lambda_of_block)
    # and of the onset derivatives
    "onset-n64": ("immediate", {"n_env": 64, "points": 30}),
    # no trajectory at all: critical_beta bisections up to 1026 x 1026
    "sweep-n8-512": ("sweep", {"sweep_ns": [8, 16, 32, 64, 128, 256, 512]}),
}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def make_config(workload: str, seed: int, params: dict | None = None) -> dict:
    """Return the qbmsim JSON config of one workload for one seed.

    ``params`` replaces the workload's size parameters; the tests use it to
    run the workloads at a few steps and a few bath modes.
    """
    command, default = WORKLOADS[workload]
    params = default if params is None else params
    variant = variant_of(seed)
    stretch = 1.0 + 0.1 * random.Random(f"{workload}:{variant}").random()
    config = {"version": 1, "seed": variant}
    if command == "sweep":
        config["model"] = {"family": dict(_FAMILY, n_env=8)}
        config["sweep_ns"] = list(params["sweep_ns"])
        config["tolerances"] = {"margin": 1e-6 * stretch}
        return config
    config["model"] = {"family": dict(_FAMILY, n_env=params["n_env"])}
    if command == "certify":
        config["time_grid"] = {"start": 0.0, "stop": 100.0 * stretch,
                               "points": params["points"], "spacing": "linear"}
    elif command == "evolve":
        config["beta"] = 1.0
        config["system_state"] = {"kind": "vacuum"}
        config["time_grid"] = {"start": 0.0, "stop": 200.0 * stretch,
                               "points": params["points"], "spacing": "linear"}
    else:
        config["beta"] = 1.0
        config["system_state"] = {"kind": "squeezed", "r": 1.0, "theta": 0.0}
        config["time_grid"] = {"start": 1e-4 * stretch, "stop": 1e-1,
                               "points": params["points"], "spacing": "log"}
    return config


def cli_argv(workload: str, config_path: Path, out_path: Path) -> list[str]:
    return [WORKLOADS[workload][0], "--config", str(config_path),
            "--out", str(out_path)]


def source_dir(root: Path) -> Path:
    """The checkout's ``src`` directory; raises if the package is not there."""
    src = root / "src"
    if not (src / "qbmsim" / "__init__.py").is_file():
        raise FileNotFoundError(f"no qbmsim sources under {src}")
    return src


def import_cli(root: Path):
    """Import ``qbmsim.cli`` from the checkout's sources, never an installed copy."""
    src = source_dir(root)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import qbmsim.cli

    if not Path(qbmsim.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"qbmsim was imported from {qbmsim.cli.__file__}, not {src}")
    return qbmsim.cli
