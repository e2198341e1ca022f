"""Correctness gate: compare a workflow's outputs with stored reference outputs.

References live under ``references/``: for each workload variant the CSV
output (gzip, without the ``# wall_clock_s:`` line), the certify
``.certificate.json`` side file, and in ``manifest.json`` the config and the
exit code.  A call passes when its exit code equals the reference's, every
numeric table cell and every number in the ``# key: value`` metadata lines
(read as JSON where they parse) is within 1e-10 of the reference relative to
max(1, |ref|), every other cell and metadata value (the ``passed`` verdict,
for one) is equal, and every certificate value is within the same tolerance.
NaN matches NaN and an infinity matches the same infinity.  The
``wall_clock_s`` metadata line and sweep column are never compared.

Run ``python3 perfbench/gate.py`` to rewrite the references from the current
sources; do that only on a commit whose outputs are known to be right.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import io
import json
import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

import workloads

REL_TOL = 1e-10
EXCLUDED = ("wall_clock_s",)
REFERENCE_DIR = Path(__file__).resolve().parent / "references"


@dataclass(frozen=True)
class Reference:
    exit_code: int
    metadata: dict
    table: str
    certificate: dict | None


def split_csv(text: str) -> tuple[dict, str]:
    """Split a qbmsim CSV into its ``# key: value`` metadata and the table text."""
    metadata = {}
    lines = text.splitlines(keepends=True)
    i = 0
    while i < len(lines) and lines[i].startswith("# "):
        key, _, value = lines[i][2:].rstrip("\n").partition(": ")
        metadata[key] = value
        i += 1
    return metadata, "".join(lines[i:])


def _paths(directory: Path, workload: str, variant: int) -> tuple[Path, Path]:
    stem = directory / f"{workload}-v{variant}"
    return Path(f"{stem}.csv.gz"), Path(f"{stem}.certificate.json")


def load_reference(workload: str, seed: int, config: dict,
                   directory: Path = REFERENCE_DIR) -> Reference:
    """Load the reference of the seed's variant; the stored config must match."""
    variant = workloads.variant_of(seed)
    manifest = json.loads((directory / "manifest.json").read_text())
    entry = manifest[workload][str(variant)]
    if entry["config"] != config:
        raise ValueError(f"{workload} variant {variant}: generated config differs "
                         "from the one the reference was made with")
    csv_path, cert_path = _paths(directory, workload, variant)
    metadata, table = split_csv(gzip.decompress(csv_path.read_bytes()).decode())
    certificate = json.loads(cert_path.read_text()) if cert_path.is_file() else None
    return Reference(entry["exit_code"], metadata, table, certificate)


def _numbers_match(ref: float, out: float) -> bool:
    if ref == out or (math.isnan(ref) and math.isnan(out)):
        return True
    return abs(out - ref) <= REL_TOL * max(1.0, abs(ref))


def _cell_matches(ref: str, out: str) -> bool:
    try:
        r = float(ref)
    except ValueError:
        return ref == out
    try:
        o = float(out)
    except ValueError:
        return False
    return _numbers_match(r, o)


def compare_tables(ref: str, out: str) -> list[str]:
    """Mismatches between two CSV tables, matched by column name."""
    if ref == out:
        return []
    ref_rows = list(csv.reader(io.StringIO(ref)))
    out_rows = list(csv.reader(io.StringIO(out)))
    if not ref_rows or not out_rows:
        return ["empty table"]
    ref_head, out_head = ref_rows[0], out_rows[0]
    columns = [c for c in ref_head if c not in EXCLUDED]
    missing = [c for c in columns if c not in out_head]
    if missing:
        return [f"missing columns {missing}"]
    if len(ref_rows) != len(out_rows):
        return [f"{len(out_rows) - 1} rows, expected {len(ref_rows) - 1}"]
    problems = []
    for i, (r_row, o_row) in enumerate(zip(ref_rows[1:], out_rows[1:])):
        for c in columns:
            r, o = r_row[ref_head.index(c)], o_row[out_head.index(c)]
            if not _cell_matches(r, o):
                problems.append(f"row {i} column {c}: {o!r}, expected {r!r}")
    return problems


def compare_values(ref, out, where: str = "certificate") -> list[str]:
    """Mismatches between two JSON values, numbers within the gate tolerance."""
    if isinstance(ref, dict):
        if not isinstance(out, dict) or set(ref) != set(out):
            return [f"{where}: keys differ"]
        return [p for k in ref for p in compare_values(ref[k], out[k], f"{where}.{k}")]
    if isinstance(ref, list):
        if not isinstance(out, list) or len(ref) != len(out):
            return [f"{where}: lengths differ"]
        return [p for i, (r, o) in enumerate(zip(ref, out))
                for p in compare_values(r, o, f"{where}[{i}]")]
    if isinstance(ref, (int, float)) and not isinstance(ref, bool):
        ok = (isinstance(out, (int, float)) and not isinstance(out, bool)
              and _numbers_match(float(ref), float(out)))
        return [] if ok else [f"{where}: {out!r}, expected {ref!r}"]
    return [] if ref == out else [f"{where}: {out!r}, expected {ref!r}"]


def compare_metadata(ref: dict, out: dict) -> list[str]:
    """Mismatches between two ``# key: value`` sets; keys only ``out`` has are ignored."""
    problems = []
    for key, r in ref.items():
        if key in EXCLUDED:
            continue
        if key not in out:
            problems.append(f"metadata {key}: missing")
            continue
        try:  # numbers, lists such as gamma0_sys, the config object
            found = compare_values(json.loads(r), json.loads(out[key]), f"metadata {key}")
        except ValueError:  # nan, True, plain text
            found = ([] if _cell_matches(r, out[key])
                     else [f"metadata {key}: {out[key]!r}, expected {r!r}"])
        problems += found
    return problems


def check_output(ref: Reference, exit_code: int, out_path: Path) -> list[str]:
    """Every way one workflow call's outputs differ from the reference."""
    if exit_code != ref.exit_code:
        return [f"exit code {exit_code}, expected {ref.exit_code}"]
    if not out_path.is_file():
        return [f"no output file {out_path.name}"]
    metadata, table = split_csv(out_path.read_text())
    problems = compare_metadata(ref.metadata, metadata) + compare_tables(ref.table, table)
    if ref.certificate is not None:
        cert_path = Path(f"{out_path}.certificate.json")
        if not cert_path.is_file():
            return problems + ["no certificate file"]
        problems += compare_values(ref.certificate, json.loads(cert_path.read_text()))
    return problems


def write_references(cli, work: Path, directory: Path = REFERENCE_DIR,
                     params: dict | None = None) -> None:
    """Run every workload variant and store its outputs in ``directory``.

    ``params`` maps a workload to size parameters that replace its own.
    """
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {}
    for workload in workloads.WORKLOADS:
        manifest[workload] = {}
        for variant in range(workloads.VARIANTS):
            config = workloads.make_config(workload, variant, (params or {}).get(workload))
            config_path, out_path = work / "config.json", work / "out.csv"
            config_path.write_text(json.dumps(config))
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(workloads.cli_argv(workload, config_path, out_path))
            if code != 0:
                raise RuntimeError(f"{workload} variant {variant} exited {code}")
            manifest[workload][str(variant)] = {"config": config, "exit_code": code}
            text = "".join(line for line in out_path.read_text().splitlines(True)
                           if not line.startswith("# wall_clock_s:"))
            csv_path, cert_path = _paths(directory, workload, variant)
            csv_path.write_bytes(gzip.compress(text.encode(), mtime=0))
            side = Path(f"{out_path}.certificate.json")
            if side.is_file():
                cert_path.write_text(side.read_text())
                side.unlink()
            print(f"{workload} v{variant}: {csv_path.stat().st_size} bytes")
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    (root / ".perfbench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root / ".perfbench_work") as work:
        write_references(workloads.import_cli(root), Path(work))
