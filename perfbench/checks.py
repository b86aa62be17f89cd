"""Correctness checks on the artifacts a workload's command wrote.

Every check is one attempt in the benchmark's ``attempted`` count; a check
that does not hold is one failure.  ``sweep_eps`` also counts each sweep
point.  For scenarios recorded in ``reference/`` (the parent commit's output
for the default seed), the numbers are compared to 1e-7 and byte identity
of the artifacts is reported beside it, not counted as a failure.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
TOL = 1e-9
REF_TOL = 1e-7
# Numbers in the reference that describe how the oracle integrates rather
# than what it computes; an integrator swap may change them.
REF_IGNORED_KEYS = frozenset({"step"})
# Sampled trajectory rows kept in a reference (plus the last row).
REF_ROWS = 10


@dataclass
class Outcome:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _read_json(path: Path, outcome: Outcome):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        outcome.check(False, f"{path.name} unreadable: {exc}")
        return None


def check_trajectory(out: Path, points: int, outcome: Outcome) -> None:
    """trajectory.csv: all rows, finite, fidelity(0)=1, purity in [0, 1], occupation not rising."""
    path = out / "trajectory.csv"
    if not outcome.check(path.is_file(), "trajectory.csv missing"):
        return
    header, raw = read_csv(path)
    outcome.check(len(raw) == points, f"trajectory.csv has {len(raw)} rows, expected {points}")
    rows = [[float(x) for x in row] for row in raw]
    outcome.check(all(math.isfinite(x) for row in rows for x in row), "trajectory.csv has non-finite values")
    col = {name: i for i, name in enumerate(header)}
    if not all(outcome.check(k in col, f"trajectory.csv lacks {k}") for k in ("fidelity", "purity", "occ_total")):
        return
    fid0 = rows[0][col["fidelity"]] if rows else float("nan")
    outcome.check(abs(fid0 - 1.0) <= TOL, f"fidelity[0] = {fid0!r}, expected 1")
    purity = [r[col["purity"]] for r in rows]
    outcome.check(all(0.0 <= p <= 1.0 + TOL for p in purity), "purity outside [0, 1]")
    occ = [r[col["occ_total"]] for r in rows]
    outcome.check(all(b <= a + TOL for a, b in zip(occ, occ[1:])), "occ_total increases")
    outcome.check((out / "summary.json").is_file(), "summary.json missing")


def check_sweep(out: Path, values: tuple[float, ...], outcome: Outcome) -> None:
    """sweep.csv: every point ok; numeric decoherence time matches the formula."""
    path = out / "sweep.csv"
    if not outcome.check(path.is_file(), "sweep.csv missing"):
        return
    header, rows = read_csv(path)
    outcome.check(len(rows) == len(values), f"sweep.csv has {len(rows)} points, expected {len(values)}")
    col = {name: i for i, name in enumerate(header)}
    for row in rows:
        outcome.check(row[col["status"]] == "ok", f"sweep point {row[0]} status {row[col['status']]}")
    worst = 0.0
    for row in rows:
        formula, numeric = float(row[col["tau_d_formula"]]), float(row[col["tau_d_numeric"]])
        if math.isfinite(formula):
            rel = abs(numeric - formula) / abs(formula)
            worst = max(worst, rel if rel == rel else math.inf)  # a nan counts as a miss
    outcome.details["tau_d_max_rel_err"] = worst
    outcome.check(worst <= 1e-3, f"tau_d numeric vs formula relative error {worst:.3e}")
    summary = _read_json(out / "sweep_summary.json", outcome)
    if summary is not None:
        outcome.check(summary.get("failed") == 0, "sweep_summary reports failed points")


def check_oracle(out: Path, points: int, outcome: Outcome) -> None:
    """oracle-compare: passed, max trace distance below 5e-3, one finite distance per grid time."""
    summary = _read_json(out / "oracle_summary.json", outcome)
    if summary is not None:
        outcome.check(summary.get("passed") is True, "oracle comparison did not pass")
        dist = summary.get("max_distance")
        outcome.check(isinstance(dist, float) and dist < 5e-3, f"oracle max_distance {dist!r}")
        outcome.details["oracle_max_distance"] = dist
    path = out / "oracle.csv"
    if outcome.check(path.is_file(), "oracle.csv missing"):
        _, rows = read_csv(path)
        outcome.check(len(rows) == points, f"oracle.csv has {len(rows)} rows, expected {points}")
        outcome.check(all(math.isfinite(float(r[1])) for r in rows), "oracle.csv has non-finite distances")


def check_artifacts(workload, out: Path, outcome: Outcome) -> None:
    checks = {"evolve": check_trajectory, "oracle-compare": check_oracle}
    try:
        if workload.command == "sweep":
            check_sweep(out, workload.sweep_values, outcome)
        else:
            checks[workload.command](out, workload.points, outcome)
    except (ValueError, KeyError, IndexError) as exc:  # malformed artifact
        outcome.check(False, f"{workload.command} artifacts malformed: {exc!r}")


# ---------------------------------------------------------------------------
# reference artifacts


def scenario_digest(workload) -> str:
    blob = json.dumps([workload.argv("", ""), workload.scenario], sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _sampled_rows(n: int) -> list[int]:
    stride = max(1, n // REF_ROWS)
    return sorted(set(range(0, n, stride)) | {n - 1})


def record_reference(workload, out: Path, dest: Path) -> None:
    """Store the artifacts' digests and (sampled) numbers as the reference."""
    files = {}
    for path in sorted(p for p in out.iterdir() if p.is_file()):
        entry = {"sha256": _sha256(path)}
        if path.suffix == ".json":
            entry["json"] = json.loads(path.read_text())
        elif path.suffix == ".csv":
            header, rows = read_csv(path)
            entry.update(header=header, nrows=len(rows), rows={str(i): rows[i] for i in _sampled_rows(len(rows))})
        files[path.name] = entry
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_text(json.dumps({"scenario": scenario_digest(workload), "files": files}, indent=1) + "\n")


def _number(x):
    """Numbers and the artifact spellings "inf"/"nan" as floats; anything else unchanged."""
    if isinstance(x, bool) or x is None:
        return x
    try:
        return float(x)
    except (TypeError, ValueError):
        return x


def _same_numbers(got, ref) -> bool:
    if isinstance(ref, dict):
        return isinstance(got, dict) and all(
            k in REF_IGNORED_KEYS or (k in got and _same_numbers(got[k], v)) for k, v in ref.items()
        )
    if isinstance(ref, list):
        return isinstance(got, list) and len(got) == len(ref) and all(map(_same_numbers, got, ref))
    a, b = _number(got), _number(ref)
    if not (isinstance(a, float) and isinstance(b, float)) or not math.isfinite(b):
        return a == b or (a != a and b != b)
    return abs(a - b) <= REF_TOL * max(1.0, abs(b))


def compare_reference(workload, out: Path, outcome: Outcome, path: Path | None = None) -> None:
    """Compare against the recorded reference when it covers this exact scenario."""
    path = path or REFERENCE_DIR / f"{workload.name}.json"
    if not path.is_file():
        outcome.details["reference"] = "none recorded"
        return
    ref = json.loads(path.read_text())
    if ref["scenario"] != scenario_digest(workload):
        outcome.details["reference"] = "not applicable to this seed"
        return
    identical = True
    before = outcome.failed
    for name, entry in ref["files"].items():
        artifact = out / name
        if not outcome.check(artifact.is_file(), f"reference artifact {name} missing"):
            identical = False
            continue
        identical &= _sha256(artifact) == entry["sha256"]
        try:
            if "json" in entry:
                same = _same_numbers(json.loads(artifact.read_text()), entry["json"])
            else:
                header, rows = read_csv(artifact)
                same = header == entry["header"] and len(rows) == entry["nrows"]
                same = same and all(_same_numbers(rows[int(i)], r) for i, r in entry["rows"].items())
        except ValueError:  # unparsable artifact
            same = False
        outcome.check(same, f"{name} differs from the reference beyond {REF_TOL}")
    outcome.details["reference"] = "numbers match" if outcome.failed == before else "numbers differ"
    outcome.details["byte_identical"] = identical
