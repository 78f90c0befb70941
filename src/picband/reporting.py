"""Report records shared by the verifiers and the CLI.

The JSON schema is fixed:
``{"check": ..., "params": {...}, "regions": [{"name", "min_margin"}],
"pass": bool, "tolerance": float}`` plus an optional ``details`` map.
Serialisation is canonical (sorted keys, fixed separators) so re-running a
suite with the same config produces byte-identical report bodies; wall
clock data lives in a separate metadata object.  The files are strict JSON:
a non-finite float is written as the string "nan", "inf" or "-inf".
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field

__all__ = ["Region", "Report", "report_bundle", "dump_reports", "canonical_body", "write_csv"]


@dataclass
class Region:
    name: str
    min_margin: float

    def to_dict(self):
        return {"name": self.name, "min_margin": self.min_margin}


@dataclass
class Report:
    check: str
    params: dict
    passed: bool
    tolerance: float
    regions: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_dict(self):
        out = {
            "check": self.check,
            "params": _plain(self.params),
            "regions": [_plain(r.to_dict()) for r in self.regions],
            "pass": bool(self.passed),
            "tolerance": _plain(self.tolerance),
        }
        if self.details:
            out["details"] = _plain(self.details)
        return out

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = ""
        if self.regions:
            worst = min(r.min_margin for r in self.regions)
            extra = f" min_margin={worst:.6g}"
        return f"{status} {self.check}{extra}"


def _plain(obj):
    """Coerce numpy scalars and sequences into JSON-stable builtins; a
    non-finite float becomes the string "nan", "inf" or "-inf"."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else str(float(obj))
    if hasattr(obj, "item"):
        return _plain(obj.item())
    return str(obj)


def report_bundle(reports, seed) -> dict:
    """Deterministic report body plus a separate metadata object."""
    body = {"reports": [r.to_dict() for r in reports], "seed": int(seed)}
    return {"report": body, "metadata": {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}}


def dump_reports(path, reports, seed):
    bundle = report_bundle(reports, seed)
    with open(path, "w") as fh:
        json.dump(bundle, fh, sort_keys=True, indent=1, separators=(",", ": "), allow_nan=False)
        fh.write("\n")
    return bundle


def canonical_body(bundle: dict) -> str:
    return json.dumps(bundle["report"], sort_keys=True, separators=(",", ":"))


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])
