"""Report records shared by the verifiers and the CLI.

The JSON schema is fixed:
``{"check": ..., "params": {...}, "regions": [{"name", "min_margin"}],
"pass": bool, "tolerance": float}`` plus an optional ``details`` map.
Serialisation is canonical (sorted keys, fixed separators) so re-running a
suite with the same config produces byte-identical report bodies; wall
clock data lives in a separate metadata object.  The files are strict JSON:
a non-finite float is written as the string "nan", "inf" or "-inf".
``check_input`` reads an input document against its declared schema.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import re
import reprlib
import sys
import time
from dataclasses import dataclass, field
from typing import NamedTuple

__all__ = ["Region", "Report", "report_bundle", "dump_reports", "canonical_body", "write_csv", "Tagged",
           "check_input"]


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


# -- input documents ------------------------------------------------------


def _is_number(v) -> bool:
    """A finite JSON number: not a boolean, NaN or an infinity, and an integer
    literal only within the float range (10^400 is refused, not converted)."""
    return ((type(v) in (int, float) or isinstance(v, numbers.Real) and not isinstance(v, bool))
            and -sys.float_info.max <= v <= sys.float_info.max)


def _is_integer(v) -> bool:
    """A number without a fraction: 4.0 is read as 4, 4.5 is refused."""
    return _is_number(v) and v == int(v)


_LEAVES = {  # schema type: (noun, accepts, read)
    int: ("an integer", _is_integer, int),
    float: ("a number", _is_number, float),
    str: ("a string", lambda v: isinstance(v, str), str),
    tuple: ("integers", lambda v: isinstance(v, list) and all(map(_is_integer, v)), lambda v: tuple(map(int, v))),
}


class Tagged(NamedTuple):
    """An object whose string value at tag picks its keys among cases."""

    tag: str
    cases: dict


def check_input(doc, schema, what: str, path=()):
    """doc checked against schema and read, or a ValueError that names the
    key path of the first error (what names the document itself).

    A schema is a leaf type: int (an integer, read as int), float (a
    number, read as float), str, or tuple (a list of integers, read as a
    tuple); [S], a list of S; a dict, an object with exactly its keys, of
    which one ending in "?" may be left out; {int: S}, an object keyed by
    integer strings, read as int; or a Tagged object."""
    if isinstance(schema, type):
        noun, accepts, read = _LEAVES[schema]
        if not accepts(doc):
            raise _type_error(doc, noun, path, what)
        return read(doc)
    if isinstance(schema, list):
        if not isinstance(doc, list):
            raise _type_error(doc, "a list", path, what)
        return [check_input(item, schema[0], what, (*path, i)) for i, item in enumerate(doc)]
    if not isinstance(doc, dict):
        raise _type_error(doc, "an object", path, what)
    if isinstance(schema, Tagged):
        tag = doc.get(schema.tag)
        if not isinstance(tag, str) or tag not in schema.cases:
            raise ValueError(f"{_where((*path, schema.tag), what)} must be one of {tuple(schema.cases)}, "
                             f"got {reprlib.repr(tag)}")
        schema = {schema.tag: str, **schema.cases[tag]}
    if int in schema:
        bad = sorted(key for key in doc if not re.fullmatch(r"-?(0|[1-9][0-9]*)", key))
        if bad:
            raise ValueError(f"{_where(path, what)} takes only integer keys, not {bad}")
        return {int(key): check_input(item, schema[int], what, (*path, key)) for key, item in doc.items()}
    keys = {key.rstrip("?"): key for key in schema}
    unread = sorted(set(doc) - set(keys))
    if unread:
        raise ValueError(f"{_where(path, what)} takes only the keys {tuple(keys)}, not {unread}")
    for key, declared in keys.items():
        if key not in doc and not declared.endswith("?"):
            raise ValueError(f"{_where(path, what)} needs the key {key!r}")
    return {key: check_input(doc[key], schema[declared], what, (*path, key)) for key, declared in keys.items()
            if key in doc}


def _where(path, what: str) -> str:
    """'fields[0][0].coef' for the path ('fields', 0, 0, 'coef'); what for the root."""
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".") or what


def _type_error(node, noun: str, path, what: str) -> ValueError:
    """'phi.x must be a number at [2], got '2'': the list indices after the last key follow the noun."""
    cut = len(path)
    while cut and isinstance(path[cut - 1], int):
        cut -= 1
    at = "".join(f"[{i}]" for i in path[cut:])
    return ValueError(f"{_where(path[:cut], what)} must be {noun}{' at ' + at if at else ''}, got {reprlib.repr(node)}")
