"""Deterministic report emission: flat rows, stable column order,
byte-identical across reruns with the same inputs.

Floats are rendered with 17 significant digits (round-trip exact for
binary64) in both the CSV and the JSON document.  Wall-clock timings
never enter the report files; they go to the timing.json sidecar, so
the reports stay bit-stable for fixed seeds.
"""

import hashlib
import json
import os

import numpy as np

from .errors import EmptyReport


def _canon(value):
    """JSON-stable canonical form of a parsed JSON document: floats as
    17-digit strings inside the hash input, containers sorted by key."""
    if isinstance(value, dict):
        return {k: _canon(value[k]) for k in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, float):
        return format_float(value)
    return value


def config_hash(config):
    """sha256 over the canonical JSON encoding of the config document;
    changes iff a semantically meaningful field changes."""
    blob = json.dumps(_canon(config), sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def format_float(x):
    return f"{x:.17g}"


def _render(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        return format_float(float(value))
    if isinstance(value, (int, np.integer)):
        return int(value)
    return str(value)


def flatten_row(row, prefix=""):
    """Flatten nested dicts/sequences into dotted flat keys."""
    out = {}
    for key, value in row.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(flatten_row(value, prefix=name + "."))
        elif isinstance(value, (list, tuple, np.ndarray)):
            seq = value.tolist() if isinstance(value, np.ndarray) else value
            for i, v in enumerate(seq):
                if isinstance(v, dict):
                    out.update(flatten_row(v, prefix=f"{name}.{i}."))
                else:
                    out[f"{name}.{i}"] = _render(v)
        else:
            out[name] = _render(value)
    return out


def emit_report(rows, out_dir):
    """Write report.json and report.csv; refuses empty row lists.

    Column order: first-seen order across rows; rows missing a column
    emit the empty string there.  Returns the two paths.
    """
    if not rows:
        raise EmptyReport("no rows to report")
    flat = [flatten_row(r) for r in rows]
    columns = []
    for r in flat:
        for k in r:
            if k not in columns:
                columns.append(k)
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, "report.json")
    csv_path = os.path.join(out_dir, "report.csv")
    doc = {"columns": columns, "rows": flat}
    with open(json_path, "w", newline="") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    lines = [",".join(columns)]
    for r in flat:
        lines.append(",".join(_csv_cell(r.get(c, "")) for c in columns))
    with open(csv_path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return json_path, csv_path


def _csv_cell(v):
    s = str(v) if not isinstance(v, bool) else ("true" if v else "false")
    if any(c in s for c in ",\"\n"):
        s = '"' + s.replace('"', '""') + '"'
    return s


def emit_timing(timings, out_dir):
    """Wall-clock sidecar, deliberately outside the deterministic set."""
    path = os.path.join(out_dir, "timing.json")
    with open(path, "w") as fh:
        json.dump(timings, fh, indent=2)
        fh.write("\n")
    return path
