"""Bit-stable JSON and CSV emission.

Reports must be byte-identical across runs for the same inputs, so floats
are always rendered with 17 significant digits and object keys are sorted.
"""

from __future__ import annotations

import csv
import io
import json
import math


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite float {x!r} in report")
    text = f"{x:.17g}"
    return text


def stable_dumps(obj) -> str:
    """JSON with sorted keys and fixed 17-significant-digit floats."""
    out = io.StringIO()
    _write(obj, out)
    return out.getvalue()


def _write(obj, out):
    if obj is None:
        out.write("null")
    elif obj is True:
        out.write("true")
    elif obj is False:
        out.write("false")
    elif isinstance(obj, int):
        out.write(str(obj))
    elif isinstance(obj, float):
        out.write(format_float(obj))
    elif isinstance(obj, str):
        out.write(json.dumps(obj))
    elif isinstance(obj, dict):
        out.write("{")
        first = True
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {key!r}")
            if not first:
                out.write(",")
            first = False
            out.write(json.dumps(key))
            out.write(":")
            _write(obj[key], out)
        out.write("}")
    elif isinstance(obj, (list, tuple)):
        out.write("[")
        for k, item in enumerate(obj):
            if k:
                out.write(",")
            _write(item, out)
        out.write("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_sphere_atoms_csv(measure, path):
    """Columns re, im, is_inf (0/1), weight."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["re", "im", "is_inf", "weight"])
        for p, w in measure.iter_atoms():
            if p.is_infinity():
                row = ["0", "0", "1", format_float(float(w))]
            else:
                a = p.to_affine()
                row = [format_float(a.real), format_float(a.imag), "0", format_float(float(w))]
            writer.writerow(row)


def write_planar_atoms_csv(measure, path):
    """Columns x[, y], weight."""
    dim = measure.coords.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "weight"] if dim == 2 else ["x", "weight"])
        for c, w in measure.iter_atoms():
            writer.writerow([format_float(float(v)) for v in c] + [format_float(float(w))])
