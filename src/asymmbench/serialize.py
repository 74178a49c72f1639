"""JSON wire formats for matrices and systems.

Matrices serialize as {"rows": int, "cols": int, "re": [...], "im": [...]}
row-major; system files as {"dim": int, "spectrum": [int...],
"eigenbasis": <matrix JSON or "computational">}, the basis unitary within
1e-9.  These are the CLI's inputs for states and generators; a field of
the wrong JSON type (type() refuses bool for a number) is a ParseError.
"""
from __future__ import annotations

from typing import Any

import numpy as np

from .errors import ParseError
from .qtypes import DensityMatrix, SystemSpec

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "system_to_json",
    "system_from_json",
]


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": [float(x) for x in m.real.ravel()],
        "im": [float(x) for x in m.imag.ravel()],
    }


def matrix_from_json(obj: Any) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ParseError(f"matrix JSON must be an object, got {type(obj).__name__}")
    missing = {"rows", "cols", "re", "im"} - set(obj)
    if missing:
        raise ParseError(f"matrix JSON missing fields: {sorted(missing)}")
    unknown = set(obj) - {"rows", "cols", "re", "im"}
    if unknown:
        raise ParseError(f"matrix JSON has unknown fields: {sorted(unknown)}")
    rows, cols, re, im = obj["rows"], obj["cols"], obj["re"], obj["im"]
    if type(rows) is not int or type(cols) is not int or rows <= 0 or cols <= 0:
        raise ParseError(f"matrix dimensions {rows!r}x{cols!r} must be positive integers")
    for part, values in (("re", re), ("im", im)):
        if type(values) is not list or any(type(x) not in (int, float) for x in values):
            raise ParseError(f"matrix field {part!r} must be a list of numbers")
    if len(re) != rows * cols or len(im) != rows * cols:
        raise ParseError(
            f"matrix entries ({len(re)} re, {len(im)} im) do not fill {rows}x{cols}"
        )
    m = np.array(re, dtype=np.float64) + 1j * np.array(im, dtype=np.float64)
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ParseError("matrix entries must be finite")
    return m.reshape(rows, cols)


def system_to_json(sys: SystemSpec) -> dict:
    basis: Any = "computational"
    if np.abs(sys.eigenbasis - np.eye(sys.dim)).max() > 0:
        basis = matrix_to_json(sys.eigenbasis)
    return {"dim": sys.dim, "spectrum": list(sys.spectrum), "eigenbasis": basis}


def system_from_json(obj: Any) -> SystemSpec:
    if not isinstance(obj, dict):
        raise ParseError(f"system JSON must be an object, got {type(obj).__name__}")
    missing = {"dim", "spectrum"} - set(obj)
    if missing:
        raise ParseError(f"system JSON missing fields: {sorted(missing)}")
    unknown = set(obj) - {"dim", "spectrum", "eigenbasis"}
    if unknown:
        raise ParseError(f"system JSON has unknown fields: {sorted(unknown)}")
    dim, spectrum = obj["dim"], obj["spectrum"]
    if type(dim) is not int or dim <= 0:
        raise ParseError(f"system dim {dim!r} must be a positive integer")
    if type(spectrum) is not list or len(spectrum) != dim:
        raise ParseError(f"spectrum must be a list of {dim} integers, got {spectrum!r}")
    for s in spectrum:
        if type(s) not in (int, float) or not float(s).is_integer():
            raise ParseError(f"spectrum entry {s!r} is not an integer")
    basis_field = obj.get("eigenbasis", "computational")
    if basis_field == "computational":
        basis = np.eye(dim, dtype=np.complex128)
    else:
        basis = matrix_from_json(basis_field)
    try:
        return SystemSpec(tuple(int(s) for s in spectrum), basis)
    except Exception as exc:
        raise ParseError(f"invalid system definition: {exc}") from exc


def density_from_json(obj: Any) -> DensityMatrix:
    m = matrix_from_json(obj)
    try:
        return DensityMatrix(m)
    except Exception as exc:
        raise ParseError(f"matrix is not a valid state: {exc}") from exc

