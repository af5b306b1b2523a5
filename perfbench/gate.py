"""Correctness gate: compare a pass's outputs with the stored reference.

The reference holds, per size and workload, the outputs of the default seed
(``reference.json`` next to this file).  Numbers match when

    |value - reference| <= RTOL * |reference| + ATOL.

RTOL = 1e-8 lets reordered floating-point sums through (a different
tridiagonal routine, a restricted active window, another exact quadrature
rule all move results by 1e-10 or less) and catches any change to the
scheme, which moves them by 1e-4 or more.  Booleans, strings and list
lengths must match exactly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

RTOL = 1e-8
ATOL = 1e-12
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


def load_reference(size: str, workload: str) -> dict:
    if not REFERENCE_FILE.is_file():
        return {}
    return json.loads(REFERENCE_FILE.read_text()).get(size, {}).get(workload, {})


def store_reference(size: str, workload: str, values: dict) -> None:
    data = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.is_file() \
        else {}
    data.setdefault(size, {})[workload] = values
    REFERENCE_FILE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def mismatches(got, ref, path: str = "") -> list[str]:
    """Every place where got differs from ref beyond the tolerance."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{path}: keys differ"]
        out = []
        for key in sorted(ref):
            out += mismatches(got[key], ref[key], f"{path}.{key}")
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: length differs"]
        out = []
        for i, (g, r) in enumerate(zip(got, ref)):
            out += mismatches(g, r, f"{path}[{i}]")
        return out
    if isinstance(ref, bool) or isinstance(ref, str) or ref is None:
        return [] if got == ref else [f"{path}: {got!r} != {ref!r}"]
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return [f"{path}: {got!r} is not a number"]
    if math.isnan(ref):
        return [] if math.isnan(got) else [f"{path}: {got!r} != nan"]
    if not abs(got - ref) <= RTOL * abs(ref) + ATOL:
        return [f"{path}: {got!r} != {ref!r}"]
    return []


def corrupt(ref: dict) -> dict:
    """Copy of ref with its first number moved well past the tolerance."""
    data = json.loads(json.dumps(ref))

    def visit(node):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        for key in keys:
            val = node[key]
            if isinstance(val, (dict, list)):
                if visit(val):
                    return True
            elif isinstance(val, float):
                node[key] = val * (1.0 + 1e-4) + 1e-6
                return True
        return False

    visit(data)
    return data
