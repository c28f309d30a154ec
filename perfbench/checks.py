"""Output-identity checks against stored references.

Statistics and p-values must agree with the reference to REL_TOL relative;
counts, graph digests and Monte Carlo CSV text must be identical.  Each check
returns a list of human-readable mismatches; an empty list means the output
passed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-12
REFERENCES = Path(__file__).with_name("references.json")


def result_fingerprint(result) -> dict:
    """The parts of a GitResult the reference check compares."""
    return {
        "statistic": result.statistic,
        "df": result.df,
        "p_analytic": result.p_analytic,
        "p_permutation": result.p_permutation,
        "z": [c.z for c in result.components],
        "component_p": [c.p for c in result.components],
    }


def compare_outputs(got, ref, rel: float = REL_TOL, where: str = "") -> list[str]:
    """Mismatches between two outputs: texts, integers and None must be
    identical, floats must agree to ``rel`` (``rel=0`` demands bit identity),
    and dicts and lists are compared entry by entry."""
    label = where or "output"
    if isinstance(got, dict) and isinstance(ref, dict):
        problems = []
        for key in sorted(set(got) | set(ref)):
            at = f"{where}.{key}" if where else key
            if key not in got or key not in ref:
                problems.append(f"{at}: present in only one of the outputs")
            else:
                problems += compare_outputs(got[key], ref[key], rel, at)
        return problems
    if isinstance(got, list) and isinstance(ref, list):
        if len(got) != len(ref):
            return [f"{label}: {len(got)} entries, expected {len(ref)}"]
        return [p for i, (a, b) in enumerate(zip(got, ref))
                for p in compare_outputs(a, b, rel, f"{where}[{i}]")]
    if isinstance(got, float) and isinstance(ref, float):
        ok = math.isclose(got, ref, rel_tol=rel, abs_tol=0.0)
    else:
        ok = type(got) is type(ref) and got == ref
    if ok:
        return []
    if isinstance(ref, str):
        return [f"{label}: text differs"]
    return [f"{label}: got {got!r}, expected {ref!r}"]


def graph_digest(out_neighbors_list) -> str:
    """SHA-256 over the shapes and little-endian int64 entries of each array."""
    h = hashlib.sha256()
    for nb in out_neighbors_list:
        arr = np.ascontiguousarray(nb, dtype="<i8")
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def load_references(path: Path = REFERENCES) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def reference_for(refs: dict, workload: str, seed: int) -> dict | None:
    """Stored reference outputs of ``workload`` at ``seed``, if any."""
    return refs.get(str(seed), {}).get(workload)
