"""Output checks for the benchmark, independent of how ramex computes.

Certificates are read only through ``adjacency_charpoly``,
``nontrivial_charpoly`` and ``passed``, so a change of the rest of the
certificate layout does not break the checks.  numpy is used here only, as
an independent floating-point view of the spectrum; no float enters ramex.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np

# Below this distance from the Ramanujan bound a float spectrum cannot
# decide the certificate, so `passed` is not compared there.
MARGIN = 1e-9


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _poly(strings) -> list[Fraction]:
    coeffs = [Fraction(s) for s in strings]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def adjacency(multiplicity) -> np.ndarray:
    m = len(multiplicity)
    adj = np.zeros((2 * m, 2 * m))
    adj[:m, m:] = multiplicity
    adj[m:, :m] = np.transpose(multiplicity)
    return adj


def nontrivial_abs_max(multiplicity) -> float:
    """Largest |eigenvalue| once one +d and one -d are removed."""
    return float(np.sort(np.abs(np.linalg.eigvalsh(adjacency(multiplicity))))[-3])


def check_certificate(cert: dict, multiplicity, d: int) -> list[str]:
    """Problems found in a certificate of the graph with this multiplicity."""
    problems = []
    passed = cert.get("passed")
    if not isinstance(passed, bool):
        problems.append("certificate has no boolean 'passed'")
    n = 2 * len(multiplicity)
    adj = _poly(cert.get("adjacency_charpoly") or [])
    if len(adj) != n + 1 or adj[-1] != 1:
        problems.append("adjacency_charpoly is not monic of degree n")
    elif adj[n - 1] != 0 or adj[n - 2] != -sum(x * x for row in multiplicity for x in row):
        problems.append("adjacency_charpoly does not match the edge multiplicities")
    nontrivial = cert.get("nontrivial_charpoly")
    if nontrivial is None:
        problems.append("no nontrivial_charpoly for a regular bipartite graph")
    elif _mul(_poly(nontrivial), [Fraction(-d * d), Fraction(0), Fraction(1)]) != adj:
        problems.append("nontrivial_charpoly * (x^2 - d^2) != adjacency_charpoly")
    lam = nontrivial_abs_max(multiplicity)
    bound = 2 * math.sqrt(d - 1)
    if abs(lam - bound) > MARGIN and (lam <= bound) != passed:
        problems.append(
            f"passed={passed} but the float spectrum gives |lambda_2| = {lam!r} "
            f"against the bound {bound!r}"
        )
    return problems
