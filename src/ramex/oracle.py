"""Brute-force expected characteristic polynomials by exhaustive enumeration.

Ground truth for tests.  Deliberately independent of the main path: it
assembles adjacency matrices itself and computes determinants by memoized
cofactor expansion rather than the Berkowitz recurrence, sharing only the
scalar/polynomial layer.  Exponential cost, guarded by an enumeration cap.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .exact_algebra import TooLarge, UniPoly
from .exact_linalg import BlockSpec, Matrix
from .matching_family import NodeState, Params

DEFAULT_CAP = 10**6


def _count_within_cap(sizes, cap: int, what: str) -> int:
    """The product of k! over sizes, multiplied one integer at a time and
    no further once it passes cap, so a huge count is never formed; past
    cap it raises TooLarge."""
    count = 1
    for k in itertools.chain.from_iterable(range(2, size + 1) for size in sizes):
        if count > cap:
            break
        count *= k
    if count > cap:
        raise TooLarge(f"the {what} exceed cap {cap}")
    return count


def _det_xid_minus(mat) -> list:
    """Coefficients (ascending) of det(xI - mat), by cofactor expansion
    along rows with memoization on the remaining column set."""
    n = len(mat)
    memo = {}

    def minor(mask: int) -> list:
        if mask == 0:
            return [1]
        cached = memo.get(mask)
        if cached is not None:
            return cached
        size = bin(mask).count("1")
        row = n - size
        total = [0] * (size + 1)
        sign = 1
        rest = mask
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            sub = minor(mask ^ low)
            c0 = -mat[row][j]
            if c0:
                for i, s in enumerate(sub):
                    if s:
                        total[i] = total[i] + sign * c0 * s
            if j == row:
                for i, s in enumerate(sub):
                    if s:
                        total[i + 1] = total[i + 1] + sign * s
            sign = -sign
            rest ^= low
        memo[mask] = total
        return total

    return minor((1 << n) - 1)


def _adjacency(mult, m: int) -> list:
    """n x n bipartite adjacency from an m x m multiplicity matrix."""
    n = 2 * m
    adj = [[0] * n for _ in range(n)]
    for i in range(m):
        for j in range(m):
            w = mult[i][j]
            adj[i][m + j] = w
            adj[m + j][i] = w
    return adj


def brute_expected_charpoly(
    node: NodeState, params: Params, cap: int = DEFAULT_CAP
) -> UniPoly:
    """Average of det(xI - adjacency) over every way to finish the node:
    all completions of the open partial matching, then all choices for the
    remaining uniformly random complete matchings."""
    m, d, n = params.m, params.d, params.n
    held = len(node.complete) + (1 if node.partial is not None else 0)
    free = d - held
    t = len(node.partial) if node.partial is not None else 0
    sizes = itertools.chain([m - t] if node.partial is not None else [], itertools.repeat(m, free))
    count = _count_within_cap(sizes, cap, "completions")

    base = [[0] * m for _ in range(m)]
    for match in node.complete:
        for i, j in enumerate(match):
            base[i][j] += 1
    if node.partial is not None:
        for i, j in enumerate(node.partial):
            base[i][j] += 1
        open_lefts = list(range(t, m))
        open_rights = sorted(set(range(m)) - set(node.partial))
        completions = [
            list(zip(open_lefts, perm))
            for perm in itertools.permutations(open_rights)
        ]
    else:
        completions = [[]]

    total = [0] * (n + 1)
    all_matchings = list(itertools.permutations(range(m)))
    for completion in completions:
        mult0 = [row[:] for row in base]
        for i, j in completion:
            mult0[i][j] += 1
        for extra in itertools.product(all_matchings, repeat=free):
            mult = [row[:] for row in mult0]
            for match in extra:
                for i, j in enumerate(match):
                    mult[i][j] += 1
            cp = _det_xid_minus(_adjacency(mult, m))
            for i, c in enumerate(cp):
                total[i] += c
    return UniPoly(tuple(Fraction(c, count) for c in total))


def brute_fixed_plus_permutation(
    a: Matrix, block: BlockSpec, cap: int = DEFAULT_CAP
) -> UniPoly:
    """Average of det(yI - (A + P_B)^T (A + P_B)) over all block
    permutations P_B; the block-free case degenerates to det(yI - A^T A)."""
    l = block.size
    count = _count_within_cap([l], cap, "permutations")
    m = a.nrows
    rows = list(a.entries)
    total = [0] * (m + 1)
    for perm in itertools.permutations(range(l)):
        z = [list(row) for row in rows]
        for bi, bj in enumerate(perm):
            z[block.rows[bi]][block.cols[bj]] += 1
        gram = [
            [sum(z[r][i] * z[r][j] for r in range(m)) for j in range(m)]
            for i in range(m)
        ]
        cp = _det_xid_minus(gram)
        for i, c in enumerate(cp):
            total[i] += c
    return UniPoly(tuple(Fraction(c, count) if count > 1 else c for c in total))
