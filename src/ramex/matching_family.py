"""Nodes of the matching tree and their half-adjacency matrices.

A node is a sequence of complete bipartite matchings plus an optional
partially specified matching that pairs left vertices 1..t in order.
Leaves carry exactly d complete matchings and combine into a d-regular
bipartite multigraph on n vertices.  All indices are 0-based internally
and 1-based in JSON.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from itertools import chain, repeat

from .exact_linalg import BlockSpec, Matrix


class IsLeaf(ValueError):
    """Child enumeration requested on a leaf node."""


class NotALeaf(ValueError):
    """Graph extraction requested on an incomplete node."""


class NotRegular(ValueError):
    """The multigraph is not d-regular bipartite."""


@dataclass(frozen=True)
class Params:
    """Problem size: n vertices total (even), degree d; m = n/2 per side."""

    n: int
    d: int

    def __post_init__(self):
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError("n must be an even integer >= 2")
        if self.d < 1:
            raise ValueError("d must be a positive integer")

    @property
    def m(self) -> int:
        return self.n // 2

    @property
    def q(self) -> int:
        """The Ramanujan bound, squared: 4(d - 1)."""
        return 4 * (self.d - 1)


@dataclass(frozen=True)
class NodeState:
    """A tree node: complete matchings plus an optional partial prefix.

    complete[k][i] is the right partner of left vertex i in the k-th
    complete matching; partial lists the right partners of left vertices
    0..t-1 (None when no matching is in progress).
    """

    complete: tuple = ()
    partial: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "complete", tuple(tuple(p) for p in self.complete))
        if self.partial is not None:
            object.__setattr__(self, "partial", tuple(self.partial))

    def is_leaf(self, params: Params) -> bool:
        return len(self.complete) == params.d and self.partial is None

    def validate(self, params: Params) -> None:
        m, d = params.m, params.d
        total = len(self.complete) + (1 if self.partial is not None else 0)
        if total > d:
            raise ValueError(f"node carries {total} matchings, more than d={d}")
        for match in self.complete:
            if len(match) != m or sorted(match) != list(range(m)):
                raise ValueError(f"not a permutation of 1..{m}: {[j + 1 for j in match]}")
        if self.partial is not None:
            t = len(self.partial)
            if not 1 <= t < m:
                raise ValueError(f"partial length {t} out of range 1..{m - 1}")
            if len(set(self.partial)) != t or any(not 0 <= j < m for j in self.partial):
                raise ValueError("partial partners must be distinct and in range")


@dataclass(frozen=True)
class Multigraph:
    """d-regular bipartite multigraph as an m x m edge-multiplicity matrix:
    every row and every column sums to d, or NotRegular is raised."""

    params: Params
    multiplicity: tuple

    def __post_init__(self):
        rows = tuple(map(tuple, self.multiplicity))
        object.__setattr__(self, "multiplicity", rows)
        m, d = self.params.m, self.params.d
        # one C-level pass each for shape, type, sign and each side's
        # degrees; a vertex is looked for only once its side has failed
        if len(rows) != m or set(map(len, rows)) - {m}:
            raise ValueError("multiplicity matrix must be m x m")
        entries = tuple(chain.from_iterable(rows))
        if not all(map(isinstance, entries, repeat(int))) or min(entries) < 0:
            raise ValueError("multiplicities must be nonnegative integers")
        for side, lines in (("left", rows), ("right", zip(*rows))):
            degrees = list(map(sum, lines))
            if degrees.count(d) != m:
                i = next(i for i, degree in enumerate(degrees) if degree != d)
                raise NotRegular(f"{side} vertex {i + 1} has degree {degrees[i]} != {d}")


def children(node: NodeState, params: Params) -> list[NodeState]:
    """Children in deterministic ascending-partner order.

    One child per right vertex that the partial (empty when none is open)
    leaves unmatched, extending it by that vertex; a child reaching length
    m is promoted to a complete matching.
    """
    if node.is_leaf(params):
        raise IsLeaf("leaf nodes have no children")
    m, partial = params.m, node.partial or ()
    kids = []
    for j in range(m):
        if j not in partial:
            extended = partial + (j,)
            if len(extended) == m:
                kids.append(NodeState(node.complete + (extended,), None))
            else:
                kids.append(NodeState(node.complete, extended))
    return kids


def half_adjacency(node: NodeState, params: Params) -> tuple[Matrix, BlockSpec]:
    """The fixed m x m edge-count matrix plus the random-block index sets.

    The block is (unmatched lefts) x (unmatched rights) while a partial
    matching is open, and empty otherwise: a fresh matching that is still
    pending is folded in by the engine, not averaged over a block.  The
    node is taken as valid: the engine validates every node it is given,
    and a leaf's ``Multigraph`` checks its own degrees.
    """
    m, partial = params.m, node.partial or ()
    counts = [[0] * m for _ in range(m)]
    for match in node.complete + (partial,):
        for i, j in enumerate(match):
            counts[i][j] += 1
    if node.partial is None:
        return Matrix.from_rows(counts), BlockSpec((), ())
    taken = set(partial)
    block = BlockSpec(range(len(partial), m), [j for j in range(m) if j not in taken])
    return Matrix.from_rows(counts), block


def leaf_graph(node: NodeState, params: Params) -> Multigraph:
    """Combine a leaf's d matchings into the edge-multiplicity matrix."""
    if not node.is_leaf(params):
        raise NotALeaf("node is not a leaf")
    return Multigraph(params, half_adjacency(node, params)[0].entries)


def node_to_json(node: NodeState) -> dict:
    """1-based JSON form: {"complete": [[...]], "partial": [...]}."""
    return {
        "complete": [[j + 1 for j in match] for match in node.complete],
        "partial": [j + 1 for j in node.partial] if node.partial is not None else [],
    }


def _json(value, kind: type):
    """A JSON integer or array (kind int or list), strictly: no bool, float,
    string, object or null is coerced into one."""
    if type(value) is not kind:
        raise ValueError(f"expected a JSON {'integer' if kind is int else 'array'}, got {value!r}")
    return value


def _json_int_rows(rows) -> tuple:
    """A JSON array of arrays of integers as a tuple of tuples, strictly as
    ``_json`` takes each: one pass over the entries' types, and on any
    fault a second, entry by entry, which raises the first bad entry's
    error (or the TypeError of a row that is no array)."""
    with contextlib.suppress(TypeError):
        out = tuple(map(tuple, rows))
        if set(map(type, chain.from_iterable(out))) <= {int}:
            return out
    return tuple(tuple(_json(x, int) for x in row) for row in rows)


def _json_object(data, keys: tuple, what: str) -> dict:
    """A JSON object with no key outside keys: a misspelt key is an error,
    not an absent one."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} JSON must be an object")
    for key in data:
        if key not in keys:
            raise ValueError(f"unknown key {key!r} in {what} JSON")
    return data


def node_from_json(data: dict, params: Params) -> NodeState:
    """The node of its 1-based JSON form; an absent "partial" means none."""
    if "complete" not in _json_object(data, ("complete", "partial"), "node"):
        raise ValueError("node JSON must be an object with a 'complete' key")
    matches = _json(data["complete"], list)
    complete = tuple(tuple(_json(j, int) - 1 for j in _json(match, list)) for match in matches)
    partial = tuple(_json(j, int) - 1 for j in _json(data.get("partial", []), list)) or None
    node = NodeState(complete, partial)
    node.validate(params)
    return node


def multigraph_to_json(graph: Multigraph) -> dict:
    return {
        "n": graph.params.n,
        "d": graph.params.d,
        "multiplicity": [list(row) for row in graph.multiplicity],
    }


def multigraph_from_json(data: dict) -> Multigraph:
    _json_object(data, ("n", "d", "multiplicity"), "multigraph")
    try:
        params = Params(_json(data["n"], int), _json(data["d"], int))
        rows = _json_int_rows(data["multiplicity"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed multigraph JSON: {exc}") from exc
    return Multigraph(params, rows)
