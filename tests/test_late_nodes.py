"""Late nodes at north-star sizes against an oracle outside the grid.

``late_nodes.json`` pins decided last-matching children of lazy (32,3)
and (48,3) walks, those with at most 5 and 4 open cells, each with the
exact value at sqrt(q) that the walk decided it by.  A last-matching node's
polynomial is the average of its l! leaves' nontrivial polynomials, and
``certify`` computes each leaf's by Hessenberg reduction, independent of
the grid's Berkowitz batch (the two share only the prime table and the
CRT), the counting weights and the folds; so the average at sqrt(q) must
equal both ``node_value`` and the pinned value.  No walk runs.
"""

import itertools
import json
import math
import pathlib
from fractions import Fraction

import pytest

from ramex.expectation_engine import node_value
from ramex.matching_family import NodeState, Params, leaf_graph, node_from_json
from ramex.ramanujan_walk import certify

_NODES = json.loads((pathlib.Path(__file__).parent / "late_nodes.json").read_text())


def _leaf_average(node: NodeState, params: Params) -> Fraction:
    """The mean of chi(sqrt(q)) over the node's completions, chi a leaf's
    nontrivial polynomial from ``certify``: one per order of the open
    right vertices on the open left ones."""
    open_rights = [j for j in range(params.m) if j not in node.partial]
    total = 0
    for rest in itertools.permutations(open_rights):
        leaf = NodeState(node.complete + (node.partial + rest,), None)
        coeffs = certify(leaf_graph(leaf, params)).nontrivial_poly.coeffs
        total += sum(c * params.q**i for i, c in enumerate(coeffs[::2]))
    return Fraction(total, math.factorial(len(open_rights)))


@pytest.mark.parametrize(
    "record",
    _NODES,
    ids=[f"n{r['n']}-l{r['n'] // 2 - len(r['node']['partial'])}-{i}" for i, r in enumerate(_NODES)],
)
def test_late_node_value_is_its_leaves_average(record):
    """A pinned last-matching node's value, its leaves' average and
    ``node_value`` are one number."""
    params = Params(record["n"], record["d"])
    node = node_from_json(record["node"], params)
    assert len(node.complete) == params.d - 1 and node.partial is not None
    average = _leaf_average(node, params)
    assert average == Fraction(record["value"])
    assert node_value(node, params) == average


def test_late_nodes_cover_both_walks():
    """The pinned set: 10 nodes (525 leaves) of lazy (32,3) with l <= 5
    and 6 (81 leaves) of lazy (48,3) with l <= 4."""
    leaves = {}
    for record in _NODES:
        l = record["n"] // 2 - len(record["node"]["partial"])
        assert l <= (5 if record["n"] == 32 else 4)
        count, total = leaves.get(record["n"], (0, 0))
        leaves[record["n"]] = count + 1, total + math.factorial(l)
    assert leaves == {32: (10, 525), 48: (6, 81)}
