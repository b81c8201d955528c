"""Node enumeration, half-adjacency assembly, leaf graphs, JSON forms."""

import tracemalloc
from collections import Counter

import pytest

from ramex.exact_linalg import BlockSpec
from ramex.matching_family import (
    IsLeaf,
    Multigraph,
    NodeState,
    NotALeaf,
    NotRegular,
    Params,
    children,
    half_adjacency,
    leaf_graph,
    multigraph_from_json,
    multigraph_to_json,
    node_from_json,
    node_to_json,
)


def test_params_validation():
    Params(4, 3)
    with pytest.raises(ValueError):
        Params(3, 3)
    with pytest.raises(ValueError):
        Params(0, 3)
    with pytest.raises(ValueError):
        Params(4, 0)


def test_children_of_root_n4():
    kids = children(NodeState(), Params(4, 3))
    assert kids == [NodeState((), (0,)), NodeState((), (1,))]


def test_children_forced_completion_promotes():
    kids = children(NodeState((), (1,)), Params(4, 3))
    assert kids == [NodeState(((1, 0),), None)]


def test_children_n6_partial():
    kids = children(NodeState((), (1,)), Params(6, 3))
    assert kids == [NodeState((), (1, 0)), NodeState((), (1, 2))]


def test_children_after_complete_matching_start_new_partial():
    node = NodeState(((0, 1),), None)
    kids = children(node, Params(4, 3))
    assert kids == [NodeState(((0, 1),), (0,)), NodeState(((0, 1),), (1,))]


def test_children_of_leaf_raises():
    leaf = NodeState(((0, 1), (0, 1), (1, 0)))
    with pytest.raises(IsLeaf):
        children(leaf, Params(4, 3))


def test_children_m1_promotes_immediately():
    kids = children(NodeState(), Params(2, 3))
    assert kids == [NodeState(((0,),), None)]


def test_half_adjacency_examples():
    params = Params(4, 3)
    mat, block = half_adjacency(NodeState(((0, 1),), (1,)), params)
    assert mat.entries == ((1, 1), (0, 1))
    assert block == BlockSpec((1,), (0,))

    mat, block = half_adjacency(NodeState(), params)
    assert mat.entries == ((0, 0), (0, 0))
    assert block == BlockSpec((), ())  # the pending fresh matching is folded

    mat, block = half_adjacency(NodeState(((0, 1), (0, 1), (1, 0))), params)
    assert mat.entries == ((2, 1), (1, 2))
    assert block == BlockSpec((), ())


def test_leaf_graph_examples():
    params = Params(4, 3)
    g = leaf_graph(NodeState(((0, 1), (0, 1), (1, 0))), params)
    assert g.multiplicity == ((2, 1), (1, 2))

    g = leaf_graph(NodeState(((0,), (0,), (0,))), Params(2, 3))
    assert g.multiplicity == ((3,),)

    g = leaf_graph(NodeState(((0, 1), (1, 0), (1, 0))), params)
    assert g.multiplicity == ((1, 2), (2, 1))

    with pytest.raises(NotALeaf):
        leaf_graph(NodeState(((0, 1),)), params)


def _leaf_multiset(node, params):
    """All leaves below a node, as a multiset of matching sequences."""
    if node.is_leaf(params):
        return Counter([node.complete])
    total = Counter()
    for child in children(node, params):
        total.update(_leaf_multiset(child, params))
    return total


def test_children_partition_completions():
    """The multiset union of the children's leaf sets equals the parent's,
    at every node small enough to enumerate."""
    for n, d in [(4, 2), (4, 3), (6, 2)]:
        params = Params(n, d)
        frontier = [NodeState()]
        while frontier:
            node = frontier.pop()
            if node.is_leaf(params):
                continue
            kids = children(node, params)
            merged = Counter()
            for child in kids:
                merged.update(_leaf_multiset(child, params))
            assert merged == _leaf_multiset(node, params)
            frontier.extend(kids)


def test_row_sum_invariant_random_nodes():
    params = Params(6, 3)
    nodes = [
        NodeState(((0, 1, 2),), (2,)),
        NodeState(((2, 0, 1), (1, 2, 0))),
        NodeState((), (2, 0)),
    ]
    for node in nodes:
        mat, _ = half_adjacency(node, params)
        assert [len(row) for row in mat.entries] == [3, 3, 3]
        t = len(node.partial or ())
        assert [sum(row) for row in mat.entries] == [
            len(node.complete) + (i < t) for i in range(3)
        ]


def test_node_state_validation():
    params = Params(6, 3)
    NodeState(((0, 1, 2),), (1,)).validate(params)
    with pytest.raises(ValueError):
        NodeState(((0, 1, 1),), None).validate(params)  # not a permutation
    with pytest.raises(ValueError):
        NodeState((), (1, 1)).validate(params)  # repeated partner
    with pytest.raises(ValueError):
        NodeState((), (0, 1, 2)).validate(params)  # partial as long as m
    with pytest.raises(ValueError):
        NodeState(((0, 1, 2),) * 4, None).validate(params)  # too many matchings
    for complete in (3, 4):  # a partial on d or more complete matchings is too many too
        with pytest.raises(ValueError, match="more than d=3"):
            NodeState(((0, 1, 2),) * complete, (0,)).validate(params)


def test_a_short_matching_is_rejected_on_its_length():
    """validate measures a complete matching before it compares it with
    1..m, so a short one costs nothing in proportion to n."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"not a permutation of 1\.\.1000000: \[1\]"):
            NodeState(((0,),)).validate(Params(2_000_000, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_node_json_round_trip():
    params = Params(6, 3)
    node = NodeState(((1, 2, 0),), (2,))
    data = node_to_json(node)
    assert data == {"complete": [[2, 3, 1]], "partial": [3]}
    assert node_from_json(data, params) == node

    root = NodeState()
    assert node_to_json(root) == {"complete": [], "partial": []}
    assert node_from_json(node_to_json(root), params) == root

    with pytest.raises(ValueError):
        node_from_json({"partial": [1]}, params)


def test_multigraph_json_round_trip():
    g = Multigraph(Params(4, 3), ((2, 1), (1, 2)))
    data = multigraph_to_json(g)
    assert data == {"n": 4, "d": 3, "multiplicity": [[2, 1], [1, 2]]}
    assert multigraph_from_json(data) == g
    with pytest.raises(ValueError):
        multigraph_from_json({"n": 4, "multiplicity": [[1]]})
    with pytest.raises(ValueError):
        Multigraph(Params(4, 3), ((1,), (1, 2)))


def test_multigraph_is_regular_by_construction():
    with pytest.raises(NotRegular, match="right vertex 1 has degree 4 != 3"):
        Multigraph(Params(4, 3), ((2, 1), (2, 1)))
    with pytest.raises(NotRegular, match="left vertex 2 has degree 2 != 3"):
        Multigraph(Params(4, 3), ((2, 1), (1, 1)))
