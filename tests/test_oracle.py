"""The brute-force enumeration oracle itself."""

from fractions import Fraction

import pytest

from ramex.exact_algebra import UniPoly
from ramex.exact_linalg import BlockSpec, Matrix
from ramex.matching_family import NodeState, Params
from ramex.oracle import TooLarge, brute_expected_charpoly, brute_fixed_plus_permutation

from matrices import identity, zeros


def test_brute_expected_examples():
    assert brute_expected_charpoly(NodeState(), Params(4, 3)) == UniPoly(
        (27, 0, -12, 0, 1)
    )
    leaf = NodeState(((0, 1), (0, 1), (1, 0)))
    assert brute_expected_charpoly(leaf, Params(4, 3)) == UniPoly((9, 0, -10, 0, 1))
    assert brute_expected_charpoly(NodeState(), Params(2, 2)) == UniPoly((-4, 0, 1))


def test_brute_expected_partial_node():
    # partial [2']: forced completion to the identity matching, then two
    # random matchings; by relabeling symmetry this equals the root value
    node = NodeState((), (1,))
    assert brute_expected_charpoly(node, Params(4, 3)) == UniPoly((27, 0, -12, 0, 1))


def test_brute_expected_cap():
    with pytest.raises(TooLarge):
        brute_expected_charpoly(NodeState(), Params(8, 3), cap=100)


def test_caps_stop_counting_before_the_count_is_huge():
    """A count far past the cap is never formed in full nor printed: at
    m = 1000 it would have about 7,700 digits, past Python's int-to-str limit."""
    with pytest.raises(TooLarge, match="^the completions exceed cap 1000000$"):
        brute_expected_charpoly(NodeState(), Params(2000, 3))
    block = BlockSpec(tuple(range(5)), tuple(range(5)))
    with pytest.raises(TooLarge, match="^the permutations exceed cap 10$"):
        brute_fixed_plus_permutation(zeros(5), block, cap=10)
    # a leaf has one completion, and that is still past a cap of 0
    leaf = NodeState(((0, 1), (0, 1), (1, 0)))
    with pytest.raises(TooLarge, match="cap 0"):
        brute_expected_charpoly(leaf, Params(4, 3), cap=0)


def test_brute_fixed_plus_permutation_examples():
    full2 = BlockSpec((0, 1), (0, 1))
    assert brute_fixed_plus_permutation(zeros(2), full2) == UniPoly((1, -2, 1))
    assert brute_fixed_plus_permutation(identity(2), full2) == UniPoly((8, -6, 1))
    a = Matrix.from_rows([[1, 2], [3, 4]])
    empty = BlockSpec((), ())
    # block-free: det(yI - A^T A) with A^T A = [[10,14],[14,20]]
    assert brute_fixed_plus_permutation(a, empty) == UniPoly((4, -30, 1))


def test_brute_fixed_plus_permutation_averages_the_permutations():
    a = Matrix.from_rows([[1, 2], [0, 1]])
    got = brute_fixed_plus_permutation(a, BlockSpec((0, 1), (0, 1)))
    # identity perm: A + P = [[2,2],[0,2]], Gram [[4,4],[4,8]] -> y^2 - 12y + 16;
    # swap perm: A + P = [[1,3],[1,1]], Gram [[2,4],[4,10]] -> y^2 - 12y + 4
    ident = UniPoly((16, -12, 1))
    swap = UniPoly((4, -12, 1))
    assert got == Fraction(1, 2) * (ident + swap) == UniPoly((10, -12, 1))


def test_brute_fixed_plus_permutation_cap():
    a = zeros(5)
    with pytest.raises(TooLarge):
        brute_fixed_plus_permutation(a, BlockSpec(tuple(range(5)), tuple(range(5))), cap=10)
