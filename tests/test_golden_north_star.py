"""North-star goldens: the sha256 of the `graph.json` and
`certificate.json` that a plain `build` writes at m >= 12, where a grid
node needs several primes and the last matching holds most of the walk.
Any change to the grid kernel, its prime count or its interpolation must
reproduce these builds byte for byte.

(24,3) and (32,3) run in tier-1.  (40,3) and (48,3) take minutes, so they
are marked slow and run only with `pytest -m slow`.
"""

import pytest

from test_golden import build_digests

# graph.json, certificate.json of plain builds
PLAIN_DIGESTS = {
    (24, 3): (
        "71610d43b4bfec79c29796ed428e279d64226c665b7f00e47e00e5393f73e3d3",
        "aece71343ce48d16854bf49c63df9fef9ecd9a1551eab06a961995dc1dbffb94",
    ),
    (32, 3): (
        "f7b4aac51b2410bd6326857cd3067d4a74c6637215df122a3d69075b2455a421",
        "bc657e4a16a255f575af54ddf2922231beab3b15f59f2bde350bf378e05d66e8",
    ),
    (40, 3): (
        "6b3c136c705170558e858c4fbb63baa0fdccc14bb847529bcb6a74b92628cdff",
        "940075be444d305a5f5954b1ea8392468dc692ededbacc98e16fe573c7b585c1",
    ),
    (48, 3): (
        "4db93a371834cad50ad618ac6e0dddd60feea88f4f534cd20092e6761894279b",
        "0d0110e4694e3484cd14b36ba08715352d51a9f6265b0b2a96db4b1e5d072d3e",
    ),
}

SLOW = {(40, 3), (48, 3)}


@pytest.mark.parametrize(
    "case",
    [pytest.param(case, marks=pytest.mark.slow) if case in SLOW else case for case in PLAIN_DIGESTS],
)
def test_north_star_plain_build_is_golden(case, tmp_path, capsys):
    n, d = case
    assert build_digests(tmp_path, n, d) == PLAIN_DIGESTS[case]
    capsys.readouterr()
