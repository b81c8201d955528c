"""Golden outputs: the sha256 of every file `build` writes and of
`node-poly --ctensor`, pinned so that any change to the exact pipeline
that moves a byte of output fails here.

`transcript.json` is hashed without its wall-clock `elapsed_ms`, re-dumped
the way the CLI writes it.  A traced build runs the audited walk and a
plain one the lazy walk; both must write the same graph and certificate.
A deliberate, versioned format change updates these digests in the same
commit.
"""

import hashlib
import json

import pytest

from ramex.cli import main

# graph.json, certificate.json, transcript.json (without elapsed_ms)
BUILD_DIGESTS = {
    (4, 3): (
        "e3aac702deda8248dfcffa88476544cf0d5ccb880bbcefebb2848d9d28942833",
        "7c4e159e7353f0ade62ea5926ac5dc4010dcf243fcbc784cf573d5ea89045ff2",
        "abc6e01400df99177f9c223cbb01146bb7c246d3382ada6d3a08ae4c7a74022c",
    ),
    (4, 4): (
        "309f29f620431ebb881dd2596e48e6690938944498a011b43f5244b1d8a7a81d",
        "d81b0a961990fd7e3e4bd065e399638326ef69a5aaa07c91f37d7aff9f879fde",
        "6229f0c3f4d60312d0547ccc7ac08c17e68843b2398640a46e29196340c71150",
    ),
    (6, 3): (
        "c5f578dc0aab4d6a2447f871386c99ee7f0200ade9b792829f8bb1710d5cfb72",
        "b0f95e843150c6f92c438eecda565d330d980fc8edfa50f5703a24c30f89597d",
        "4b5e64bcfe77ecfa7de7e904da246e98c9160e6305141a995079d3f4887c5aa3",
    ),
    (6, 4): (
        "edcc6b65bdc08acdb8dc787ac138e7163cf3d2c6acf306dc1d2f1e442c3cbc3e",
        "a4a1b55bf75b335cf95374aafb63bf1c6abe00c205ee45494c0861657d219fbf",
        "3cf01c98e7681e873dd8c19f593c061fea3842967463b8e5197887886c5ad493",
    ),
    (8, 3): (
        "3e9950cbb25c50bb675315c713908b5efe56dd9d907f1eea59b6b7a3c8aa49a7",
        "b057603fa4cd047d36bb277a11c18c00c0280a5cf99b6efa96bf7d21fa092b9c",
        "a5dc869621f0ad4d6fc8540cb04ddcd8b0469a18b4897a722f540154f1b81ac7",
    ),
    (8, 4): (
        "c295d150812dd34444266b24680fecf408d3767fefa4ec2da0d24f8c01147440",
        "c919d70c9c8295c4c162d90bcfa44d63c21c3a5d0fea216f447dee3913b03ce7",
        "fa9d6bb178cb2912296874efef7bb665b415a3950bd2791d4d4d9038c25a6e88",
    ),
    (10, 3): (
        "06e672d3b223c5bf1aaa0819322ee0a86ee6ec4cee43870a6a37e0a527ec8a18",
        "b88ab652fa274254320b7ea53f90ca2a08190f982d14b2eae20cecbb337f2a02",
        "16c5f4d77932bc564d6ddf5f93483780751f38a9b206f07b0499212032ca193c",
    ),
    (10, 4): (
        "12db7746599f1bc52c9d3b5c914cb212d83475d1b8be84c6cc4c03077b8f9f4a",
        "e34aada928eefea176170be55d8f714b8818957b00c82d848c959264b4ca3ef0",
        "d74d65cdf8125695f1e0b9907af247f944f49f77fcccc236514021bfc8e02133",
    ),
    (12, 3): (
        "8c839ed66f5570e42e332216f56ee969252f30ba8b7026a5882bb2e90e92c9fe",
        "7877c42607b528ada0e901004e4166b3a7c171e9fe09d3a98cc35282b41e6691",
        "21be688a8a2aef5a9980ce1a21b8facdcbf9a62f276bfa8830878d0fd82f5214",
    ),
    (14, 3): (
        "f92f04ecb4ef92e785c816d341857e16ac99719cf688a5ca6d07fb659bd63f4b",
        "55bd07d168f6c802ab68a1803999beff90b3e22287238e447052fd4cba9e0bd5",
        "d91b33f5c8e3795c74cf56dcaf2ca209c93ef089c885c6c8eb87de3dab7e111b",
    ),
    (10, 6): (
        "ed70de570ae498571f7f2a0cf6a231ff6141cec9add3cdaff421042129fadca1",
        "c703c8be5ac2563dd0442d60ba7b4df31b2a3421d1d921097fcfafbe0d07d38a",
        "29eba36b280c4319bc5f8b9f2f0275eef03706ec983a8f2406a3bacf3e1d1707",
    ),
}

# node-poly --ctensor output on (8,3) nodes: the root (l_hat = 0, its
# fresh matching is folded), a partial node (l_hat = 2) and a leaf (l_hat = 0)
NODE_DIGESTS = {
    '{"complete": [], "partial": []}':
        "7e8942bbfc0b3e2864f1c93baa5a4b66bdf4b54a12023c9c957aed0a92e612a5",
    '{"complete": [[1, 2, 3, 4]], "partial": [2]}':
        "63afdbbf3da69ccf9b84bcc854ae803abd30778dd411037c3263a2f538b70c6e",
    '{"complete": [[1, 2, 3, 4], [2, 1, 4, 3], [3, 4, 1, 2]], "partial": []}':
        "42594fd14cf8f789084c3f5f3dfcae77874edb03e80628bf61cb21bf1251c501",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def build_digests(out, n: int, d: int, *extra: str) -> tuple:
    assert main(["build", "--n", str(n), "--d", str(d), "--out", str(out), *extra]) == 0
    graph_and_cert = (
        _sha256((out / "graph.json").read_bytes()),
        _sha256((out / "certificate.json").read_bytes()),
    )
    if "--trace" not in extra:
        return graph_and_cert
    transcript = json.loads((out / "transcript.json").read_text())
    del transcript["elapsed_ms"]
    return graph_and_cert + (_sha256((json.dumps(transcript, indent=2) + "\n").encode()),)


def node_digest(node: str, capsys) -> str:
    capsys.readouterr()
    assert main(["node-poly", node, "--n", "8", "--d", "3", "--ctensor"]) == 0
    return _sha256(capsys.readouterr().out.encode())


@pytest.mark.parametrize("case", sorted(BUILD_DIGESTS))
def test_build_outputs_are_golden(case, tmp_path, capsys):
    n, d = case
    assert build_digests(tmp_path, n, d, "--trace") == BUILD_DIGESTS[case]
    capsys.readouterr()


@pytest.mark.parametrize("case", sorted(BUILD_DIGESTS))
def test_plain_build_outputs_are_golden(case, tmp_path, capsys):
    n, d = case
    assert build_digests(tmp_path, n, d) == BUILD_DIGESTS[case][:2]
    capsys.readouterr()


@pytest.mark.parametrize("node", sorted(NODE_DIGESTS))
def test_node_poly_ctensor_is_golden(node, capsys):
    assert node_digest(node, capsys) == NODE_DIGESTS[node]
