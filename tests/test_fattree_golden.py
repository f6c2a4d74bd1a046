"""Bit-identity pins for the butterfly fat-tree closed form, stage graph and wiring.

Each pin is a SHA-256 over the ``float.hex`` text of every number a solver
returns (or over the ``repr`` of the topology's link tables), so any change
in any bit of any output fails the test.  The values were taken from the
4-2 butterfly fat-tree code before it became the ``(4, 2)`` instance of the
generalized fat-tree, and must not move.

The load grid runs from zero load to past saturation for every size,
worm length and variant (asserted below), so the pins cover both the
finite branch and the ``inf`` propagation of the sweeps.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import ButterflyFatTree, ButterflyFatTreeModel, ModelVariant, bft_stage_graph
from repro.config import Workload

#: Flit loads (flits/cycle/PE); every (N, variant) saturates inside this grid.
FLIT_LOADS = (
    0.0, 0.002, 0.005, 0.01, 0.015, 0.02, 0.03, 0.05,
    0.1, 0.15, 0.2, 0.3, 0.5, 0.6, 0.7, 1.0,
)
SIZES = (4, 64, 4096)
FLITS = (16, 32)
VARIANTS = (
    "paper",
    "no_multiserver",
    "no_blocking_correction",
    "naive",
    "deterministic_scv",
    "exponential_scv",
    "conditional_up",
)
DETAIL_KEYS = ("rate", "down_service", "down_wait", "up_service", "up_wait")


def _digest_floats(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        values = np.asarray(array, dtype=float).ravel()
        h.update(",".join(float.hex(float(x)) for x in values).encode())
        h.update(b";")
    return h.hexdigest()


def _digest_text(*items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b";")
    return h.hexdigest()


def _rates(flits: int) -> np.ndarray:
    return np.array(FLIT_LOADS) / flits


CASES = [(n, f, v) for n in SIZES for f in FLITS for v in VARIANTS]


def _case_id(case) -> str:
    n, f, v = case
    return f"N{n}-f{f}-{v}"


# (N, flits, variant) -> digest of solve_batch's detail arrays, injection
# service/wait and latencies.
CLOSED_FORM = {
    (4, 16, "paper"): "2cbb7e9fef816a07b372a2f2a59238a995d43123133f893d815bf58ca1327ad9",
    (4, 16, "no_multiserver"): "2cbb7e9fef816a07b372a2f2a59238a995d43123133f893d815bf58ca1327ad9",
    (4, 16, "no_blocking_correction"): "5d3a189ee654ff79c04c1a0a4dcef9a1acf694dc917407330eaf668d3a8c1506",
    (4, 16, "naive"): "5d3a189ee654ff79c04c1a0a4dcef9a1acf694dc917407330eaf668d3a8c1506",
    (4, 16, "deterministic_scv"): "9b8ac39922098d2bf8669a737c1741f92af21e362289c8f9d13337c7d61fa3aa",
    (4, 16, "exponential_scv"): "caef5953fc24f4df59aa0abd75bff826c6ef3aac386716b213e6aaef3fb07467",
    (4, 16, "conditional_up"): "2cbb7e9fef816a07b372a2f2a59238a995d43123133f893d815bf58ca1327ad9",
    (4, 32, "paper"): "098424ea255cc9fba82f32e7f2aab6d822299d78e059cc260c456f0dec35e1a7",
    (4, 32, "no_multiserver"): "098424ea255cc9fba82f32e7f2aab6d822299d78e059cc260c456f0dec35e1a7",
    (4, 32, "no_blocking_correction"): "1eaa611ce978227eccd3692fe8813f643ae32d442ff2fb4dbf95cd350e45f348",
    (4, 32, "naive"): "1eaa611ce978227eccd3692fe8813f643ae32d442ff2fb4dbf95cd350e45f348",
    (4, 32, "deterministic_scv"): "d7ce11aa34d8fb95b9171c35f7cb701ab6a8e8d2f096c3a480e6f5cfeb53bf69",
    (4, 32, "exponential_scv"): "2ab529b9f97bcb2f4547aa645ca1eb76bf90ef7a5a0416c2c16e21685e56faa2",
    (4, 32, "conditional_up"): "098424ea255cc9fba82f32e7f2aab6d822299d78e059cc260c456f0dec35e1a7",
    (64, 16, "paper"): "dfb2dbf81f30d0f43940765c20dd78d5df5ea2beecbd0c5cc27bf9e96b9d7b04",
    (64, 16, "no_multiserver"): "eb187acb472bfb1d4619c7d70812407b16f6042639b1d2ef2fbd1a7d576d2ae5",
    (64, 16, "no_blocking_correction"): "9513aa913e0a187dc83785edfd1c16a7b5171b39b3eaf5c0898a1fd56d2a8a50",
    (64, 16, "naive"): "c0fbb1415800fddf77e7ba258bb1eaa4837b70a6afb655313b8e8b770629f702",
    (64, 16, "deterministic_scv"): "d41504bb98d0461692a1c15472b9b6ea204c52be65f83a78d470b912437f94e6",
    (64, 16, "exponential_scv"): "5402c2b014abf49737a714b2b6bc1100bec9360c75f68af8165ba04a00140c6f",
    (64, 16, "conditional_up"): "a342ffa26056c1afca3f3595fc685cf75e9177d113f277ab7cd7dc6c17cb9d7e",
    (64, 32, "paper"): "81de947245e47d32b0b0c49f048afd1d2f55b6b2abe85ca6686958f4a3cd0323",
    (64, 32, "no_multiserver"): "9fd77059b415e4f8e06820300cf5e3937a0328db798c50ead4777e79d750a724",
    (64, 32, "no_blocking_correction"): "ba62f2fca7e334c4707e5e24c94daff578cad12e84cad34ce5760e1948b780fe",
    (64, 32, "naive"): "9d0bdc40932b43cbd7fba10ebd144a721d38516ac3414b04a71c2bcb3d4619dc",
    (64, 32, "deterministic_scv"): "489074416407458aa620c984d2a00563d790a0539030d05a23fb7d218f3012af",
    (64, 32, "exponential_scv"): "907f54face551d1f01c175b80a8400b4032cd21d89d27c4998328e20baa38227",
    (64, 32, "conditional_up"): "eea6752062cbd33b8ff9449af2e671068b185121990e392585e958765ba56c75",
    (4096, 16, "paper"): "0698743917c146f8b06d2d92abe0add5d1ea33e38f8ac2c3f70480df10f85955",
    (4096, 16, "no_multiserver"): "f9ee736c7c5a80f7b1e2cff86b959f42e10316c5a9abbb1a71e6bb1a1679c867",
    (4096, 16, "no_blocking_correction"): "f48cab9e46c3fc2b379ab69683642b1fa99829f9531acfa4ad54ecbbb7680334",
    (4096, 16, "naive"): "273e100618b7064b9d023b394e866f90a014cd66929d4587cee1273ef5296300",
    (4096, 16, "deterministic_scv"): "439d0f38c277b7089872ae83759d06641a6807b596212efe4026a7b81e9cd3bb",
    (4096, 16, "exponential_scv"): "22497daca0a1394018782fe4e5cc45aae65b77748de18550a1ef769303d1bba1",
    (4096, 16, "conditional_up"): "7089f2ccf4bbecfe64a4aea5c8c3cda59e789f0929ed04eebed43881c4136923",
    (4096, 32, "paper"): "41ce4c16aba90ebbd1caaf722c9fa7991b376342e551605dbc908d228aa33793",
    (4096, 32, "no_multiserver"): "b556be48a5fe7fb849c50b6cb81d2e9eabf4eb7b147a6362dfef1a6feb3b8917",
    (4096, 32, "no_blocking_correction"): "d175379a316bebc14009945a30adffdae06f8bc17d8173f57ddc4f836d79b1ad",
    (4096, 32, "naive"): "9da16147e3df3a44cb984ba22becd7e849aae3e594e1124d3d8a2e7bb49a0351",
    (4096, 32, "deterministic_scv"): "d556c87490ac8f8fec2c97da7cbe09bbba62d052b21fa499bf1b4888b7fe06a3",
    (4096, 32, "exponential_scv"): "19f884ec4dafc2e1a459cd8b67fcc717a3f6d45e72889ef6f8f75236533408a0",
    (4096, 32, "conditional_up"): "3c288887346961c4398b5b4339fe6c6efd092b6c2b8fc0dc2d8009e82eb95be3",
}

# (N, flits, variant) -> digest of bft_stage_graph(...).latency_batch.
STAGE_GRAPH = {
    (4, 16, "paper"): "57e378988852124c59efcbbe26d95175dd586bd3b1e739969a7c08abdebdb8a0",
    (4, 16, "no_multiserver"): "57e378988852124c59efcbbe26d95175dd586bd3b1e739969a7c08abdebdb8a0",
    (4, 16, "no_blocking_correction"): "e96adf8693429fab2bb890a3383089f20d61c0e3b5db1f5391f1ab2436e858e8",
    (4, 16, "naive"): "e96adf8693429fab2bb890a3383089f20d61c0e3b5db1f5391f1ab2436e858e8",
    (4, 16, "deterministic_scv"): "b5580b61eea2b7efc374ebf238a1e767fbdd3c6a59cfd0adc068ff592d659d33",
    (4, 16, "exponential_scv"): "ead17faf5a009ef9365f8225e6034761da3cc273756080e8ade42dac1e68f0dd",
    (4, 16, "conditional_up"): "57e378988852124c59efcbbe26d95175dd586bd3b1e739969a7c08abdebdb8a0",
    (4, 32, "paper"): "578164c7787e822431310b53f71640d7eb24daad3e16ce299fcbaf6f185d618a",
    (4, 32, "no_multiserver"): "578164c7787e822431310b53f71640d7eb24daad3e16ce299fcbaf6f185d618a",
    (4, 32, "no_blocking_correction"): "78f239e593a618d01e03fae314b5e979345e51e929ab4457ccdf07b3de9c482a",
    (4, 32, "naive"): "78f239e593a618d01e03fae314b5e979345e51e929ab4457ccdf07b3de9c482a",
    (4, 32, "deterministic_scv"): "a14c469af91414bd23b6b06395159f1c3ac5452bfe6f53325269cb2b11f1181e",
    (4, 32, "exponential_scv"): "d094dbb9a9740ae43fcc65a99375d3213bda2e32acf006edc5d3be27936dea11",
    (4, 32, "conditional_up"): "578164c7787e822431310b53f71640d7eb24daad3e16ce299fcbaf6f185d618a",
    (64, 16, "paper"): "db3414916473ca64f608073b8271b41bd5de50622ecd57e6023ad6871e82cd3c",
    (64, 16, "no_multiserver"): "faf62e2b68867ef0ee580174acec703619724c744cc724097289d0787ba1e9e1",
    (64, 16, "no_blocking_correction"): "7a324d662473f8f92cec9085a6c9de010a6631818845ae7905bd4ea946a19ab7",
    (64, 16, "naive"): "124acbe9b5b5fa19e715c8856e7816ece36b10c6c3b01fcf7f52bf001d422184",
    (64, 16, "deterministic_scv"): "679e5bf17c9ea47d6365982929b1622dde95f5deb8cc97f849d7cfc1e11d7885",
    (64, 16, "exponential_scv"): "242283cfab3175cc10b7b20873890e37a8ecdc63835604b8ff47be412acfac03",
    (64, 16, "conditional_up"): "cf66c22ff9381be72a5a02b47757a6d6cb2394f9b1aed0d005ba2d4e380fa1bb",
    (64, 32, "paper"): "23f856b73c2094f64a0358c40576a32640f9569bccbdc2f4dcda1a6197635138",
    (64, 32, "no_multiserver"): "1cd7507583f250d49b202084d80c6ef8615ed3b29c86a7f41e1aa97ef91eab06",
    (64, 32, "no_blocking_correction"): "1861cc255bffb4ffdcddab0c926d77a97a39e030e1e9872c9441e71d29fa2eec",
    (64, 32, "naive"): "081eb135bc084284536d6117edd1525e18aa3e34995cd720dec2a876ad16d171",
    (64, 32, "deterministic_scv"): "efef81cfc6ce7ae704801f5ba267917a195ba0dd3768387d2e56628c3064164f",
    (64, 32, "exponential_scv"): "e62cbcc071b9e84dd6ef91ab8c69804c18ccc9fcbbd786eb83592495d005a037",
    (64, 32, "conditional_up"): "b008b323fd220db1978fc82887d1697a1d1c1d017c83a7719a611763be9a215b",
    (4096, 16, "paper"): "95b05707464ef311c69e8b8fafef44995e081ab70fd06b3de892be2cc835044e",
    (4096, 16, "no_multiserver"): "db4a5c5454e2caafe747d5781072a6a8655bf4122d77df7d249dfedf4bd9d4de",
    (4096, 16, "no_blocking_correction"): "d5cc89da28c2601873bc28ab092cc446abbb154c150d6048b27a56c69107c1e2",
    (4096, 16, "naive"): "ae2ac4c7be6d9f78fd2abe0c347ade3a37d5d5369fad164ba659f8e8e1204c7a",
    (4096, 16, "deterministic_scv"): "f7ad9a8022ff0d3b583657c3542ce94bf86958f8ccfa4179a224e83c44b135c4",
    (4096, 16, "exponential_scv"): "d9e34f60f2f6dbea3059d6a0fa8617f3060397390adda0c85995e092ecf769f8",
    (4096, 16, "conditional_up"): "34ab78b2a2c6c9d4af9a2cd7adbef17602f85778d236a8c6480844ab2524ca68",
    (4096, 32, "paper"): "219a24c4567f46831dc38a69c3066b5874d205836a9a1e88f9510f11e3348455",
    (4096, 32, "no_multiserver"): "7d145d536eef52f5a7acbcaf16290d8e8196e0ed19fe62076036fc6662c77481",
    (4096, 32, "no_blocking_correction"): "0915af8d6e866e21586941fbce17fef30942eb14bb4130e85c09b23c624724f4",
    (4096, 32, "naive"): "fe05f9410099bfe956455fbe0986d86cf694316142dba858cbc8ad75aa204dd4",
    (4096, 32, "deterministic_scv"): "21100a62cd4cb15cad6ecefbe3c7314fbc151780bd7105ddf798fc88bcf13e45",
    (4096, 32, "exponential_scv"): "140476b981dc868f270d72a6fda233be5a187b1e93d63cc1a144ac3049f23577",
    (4096, 32, "conditional_up"): "b776a35863f84bb01c8f5854b6754fd5b3c99cd529a3fc4ab7044f7b9ac36a40",
}

# ButterflyFatTree(256): link_src, link_dst, link classes, groups.
LINKS_256 = "6eaca10590502f95a91536de041ed7376e9a22795c7151d55fb53396dac88c19"
# ButterflyFatTree(256): every switch record, in node order.
SWITCHES_256 = "9f3591c39a02536ac744d14bb9bfa8aeb4d9bb617670636991ee004db0ecbc01"
# ButterflyFatTree(64): injection options of every PE, then route options
# of every (switch, destination) pair.
ROUTES_64 = "0a990cde9b4ec21e1c8ed3960d11c79da0eb9345c389d6f8cebc5f4f0503b587"


def closed_form_digest(n: int, flits: int, variant: str) -> str:
    model = ButterflyFatTreeModel(n, getattr(ModelVariant, variant)())
    batch = model.solve_batch(_rates(flits), flits)
    return _digest_floats(
        *(batch.details[k] for k in DETAIL_KEYS),
        batch.injection_service,
        batch.injection_wait,
        batch.latencies,
    )


def stage_graph_digest(n: int, flits: int, variant: str) -> str:
    graph = bft_stage_graph(n, Workload(flits, 0.001), getattr(ModelVariant, variant)())
    return _digest_floats(graph.latency_batch(_rates(flits), flits))


def links_digest(topo: ButterflyFatTree) -> str:
    classes = [(c.direction, c.level) for c in topo.link_class]
    return _digest_text(topo.link_src, topo.link_dst, classes, topo.groups)


def switches_digest(topo: ButterflyFatTree) -> str:
    records = []
    for level in range(1, topo.levels + 1):
        for a in range(topo.switches_at_level(level)):
            s = topo.switch(level, a)
            records.append(
                (
                    s.level, s.address, s.node_id, s.block_lo, s.block_hi,
                    s.down_links, s.down_targets, s.subblock_port,
                    s.up_links, s.up_targets,
                )
            )
    return _digest_text(records)


def routes_digest(topo: ButterflyFatTree) -> str:
    options = [topo.injection_options(p) for p in range(topo.num_processors)]
    for node in range(topo.num_processors, topo.num_nodes):
        for dst in range(topo.num_processors):
            options.append(topo.route_options(node, dst))
    return _digest_text([(o.links, o.next_nodes) for o in options])


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_closed_form_bits(case):
    assert closed_form_digest(*case) == CLOSED_FORM[case]


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_stage_graph_bits(case):
    assert stage_graph_digest(*case) == STAGE_GRAPH[case]


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_grid_crosses_saturation(case):
    n, flits, variant = case
    model = ButterflyFatTreeModel(n, getattr(ModelVariant, variant)())
    finite = np.isfinite(model.latency_batch(_rates(flits), flits))
    assert finite[0] and not finite[-1]


def test_topology_links_bits(bft256):
    assert links_digest(bft256) == LINKS_256


def test_topology_switch_records_bits(bft256):
    assert switches_digest(bft256) == SWITCHES_256


def test_topology_routes_bits(bft64):
    assert routes_digest(bft64) == ROUTES_64
