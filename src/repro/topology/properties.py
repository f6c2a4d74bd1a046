"""Analytic and graph-based network properties.

The analytical model needs the average message distance ``D_bar`` (Eq. 2 /
Eq. 25) and the destination-distance distribution under uniform traffic.
These are computed in closed form here, and cross-checked against explicit
path enumeration (via networkx on small instances) in the test suite;
networkx is imported only by those enumeration helpers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from ..errors import ConfigurationError
from .base import SimTopology

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "bft_distance_distribution",
    "bft_average_distance",
    "generalized_average_distance",
    "hypercube_average_distance",
    "kary_ncube_average_distance",
    "to_networkx",
    "average_distance_by_enumeration",
]


def bft_distance_distribution(levels: int) -> list[float]:
    """P(nearest common ancestor at level ``l``) for uniform traffic.

    For a butterfly fat-tree with ``N = 4**levels`` leaves and a uniformly
    random destination different from the source, the NCA sits at level
    ``l`` (so the path length is ``2*l``) with probability
    ``(4**l - 4**(l-1)) / (4**levels - 1)`` for ``l = 1..levels``.
    Returns a list indexed ``0..levels`` (index 0 has probability 0).
    """
    if levels < 1:
        raise ConfigurationError(f"levels must be >= 1, got {levels!r}")
    denom = 4**levels - 1
    dist = [0.0]
    for l in range(1, levels + 1):
        dist.append((4**l - 4 ** (l - 1)) / denom)
    return dist


def generalized_average_distance(children: int, levels: int) -> float:
    """Average shortest-path link count ``D_bar`` of a radix-``c`` fat-tree.

    A uniform destination other than the source shares its level-``l``
    block but not its level-``(l-1)`` block with probability
    ``(c^l - c^(l-1)) / (c^n - 1)``, and then lies ``2*l`` links away, so
    ``D_bar = sum_l 2*l * (c^l - c^(l-1)) / (c^n - 1)``; evaluated in exact
    rational arithmetic before converting to float.
    """
    if children < 2 or levels < 1:
        raise ConfigurationError("children must be >= 2 and levels >= 1")
    denom = children**levels - 1
    total = Fraction(0)
    for l in range(1, levels + 1):
        total += Fraction(2 * l * (children**l - children ** (l - 1)), denom)
    return float(total)


def bft_average_distance(levels: int) -> float:
    """Average shortest-path link count ``D_bar`` of the butterfly fat-tree."""
    return generalized_average_distance(4, levels)


def hypercube_average_distance(dimension: int) -> float:
    """Average path length (network hops + injection + ejection) of a d-cube.

    The Hamming distance to a uniform destination (excluding self) averages
    ``d * 2**(d-1) / (2**d - 1)``; the injection and ejection channels add 2.
    """
    if dimension < 1:
        raise ConfigurationError(f"dimension must be >= 1, got {dimension!r}")
    n = 1 << dimension
    return dimension * (n // 2) / (n - 1) + 2


def kary_ncube_average_distance(radix: int, dimensions: int) -> float:
    """Average path length of the unidirectional k-ary n-cube (plus inject/eject).

    Per-dimension hop counts are uniform on ``{0..k-1}`` over all
    destinations including self; excluding the self destination rescales by
    ``k**n / (k**n - 1)``.
    """
    if radix < 2 or dimensions < 1:
        raise ConfigurationError("radix must be >= 2 and dimensions >= 1")
    n_nodes = radix**dimensions
    mean_incl_self = dimensions * (radix - 1) / 2.0
    return mean_incl_self * n_nodes / (n_nodes - 1) + 2


def to_networkx(topology: SimTopology) -> nx.DiGraph:
    """Materialize a topology's link list as a directed multigraph-free graph.

    Parallel links (the fat-tree's redundant up pairs) collapse onto a single
    edge; the graph is intended for reachability/distance cross-checks, not
    for capacity analysis.
    """
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(range(getattr(topology, "num_nodes", topology.num_processors)))
    for e in range(topology.num_links):
        g.add_edge(topology.link_src[e], topology.link_dst[e], link=e)
    return g


def average_distance_by_enumeration(topology: SimTopology) -> float:
    """Mean shortest-path length over all ordered PE pairs (graph-based).

    Exponential in nothing but quadratic in N — use on small instances only
    (the test suite limits itself to a few hundred PEs).
    """
    import networkx as nx

    g = to_networkx(topology)
    n = topology.num_processors
    total = 0
    count = 0
    for src in range(n):
        lengths = nx.single_source_shortest_path_length(g, src)
        for dst in range(n):
            if dst == src:
                continue
            if dst not in lengths:
                raise ConfigurationError(f"PE {dst} unreachable from {src}")
            total += lengths[dst]
            count += 1
    return total / count


def describe_topology(topology: SimTopology) -> dict:
    """Summary statistics used by examples and experiment logs."""
    n = topology.num_processors
    classes: dict[str, int] = {}
    for cls in topology.link_class:
        key = str(cls)
        classes[key] = classes.get(key, 0) + 1
    group_sizes: dict[int, int] = {}
    for members in topology.groups:
        group_sizes[len(members)] = group_sizes.get(len(members), 0) + 1
    return {
        "processors": n,
        "links": topology.num_links,
        "links_per_class": classes,
        "groups_by_size": group_sizes,
    }
