"""Generalized (c-child, p-parent) butterfly fat-trees: the one fat-tree builder.

The paper's butterfly fat-tree is the ``(c, p) = (4, 2)`` member of a
family: every switch has ``c`` child ports and ``p`` parent ports, levels
hold ``c^(n-l) * p^(l-1)`` switches, and a worm heading up chooses among
``p`` redundant parent links.  The paper's conclusion anticipates exactly
this generalization ("the framework can be extended for networks that
require queuing models with more than two servers").
:class:`~repro.topology.butterfly_fattree.ButterflyFatTree` is the
``(4, 2)`` instance of :class:`GeneralizedFatTree`.

Wiring generalizes the paper's formulas (Section 3.1) by replacing the
radix 4 with ``c`` and the redundancy 2 with ``p``:

* processor ``P(0, a)`` connects to ``child_(a mod c)`` of ``S(1, a div c)``;
* ``parent_j`` of ``S(l, a)`` connects to ``child_i`` of
  ``S(l+1, (a div (c * p**(l-1))) * p**l + (a + j * p**(l-1)) mod p**l)``
  for ``j = 0 .. p-1``;
* ``i = (a mod (c * p**(l-1))) div p**(l-1)``.

Switch ``S(l, a)`` covers the leaf block of size ``c**l`` with index
``a div p**(l-1)``.  The construction *verifies* the structure: each
switch's children cover equal sub-blocks that partition its block, every
parent's block contains it, and every non-root switch has exactly ``p``
up links.  So shortest paths are ``2 * nca`` links, the down path is
unique, and any of the ``p`` up-links is equally good.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError, RoutingError, TopologyError
from ..util.validation import check_fattree_shape
from .base import DOWN, UP, LinkClass, RouteOptions

__all__ = ["GeneralizedFatTree", "generalized_nca_level"]


def generalized_nca_level(src: int, dst: int, children: int) -> int:
    """Level of the nearest common ancestor of leaves ``src`` and ``dst``.

    This is the smallest ``l`` with ``src div c**l == dst div c**l``; a
    message from ``src`` to ``dst`` climbs exactly to this level, so the
    shortest path length is ``2 * generalized_nca_level(src, dst, c)`` links.
    """
    if src < 0 or dst < 0:
        raise ConfigurationError("leaf addresses must be non-negative")
    if children < 2:
        raise ConfigurationError("children must be >= 2")
    level = 0
    a, b = src, dst
    while a != b:
        a //= children
        b //= children
        level += 1
    return level


@dataclass
class _Switch:
    """Internal per-switch routing state."""

    level: int
    address: int
    node_id: int
    block_lo: int  # first leaf reachable downward
    block_hi: int  # one past the last leaf reachable downward
    # down_links[i] = link index leaving child port i (toward level-1 nodes)
    down_links: list[int] = field(default_factory=list)
    down_targets: list[int] = field(default_factory=list)
    # child port covering each c-th of [block_lo, block_hi)
    subblock_port: list[int] = field(default_factory=list)
    up_links: list[int] = field(default_factory=list)
    up_targets: list[int] = field(default_factory=list)


class GeneralizedFatTree:
    """A ``(children, parents)`` butterfly fat-tree with ``children**levels`` PEs.

    Implements :class:`repro.topology.base.SimTopology`.  Construction cost
    is ``O(N)``; routing queries are ``O(1)`` after construction.

    Parameters
    ----------
    children:
        Child ports per switch (block radix ``c``), at least 2.
    parents:
        Parent ports per switch (up-link redundancy ``p``), at least 1.
    levels:
        Number of switch levels ``n``; the machine has ``c**n`` processors.
    """

    def __init__(self, children: int, parents: int, levels: int) -> None:
        check_fattree_shape(children, parents, levels)
        self.children = children
        self.parents = parents
        self.levels = levels
        self.num_processors = children**levels
        c, p, n = children, parents, levels

        self._switches_at = [0] * (n + 1)
        self._level_base_node = [0] * (n + 1)
        self._switches: dict[int, _Switch] = {}
        node_id = self.num_processors
        for level in range(1, n + 1):
            count = c ** (n - level) * p ** (level - 1)
            self._switches_at[level] = count
            self._level_base_node[level] = node_id
            per_block = p ** (level - 1)
            for a in range(count):
                g = a // per_block
                lo = g * c**level
                self._switches[node_id] = _Switch(
                    level=level,
                    address=a,
                    node_id=node_id,
                    block_lo=lo,
                    block_hi=lo + c**level,
                    down_links=[-1] * c,
                    down_targets=[-1] * c,
                    subblock_port=[-1] * c,
                )
                node_id += 1
        self.num_nodes = node_id

        link_src: list[int] = []
        link_dst: list[int] = []
        link_cls: list[LinkClass] = []

        def add_link(src: int, dst: int, cls: LinkClass) -> int:
            link_src.append(src)
            link_dst.append(dst)
            link_cls.append(cls)
            return len(link_src) - 1

        # PE <-> level-1 switch links (channels <0,1> and <1,0>).
        self._inject_link = [-1] * self.num_processors
        self._inject_target = [-1] * self.num_processors
        for pe in range(self.num_processors):
            sw = self._switch_node(1, pe // c)
            child = pe % c
            up = add_link(pe, sw, LinkClass(UP, 0))
            down = add_link(sw, pe, LinkClass(DOWN, 0))
            self._inject_link[pe] = up
            self._inject_target[pe] = sw
            s = self._switches[sw]
            if s.down_links[child] != -1:
                raise TopologyError(f"child port {child} of switch (1,{pe // c}) wired twice")
            s.down_links[child] = down
            s.down_targets[child] = pe

        # Inter-switch links per the (generalized) parent formulas.
        for level in range(1, n):
            per_block = p ** (level - 1)
            merge = c * per_block  # level-l switches per level-(l+1) block
            for a in range(self._switches_at[level]):
                child_port = (a % merge) // per_block
                lower = self._switch_node(level, a)
                base = (a // merge) * p**level
                for j in range(p):
                    pa = base + (a + j * per_block) % p**level
                    upper = self._switch_node(level + 1, pa)
                    up = add_link(lower, upper, LinkClass(UP, level))
                    down = add_link(upper, lower, LinkClass(DOWN, level))
                    self._switches[lower].up_links.append(up)
                    self._switches[lower].up_targets.append(upper)
                    ps = self._switches[upper]
                    if ps.down_links[child_port] != -1:
                        raise TopologyError(
                            f"child port {child_port} of switch ({level + 1},{pa}) wired twice"
                        )
                    ps.down_links[child_port] = down
                    ps.down_targets[child_port] = lower

        self.link_src = link_src
        self.link_dst = link_dst
        self.link_class = link_cls
        self.num_links = len(link_src)
        self._verify_and_index()
        self._build_groups()

    # --- construction helpers ---------------------------------------------------

    def _switch_node(self, level: int, address: int) -> int:
        if not (1 <= level <= self.levels):
            raise TopologyError(f"no switch level {level}")
        if not (0 <= address < self._switches_at[level]):
            raise TopologyError(f"switch address {address} out of range at level {level}")
        return self._level_base_node[level] + address

    def _verify_and_index(self) -> None:
        """Map each c-th of a switch's leaf block to the child port serving it.

        Verifies the structural claims that make the down path unique and
        the up links interchangeable: the ``c`` children of ``S(l, a)``
        cover equal sub-blocks that partition its block, and every parent
        of ``S(l, a)`` covers the same block containing it.
        """
        c = self.children
        for s in self._switches.values():
            quarter = (s.block_hi - s.block_lo) // c
            for port in range(c):
                target = s.down_targets[port]
                if target == -1:
                    raise TopologyError(
                        f"switch ({s.level},{s.address}) child port {port} unwired"
                    )
                if s.level == 1:
                    lo = target
                else:
                    child = self._switches[target]
                    lo = child.block_lo
                    if child.block_hi - child.block_lo != quarter:
                        raise TopologyError(
                            f"switch ({s.level},{s.address}) child {port} covers "
                            "a block of the wrong size"
                        )
                if (lo - s.block_lo) % quarter != 0:
                    raise TopologyError(
                        f"switch ({s.level},{s.address}) child {port} block misaligned"
                    )
                idx = (lo - s.block_lo) // quarter
                if not (0 <= idx < c) or s.subblock_port[idx] != -1:
                    raise TopologyError(
                        f"switch ({s.level},{s.address}) children do not "
                        "partition its leaf block"
                    )
                s.subblock_port[idx] = port
            # All parents must cover the same (containing) block.
            blocks = set()
            for t in s.up_targets:
                parent = self._switches[t]
                blocks.add((parent.block_lo, parent.block_hi))
                if not (parent.block_lo <= s.block_lo and s.block_hi <= parent.block_hi):
                    raise TopologyError(
                        f"parent of ({s.level},{s.address}) does not contain its block"
                    )
            if s.up_targets and len(blocks) != 1:
                raise TopologyError(
                    f"parents of ({s.level},{s.address}) cover different blocks"
                )

    def _build_groups(self) -> None:
        """Form resource groups: each switch's ``p`` up links share a group,
        the rest are singletons."""
        group_of = [-1] * self.num_links
        groups: list[list[int]] = []
        for s in self._switches.values():
            if s.up_links:
                if len(s.up_links) != self.parents:
                    raise TopologyError(
                        f"switch ({s.level},{s.address}) has {len(s.up_links)} up links"
                    )
                groups.append(list(s.up_links))
                for e in s.up_links:
                    group_of[e] = len(groups) - 1
        for e in range(self.num_links):
            if group_of[e] == -1:
                groups.append([e])
                group_of[e] = len(groups) - 1
        self.groups = groups
        self.link_group = group_of

    # --- SimTopology API ------------------------------------------------------------

    def injection_options(self, src: int) -> RouteOptions:
        """The PE's injection channel (single-server)."""
        if not (0 <= src < self.num_processors):
            raise RoutingError(f"source PE {src} out of range")
        return RouteOptions(
            links=(self._inject_link[src],), next_nodes=(self._inject_target[src],)
        )

    def route_options(self, node: int, dst: int) -> RouteOptions:
        """Adaptive shortest-path routing per Section 3.1.

        Going up, all ``p`` parent links are offered (the simulator picks a
        free one at random or queues FCFS on the bundle); going down, the
        unique child port covering the destination's sub-block is offered.
        """
        if not (0 <= dst < self.num_processors):
            raise RoutingError(f"destination PE {dst} out of range")
        s = self._switches.get(node)
        if s is None:
            raise RoutingError(f"node {node} is not a switch")
        if s.block_lo <= dst < s.block_hi:
            quarter = (s.block_hi - s.block_lo) // self.children
            port = s.subblock_port[(dst - s.block_lo) // quarter]
            return RouteOptions(
                links=(s.down_links[port],), next_nodes=(s.down_targets[port],)
            )
        if not s.up_links:
            raise RoutingError(
                f"switch ({s.level},{s.address}) has no up links but {dst} is outside its block"
            )
        return RouteOptions(links=tuple(s.up_links), next_nodes=tuple(s.up_targets))

    def path_length(self, src: int, dst: int) -> int:
        """``2 * nca`` links (0 when src == dst)."""
        if src == dst:
            return 0
        return 2 * generalized_nca_level(src, dst, self.children)

    # --- introspection (used by tests, properties, and experiments) ---------------

    def switch(self, level: int, address: int) -> _Switch:
        """Return the internal record of switch ``(level, address)`` (read-only use)."""
        return self._switches[self._switch_node(level, address)]

    def switches_at_level(self, level: int) -> int:
        """Switch population ``c^(n-l) * p^(l-1)`` at ``level``."""
        if not (1 <= level <= self.levels):
            raise ConfigurationError(f"level must be in [1, {self.levels}]")
        return self._switches_at[level]

    def links_in_class(self, cls: LinkClass) -> list[int]:
        """All link indices belonging to channel class ``cls``."""
        return [e for e, c in enumerate(self.link_class) if c == cls]

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"GeneralizedFatTree(c={self.children}, p={self.parents}, "
            f"levels={self.levels}, N={self.num_processors}, links={self.num_links})"
        )
