"""Butterfly fat-tree topology (Section 3.1 and Figure 2 of the paper).

The network connects ``N = 4**n`` processors through ``n`` levels of 6-port
switches (four child ports, two parent ports).  Node ``(l, a)`` denotes the
switch with address ``a`` at level ``l``; level 0 holds the processors.
There are ``N / 2**(l+1)`` switches at level ``l``.

Wiring (verbatim from the paper):

* processor ``P(0, a)`` connects to ``child_(a mod 4)`` of ``S(1, a div 4)``;
* ``parent0`` of ``S(l, a)`` connects to ``child_i`` of
  ``S(l+1, (a div 2**(l+1)) * 2**l + a mod 2**l)``;
* ``parent1`` of ``S(l, a)`` connects to ``child_i`` of
  ``S(l+1, (a div 2**(l+1)) * 2**l + (a + 2**(l-1)) mod 2**l)``;
* where ``i = (a mod 2**(l+1)) div 2**(l-1)``.

These are the ``(c, p) = (4, 2)`` case of the generalized fat-tree's
formulas, so :class:`ButterflyFatTree` is
:class:`~repro.topology.generalized_fattree.GeneralizedFatTree` with those
parameters; wiring, structural verification and routing live there.

Every switch at level ``l`` reaches exactly the block of ``4**l`` leaves
``[g * 4**l, (g+1) * 4**l)`` with ``g = a div 2**(l-1)`` through its down
ports (verified structurally at construction time); a message goes up as
long as its destination lies outside the current switch's block, choosing
randomly between the two parent links, and then follows the unique down
path.  Shortest paths therefore have length ``2 * nca_level(src, dst)``.
"""

from __future__ import annotations

from ..util.validation import check_power_of
from .generalized_fattree import GeneralizedFatTree, generalized_nca_level

__all__ = ["ButterflyFatTree", "bft_nca_level"]


def bft_nca_level(src: int, dst: int) -> int:
    """Level of the nearest common ancestor of leaves ``src`` and ``dst``.

    This is the smallest ``l`` with ``src div 4**l == dst div 4**l``; a
    message from ``src`` to ``dst`` climbs exactly to this level, so the
    shortest path length is ``2 * bft_nca_level(src, dst)`` links.
    """
    return generalized_nca_level(src, dst, 4)


class ButterflyFatTree(GeneralizedFatTree):
    """The butterfly fat-tree network with ``N = 4**n`` processors.

    Implements :class:`repro.topology.base.SimTopology`.  Construction cost
    is ``O(N)``; routing queries are ``O(1)`` after construction.

    Parameters
    ----------
    num_processors:
        ``N``; must be a power of four, at least 4.
    """

    def __init__(self, num_processors: int) -> None:
        levels = check_power_of("num_processors", num_processors, 4)
        super().__init__(4, 2, levels)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"ButterflyFatTree(N={self.num_processors}, levels={self.levels}, "
            f"switches={self.num_nodes - self.num_processors}, links={self.num_links})"
        )
