"""Fanin-cone extraction.

The matching technique of the paper operates on *depth-limited fanin cones*:
for each candidate word bit (a flip-flop D-input net) the circuitry feeding
it is explored down to a few levels of logic gates ("it is unlikely that the
logic levels beyond this will have any similarity in structure"; the paper
and [6] use 2-4 levels, Figure 1 shows 4).

A cone is expanded as a *tree*: a net driven by a gate that fans out to
several places inside the cone appears once per use.  That is exactly what
the post-order hash key of Section 2.3 needs — structural similarity of the
logic as seen from the root, not graph identity.

Cone expansion terminates at:

* primary inputs,
* flip-flop outputs (register boundaries),
* undriven nets,
* nets deeper than the level budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Set, Tuple

from .netlist import Gate, Netlist

__all__ = [
    "ConeNode",
    "extract_cone",
    "cone_nets",
    "cone_gates",
    "extract_subcircuit",
]

#: Default number of logic levels explored, matching the paper's Figure 1.
DEFAULT_DEPTH = 4


@dataclass(frozen=True)
class ConeNode:
    """One node of an expanded fanin-cone tree.

    ``net`` is the net at this node; ``gate`` is its driver when the node
    was expanded (``None`` for leaves).  ``children`` follow the driver's
    input order.
    """

    net: str
    gate: Optional[Gate]
    children: Tuple["ConeNode", ...]

    @property
    def is_leaf(self) -> bool:
        return self.gate is None

    @property
    def gate_type(self) -> Optional[str]:
        return None if self.gate is None else self.gate.cell.name

    def walk(self) -> Iterator["ConeNode"]:
        """Pre-order traversal of the tree."""
        stack: List[ConeNode] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def size(self) -> int:
        """Number of nodes in the expanded tree."""
        return sum(1 for _ in self.walk())

    def depth(self) -> int:
        """Number of gate levels along the deepest path (leaves cost 0)."""
        if self.is_leaf:
            return 0
        return 1 + max((c.depth() for c in self.children), default=0)


def extract_cone(
    netlist: Netlist,
    root_net: str,
    depth: int = DEFAULT_DEPTH,
    stop_nets: Optional[Set[str]] = None,
    node_cache: Optional[dict] = None,
) -> ConeNode:
    """Expand the fanin cone of ``root_net`` down to ``depth`` gate levels.

    ``stop_nets`` overrides the default cone boundary (PIs and FF outputs);
    nets in that set become leaves regardless of their drivers.

    ``node_cache`` (a ``(net, levels) -> ConeNode`` dict) turns repeated
    extractions into a shared DAG: a subtree expanded once is reused by
    every later cone that contains it, so overlapping cones cost O(new
    nodes) instead of O(tree size).  Callers passing a cache must keep the
    boundary stable across calls — the cache key does not include it.
    :class:`~repro.core.context.AnalysisContext` owns such a cache per
    netlist.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    boundary = netlist.cone_leaf_nets() if stop_nets is None else stop_nets

    if not netlist.has_net(root_net):
        raise KeyError(f"unknown net {root_net!r}")
    return _expand(netlist, boundary, node_cache, root_net, depth)


def _expand(
    netlist: Netlist,
    boundary: Set[str],
    node_cache: Optional[dict],
    net: str,
    levels_left: int,
) -> ConeNode:
    """The cone node of ``net`` with ``levels_left`` gate levels to go.

    A module-level function, not a closure: a recursive inner function
    references itself, and that reference cycle would keep the netlist
    and ``node_cache`` alive until the next full garbage collection.
    """
    if node_cache is not None:
        cached = node_cache.get((net, levels_left))
        if cached is not None:
            return cached
    driver = netlist.driver(net)
    if (
        levels_left == 0
        or driver is None
        or driver.is_ff
        or net in boundary
    ):
        node = ConeNode(net, None, ())
    else:
        children = tuple(
            _expand(netlist, boundary, node_cache, child, levels_left - 1)
            for child in driver.inputs
        )
        node = ConeNode(net, driver, children)
    if node_cache is not None:
        node_cache[(net, levels_left)] = node
    return node


def cone_nets(cone: ConeNode, include_leaves: bool = True) -> Set[str]:
    """All net names appearing in an expanded cone tree."""
    return {
        node.net
        for node in cone.walk()
        if include_leaves or not node.is_leaf
    }


def extract_subcircuit(
    netlist: Netlist,
    root_nets: List[str],
    depth: int = DEFAULT_DEPTH,
    boundary: Optional[Set[str]] = None,
) -> Netlist:
    """Materialize the union of several fanin cones as a standalone netlist.

    The new netlist contains every gate reachable within ``depth`` levels of
    any root (shared gates appear once — this is a graph cut, not a tree
    expansion).  Cut nets at the boundary become primary inputs; the roots
    become primary outputs.  Gate file order follows the parent netlist so
    grouping behaviour is preserved.

    Circuit reduction (Section 2.5) runs on these subcircuits: the paper
    simplifies "the circuit" after a control-signal assignment and re-checks
    hash keys, and everything those hash keys can see lives within the
    depth-limited cones.

    Pass a precomputed ``boundary`` (the netlist's cone-leaf nets) when
    cutting many subcircuits out of one large netlist — recomputing it per
    call is the dominant cost otherwise.
    """
    if boundary is None:
        boundary = netlist.cone_leaf_nets()
    keep: dict = {}  # gate name -> Gate, insertion keeps discovery dedup
    frontier = [(net, depth) for net in root_nets]
    best_budget: dict = {}
    while frontier:
        net, levels_left = frontier.pop()
        if levels_left == 0:
            continue
        driver = netlist.driver(net)
        if driver is None or driver.is_ff or (net in boundary and net not in root_nets):
            continue
        if best_budget.get(net, -1) >= levels_left:
            continue  # already expanded at least this deep from here
        best_budget[net] = levels_left
        keep[driver.name] = driver
        for child in driver.inputs:
            frontier.append((child, levels_left - 1))
    sub = Netlist(f"{netlist.name}_sub")
    kept_outputs = {g.output for g in keep.values()}
    input_nets: List[str] = []
    for gate in keep.values():
        for net in gate.inputs:
            if net not in kept_outputs and net not in input_nets:
                input_nets.append(net)
    for net in sorted(input_nets):
        sub.add_input(net)
    positions = netlist.file_positions()
    for name in sorted(keep, key=positions.__getitem__):
        gate = keep[name]
        sub.add_gate(gate.name, gate.cell, gate.inputs, gate.output)
    for net in root_nets:
        if sub.has_net(net):
            sub.add_output(net)
    return sub


def cone_gates(cone: ConeNode) -> List[Gate]:
    """Distinct gates appearing in the cone, in pre-order of first visit."""
    seen: Set[str] = set()
    gates: List[Gate] = []
    for node in cone.walk():
        if node.gate is not None and node.gate.name not in seen:
            seen.add(node.gate.name)
            gates.append(node.gate)
    return gates
