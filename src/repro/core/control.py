"""Relevant control-signal identification (Section 2.4).

Given a partially-matched subgroup, the paper defines *relevant control
signals* in two steps over the dissimilar subtrees remembered by the
matching stage:

1. list the nets common to **all** dissimilar subtrees;
2. drop every net that lies in the fanin cone of another net in that list
   (its reduction effect is subsumed — in Figure 1, U223 feeds U201 and is
   dropped, leaving exactly {U201, U221}).

Control signals that appear only in *matching* subtrees are never
considered: "they cannot help create additional structural similarity and
would only increase complexity."

For each surviving signal we also gather its *feasible values*: the
controlling values of the gates it feeds inside the dissimilar subtrees
(Section 2.5 assigns "the controlling value to one of the logic gates that
the control signal is feeding into").  A signal feeding only XOR-family
gates has no controlling value and is dropped.

The stage runs in two phases.  Phase one intersects the subtrees' *net
sets*; most subgroups have no common net at all and stop here.  The net
sets come from the :class:`~repro.core.context.AnalysisContext`'s
``(net, levels)``-memoized index shared across every subgroup — no cone
tree is materialized for the common case.  Phase two, reached only when
the intersection is non-empty, walks the (few) dissimilar cones — read
from the context's DAG-shared cone cache — once to collect candidate
order, controlling values, and the domination test of step 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..netlist.cone import ConeNode
from .context import AnalysisContext
from .matching import Subgroup

__all__ = ["ControlSignalCandidate", "find_control_signals"]


@dataclass(frozen=True)
class ControlSignalCandidate:
    """A relevant control signal and the constant values worth trying."""

    net: str
    values: Tuple[int, ...]


def _node_nets(node: ConeNode, cache: dict) -> frozenset:
    """Net names of a cone subtree, memoized by node identity.

    ``cache`` maps ``id(node) -> (node, frozenset)``; the node reference
    pins the object so CPython cannot recycle its id.  With DAG-shared
    cones (an :class:`~repro.core.context.AnalysisContext` cache) shared
    subtrees are summarized once across every cone containing them.
    """
    entry = cache.get(id(node))
    if entry is not None and entry[0] is node:
        return entry[1]
    if node.is_leaf:
        nets = frozenset((node.net,))
    else:
        acc = {node.net}
        for child in node.children:
            acc.update(_node_nets(child, cache))
        nets = frozenset(acc)
    cache[id(node)] = (node, nets)
    return nets


def find_control_signals(
    subgroup: Subgroup, context: AnalysisContext
) -> List[ControlSignalCandidate]:
    """Identify the relevant control signals of a partially-matched subgroup.

    Returns candidates in deterministic discovery order (bit order, then
    pre-order position within each dissimilar subtree).  ``context`` is
    the :class:`~repro.core.context.AnalysisContext` that produced the
    subgroup's signatures: it supplies each dissimilar subtree's net set
    and cone (``context.cone(root_net, depth - 1)``) and shares both
    caches across subgroups.
    """
    subtrees = []
    for sig in subgroup.signatures:
        for root in subgroup.dissimilar.get(sig.net, ()):
            for subtree in sig.subtrees:
                if subtree.root_net == root:
                    subtrees.append(subtree)
                    break
    if not subtrees:
        return []

    # Phase one: intersect net sets, stopping at the first empty running
    # intersection — for most subgroups that happens within the first few
    # subtrees, before the remaining net sets are even computed (and
    # before any cone tree is built).
    levels = context.depth - 1
    common: Optional[Set[str]] = None
    for st in subtrees:
        nets = context.cone_nets(st.root_net, levels)
        if common is None:
            common = set(nets)
        else:
            common &= nets
            if not common:
                return []

    # The subtree roots themselves are bit-specific wires, not controls; a
    # net can only be common to all subtrees if it is not any cone's root,
    # but guard anyway.
    common -= {st.root_net for st in subtrees}
    if not common:
        return []

    # Phase two: walk each dissimilar cone once, collecting — for common
    # nets only — first-visit order, controlling values of the gates they
    # feed, and the nets strictly below their occurrences (the "in the
    # fanin cone of" data for step 2's domination test).
    node_nets_cache = context.node_cache("cone_nets")
    cones = [context.cone(st.root_net, levels) for st in subtrees]
    ordered: List[str] = []
    seen: Set[str] = set()
    controlling: Dict[str, Set[int]] = {}
    below: Dict[str, Set[str]] = {}
    for cone in cones:
        for node in cone.walk():
            net = node.net
            if net in common and net not in seen:
                seen.add(net)
                ordered.append(net)
            if node.is_leaf:
                continue
            cv = node.gate.cell.controlling_value
            acc = below.setdefault(net, set()) if net in common else None
            for child in node.children:
                child_net = child.net
                if cv is not None and child_net in common:
                    controlling.setdefault(child_net, set()).add(cv)
                if acc is not None:
                    acc.update(_node_nets(child, node_nets_cache))

    # Step 2: drop nets dominated by another common net's fanin cone.
    survivors = {
        net
        for net in common
        if not any(
            net in below.get(other, ())
            for other in common
            if other != net
        )
    }

    candidates: List[ControlSignalCandidate] = []
    for net in ordered:
        if net not in survivors:
            continue
        values = controlling.get(net)
        if values:
            candidates.append(
                ControlSignalCandidate(net, tuple(sorted(values)))
            )
    return candidates
