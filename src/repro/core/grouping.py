"""First-level grouping of potential word bits (Section 2.2).

The netlist file is scanned once, line by line.  Each line defines a net
(the fanout of a gate); a net is put in the same group as the previous line
when the roots of their fanin cones — i.e. their driving gates — have the
same gate type.  "Gate type" is qualified by fanin count: the paper's b03
walkthrough groups nets whose roots are all *3-input* NANDs.

The paper stresses that this stage is deliberately rough: a group may span
multiple words, include bits belonging to no word, or split a word in two.
Only combinational gate outputs participate — flip-flop outputs are cone
leaves with no structure to match, and constant drivers carry no word
information.

An alternative "distance-based strategy not dependent on the netlist
[line order]" mentioned by the paper is provided as
:func:`group_register_inputs`, which groups flip-flop D-input nets in
register file order instead.
"""

from __future__ import annotations

from typing import List, Set

from ..netlist.netlist import Gate, Netlist

__all__ = ["root_type_of", "group_by_adjacency", "group_register_inputs"]


def root_type_of(gate: Gate) -> str:
    """Gate type qualified by fanin count, e.g. ``NAND3``."""
    return f"{gate.cell.name}{len(gate.inputs)}"


def _groupable(gate: Gate) -> bool:
    return gate.cell.combinational


def group_by_adjacency(netlist: Netlist) -> List[List[str]]:
    """Group adjacent netlist lines whose root gates share a type.

    Returns groups (lists of net names in file order) of size ≥ 2; runs of
    length one cannot form a word and are dropped here, exactly as a
    single-line "group" contributes nothing in the paper.
    """
    groups: List[List[str]] = []
    current: List[str] = []
    current_type: str = ""
    for gate in netlist.gates_in_file_order():
        if not _groupable(gate):
            _flush(groups, current)
            current, current_type = [], ""
            continue
        gate_type = root_type_of(gate)
        if gate_type == current_type:
            current.append(gate.output)
        else:
            _flush(groups, current)
            current = [gate.output]
            current_type = gate_type
    _flush(groups, current)
    return groups


def _flush(groups: List[List[str]], current: List[str]) -> bool:
    """Keep the run ``current`` as a group if it has two nets or more;
    say whether it was kept."""
    if len(current) >= 2:
        groups.append(current)
        return True
    return False


def group_register_inputs(netlist: Netlist) -> List[List[str]]:
    """Alternative stage-1 strategy: adjacent flip-flop D-input nets.

    Scans flip-flops in file order and groups consecutive D-input nets whose
    drivers share a root gate type.  Useful when the netlist's combinational
    line order has been shuffled (e.g. alphabetized by a tool) but register
    order survives.  A flip-flop whose D net is already listed, in a group
    or in the current run, neither joins the run nor breaks it: registers
    that share a D net list it once.
    """
    groups: List[List[str]] = []
    grouped: Set[str] = set()  # the nets of ``groups``
    current: List[str] = []
    current_type: str = ""
    for ff in netlist.flip_flops():
        d_net = ff.inputs[0]
        if d_net in grouped or d_net in current:
            continue
        driver = netlist.driver(d_net)
        if driver is None or not _groupable(driver):
            if _flush(groups, current):
                grouped.update(current)
            current, current_type = [], ""
            continue
        gate_type = root_type_of(driver)
        if gate_type == current_type:
            current.append(d_net)
        else:
            if _flush(groups, current):
                grouped.update(current)
            current = [d_net]
            current_type = gate_type
    _flush(groups, current)
    return groups
