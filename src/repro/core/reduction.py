"""Constant propagation and circuit reduction (Section 2.5).

Once relevant control signals are assigned constant values, the paper
simplifies the circuit "by propagating the values forward and backwards
throughout the netlist.  After all net assignments have been inferred,
assigned nets and gates with assigned outputs are removed.  If a gate has
only a single input remaining, it is reduced appropriately into either a
buffer or inverter."

*Forward* propagation evaluates every consumer of an assigned net under
three-valued semantics; when the output becomes determined, it is assigned
too.  *Backward* propagation applies the deterministic implications (an AND
whose output is 1 forces every input to 1; a buffer/inverter output always
determines its input).  Conflicting implications mean the assignment is
infeasible — :class:`InfeasibleAssignment` is raised and the pipeline moves
to the next candidate assignment.

The reduction preserves circuit function for every input consistent with
the assignment; the test-suite checks this by exhaustive simulation on
randomly generated cones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..netlist.cells import BUF, INV, TIE0, TIE1, XNOR, XOR
from ..netlist.netlist import Gate, Netlist

__all__ = [
    "InfeasibleAssignment",
    "propagate_constants",
    "reduce_netlist",
    "sweep_dead_logic",
    "ReducedNetlist",
]


class InfeasibleAssignment(ValueError):
    """The requested constants contradict each other through the logic."""


def propagate_constants(
    netlist: Netlist, assignments: Mapping[str, int]
) -> Dict[str, int]:
    """Infer every net value implied by ``assignments``.

    Returns a map net → 0/1 containing the seeds and all consequences.
    Raises :class:`InfeasibleAssignment` on contradiction (including a seed
    that fights a constant driver).
    """
    values: Dict[str, int] = {}
    worklist: List[str] = []

    def assign(net: str, value: int) -> None:
        existing = values.get(net)
        if existing is not None:
            if existing != value:
                raise InfeasibleAssignment(
                    f"net {net!r} implied both {existing} and {value}"
                )
            return
        values[net] = value
        worklist.append(net)

    # Constant drivers (TIE cells) are implicit seeds: reduction with an
    # empty assignment map is exactly the synthesis constant-folding pass.
    for gate in netlist.gates_in_file_order():
        if gate.cell.is_constant:
            assign(gate.output, gate.cell.evaluate(()))
    for net, value in assignments.items():
        if value not in (0, 1):
            raise ValueError(f"assignment to {net!r} must be 0 or 1")
        assign(net, value)

    while worklist:
        net = worklist.pop()
        value = values[net]
        driver = netlist.driver(net)
        if driver is not None and not driver.is_ff:
            if driver.cell.is_constant:
                if driver.cell.evaluate(()) != value:
                    raise InfeasibleAssignment(
                        f"net {net!r} is tied to "
                        f"{driver.cell.evaluate(())} but implied {value}"
                    )
            else:
                implied = driver.cell.backward_implied_input(value)
                if implied is not None:
                    for input_net in driver.inputs:
                        assign(input_net, implied)
        for consumer in netlist.fanouts(net):
            if consumer.is_ff:
                continue
            out = consumer.cell.evaluate(
                [values.get(i) for i in consumer.inputs]
            )
            if out is not None:
                assign(consumer.output, out)
    return values


@dataclass
class ReducedNetlist:
    """Result of :func:`reduce_netlist`.

    ``netlist`` is the simplified circuit; ``values`` the full constant map
    (seeds plus inferred nets).  Net names survive reduction, so bit
    signatures can be recomputed on ``netlist`` directly.
    """

    netlist: Netlist
    values: Dict[str, int]


def reduce_netlist(
    netlist: Netlist, assignments: Mapping[str, int]
) -> ReducedNetlist:
    """Simplify a netlist under constant assignments (Section 2.5).

    Assigned nets and the gates driving them disappear; consumers drop the
    assigned inputs (flipping parity-gate polarity for each dropped 1);
    gates left with one input collapse into BUF/INV.  Nets that must remain
    observable (flip-flop D pins, primary outputs, mux data pins) but became
    constant are re-driven by TIE cells so the result stays a valid netlist.
    """
    values = propagate_constants(netlist, assignments)
    reduced = Netlist(netlist.name)
    for net in netlist.primary_inputs:
        if net not in values:
            reduced.add_input(net)

    needs_tie: Set[str] = set()

    for gate in netlist.gates_in_file_order():
        if gate.is_ff:
            reduced.add_gate(gate.name, gate.cell, gate.inputs, gate.output)
            if gate.inputs[0] in values:
                needs_tie.add(gate.inputs[0])
            continue
        if gate.output in values:
            continue  # gate with assigned output is removed
        family = gate.cell.family
        if family == "mux":
            _reduce_mux(reduced, gate, values, needs_tie)
            continue
        if family == "buf" or gate.cell.is_constant:
            # A buffer/inverter with an assigned input would have an
            # assigned output, so these survive untouched.
            reduced.add_gate(gate.name, gate.cell, gate.inputs, gate.output)
            continue
        remaining = [i for i in gate.inputs if i not in values]
        if not remaining:
            raise AssertionError(
                f"gate {gate.name} fully assigned but output unknown"
            )
        if family == "xor":
            dropped_ones = sum(
                values[i] for i in gate.inputs if i in values
            )
            inverted = gate.cell.inverted ^ (dropped_ones % 2 == 1)
            if len(remaining) == 1:
                cell = INV if inverted else BUF
            else:
                cell = XNOR if inverted else XOR
        else:  # and / or families: dropped inputs are non-controlling
            if len(remaining) == 1:
                cell = INV if gate.cell.inverted else BUF
            else:
                cell = gate.cell
        reduced.add_gate(gate.name, cell, remaining, gate.output)

    for net in netlist.primary_outputs:
        if net in values:
            needs_tie.add(net)
        reduced.add_output(net)

    for net in sorted(needs_tie):
        if reduced.driver(net) is None and net not in reduced.primary_inputs:
            cell = TIE1 if values[net] else TIE0
            reduced.add_gate(f"_tie_{net}", cell, [], net)
    return ReducedNetlist(reduced, values)


def _reduce_mux(
    reduced: Netlist,
    gate: Gate,
    values: Dict[str, int],
    needs_tie: Set[str],
) -> None:
    """Reduce a MUX instance whose output is still unknown."""
    sel, a, b = gate.inputs
    if sel in values:
        chosen = b if values[sel] else a
        # The chosen data input cannot be assigned (output would be known).
        reduced.add_gate(gate.name, BUF, [chosen], gate.output)
        return
    # Select unknown: keep the mux; constant data pins must stay driven.
    for data in (a, b):
        if data in values:
            needs_tie.add(data)
    reduced.add_gate(gate.name, gate.cell, gate.inputs, gate.output)


# Re-exported here because reduction is where the paper's flow needs it:
# after a control assignment, "the fanin cone generating the control
# signals" (Figure 1's red circle) dies once its consumers are gone.
from ..netlist.transforms import sweep_dead_logic  # noqa: E402
