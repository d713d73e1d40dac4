"""Gate-level netlist data model.

A :class:`Netlist` is an ordered collection of :class:`Gate` instances plus
declared primary inputs and outputs.  Order matters: the paper's first-level
grouping (Section 2.2) scans the netlist *file* line by line and groups nets
whose defining lines are adjacent, so this model preserves gate (line)
order and exposes it via :meth:`Netlist.gates_in_file_order`.

Nets are referenced by name.  A net is driven by at most one gate (its
*driver*); nets with no driver are primary inputs or dangling.  Flip-flop
output nets are *register outputs*; the nets feeding flip-flop D pins are
the ones grouped into words (the paper matches structure on fanin cones, so
words are the FF *input* nets).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .cells import CellType, DFF, LIBRARY

__all__ = ["Gate", "Netlist", "NetlistError"]


class NetlistError(ValueError):
    """Raised on structurally invalid netlist operations."""


class Gate:
    """One gate instance: a cell type, ordered input nets, one output net."""

    __slots__ = ("name", "cell", "inputs", "output")

    def __init__(
        self,
        name: str,
        cell: CellType,
        inputs: Sequence[str],
        output: str,
    ):
        cell._check_arity(len(inputs))
        self.name = name
        self.cell = cell
        self.inputs: Tuple[str, ...] = tuple(inputs)
        self.output = output

    @property
    def is_ff(self) -> bool:
        return self.cell.sequential

    def __repr__(self) -> str:
        ins = ", ".join(self.inputs)
        return f"<Gate {self.name}: {self.output} = {self.cell.name}({ins})>"


class Netlist:
    """A flat gate-level netlist.

    The public mutation API (:meth:`add_gate`, :meth:`remove_gate`,
    :meth:`replace_gate`) keeps the driver and fanout indices consistent;
    callers never touch those directly.
    """

    def __init__(self, name: str = "top"):
        self.name = name
        self._gates: Dict[str, Gate] = {}
        # Gate names in file order.  A dict is used as an ordered set so
        # removal is O(1) and in-place replacement keeps the position
        # (synthesis passes remove/replace thousands of gates; a list here
        # makes them quadratic).
        self._order: Dict[str, None] = {}
        self._driver: Dict[str, Gate] = {}  # net -> driving gate
        self._fanouts: Dict[str, List[Gate]] = {}  # net -> consuming gates
        # Ports in declaration order (the order the writer emits them),
        # mirrored by sets for O(1) membership: b18 declares ~1,000 ports
        # and every gate, net and written line asks "is this a port?".
        # Mutate through add_input/add_output so the two stay in step.
        self.primary_inputs: List[str] = []
        self.primary_outputs: List[str] = []
        self._input_set: Set[str] = set()
        self._output_set: Set[str] = set()
        # Cached cone boundary; invalidated by every mutation.  Analysis
        # passes ask for it once per cone/signature/subcircuit, which made
        # recomputation (a full gate scan) a dominant cost on large designs.
        self._leaf_cache: Optional[frozenset] = None
        # Cached name -> file position; lets subcircuit extraction order a
        # small kept-gate set without scanning every gate in the netlist.
        self._position_cache: Optional[Dict[str, int]] = None
        # ``(revision, name, digest)``: the ``file:`` digest of the bytes
        # ``repro.api.Session`` parsed this netlist from, so analyzing it
        # keys by those bytes.  The stamp, not a mutation hook, is what
        # invalidates it: stale once the revision or name moves.
        self._source_digest: Optional[Tuple[int, str, str]] = None
        # Monotonic structural revision, bumped by every mutation.  The
        # stamp above records it, so a mutated netlist never answers
        # with a stale key.
        self.revision: int = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_input(self, net: str) -> None:
        if net in self._driver:
            raise NetlistError(f"net {net!r} already driven; cannot be an input")
        if net not in self._input_set:
            self.primary_inputs.append(net)
            self._input_set.add(net)
            self._leaf_cache = None
            self.revision += 1

    def add_output(self, net: str) -> None:
        if net not in self._output_set:
            self.primary_outputs.append(net)
            self._output_set.add(net)
            self.revision += 1

    def add_gate(
        self,
        name: str,
        cell: CellType,
        inputs: Sequence[str],
        output: str,
    ) -> Gate:
        """Append a gate at the end of the file order."""
        if name in self._gates:
            raise NetlistError(f"duplicate gate name {name!r}")
        if output in self._driver:
            raise NetlistError(
                f"net {output!r} already driven by {self._driver[output].name!r}"
            )
        if output in self._input_set:
            raise NetlistError(f"net {output!r} is a primary input")
        gate = Gate(name, cell, inputs, output)
        self._gates[name] = gate
        self._order[name] = None
        self._driver[output] = gate
        for net in gate.inputs:
            self._fanouts.setdefault(net, []).append(gate)
        if cell.sequential:
            self._leaf_cache = None
        self._position_cache = None
        self.revision += 1
        return gate

    def remove_gate(self, name: str) -> Gate:
        """Remove a gate; its output net becomes undriven."""
        gate = self._gates.pop(name)
        del self._order[name]
        self._position_cache = None
        del self._driver[gate.output]
        for net in gate.inputs:
            self._fanouts[net].remove(gate)
            if not self._fanouts[net]:
                del self._fanouts[net]
        if gate.is_ff:
            self._leaf_cache = None
        self.revision += 1
        return gate

    def replace_gate(
        self,
        name: str,
        cell: CellType,
        inputs: Sequence[str],
        output: Optional[str] = None,
    ) -> Gate:
        """Swap a gate's cell/inputs in place, keeping its file position."""
        old = self._gates[name]
        new_output = output if output is not None else old.output
        # Detach old connectivity.
        del self._driver[old.output]
        for net in old.inputs:
            self._fanouts[net].remove(old)
            if not self._fanouts[net]:
                del self._fanouts[net]
        if new_output in self._driver:
            raise NetlistError(f"net {new_output!r} already driven")
        gate = Gate(name, cell, inputs, new_output)
        self._gates[name] = gate  # name keeps its slot in _order
        self._driver[new_output] = gate
        for net in gate.inputs:
            self._fanouts.setdefault(net, []).append(gate)
        if old.is_ff or gate.is_ff:
            self._leaf_cache = None
        self.revision += 1
        return gate

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._gates)

    def __contains__(self, gate_name: str) -> bool:
        return gate_name in self._gates

    def gate(self, name: str) -> Gate:
        return self._gates[name]

    def has_net(self, net: str) -> bool:
        return (
            net in self._driver
            or net in self._fanouts
            or net in self._input_set
            or net in self._output_set
        )

    def ports(self) -> List[str]:
        """Module port list: the inputs, then the outputs that are not also
        inputs, each in declaration order."""
        return self.primary_inputs + [
            net for net in self.primary_outputs if net not in self._input_set
        ]

    def gates_in_file_order(self) -> Iterator[Gate]:
        """Gates in the order their defining lines appear in the file."""
        for name in self._order:
            yield self._gates[name]

    def gates(self) -> Iterator[Gate]:
        return self.gates_in_file_order()

    def driver(self, net: str) -> Optional[Gate]:
        """The gate driving ``net``, or ``None`` for PIs / undriven nets."""
        return self._driver.get(net)

    def drivers(self) -> Iterator[Tuple[str, Gate]]:
        """``(net, driving gate)`` pairs, in gate insertion order.

        Bulk analyses (the hash-key precompute pass) iterate this instead
        of calling :meth:`driver` once per net.
        """
        return iter(self._driver.items())

    def file_positions(self) -> Dict[str, int]:
        """Gate name -> position in file order (cached; treat as read-only).

        Sorting a subset of gate names by this map reproduces file order
        without iterating the whole netlist, which is what subcircuit
        extraction needs when cutting many small cones out of one large
        design.
        """
        if self._position_cache is None:
            self._position_cache = {
                name: pos for pos, name in enumerate(self._order)
            }
        return self._position_cache

    def fanouts(self, net: str) -> Tuple[Gate, ...]:
        """Gates consuming ``net`` (possibly empty)."""
        return tuple(self._fanouts.get(net, ()))

    def nets(self) -> Set[str]:
        """All net names appearing anywhere in the netlist."""
        result: Set[str] = set(self.primary_inputs)
        result.update(self.primary_outputs)
        result.update(self._driver)
        result.update(self._fanouts)
        return result

    def internal_nets(self) -> Set[str]:
        """Nets that are neither primary inputs nor primary outputs."""
        result: Set[str] = set(self._driver)
        result.update(self._fanouts)
        result -= self._input_set
        result -= self._output_set
        return result

    def flip_flops(self) -> List[Gate]:
        """All sequential gates, in file order."""
        return [g for g in self.gates_in_file_order() if g.is_ff]

    def register_output_nets(self) -> Set[str]:
        """Output nets of flip-flops (fanin-cone leaves)."""
        return {g.output for g in self.flip_flops()}

    def register_input_nets(self) -> List[str]:
        """Nets feeding flip-flop D pins, in file order (word candidates)."""
        return [g.inputs[0] for g in self.flip_flops()]

    def cone_leaf_nets(self) -> frozenset:
        """Nets at which fanin cones terminate: PIs and FF outputs.

        The result is cached (and invalidated on mutation) because every
        cone extraction, signature index, and subcircuit cut asks for it;
        callers must treat the returned set as read-only.
        """
        if self._leaf_cache is None:
            leaves = set(self.primary_inputs)
            leaves.update(self.register_output_nets())
            self._leaf_cache = frozenset(leaves)
        return self._leaf_cache

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @property
    def num_gates(self) -> int:
        return len(self._gates)

    @property
    def num_nets(self) -> int:
        return len(self.nets())

    @property
    def num_ffs(self) -> int:
        return sum(1 for g in self._gates.values() if g.is_ff)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def topological_order(self) -> List[Gate]:
        """Combinational gates in topological order (FFs treated as sources).

        Flip-flop gates appear at the end, after every combinational gate.
        Raises :class:`NetlistError` if the combinational logic is cyclic.
        """
        leaves = self.cone_leaf_nets()
        in_degree: Dict[str, int] = {}
        waiting: Dict[str, List[Gate]] = {}
        ready: List[Gate] = []
        for gate in self.gates_in_file_order():
            if gate.is_ff:
                continue
            pending = 0
            for net in gate.inputs:
                if net in leaves or self._driver.get(net) is None:
                    continue
                if self._driver[net].is_ff:
                    continue
                pending += 1
                waiting.setdefault(net, []).append(gate)
            in_degree[gate.name] = pending
            if pending == 0:
                ready.append(gate)
        order: List[Gate] = []
        cursor = 0
        while cursor < len(ready):
            gate = ready[cursor]
            cursor += 1
            order.append(gate)
            for consumer in waiting.get(gate.output, ()):
                in_degree[consumer.name] -= 1
                if in_degree[consumer.name] == 0:
                    ready.append(consumer)
        if len(order) != len(in_degree):
            raise NetlistError("combinational cycle detected")
        order.extend(self.flip_flops())
        return order

    def copy(self, name: Optional[str] = None) -> "Netlist":
        """Deep-enough copy: fresh gates and indices, shared cell types."""
        dup = Netlist(name or self.name)
        dup.primary_inputs = list(self.primary_inputs)
        dup.primary_outputs = list(self.primary_outputs)
        dup._input_set = set(self._input_set)
        dup._output_set = set(self._output_set)
        for gate in self.gates_in_file_order():
            dup.add_gate(gate.name, gate.cell, gate.inputs, gate.output)
        return dup

    def __eq__(self, other: object) -> bool:
        """Structural equality: same name, ports, and gate lines in order.

        Two netlists are equal when a netlist printer would emit the same
        file for both (module name, port lists in order, and the same gate
        instantiations on the same lines).  This is the contract the
        Verilog round-trip guarantees: ``parse(write(n)) == n``.
        """
        if self is other:
            return True
        if not isinstance(other, Netlist):
            return NotImplemented
        if (
            self.name != other.name
            or self.primary_inputs != other.primary_inputs
            or self.primary_outputs != other.primary_outputs
            or len(self._gates) != len(other._gates)
        ):
            return False
        for mine, theirs in zip(
            self.gates_in_file_order(), other.gates_in_file_order()
        ):
            if (
                mine.name != theirs.name
                or mine.cell != theirs.cell
                or mine.inputs != theirs.inputs
                or mine.output != theirs.output
            ):
                return False
        return True

    # Netlists are mutable; keep identity hashing so existing uses as
    # plain attributes/cached values are unaffected by value equality.
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return (
            f"<Netlist {self.name}: {self.num_gates} gates, "
            f"{self.num_nets} nets, {self.num_ffs} FFs>"
        )
