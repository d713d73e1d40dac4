"""Cell library for gate-level netlists.

Every gate in a netlist instantiates a :class:`CellType`.  Cell types are
grouped into *families* that share evaluation and simplification semantics:

``and``
    AND-like gates (AND, NAND).  Controlling input value 0.
``or``
    OR-like gates (OR, NOR).  Controlling input value 1.
``xor``
    Parity gates (XOR, XNOR).  No controlling value; assigned inputs
    toggle output parity.
``buf``
    Single-input gates (BUF, INV/NOT).
``mux``
    2:1 multiplexer with input order ``(sel, a, b)``; output is ``a`` when
    ``sel == 0`` and ``b`` when ``sel == 1``.
``dff``
    D flip-flop.  Input order ``(d,)``; the output net holds the registered
    value.  Flip-flop outputs act as fanin-cone leaves for structural
    matching, and flip-flop *inputs* are the nets grouped into words.
``const``
    Constant drivers (TIE0, TIE1) with no inputs.

The word-identification algorithm needs exactly three pieces of gate-level
knowledge, all exposed here: how to *evaluate* a gate (for validating that
circuit reduction preserves function), each gate's *controlling value* (the
value assigned to relevant control signals in Section 2.5 of the paper), and
how a gate *simplifies* once some of its inputs are tied to constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce as _reduce
from typing import Dict, Optional, Sequence, Tuple

__all__ = [
    "CellType",
    "CellLibrary",
    "LIBRARY",
    "BUF",
    "INV",
    "AND",
    "NAND",
    "OR",
    "NOR",
    "XOR",
    "XNOR",
    "MUX",
    "DFF",
    "TIE0",
    "TIE1",
]


@dataclass(frozen=True)
class CellType:
    """An immutable description of one gate type.

    Parameters
    ----------
    name:
        Library name used in netlist files (``NAND2`` is spelled ``NAND``
        here; arity is carried by the instance, not the type).
    family:
        One of ``and``, ``or``, ``xor``, ``buf``, ``mux``, ``dff``,
        ``const``.
    inverted:
        Whether the output is inverted relative to the family's base
        function (``NAND`` is an inverted ``and``; ``INV`` an inverted
        ``buf``; ``XNOR`` an inverted ``xor``; ``TIE1`` an "inverted"
        constant).
    min_inputs / max_inputs:
        Legal fanin-count range.  ``max_inputs=None`` means unbounded.

    ``sequential`` (a flip-flop) and ``combinational`` (neither a
    flip-flop nor a constant) are derived from ``family`` once, when the
    type is made: the analysis asks them of every gate many times over.
    """

    name: str
    family: str
    inverted: bool
    min_inputs: int
    max_inputs: Optional[int]
    sequential: bool = field(init=False, repr=False, compare=False)
    combinational: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sequential", self.family == "dff")
        object.__setattr__(
            self, "combinational", self.family not in ("dff", "const")
        )

    # ------------------------------------------------------------------
    # classification helpers
    # ------------------------------------------------------------------
    @property
    def is_constant(self) -> bool:
        return self.family == "const"

    @property
    def controlling_value(self) -> Optional[int]:
        """The input value that alone determines this gate's output.

        ``0`` for AND-family, ``1`` for OR-family, ``None`` for families
        without a controlling value (XOR, BUF, MUX, DFF, constants).  This
        is the value the paper assigns to a relevant control signal: "The
        assigned value to a control signal will be the controlling value to
        one of the logic gates that the control signal is feeding into."
        """
        if self.family == "and":
            return 0
        if self.family == "or":
            return 1
        return None

    @property
    def controlled_output(self) -> Optional[int]:
        """Output value produced when any input takes the controlling value."""
        cv = self.controlling_value
        if cv is None:
            return None
        base = 0 if self.family == "and" else 1
        return base ^ int(self.inverted)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(self, inputs: Sequence[Optional[int]]) -> Optional[int]:
        """Evaluate the gate on (possibly partially unknown) input values.

        Inputs are ``0``, ``1`` or ``None`` (unknown / X).  Returns the
        output value, or ``None`` when it cannot be determined.  Three-valued
        evaluation is exact for the monotone cases a reverse engineer cares
        about: an AND with any 0 input is 0 even if other inputs are X.

        Flip-flops evaluate combinationally here as ``q = d`` — cycle
        semantics live in :mod:`repro.netlist.simulate`.
        """
        self._check_arity(len(inputs))
        if self.family == "const":
            return int(self.inverted)
        if self.family in ("buf", "dff"):
            value = inputs[0]
        elif self.family == "and":
            value = _and_reduce(inputs)
        elif self.family == "or":
            value = _or_reduce(inputs)
        elif self.family == "xor":
            value = _xor_reduce(inputs)
        elif self.family == "mux":
            value = _mux_eval(inputs)
        else:  # pragma: no cover - registry guards family names
            raise ValueError(f"unknown family {self.family!r}")
        if value is None:
            return None
        return value ^ int(self.inverted) if self.family != "mux" else value

    def _check_arity(self, n: int) -> None:
        if n < self.min_inputs:
            raise ValueError(
                f"{self.name} needs at least {self.min_inputs} inputs, got {n}"
            )
        if self.max_inputs is not None and n > self.max_inputs:
            raise ValueError(
                f"{self.name} takes at most {self.max_inputs} inputs, got {n}"
            )

    # ------------------------------------------------------------------
    # backward implication
    # ------------------------------------------------------------------
    def backward_implied_input(self, output: int) -> Optional[int]:
        """Value forced on *every* input when the output is known, if unique.

        This is the deterministic fragment of the paper's "propagating the
        values forward and backwards": an AND that outputs 1 forces all its
        inputs to 1; a NOR that outputs 1 forces all inputs to 0.  Returns
        ``None`` when the output value does not uniquely imply the inputs.
        """
        if self.family == "buf":
            return output ^ int(self.inverted)
        if self.family == "and" and output == 1 ^ int(self.inverted):
            return 1
        if self.family == "or" and output == 0 ^ int(self.inverted):
            return 0
        return None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


# ----------------------------------------------------------------------
# three-valued reductions
# ----------------------------------------------------------------------

def _and_reduce(values: Sequence[Optional[int]]) -> Optional[int]:
    if any(v == 0 for v in values):
        return 0
    if all(v == 1 for v in values):
        return 1
    return None


def _or_reduce(values: Sequence[Optional[int]]) -> Optional[int]:
    if any(v == 1 for v in values):
        return 1
    if all(v == 0 for v in values):
        return 0
    return None


def _xor_reduce(values: Sequence[Optional[int]]) -> Optional[int]:
    if any(v is None for v in values):
        return None
    return _reduce(lambda a, b: a ^ b, values, 0)


def _mux_eval(values: Sequence[Optional[int]]) -> Optional[int]:
    sel, a, b = values
    if sel == 0:
        return a
    if sel == 1:
        return b
    # Unknown select: output known only if both data inputs agree.
    if a is not None and a == b:
        return a
    return None


# ----------------------------------------------------------------------
# the standard library
# ----------------------------------------------------------------------

BUF = CellType("BUF", "buf", inverted=False, min_inputs=1, max_inputs=1)
INV = CellType("INV", "buf", inverted=True, min_inputs=1, max_inputs=1)
AND = CellType("AND", "and", inverted=False, min_inputs=2, max_inputs=None)
NAND = CellType("NAND", "and", inverted=True, min_inputs=2, max_inputs=None)
OR = CellType("OR", "or", inverted=False, min_inputs=2, max_inputs=None)
NOR = CellType("NOR", "or", inverted=True, min_inputs=2, max_inputs=None)
XOR = CellType("XOR", "xor", inverted=False, min_inputs=2, max_inputs=None)
XNOR = CellType("XNOR", "xor", inverted=True, min_inputs=2, max_inputs=None)
MUX = CellType("MUX", "mux", inverted=False, min_inputs=3, max_inputs=3)
DFF = CellType("DFF", "dff", inverted=False, min_inputs=1, max_inputs=1)
TIE0 = CellType("TIE0", "const", inverted=False, min_inputs=0, max_inputs=0)
TIE1 = CellType("TIE1", "const", inverted=True, min_inputs=0, max_inputs=0)


class CellLibrary:
    """Name → :class:`CellType` lookup with common alias spellings.

    Netlist files in the wild spell gates many ways (``not``, ``inv``,
    ``NAND2``, ``nand3`` …).  The library canonicalizes those to the types
    above so parsers stay simple.
    """

    _ALIASES = {
        "NOT": "INV",
        "MUX2": "MUX",
        "DFFR": "DFF",
        "FD1": "DFF",
        "VCC": "TIE1",
        "GND": "TIE0",
        "ONE": "TIE1",
        "ZERO": "TIE0",
    }

    def __init__(self, cells: Sequence[CellType]):
        self._cells: Dict[str, CellType] = {c.name: c for c in cells}

    def __contains__(self, name: str) -> bool:
        try:
            self.get(name)
        except KeyError:
            return False
        return True

    def get(self, name: str) -> CellType:
        """Look up a cell type by (possibly aliased, sized, lowercase) name."""
        key = name.upper()
        # Strip a trailing size suffix: NAND2 -> NAND, NOR3 -> NOR, XOR2 -> XOR.
        stripped = key.rstrip("0123456789")
        if key in self._ALIASES:
            key = self._ALIASES[key]
        elif key not in self._cells and stripped in self._cells:
            key = stripped
        elif key not in self._cells and stripped in self._ALIASES:
            key = self._ALIASES[stripped]
        if key not in self._cells:
            raise KeyError(f"unknown cell type {name!r}")
        return self._cells[key]

    def types(self) -> Tuple[CellType, ...]:
        return tuple(self._cells.values())


#: The default library used throughout the package.
LIBRARY = CellLibrary(
    [BUF, INV, AND, NAND, OR, NOR, XOR, XNOR, MUX, DFF, TIE0, TIE1]
)
