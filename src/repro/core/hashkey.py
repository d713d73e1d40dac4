"""Hash keys: canonical string encodings of fanin-cone subtrees.

Section 2.3 of the paper encodes each subtree as "a string obtained by doing
a post-order traversal from its root to its leaves", recording only the gate
type of each node, with "multiple fanins of a gate sorted lexicographically".
Equal strings ⇒ structurally similar trees (a fast, slightly conservative
stand-in for tree isomorphism).  The same encoding appears as the Polish
expression of floorplanning [12] and the hash key of WordRev [6].

A *bit signature* decomposes a candidate word bit into its root gate type
plus the hash keys of its second-level subtrees (one per root fanin).
Control-signal discovery (2.4) and post-reduction re-checking (2.5)
operate on these signatures; matching (2.3) needs only a bit's *shape*
(:class:`BitShape`), the root type and sorted subtree keys without the
nets.

:func:`hash_key`, :func:`signature_of` and :class:`SignatureIndex` are the
reference implementations — direct transcriptions of the paper kept for
tests and one-off queries.  The staged engine computes the same keys and
signatures through :class:`~repro.core.context.AnalysisContext`, which adds
the memoization (per-netlist key tables, DAG-shared cones, incremental
re-hash after reduction) that production-scale runs need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..netlist.cone import ConeNode
from ..netlist.netlist import Netlist

__all__ = [
    "hash_key",
    "Subtree",
    "BitSignature",
    "BitShape",
    "signature_of",
    "SignatureIndex",
    "DEFAULT_DEPTH",
]

#: Levels of logic explored below each bit, as in the paper's Figure 1.
DEFAULT_DEPTH = 4

#: Token for cone leaves (PIs, register outputs, depth frontier).  Leaf net
#: *names* never appear in hash keys — matching is purely structural.
LEAF_TOKEN = "$"

def hash_key(node: ConeNode) -> str:
    """Canonical post-order string of an expanded cone subtree.

    Children are serialized first and sorted lexicographically, then the
    node's own gate type is appended — a post-order (Polish) encoding that
    is invariant under fanin permutation.
    """
    if node.is_leaf:
        return LEAF_TOKEN
    parts = sorted(hash_key(child) for child in node.children)
    return f"({''.join(parts)}{node.gate_type})"


@dataclass(frozen=True)
class Subtree:
    """One second-level subtree of a bit: a root fanin and its hash key.

    Plain data: *every* candidate bit needs a key, but only the few
    dissimilar subtrees of partially-matched subgroups need the expanded
    cone (for control-signal discovery), and those read it from the
    :class:`~repro.core.context.AnalysisContext` that memoizes cones —
    ``context.cone(root_net, depth - 1)``.
    """

    # No instance dict: there is one per child net of every signed bit.
    # Declared here, as dataclass(slots=True) needs Python 3.10.
    __slots__ = ("root_net", "key")

    root_net: str
    key: str

    def __reduce__(self):
        # A frozen slotted instance cannot have its slots set back by
        # copy or pickle, so both rebuild it through __init__.
        return (Subtree, (self.root_net, self.key))


@dataclass(frozen=True)
class BitSignature:
    """Structural summary of one candidate word bit.

    ``root_type`` is the gate type driving the bit net (qualified by fanin
    count, so a 2-input NAND and a 3-input NAND differ).  ``subtrees`` holds
    one entry per root fanin, and ``sorted_keys`` caches their hash keys in
    sorted order for the merge-join comparison of Section 2.3.
    """

    # As Subtree's: no instance dict, and copies rebuilt through __init__.
    __slots__ = ("net", "root_type", "subtrees", "sorted_keys")

    net: str
    root_type: Optional[str]
    subtrees: Tuple[Subtree, ...]
    sorted_keys: Tuple[str, ...]

    @property
    def is_leaf(self) -> bool:
        """True when the bit net has no expandable driver (PI / FF output)."""
        return self.root_type is None

    def full_key(self) -> str:
        """Hash key of the entire cone (root included) — the [6] shape hash."""
        if self.is_leaf:
            return LEAF_TOKEN
        # root_type carries a fanin-count qualifier; the serialized key
        # format records bare gate types (arity is implied by the children).
        cell_name = self.root_type.rstrip("0123456789")
        return f"({''.join(self.sorted_keys)}{cell_name})"

    def __reduce__(self):
        return (
            BitSignature,
            (self.net, self.root_type, self.subtrees, self.sorted_keys),
        )


class BitShape:
    """The part of a :class:`BitSignature` that Section 2.3 compares.

    ``root_type`` and ``sorted_keys`` as in the signature, without the
    bit's net or its subtrees' root nets.  Real designs have few shapes
    (b18: 129 over 39k candidate bits), and
    :meth:`~repro.core.context.AnalysisContext.shapes` hands every bit
    of one shape the same record, so within one context two bits have
    equal shapes exactly when their records are the same object.
    """

    __slots__ = ("root_type", "sorted_keys")

    def __init__(
        self, root_type: Optional[str], sorted_keys: Tuple[str, ...]
    ):
        self.root_type = root_type
        self.sorted_keys = sorted_keys

    def __repr__(self) -> str:
        return f"BitShape({self.root_type!r}, {self.sorted_keys!r})"


#: The shape of every bit with no expandable driver (PI, register output,
#: cone boundary); it chains with nothing.
LEAF_SHAPE = BitShape(None, ())


def fast_subtree(root_net: str, key: str) -> Subtree:
    """:class:`Subtree` built without the frozen-dataclass ``__init__``.

    Frozen dataclasses funnel every field store through
    ``object.__setattr__``; the bulk signature pass
    (:meth:`~repro.core.context.AnalysisContext.signatures`) constructs
    one per child net of every signed bit, so it stores each field
    through its slot's member descriptor directly.  Field-for-field
    identical to ``Subtree(...)`` (equality and hashing behave the same).
    """
    subtree = _SUBTREE_NEW(Subtree)
    _SET_ROOT_NET(subtree, root_net)
    _SET_KEY(subtree, key)
    return subtree


def fast_signature(
    net: str,
    root_type: Optional[str],
    subtrees: Tuple[Subtree, ...],
    sorted_keys: Tuple[str, ...],
) -> BitSignature:
    """:class:`BitSignature` built like :func:`fast_subtree`."""
    signature = _SIGNATURE_NEW(BitSignature)
    _SET_NET(signature, net)
    _SET_ROOT_TYPE(signature, root_type)
    _SET_SUBTREES(signature, subtrees)
    _SET_SORTED_KEYS(signature, sorted_keys)
    return signature


_SUBTREE_NEW = Subtree.__new__
_SET_ROOT_NET = Subtree.root_net.__set__
_SET_KEY = Subtree.key.__set__
_SIGNATURE_NEW = BitSignature.__new__
_SET_NET = BitSignature.net.__set__
_SET_ROOT_TYPE = BitSignature.root_type.__set__
_SET_SUBTREES = BitSignature.subtrees.__set__
_SET_SORTED_KEYS = BitSignature.sorted_keys.__set__


class SignatureIndex:
    """Memoized hash-key computation over one netlist.

    Fanin cones of neighbouring bits overlap heavily; expanding each cone
    as a fresh tree re-serializes the shared logic once per bit.  The index
    instead memoizes the canonical key of every (net, remaining-levels)
    pair, making a whole-netlist signature scan linear in practice.  The
    produced keys are identical to :func:`hash_key` on the expanded tree.
    """

    def __init__(self, netlist: Netlist, depth: int = DEFAULT_DEPTH):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.netlist = netlist
        self.depth = depth
        self._boundary = netlist.cone_leaf_nets()
        self._keys: Dict[Tuple[str, int], str] = {}

    def key(self, net: str, levels: int) -> str:
        """Hash key of ``net``'s cone expanded ``levels`` gate levels."""
        memo_key = (net, levels)
        cached = self._keys.get(memo_key)
        if cached is not None:
            return cached
        driver = self.netlist.driver(net)
        if (
            levels == 0
            or driver is None
            or driver.is_ff
            or net in self._boundary
        ):
            result = LEAF_TOKEN
        else:
            parts = sorted(
                self.key(child, levels - 1) for child in driver.inputs
            )
            result = f"({''.join(parts)}{driver.cell.name})"
        self._keys[memo_key] = result
        return result

    def signature(self, net: str) -> BitSignature:
        """The :class:`BitSignature` of ``net`` at this index's depth."""
        driver = self.netlist.driver(net)
        if driver is None or driver.is_ff or net in self._boundary:
            return BitSignature(net, None, (), ())
        subtrees = tuple(
            Subtree(child, self.key(child, self.depth - 1))
            for child in driver.inputs
        )
        sorted_keys = tuple(sorted(s.key for s in subtrees))
        root_type = f"{driver.cell.name}{len(driver.inputs)}"
        return BitSignature(net, root_type, subtrees, sorted_keys)


def signature_of(
    netlist: Netlist, net: str, depth: int = DEFAULT_DEPTH
) -> BitSignature:
    """Compute the :class:`BitSignature` of ``net``.

    The bit's cone is expanded ``depth`` gate levels; the root gate is level
    one, and each of its fanins heads a second-level subtree explored
    ``depth - 1`` further levels.  For bulk scans prefer a shared
    :class:`SignatureIndex`, which memoizes keys across overlapping cones.
    """
    return SignatureIndex(netlist, depth).signature(net)
