"""Shared analysis state: memoized cones, hash keys, and incremental re-hash.

The staged engine (:mod:`repro.core.stages`) routes every structural query
of a run through one :class:`AnalysisContext`, the reduction searches
included, and the context keeps one memo per structural fact:

* **Cones** are memoized by ``(net, levels)`` and DAG-shared — a subtree
  expanded once is the *same* :class:`ConeNode` object inside every cone
  that contains it.
* **Hash keys** live in per-level key tables (the
  :class:`~repro.core.hashkey.SignatureIndex` scheme), the only key
  source: one ``net -> key`` table per level below the bit depth, each
  key formatted once per distinct shape.
* **Shapes** (:meth:`shapes`) are interned: every bit of one root type
  and sorted subtree-key multiset shares one
  :class:`~repro.core.hashkey.BitShape`, which is all that matching
  compares.
* **Signatures** are memoized per net and built only on request (the
  engine asks for the bits of partially matched subgroups): a bit's
  interned shape plus its subtrees.  A
  :class:`~repro.core.hashkey.Subtree` is plain data (root net and key);
  the few consumers that need its expanded tree ask :meth:`cone`.
* **Cone net sets** (:meth:`cone_nets`) are memoized by ``(net,
  levels)``.  The control stage intersects and walks them, and the
  reduced re-hash tests them.
* **Incremental reduced re-hash** (:meth:`signatures_after_reduction`):
  after a control-signal assignment reduces a subcircuit, only the
  subtrees whose cone net set meets the assigned nets are rehashed; every
  other subtree reuses its unreduced key verbatim.

Every cache movement is counted in :class:`~repro.core.words.CacheStats`
for the observability layer.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..netlist.cone import ConeNode, extract_cone
from ..netlist.netlist import Netlist
from .hashkey import (
    DEFAULT_DEPTH,
    LEAF_SHAPE,
    LEAF_TOKEN,
    BitShape,
    BitSignature,
    Subtree,
    fast_signature,
    fast_subtree,
)
from .words import CacheStats

__all__ = ["AnalysisContext"]


class AnalysisContext:
    """Memoized structural-analysis state for one netlist.

    Produces exactly the same keys and signatures as
    :class:`~repro.core.hashkey.SignatureIndex` / :func:`~repro.core.hashkey.hash_key`
    on freshly expanded trees — the context only changes *when* work
    happens, never *what* is computed.
    """

    def __init__(self, netlist: Netlist, depth: int = DEFAULT_DEPTH):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.netlist = netlist
        self.depth = depth
        self.boundary = netlist.cone_leaf_nets()
        self.stats = CacheStats()
        # Cooperative run budget (core/resilience.py), set by the engine
        # before the signature stage; None means no limits configured.
        self.budget = None
        self._cones: Dict[Tuple[str, int], ConeNode] = {}
        self._signatures: Dict[str, BitSignature] = {}
        self._netsets: Dict[Tuple[str, int], frozenset] = {}
        # The key tables: entry L maps each eligible net to its key at L
        # levels (a missing net is a cone leaf, LEAF_TOKEN), for levels
        # 0 .. depth-1.  Level 0 is all leaves, so its table is empty;
        # the others fill on first read or in precompute_keys().  Nets of
        # one shape share one key string.
        self._level_keys: List[Dict[str, str]] = [{}]
        # One Subtree per child net at depth-1 levels, shared by every
        # signature that reads the net.
        self._subtrees: Dict[str, Subtree] = {}
        # shapes(): one BitShape per (cell name, sorted subtree keys).
        self._shapes: Dict[tuple, BitShape] = {}

    # ------------------------------------------------------------------
    # cones
    # ------------------------------------------------------------------
    def cone(self, net: str, levels: Optional[int] = None) -> ConeNode:
        """The memoized, DAG-shared fanin cone of ``net``.

        Structurally identical to
        ``extract_cone(netlist, net, levels, stop_nets=boundary)``; shared
        subtrees are the same :class:`ConeNode` objects across calls.
        """
        if levels is None:
            levels = self.depth
        cached = self._cones.get((net, levels))
        if cached is not None:
            self.stats.cone_hits += 1
            return cached
        self.stats.cone_misses += 1
        return extract_cone(
            self.netlist,
            net,
            levels,
            stop_nets=self.boundary,
            node_cache=self._cones,
        )

    # ------------------------------------------------------------------
    # hash keys
    # ------------------------------------------------------------------
    def key(self, net: str, levels: int) -> str:
        """Hash key of ``net``'s cone expanded ``levels`` gate levels, for
        ``0 <= levels < depth``: one read of that level's key table.

        Stat-free; hit/miss counters are maintained at the subtree-query
        level by :meth:`signatures` and :meth:`precompute_keys`.
        """
        return self._key_table(levels).get(net, LEAF_TOKEN)

    def precompute_keys(self) -> bool:
        """Fill the key tables of levels ``1 .. depth-1``, the levels bit
        signatures query; whether every table is filled.

        The pass checks the run budget before each level and stops once
        it expires, leaving the tables it has not reached empty; it
        returns ``False`` then.  Idempotent, and a later call resumes a
        cut pass.  Outside the engine the tables also fill on first read.
        """
        return self._fill_key_tables(self.depth - 1, self.budget)

    def _key_table(self, levels: int) -> Dict[str, str]:
        """The ``net -> key`` table of ``levels``, filled on first read."""
        if not 0 <= levels < self.depth:
            raise ValueError(f"levels must be in 0 .. {self.depth - 1}")
        self._fill_key_tables(levels)
        return self._level_keys[levels]

    def _fill_key_tables(self, top: int, budget=None) -> bool:
        """Fill the missing key tables up to level ``top``, bottom-up;
        whether they all are filled (``budget`` may stop the pass between
        levels).

        One bulk pass over the driver index computes each level from the
        one below it with tight loops.  A key is a function of the gate's
        cell and its children's keys, and real designs have few of those
        per level (b18: 13/90/173 keys at levels 1/2/3 over 59k nets), so
        each level formats a key once per distinct ``(cell name, sorted
        child keys)`` and maps every net of that shape to the one string:
        matching's string compares then short-circuit on identity.  The
        memo is keyed by the cell's name, not its
        :class:`~repro.netlist.cells.CellType`, whose dataclass hash
        rehashes every field.
        """
        tables = self._level_keys
        if len(tables) > top:
            return True
        boundary = self.boundary
        nets: List[str] = []
        cells: List[str] = []
        fanins: List[Tuple[str, ...]] = []
        for net, gate in self.netlist.drivers():
            if not gate.cell.sequential and net not in boundary:
                nets.append(net)
                cells.append(gate.cell.name)
                fanins.append(gate.inputs)
        prev = tables[-1]
        leaf = LEAF_TOKEN
        filled = 0
        while len(tables) <= top:
            if budget is not None and budget.expired():
                break
            cur: Dict[str, str] = {}
            formatted: Dict[tuple, str] = {}
            get = prev.get
            lookup = formatted.get
            for net, cell, inputs in zip(nets, cells, fanins):
                if len(inputs) == 2:
                    a = get(inputs[0], leaf)
                    b = get(inputs[1], leaf)
                    shape = (cell, a, b) if a <= b else (cell, b, a)
                else:
                    shape = (cell, *sorted([get(c, leaf) for c in inputs]))
                key = lookup(shape)
                if key is None:
                    key = formatted[shape] = f"({''.join(shape[1:])}{cell})"
                cur[net] = key
            tables.append(cur)
            prev = cur
            filled += 1
        self.stats.key_misses += len(nets) * filled
        return len(tables) > top

    # ------------------------------------------------------------------
    # signatures
    # ------------------------------------------------------------------
    def signature(self, net: str) -> BitSignature:
        """The :class:`BitSignature` of ``net`` at this context's depth."""
        return self.signatures((net,))[0]

    def signatures(
        self,
        nets: Sequence[str],
        shapes: Optional[Sequence[BitShape]] = None,
    ) -> List[BitSignature]:
        """The :class:`BitSignature` of each of ``nets``, memoized per net.

        A signature is its bit's interned :meth:`shapes` record (root
        type and sorted subtree keys) plus one :class:`Subtree` per root
        fanin.  ``shapes`` are the nets' records when the caller already
        has them (the engine passes the ones matching compared), so no
        shape is derived twice; otherwise they are derived here for the
        nets not yet memoized.  Fanout shares one :class:`Subtree` per
        child net (a subtree is a pure function of its child within one
        context), a gate listing the same input twice included.  A net
        listed twice is built once and counted as a hit the second time.
        """
        memo = self._signatures
        if shapes is None:
            missing = [net for net in dict.fromkeys(nets) if net not in memo]
            nets_shapes = zip(missing, self.shapes(missing))
        else:
            nets_shapes = zip(nets, shapes)
        key_of = self._key_table(self.depth - 1).get
        driver_of = self.netlist.driver
        subtrees_of = self._subtrees
        sub_get = subtrees_of.get
        leaf = LEAF_TOKEN
        new_subtree = fast_subtree
        built = key_hits = 0
        for net, shape in nets_shapes:
            if net in memo:
                continue
            built += 1
            if shape.root_type is None:
                memo[net] = fast_signature(net, None, (), ())
                continue
            inputs = driver_of(net).inputs
            key_hits += len(inputs)
            subtrees = []
            for child in inputs:
                subtree = sub_get(child)
                if subtree is None:
                    subtree = subtrees_of[child] = new_subtree(
                        child, key_of(child, leaf)
                    )
                subtrees.append(subtree)
            memo[net] = fast_signature(
                net, shape.root_type, tuple(subtrees), shape.sorted_keys
            )
        stats = self.stats
        stats.signature_misses += built
        stats.signature_hits += len(nets) - built
        stats.key_hits += key_hits
        return [memo[net] for net in nets]

    def shapes(self, nets: Sequence[str]) -> List[BitShape]:
        """The :class:`BitShape` of each of ``nets``: what matching compares.

        A shape is a signature's ``root_type`` and ``sorted_keys``, read
        off the depth-1 key table and interned per distinct ``(cell name,
        sorted subtree keys)``, so bits of one shape share one record and
        no per-bit object is built.  :meth:`signatures` takes its bits'
        shapes from here.  Nothing is counted: the signature and key-hit
        counters describe the signatures :meth:`signatures` builds, which
        the engine asks for only where its later stages read subtrees.
        """
        key_of = self._key_table(self.depth - 1).get
        memo = self._shapes
        driver_of = self.netlist.driver
        boundary = self.boundary
        leaf = LEAF_TOKEN
        out: List[BitShape] = []
        append = out.append
        for net in nets:
            driver = driver_of(net)
            if driver is None or driver.cell.sequential or net in boundary:
                append(LEAF_SHAPE)
                continue
            cell = driver.cell.name
            inputs = driver.inputs
            if len(inputs) == 2:
                a = key_of(inputs[0], leaf)
                b = key_of(inputs[1], leaf)
                memo_key = (cell, a, b) if a <= b else (cell, b, a)
            else:
                memo_key = (cell, *sorted([key_of(c, leaf) for c in inputs]))
            shape = memo.get(memo_key)
            if shape is None:
                shape = memo[memo_key] = BitShape(
                    f"{cell}{len(inputs)}", memo_key[1:]
                )
            append(shape)
        return out

    # ------------------------------------------------------------------
    # cone net sets
    # ------------------------------------------------------------------
    def cone_nets(self, net: str, levels: int) -> frozenset:
        """Net names of ``net``'s cone expanded ``levels`` gate levels.

        Equal to ``{n.net for n in self.cone(net, levels).walk()}`` but
        computed straight off the driver index — no :class:`ConeNode` tree
        is materialized.  The control stage intersects these sets to decide
        whether a subgroup has any common net at all before it pays for
        cone extraction, and reads them again for the nets below each
        common net; the reduced re-hash tests them against the assigned
        nets (:meth:`signatures_after_reduction`).
        """
        memo_key = (net, levels)
        cached = self._netsets.get(memo_key)
        if cached is not None:
            self.stats.netset_hits += 1
            return cached
        self.stats.netset_misses += 1
        return self._cone_nets_rec(net, levels)

    def _cone_nets_rec(self, net: str, levels: int) -> frozenset:
        memo_key = (net, levels)
        cached = self._netsets.get(memo_key)
        if cached is not None:
            return cached
        driver = self.netlist.driver(net)
        if (
            levels == 0
            or driver is None
            or driver.is_ff
            or net in self.boundary
        ):
            result = frozenset((net,))
        else:
            acc = {net}
            for child in driver.inputs:
                acc.update(self._cone_nets_rec(child, levels - 1))
            result = frozenset(acc)
        self._netsets[memo_key] = result
        return result

    # ------------------------------------------------------------------
    # incremental re-hash after reduction
    # ------------------------------------------------------------------
    def signatures_after_reduction(
        self,
        reduced: Netlist,
        values: Mapping[str, int],
        bits: Sequence[str],
    ) -> List[BitSignature]:
        """Signatures of ``bits`` on a netlist reduced under ``values``.

        ``reduced`` must be the result of
        :func:`~repro.core.reduction.reduce_netlist` with ``values`` as the
        full constant map (seeds plus inferred nets), run on this
        context's netlist or on a subcircuit of it that holds the bits'
        cones (:func:`~repro.netlist.cone.extract_subcircuit`, as the
        reduction search cuts).  Subtrees whose cone net set is disjoint
        from the assigned nets reuse their unreduced keys; everything else
        is rehashed against the reduced netlist.  The result is equal to
        running a fresh ``SignatureIndex`` over ``reduced``.
        """
        reduced_boundary = reduced.cone_leaf_nets()
        local_keys: Dict[Tuple[str, int], str] = {}
        depth = self.depth
        signatures: List[BitSignature] = []
        for bit in bits:
            if not self._touched(values, bit, depth):
                signatures.append(self.signature(bit))
                continue
            driver = reduced.driver(bit)
            if driver is None or driver.is_ff or bit in reduced_boundary:
                signatures.append(BitSignature(bit, None, (), ()))
                continue
            subtrees = tuple(
                Subtree(
                    child,
                    self._reduced_key(
                        reduced, reduced_boundary, values, local_keys,
                        child, depth - 1,
                    ),
                )
                for child in driver.inputs
            )
            sorted_keys = tuple(sorted(s.key for s in subtrees))
            root_type = f"{driver.cell.name}{len(driver.inputs)}"
            signatures.append(
                BitSignature(bit, root_type, subtrees, sorted_keys)
            )
        return signatures

    def _touched(
        self, values: Mapping[str, int], net: str, levels: int
    ) -> bool:
        """Whether assigning ``values`` can change ``(net, levels)``'s key:
        whether they assign a net of its cone, at levels >= 1 (a key at
        level 0 is ``$`` whatever is assigned).

        A gate's shape changes when its output is assigned (gate removed),
        when an input is assigned (input dropped / cell rewritten), or when
        a subtree below it changes.  An assigned cone leaf is dirty too: a
        reduced netlist may re-drive it with a TIE cell, which an unreduced
        key cannot anticipate.
        """
        return levels > 0 and not self.cone_nets(net, levels).isdisjoint(
            values
        )

    def _reduced_key(
        self,
        reduced: Netlist,
        boundary: frozenset,
        values: Mapping[str, int],
        memo: Dict[Tuple[str, int], str],
        net: str,
        levels: int,
    ) -> str:
        """Hash key of ``(net, levels)`` on ``reduced``: the unreduced key
        when ``values`` cannot touch it, else rehashed against ``reduced``
        (cone leaves at ``boundary``) and memoized in ``memo``."""
        if not self._touched(values, net, levels):
            self.stats.reduced_keys_reused += 1
            return self.key(net, levels)
        memo_key = (net, levels)
        cached = memo.get(memo_key)
        if cached is not None:
            return cached
        self.stats.reduced_keys_rehashed += 1
        driver = reduced.driver(net)
        if (
            levels == 0
            or driver is None
            or driver.is_ff
            or net in boundary
        ):
            result = LEAF_TOKEN
        else:
            parts = sorted(
                self._reduced_key(
                    reduced, boundary, values, memo, child, levels - 1
                )
                for child in driver.inputs
            )
            result = f"({''.join(parts)}{driver.cell.name})"
        memo[memo_key] = result
        return result
