"""Shared analysis state: memoized cones, hash keys, and incremental re-hash.

The staged engine (:mod:`repro.core.stages`) routes every structural query
through one :class:`AnalysisContext` per netlist instead of rebuilding
indices ad hoc:

* **Cone extraction** is memoized by ``(net, levels)`` and DAG-shared —
  a subtree expanded once is the *same* :class:`ConeNode` object inside
  every cone that contains it, so identity-keyed memos (the control
  stage's net profiles, :meth:`node_cache`) amortize across bits, groups,
  and subgroups.
* **Hash keys** are memoized by ``(net, levels)`` (the
  :class:`~repro.core.hashkey.SignatureIndex` scheme), in bulk per-level
  tables for the levels bit signatures query.
* **Signatures** are memoized per net.  A
  :class:`~repro.core.hashkey.Subtree` is plain data (root net and key);
  the few consumers that need its expanded tree ask :meth:`cone`.
* **Incremental reduced re-hash** (:meth:`signatures_after_reduction`):
  after a control-signal assignment reduces a subcircuit, only the nets
  the assignment actually touched are rehashed.  Per ``(net, levels)``
  subtree the context keeps its *support* — the set of nets whose
  assignment can change that subtree's shape — and a subtree whose support
  is disjoint from the assigned nets reuses its unreduced key verbatim.
  This replaces the seed behaviour of constructing a fresh
  ``SignatureIndex`` over every reduced netlist of every assignment.

A context created with ``parent=`` (the engine does this for each
subgroup's subcircuit) reads the parent's key cache before computing: the
subcircuit cut preserves every gate a root-cone hash key can observe, so
parent keys are valid wherever they exist.  Parent caches are never
written through, which keeps parallel subgroup workers race-free — each
worker owns its sub-context and only *reads* the shared one.

Every cache movement is counted in :class:`~repro.core.words.CacheStats`
for the observability layer.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..netlist.cone import ConeNode, extract_cone
from ..netlist.netlist import Netlist
from .hashkey import (
    DEFAULT_DEPTH,
    LEAF_TOKEN,
    BitSignature,
    Subtree,
    fast_signature,
    fast_subtree,
)
from .words import CacheStats

__all__ = ["AnalysisContext"]

_EMPTY_SUPPORT: frozenset = frozenset()


class AnalysisContext:
    """Memoized structural-analysis state for one netlist.

    Produces exactly the same keys and signatures as
    :class:`~repro.core.hashkey.SignatureIndex` / :func:`~repro.core.hashkey.hash_key`
    on freshly expanded trees — the context only changes *when* work
    happens, never *what* is computed.
    """

    def __init__(
        self,
        netlist: Netlist,
        depth: int = DEFAULT_DEPTH,
        parent: Optional["AnalysisContext"] = None,
    ):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.netlist = netlist
        self.depth = depth
        self.parent = parent
        self.boundary = netlist.cone_leaf_nets()
        self.stats = CacheStats()
        # Cooperative run budget (core/resilience.py), set by the engine
        # before the signature stage; None means no limits configured.
        self.budget = None
        self._cones: Dict[Tuple[str, int], ConeNode] = {}
        self._keys: Dict[Tuple[str, int], str] = {}
        self._signatures: Dict[str, BitSignature] = {}
        self._node_caches: Dict[str, dict] = {}
        self._supports: Dict[Tuple[str, int], frozenset] = {}
        self._netsets: Dict[Tuple[str, int], frozenset] = {}
        self._keys_precomputed = False
        # level -> {net: key} for levels 1..depth-1, filled by
        # precompute_keys(); lets signature() resolve subtree keys with one
        # plain-string dict probe (missing net == cone leaf == LEAF_TOKEN).
        # Nets of one shape share one interned key string.
        self._level_keys: Dict[int, Dict[str, str]] = {}
        # Signature memos: interned root types (signatures()) and one
        # Subtree per child net at depth-1 levels, shared by every gate
        # that reads the net (both signature paths).
        self._root_types: Dict[Tuple[str, int], str] = {}
        self._subtrees: Dict[str, Subtree] = {}

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

    def node_cache(self, namespace: str) -> dict:
        """A named ``id(node) -> (node, value)`` memo for derived analyses.

        Because :meth:`cone` canonicalizes subtrees, identity-keyed memos
        here are shared across every cone containing the subtree (the
        control stage caches its per-cone net profiles this way).
        """
        return self._node_caches.setdefault(namespace, {})

    # ------------------------------------------------------------------
    # hash keys
    # ------------------------------------------------------------------
    def key(self, net: str, levels: int) -> str:
        """Hash key of ``net``'s cone expanded ``levels`` gate levels.

        The recursion itself is stat-free (it runs hundreds of thousands of
        times on large designs); hit/miss counters are maintained at the
        subtree-query level by :meth:`signature` and
        :meth:`precompute_keys`.
        """
        memo_key = (net, levels)
        cached = self._keys.get(memo_key)
        if cached is not None:
            return cached
        level_keys = self._level_keys.get(levels)
        if level_keys is not None:
            cached = level_keys.get(net)
            if cached is not None:
                return cached
        if self.parent is not None:
            inherited = self.parent._keys.get(memo_key)
            if inherited is None:
                parent_level = self.parent._level_keys.get(levels)
                if parent_level is not None:
                    inherited = parent_level.get(net)
            if inherited is not None:
                self.stats.key_shared_hits += 1
                self._keys[memo_key] = inherited
                return inherited
        driver = self.netlist.driver(net)
        if (
            levels == 0
            or driver is None
            or driver.is_ff
            or net in self.boundary
        ):
            result = LEAF_TOKEN
        else:
            parts = sorted(
                [self.key(child, levels - 1) for child in driver.inputs]
            )
            result = f"({''.join(parts)}{driver.cell.name})"
        self._keys[memo_key] = result
        return result

    def precompute_keys(self) -> None:
        """Fill the per-level key tables bottom-up for every eligible net
        at levels ``1 .. depth-1`` — the levels bit signatures query.

        The recursive :meth:`key` produces identical strings, but pays a
        Python call per (net, level) frame; one bulk pass over the driver
        index computes each level from the one below it with tight loops.
        Each level interns its strings, so all nets of one shape share one
        key object: real designs have few shapes per level (b18: 13/90/173
        at levels 1/2/3 over 59k nets), and matching's string compares then
        short-circuit on identity.  Idempotent; sub-contexts skip it (they
        inherit from the parent).
        """
        if self._keys_precomputed:
            return
        self._keys_precomputed = True
        boundary = self.boundary
        nets: List[str] = []
        gates = []
        for net, gate in self.netlist.drivers():
            if not gate.cell.sequential and net not in boundary:
                nets.append(net)
                gates.append(gate)
        prev: Dict[str, str] = {}
        completed_levels = 0
        for level in range(1, self.depth):
            if self.budget is not None and self.budget.expired():
                # The run is over (deadline / abort): stop the bulk pass
                # between levels.  Partial tables stay correct — a level
                # that was never filled just falls back to the recursive
                # key path — and the engine degrades at the next stage
                # boundary.
                break
            cur: Dict[str, str] = {}
            shapes: Dict[str, str] = {}
            intern = shapes.setdefault
            get = prev.get
            for net, gate in zip(nets, gates):
                inputs = gate.inputs
                if level == 1:
                    key = f"({LEAF_TOKEN * len(inputs)}{gate.cell.name})"
                elif len(inputs) == 2:
                    a = get(inputs[0], LEAF_TOKEN)
                    b = get(inputs[1], LEAF_TOKEN)
                    if b < a:
                        a, b = b, a
                    key = f"({a}{b}{gate.cell.name})"
                else:
                    parts = sorted([get(c, LEAF_TOKEN) for c in inputs])
                    key = f"({''.join(parts)}{gate.cell.name})"
                cur[net] = intern(key, key)
            self._level_keys[level] = cur
            prev = cur
            completed_levels += 1
        self.stats.key_misses += len(nets) * completed_levels

    # ------------------------------------------------------------------
    # signatures
    # ------------------------------------------------------------------
    def signature(self, net: str) -> BitSignature:
        """The :class:`BitSignature` of ``net`` at this context's depth."""
        cached = self._signatures.get(net)
        if cached is not None:
            self.stats.signature_hits += 1
            return cached
        self.stats.signature_misses += 1
        driver = self.netlist.driver(net)
        if driver is None or driver.is_ff or net in self.boundary:
            sig = BitSignature(net, None, (), ())
        else:
            levels = self.depth - 1
            stats = self.stats
            inputs = driver.inputs
            level_keys = self._level_keys.get(levels)
            if level_keys is not None:
                # Precomputed table: one string probe per subtree; a net
                # absent from the table is a cone leaf (key LEAF_TOKEN).
                get = level_keys.get
                keys_of = [get(child) or LEAF_TOKEN for child in inputs]
                stats.key_hits += len(keys_of)
            else:
                keys = self._keys
                keys_of = []
                for child in inputs:
                    key = keys.get((child, levels))
                    if key is not None:
                        stats.key_hits += 1
                    else:
                        stats.key_misses += 1
                        key = self.key(child, levels)
                    keys_of.append(key)
            shared = self._subtrees
            subtrees = []
            for child, key in zip(inputs, keys_of):
                subtree = shared.get(child)
                if subtree is None:
                    subtree = shared[child] = Subtree(child, key)
                subtrees.append(subtree)
            subtrees = tuple(subtrees)
            if len(keys_of) == 2:
                a, b = keys_of
                sorted_keys = (a, b) if a <= b else (b, a)
            else:
                sorted_keys = tuple(sorted(keys_of))
            root_type = f"{driver.cell.name}{len(inputs)}"
            sig = BitSignature(net, root_type, subtrees, sorted_keys)
        self._signatures[net] = sig
        return sig

    def signatures(self, nets: Sequence[str]) -> List[BitSignature]:
        """``[self.signature(net) for net in nets]``, built in one loop.

        With the depth-1 key table precomputed, a whole group is built
        without per-net method calls: memo probes and stat bumps are
        batched, the frozen dataclasses go through the fast constructors,
        and fanout shares one :class:`Subtree` per child net (a subtree is
        a pure function of its child within one context), a gate listing
        the same input twice included.  Keys, signatures and counters
        equal the per-net path.
        """
        view = self._level_keys.get(self.depth - 1)
        if view is None:
            return [self.signature(net) for net in nets]
        memo = self._signatures
        driver_of = self.netlist.driver
        boundary = self.boundary
        vget = view.get
        root_types = self._root_types
        subtrees_of = self._subtrees
        sub_get = subtrees_of.get
        leaf = LEAF_TOKEN
        new_subtree = fast_subtree
        out: List[BitSignature] = []
        append = out.append
        sig_hits = sig_misses = key_hits = 0
        for net in nets:
            sig = memo.get(net)
            if sig is not None:
                sig_hits += 1
                append(sig)
                continue
            sig_misses += 1
            driver = driver_of(net)
            if driver is None or driver.cell.sequential or net in boundary:
                sig = fast_signature(net, None, (), ())
            else:
                inputs = driver.inputs
                arity = len(inputs)
                key_hits += arity
                subtrees = []
                keys_of = []
                for child in inputs:
                    subtree = sub_get(child)
                    if subtree is None:
                        subtree = subtrees_of[child] = new_subtree(
                            child, vget(child) or leaf
                        )
                    subtrees.append(subtree)
                    keys_of.append(subtree.key)
                subtrees = tuple(subtrees)
                if arity == 2:
                    a, b = keys_of
                    sorted_keys = (a, b) if a <= b else (b, a)
                else:
                    sorted_keys = tuple(sorted(keys_of))
                cell = driver.cell.name
                root_type = root_types.get((cell, arity))
                if root_type is None:
                    root_type = root_types[(cell, arity)] = f"{cell}{arity}"
                sig = fast_signature(net, root_type, subtrees, sorted_keys)
            memo[net] = sig
            append(sig)
        stats = self.stats
        stats.signature_hits += sig_hits
        stats.signature_misses += sig_misses
        stats.key_hits += key_hits
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
        cone extraction.
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
    def support(self, net: str, levels: int) -> frozenset:
        """Nets whose constant assignment can change ``(net, levels)``'s key.

        A gate's shape changes when its output is assigned (gate removed),
        when an input is assigned (input dropped / cell rewritten), or when
        a subtree below it changes — so the support is the net itself, the
        driver's inputs, and the children's supports.  Cone leaves have
        empty support: their key is ``$`` before and after any reduction.
        """
        memo_key = (net, levels)
        cached = self._supports.get(memo_key)
        if cached is not None:
            return cached
        driver = self.netlist.driver(net)
        if (
            levels == 0
            or driver is None
            or driver.is_ff
            or net in self.boundary
        ):
            result = _EMPTY_SUPPORT
        else:
            nets = {net}
            nets.update(driver.inputs)
            for child in driver.inputs:
                nets |= self.support(child, levels - 1)
            result = frozenset(nets)
        self._supports[memo_key] = result
        return result

    def signatures_after_reduction(
        self,
        reduced: Netlist,
        values: Mapping[str, int],
        bits: Sequence[str],
    ) -> List[BitSignature]:
        """Signatures of ``bits`` on a netlist reduced under ``values``.

        ``reduced`` must be the result of
        :func:`~repro.core.reduction.reduce_netlist` on this context's
        netlist with ``values`` as the full constant map (seeds plus
        inferred nets).  Subtrees whose support is disjoint from the
        assigned nets reuse their unreduced keys; everything else is
        rehashed against the reduced netlist.  The result is equal to
        running a fresh ``SignatureIndex`` over ``reduced``.
        """
        reduced_boundary = reduced.cone_leaf_nets()
        local_keys: Dict[Tuple[str, int], str] = {}
        depth = self.depth
        signatures: List[BitSignature] = []
        for bit in bits:
            if bit not in values and not self._touched(values, bit, depth):
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
        """Whether assigning ``values`` can change ``(net, levels)``'s key.

        Assigned nets are conservatively dirty at levels >= 1: a reduced
        netlist may re-drive them with a TIE cell, which an unreduced key
        cannot anticipate.
        """
        if levels and net in values:
            return True
        return not self.support(net, levels).isdisjoint(values)

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
