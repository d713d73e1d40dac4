"""``regfeat`` backend: feature-vector register aggregation.

The complementary strategy family to the paper's matcher (PAPERS.md:
RELIC / RELIC-GNN state-register identification, "Register Aggregation
for Hardware Decompilation"): instead of demanding structurally similar
fan-in logic, aggregate flip-flops into words by *connectivity feature*
similarity.  A word's bits tend to share control (the same write-enable,
wordline, or reset logic feeds every bit), sit adjacent in the netlist
file, load from the same kind of source, and fan out comparably — even
when their per-bit data functions are so heterogeneous that pairwise
structural matching (and therefore both ``ours`` and ``base``) fragments
them.

Per candidate flip-flop (its D-input net, the same bit universe the
staged pipeline and the fuzz ground truth use) the extractor derives:

* **root shape** — driving cell and arity (``ff`` for direct FF-to-FF
  wires, so shift chains are aggregatable; ``input`` for PI-driven bits);
* **fan-in cone support** — the cone-boundary leaves (PIs and FF
  outputs) reachable within ``config.depth`` levels, split into
  *control-like* leaves (shared by many candidate cones — write enables,
  wordlines, opcode bits, reset/enable nets) and *data* leaves;
* **self-loop** — whether the bit's own Q feeds its D cone (hold muxes,
  counters, CAM tags);
* **fan-out degree** of the Q net and the **file position** of the FF.

Candidate pairs within a sliding file-order window are scored by a
weighted similarity (control-overlap Jaccard dominates, then data
support, self-loop agreement, proximity, fan-out), and scores above a
fixed threshold are unioned agglomeratively in deterministic
best-score-first order, with a width cap so a pathological netlist
cannot collapse into one giant word.  No randomness, no similarity
requirement, no reduction: the output is a plain partition of the
candidate bits into words and singletons.

Like every backend the runner is deterministic — two runs are
byte-identical on words, singletons, and trace counters.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, FrozenSet, List, Tuple

from ..netlist.netlist import Netlist
from .words import IdentificationResult, Word

__all__ = ["run_regfeat", "REGFEAT_NAME"]

REGFEAT_NAME = "regfeat"

#: Candidate pairs are scored only within this file-order distance; words
#: wider than the window are still found (adjacent links chain through
#: the union-find), it only bounds the quadratic pairing cost.
PAIR_WINDOW = 48

#: Minimum similarity for a merge.
MERGE_THRESHOLD = 0.70

#: Hard cap on aggregated word width: a merge that would exceed it is
#: skipped (best-score-first, so the strongest links win the budget).
MAX_WORD_WIDTH = 64

# Similarity weights (sum to 1.0); control overlap dominates by design —
# shared write/reset/select logic is the signature of a register word.
_W_CONTROL = 0.40
_W_DATA = 0.25
_W_SELFLOOP = 0.15
_W_PROXIMITY = 0.10
_W_FANOUT = 0.10


class _BitFeatures:
    """Connectivity features of one candidate flip-flop."""

    __slots__ = (
        "index", "dnet", "root", "selfloop", "control", "data", "fanout",
    )

    def __init__(
        self,
        index: int,
        dnet: str,
        root: str,
        selfloop: bool,
        control: FrozenSet[str],
        data: FrozenSet[str],
        fanout: int,
    ):
        self.index = index
        self.dnet = dnet
        self.root = root
        self.selfloop = selfloop
        self.control = control
        self.data = data
        self.fanout = fanout


def _cone_leaves(
    netlist: Netlist, dnet: str, depth: int, boundary: FrozenSet[str]
) -> FrozenSet[str]:
    """Cone-boundary leaves reachable from ``dnet`` within ``depth`` levels.

    A net on the boundary (PI or FF output) is a leaf even at level 0 —
    a D pin wired straight to another FF's Q reports that Q as its only
    support.  Nets still combinational at the depth horizon are treated
    as leaves of their own, mirroring how cone extraction truncates.
    """
    leaves: set = set()
    frontier = [(dnet, 0)]
    seen = {dnet}
    while frontier:
        net, level = frontier.pop()
        if net in boundary:
            leaves.add(net)
            continue
        gate = netlist.driver(net)
        if gate is None or gate.is_ff:
            leaves.add(net)
            continue
        if level >= depth:
            leaves.add(net)
            continue
        for child in gate.inputs:
            if child not in seen:
                seen.add(child)
                frontier.append((child, level + 1))
    return frozenset(leaves)


def _extract_features(
    netlist: Netlist, depth: int
) -> List[_BitFeatures]:
    """Feature vectors for every flip-flop, in file order."""
    boundary = netlist.cone_leaf_nets()
    ffs = netlist.flip_flops()
    raw: List[Tuple[str, str, str, FrozenSet[str], int]] = []
    leaf_counts: Dict[str, int] = {}
    seen_dnets: set = set()
    for ff in ffs:
        dnet = ff.inputs[0]
        # Two flip-flops latching the same net are one candidate bit:
        # word membership is over D nets, and a duplicate would emit the
        # same bit twice in one word.  First (file-order) FF wins.
        if dnet in seen_dnets:
            continue
        seen_dnets.add(dnet)
        driver = netlist.driver(dnet)
        if driver is None:
            root = "input"
        elif driver.is_ff:
            root = "ff"
        else:
            root = f"{driver.cell.name}/{len(driver.inputs)}"
        leaves = _cone_leaves(netlist, dnet, depth, boundary)
        qnet = ff.output
        support = leaves - {qnet}
        for leaf in support:
            leaf_counts[leaf] = leaf_counts.get(leaf, 0) + 1
        raw.append((dnet, qnet, root, leaves, len(netlist.fanouts(qnet))))
    # A leaf shared by this many candidate cones is control-like: write
    # enables, wordlines, opcode/select bits, resets.  Scales gently with
    # design size so wide buses on big designs do not all promote.
    control_min = max(3, len(raw) // 32)
    features: List[_BitFeatures] = []
    for index, (dnet, qnet, root, leaves, fanout) in enumerate(raw):
        support = leaves - {qnet}
        control = frozenset(
            leaf for leaf in support if leaf_counts[leaf] >= control_min
        )
        features.append(_BitFeatures(
            index=index,
            dnet=dnet,
            root=root,
            selfloop=qnet in leaves,
            control=control,
            data=support - control,
            fanout=fanout,
        ))
    return features


def _jaccard(a: FrozenSet[str], b: FrozenSet[str]) -> float:
    if not a and not b:
        return 1.0
    union = len(a | b)
    return len(a & b) / union if union else 1.0


def _similarity(a: _BitFeatures, b: _BitFeatures) -> float:
    """Weighted feature similarity in [0, 1]; 0 across root classes."""
    if a.root != b.root:
        return 0.0
    distance = abs(a.index - b.index)
    return (
        _W_CONTROL * _jaccard(a.control, b.control)
        + _W_DATA * _jaccard(a.data, b.data)
        + _W_SELFLOOP * (1.0 if a.selfloop == b.selfloop else 0.0)
        + _W_PROXIMITY * max(0.0, 1.0 - distance / PAIR_WINDOW)
        + _W_FANOUT * (1.0 / (1.0 + abs(a.fanout - b.fanout)))
    )


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] + self.size[rb] > MAX_WORD_WIDTH:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


def run_regfeat(netlist: Netlist, config) -> IdentificationResult:
    """Aggregate FF words by feature similarity (the ``regfeat`` backend).

    Implements the :func:`~repro.core.pipeline.identify_words` contract.
    Trace counters are repurposed deterministically:
    ``num_candidate_nets`` counts candidate FFs, ``num_groups`` the
    emitted clusters, ``num_subgroups`` the scored pairs, and
    ``num_fully_matched_subgroups`` the accepted merges.
    """
    started = perf_counter()
    result = IdentificationResult()
    result.trace.backend = REGFEAT_NAME

    stage_started = perf_counter()
    features = _extract_features(netlist, config.depth)
    result.trace.stage_seconds["features"] = perf_counter() - stage_started

    stage_started = perf_counter()
    scored: List[Tuple[float, int, int]] = []
    for i, feat in enumerate(features):
        for j in range(i + 1, min(i + PAIR_WINDOW, len(features))):
            score = _similarity(feat, features[j])
            if score >= MERGE_THRESHOLD:
                # Rounded so sort order cannot hinge on float dust.
                scored.append((round(score, 9), i, j))
    result.trace.num_subgroups = len(scored)
    uf = _UnionFind(len(features))
    merges = 0
    for score, i, j in sorted(scored, key=lambda s: (-s[0], s[1], s[2])):
        if uf.union(i, j):
            merges += 1
    result.trace.stage_seconds["pairing"] = perf_counter() - stage_started

    stage_started = perf_counter()
    clusters: Dict[int, List[int]] = {}
    for index in range(len(features)):
        clusters.setdefault(uf.find(index), []).append(index)
    # Deterministic emission: clusters by first member, bits in file order.
    for root in sorted(clusters, key=lambda r: min(clusters[r])):
        members = sorted(clusters[root])
        bits = tuple(features[index].dnet for index in members)
        if len(bits) >= 2:
            result.words.append(Word(bits))
        else:
            result.singletons.append(bits[0])
    result.trace.num_candidate_nets = len(features)
    result.trace.num_groups = len(clusters)
    result.trace.num_fully_matched_subgroups = merges
    result.trace.stage_seconds["emission"] = perf_counter() - stage_started
    result.runtime_seconds = perf_counter() - started

    from .stages import AnalysisEngine

    AnalysisEngine._publish_metrics(result)
    return result
