"""Anomaly scorer over an identification result (DESIGN.md §16).

The scorer never looks at net or gate *names* — every feature is computed
from netlist structure, file positions, and the identification result, so
scores are invariant under hostile renames (the fuzz oracle checks this).
Four per-gate features measure how poorly the recovered word-level
structure explains a gate:

``mix``
    Distinct state groups among the flip-flop outputs in the gate's fanin
    cone.  Generated word logic reads state from its *own* register (plus
    primary inputs); a rare-trigger Trojan samples registers across the
    whole design, so its cone mixes several identified words.

``span``
    File-position dispersion of those flip-flop taps, normalised by the
    design size — the structural/file-proximity isolation signal of the
    nearest-neighbour Trojan-localization literature (arXiv:2501.16347).
    Word registers sit together in the file; Trojan taps scatter.

``outside``
    Word-cone coverage residue: 1.0 for gates feeding no identified word
    bit at all, 0.5 for gates explained only by singleton leftovers, 0.0
    for gates inside a multi-bit word's fanin cone.

``control``
    Dangling state taps: the gate reads flip-flop state but no identified
    control signal appears in its fanin cone — nothing the pipeline
    recovered gates the logic.

The weighted sum is then smoothed over the structural neighbourhood
(k-nearest-neighbour style: a gate inherits a decayed fraction of its
most anomalous fanin/fanout neighbour), so the quiet inner gates of a
trigger tree rank with the loud ones.  Ties break by file position —
never by name — and every float is rounded so the JSON payload is
byte-stable across platforms and serve pool modes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from ..core.words import IdentificationResult
from ..netlist.netlist import Netlist
from ..schema import stamp

__all__ = ["TriageConfig", "GateScore", "TriageResult", "triage_netlist"]

#: Decimal places kept in emitted scores; coarse enough that IEEE-754
#: noise can never reorder or reword a payload.
_ROUND = 6


@dataclass(frozen=True)
class TriageConfig:
    """Scorer knobs.  Defaults are tuned on the seeded fuzz corpus with
    injected Trojans (see ``repro scoreboard --triage``)."""

    weight_mix: float = 0.40
    weight_span: float = 0.30
    weight_outside: float = 0.15
    weight_control: float = 0.15
    #: Neighbourhood smoothing: ``rounds`` max-propagation steps over the
    #: fanin/fanout graph, each decayed by ``decay``.
    neighbor_decay: float = 0.7
    neighbor_rounds: int = 2
    #: Scores at or above this count as "flagged" in the summary.
    threshold: float = 0.5

    def __post_init__(self):
        for name, value in self.as_dict().items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number")
        for name in (
            "weight_mix", "weight_span", "weight_outside", "weight_control",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 <= self.neighbor_decay <= 1.0:
            raise ValueError("neighbor_decay must be in [0, 1]")
        if self.neighbor_rounds < 0:
            raise ValueError("neighbor_rounds must be non-negative")

    def as_dict(self) -> Dict[str, float]:
        return {
            "weight_mix": self.weight_mix,
            "weight_span": self.weight_span,
            "weight_outside": self.weight_outside,
            "weight_control": self.weight_control,
            "neighbor_decay": self.neighbor_decay,
            "neighbor_rounds": self.neighbor_rounds,
            "threshold": self.threshold,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "TriageConfig":
        return cls(**{
            key: data[key] for key in cls().as_dict() if key in data
        })


@dataclass(frozen=True)
class GateScore:
    """One gate's anomaly verdict."""

    gate: str
    position: int
    score: float
    features: Tuple[Tuple[str, float], ...]

    def as_dict(self) -> Dict:
        return {
            "gate": self.gate,
            "position": self.position,
            "score": self.score,
            "features": dict(self.features),
        }


@dataclass(frozen=True)
class TriageResult:
    """Deterministic gate ranking (most anomalous first).

    Immutable — frozen, with the ranking a tuple — so :meth:`digest`
    serializes and hashes the ranking at most once per result and the
    memo can never go stale.
    """

    scores: Tuple[GateScore, ...] = ()
    backend: str = "ours"
    config: TriageConfig = field(default_factory=TriageConfig)

    def __post_init__(self):
        object.__setattr__(self, "scores", tuple(self.scores))

    @property
    def num_gates(self) -> int:
        return len(self.scores)

    @property
    def num_flagged(self) -> int:
        return sum(
            1 for s in self.scores if s.score >= self.config.threshold
        )

    def rank_of(self, gate: str) -> Optional[int]:
        """1-based rank of ``gate`` in the anomaly ordering."""
        for index, entry in enumerate(self.scores):
            if entry.gate == gate:
                return index + 1
        return None

    def top(self, n: int) -> Tuple[GateScore, ...]:
        return self.scores[: max(0, n)]

    def as_dict(self, top: Optional[int] = None) -> Dict:
        """Stamped, fully deterministic payload (no wall-clock, no cache
        provenance): two runs on the same inputs are byte-identical, which
        is what lets serve answers be compared against CLI output."""
        emitted = self.scores if top is None else self.top(top)
        return stamp({
            "backend": self.backend,
            "config": self.config.as_dict(),
            "num_gates": self.num_gates,
            "num_flagged": self.num_flagged,
            "triage_digest": self.digest(),
            "gates": [s.as_dict() for s in emitted],
        })

    def digest(self) -> str:
        """Content digest over the full ranking (independent of ``top``)."""
        return self._digest

    @cached_property
    def _digest(self) -> str:
        return _ranking_digest(self.scores)

    @classmethod
    def from_dict(cls, data: Dict) -> "TriageResult":
        """Rebuild a result from :meth:`as_dict` output (full payloads
        only — a ``top``-truncated payload cannot reproduce its digest,
        so reconstruction from one raises :class:`ValueError`).

        The stored ``triage_digest`` is checked against the rebuilt
        ranking, which computes the result's one digest."""
        result = cls(
            scores=tuple(
                GateScore(
                    gate=entry["gate"],
                    position=entry["position"],
                    score=entry["score"],
                    features=tuple(sorted(entry["features"].items())),
                )
                for entry in data["gates"]
            ),
            backend=data["backend"],
            config=TriageConfig.from_dict(data["config"]),
        )
        if result.digest() != data["triage_digest"]:
            raise ValueError("triage payload digest mismatch")
        return result


def _ranking_digest(scores: Tuple[GateScore, ...]) -> str:
    """``triage:`` plus the SHA-256 of a full ranking's canonical JSON."""
    blob = json.dumps(
        [[s.gate, s.position, s.score, list(s.features)] for s in scores],
        sort_keys=True, separators=(",", ":"),
    )
    return "triage:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _round(value: float) -> float:
    rounded = round(value, _ROUND)
    return 0.0 if rounded == 0 else rounded  # canonicalise -0.0


def triage_netlist(
    netlist: Netlist,
    result: IdentificationResult,
    config: TriageConfig = TriageConfig(),
) -> TriageResult:
    """Rank every gate of ``netlist`` by anomaly against ``result``."""
    order = netlist.topological_order()
    comb = [g for g in order if not g.is_ff]
    positions = netlist.file_positions()

    # --- state groups: each multi-bit word is one group; every other
    # flip-flop (singleton or unidentified) is its own group.  Words are
    # groups of FF *D-input* nets (the paper's convention), so map each FF
    # through its D pin.
    word_of_dnet: Dict[str, int] = {}
    for word_id, word in enumerate(result.words):
        for bit in word.bits:
            word_of_dnet[bit] = word_id
    ffs = [g for g in netlist.gates_in_file_order() if g.is_ff]
    ff_index: Dict[str, int] = {}  # FF output net -> dense index
    ff_group: List[int] = []  # dense index -> group id
    ff_position: List[int] = []  # dense index -> file position
    next_group = len(result.words)
    for ff in ffs:
        idx = len(ff_index)
        ff_index[ff.output] = idx
        group = word_of_dnet.get(ff.inputs[0])
        if group is None:
            group = next_group
            next_group += 1
        ff_group.append(group)
        ff_position.append(positions[ff.name])

    # --- leaf masks: which FF outputs and primary-input nets feed each
    # gate's fanin cone (integer bitmasks over dense indices; one
    # topological pass each).  The primary-input mask exists to measure
    # cone *purity*: a Trojan trigger's cone is almost entirely state
    # taps, while logic merely downstream of a spliced payload dilutes
    # those taps among its own word's operands.
    pi_index: Dict[str, int] = {}
    masks: Dict[str, int] = {}
    pi_masks: Dict[str, int] = {}
    for gate in comb:
        mask = 0
        pi_mask = 0
        for net in gate.inputs:
            idx = ff_index.get(net)
            if idx is not None:
                mask |= 1 << idx
                continue
            driver = netlist.driver(net)
            if driver is None:
                pi_idx = pi_index.setdefault(net, len(pi_index))
                pi_mask |= 1 << pi_idx
            elif not driver.is_ff:
                mask |= masks[driver.name]
                pi_mask |= pi_masks[driver.name]
        masks[gate.name] = mask
        pi_masks[gate.name] = pi_mask

    # File extent of the register block: span normalises against it, not
    # the whole design (synthesis emits flip-flops as one band, so design
    # size would flatten every span to noise).
    ff_band = max(1, max(ff_position) - min(ff_position)) if ffs else 1

    # --- identified-control coverage of the fanin cone.
    control_nets = frozenset(result.control_signals)
    has_ctl: Dict[str, bool] = {}
    for gate in comb:
        covered = gate.output in control_nets
        for net in gate.inputs:
            if covered:
                break
            if net in control_nets:
                covered = True
                continue
            driver = netlist.driver(net)
            if driver is not None and not driver.is_ff:
                covered = has_ctl[driver.name]
        has_ctl[gate.name] = covered

    # --- word-cone membership: does the gate feed a multi-bit word bit
    # (bit 2) or only singleton residue (bit 1)?  One reverse pass.
    _WORD, _SINGLE = 2, 1
    multi_bits = frozenset(
        bit for word in result.words for bit in word.bits
    )
    single_bits = frozenset(result.singletons)
    reaches: Dict[str, int] = {}
    for gate in reversed(comb):
        flag = 0
        if gate.output in multi_bits:
            flag |= _WORD
        elif gate.output in single_bits:
            flag |= _SINGLE
        for consumer in netlist.fanouts(gate.output):
            if not consumer.is_ff:
                flag |= reaches[consumer.name]
        reaches[gate.name] = flag

    # --- raw per-gate features.
    def features_of(gate_name: str, flag: int) -> Dict[str, float]:
        mask = masks[gate_name]
        groups = set()
        taps = 0
        lo = hi = None
        m, idx = mask, 0
        while m:
            if m & 1:
                taps += 1
                groups.add(ff_group[idx])
                pos = ff_position[idx]
                lo = pos if lo is None else min(lo, pos)
                hi = pos if hi is None else max(hi, pos)
            m >>= 1
            idx += 1
        n_groups = len(groups)
        n_leaves = taps + bin(pi_masks[gate_name]).count("1")
        # State purity dilutes both cross-group features: a gate that
        # merely sits downstream of a spliced payload mixes the trigger's
        # taps with its own word's many operand leaves, while the trigger
        # tree itself reads state and almost nothing else.
        purity = taps / n_leaves if n_leaves else 0.0
        mix = min(1.0, max(0, n_groups - 1) / 2.0) * purity
        span = (
            (hi - lo) / ff_band * purity if n_groups > 1 else 0.0
        )
        if flag & _WORD:
            outside = 0.0
        elif flag & _SINGLE:
            outside = 0.5
        else:
            outside = 1.0
        control = 1.0 if (mask and not has_ctl[gate_name]) else 0.0
        return {
            "mix": mix, "span": span,
            "outside": outside, "control": control,
        }

    raw: Dict[str, float] = {}
    feats: Dict[str, Dict[str, float]] = {}
    for gate in comb:
        f = features_of(gate.name, reaches[gate.name])
        feats[gate.name] = f
        raw[gate.name] = (
            config.weight_mix * f["mix"]
            + config.weight_span * f["span"]
            + config.weight_outside * f["outside"]
            + config.weight_control * f["control"]
        )
    # Flip-flops inherit their D-pin driver's verdict: a register captures
    # whatever anomaly feeds it, and has no combinational cone of its own.
    for ff in ffs:
        driver = netlist.driver(ff.inputs[0])
        if driver is not None and not driver.is_ff:
            feats[ff.name] = dict(feats[driver.name])
            raw[ff.name] = raw[driver.name]
        else:
            feats[ff.name] = {
                "mix": 0.0, "span": 0.0, "outside": 0.0, "control": 0.0,
            }
            raw[ff.name] = 0.0

    # --- neighbourhood smoothing over the combinational graph.  An
    # inverter or buffer is functionally part of whatever consumes it, so
    # single-input gates inherit their consumers' verdict undecayed — the
    # quiet unary fringe of a trigger tree ranks with the tree itself.
    smoothed = dict(raw)
    for _ in range(config.neighbor_rounds):
        step = dict(smoothed)
        for gate in comb:
            best = 0.0
            unary_best = 0.0
            for net in gate.inputs:
                driver = netlist.driver(net)
                if driver is not None and not driver.is_ff:
                    best = max(best, smoothed[driver.name])
            for consumer in netlist.fanouts(gate.output):
                if not consumer.is_ff:
                    best = max(best, smoothed[consumer.name])
                    unary_best = max(unary_best, smoothed[consumer.name])
            step[gate.name] = max(
                smoothed[gate.name],
                config.neighbor_decay * best,
                unary_best if len(gate.inputs) == 1 else 0.0,
            )
        smoothed = step

    scores = [
        GateScore(
            gate=gate.name,
            position=positions[gate.name],
            score=_round(smoothed[gate.name]),
            features=tuple(
                (k, _round(v)) for k, v in sorted(feats[gate.name].items())
            ),
        )
        for gate in netlist.gates_in_file_order()
    ]
    scores.sort(key=lambda s: (-s.score, s.position))
    return TriageResult(
        scores=scores, backend=result.trace.backend, config=config
    )
