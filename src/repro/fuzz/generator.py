"""Seeded random word-oriented design generator with exact ground truth.

Generation is split into two deterministic halves:

``plan_sample(rng, config)``
    Draws a :class:`SamplePlan` — pure data (regimes, widths, operand
    offsets, condition indices).  All randomness happens here, so a plan
    can be edited (words dropped, widths halved) and rebuilt without
    disturbing any other word's derivation — exactly what the shrinker in
    :mod:`repro.fuzz.harness` needs.

``build_sample(plan)``
    Deterministically turns a plan into RTL (the word idioms of
    :mod:`repro.synth.designs.common` over a shared control-condition
    pool, mirroring the validated ``wordmix`` construction), lowers it
    through the full synthesis flow, and reads the word ground truth back
    off the flip-flop naming convention the flow preserves.

Each :class:`TrueWord` carries the regime's expected recovery:
``expect_ours="full"`` for the regimes the paper's technique provably
heals (data/counter/selected/alternating/crossed, plus the sram
decoder/wordline array, which is the selected class behind a deep
address decode) and ``expect_base`` likewise for the baseline (data
only).  The cam regime (per-bit heterogeneous match comparators held
behind one shared wordline mux) stresses the backends differently:
shape hashing fragments it outright (every comparator differs), while
the control-signal technique usually heals it by assigning the shared
wordline its controlling value — the per-backend scoreboard in
:mod:`repro.eval.scoreboard` quantifies the spread.  The expectation
oracle checks those labels on every sample; regimes with data-dependent
recovery (adder carries, concatenations, status/shift registers) are
labelled ``"any"`` and only participate in the metamorphic oracles.

Consecutive words are always separated by a one-bit glue register so two
words' subgroups cannot merge into one unhealable subgroup; with
``boundary_noise`` the generator additionally appends decoy glue
registers that imitate word-bit cones (word-boundary obfuscation).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace as dc_replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..eval.reference import extract_reference_words
from ..netlist.netlist import Netlist
from ..synth.designs.common import (
    adder_word,
    alternating_word,
    concat_word,
    crossed_word,
    data_word,
    selected_word,
    shift_word,
    status_word,
)
from ..synth.flow import synthesize
from ..synth.rtl import Concat, Const, Expr, Module, Mux
from ..synth.trojan import TrojanSpec, insert_trojan

__all__ = [
    "REGIMES",
    "OURS_FULL_REGIMES",
    "BASE_FULL_REGIMES",
    "GeneratorConfig",
    "WordPlan",
    "SamplePlan",
    "TrueWord",
    "FuzzSample",
    "plan_sample",
    "build_sample",
    "generate",
    "sample_seed",
]

#: Structural regimes the generator can emit (see designs/common.py).
REGIMES = (
    "data",
    "counter",
    "selected",
    "alternating",
    "crossed",
    "adder",
    "concat",
    "status",
    "shift",
    "sram",
    "cam",
)

#: Regimes the control-signal technique recovers fully by construction.
#: ``sram`` is the selected-word proof class behind a hierarchical
#: decoder, so the same controlling-value argument applies.
OURS_FULL_REGIMES = frozenset(
    {"data", "counter", "selected", "alternating", "crossed", "sram"}
)

#: Regimes plain shape hashing recovers fully by construction.
BASE_FULL_REGIMES = frozenset({"data"})

#: Shapes of the shared control conditions, drawn per sample.
_COND_KINDS = ("enable", "opeq", "bitxor", "oremix", "less", "bitandnot")


@dataclass(frozen=True)
class GeneratorConfig:
    """Corpus knobs.  Defaults target ~150–500 gate samples, small enough
    that a 50-sample campaign with its ~8 pipeline runs per sample stays
    interactive while still mixing every regime."""

    min_words: int = 3
    max_words: int = 7
    min_width: int = 3
    max_width: int = 10
    bus_width: int = 16
    max_datapath_rounds: int = 2
    max_conditions: int = 8
    min_conditions: int = 4
    boundary_noise: float = 0.3  # probability of appending decoy registers
    #: Probability of arming a sample with rare-trigger Trojans
    #: (:func:`repro.synth.trojan.insert_trojan`, inserted after synthesis
    #: with exact gate-level labels).  Off by default: the expectation
    #: oracles assume untampered designs, and a spliced payload can
    #: legitimately defeat recovery of its victim's word.  The triage
    #: evaluation (``repro scoreboard --triage``) turns it on.
    trojan_rate: float = 0.0
    max_trojans: int = 2
    trojan_min_width: int = 3
    trojan_max_width: int = 5
    regime_weights: Tuple[Tuple[str, float], ...] = (
        ("data", 0.18),
        ("counter", 0.13),
        ("selected", 0.13),
        ("alternating", 0.09),
        ("crossed", 0.09),
        ("adder", 0.09),
        ("concat", 0.05),
        ("status", 0.09),
        ("shift", 0.05),
        ("sram", 0.05),
        ("cam", 0.05),
    )

    def __post_init__(self):
        if not 2 <= self.min_width <= self.max_width:
            raise ValueError("need 2 <= min_width <= max_width")
        if self.max_width > self.bus_width:
            raise ValueError("max_width must not exceed bus_width (bit "
                             "slices would wrap and duplicate source nets)")
        if not 1 <= self.min_words <= self.max_words:
            raise ValueError("need 1 <= min_words <= max_words")
        unknown = {r for r, _ in self.regime_weights} - set(REGIMES)
        if unknown:
            raise ValueError(f"unknown regimes in weights: {sorted(unknown)}")
        if not 0.0 <= self.trojan_rate <= 1.0:
            raise ValueError("trojan_rate must be in [0, 1]")
        if self.max_trojans < 1:
            raise ValueError("max_trojans must be >= 1")
        if not 2 <= self.trojan_min_width <= self.trojan_max_width:
            raise ValueError(
                "need 2 <= trojan_min_width <= trojan_max_width"
            )


@dataclass(frozen=True)
class WordPlan:
    """Everything needed to build one word, as plain data.

    ``conds`` are indices into the sample's condition pool; ``offsets``
    are bit offsets into the operand buses; ``aux`` holds per-regime
    extras (mux constant patterns, crossed-guard opcode bits, concat
    field count).
    """

    name: str
    regime: str
    width: int
    conds: Tuple[int, ...] = ()
    offsets: Tuple[int, ...] = ()
    aux: Tuple[int, ...] = ()


@dataclass(frozen=True)
class SamplePlan:
    """One sample's complete recipe — JSON-serializable for reproducers."""

    seed: int
    bus_width: int
    datapath_rounds: int
    conditions: Tuple[Tuple[str, int, int], ...]  # (kind, p, q) specs
    words: Tuple[WordPlan, ...]
    separators: Tuple[Tuple[int, int, int], ...]  # (form, cond, bus bit)
    decoys: Tuple[Tuple[int, int], ...] = ()  # (cond, bus bit) appended
    #: Rare-trigger Trojans to splice in after synthesis, as
    #: (trigger_width, insertion seed) pairs; empty for clean samples.
    trojans: Tuple[Tuple[int, int], ...] = ()

    def as_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "bus_width": self.bus_width,
            "datapath_rounds": self.datapath_rounds,
            "conditions": [list(c) for c in self.conditions],
            "words": [
                {
                    "name": w.name,
                    "regime": w.regime,
                    "width": w.width,
                    "conds": list(w.conds),
                    "offsets": list(w.offsets),
                    "aux": list(w.aux),
                }
                for w in self.words
            ],
            "separators": [list(s) for s in self.separators],
            "decoys": [list(d) for d in self.decoys],
            "trojans": [list(t) for t in self.trojans],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SamplePlan":
        return cls(
            seed=data["seed"],
            bus_width=data["bus_width"],
            datapath_rounds=data["datapath_rounds"],
            conditions=tuple(tuple(c) for c in data["conditions"]),
            words=tuple(
                WordPlan(
                    name=w["name"],
                    regime=w["regime"],
                    width=w["width"],
                    conds=tuple(w["conds"]),
                    offsets=tuple(w["offsets"]),
                    aux=tuple(w["aux"]),
                )
                for w in data["words"]
            ),
            separators=tuple(tuple(s) for s in data["separators"]),
            decoys=tuple(tuple(d) for d in data.get("decoys", ())),
            trojans=tuple(tuple(t) for t in data.get("trojans", ())),
        )


@dataclass(frozen=True)
class TrueWord:
    """Ground truth for one generated word.

    ``bits`` are the flip-flop D-input nets in bit order — the nets the
    identification pipeline groups (and the same convention the golden
    reference of :mod:`repro.eval.reference` uses).
    """

    register: str
    regime: str
    width: int
    bits: Tuple[str, ...]
    expect_ours: str  # "full" | "any"
    expect_base: str  # "full" | "any"


@dataclass
class FuzzSample:
    """A generated netlist plus its exact word-level ground truth.

    ``trojan_specs`` records every Trojan spliced in (empty for clean
    samples); ``trojan_gates`` flattens their gate names — the exact
    positive labels the triage ROC evaluation scores against.
    """

    plan: SamplePlan
    netlist: Netlist
    truth: Tuple[TrueWord, ...]
    trojan_specs: Tuple["TrojanSpec", ...] = ()

    @property
    def seed(self) -> int:
        return self.plan.seed

    @property
    def trojan_gates(self) -> Tuple[str, ...]:
        return tuple(
            gate for spec in self.trojan_specs for gate in spec.gates
        )

    def words_by_name(self) -> Dict[str, TrueWord]:
        return {w.register: w for w in self.truth}


def sample_seed(campaign_seed: int, index: int) -> int:
    """The per-sample seed: a splitmix-style hop from the campaign seed.

    Deterministic and decorrelated, so ``--seed S --samples N`` always
    produces the same corpus and each sample is independently
    reproducible via ``--seed S --index i``.
    """
    x = (campaign_seed * 0x9E3779B97F4A7C15 + index * 0xBF58476D1CE4E5B9)
    x &= (1 << 64) - 1
    x ^= x >> 31
    x = (x * 0x94D049BB133111EB) & ((1 << 64) - 1)
    x ^= x >> 29
    return x & 0x7FFFFFFF


# ----------------------------------------------------------------------
# planning — all randomness lives here
# ----------------------------------------------------------------------

def _draw_regime(rng: random.Random, config: GeneratorConfig) -> str:
    total = sum(weight for _, weight in config.regime_weights)
    roll = rng.random() * total
    for regime, weight in config.regime_weights:
        roll -= weight
        if roll <= 0:
            return regime
    return config.regime_weights[-1][0]


def _plan_conditions(
    rng: random.Random, config: GeneratorConfig
) -> Tuple[Tuple[str, int, int], ...]:
    count = rng.randint(config.min_conditions, config.max_conditions)
    specs: List[Tuple[str, int, int]] = []
    for _ in range(count):
        kind = rng.choice(_COND_KINDS)
        specs.append((kind, rng.randint(0, 5), rng.randint(0, 5)))
    return tuple(specs)


def _plan_word(
    rng: random.Random,
    config: GeneratorConfig,
    index: int,
    n_conditions: int,
) -> WordPlan:
    regime = _draw_regime(rng, config)
    width = rng.randint(config.min_width, config.max_width)
    name = f"{regime}{index:03d}"
    bus = config.bus_width

    def cond() -> int:
        return rng.randrange(n_conditions)

    def cond_pair() -> Tuple[int, int]:
        # Distinct indices: a word whose two selects are the same net has
        # an unreachable mux arm, which is a different (degenerate) regime.
        first = rng.randrange(n_conditions)
        second = (first + rng.randint(1, n_conditions - 1)) % n_conditions
        return first, second

    def off() -> int:
        return rng.randrange(bus)

    if regime == "data":
        return WordPlan(name, regime, width, (cond(),), (off(),))
    if regime == "counter":
        return WordPlan(name, regime, width, (cond(),), ())
    if regime == "selected":
        c1, c2 = cond_pair()
        zero_bits = max(1, width // 4)
        return WordPlan(
            name, regime, width, (c1, c2), (off(), off(), off()),
            (zero_bits,),
        )
    if regime == "alternating":
        c1, c2 = cond_pair()
        pattern = (0x5555555555, 0x2AAAAAAAAA)[rng.randint(0, 1)]
        return WordPlan(
            name, regime, width, (c1, c2), (off(), off()), (pattern,)
        )
    if regime == "crossed":
        e1 = rng.randrange(6)
        e2 = (e1 + rng.randint(1, 5)) % 6
        mask = (1 << max(1, width // 2)) - 1
        # The guards g1/g2 are built opcode-free in _build_word (last two
        # aux entries pick bus bits): if a guard's cone contained the
        # e1/e2 opcode bits, those nets would appear in *matching*
        # subtrees and the pipeline would rightly refuse to assign them —
        # the hazard common.crossed_word documents.
        return WordPlan(
            name, regime, width, (),
            (off(), off(), off(), off()),
            (e1, e2, mask, off(), off()),
        )
    if regime == "adder":
        return WordPlan(name, regime, width, (), (off(),))
    if regime == "concat":
        fields = rng.randint(2, min(3, max(2, width // 2)))
        return WordPlan(
            name, regime, width, (),
            tuple(off() for _ in range(2 * fields)), (fields,),
        )
    if regime == "status":
        return WordPlan(name, regime, width, (cond(), cond()), (off(),))
    if regime == "shift":
        return WordPlan(name, regime, width, (), (), (rng.randrange(6),))
    if regime == "sram":
        # Hierarchical decoder + wordline-driver array: the wordline is a
        # decoded opcode match (deep AND chain), the selected arm is a
        # column mux whose fallback carries zero-padded bits — the
        # selected_word proof class behind an SRAM-style address decode.
        zero_bits = max(1, width // 4)
        return WordPlan(
            name, regime, width, (cond(),), (off(), off(), off()),
            (zero_bits, rng.randrange(16), rng.randrange(4)),
        )
    if regime == "cam":
        # Column-mux/sense-amp bank: every bit holds behind the same
        # wordline mux, but the captured match line mixes key/tag bits
        # through per-bit heterogeneous comparators.
        return WordPlan(name, regime, width, (cond(),), (off(), off()))
    raise AssertionError(f"unplanned regime {regime!r}")


def plan_sample(seed: int, config: GeneratorConfig = GeneratorConfig()) -> SamplePlan:
    """Draw a complete sample recipe from ``seed``."""
    rng = random.Random(seed)
    conditions = _plan_conditions(rng, config)
    n_words = rng.randint(config.min_words, config.max_words)
    words = tuple(
        _plan_word(rng, config, i, len(conditions)) for i in range(n_words)
    )
    # One separator after every word keeps neighbouring words' subgroups
    # apart (see module docstring).  Form cycles and the condition is
    # drawn independently of the word's own conditions.
    separators = tuple(
        (rng.randrange(3), rng.randrange(len(conditions)),
         rng.randrange(config.bus_width))
        for _ in range(n_words)
    )
    decoys: Tuple[Tuple[int, int], ...] = ()
    if rng.random() < config.boundary_noise:
        decoys = tuple(
            (rng.randrange(len(conditions)), rng.randrange(config.bus_width))
            for _ in range(rng.randint(1, 4))
        )
    # Trojans are drawn last, and only when armed: a clean-config plan
    # consumes exactly the historical rng sequence, so enabling
    # ``trojan_rate`` on a new campaign never perturbs existing corpora.
    trojans: Tuple[Tuple[int, int], ...] = ()
    if config.trojan_rate and rng.random() < config.trojan_rate:
        trojans = tuple(
            (
                rng.randint(
                    config.trojan_min_width, config.trojan_max_width
                ),
                rng.randrange(1 << 31),
            )
            for _ in range(rng.randint(1, config.max_trojans))
        )
    return SamplePlan(
        seed=seed,
        bus_width=config.bus_width,
        datapath_rounds=rng.randint(0, config.max_datapath_rounds),
        conditions=conditions,
        words=words,
        separators=separators,
        decoys=decoys,
        trojans=trojans,
    )


# ----------------------------------------------------------------------
# building — deterministic in the plan
# ----------------------------------------------------------------------

def _slice_of(bus: Expr, offset: int, width: int) -> Expr:
    """A ``width``-bit window of ``bus``, wrapping via concatenation."""
    n = bus.width
    lo = offset % n
    if lo + width <= n:
        return bus.slice(lo, lo + width - 1)
    head = bus.slice(lo, n - 1)
    tail = bus.slice(0, width - (n - lo) - 1)
    return Concat((head, tail))


def _build_condition(
    spec: Tuple[str, int, int],
    bus_a: Expr,
    bus_b: Expr,
    opcode: Expr,
    valid: Expr,
    stall: Expr,
) -> Expr:
    kind, p, q = spec
    if kind == "enable":
        return valid & ~stall if p % 2 == 0 else (valid & opcode.bit(p)) | stall
    if kind == "opeq":
        lo = p % 4
        return opcode.slice(lo, lo + 2).eq(Const(q % 8, 3))
    # For the two-bit kinds the bits must differ, or the condition folds
    # to a constant and the word it enables folds to a plain hold (D = Q,
    # no combinational gates, nothing to identify).
    lhs, rhs = p % 6, q % 6
    if rhs == lhs:
        rhs = (rhs + 1) % 6
    if kind == "bitxor":
        return opcode.bit(lhs) ^ opcode.bit(rhs)
    if kind == "oremix":
        return (valid & opcode.bit(rhs)) | (stall & opcode.bit(lhs))
    if kind == "less":
        return bus_a.lt(bus_b) if p % 2 == 0 else bus_a.slice(0, 5).eq(opcode)
    if kind == "bitandnot":
        return opcode.bit(lhs) & ~opcode.bit(rhs)
    raise AssertionError(f"unknown condition kind {kind!r}")


def _build_word(
    m: Module,
    plan: WordPlan,
    conditions: Sequence[Expr],
    bus_a: Expr,
    bus_b: Expr,
    opcode: Expr,
    valid: Expr,
    stall: Expr,
) -> None:
    w = plan.width
    name = plan.name

    def cond(i: int) -> Expr:
        return conditions[plan.conds[i] % len(conditions)]

    def src(i: int) -> Expr:
        return _slice_of(bus_a, plan.offsets[i], w)

    def alt(i: int) -> Expr:
        return _slice_of(bus_b, plan.offsets[i], w)

    if plan.regime == "data":
        data_word(m, name, w, cond(0), src(0))
    elif plan.regime == "counter":
        r = m.register(name, w)
        r.next = Mux(cond(0), r.ref() + Const(1, w), r.ref())
    elif plan.regime == "selected":
        zero_bits = plan.aux[0]
        z = Concat((
            _slice_of(bus_b, plan.offsets[2], w - zero_bits),
            Const(0, zero_bits),
        ))
        selected_word(m, name, w, cond(0), cond(1), src(0), alt(1), z)
    elif plan.regime == "alternating":
        alternating_word(
            m, name, w, cond(0), cond(1), src(0), alt(1),
            pattern=plan.aux[0],
        )
    elif plan.regime == "crossed":
        e1_bit, e2_bit, mask, gb1, gb2 = plan.aux
        bus_n = bus_a.width
        crossed_word(
            m, name, w,
            e1=opcode.bit(e1_bit % 6),
            e2=opcode.bit(e2_bit % 6),
            g1=valid & bus_b.bit(gb1 % bus_n),
            g2=~stall & bus_a.bit(gb2 % bus_n),
            u=src(0), v=alt(1),
            t=_slice_of(bus_a, plan.offsets[2], w),
            k=_slice_of(bus_b, plan.offsets[3], w),
            mask=mask,
        )
    elif plan.regime == "adder":
        adder_word(m, name, w, src(0))
    elif plan.regime == "concat":
        fields = plan.aux[0]
        ops = ("and", "xor", "or")
        parts: List[Expr] = []
        base = w // fields
        used = 0
        for f in range(fields):
            fw = base if f < fields - 1 else w - used
            used += fw
            a = _slice_of(bus_a, plan.offsets[2 * f], fw)
            b = _slice_of(bus_b, plan.offsets[2 * f + 1], fw)
            op = ops[f % 3]
            if op == "and":
                parts.append(a & b)
            elif op == "xor":
                parts.append(a ^ b)
            else:
                parts.append(a | b)
        concat_word(m, name, parts=parts)
    elif plan.regime == "status":
        anchor = _slice_of(bus_a, plan.offsets[0], 8)
        c_base, c_step = plan.conds
        bits: List[Expr] = []
        for i in range(w):
            c1 = conditions[(c_base + i) % len(conditions)]
            c2 = conditions[(c_base + c_step + i + 1) % len(conditions)]
            if i % 4 == 0:
                bits.append((c1 & anchor.bit(i % 8)) | c2)
            elif i % 4 == 1:
                bits.append(c1 ^ (anchor.bit(i % 8) | c2))
            elif i % 4 == 2:
                bits.append(~(c1 | (c2 & anchor.bit(i % 8))))
            else:
                bits.append((c1 ^ c2) & anchor.bit(i % 8))
        status_word(m, name, bits)
    elif plan.regime == "shift":
        shift_word(m, name, w, valid & opcode.bit(plan.aux[0] % 6))
    elif plan.regime == "sram":
        zero_bits, addr, lo = plan.aux
        lo %= 4
        # Dedicated address port (idempotent across sram words).  The
        # decoder must not share nets with the pool conditions: a shared
        # opcode bit would sit inside *matching* subtrees and the
        # pipeline would rightly refuse the wordline assignment — the
        # crossed_word hazard.
        address = m.input("addr_bus", 8)
        wordline = address.slice(lo, lo + 3).eq(Const(addr % 16, 4))
        z = Concat((
            _slice_of(bus_b, plan.offsets[2], w - zero_bits),
            Const(0, zero_bits),
        ))
        selected_word(m, name, w, wordline, cond(0), src(0), alt(1), z)
    elif plan.regime == "cam":
        wordline = cond(0)
        key = src(0)
        tag = alt(1)
        r = m.register(name, w)
        q = r.ref()
        match_bits: List[Expr] = []
        for i in range(w):
            if i % 4 == 0:
                f = key.bit(i) ^ tag.bit(i)
            elif i % 4 == 1:
                f = ~(key.bit(i) & tag.bit(i))
            elif i % 4 == 2:
                f = key.bit(i) | ~tag.bit(i)
            else:
                f = ~(key.bit(i) ^ tag.bit(i))
            match_bits.append(Mux(wordline, f, q.bit(i)))
        r.next = Concat(tuple(match_bits))
    else:
        raise AssertionError(f"unbuildable regime {plan.regime!r}")


def build_module(plan: SamplePlan) -> Module:
    """The RTL for a plan (exposed for tests; most callers want
    :func:`build_sample`)."""
    m = Module(f"fuzz{plan.seed:08x}", reset_input="reset")
    bus_a = m.input("bus_a", plan.bus_width)
    bus_b = m.input("bus_b", plan.bus_width)
    opcode = m.input("opcode", 6)
    valid = m.input("valid")
    stall = m.input("stall")

    conditions = [
        _build_condition(spec, bus_a, bus_b, opcode, valid, stall)
        for spec in plan.conditions
    ]

    acc = bus_a
    for round_index in range(plan.datapath_rounds):
        mixed = acc + _slice_of(bus_b, round_index * 3, plan.bus_width)
        acc = mixed ^ _slice_of(acc, 7, plan.bus_width)

    for index, word in enumerate(plan.words):
        _build_word(m, word, conditions, bus_a, bus_b, opcode, valid, stall)
        form, cond_index, bit_index = plan.separators[index]
        sep = m.register(f"sep{index:02d}", 1)
        guard = conditions[cond_index % len(conditions)]
        bus_bit = bus_a.bit(bit_index % plan.bus_width)
        if form % 3 == 0:
            sep.next = guard & bus_bit
        elif form % 3 == 1:
            sep.next = guard | ~bus_bit
        else:
            sep.next = guard ^ bus_bit

    for index, (cond_index, bit_index) in enumerate(plan.decoys):
        decoy = m.register(f"decoy{index:02d}", 1)
        guard = conditions[cond_index % len(conditions)]
        decoy.next = guard & bus_b.bit(bit_index % plan.bus_width)

    m.output("acc_out", acc.parity())
    m.output("flags_out", Concat((bus_a.eq(bus_b), conditions[0])))
    return m


def _derive_truth(plan: SamplePlan, netlist: Netlist) -> Tuple[TrueWord, ...]:
    """Read the word ground truth back off the synthesized netlist.

    The synthesis flow names every flip-flop output ``<register>_reg_<i>``;
    the reference extractor groups those, and the plan labels each with
    its regime and expected recovery.  A plan word missing from the
    netlist (or missing bits) means the flow broke its own contract —
    that is an assertion, not a sample property.
    """
    reference = {
        w.register: w for w in extract_reference_words(netlist, min_width=2)
    }
    truth: List[TrueWord] = []
    for word in plan.words:
        found = reference.get(word.name)
        if found is None:
            raise AssertionError(
                f"plan word {word.name!r} missing from synthesized netlist"
            )
        distinct = len(set(found.bits))
        truth.append(
            TrueWord(
                register=word.name,
                regime=word.regime,
                width=distinct,
                bits=found.bits,
                expect_ours=(
                    "full" if word.regime in OURS_FULL_REGIMES else "any"
                ),
                expect_base=(
                    "full" if word.regime in BASE_FULL_REGIMES else "any"
                ),
            )
        )
    return tuple(truth)


def _forward_reach(netlist: Netlist, roots: set) -> set:
    """Nets reachable from ``roots`` through combinational gates only."""
    reached = set(roots)
    worklist = list(roots)
    while worklist:
        net = worklist.pop()
        for gate in netlist.fanouts(net):
            if gate.is_ff or gate.output in reached:
                continue
            reached.add(gate.output)
            worklist.append(gate.output)
    return reached


def build_sample(plan: SamplePlan) -> FuzzSample:
    """Build, synthesize, (optionally) tamper with, and label one sample.

    Trojans are spliced in *after* synthesis — the threat model is a
    malicious CAD step — and the word truth is derived after that, so a
    payload rewiring a register's D pin is reflected in the labels.
    """
    netlist = synthesize(build_module(plan))
    specs = tuple(
        insert_trojan(
            netlist, trigger_width=width, seed=troj_seed,
            prefix=f"_troj{index}",
        )
        for index, (width, troj_seed) in enumerate(plan.trojans)
    )
    truth = _derive_truth(plan, netlist)
    if specs:
        # Everything combinationally downstream of a payload has a
        # tampered fanin cone — those words are no longer the clean
        # construction the regime labels promise recovery for.
        tainted = _forward_reach(
            netlist, {spec.payload_output for spec in specs}
        )
        truth = tuple(
            dc_replace(word, expect_ours="any", expect_base="any")
            if set(word.bits) & tainted
            else word
            for word in truth
        )
    return FuzzSample(
        plan=plan,
        netlist=netlist,
        truth=truth,
        trojan_specs=specs,
    )


def generate(
    seed: int, config: GeneratorConfig = GeneratorConfig()
) -> FuzzSample:
    """One-call generation: plan from ``seed``, then build."""
    return build_sample(plan_sample(seed, config))
