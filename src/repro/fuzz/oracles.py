"""Metamorphic and differential oracles over generated samples.

Each oracle is a function ``(OracleContext) -> Optional[str]`` returning
``None`` on pass or a human-readable failure detail.  They fall into three
families:

*Metamorphic* — transform the netlist in a way the identification result
provably must not care about, re-run, compare:

``rename``
    Hostile anonymization (:func:`repro.synth.anonymize.anonymize` with
    escaped-identifier-requiring names).  No stage may read name spelling.
``reversal``
    Whole-file gate reversal.  Stage 1 groups *adjacent* lines, and every
    adjacency predicate in the pipeline is symmetric, so reversing the
    file reverses each run without changing any word's bit set.  (An
    arbitrary shuffle is *not* an invariant — adjacency is load-bearing —
    which is why the transform menu is structured, not random.)
``bit_permutation``
    Shuffling a healable word's root gates among their own file slots.
    All bits of a healable word pairwise partial-match through their
    shared hold/guard subtrees, so any order chains into one subgroup.
``store``
    cache-on ≡ cache-off: a result committed to the artifact store and
    probed back is byte-identical to the computed one — same words in
    the same order, same control assignments, same stage counters.
``triage``
    Trojan triage (:mod:`repro.triage`) is deterministic across re-runs
    and its ``(position, score)`` ranking is invariant under hostile
    renaming — no anomaly feature may read name spelling.

*Differential* — compare techniques/labels:

``serve``
    In-process ``POST /v1/identify`` ≡ direct ``Session.analyze``: the
    HTTP service's JSON answer carries exactly the words and result
    digest of a library call.
``ours_superset``
    Any reference word FULL under the baseline is FULL under Ours.
``backend``
    Resolving ``"ours"`` through the backend registry is byte-identical
    to running the staged engine directly, and the ``regfeat`` backend
    emits a deterministic, ground-truth-evaluable partition covering
    the candidate flip-flop D nets.
``expectation``
    The generator's per-regime labels hold (data/counter/selected/
    alternating/crossed ⇒ Ours FULL; data ⇒ Base FULL).

*Functional* —

``reduction_functional``
    Every control-signal reduction the pipeline committed preserves the
    simulated word-bit functions on random vectors consistent with the
    assignment (:func:`verify_reductions`).
``partition`` / ``roundtrip``
    Identified words are disjoint sets of real nets; the netlist survives
    a Verilog write→parse round-trip unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..core.pipeline import PipelineConfig, identify_words
from ..core.reduction import reduce_netlist
from ..core.words import IdentificationResult
from ..eval.metrics import FULL, evaluate
from ..eval.reference import extract_reference_words
from ..netlist.cone import extract_subcircuit
from ..netlist.netlist import Netlist
from ..netlist.simulate import evaluate_combinational
from ..netlist.transforms import reorder_gates
from ..netlist.verilog import parse_verilog, write_verilog
from ..synth.anonymize import anonymize
from .generator import FuzzSample

__all__ = [
    "OracleContext",
    "OracleVerdict",
    "DEFAULT_ORACLES",
    "run_oracles",
    "verify_reductions",
]


@dataclass(frozen=True)
class OracleVerdict:
    """One oracle's outcome on one sample."""

    oracle: str
    passed: bool
    detail: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {"oracle": self.oracle, "passed": self.passed,
                "detail": self.detail}


class OracleContext:
    """Shared per-sample state: the pipeline runs every oracle needs.

    Identification results are cached so the full oracle suite costs
    ~8 pipeline runs per sample instead of ~16.
    """

    def __init__(self, sample: FuzzSample, depth: int = 4):
        self.sample = sample
        self.depth = depth
        self.ours_config = PipelineConfig(depth=depth)
        self.base_config = PipelineConfig(depth=depth, backend="base")
        self._results: Dict[str, IdentificationResult] = {}

    # -- cached pipeline runs -----------------------------------------

    def identify(self, key: str, netlist: Netlist,
                 config: PipelineConfig) -> IdentificationResult:
        result = self._results.get(key)
        if result is None:
            result = identify_words(netlist, config)
            self._results[key] = result
        return result

    @property
    def ours(self) -> IdentificationResult:
        return self.identify("ours", self.sample.netlist, self.ours_config)

    @property
    def base(self) -> IdentificationResult:
        return self.identify("base", self.sample.netlist, self.base_config)

    # -- shared views -------------------------------------------------

    def word_sets(self, result: IdentificationResult) -> Set[FrozenSet[str]]:
        return {word.bit_set for word in result.words}

    def full_registers(self, result: IdentificationResult) -> Set[str]:
        reference = extract_reference_words(self.sample.netlist)
        metrics = evaluate(reference, result)
        return {
            outcome.reference.register
            for outcome in metrics.outcomes
            if outcome.status == FULL
        }

    def rng(self, salt: int) -> random.Random:
        return random.Random((self.sample.seed << 4) ^ salt)


# ----------------------------------------------------------------------
# functional verification of committed reductions
# ----------------------------------------------------------------------

def verify_reductions(
    netlist: Netlist,
    result: IdentificationResult,
    seed: int = 0,
    vectors: int = 24,
    depth: int = 4,
) -> List[str]:
    """Re-check every committed control-signal reduction functionally.

    For each word the pipeline unlocked via an assignment, re-extract the
    word's subcircuit, re-reduce it under the recorded assignment, and
    compare the word-bit nets between original and reduced subcircuits on
    random source vectors *consistent* with the assignment.  Assigned nets
    that are subcircuit sources are forced directly; internal ones are
    satisfied by rejection sampling (the reduction only promises
    equivalence on consistent inputs, so inconsistent draws are skipped).

    Returns a list of problem descriptions, empty when all reductions
    check out.
    """
    problems: List[str] = []
    boundary = netlist.cone_leaf_nets()
    rng = random.Random(seed)
    for word, control in result.control_assignments.items():
        assignment = control.as_dict()
        if not assignment:
            continue
        sub = extract_subcircuit(
            netlist, list(word.bits), depth, boundary=boundary
        )
        reduced = reduce_netlist(sub, assignment).netlist
        sources = list(sub.primary_inputs)
        forced = {n: v for n, v in assignment.items() if n in set(sources)}
        checked = 0
        # Internally-assigned nets are satisfied by rejection sampling,
        # and a legitimate assignment can sit behind a decoded compare
        # (P(hit) ~ 2^-k for a k-bit decode), so the draw budget must be
        # generous before "no consistent vector" can mean "infeasible":
        # at p = 1/64, 4096 draws miss with probability ~1e-28, where a
        # 4*vectors budget missed one draw in five.  The early exit
        # keeps the common case at ~``vectors`` evaluations.
        draws = max(vectors * 4, 4096)
        for _ in range(draws):
            if checked >= vectors:
                break
            vec = {net: rng.randint(0, 1) for net in sources}
            vec.update(forced)
            original_values = evaluate_combinational(sub, vec)
            if any(original_values.get(n) != v for n, v in assignment.items()):
                continue  # inconsistent with an internally-assigned net
            checked += 1
            reduced_values = evaluate_combinational(reduced, vec)
            for bit in word.bits:
                if original_values.get(bit) != reduced_values.get(bit):
                    problems.append(
                        f"word {word}: reduction under {control} changes "
                        f"bit {bit}: {original_values.get(bit)} -> "
                        f"{reduced_values.get(bit)}"
                    )
                    break
        if checked == 0:
            problems.append(
                f"word {word}: no random vector consistent with {control} "
                f"in {draws} draws — assignment looks infeasible"
            )
    return problems


# ----------------------------------------------------------------------
# the oracles
# ----------------------------------------------------------------------

def _check_partition(ctx: OracleContext) -> Optional[str]:
    for label, result in (("ours", ctx.ours), ("base", ctx.base)):
        seen: Set[str] = set()
        for word in result.all_generated_words():
            for bit in word.bits:
                if bit in seen:
                    return f"{label}: net {bit} appears in two words"
                seen.add(bit)
                if not ctx.sample.netlist.has_net(bit):
                    return f"{label}: word bit {bit} is not a netlist net"
    return None


def _check_roundtrip(ctx: OracleContext) -> Optional[str]:
    netlist = ctx.sample.netlist
    reparsed = parse_verilog(write_verilog(netlist))
    if reparsed != netlist:
        return "write_verilog -> parse_verilog is not the identity"
    hostile = anonymize(netlist, naming="hostile").netlist
    if parse_verilog(write_verilog(hostile)) != hostile:
        return ("write_verilog -> parse_verilog is not the identity "
                "on hostile (escaped-identifier) names")
    return None


def _check_rename(ctx: OracleContext) -> Optional[str]:
    anonymized = anonymize(ctx.sample.netlist, naming="hostile")
    inverse = {v: k for k, v in anonymized.net_map.items()}
    for label, config in (
        ("ours", ctx.ours_config), ("base", ctx.base_config)
    ):
        renamed = ctx.identify(
            f"rename-{label}", anonymized.netlist, config
        )
        translated = {
            frozenset(inverse[bit] for bit in word.bits)
            for word in renamed.words
        }
        original = ctx.word_sets(ctx.ours if label == "ours" else ctx.base)
        if translated != original:
            return (
                f"{label}: words changed under hostile renaming "
                f"(lost {len(original - translated)}, "
                f"gained {len(translated - original)})"
            )
    return None


def _check_reversal(ctx: OracleContext) -> Optional[str]:
    netlist = ctx.sample.netlist
    order = [g.name for g in netlist.gates_in_file_order()][::-1]
    reversed_netlist = reorder_gates(netlist, order)
    for label, config in (
        ("ours", ctx.ours_config), ("base", ctx.base_config)
    ):
        result = ctx.identify(
            f"reversal-{label}", reversed_netlist, config
        )
        original = ctx.word_sets(ctx.ours if label == "ours" else ctx.base)
        if ctx.word_sets(result) != original:
            return f"{label}: words changed under whole-file reversal"
    return None


def _check_bit_permutation(ctx: OracleContext) -> Optional[str]:
    netlist = ctx.sample.netlist
    rng = ctx.rng(0xBEEF)
    positions = netlist.file_positions()
    order = [g.name for g in netlist.gates_in_file_order()]
    permuted_words: List[str] = []
    for true_word in ctx.sample.truth:
        if true_word.expect_ours != "full" or len(set(true_word.bits)) < 3:
            continue
        roots: List[str] = []
        for bit in true_word.bits:
            driver = netlist.driver(bit)
            if driver is None or driver.is_ff:
                roots = []
                break
            roots.append(driver.name)
        if len(set(roots)) != len(true_word.bits):
            continue  # bits share drivers; permutation is ill-defined
        slots = sorted(positions[name] for name in roots)
        shuffled = list(roots)
        rng.shuffle(shuffled)
        for slot, name in zip(slots, shuffled):
            order[slot] = name
        permuted_words.append(true_word.register)
    if not permuted_words:
        return None  # nothing healable to permute — trivially passes
    permuted = reorder_gates(netlist, order)
    result = identify_words(permuted, ctx.ours_config)
    metrics = evaluate(extract_reference_words(permuted), result)
    full = {
        o.reference.register for o in metrics.outcomes if o.status == FULL
    }
    lost = [name for name in permuted_words if name not in full]
    if lost:
        return (
            f"words no longer FULL after permuting their root-gate "
            f"order: {', '.join(lost)}"
        )
    return None


def _check_backend(ctx: OracleContext) -> Optional[str]:
    """Registry dispatch ≡ direct engine; regfeat output is well-formed.

    Differential check (a): resolving backend ``"ours"`` through
    :mod:`repro.core.backends` must be byte-identical — result digest
    and stage counters — to instantiating the staged
    :class:`~repro.core.stages.AnalysisEngine` directly.  The dispatch
    layer is pure plumbing and may not perturb results.

    Functional check (b): the ``regfeat`` backend must emit a valid
    partition (each bit in at most one word, every bit a real net)
    covering every candidate flip-flop D net exactly once, must be
    deterministic across re-runs, and must evaluate cleanly against the
    sample's ground truth.
    """
    from ..core.stages import AnalysisEngine
    from ..store import result_digest

    direct = AnalysisEngine(ctx.ours_config).run(ctx.sample.netlist)
    if result_digest(direct) != result_digest(ctx.ours):
        return "registry-dispatched ours differs from direct AnalysisEngine"
    if direct.trace.counter_dict() != ctx.ours.trace.counter_dict():
        return "registry dispatch changed ours stage counters"

    netlist = ctx.sample.netlist
    regfeat_config = PipelineConfig(depth=ctx.depth, backend="regfeat")
    first = ctx.identify("regfeat", netlist, regfeat_config)
    again = identify_words(netlist, regfeat_config)
    if result_digest(first) != result_digest(again):
        return "regfeat is not deterministic across re-runs"

    candidates = set()
    for ff in netlist.flip_flops():
        candidates.add(ff.inputs[0])
    seen: Set[str] = set()
    for word in first.all_generated_words():
        for bit in word.bits:
            if bit in seen:
                return f"regfeat: net {bit} appears in two words"
            seen.add(bit)
            if not netlist.has_net(bit):
                return f"regfeat: word bit {bit} is not a netlist net"
    if seen != candidates:
        missing = sorted(candidates - seen)[:3]
        extra = sorted(seen - candidates)[:3]
        return (f"regfeat does not cover the candidate FF D nets "
                f"(missing {missing}, extra {extra})")

    reference = extract_reference_words(netlist)
    metrics = evaluate(reference, first)
    if len(metrics.outcomes) != len(reference):
        return "regfeat evaluation dropped reference words"
    return None


def _check_ours_superset(ctx: OracleContext) -> Optional[str]:
    base_full = ctx.full_registers(ctx.base)
    ours_full = ctx.full_registers(ctx.ours)
    lost = base_full - ours_full
    if lost:
        return (
            f"baseline finds {', '.join(sorted(lost))} FULL but the "
            f"control-signal technique does not"
        )
    return None


def _check_expectation(ctx: OracleContext) -> Optional[str]:
    ours_full = ctx.full_registers(ctx.ours)
    base_full = ctx.full_registers(ctx.base)
    broken: List[str] = []
    for word in ctx.sample.truth:
        if word.expect_ours == "full" and word.register not in ours_full:
            broken.append(f"{word.register} ({word.regime}) not FULL by ours")
        if word.expect_base == "full" and word.register not in base_full:
            broken.append(f"{word.register} ({word.regime}) not FULL by base")
    if broken:
        return "; ".join(broken)
    return None


def _check_store(ctx: OracleContext) -> Optional[str]:
    """cache-on ≡ cache-off: the artifact store must round-trip the run.

    Commits the already-computed result to a throwaway store and probes
    it back; the cached result must be byte-identical to the computed one
    on words, singletons, assignments, and trace counters.
    """
    import tempfile

    from ..store import (
        ArtifactStore,
        netlist_digest,
        netlist_summary,
        result_digest,
    )

    serial = ctx.ours

    def canon(result: IdentificationResult):
        return (
            [word.bits for word in result.words],
            list(result.singletons),
            {
                word.bits: control.assignments
                for word, control in result.control_assignments.items()
            },
            result.trace.counter_dict(),
        )

    digest = netlist_digest(ctx.sample.netlist)
    with tempfile.TemporaryDirectory(prefix="fuzz-store-") as root:
        store = ArtifactStore(root)
        key = store.commit_result(
            digest, ctx.ours_config, serial,
            netlist_summary(ctx.sample.netlist),
        )
        if key is None:
            return "store refused to commit a clean result"
        hit = store.probe_result(digest, ctx.ours_config)
    if hit is None:
        return "committed result did not probe back (miss after commit)"
    cached, _ = hit
    if canon(cached) != canon(serial):
        return "cached result differs from the computed one"
    if result_digest(cached) != result_digest(serial):
        return "cached result digest differs from the computed one"
    return None


def _check_serve(ctx: OracleContext) -> Optional[str]:
    """HTTP path ≡ library path: ``POST /v1/identify`` on an in-process
    :class:`~repro.serve.service.AnalysisService` must return exactly the
    words and result digest a direct analysis produces.

    Exercises the whole serve stack short of the socket — request JSON
    decode, admission, thread-pool offload, ``Session.analyze_text``,
    report serialization — against generated designs, so a serialization
    or text-digest bug shows up long before an integration test would.
    """
    from ..api import Session
    from ..serve.service import AnalysisService
    from ..store import result_digest

    session = Session(config=ctx.ours_config)
    service = AnalysisService(session, workers=1, queue_size=1)
    try:
        response = service.call(
            "POST", "/v1/identify",
            {"verilog": write_verilog(ctx.sample.netlist)},
        )
    finally:
        service.close()
    if response.status != 200:
        return f"serve answered {response.status}: {response.body[:160]!r}"
    served = response.json
    direct = ctx.ours
    if served["words"] != [list(word.bits) for word in direct.words]:
        return "served words differ from direct Session.analyze"
    if served["singletons"] != list(direct.singletons):
        return "served singletons differ from direct Session.analyze"
    if served["result_digest"] != result_digest(direct):
        return "served result digest differs from the direct analysis"
    return None


def _check_triage(ctx: OracleContext) -> Optional[str]:
    """Trojan triage is deterministic and blind to name spelling.

    Two invariants over :func:`repro.triage.triage_netlist` against the
    sample's "ours" identification:

    1. re-running produces the identical ranking digest;
    2. hostile renaming (the :func:`anonymize` transform the ``rename``
       oracle uses) leaves the ``(file position, score)`` multiset
       unchanged — gate *names* change, so scores are compared by
       position, proving no feature reads name spelling.

    Also checks the ranking covers every gate exactly once.
    """
    from ..triage import TriageConfig, triage_netlist

    config = TriageConfig()
    netlist = ctx.sample.netlist
    first = triage_netlist(netlist, ctx.ours, config)
    again = triage_netlist(netlist, ctx.ours, config)
    if first.digest() != again.digest():
        return "triage is not deterministic across re-runs"
    names = sorted(s.gate for s in first.scores)
    if names != sorted(g.name for g in netlist.gates_in_file_order()):
        return "triage ranking does not cover every gate exactly once"

    anonymized = anonymize(netlist, naming="hostile")
    renamed_result = ctx.identify(
        "rename-ours", anonymized.netlist, ctx.ours_config
    )
    renamed = triage_netlist(anonymized.netlist, renamed_result, config)

    def shape(result):
        return sorted((s.position, s.score) for s in result.scores)

    if shape(first) != shape(renamed):
        return "triage scores changed under hostile renaming"
    return None


def _check_reduction_functional(ctx: OracleContext) -> Optional[str]:
    problems = verify_reductions(
        ctx.sample.netlist, ctx.ours,
        seed=ctx.sample.seed, depth=ctx.depth,
    )
    if problems:
        return "; ".join(problems[:3])
    return None


#: The full suite, in the order they run (cheap structural checks first).
DEFAULT_ORACLES: Tuple[Tuple[str, Callable[[OracleContext], Optional[str]]], ...] = (
    ("partition", _check_partition),
    ("roundtrip", _check_roundtrip),
    ("expectation", _check_expectation),
    ("ours_superset", _check_ours_superset),
    ("backend", _check_backend),
    ("store", _check_store),
    ("serve", _check_serve),
    ("rename", _check_rename),
    ("reversal", _check_reversal),
    ("bit_permutation", _check_bit_permutation),
    ("triage", _check_triage),
    ("reduction_functional", _check_reduction_functional),
)


def run_oracles(
    sample: FuzzSample,
    oracles: Sequence[Tuple[str, Callable[[OracleContext], Optional[str]]]] = DEFAULT_ORACLES,
    depth: int = 4,
) -> List[OracleVerdict]:
    """Run the oracle suite on one sample, sharing pipeline runs."""
    ctx = OracleContext(sample, depth=depth)
    verdicts: List[OracleVerdict] = []
    for name, check in oracles:
        try:
            detail = check(ctx)
        except Exception as error:  # an oracle crash is itself a finding
            verdicts.append(OracleVerdict(
                name, False, f"oracle crashed: {type(error).__name__}: {error}"
            ))
            continue
        verdicts.append(OracleVerdict(name, detail is None, detail or ""))
    return verdicts
