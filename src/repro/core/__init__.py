"""The paper's contribution: control-signal-aware word identification.

Modules map one-to-one onto the paper's sections: :mod:`grouping` (2.2),
:mod:`hashkey` and :mod:`matching` (2.3), :mod:`control` (2.4),
:mod:`reduction` (2.5), :mod:`pipeline` (the Figure 2 flow), and
:mod:`baseline` (the shape-hashing comparison point [6]).  Two downstream
stages the paper motivates are implemented as well: :mod:`propagation`
(WordRev-style word growth from the identified seeds) and :mod:`modules`
(datapath-operator recognition over recovered words).
"""

from .. import _lazy_exports

# Each public name is imported from its module on first use: an analysis
# never loads modules or propagation.
__getattr__ = _lazy_exports(__name__, {
    ".baseline": ("shape_hashing",),
    ".context": ("AnalysisContext",),
    ".control": ("ControlSignalCandidate", "find_control_signals"),
    ".grouping": (
        "group_by_adjacency", "group_register_inputs", "root_type_of",
    ),
    ".hashkey": (
        "BitSignature", "SignatureIndex", "Subtree", "hash_key",
        "signature_of",
    ),
    ".matching": (
        "MatchKind", "PairMatch", "Subgroup", "compare_bits",
        "form_subgroups", "full_match_runs",
    ),
    ".modules": ("OperatorMatch", "identify_operators"),
    ".pipeline": ("PipelineConfig", "identify_words"),
    ".propagation": ("PropagationResult", "propagate_words"),
    ".reduction": (
        "InfeasibleAssignment", "ReducedNetlist", "propagate_constants",
        "reduce_netlist", "sweep_dead_logic",
    ),
    ".stages": ("AnalysisEngine",),
    ".words": (
        "CacheStats", "ControlAssignment", "IdentificationResult",
        "StageTrace", "Word",
    ),
})

__all__ = [
    "shape_hashing",
    "AnalysisContext", "AnalysisEngine",
    "ControlSignalCandidate", "find_control_signals",
    "group_by_adjacency", "group_register_inputs", "root_type_of",
    "BitSignature", "SignatureIndex", "Subtree", "hash_key", "signature_of",
    "MatchKind", "PairMatch", "Subgroup", "compare_bits", "form_subgroups",
    "full_match_runs", "CacheStats",
    "OperatorMatch", "identify_operators",
    "PipelineConfig", "identify_words",
    "PropagationResult", "propagate_words",
    "InfeasibleAssignment", "ReducedNetlist", "propagate_constants",
    "reduce_netlist", "sweep_dead_logic",
    "ControlAssignment", "IdentificationResult", "StageTrace", "Word",
]
