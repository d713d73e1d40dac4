"""The paper's contribution: control-signal-aware word identification.

Modules map one-to-one onto the paper's sections: :mod:`grouping` (2.2),
:mod:`hashkey` and :mod:`matching` (2.3), :mod:`control` (2.4),
:mod:`reduction` (2.5), :mod:`pipeline` (the Figure 2 flow), and
:mod:`baseline` (the shape-hashing comparison point [6]).  Two downstream
stages the paper motivates are implemented as well: :mod:`propagation`
(WordRev-style word growth from the identified seeds) and :mod:`modules`
(datapath-operator recognition over recovered words).
"""

from .baseline import baseline_config, shape_hashing
from .context import AnalysisContext
from .control import ControlSignalCandidate, find_control_signals
from .grouping import group_by_adjacency, group_register_inputs, root_type_of
from .hashkey import BitSignature, SignatureIndex, Subtree, hash_key, signature_of
from .matching import (
    MatchKind,
    PairMatch,
    Subgroup,
    compare_bits,
    form_subgroups,
    full_match_runs,
)
from .modules import OperatorMatch, identify_operators
from .pipeline import PipelineConfig, identify_words
from .propagation import PropagationResult, propagate_words
from .reduction import (
    InfeasibleAssignment,
    ReducedNetlist,
    propagate_constants,
    reduce_netlist,
    sweep_dead_logic,
)
from .stages import AnalysisEngine, default_stages
from .words import (
    CacheStats,
    ControlAssignment,
    IdentificationResult,
    StageTrace,
    Word,
)

__all__ = [
    "baseline_config", "shape_hashing",
    "AnalysisContext", "AnalysisEngine", "default_stages",
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
