"""Shape-hashing baseline — reimplementation of the comparison point [6].

The paper compares against the shape-hashing word identification of WordRev
(Li et al., HOST 2013), reimplemented because the original source was not
available: "Shape-hashing uses similar techniques to our approach, but only
considers the un-simplified structure of the netlist when grouping bits into
words.  It also only groups bits which have a fully-matched structure."

Concretely this is the pipeline with partial matching, control signals and
reduction all disabled — the same stage-1 grouping and the same hash keys,
but bits chain only on *full* structural matches.
"""

from __future__ import annotations

from typing import Optional

from ..netlist.netlist import Netlist
from .pipeline import PipelineConfig, identify_words
from .words import IdentificationResult

__all__ = ["shape_hashing", "baseline_config"]


def baseline_config(
    depth: int = 4, grouping: str = "adjacency"
) -> PipelineConfig:
    """Pipeline configuration matching the Base technique of Table 1.

    The baseline runs on the same staged engine and shares its
    :class:`~repro.core.context.AnalysisContext` caches.
    """
    return PipelineConfig(
        depth=depth,
        allow_partial=False,
        grouping=grouping,
        backend="base",
    )


def shape_hashing(
    netlist: Netlist,
    config: Optional[PipelineConfig] = None,
) -> IdentificationResult:
    """Identify words by full structural matching only (the Base column)."""
    if config is None:
        config = baseline_config()
    elif config.allow_partial:
        raise ValueError(
            "shape_hashing requires allow_partial=False; "
            "use baseline_config() to build one"
        )
    return identify_words(netlist, config)
