"""Shape-hashing baseline — reimplementation of the comparison point [6].

The paper compares against the shape-hashing word identification of WordRev
(Li et al., HOST 2013), reimplemented because the original source was not
available: "Shape-hashing uses similar techniques to our approach, but only
considers the un-simplified structure of the netlist when grouping bits into
words.  It also only groups bits which have a fully-matched structure."

Concretely this is ``PipelineConfig(backend="base")``: the staged pipeline
with partial matching, control signals and reduction all disabled — the
same stage-1 grouping and the same hash keys, but bits chain only on
*full* structural matches.
"""

from __future__ import annotations

from typing import Optional

from ..netlist.netlist import Netlist
from .pipeline import PipelineConfig, identify_words
from .words import IdentificationResult

__all__ = ["shape_hashing"]


def shape_hashing(
    netlist: Netlist,
    config: Optional[PipelineConfig] = None,
) -> IdentificationResult:
    """Identify words by full structural matching only (the Base column).

    ``config`` defaults to ``PipelineConfig(backend="base")`` and must
    select that backend.
    """
    if config is None:
        config = PipelineConfig(backend="base")
    elif config.backend != "base":
        raise ValueError(
            f"shape_hashing requires backend='base', got {config.backend!r}"
        )
    return identify_words(netlist, config)
