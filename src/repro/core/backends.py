"""The identification backends, a fixed table (DESIGN.md §15).

The paper's six-stage pipeline is one *strategy* for word identification:
shape-based grouping plus control-signal reduction.  Each strategy is a
:class:`BackendSpec` that :func:`repro.core.pipeline.identify_words`,
:class:`repro.api.Session`, the CLIs, and ``repro serve`` resolve by the
name in ``PipelineConfig.backend``:

``ours``
    The paper's technique (partial matching, control signals, reduction)
    on the staged :class:`~repro.core.stages.AnalysisEngine`.  The
    default.

``base``
    The shape-hashing comparison point [6]: the same staged engine with
    partial matching off.

``regfeat``
    A feature-vector register aggregator in the RELIC /
    register-aggregation family (see PAPERS.md): FF words are unioned by
    agglomerative similarity of connectivity features — fan-in cone
    shape, control-signal overlap, file/cone proximity, fan-out degree —
    with *no* structural-match requirement, catching regular
    control-heavy words the matcher fragments on
    (:mod:`repro.core.regfeat`).

Fingerprint discipline (DESIGN.md §15): a backend's ``name`` and
``version`` join the store fingerprint
(:data:`repro.store.keys.FINGERPRINT_FIELDS` + ``backend_version``), so
two backends — or two versions of one backend — can never read each
other's cached artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

from .regfeat import run_regfeat
from .stages import AnalysisEngine

__all__ = [
    "BackendSpec",
    "UnknownBackendError",
    "backend_names",
    "resolve",
]


class UnknownBackendError(ValueError):
    """Raised when a backend name is not in the table.

    Carries the offending ``name`` and the ``known`` names so CLI and
    serve layers can render a one-line diagnostic without re-importing
    this module.
    """

    def __init__(self, name: object, known: Tuple[str, ...]):
        self.name = name
        self.known = tuple(known)
        super().__init__(
            f"unknown backend {name!r}; registered backends: "
            + ", ".join(self.known)
        )


@dataclass(frozen=True)
class BackendSpec:
    """One identification strategy.

    ``runner`` is the backend's entry point with the exact
    :func:`~repro.core.pipeline.identify_words` contract::

        runner(netlist, config) -> IdentificationResult

    It must be deterministic (two runs on the same inputs byte-identical
    on words, singletons, assignments, and trace counters) and must
    stamp ``result.trace.backend`` with its own name.  It never touches
    the artifact store: :class:`repro.api.Session` caches results.

    ``version`` joins every store fingerprint alongside the name; bump it
    whenever the backend's output can change, exactly like
    :data:`~repro.core.stages.PIPELINE_VERSION` but scoped to one
    backend.
    """

    name: str
    version: str
    runner: Callable = field(repr=False, compare=False)


def _run_staged(netlist, config):
    """The staged Figure-2 engine, shared by ``ours`` and ``base``."""
    return AnalysisEngine(config).run(netlist)


_BACKENDS: Dict[str, BackendSpec] = {
    spec.name: spec
    for spec in (
        BackendSpec("ours", "1.0.0", _run_staged),
        BackendSpec("base", "1.0.0", _run_staged),
        BackendSpec("regfeat", "1.0.0", run_regfeat),
    )
}


def backend_names() -> Tuple[str, ...]:
    """The backend names, in table order."""
    return tuple(_BACKENDS)


def resolve(name: object) -> BackendSpec:
    """The :class:`BackendSpec` for ``name``.

    Raises :class:`UnknownBackendError` (a ``ValueError``) for anything
    not in the table — including non-string junk from request payloads.
    """
    spec = _BACKENDS.get(name) if isinstance(name, str) else None
    if spec is None:
        raise UnknownBackendError(name, backend_names())
    return spec
