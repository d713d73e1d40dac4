"""First-class identification backends (ROADMAP item 4).

The paper's six-stage pipeline is one *strategy* for word identification:
shape-based grouping plus control-signal reduction.  This module makes
strategies pluggable — each is a registered :class:`BackendSpec` that
:func:`repro.core.pipeline.identify_words`, :class:`repro.api.Session`,
the CLIs, and ``repro serve`` resolve by name:

``ours``
    The paper's technique (partial matching, control signals, reduction)
    on the staged :class:`~repro.core.stages.AnalysisEngine`.  The
    default, byte-identical to the pre-registry engine.

``base``
    The shape-hashing comparison point [6]: the same staged engine with
    partial matching disabled (``allow_partial=False`` — the two
    spellings are normalized onto each other by
    :class:`~repro.core.pipeline.PipelineConfig`).

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
other's cached artifacts.  ``fingerprint_fields`` documents which
:class:`PipelineConfig` knobs actually steer the backend; the store
fingerprints the union for all backends, which is correct (over-keying
splits caches, it never corrupts them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

__all__ = [
    "BackendSpec",
    "UnknownBackendError",
    "backend_names",
    "register",
    "resolve",
]


class UnknownBackendError(ValueError):
    """Raised when a backend name is not in the registry.

    Carries the offending ``name`` and the ``known`` names so CLI and
    serve layers can render a one-line diagnostic without re-importing
    the registry.
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
    """One registered identification strategy.

    ``runner`` is the backend's entry point with the exact
    :func:`~repro.core.pipeline.identify_words` contract::

        runner(netlist, config, context=None) -> IdentificationResult

    It must be deterministic (two runs on the same inputs byte-identical
    on words, singletons, assignments, and trace counters) and must
    stamp ``result.trace.backend`` with its own name.  It never touches
    the artifact store: :class:`repro.api.Session` caches results.

    ``version`` joins every store fingerprint alongside the name; bump it
    whenever the backend's output can change, exactly like
    :data:`~repro.core.stages.PIPELINE_VERSION` but scoped to one
    backend.

    ``capabilities`` is a declarative feature set (for docs, ``/readyz``
    style introspection, and tests), not a dispatch mechanism.
    """

    name: str
    version: str
    description: str
    capabilities: Tuple[str, ...]
    #: PipelineConfig fields that steer this backend's output — a
    #: documentation of scope; the store fingerprints the union.
    fingerprint_fields: Tuple[str, ...]
    runner: Callable = field(repr=False, compare=False)

    def run(self, netlist, config, context=None):
        """Run this backend with the ``identify_words`` contract."""
        return self.runner(netlist, config, context=context)


_REGISTRY: Dict[str, BackendSpec] = {}


def register(spec: BackendSpec) -> BackendSpec:
    """Add a backend to the registry (idempotent for identical specs).

    Re-registering a name with a *different* spec is an error: silently
    replacing a backend would let two processes compute different results
    under one fingerprint.
    """
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing != spec:
        raise ValueError(f"backend {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def backend_names() -> Tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(_REGISTRY)


def resolve(name: object) -> BackendSpec:
    """The :class:`BackendSpec` for ``name``.

    Raises :class:`UnknownBackendError` (a ``ValueError``) for anything
    not registered — including non-string junk from request payloads.
    """
    spec = _REGISTRY.get(name) if isinstance(name, str) else None
    if spec is None:
        raise UnknownBackendError(name, backend_names())
    return spec


# ----------------------------------------------------------------------
# built-in backends
# ----------------------------------------------------------------------

def _run_staged(netlist, config, context=None):
    """The staged Figure-2 engine — shared by ``ours`` and ``base``.

    Deliberately identical to the pre-registry call path (the ``backend``
    differential oracle pins ours-via-registry ≡ ours-legacy
    byte-identical).
    """
    from .stages import AnalysisEngine

    return AnalysisEngine(config).run(netlist, context=context)


def _run_regfeat(netlist, config, context=None):
    from .regfeat import run_regfeat

    return run_regfeat(netlist, config, context=context)


#: Knobs steering the staged engine (== store FINGERPRINT_FIELDS minus
#: the backend identity itself).
_STAGED_FIELDS = (
    "depth",
    "max_simultaneous",
    "allow_partial",
    "grouping",
    "max_control_signals",
    "accept_partial_heals",
    "max_assignments",
    "max_cone_gates",
    "preflight",
)

register(BackendSpec(
    name="ours",
    version="1.0.0",
    description="control-signal technique (Tashjian & Davoodi, DAC 2015)",
    capabilities=(
        "partial-matching", "control-signals", "reduction", "incremental",
    ),
    fingerprint_fields=_STAGED_FIELDS,
    runner=_run_staged,
))

register(BackendSpec(
    name="base",
    version="1.0.0",
    description="shape-hashing baseline [6] (full structural matches only)",
    capabilities=("full-matching",),
    fingerprint_fields=_STAGED_FIELDS,
    runner=_run_staged,
))

register(BackendSpec(
    name="regfeat",
    version="1.0.0",
    description="feature-vector register aggregation (RELIC-style)",
    capabilities=("feature-aggregation", "register-words"),
    fingerprint_fields=("depth",),
    runner=_run_regfeat,
))
