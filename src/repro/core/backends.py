"""The identification backends, a fixed table (DESIGN.md §15).

The paper's six-stage pipeline is one *strategy* for word identification:
shape-based grouping plus control-signal reduction.  Both strategies run
on the one staged :class:`~repro.core.stages.AnalysisEngine`, and
:func:`repro.core.pipeline.identify_words`, :class:`repro.api.Session`,
the CLIs, and ``repro serve`` name them by ``PipelineConfig.backend``:

``ours``
    The paper's technique (partial matching, control signals,
    reduction).  The default.

``base``
    The shape-hashing comparison point [6]: partial matching off.

Fingerprint discipline (DESIGN.md §15): a backend's ``name`` and
``version`` join the store fingerprint
(:data:`repro.store.keys.FINGERPRINT_FIELDS` + ``backend_version``), so
two backends — or two versions of one backend — can never read each
other's cached artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

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
    """One identification strategy: a name and a version.

    ``version`` joins every store fingerprint alongside the name; bump it
    whenever the backend's output can change, exactly like
    :data:`~repro.core.stages.PIPELINE_VERSION` but scoped to one
    backend.
    """

    name: str
    version: str


_BACKENDS: Dict[str, BackendSpec] = {
    spec.name: spec
    for spec in (BackendSpec("ours", "1.0.0"), BackendSpec("base", "1.0.0"))
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
