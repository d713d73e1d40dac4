"""Test-only injected bugs for measuring oracle sensitivity.

The fuzzing subsystem's own correctness claim is "the oracles would catch
a real pipeline regression".  That claim is tested the same way the
pipeline's are: each mutation below re-introduces a plausible bug class
behind a context manager that monkeypatches one seam, and the mutation
smoke test (``tests/fuzz/test_mutation.py``) asserts the oracle suite
flags it on a suitable sample.

The five bug classes, and the oracle expected to catch each:

``no-controls``
    Control-signal discovery returns nothing (a Section 2.4 regression).
    Healable words stop healing → ``expectation``.
``singles-only``
    The assignment search never tries pairs (a Section 2.5 regression —
    the paper's Figure 1 case needs two signals).  Crossed words stop
    healing → ``expectation``.
``overeager-propagation``
    Constant propagation assigns one extra unassigned net (an unsound
    simplification).  The committed reduction no longer preserves the
    word-bit functions → ``reduction_functional``.
``stale-reduced-keys``
    The incremental re-check after a reduction returns the unreduced
    signatures (a Section 2.5 memo bug: nothing is ever rehashed).  No
    assignment can unify a subgroup, so healable words stop healing →
    ``expectation`` (and ``bit_permutation``).
``name-sensitive-grouping``
    Stage-1 runs break on a property of the *net name* (a classic
    accidental-dependence bug).  Results differ between the original and
    hostile-renamed namespaces → ``rename`` (or ``expectation`` when the
    original namespace is affected too — either way it is caught).

These are deliberately *not* importable from the package root and never
run unless a test asks for them.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Sequence

from ..core import reduction as _reduction
from ..core import stages as _stages
from ..core.context import AnalysisContext

__all__ = ["MUTATION_NAMES", "apply_mutation"]


@contextmanager
def _patched(owner, attribute: str, replacement) -> Iterator[None]:
    original = getattr(owner, attribute)
    setattr(owner, attribute, replacement)
    try:
        yield
    finally:
        setattr(owner, attribute, original)


@contextmanager
def _no_controls() -> Iterator[None]:
    def nothing(subgroup, context=None):
        return []

    with _patched(_stages, "find_control_signals", nothing):
        yield


@contextmanager
def _singles_only() -> Iterator[None]:
    original = _stages._assignments

    def only_singles(candidates, max_simultaneous):
        return original(candidates, 1)

    with _patched(_stages, "_assignments", only_singles):
        yield


@contextmanager
def _overeager_propagation() -> Iterator[None]:
    original = _reduction.propagate_constants

    def extra_net(netlist, assignments):
        values = original(netlist, assignments)
        for gate in netlist.gates_in_file_order():
            if gate.is_ff or gate.cell.is_constant:
                continue
            if gate.output in values:
                continue
            values[gate.output] = 0
            break
        return values

    with _patched(_reduction, "propagate_constants", extra_net):
        yield


@contextmanager
def _stale_reduced_keys() -> Iterator[None]:
    def unreduced(self, reduced, values, bits):
        return self.signatures(bits)

    with _patched(AnalysisContext, "signatures_after_reduction", unreduced):
        yield


@contextmanager
def _name_sensitive_grouping() -> Iterator[None]:
    original = _stages.group_by_adjacency

    def split_on_odd_names(netlist) -> List[List[str]]:
        groups: List[List[str]] = []
        for group in original(netlist):
            run: List[str] = []
            for net in group:
                run.append(net)
                if len(net) % 2:
                    groups.append(run)
                    run = []
            if run:
                groups.append(run)
        return groups

    with _patched(_stages, "group_by_adjacency", split_on_odd_names):
        yield


_MUTATIONS: Dict[str, Callable[[], Iterator[None]]] = {
    "no-controls": _no_controls,
    "singles-only": _singles_only,
    "overeager-propagation": _overeager_propagation,
    "stale-reduced-keys": _stale_reduced_keys,
    "name-sensitive-grouping": _name_sensitive_grouping,
}

MUTATION_NAMES: Sequence[str] = tuple(_MUTATIONS)


def apply_mutation(name: str):
    """Context manager installing the named bug for the enclosed block."""
    try:
        factory = _MUTATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown mutation {name!r}; choose from {', '.join(_MUTATIONS)}"
        ) from None
    return factory()
