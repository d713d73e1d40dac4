"""Partial structural matching of candidate bits (Section 2.3).

Within each first-level group, bits are visited sequentially and each bit is
compared only with its predecessor.  Two bits *fully match* when their root
gate types agree and their second-level subtree hash-key multisets are
equal; they *partially match* when the root types agree and at least one
subtree hash key is shared.  Partial matches keep the pair in the same
subgroup and the unmatched subtrees are remembered (by the net at each
subtree's root) for the control-signal stage.

The pairwise comparison is the paper's sorted-merge walk: both bits' hash
keys are kept sorted and two pointers advance as in a merge join, so
comparing bits with ``k_i`` and ``k_j`` subtrees costs ``O(k_i + k_j)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

from .hashkey import LEAF_TOKEN, BitSignature

__all__ = [
    "MatchKind",
    "compare_bits",
    "PairMatch",
    "Subgroup",
    "chain_runs",
    "chains",
    "form_subgroups",
    "full_match_runs",
]


class MatchKind:
    """Tri-state outcome of a pairwise bit comparison."""

    FULL = "full"
    PARTIAL = "partial"
    NONE = "none"


@dataclass(frozen=True)
class PairMatch:
    """Outcome of comparing two bits' subtree hash-key multisets."""

    kind: str
    matched_keys: Tuple[str, ...]
    unmatched_a: Tuple[str, ...]  # hash keys of a's dissimilar subtrees
    unmatched_b: Tuple[str, ...]


def _merge_compare(
    keys_a: Sequence[str], keys_b: Sequence[str]
) -> Tuple[List[str], List[str], List[str]]:
    """Merge-join two sorted hash-key lists.

    Returns (matched multiset, unmatched from a, unmatched from b); each key
    occurrence is consumed at most once, so duplicate subtree shapes pair up
    one-to-one.
    """
    matched: List[str] = []
    only_a: List[str] = []
    only_b: List[str] = []
    i = j = 0
    while i < len(keys_a) and j < len(keys_b):
        if keys_a[i] == keys_b[j]:
            matched.append(keys_a[i])
            i += 1
            j += 1
        elif keys_a[i] < keys_b[j]:
            only_a.append(keys_a[i])
            i += 1
        else:
            only_b.append(keys_b[j])
            j += 1
    only_a.extend(keys_a[i:])
    only_b.extend(keys_b[j:])
    return matched, only_a, only_b


def _shares_structural_key(
    keys_a: Sequence[str], keys_b: Sequence[str]
) -> bool:
    """True when the sorted key lists share a non-leaf key.

    The merge walk of :func:`_merge_compare`, reduced to the partial-match
    predicate: stops at the first shared key with real gates in it, and
    allocates nothing.  (A shared bare-leaf subtree carries no structure —
    any two gates with a PI/register fanin would "match".)
    """
    i = j = 0
    len_a, len_b = len(keys_a), len(keys_b)
    while i < len_a and j < len_b:
        ka, kb = keys_a[i], keys_b[j]
        if ka == kb:
            if ka != LEAF_TOKEN:
                return True
            i += 1
            j += 1
        elif ka < kb:
            i += 1
        else:
            j += 1
    return False


def compare_bits(a: BitSignature, b: BitSignature) -> PairMatch:
    """Classify the structural relation between two candidate bits."""
    if a.is_leaf or b.is_leaf or a.root_type != b.root_type:
        return PairMatch(MatchKind.NONE, (), a.sorted_keys, b.sorted_keys)
    matched, only_a, only_b = _merge_compare(a.sorted_keys, b.sorted_keys)
    if matched and not only_a and not only_b:
        return PairMatch(MatchKind.FULL, tuple(matched), (), ())
    # A shared bare-leaf subtree carries no structure (any two gates with a
    # PI/register fanin would "match"); partial matching needs at least one
    # shared subtree with real gates in it.
    if any(key != LEAF_TOKEN for key in matched):
        return PairMatch(
            MatchKind.PARTIAL, tuple(matched), tuple(only_a), tuple(only_b)
        )
    return PairMatch(MatchKind.NONE, (), tuple(only_a), tuple(only_b))


@dataclass
class Subgroup:
    """Bits grouped by chained (full or partial) matches, plus bookkeeping.

    ``dissimilar`` maps each bit to the root nets of its subtrees that are
    not shared by *every* bit of the subgroup — the dashed-red subtrees of
    the paper's Figure 1.  A subgroup whose bits all carry empty dissimilar
    lists is fully matched.
    """

    signatures: List[BitSignature]
    dissimilar: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def bits(self) -> List[str]:
        return [sig.net for sig in self.signatures]

    @property
    def fully_matched(self) -> bool:
        return len(self.signatures) >= 2 and all(
            not roots for roots in self.dissimilar.values()
        )

    @property
    def partially_matched(self) -> bool:
        return len(self.signatures) >= 2 and any(
            roots for roots in self.dissimilar.values()
        )

    def dissimilar_subtrees(self) -> List[Tuple[str, str]]:
        """(bit net, dissimilar subtree root net) pairs, in bit order."""
        pairs: List[Tuple[str, str]] = []
        for sig in self.signatures:
            for root in self.dissimilar.get(sig.net, ()):
                pairs.append((sig.net, root))
        return pairs

    def finalize(self) -> None:
        """Recompute each bit's dissimilar subtrees against the whole group.

        The chain comparison decides *membership*; the dissimilar subtrees
        are then defined against the multiset of hash keys common to all
        bits (in Figure 1 the two blue subtrees are common to all three
        bits, leaving one dashed subtree per bit).
        """
        if not self.signatures:
            return
        first = self.signatures[0].sorted_keys
        common: List[str] = None  # type: ignore[assignment]
        for sig in self.signatures[1:]:
            if common is None:
                if sig.sorted_keys == first:
                    continue  # identical multiset cannot shrink the common
                common = list(first)
            matched, _, _ = _merge_compare(common, sig.sorted_keys)
            common = matched
        if common is None:
            common = list(first)
        self.dissimilar = {}
        for sig in self.signatures:
            # Fully-matching bits (the overwhelmingly common case) have
            # keys equal to the common multiset — nothing left over.
            if len(sig.sorted_keys) == len(common):
                self.dissimilar[sig.net] = []
                continue
            _, only_sig, _ = _merge_compare(sig.sorted_keys, common)
            roots: List[str] = []
            # Map leftover keys back to subtree root nets; duplicate keys
            # are consumed positionally (a gate listing one input twice
            # holds the same Subtree object twice).
            remaining = list(sig.subtrees)
            for key in only_sig:
                for index, subtree in enumerate(remaining):
                    if subtree.key == key:
                        roots.append(subtree.root_net)
                        del remaining[index]
                        break
            self.dissimilar[sig.net] = roots


def chains(prev, cur, allow_partial: bool = True) -> bool:
    """The chain rule: whether bit ``cur`` joins its predecessor's subgroup.

    Both bits must be non-leaf with one qualified root type, and either
    match fully (equal, non-empty subtree-key multisets) or, with
    ``allow_partial``, share a subtree key with real gates in it.  This
    is :func:`compare_bits` reduced to the outcome chaining needs, with no
    :class:`PairMatch` built.  It reads only ``root_type`` and
    ``sorted_keys``, so it serves signatures and the engine's interned
    :class:`~repro.core.hashkey.BitShape` records alike; the engine
    decides each distinct pair of adjacent shapes once.
    """
    if prev.root_type is None or cur.root_type != prev.root_type:
        return False
    keys = cur.sorted_keys
    if keys == prev.sorted_keys:
        return bool(keys)
    return allow_partial and _shares_structural_key(prev.sorted_keys, keys)


def chain_runs(
    items: Sequence,
    allow_partial: bool,
    joins: Callable[[Any, Any, bool], bool] = chains,
) -> Iterator[Tuple[int, int]]:
    """``(start, end)`` of each maximal run of ``items`` whose every item
    chains to the one before it, in order.

    Each item is compared with its predecessor only (the paper's explicit
    design choice: a bit joins at most one subgroup, the one of its
    adjacent predecessor), by ``joins(prev, cur, allow_partial)``:
    :func:`chains`, or the engine's memo of it over interned shapes.
    """
    start = 0
    for end in range(1, len(items)):
        if not joins(items[end - 1], items[end], allow_partial):
            yield start, end
            start = end
    if items:
        yield start, len(items)


def form_subgroups(
    signatures: Sequence[BitSignature], allow_partial: bool = True
) -> List[Subgroup]:
    """Split a first-level group into subgroups by sequential comparison.

    Runs of bits that :func:`chains` links become subgroups.  With
    ``allow_partial=False`` this degenerates into the shape-hashing
    baseline's grouping, where only full matches chain.
    """
    return [
        _make_subgroup(signatures[start:end])
        for start, end in chain_runs(signatures, allow_partial)
    ]


def _make_subgroup(signatures: List[BitSignature]) -> Subgroup:
    subgroup = Subgroup(list(signatures))
    subgroup.finalize()
    return subgroup


def full_match_runs(
    signatures: Sequence[BitSignature],
) -> List[List[BitSignature]]:
    """Partition bits into maximal runs of fully-matching structure.

    Equivalent to ``form_subgroups(signatures, allow_partial=False)``
    flattened to signature lists, but without constructing
    :class:`Subgroup` bookkeeping — this is the hot re-check after every
    control-signal assignment, where only the partition matters.

    Two adjacent bits chain exactly when :func:`compare_bits` reports a
    full match: both non-leaf, same qualified root type, identical and
    non-empty subtree key multisets.  That is the full-match case of
    :func:`chains`, kept inline: a call per adjacent pair through
    :func:`chain_runs` made b18's reduction stage measurably slower.
    """
    runs: List[List[BitSignature]] = []
    current: List[BitSignature] = []
    for sig in signatures:
        if current:
            prev = current[-1]
            if (
                prev.root_type is not None
                and sig.root_type == prev.root_type
                and sig.sorted_keys == prev.sorted_keys
                and sig.sorted_keys
            ):
                current.append(sig)
                continue
            runs.append(current)
        current = [sig]
    if current:
        runs.append(current)
    return runs
