"""Mutation smoke test: the oracles must catch known-bad pipelines.

Five plausible pipeline bugs are injected one at a time behind the
test-only hooks in :mod:`repro.fuzz.mutations`; the oracle suite must
flag at least four of the five on a small fixed corpus.  Today exactly
four are caught — ``stale-reduced-keys`` by ``expectation`` and
``bit_permutation`` on both smoke samples, while ``singles-only`` goes
unseen on this corpus.  The assertion leaves that one mutation of slack
so an unrelated pipeline improvement that legitimately changes one bug's
visibility does not break the build, while any real oracle regression
(which typically blinds several) still fails.
"""

from __future__ import annotations

import pytest

from repro.fuzz.generator import generate, sample_seed
from repro.fuzz.mutations import MUTATION_NAMES, apply_mutation
from repro.fuzz.oracles import run_oracles

#: Corpus indices used for the smoke: index 0 alone catches every
#: caught mutation today; index 1 is headroom against generator drift.
_SMOKE_INDICES = (0, 1)


@pytest.fixture(scope="module")
def corpus():
    return [generate(sample_seed(0, index)) for index in _SMOKE_INDICES]


def _caught(samples) -> bool:
    for sample in samples:
        verdicts = run_oracles(sample)
        if any(not v.passed for v in verdicts):
            return True
    return False


def test_mutation_names_are_stable():
    assert set(MUTATION_NAMES) == {
        "no-controls",
        "singles-only",
        "overeager-propagation",
        "stale-reduced-keys",
        "name-sensitive-grouping",
    }


def test_unknown_mutation_rejected():
    with pytest.raises(ValueError, match="unknown mutation"):
        with apply_mutation("nope"):
            pass


def test_clean_corpus_passes(corpus):
    for sample in corpus:
        assert all(v.passed for v in run_oracles(sample))


def test_oracles_catch_injected_bugs(corpus):
    caught = {}
    for name in MUTATION_NAMES:
        with apply_mutation(name):
            caught[name] = _caught(corpus)
    missed = [name for name, hit in caught.items() if not hit]
    assert len(caught) - len(missed) >= 4, (
        f"oracles caught only {len(caught) - len(missed)}/5 mutations; "
        f"missed: {missed}"
    )


def test_mutations_restore_the_pipeline(corpus):
    # After every context manager exits, the unmutated pipeline must be
    # back: the clean corpus passes again.
    for name in MUTATION_NAMES:
        with apply_mutation(name):
            pass
    assert all(v.passed for v in run_oracles(corpus[0]))
