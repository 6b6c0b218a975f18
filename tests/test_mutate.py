"""The mutation probe's mutants, generated without running any of them."""

from __future__ import annotations

import mutate


def test_mutants_are_reproducible_and_name_every_known_equivalent():
    mutants = mutate.mutants()
    assert {m.module for m in mutants} == set(mutate.MODULES)
    assert mutate.mutants() == mutants
    keys = [m.key for m in mutants]
    assert len(set(keys)) == len(keys)
    # an entry whose site was edited or moved names no mutant any more
    assert sorted(set(mutate.KNOWN_EQUIVALENTS) - set(keys)) == []
