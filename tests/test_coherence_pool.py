"""CoherencePool builds each atom at most once, on the atom's first draw."""

from __future__ import annotations

import random
from collections import Counter

from moritalab.rings import families
from moritalab.rings.families import CoherencePool

BUILDERS = ("scalar_bimodule", "regular_bimodule", "augmentation_scalar", "column_module",
            "row_module")


def _count_builds(monkeypatch) -> Counter:
    calls: Counter = Counter()
    for name in BUILDERS:
        def counted(*args, _name=name, _real=getattr(families, name)):
            calls[(_name, tuple(map(id, args)))] += 1
            return _real(*args)
        monkeypatch.setattr(families, name, counted)
    return calls


def test_atoms_are_built_lazily_and_once(monkeypatch):
    calls = _count_builds(monkeypatch)
    pool = CoherencePool()
    builders = [b for atoms in pool.atoms.values() for b in atoms]
    assert not calls  # the constructor builds no atom
    rng = random.Random(3)
    for _ in range(40):
        pool.sample_chain(rng, 4)
    misses = [b.cache_info().misses for b in builders]
    assert max(misses) == 1 and sum(misses) == sum(calls.values())
    assert sum(b.cache_info().hits for b in builders) > sum(misses)
    drawn = next(b for b in builders if b.cache_info().misses)
    assert drawn() is drawn()


def test_cached_atoms_sample_the_same_chains(monkeypatch):
    cached = CoherencePool()
    monkeypatch.setattr(families, "cache", lambda builder: builder)
    fresh = CoherencePool()
    for seed in range(6):
        a = cached.sample_chain(random.Random(seed), 4)
        b = fresh.sample_chain(random.Random(seed), 4)
        assert len(a) == len(b) and all(M == N for M, N in zip(a, b))
