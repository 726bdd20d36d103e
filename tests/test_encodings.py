"""Action encodings of the instance families, pinned byte for byte.

Plans, verdict positions and the block constants depend on the exact
preconditions, effects and action order of each family, so the serialized
text is compared against digests taken before the increment and literal
encodings were given one owner each.  The sampled verifier digests at
n = 4..6 were taken while every subset still built its own action table.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from planrep import (
    CounterSpec,
    all_instances_instance,
    constructions,
    counter_instance,
    indexed_plans_instance,
    sat_verifier_instance,
    serialize_instance,
)
from planrep.errors import IndexOutOfRangeError
from planrep.sat3 import clause_count

from conftest import enabled_atoms


def sampled_subsets(n: int) -> list[int]:
    """The empty and the full subset, then ten seeded random ones."""
    m = clause_count(n)
    rng = random.Random(n)
    return [0, (1 << m) - 1] + [rng.getrandbits(m) for _ in range(10)]


FAMILIES = {
    "counter-binary": lambda n: [
        counter_instance(CounterSpec(n, t, "binary")) for t in range(1 << n)
    ],
    "counter-gray": lambda n: [
        counter_instance(CounterSpec(n, t, "gray")) for t in range(1 << n)
    ],
    "indexed": lambda n: [indexed_plans_instance(n)],
    "satverify": lambda n: [sat_verifier_instance(n, i) for i in range(1 << clause_count(n))],
    "satverify-sampled": lambda n: [sat_verifier_instance(n, i) for i in sampled_subsets(n)],
    "allinst": lambda n: [all_instances_instance(n)],
}

PINNED = {
    ("counter-binary", 1): "47f44489b9d40c41",
    ("counter-binary", 2): "c03e6bc0b7469055",
    ("counter-binary", 3): "de5b7143c75991ef",
    ("counter-binary", 4): "33b58bf79150a9d1",
    ("counter-gray", 1): "b54d9599b5861978",
    ("counter-gray", 2): "5e3e5a1095cea12c",
    ("counter-gray", 3): "885684cdb478c129",
    ("counter-gray", 4): "7d0523b5589a7a10",
    ("indexed", 1): "d10b9dd3ce040639",
    ("indexed", 2): "82a48ecbe1d3a9d3",
    ("indexed", 3): "a8b0572416c7c17c",
    ("indexed", 4): "8cadc7636ceda02c",
    ("satverify", 3): "769f0f4c59f432ce",
    ("satverify-sampled", 4): "e06c16b045a30e7a",
    ("satverify-sampled", 5): "299d69f0b7bea569",
    ("satverify-sampled", 6): "1978b83a4990b4e5",
    ("allinst", 1): "30470ac4d97f2c1c",
    ("allinst", 2): "f7c72c69a6b831a7",
    ("allinst", 3): "0f18ad2c4237bc43",
}


@pytest.mark.parametrize("family,n", sorted(PINNED))
def test_serialized_text_is_pinned(family, n):
    digest = hashlib.sha256()
    for instance in FAMILIES[family](n):
        digest.update(serialize_instance(instance).encode())
    assert digest.hexdigest()[:16] == PINNED[family, n]


@pytest.mark.parametrize("n,subsets", [(3, range(256)), (4, [0, 1, 0xDEADBEEF, (1 << 32) - 1])])
def test_verifier_initial_state_encodes_the_subset(n, subsets):
    for i in subsets:
        instance = sat_verifier_instance(n, i)
        assert instance.init == i << n
        assert instance.init == instance.state(*(f"e{j}" for j in enabled_atoms(n, i)))


class TestSharedVerifier:
    """One validated verifier per n; a subset only sets the initial state."""

    @pytest.mark.parametrize("n", [3, 6])
    def test_subsets_share_the_action_table(self, n):
        empty, full = (sat_verifier_instance(n, i) for i in (0, (1 << clause_count(n)) - 1))
        assert empty.actions is full.actions and empty.atoms is full.atoms
        assert empty.goal == full.goal and empty.init != full.init

    def test_with_init_refuses_states_outside_the_frame(self):
        template = sat_verifier_instance(3, 0)
        for state in (1 << template.n_atoms, -1):
            with pytest.raises(ValueError, match="^initial state references undeclared atoms$"):
                template.with_init(state)
        assert template.with_init(template.full_mask).init == template.full_mask
        assert template.init == 0

    def test_table_is_built_once_per_width(self, monkeypatch):
        built = []
        build = constructions.StripsInstance

        def counting(*args):
            built.append(args)
            return build(*args)

        monkeypatch.setattr(constructions, "StripsInstance", counting)
        constructions._verifier_template.cache_clear()
        try:
            for n in (3, 4, 3, 4):
                for i in sampled_subsets(n):
                    assert sat_verifier_instance(n, i).init == i << n
        finally:
            constructions._verifier_template.cache_clear()
        assert len(built) == 2

    def test_errors_come_before_the_table(self, monkeypatch):
        def no_table(n):
            raise AssertionError("table built for an invalid request")

        monkeypatch.setattr(constructions, "_verifier_template", no_table)
        with pytest.raises(ValueError, match="^need at least one variable$"):
            sat_verifier_instance(0, 0)
        with pytest.raises(IndexOutOfRangeError, match="^subset index 256 out of range for n=3$"):
            sat_verifier_instance(3, 256)
        with pytest.raises(IndexOutOfRangeError, match="^subset index -1 out of range for n=3$"):
            sat_verifier_instance(3, -1)
