"""Action encodings of the instance families, pinned byte for byte.

Plans, verdict positions and the block constants depend on the exact
preconditions, effects and action order of each family, so the serialized
text is compared against digests taken before the increment and literal
encodings were given one owner each.
"""

from __future__ import annotations

import hashlib

import pytest

from planrep import (
    CounterSpec,
    all_instances_instance,
    counter_instance,
    indexed_plans_instance,
    sat_verifier_instance,
    serialize_instance,
)
from planrep.sat3 import clause_count, enabled_atoms

FAMILIES = {
    "counter-binary": lambda n: [
        counter_instance(CounterSpec(n, t, "binary")) for t in range(1 << n)
    ],
    "counter-gray": lambda n: [
        counter_instance(CounterSpec(n, t, "gray")) for t in range(1 << n)
    ],
    "indexed": lambda n: [indexed_plans_instance(n)],
    "satverify": lambda n: [sat_verifier_instance(n, i) for i in range(1 << clause_count(n))],
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
