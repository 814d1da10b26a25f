"""Golden canonical forms of `minimize_weak_dba`.

Each case pins (n_states, initial, accepting, sorted transitions) of one
canonical minimal weak DBA, so any change to the quotient, its acceptance
convention or its numbering shows up as a diff.  Inputs are seeded random
weak DBAs, layered weak DBAs with redundant copies, the empty language, and
an empty and a nonempty language over an alphabet above `COMPLETION_CAP`;
for those two, the transition list is pinned by its length and SHA-256.
Regenerate (only for a deliberate change of canonical form) with
`PYTHONPATH=src python tests/test_weak_min_golden.py`.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from rmckit import Alphabet, minimize_weak_dba
from rmckit.alphabet import COMPLETION_CAP
from rmckit.fixtures import build_fa, ring_alphabet
from rmckit.omega import OmegaAutomaton

from oracles import random_layered_weak_dba, random_weak_dba

GOLDEN = Path(__file__).parent / "golden" / "weak_min.json"
NT = ring_alphabet()
ABC = Alphabet.base(("a", "b", "c"))
WIDE = Alphabet.base(tuple(f"x{i}" for i in range(COMPLETION_CAP + 4)))


def seeded(generator, alphabet, seed, count):
    rng = random.Random(seed)
    return [generator(rng, alphabet) for _ in range(count)]


def wide_nonempty():
    # {x0, x1} x0^omega, with a redundant transient copy of the x0 loop
    return OmegaAutomaton(
        WIDE, 3, frozenset({0}), frozenset({1}),
        frozenset({(0, 1, 1), (0, 0, 2), (2, 0, 1), (1, 0, 1)}),
    )


CASES = {
    **{f"random_nt_{i}": a for i, a in enumerate(seeded(random_weak_dba, NT, 61, 20))},
    **{f"random_abc_{i}": a for i, a in enumerate(seeded(random_weak_dba, ABC, 62, 10))},
    **{f"layered_nt_{i}": a for i, a in enumerate(seeded(random_layered_weak_dba, NT, 63, 8))},
    **{f"layered_abc_{i}": a for i, a in enumerate(seeded(random_layered_weak_dba, ABC, 64, 6))},
    "empty": build_fa(NT, 2, [0], [], [(0, "N", 1), (1, "N", 0), (1, "T", 1)], omega=True),
    "wide_empty": OmegaAutomaton(WIDE, 1, frozenset({0}), frozenset(), frozenset()),
    "wide_nonempty": wide_nonempty(),
}


def shape(a: OmegaAutomaton) -> dict:
    transitions = [list(t) for t in sorted(a.transitions)]
    if a.alphabet.size > COMPLETION_CAP:
        text = json.dumps(transitions).encode()
        transitions = {"count": len(transitions), "sha256": hashlib.sha256(text).hexdigest()}
    return {
        "n_states": a.n_states,
        "initial": sorted(a.initial),
        "accepting": sorted(a.accepting),
        "transitions": transitions,
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_canonical_form_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())
    assert shape(minimize_weak_dba(CASES[name])) == golden[name]


if __name__ == "__main__":
    rows = (
        f"  {json.dumps(name)}: {json.dumps(shape(minimize_weak_dba(CASES[name])))}"
        for name in sorted(CASES)
    )
    print("{\n" + ",\n".join(rows) + "\n}")
