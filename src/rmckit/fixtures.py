"""Shipped worked example: the parametric token ring and its mutants.

Each process is idle (N) or holds the unique token (T); the relation passes
the token to the right-hand neighbour, with a wrap-around branch from the
last position to the first.  The idle mutant lets the token holder keep the
token, breaking liveness; the duplicating mutant lets the holder spawn a
second token (and idle), breaking mutual exclusion.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from .alphabet import Alphabet
from .automata import FiniteAutomaton
from .errors import InputError
from .gsp import cop_alphabet
from .losp import lep_alphabet
from .omega import OmegaAutomaton
from .system import RegularSystem, validate
from .transducer import Transducer, union_t


def build_fa(
    alphabet: Alphabet,
    n_states: int,
    initial: Sequence[int],
    accepting: Sequence[int],
    trans: Sequence[tuple[int, str, int]],
    omega: bool = False,
):
    cls = OmegaAutomaton if omega else FiniteAutomaton
    return cls(
        alphabet,
        n_states,
        frozenset(initial),
        frozenset(accepting),
        frozenset((src, alphabet.index(name), dst) for src, name, dst in trans),
    )


def ring_alphabet() -> Alphabet:
    return Alphabet.base(("N", "T"))


def ring_initial() -> FiniteAutomaton:
    """All states where the first process holds the token: T N*."""
    return build_fa(ring_alphabet(), 2, [0], [1], [(0, "T", 1), (1, "N", 1)])


def ring_relation() -> Transducer:
    """Token moves one position right, or wraps from the last to the first."""
    pair = Alphabet.product(ring_alphabet(), ring_alphabet())
    return Transducer(
        build_fa(
            pair,
            6,
            [0, 3],
            [2, 5],
            [
                (0, "N/N", 0),
                (0, "T/N", 1),
                (1, "N/T", 2),
                (2, "N/N", 2),
                (3, "N/T", 4),
                (4, "N/N", 4),
                (4, "T/N", 5),
            ],
        )
    )


def idle_branch() -> Transducer:
    """The token holder keeps the token; everyone else stays idle."""
    pair = Alphabet.product(ring_alphabet(), ring_alphabet())
    return Transducer(
        build_fa(
            pair,
            2,
            [0],
            [1],
            [(0, "N/N", 0), (0, "T/T", 1), (1, "N/N", 1)],
        )
    )


def dup_branch() -> Transducer:
    """The token holder keeps the token and hands a copy to its neighbour."""
    pair = Alphabet.product(ring_alphabet(), ring_alphabet())
    return Transducer(
        build_fa(
            pair,
            3,
            [0],
            [2],
            [(0, "T/T", 1), (1, "N/T", 2), (2, "N/N", 2)],
        )
    )


def identity_branch() -> Transducer:
    """Any state may stutter (keeps mutant executions alive after a fault)."""
    pair = Alphabet.product(ring_alphabet(), ring_alphabet())
    return Transducer(
        build_fa(pair, 1, [0], [0], [(0, "N/N", 0), (0, "T/T", 0)])
    )


def token_ring() -> RegularSystem:
    return validate(RegularSystem(ring_initial(), ring_relation()))


def token_ring_idle_mutant() -> RegularSystem:
    rel = union_t(ring_relation(), idle_branch())
    return validate(RegularSystem(ring_initial(), rel))


def token_ring_dup_mutant() -> RegularSystem:
    rel = union_t(union_t(ring_relation(), dup_branch()), identity_branch())
    return validate(RegularSystem(ring_initial(), rel))


def cop_one_token() -> FiniteAutomaton:
    """Exactly one process holds the token: N* T N* (complete DFA)."""
    return build_fa(
        ring_alphabet(),
        3,
        [0],
        [1],
        [
            (0, "N", 0),
            (0, "T", 1),
            (1, "N", 1),
            (1, "T", 2),
            (2, "N", 2),
            (2, "T", 2),
        ],
    )


def gsp_always_one_token_negated() -> OmegaAutomaton:
    """Negation of `always cop0`: eventually a letter without cop0."""
    masks = cop_alphabet(1)
    return build_fa(
        masks,
        2,
        [0],
        [1],
        [(0, "m1", 0), (0, "m0", 1), (1, "m0", 1), (1, "m1", 1)],
        omega=True,
    )


def bad_two_tokens() -> FiniteAutomaton:
    """Words with at least two tokens (mutual exclusion violations)."""
    a = ring_alphabet()
    return build_fa(
        a,
        3,
        [0],
        [2],
        [
            (0, "N", 0),
            (0, "T", 0),
            (0, "T", 1),
            (1, "N", 1),
            (1, "T", 1),
            (1, "T", 2),
            (2, "N", 2),
            (2, "T", 2),
        ],
    )


def lep_liveness() -> OmegaAutomaton:
    """One process's run satisfies `always (N implies eventually T)`."""
    return build_fa(
        ring_alphabet(),
        2,
        [0],
        [0],
        [(0, "T", 0), (0, "N", 1), (1, "N", 1), (1, "T", 0)],
        omega=True,
    )


def lep_liveness_negated() -> OmegaAutomaton:
    """Complement: eventually the process stays idle forever (complete NBA)."""
    return build_fa(
        ring_alphabet(),
        3,
        [0],
        [1],
        [
            (0, "N", 0),
            (0, "T", 0),
            (0, "N", 1),
            (1, "N", 1),
            (1, "T", 2),
            (2, "N", 2),
            (2, "T", 2),
        ],
        omega=True,
    )


def losp_all_live_negated() -> FiniteAutomaton:
    """Negation of `every position satisfies lep0`: some position lacks it."""
    masks = lep_alphabet(1)
    return build_fa(
        masks,
        2,
        [0],
        [1],
        [(0, "m1", 0), (0, "m0", 1), (1, "m0", 1), (1, "m1", 1)],
    )


# ---------------------------------------------------------------------------
# bundle generation

# name -> (system factory, bundle title)
_EXAMPLES = {
    "token-ring": (token_ring, "parametric token ring"),
    "token-ring-idle-mutant": (
        token_ring_idle_mutant,
        "token ring mutant: the holder may keep the token forever",
    ),
    "token-dup-mutant": (
        token_ring_dup_mutant,
        "token ring mutant: the holder may duplicate the token",
    ),
}
EXAMPLE_NAMES = tuple(_EXAMPLES)

_SYSTEM_TEMPLATE = """\
# {title}
# N = idle process, T = token holder
alphabet: N T
mode: finite
initial: initial.aut
relation: relation.aut
cop: one_token cop_one_token.aut
lep: liveness lep_liveness.aut lep_liveness_neg.aut
property: reach-bad two_tokens bad_two_tokens.aut
property: gsp-negated always_one_token gsp_always_one_neg.aut
property: losp-negated all_live losp_all_live_neg.aut
"""


def gen_example(name: str, out_dir: str | Path) -> list[Path]:
    """Write a byte-stable system bundle; returns the created files."""
    from .fileformat import serialize_aut

    if name not in _EXAMPLES:
        raise InputError(f"unknown example {name!r}; choose from {EXAMPLE_NAMES}")
    factory, title = _EXAMPLES[name]
    system = factory()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {
        "initial.aut": serialize_aut(system.initial),
        "relation.aut": serialize_aut(system.relation),
        "cop_one_token.aut": serialize_aut(cop_one_token()),
        "gsp_always_one_neg.aut": serialize_aut(gsp_always_one_token_negated()),
        "bad_two_tokens.aut": serialize_aut(bad_two_tokens()),
        "lep_liveness.aut": serialize_aut(lep_liveness()),
        "lep_liveness_neg.aut": serialize_aut(lep_liveness_negated()),
        "losp_all_live_neg.aut": serialize_aut(losp_all_live_negated()),
        "system.sys": _SYSTEM_TEMPLATE.format(title=title),
    }
    written = []
    for fname, content in sorted(files.items()):
        target = out / fname
        target.write_text(content)
        written.append(target)
    return written
