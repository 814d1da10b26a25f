"""Structure-preserving transducers over a squared alphabet.

A transducer is an automaton over the two-track product of a base alphabet;
each transition consumes exactly one (input, output) letter pair, so finite
relations are length-preserving by construction.  Image, preimage and
composition are one reachable product, `_join`, that reads a relation on
either track, so no inverse is built.  Products, inclusion and canonical forms come from the set
operations in `omega`, the one place that tells finite words from omega-words,
so a relation has the same canonical form as any other set.  The iterative
closure engine detects convergence by canonical equality of consecutive
unions and accepts accelerator candidates only after the one-step soundness
inclusion check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .alphabet import Alphabet
from .automata import FiniteAutomaton, relabel, union, universal
# unused; perfbench's test_install_rebinds_every_binding_and_restore_undoes_it pins the name
from .automata import minimize  # noqa: F401
from .errors import AlphabetMismatch, InputError, ModeMismatch
from .omega import (
    OmegaAutomaton,
    _canon,
    _includes,
    _member,
    _product,
    _zip_letters,
    omega_universal,
)

FINITE = "finite"
OMEGA = "omega"


@dataclass(frozen=True)
class Transducer:
    """Automaton over base x base, read as a binary relation on words."""

    inner: FiniteAutomaton

    def __post_init__(self):
        comps = self.inner.alphabet.components
        if len(comps) % 2 != 0:
            raise InputError("transducer alphabet must have an even component count")
        half = len(comps) // 2
        if comps[:half] != comps[half:]:
            raise InputError("transducer input and output alphabets must match")

    @property
    def mode(self) -> str:
        return OMEGA if isinstance(self.inner, OmegaAutomaton) else FINITE

    @property
    def base(self) -> Alphabet:
        comps = self.inner.alphabet.components
        return Alphabet(comps[: len(comps) // 2])


@dataclass(frozen=True)
class ClosureResult:
    relation: Transducer
    converged: bool
    steps_used: int


def _require_same_base(t1: Transducer, t2: Transducer) -> None:
    if t1.mode != t2.mode:
        raise ModeMismatch("transducers have different modes")
    if t1.base != t2.base:
        raise AlphabetMismatch("transducers have different base alphabets")


def pair_word(base: Alphabet, w1, w2):
    """Word over base x base pairing two words letter by letter: two
    equal-length finite words, or two ultimately periodic words."""
    size = base.size
    return _zip_letters(w1, w2, lambda a, b: a * size + b)


def identity(alphabet: Alphabet, mode: str = FINITE) -> Transducer:
    """Transducer for {(w, w)}: every word, each letter read on both tracks."""
    size = alphabet.size
    words = omega_universal(alphabet) if mode == OMEGA else universal(alphabet)
    pairs = Alphabet.product(alphabet, alphabet)
    return Transducer(relabel(words, pairs, lambda a: (a * size + a,)))


def inverse(t: Transducer) -> Transducer:
    """Swap the letter components (represents the inverse relation)."""
    size = t.base.size
    return Transducer(
        relabel(t.inner, t.inner.alphabet, lambda sym: ((sym % size) * size + sym // size,))
    )


def accepts_pair(t: Transducer, w1, w2) -> bool:
    """Whether (w1, w2) is in the relation; both words finite or both omega."""
    return _member(t.inner, pair_word(t.base, w1, w2))


def _join(left: FiniteAutomaton, t: Transducer, track: int) -> FiniteAutomaton:
    """Reachable product of `left`, a set or a relation, with relation `t`.

    A `left` move's last letter meets the letter on `t`'s input (`track` 0)
    or output (1) track; the move made keeps `left`'s first letter, if any,
    and `t`'s other one.  Moves come in ascending `left`, then `t` symbol
    order, so `track` 1 numbers a product as `t`'s inverse would."""
    size = t.base.size
    cache: dict[int, dict[int, list[tuple[int, int]]]] = {}  # keyed by row identity

    def pairs(rowl, rowt):
        by_letter = cache.get(id(rowt))
        if by_letter is None:
            by_letter = cache[id(rowt)] = {}
            for sym in sorted(rowt):
                letters = divmod(sym, size)
                by_letter.setdefault(letters[track], []).append((sym, letters[1 - track]))
        for syml in sorted(rowl):
            first, last = divmod(syml, size)
            for sym, other in by_letter.get(last, ()):
                yield syml, sym, first * size + other

    return _product(left, t.inner, left.alphabet, pairs)


def compose(t1: Transducer, t2: Transducer) -> Transducer:
    """Relation composition: apply t1 first, then t2.

    Computed as the projection on the outer tracks of the middle-track join
    of the two pair languages: pi_{!=2}[(T1 x id) cap (id x T2)].
    """
    _require_same_base(t1, t2)
    return Transducer(_join(t1.inner, t2, 0))


def _apply(t: Transducer, a: FiniteAutomaton, track: int) -> FiniteAutomaton:
    if a.alphabet != t.base:
        raise AlphabetMismatch("automaton is not over the transducer base alphabet")
    if t.mode == OMEGA and not isinstance(a, OmegaAutomaton):
        raise ModeMismatch("omega transducer applied to a finite-word automaton")
    if t.mode == FINITE and isinstance(a, OmegaAutomaton):
        raise ModeMismatch("finite transducer applied to an omega automaton")
    return _join(a, t, track)


def image(t: Transducer, a: FiniteAutomaton) -> FiniteAutomaton:
    """Automaton for R(L(a)): pi_{!=1}[(A x universe) cap T]."""
    return _apply(t, a, 0)


def preimage(t: Transducer, a: FiniteAutomaton) -> FiniteAutomaton:
    """Automaton for R^-1(L(a)): pi_{!=2}[(universe x A) cap T]."""
    return _apply(t, a, 1)


def union_t(t1: Transducer, t2: Transducer) -> Transducer:
    _require_same_base(t1, t2)
    return Transducer(union(t1.inner, t2.inner))


def power(t: Transducer, i: int) -> Transducer:
    """i-fold composition; the zero power is the identity relation."""
    if i < 0:
        raise InputError("power must be nonnegative")
    if i == 0:
        return identity(t.base, t.mode)
    result = t
    for _ in range(i - 1):
        result = compose(result, t)
    return result


def canonicalize(t: Transducer) -> Transducer:
    """Canonical minimal form of the relation language (see `omega._canon`)."""
    return Transducer(_canon(t.inner))


def relation_equal(t1: Transducer, t2: Transducer) -> bool:
    return relation_includes(t1, t2) and relation_includes(t2, t1)


def relation_includes(t1: Transducer, t2: Transducer) -> bool:
    """L(t1) includes L(t2)."""
    _require_same_base(t1, t2)
    return _includes(t2.inner, t1.inner)


def reflexive_check(t: Transducer) -> bool:
    """Reflexive iff the identity language is included in L(t)."""
    return relation_includes(t, identity(t.base, t.mode))


Accelerator = Callable[[Sequence[Transducer]], Optional[Transducer]]


def closure(
    t: Transducer,
    kind: str = "star",
    budget: int = 64,
    accelerator: Accelerator | None = None,
) -> ClosureResult:
    """Iterative transitive closure with exact convergence detection.

    Unions U_k of the first k powers are canonically minimized each round;
    convergence holds when one more round leaves the language unchanged.  A
    candidate limit proposed by the accelerator is adopted only if it passes
    the soundness check L(C) >= L(T o C) cup L(T) (plus the identity for the
    reflexive closure); exceeding the budget is reported, never raised.
    """
    if budget < 1:
        raise InputError("closure budget must be at least 1")
    if kind not in ("star", "plus"):
        raise InputError("closure kind must be 'star' or 'plus'")

    def finish(plus_part: Transducer, converged: bool, steps: int) -> ClosureResult:
        if kind == "star":
            rel = canonicalize(union_t(plus_part, identity(t.base, t.mode)))
        else:
            rel = plus_part
        return ClosureResult(rel, converged, steps)

    current = canonicalize(t)  # union of the first k powers, canonical
    frontier = current  # the k-th power alone
    iterates: list[Transducer] = [current]
    steps = 0
    for steps in range(1, budget + 1):
        if accelerator is not None:
            candidate = accelerator(tuple(iterates))
            if candidate is not None and _sound_closure_candidate(candidate, t):
                return finish(canonicalize(candidate), True, steps - 1)
        frontier = canonicalize(compose(frontier, t))
        # the next power inside the union so far closes every later power too
        if relation_includes(current, frontier):
            return finish(current, True, steps)
        current = canonicalize(union_t(current, frontier))
        iterates.append(current)
    return finish(current, False, steps)


def _sound_closure_candidate(candidate: Transducer, t: Transducer) -> bool:
    # the candidate stands for the transitive closure; the reflexive part is
    # added by the engine, so the check is the same for star and plus
    if candidate.mode != t.mode or candidate.base != t.base:
        return False
    step = union_t(compose(candidate, t), t)
    return relation_includes(candidate, step)
