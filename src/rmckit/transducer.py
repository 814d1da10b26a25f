"""Structure-preserving transducers over a squared alphabet.

A transducer is an automaton over the two-track product of a base alphabet;
each transition consumes exactly one (input, output) letter pair, so finite
relations are length-preserving by construction.  Composition and image are
the classic product/projection constructions, fused into single reachable
products; the iterative closure engine detects convergence by canonical
equality of consecutive unions and accepts accelerator candidates only after
the one-step soundness inclusion check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .alphabet import Alphabet
from .automata import (
    FiniteAutomaton,
    equivalent,
    includes,
    minimize,
    product_general,
)
from .errors import AlphabetMismatch, InputError, ModeMismatch
from .omega import (
    OmegaAutomaton,
    UltimatelyPeriodicWord,
    _member,
    _product_omega,
    _union,
    complement_weak_dba,
    minimize_weak_dba,
    omega_is_empty,
    omega_intersect,
    to_weak_dba,
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


def pair_word(base: Alphabet, w1: Sequence[int], w2: Sequence[int]) -> tuple[int, ...]:
    """Word over base x base pairing two equal-length base words."""
    if len(w1) != len(w2):
        raise InputError("pair words must have equal length")
    size = base.size
    return tuple(a * size + b for a, b in zip(w1, w2))


def pair_up_word(
    base: Alphabet, w1: UltimatelyPeriodicWord, w2: UltimatelyPeriodicWord
) -> UltimatelyPeriodicWord:
    """Synchronous pairing of two ultimately periodic words."""
    from math import lcm

    size = base.size
    p = max(len(w1.prefix), len(w2.prefix))
    k = lcm(len(w1.period), len(w2.period))
    prefix = tuple(w1.letter(i) * size + w2.letter(i) for i in range(p))
    period = tuple(w1.letter(p + i) * size + w2.letter(p + i) for i in range(k))
    return UltimatelyPeriodicWord(prefix, period)


def identity(alphabet: Alphabet, mode: str = FINITE) -> Transducer:
    """Transducer for {(w, w)}; single accepting state."""
    size = alphabet.size
    transitions = frozenset((0, a * size + a, 0) for a in alphabet.symbols())
    pair_alpha = Alphabet.product(alphabet, alphabet)
    cls = OmegaAutomaton if mode == OMEGA else FiniteAutomaton
    return Transducer(
        cls(pair_alpha, 1, frozenset({0}), frozenset({0}), transitions)
    )


def inverse(t: Transducer) -> Transducer:
    """Swap the letter components (represents the inverse relation)."""
    size = t.base.size
    swapped = frozenset(
        (src, (sym % size) * size + (sym // size), dst)
        for src, sym, dst in t.inner.transitions
    )
    return Transducer(
        type(t.inner)(
            t.inner.alphabet,
            t.inner.n_states,
            t.inner.initial,
            t.inner.accepting,
            swapped,
        )
    )


def accepts_pair(t: Transducer, w1, w2) -> bool:
    """Whether (w1, w2) is in the relation; both words finite or both omega."""
    pair = pair_up_word if isinstance(w1, UltimatelyPeriodicWord) else pair_word
    return _member(t.inner, pair(t.base, w1, w2))


def compose(t1: Transducer, t2: Transducer) -> Transducer:
    """Relation composition: apply t1 first, then t2.

    Computed as the projection on the outer tracks of the middle-track join
    of the two pair languages: pi_{!=2}[(T1 x id) cap (id x T2)].
    """
    _require_same_base(t1, t2)
    size = t1.base.size
    left_index: dict[int, dict[int, list[int]]] = {}

    def pairs(row1, row2):
        by_left = left_index.get(id(row2))
        if by_left is None:
            by_left = {}
            for sym2 in sorted(row2):
                by_left.setdefault(sym2 // size, []).append(sym2)
            left_index[id(row2)] = by_left
        for sym1 in sorted(row1):
            x, y = divmod(sym1, size)
            for sym2 in by_left.get(y, ()):
                yield sym1, sym2, x * size + (sym2 % size)

    if t1.mode == OMEGA:
        prod = _product_omega(t1.inner, t2.inner, t1.inner.alphabet, pairs)
        return Transducer(to_weak_dba(prod))
    return Transducer(product_general(t1.inner, t2.inner, t1.inner.alphabet, pairs))


def image(t: Transducer, a: FiniteAutomaton) -> FiniteAutomaton:
    """Automaton for R(L(a)): pi_{!=1}[(A x universe) cap T]."""
    if a.alphabet != t.base:
        raise AlphabetMismatch("automaton is not over the transducer base alphabet")
    size = t.base.size
    left_index: dict[int, dict[int, list[int]]] = {}

    def pairs(rowa, rowt):
        by_left = left_index.get(id(rowt))
        if by_left is None:
            by_left = {}
            for sym in sorted(rowt):
                by_left.setdefault(sym // size, []).append(sym)
            left_index[id(rowt)] = by_left
        for sa in sorted(rowa):
            for sym in by_left.get(sa, ()):
                yield sa, sym, sym % size

    if t.mode == OMEGA:
        if not isinstance(a, OmegaAutomaton):
            raise ModeMismatch("omega transducer applied to a finite-word automaton")
        prod = _product_omega(a, t.inner, t.base, pairs)
        return to_weak_dba(prod)
    if isinstance(a, OmegaAutomaton):
        raise ModeMismatch("finite transducer applied to an omega automaton")
    return product_general(a, t.inner, t.base, pairs)


def preimage(t: Transducer, a: FiniteAutomaton) -> FiniteAutomaton:
    return image(inverse(t), a)


def union_t(t1: Transducer, t2: Transducer) -> Transducer:
    _require_same_base(t1, t2)
    return Transducer(_union(t1.inner, t2.inner))


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
    """Canonical minimal form of the relation language."""
    if t.mode == OMEGA:
        return Transducer(minimize_weak_dba(to_weak_dba(t.inner)))
    return Transducer(minimize(t.inner))


def relation_equal(t1: Transducer, t2: Transducer) -> bool:
    _require_same_base(t1, t2)
    if t1.mode == OMEGA:
        from .omega import omega_equivalent

        return omega_equivalent(t1.inner, t2.inner)
    return equivalent(t1.inner, t2.inner)


def relation_includes(t1: Transducer, t2: Transducer) -> bool:
    """L(t1) includes L(t2)."""
    _require_same_base(t1, t2)
    if t1.mode == OMEGA:
        big = to_weak_dba(t1.inner)
        return omega_is_empty(omega_intersect(t2.inner, complement_weak_dba(big)))
    return includes(t2.inner, t1.inner)


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
            if candidate is not None and _sound_closure_candidate(candidate, t, kind):
                return finish(canonicalize(candidate), True, steps - 1)
        frontier = canonicalize(compose(frontier, t))
        # the next power inside the union so far closes every later power too
        if relation_includes(current, frontier):
            return finish(current, True, steps)
        current = canonicalize(union_t(current, frontier))
        iterates.append(current)
    return finish(current, False, steps)


def _sound_closure_candidate(candidate: Transducer, t: Transducer, kind: str) -> bool:
    # the candidate stands for the transitive closure; the reflexive part is
    # added by the engine, so the check is the same for star and plus
    del kind
    if candidate.mode != t.mode or candidate.base != t.base:
        return False
    step = union_t(compose(candidate, t), t)
    return relation_includes(candidate, step)
