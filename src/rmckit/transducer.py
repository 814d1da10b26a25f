"""Structure-preserving transducers over a squared alphabet.

A transducer is an automaton over the two-track product of a base alphabet;
each transition consumes exactly one (input, output) letter pair, so finite
relations are length-preserving by construction.  Composition and image are
the classic product/projection constructions, fused into single reachable
products.  Products, inclusion and canonical forms come from the set
operations in `omega`, the one place that tells finite words from omega-words,
so a relation has the same canonical form as any other set.  The iterative
closure engine detects convergence by canonical equality of consecutive
unions and accepts accelerator candidates only after the one-step soundness
inclusion check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from .alphabet import Alphabet
from .automata import FiniteAutomaton, union
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
    return Transducer(replace(t.inner, transitions=swapped))


def accepts_pair(t: Transducer, w1, w2) -> bool:
    """Whether (w1, w2) is in the relation; both words finite or both omega."""
    return _member(t.inner, pair_word(t.base, w1, w2))


def _by_input_letter(size: int) -> Callable[[dict], dict[int, list[int]]]:
    """Index of a transducer adjacency row by input letter, memoized per row.

    The index maps an input letter to the row's pair symbols with that input,
    in ascending order; rows are keyed by identity, so it serves one product.
    """
    cache: dict[int, dict[int, list[int]]] = {}

    def index(row: dict) -> dict[int, list[int]]:
        by_left = cache.get(id(row))
        if by_left is None:
            by_left = {}
            for sym in sorted(row):
                by_left.setdefault(sym // size, []).append(sym)
            cache[id(row)] = by_left
        return by_left

    return index


def compose(t1: Transducer, t2: Transducer) -> Transducer:
    """Relation composition: apply t1 first, then t2.

    Computed as the projection on the outer tracks of the middle-track join
    of the two pair languages: pi_{!=2}[(T1 x id) cap (id x T2)].
    """
    _require_same_base(t1, t2)
    size = t1.base.size
    by_input = _by_input_letter(size)

    def pairs(row1, row2):
        by_left = by_input(row2)
        for sym1 in sorted(row1):
            x, y = divmod(sym1, size)
            for sym2 in by_left.get(y, ()):
                yield sym1, sym2, x * size + (sym2 % size)

    return Transducer(_product(t1.inner, t2.inner, t1.inner.alphabet, pairs))


def image(t: Transducer, a: FiniteAutomaton) -> FiniteAutomaton:
    """Automaton for R(L(a)): pi_{!=1}[(A x universe) cap T]."""
    if a.alphabet != t.base:
        raise AlphabetMismatch("automaton is not over the transducer base alphabet")
    if t.mode == OMEGA and not isinstance(a, OmegaAutomaton):
        raise ModeMismatch("omega transducer applied to a finite-word automaton")
    if t.mode == FINITE and isinstance(a, OmegaAutomaton):
        raise ModeMismatch("finite transducer applied to an omega automaton")
    size = t.base.size
    by_input = _by_input_letter(size)

    def pairs(rowa, rowt):
        by_left = by_input(rowt)
        for sa in sorted(rowa):
            for sym in by_left.get(sa, ()):
                yield sa, sym, sym % size

    return _product(a, t.inner, t.base, pairs)


def preimage(t: Transducer, a: FiniteAutomaton) -> FiniteAutomaton:
    return image(inverse(t), a)


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
