"""Structure-preserving transducers over a squared alphabet.

A transducer is an automaton over the two-track product of a base alphabet;
each transition consumes exactly one (input, output) letter pair, so finite
relations are length-preserving by construction.  Image, preimage and
composition are one reachable product, `_join`, that reads a relation on
either track, so no inverse is built.  A relation keeps, per track, an index
of its rows by the letter on that track, filled one state at a time on first
use, so every join of a check reads the same index.  Image and preimage take
an optional set `within` and then explore only the part of the result inside
it, so no join result is built only to be intersected away.  Products,
inclusion and canonical forms come from the set operations in `omega`, the
one place that tells finite words from omega-words, so a relation has the
same canonical form as any other set.  The iterative closure runs on the
fixpoint driver `omega._fixpoint` and detects convergence by canonical
equality of consecutive unions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .alphabet import Alphabet
from .automata import FiniteAutomaton, explore, relabel, union, universal
# unused; perfbench's test_install_rebinds_every_binding_and_restore_undoes_it pins the name
from .automata import minimize  # noqa: F401
from .errors import AlphabetMismatch, InputError, ModeMismatch
from .omega import (
    OmegaAutomaton,
    _canon,
    _fixpoint,
    _includes,
    _intersect,
    _member,
    _product,
    _zip_letters,
    omega_universal,
)

FINITE = "finite"
OMEGA = "omega"


@dataclass(frozen=True)
class Transducer:
    """Automaton over base x base, read as a binary relation on words.

    It keeps, per track, its rows indexed by the letter on that track (see
    `_by_letter`), filled as joins visit its states.
    """

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

    @cached_property
    def base(self) -> Alphabet:
        comps = self.inner.alphabet.components
        return Alphabet(comps[: len(comps) // 2])

    @cached_property
    def _tracks(self) -> tuple[dict, dict]:
        """Per track, `_by_letter`'s index: state -> its moves by letter."""
        return {}, {}

    def _by_letter(self, track: int, q: int) -> dict[int, list[tuple[int, tuple[int, ...]]]]:
        """The moves of state `q` keyed by their letter on `track` (0 input,
        1 output), each as (other letter, destinations), in ascending symbol
        order; built on the first call for the state and track, then kept."""
        index = self._tracks[track]
        by_letter = index.get(q)
        if by_letter is None:
            row = self.inner.adjacency.get(q, {})
            size = self.base.size
            by_letter = index[q] = {}
            for sym in sorted(row):
                letters = divmod(sym, size)
                by_letter.setdefault(letters[track], []).append((letters[1 - track], row[sym]))
        return by_letter


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


def accepts_pair(t: Transducer, w1, w2) -> bool:
    """Whether (w1, w2) is in the relation; both words finite or both omega."""
    return _member(t.inner, pair_word(t.base, w1, w2))


def _join(
    left: FiniteAutomaton, t: Transducer, track: int, within: FiniteAutomaton | None = None
) -> FiniteAutomaton:
    """Reachable product of `left`, a set or a relation, with relation `t`,
    cut to the set `within` if one is given.

    A `left` move's last letter meets the letter on `t`'s input (`track` 0)
    or output (1) track, read from `t`'s index of that track; the move made
    keeps `left`'s first letter, if any, and `t`'s other one.  Moves come in
    ascending `left`, then `t` symbol order, so `track` 1 numbers a product
    as `t`'s inverse would.  In finite mode `within` is a third part of the
    one product, read on the letter made, and a node accepts when all three
    parts do.  In omega mode the join is built whole and intersected with
    `within` afterwards (`omega._intersect`), as a Buchi product of three
    parts would need acceptance phases.
    """
    size = t.base.size
    by_letter_of = t._by_letter
    adj_l = left.adjacency
    adj_w = None if within is None or t.mode == OMEGA else within.adjacency

    def moves(node):
        made = []
        rowl = adj_l.get(node[0])
        if not rowl:
            return made
        by_letter = by_letter_of(track, node[1])
        if adj_w is None:
            roww = None
        else:
            roww = adj_w.get(node[2])
            if not roww:
                return made
        for syml in sorted(rowl):
            first, last = divmod(syml, size)
            entries = by_letter.get(last)
            if entries is None:
                continue
            dls = rowl[syml]
            first *= size
            for other, dts in entries:
                out = first + other
                if roww is None:
                    for dl in dls:
                        for dt in dts:
                            made.append((out, (dl, dt)))
                elif out in roww:
                    for dw in roww[out]:
                        for dl in dls:
                            for dt in dts:
                                made.append((out, (dl, dt, dw)))
        return made

    if adj_w is not None:
        fl, ft, fw = left.accepting, t.inner.accepting, within.accepting
        return explore(
            type(left),
            left.alphabet,
            sorted(itertools.product(left.initial, t.inner.initial, within.initial)),
            moves,
            lambda node: node[0] in fl and node[1] in ft and node[2] in fw,
        )
    joined = _product(left, t.inner, left.alphabet, moves)
    return joined if within is None else _intersect(within, joined)


def compose(t1: Transducer, t2: Transducer) -> Transducer:
    """Relation composition: apply t1 first, then t2.

    Computed as the projection on the outer tracks of the middle-track join
    of the two pair languages: pi_{!=2}[(T1 x id) cap (id x T2)].
    """
    _require_same_base(t1, t2)
    return Transducer(_join(t1.inner, t2, 0))


def _apply(
    t: Transducer, a: FiniteAutomaton, track: int, within: FiniteAutomaton | None
) -> FiniteAutomaton:
    for part in (a,) if within is None else (a, within):
        if part.alphabet != t.base:
            raise AlphabetMismatch("automaton is not over the transducer base alphabet")
        if t.mode == OMEGA and not isinstance(part, OmegaAutomaton):
            raise ModeMismatch("omega transducer applied to a finite-word automaton")
        if t.mode == FINITE and isinstance(part, OmegaAutomaton):
            raise ModeMismatch("finite transducer applied to an omega automaton")
    return _join(a, t, track, within)


def image(
    t: Transducer, a: FiniteAutomaton, within: FiniteAutomaton | None = None
) -> FiniteAutomaton:
    """Automaton for R(L(a)): pi_{!=1}[(A x universe) cap T], or for
    L(within) cap R(L(a)) when `within` is given.

    One `_join` on the input track, which reads `t`'s index of that track.
    With `within`, a finite-mode result is one product of the three parts;
    an omega-mode one is the whole join intersected with `within`.
    """
    return _apply(t, a, 0, within)


def preimage(
    t: Transducer, a: FiniteAutomaton, within: FiniteAutomaton | None = None
) -> FiniteAutomaton:
    """Automaton for R^-1(L(a)): pi_{!=2}[(universe x A) cap T], or for
    L(within) cap R^-1(L(a)) when `within` is given.

    As `image`, on the output track: no inverse of `t` is built.
    """
    return _apply(t, a, 1, within)


def union_t(t1: Transducer, t2: Transducer) -> Transducer:
    _require_same_base(t1, t2)
    return Transducer(union(t1.inner, t2.inner))


def canonicalize(t: Transducer) -> Transducer:
    """Canonical minimal form of the relation language (see `omega._canon`)."""
    return Transducer(_canon(t.inner))


def relation_includes(t1: Transducer, t2: Transducer) -> bool:
    """L(t1) includes L(t2)."""
    _require_same_base(t1, t2)
    return _includes(t2.inner, t1.inner)


def closure(t: Transducer, kind: str = "star", budget: int = 64) -> ClosureResult:
    """Iterative transitive closure with exact convergence detection.

    Unions U_k of the first k powers are canonically minimized each round
    (`omega._fixpoint`); convergence holds when one more power leaves the
    union unchanged; exceeding the budget is reported, never raised.
    """
    if kind not in ("star", "plus"):
        raise InputError("closure kind must be 'star' or 'plus'")
    plus, ends = _fixpoint(
        canonicalize(t).inner,
        lambda _, power: canonicalize(compose(Transducer(power), t)).inner,
        budget,
        grow=True,
    )
    rel = Transducer(plus)
    if kind == "star":
        rel = canonicalize(union_t(rel, identity(t.base, t.mode)))
    return ClosureResult(rel, *ends[None][:2])
