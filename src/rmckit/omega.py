"""Omega-word automaton algebra.

Buchi acceptance, weak / inherently-weak classification, complementation and
canonical minimization of deterministic weak automata, breakpoint
determinization for (inherently) weak automata, Boolean operations and
emptiness with lasso witnesses.

Minimization is derived from finite-word minimization: after a parity
colouring of the SCCs (even on accepting cycles, non-increasing along runs),
omega-equivalence of the states of a weak DBA is finite-word equivalence
with the even-coloured states accepting (Loding, "Efficient minimization of
deterministic weak omega-automata", IPL 79(3), 2001), so `automata.minimize`
computes the classes.

General nondeterministic Buchi complementation is deliberately not provided;
pipelines that would need it raise NonWeakResult / NotWeakDeterministic.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Sequence

from .alphabet import Alphabet
from .automata import (
    FiniteAutomaton,
    _reachable_states,
    _same_symbol,
    _shortest_words,
    _sync_symbols,
    accepts,
    complement,
    complete,
    explore,
    includes,
    intersect,
    is_empty,
    minimize,
    pick_word,
    product_general,
    project,
    strongly_connected_components,
    union,
    word_automaton,
)
from .errors import InputError, NonWeakResult, NotWeak, NotWeakDeterministic


@dataclass(frozen=True)
class UltimatelyPeriodicWord:
    """Finite test vector prefix . period^omega for an omega-language."""

    prefix: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self):
        if not self.period:
            raise InputError("period must be nonempty")

    def letter(self, i: int) -> int:
        if i < len(self.prefix):
            return self.prefix[i]
        return self.period[(i - len(self.prefix)) % len(self.period)]


@dataclass(frozen=True)
class OmegaAutomaton(FiniteAutomaton):
    """Buchi automaton; flags below are computed from the graph, never trusted."""

    @cached_property
    def scc_of(self) -> dict[int, int]:
        comps = self.sccs
        return {q: i for i, comp in enumerate(comps) for q in comp}

    @cached_property
    def sccs(self) -> list[list[int]]:
        return strongly_connected_components(
            self.n_states, lambda q: self.successors(q)
        )

    def _scc_has_cycle(self, comp: list[int]) -> bool:
        if len(comp) > 1:
            return True
        q = comp[0]
        return q in set(self.successors(q))

    @cached_property
    def _reachable(self) -> set[int]:
        return _reachable_states(self)

    @cached_property
    def is_weak(self) -> bool:
        for comp in self.sccs:
            if not any(q in self._reachable for q in comp):
                continue
            marks = {q in self.accepting for q in comp}
            if len(marks) > 1:
                return False
        return True

    @cached_property
    def is_inherently_weak(self) -> bool:
        for comp in self.sccs:
            if not any(q in self._reachable for q in comp):
                continue
            if self._accepting_cycle_in(comp) and self._rejecting_cycle_in(comp):
                return False
        return True

    def _accepting_cycle_in(self, comp: list[int]) -> bool:
        if not self._scc_has_cycle(comp):
            return False
        return any(q in self.accepting for q in comp)

    def _rejecting_cycle_in(self, comp: list[int]) -> bool:
        members = [q for q in comp if q not in self.accepting]
        member_set = set(members)
        if not members:
            return False
        sub = strongly_connected_components(
            self.n_states,
            lambda q: (d for d in self.successors(q) if d in member_set and q in member_set),
        )
        for c in sub:
            c2 = [q for q in c if q in member_set]
            if len(c2) > 1:
                return True
            if c2 and c2[0] in set(self.successors(c2[0])) and c2[0] in member_set:
                return True
        return False


def classify(a: OmegaAutomaton) -> dict[str, bool]:
    """Recomputed weak / inherently weak / deterministic flags."""
    return {
        "weak": a.is_weak,
        "inherently_weak": a.is_inherently_weak,
        "deterministic": a.is_deterministic,
    }


def normalize_weak(a: OmegaAutomaton) -> OmegaAutomaton:
    """Homogeneous per-SCC acceptance for an inherently weak automaton.

    A state becomes accepting iff its SCC has a cycle and that SCC's cycles
    are accepting; languages are preserved because any state visited
    infinitely often lies on a cycle.
    """
    if not a.is_inherently_weak:
        raise NotWeak("automaton is not inherently weak")
    accepting = set()
    for comp in a.sccs:
        if a._accepting_cycle_in(comp):
            accepting.update(comp)
    return replace(a, accepting=frozenset(accepting))


# ---------------------------------------------------------------------------
# acceptance / emptiness


def accepts_up_word(a: OmegaAutomaton, w: UltimatelyPeriodicWord) -> bool:
    """True iff some run visits acceptance infinitely often on prefix.period^w."""
    size = a.alphabet.size
    for sym in w.prefix + w.period:
        if not (0 <= sym < size):
            raise InputError(f"symbol {sym} not in alphabet")
    p, k = len(w.prefix), len(w.period)
    total = p + k

    def succ(node: int) -> Iterable[int]:
        q, i = divmod(node, total)
        nxt = i + 1 if i + 1 < total else p
        for dst in a.adjacency.get(q, {}).get(w.letter(i), ()):
            yield dst * total + nxt

    start = [q * total + 0 for q in a.initial]
    seen = set(start)
    stack = list(start)
    while stack:
        n = stack.pop()
        for m in succ(n):
            if m not in seen:
                seen.add(m)
                stack.append(m)
    if not seen:
        return False
    nodes = sorted(seen)
    ids = {n: i for i, n in enumerate(nodes)}
    comps = strongly_connected_components(
        len(nodes), lambda i: (ids[m] for m in succ(nodes[i]) if m in ids)
    )
    for comp in comps:
        members = [nodes[i] for i in comp]
        has_cycle = len(comp) > 1 or any(
            ids.get(m) == comp[0] for m in succ(nodes[comp[0]])
        )
        if has_cycle and any((n // total) in a.accepting for n in members):
            return True
    return False


def _cycle_word(a: OmegaAutomaton, anchor: int, comp: set[int]) -> tuple[int, ...] | None:
    """Shortest (then lexicographically least) nonempty anchor -> anchor word in one SCC.

    A shortest cycle is a shortest word to some state with a move back to
    the anchor, followed by that move.
    """
    inside = frozenset(t for t in a.transitions if t[0] in comp and t[2] in comp)
    words = _shortest_words(replace(a, initial=frozenset({anchor}), transitions=inside))
    cycles = [words[q] + (sym,) for q, sym, dst in inside if dst == anchor]
    return min(cycles, key=lambda w: (len(w), w), default=None)


def buchi_is_empty(
    a: OmegaAutomaton,
) -> tuple[bool, UltimatelyPeriodicWord | None]:
    """Emptiness plus a lasso witness when nonempty."""
    paths = _shortest_words(a)  # keyed by the reachable states
    candidates = [
        (len(paths[q]), paths[q], q)
        for comp in a.sccs
        if a._scc_has_cycle(comp)
        for q in comp
        if q in paths and q in a.accepting
    ]
    if not candidates:
        return True, None
    _, prefix, q = min(candidates)
    comp = set(a.sccs[a.scc_of[q]])
    period = _cycle_word(a, q, comp)
    if period is None:  # lone accepting state with a self-loop was required
        return True, None
    return False, UltimatelyPeriodicWord(prefix, period)


# ---------------------------------------------------------------------------
# weak DBA complement / determinization / minimization


def _require_weak_dba(a: OmegaAutomaton, op: str) -> OmegaAutomaton:
    if not a.is_deterministic:
        raise NotWeakDeterministic(f"{op} needs a deterministic automaton")
    if not a.is_weak:
        raise NotWeakDeterministic(f"{op} needs a weak automaton")
    return complete(a)


def complement_weak_dba(a: OmegaAutomaton) -> OmegaAutomaton:
    """Complement by inverting accepting and non-accepting states."""
    d = _require_weak_dba(a, "complement")
    return replace(d, accepting=frozenset(range(d.n_states)) - d.accepting)


def determinize_weak(a: OmegaAutomaton) -> OmegaAutomaton:
    """Breakpoint (two-set) determinization for (inherently) weak automata.

    Produces a deterministic weak automaton for the same language when one
    exists; raises NonWeakResult when the deterministic form is not
    inherently weak (the language has no weak deterministic representation).
    """
    if not a.is_inherently_weak:
        raise NotWeak("determinize_weak needs an (inherently) weak automaton")
    aw = normalize_weak(a)
    beta = aw.accepting
    symbols = list(a.alphabet.symbols())

    def moves(node):
        big, owed = node
        source = owed if owed else big & beta
        for sym in symbols:
            yield sym, (aw.step(big, sym), aw.step(source, sym) & beta)

    start = (frozenset(aw.initial), frozenset(aw.initial) & beta)
    # resets (no owed state) are the accepting nodes
    det = explore(OmegaAutomaton, a.alphabet, [start], moves, lambda node: not node[1])
    # det accepts the complement language (reset hit infinitely often);
    # flipping its weak normal form yields the original language.
    if not det.is_inherently_weak:
        raise NonWeakResult(
            "determinization left the weak class; language has no weak DBA"
        )
    flipped = normalize_weak(det)
    flipped = replace(
        flipped, accepting=frozenset(range(flipped.n_states)) - flipped.accepting
    )
    return canonical_renumber(flipped)


def canonical_renumber(a: OmegaAutomaton) -> OmegaAutomaton:
    """BFS renumbering (symbol order tie-break) of the reachable part."""
    adjacency = a.adjacency

    def moves(q):
        row = adjacency.get(q, {})
        for sym in sorted(row):
            for dst in row[sym]:
                yield sym, dst

    return explore(
        OmegaAutomaton, a.alphabet, sorted(a.initial), moves, lambda q: q in a.accepting
    )


def minimize_weak_dba(a: OmegaAutomaton) -> OmegaAutomaton:
    """Canonical minimal weak DBA; equal omega-languages give identical values.

    Parity colouring of the SCCs (Loding, IPL 79(3), 2001): a component
    takes the largest colour among the components it reaches (0 if none),
    plus one if it is cyclic and that colour's parity disagrees with its
    acceptance (even = accepting).  Two states then accept the same
    omega-words iff they reach even-coloured states on the same finite
    words, so `minimize` with the even-coloured states accepting yields the
    classes.  Cyclic classes accept iff even-coloured; transient classes
    are rejecting by convention.
    """
    d = _require_weak_dba(a, "minimize")
    colour = [0] * d.n_states
    for comp in d.sccs:  # Tarjan lists every component after those it reaches
        # the component's own states still have colour 0, the neutral value
        c = max((colour[t] for q in comp for t in d.successors(q)), default=0)
        if d._scc_has_cycle(comp) and (c % 2 == 0) != (comp[0] in d.accepting):
            c += 1
        for q in comp:
            colour[q] = c
    even = frozenset(q for q in range(d.n_states) if colour[q] % 2 == 0)
    m = minimize(FiniteAutomaton(d.alphabet, d.n_states, d.initial, even, d.transitions))
    if not m.accepting:
        return replace(omega_universal(d.alphabet), accepting=frozenset())
    quotient = OmegaAutomaton(m.alphabet, m.n_states, m.initial, m.accepting, m.transitions)
    return canonical_renumber(normalize_weak(complete(quotient)))


# ---------------------------------------------------------------------------
# Boolean operations and products


omega_union = union


def _product_omega(
    a: OmegaAutomaton,
    b: OmegaAutomaton,
    alphabet: Alphabet,
    symbol_pairs,
) -> OmegaAutomaton:
    """Buchi product; plain when both weak, two-copy otherwise.

    `symbol_pairs(row_a, row_b)` yields (sym_a, sym_b, sym_out) move combos.
    """
    if a.is_inherently_weak and b.is_inherently_weak:
        return product_general(normalize_weak(a), normalize_weak(b), alphabet, symbol_pairs)

    # phase 0 waits for an accepting state of `a`, phase 1 for one of `b`
    def moves(node):
        qa, qb, phase = node
        if phase == 0:
            nphase = 1 if qa in a.accepting else 0
        else:
            nphase = 0 if qb in b.accepting else 1
        rowa = a.adjacency.get(qa, {})
        rowb = b.adjacency.get(qb, {})
        for sa, sb, out in symbol_pairs(rowa, rowb):
            for da in rowa[sa]:
                for db in rowb[sb]:
                    yield out, (da, db, nphase)

    return explore(
        OmegaAutomaton,
        alphabet,
        [(qa, qb, 0) for qa, qb in sorted(itertools.product(a.initial, b.initial))],
        moves,
        lambda node: node[2] == 1 and node[1] in b.accepting,
    )


def omega_intersect(a: OmegaAutomaton, b: OmegaAutomaton) -> OmegaAutomaton:
    a.alphabet.require_same(b.alphabet)
    return _product_omega(a, b, a.alphabet, _same_symbol)


def omega_sync_product(automata: Sequence[OmegaAutomaton]) -> OmegaAutomaton:
    """Synchronous product over the tuple alphabet (binary folds)."""
    if len(automata) < 2:
        raise InputError("synchronous product needs at least two automata")
    result = automata[0]
    for nxt in automata[1:]:
        alphabet = Alphabet.product(result.alphabet, nxt.alphabet)
        result = _product_omega(result, nxt, alphabet, _sync_symbols(nxt.alphabet.size))
    return result


# projection keeps the automaton class, and with it Buchi acceptance
omega_project = project
omega_complement = complement_weak_dba


def omega_boolean(
    op: str, a: OmegaAutomaton, b: OmegaAutomaton | None = None
) -> OmegaAutomaton:
    if op == "complement":
        if b is not None:
            raise InputError("complement is unary")
        return omega_complement(a)
    if b is None:
        raise InputError(f"{op} needs two automata")
    if op == "union":
        return omega_union(a, b)
    if op == "intersect":
        return omega_intersect(a, b)
    if op == "difference":
        return omega_intersect(a, omega_complement(b))
    raise InputError(f"unknown Boolean operation {op!r}")


def omega_is_empty(a: OmegaAutomaton) -> bool:
    empty, _ = buchi_is_empty(a)
    return empty


def to_weak_dba(a: OmegaAutomaton) -> OmegaAutomaton:
    """Deterministic weak complete form of a weak-representable automaton."""
    if a.is_deterministic and a.is_weak:
        return complete(a)
    return determinize_weak(a)


def omega_equivalent(a: OmegaAutomaton, b: OmegaAutomaton) -> bool:
    """Exact omega-language equality via weak-DBA complementation.

    Raises NonWeakResult when either side is not weak-representable.
    """
    a.alphabet.require_same(b.alphabet)
    da, db = to_weak_dba(a), to_weak_dba(b)
    return _includes(da, db) and _includes(db, da)


def sample_lassos(
    alphabet: Alphabet,
    count: int,
    max_prefix: int = 5,
    max_period: int = 5,
    seed: int = 0,
) -> list[UltimatelyPeriodicWord]:
    """Deterministic sample of ultimately periodic words."""
    rng = random.Random(seed)
    size = alphabet.size
    out = []
    for _ in range(count):
        p = rng.randrange(0, max_prefix + 1)
        k = rng.randrange(1, max_period + 1)
        out.append(
            UltimatelyPeriodicWord(
                tuple(rng.randrange(size) for _ in range(p)),
                tuple(rng.randrange(size) for _ in range(k)),
            )
        )
    return out


def up_word_automaton(
    alphabet: Alphabet, w: UltimatelyPeriodicWord
) -> OmegaAutomaton:
    """Weak deterministic automaton for the single word prefix.period^w."""
    p, k = len(w.prefix), len(w.period)
    transitions = set()
    for i, sym in enumerate(w.prefix):
        transitions.add((i, sym, i + 1))
    for j, sym in enumerate(w.period):
        nxt = p + ((j + 1) % k)
        transitions.add((p + j, sym, nxt))
    return OmegaAutomaton(
        alphabet,
        p + k,
        frozenset({0}),
        frozenset(range(p, p + k)),
        frozenset(transitions),
    )


def omega_universal(alphabet: Alphabet) -> OmegaAutomaton:
    return OmegaAutomaton(
        alphabet,
        1,
        frozenset({0}),
        frozenset({0}),
        frozenset((0, sym, 0) for sym in alphabet.symbols()),
    )


def omega_empty_automaton(alphabet: Alphabet) -> OmegaAutomaton:
    return OmegaAutomaton(alphabet, 1, frozenset({0}), frozenset(), frozenset())


# ---------------------------------------------------------------------------
# set operations for both encodings
#
# A set of states is a finite-word automaton in finite mode and a weak Buchi
# automaton in omega mode; its words are symbol tuples or ultimately periodic
# words.  These operations are the one place that tells the two apart, for
# sets and relations alike: `_product` is the reachable product behind compose
# and image, `_includes` decides inclusion and `_canon` gives the one canonical
# form.  Union needs no dispatch, as `automata.union` keeps the class of its
# first argument.


def _canon(a: FiniteAutomaton) -> FiniteAutomaton:
    """Canonical form: the minimal trim DFA, or the minimal complete weak DBA."""
    if isinstance(a, OmegaAutomaton):
        return minimize_weak_dba(to_weak_dba(a))
    return minimize(a, completion=False)


def _intersect(a: FiniteAutomaton, b: FiniteAutomaton) -> FiniteAutomaton:
    if isinstance(a, OmegaAutomaton):
        return omega_intersect(a, b)
    return intersect(a, b)


def _product(a: FiniteAutomaton, b: FiniteAutomaton, alphabet: Alphabet, pairs):
    """Reachable product of `a` and `b` over `alphabet`; see `product_general`."""
    if isinstance(a, OmegaAutomaton):
        return to_weak_dba(_product_omega(a, b, alphabet, pairs))
    return product_general(a, b, alphabet, pairs)


def _includes(a: FiniteAutomaton, b: FiniteAutomaton) -> bool:
    """L(a) included in L(b)."""
    if isinstance(a, OmegaAutomaton):
        return omega_is_empty(omega_intersect(a, _complement(b)))
    return includes(a, b)


def _is_empty(a: FiniteAutomaton) -> bool:
    if isinstance(a, OmegaAutomaton):
        return omega_is_empty(a)
    return is_empty(a)


def _pick(a: FiniteAutomaton):
    """Some word of the language, or None when it is empty."""
    if isinstance(a, OmegaAutomaton):
        return buchi_is_empty(a)[1]
    return pick_word(a)


def _complement(a: FiniteAutomaton) -> FiniteAutomaton:
    if isinstance(a, OmegaAutomaton):
        return complement_weak_dba(to_weak_dba(a))
    return complement(a)


def _member(a: FiniteAutomaton, w) -> bool:
    """Whether `a` accepts the word, read as an omega-word if it is one."""
    if isinstance(w, UltimatelyPeriodicWord):
        return accepts_up_word(a, w)
    return accepts(a, w)


def _singleton(alphabet: Alphabet, w) -> FiniteAutomaton:
    if isinstance(w, UltimatelyPeriodicWord):
        return up_word_automaton(alphabet, w)
    return word_automaton(alphabet, w)


def _segments(w) -> tuple[tuple[int, ...], ...]:
    """The letters of a word: (word,) if finite, (prefix, period) if not."""
    if isinstance(w, UltimatelyPeriodicWord):
        return w.prefix, w.period
    return (tuple(w),)


def _map_letters(w, f):
    """The word of the same kind with every letter s replaced by f(s)."""
    if isinstance(w, UltimatelyPeriodicWord):
        return UltimatelyPeriodicWord(tuple(map(f, w.prefix)), tuple(map(f, w.period)))
    return tuple(map(f, w))


def _zip_letters(w1, w2, f):
    """The word, of the kind of w1 and w2, whose i-th letter is f of their i-th letters."""
    if isinstance(w1, UltimatelyPeriodicWord):
        p = max(len(w1.prefix), len(w2.prefix))
        k = math.lcm(len(w1.period), len(w2.period))
        letters = tuple(f(w1.letter(i), w2.letter(i)) for i in range(p + k))
        return UltimatelyPeriodicWord(letters[:p], letters[p:])
    if len(w1) != len(w2):
        raise InputError("pair words must have equal length")
    return tuple(map(f, w1, w2))
