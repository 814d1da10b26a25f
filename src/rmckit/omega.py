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

Lasso membership and emptiness ask one question, of the runs on the lasso
(built by `automata.explore`) or of the automaton itself: does a reachable
SCC have a cycle through acceptance?

General nondeterministic Buchi complementation is deliberately not provided;
pipelines that would need it raise NonWeakResult / NotWeakDeterministic.

Every fixpoint of the package runs on one budgeted driver, `_fixpoint`,
kept here with the set operations it iterates, below both `transducer`
(the closure) and `system` (reachability): it steps, joins and tests
convergence per verdict key (`_Lengths`), for finite and omega sets alike.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import cached_property

from .alphabet import Alphabet
from .automata import (
    FiniteAutomaton,
    _pair_product,
    _paired_moves,
    _reachable_states,
    _reflag,
    _same_symbol,
    _shortest_words,
    accepts,
    complete,
    cut_lengths,
    difference,
    explore,
    intersect,
    is_empty,
    minimize,
    pick_word,
    strongly_connected_components,
    union,
    universal,
    word_automaton,
)
from .errors import InputError, ModeMismatch, NonWeakResult, NotWeak, NotWeakDeterministic


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
            if self._accepting_cycle_in(comp) and any(q in self._on_rejecting_cycle for q in comp):
                return False
        return True

    def _accepting_cycle_in(self, comp: list[int]) -> bool:
        if not self._scc_has_cycle(comp):
            return False
        return any(q in self.accepting for q in comp)

    @cached_property
    def _on_rejecting_cycle(self) -> set[int]:
        """The states on a cycle of rejecting states, from one SCC pass over
        the subgraph the rejecting states induce."""

        def inside(q):
            if q in self.accepting:
                return []
            return [d for d in self.successors(q) if d not in self.accepting]

        marked = set()
        for comp in strongly_connected_components(self.n_states, inside):
            if len(comp) > 1 or comp[0] in inside(comp[0]):
                marked.update(comp)
        return marked


def _require_buchi(op: str, *automata: FiniteAutomaton) -> None:
    """Refuse a finite-word automaton handed to an omega operation."""
    if not all(isinstance(a, OmegaAutomaton) for a in automata):
        raise ModeMismatch(f"{op} needs a Buchi automaton")


def classify(a: OmegaAutomaton) -> dict[str, bool]:
    """Recomputed weak / inherently weak / deterministic flags."""
    _require_buchi("classify", a)
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
    return _reflag(a, frozenset(accepting))


# ---------------------------------------------------------------------------
# acceptance / emptiness


def accepts_up_word(a: OmegaAutomaton, w: UltimatelyPeriodicWord) -> bool:
    """True iff some run visits acceptance infinitely often on prefix.period^w.

    A node of the runs is (state, position); after the last letter the
    position goes back to the start of the period."""
    _require_buchi("accepts_up_word", a)
    letters = w.prefix + w.period
    size = a.alphabet.size
    for sym in letters:
        if not (0 <= sym < size):
            raise InputError(f"symbol {sym} not in alphabet")
    p, last, rows = len(w.prefix), len(letters) - 1, a.adjacency

    def moves(node):
        q, i = node
        sym, nxt = letters[i], (i + 1 if i < last else p)
        return [(sym, (d, nxt)) for d in rows.get(q, {}).get(sym, ())]

    starts = [(q, 0) for q in sorted(a.initial)]
    runs = explore(OmegaAutomaton, a.alphabet, starts, moves, lambda node: node[0] in a.accepting)
    return any(runs._accepting_cycle_in(comp) for comp in runs.sccs)


def _cycle_word(a: OmegaAutomaton, anchor: int, comp: set[int]) -> tuple[int, ...] | None:
    """Shortest (then lexicographically least) nonempty anchor -> anchor word in one SCC.

    A shortest cycle is a shortest word to some state with a move back to
    the anchor, followed by that move.
    """
    words = _shortest_words(a, [anchor], comp)  # comp is one SCC: all of it
    cycles = [
        words[q] + (sym,)
        for q in words
        for sym, dsts in a.adjacency.get(q, {}).items()
        if anchor in dsts
    ]
    return min(cycles, key=lambda w: (len(w), w), default=None)


def buchi_is_empty(
    a: OmegaAutomaton,
) -> tuple[bool, UltimatelyPeriodicWord | None]:
    """Emptiness plus a lasso witness when nonempty."""
    _require_buchi("buchi_is_empty", a)
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
    period = _cycle_word(a, q, comp)  # not None: q lies on a cycle of comp
    return False, UltimatelyPeriodicWord(prefix, period)


# ---------------------------------------------------------------------------
# weak DBA complement / determinization / minimization


def _require_weak_dba(a: OmegaAutomaton, op: str) -> OmegaAutomaton:
    _require_buchi(op, a)
    if not a.is_deterministic:
        raise NotWeakDeterministic(f"{op} needs a deterministic automaton")
    if not a.is_weak:
        raise NotWeakDeterministic(f"{op} needs a weak automaton")
    return complete(a)


def complement_weak_dba(a: OmegaAutomaton) -> OmegaAutomaton:
    """Complement by inverting accepting and non-accepting states."""
    d = _require_weak_dba(a, "complement")
    return _reflag(d, frozenset(range(d.n_states)) - d.accepting)


def determinize_weak(a: OmegaAutomaton) -> OmegaAutomaton:
    """Breakpoint (two-set) determinization for (inherently) weak automata.

    Produces a deterministic weak automaton for the same language when one
    exists; raises NonWeakResult when the deterministic form is not
    inherently weak (the language has no weak deterministic representation).
    """
    _require_buchi("determinize_weak", a)
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
    return _reflag(flipped, frozenset(range(flipped.n_states)) - flipped.accepting)


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
    m = minimize(_reflag(d, even))
    if not m.accepting:
        return _reflag(omega_universal(d.alphabet), frozenset())
    quotient = _reflag(m, m.accepting, OmegaAutomaton)
    return canonical_renumber(normalize_weak(complete(quotient)))


# ---------------------------------------------------------------------------
# Boolean operations and products


def _product_omega(
    a: OmegaAutomaton,
    b: OmegaAutomaton,
    alphabet: Alphabet,
    moves,
) -> OmegaAutomaton:
    """Buchi product; plain when both weak, two-copy otherwise.

    `moves(node)` yields the (sym_out, (qa', qb')) moves of the product node
    (qa, qb), as for `automata._pair_product`.
    """
    if a.is_inherently_weak and b.is_inherently_weak:
        return _pair_product(normalize_weak(a), normalize_weak(b), alphabet, moves)

    # phase 0 waits for an accepting state of `a`, phase 1 for one of `b`
    def phased(node):
        qa, qb, phase = node
        if phase == 0:
            nphase = 1 if qa in a.accepting else 0
        else:
            nphase = 0 if qb in b.accepting else 1
        for out, (da, db) in moves((qa, qb)):
            yield out, (da, db, nphase)

    return explore(
        OmegaAutomaton,
        alphabet,
        [(qa, qb, 0) for qa, qb in sorted(itertools.product(a.initial, b.initial))],
        phased,
        lambda node: node[2] == 1 and node[1] in b.accepting,
    )


def omega_intersect(a: OmegaAutomaton, b: OmegaAutomaton) -> OmegaAutomaton:
    _require_buchi("omega_intersect", a, b)
    a.alphabet.require_same(b.alphabet)
    return _product_omega(a, b, a.alphabet, _paired_moves(a, b, _same_symbol))


def omega_is_empty(a: OmegaAutomaton) -> bool:
    """True iff no reachable SCC has a cycle through acceptance."""
    return not any(a._accepting_cycle_in(comp) for comp in a.sccs if comp[0] in a._reachable)


def to_weak_dba(a: OmegaAutomaton) -> OmegaAutomaton:
    """Deterministic weak complete form of a weak-representable automaton."""
    if a.is_deterministic and a.is_weak:
        return complete(a)
    return determinize_weak(a)


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
    p, letters = len(w.prefix), w.prefix + w.period
    last = len(letters) - 1

    def moves(i):
        return [(letters[i], i + 1 if i < last else p)]

    return explore(OmegaAutomaton, alphabet, [0], moves, lambda i: i >= p)


def omega_universal(alphabet: Alphabet) -> OmegaAutomaton:
    return _reflag(universal(alphabet), frozenset({0}), OmegaAutomaton)


# ---------------------------------------------------------------------------
# set operations for both encodings
#
# A set of states is a finite-word automaton in finite mode and a weak Buchi
# automaton in omega mode; its words are symbol tuples or ultimately periodic
# words.  These operations are the one place that tells the two apart, for
# sets and relations alike: `_product` is the reachable product behind compose
# and image, `_difference` removes one language from another without
# completing anything in finite mode, `_includes` decides inclusion and
# `_canon` gives the one canonical form.  Union needs no dispatch, as
# `automata.union` keeps the class of its first argument.


def _canon(a: FiniteAutomaton) -> FiniteAutomaton:
    """Canonical form: the minimal trim DFA, or the minimal complete weak DBA."""
    if isinstance(a, OmegaAutomaton):
        return minimize_weak_dba(to_weak_dba(a))
    return minimize(a)


def _intersect(a: FiniteAutomaton, b: FiniteAutomaton) -> FiniteAutomaton:
    if isinstance(a, OmegaAutomaton):
        return omega_intersect(a, b)
    return intersect(a, b)


def _product(a: FiniteAutomaton, b: FiniteAutomaton, alphabet: Alphabet, moves):
    """Reachable product of `a` and `b` over `alphabet` whose node (qa, qb)
    moves as `moves(node)` says; see `automata._pair_product`.  In omega
    mode, the Buchi product of `_product_omega` as a weak DBA."""
    if isinstance(a, OmegaAutomaton):
        return to_weak_dba(_product_omega(a, b, alphabet, moves))
    return _pair_product(a, b, alphabet, moves)


def _includes(a: FiniteAutomaton, b: FiniteAutomaton) -> bool:
    """L(a) included in L(b)."""
    return _is_empty(_difference(a, b))


def _is_empty(a: FiniteAutomaton) -> bool:
    if isinstance(a, OmegaAutomaton):
        return omega_is_empty(a)
    return is_empty(a)


def _pick(a: FiniteAutomaton):
    """Some word of the language, or None when it is empty."""
    if isinstance(a, OmegaAutomaton):
        return buchi_is_empty(a)[1]
    return pick_word(a)


def _difference(a: FiniteAutomaton, b: FiniteAutomaton) -> FiniteAutomaton:
    """L(a) minus L(b).  In finite mode one product of `a` with `b`'s
    subsets (`automata.difference`), which completes nothing; in omega
    mode `a` intersected with the complement of `b`."""
    if isinstance(a, OmegaAutomaton):
        return omega_intersect(a, complement_weak_dba(to_weak_dba(b)))
    return difference(a, b)


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
    if isinstance(w1, UltimatelyPeriodicWord) != isinstance(w2, UltimatelyPeriodicWord):
        raise InputError("pair words must be both finite or both ultimately periodic")
    if isinstance(w1, UltimatelyPeriodicWord):
        p = max(len(w1.prefix), len(w2.prefix))
        k = math.lcm(len(w1.period), len(w2.period))
        letters = tuple(f(w1.letter(i), w2.letter(i)) for i in range(p + k))
        return UltimatelyPeriodicWord(letters[:p], letters[p:])
    if len(w1) != len(w2):
        raise InputError("pair words must have equal length")
    return tuple(map(f, w1, w2))


# ---------------------------------------------------------------------------
# the budgeted fixpoint driver: every fixpoint over sets and relations


class _Lengths:
    """The verdict keys of one `_fixpoint` run.

    A run over a whole system, or over a relation, has the one key None.  A
    run over a system whose initial set was cut to a set of lengths has one
    key per length, and each length's part of an iterate is that length's
    own run.  A run keeps the keys it has yet to decide in a `live` set.  A
    length changes between two iterates iff it is a length of the words in
    one and not in the other, and once a fixpoint's length stops changing it
    never changes again.  With one key live, canonical equality is that
    test, so no change set is built.  The iterates a run still steps are cut
    to the live lengths whenever a key is decided: that drops the lengths a
    stopped reach run would go on growing, so that the test stays exact,
    and keeps the iterates small.
    """

    def __init__(self, lengths: range | None = None):
        self.keys = (None,) if lengths is None else tuple(lengths)
        self.hi = max(self.keys) if lengths is not None else 0

    def of(self, a: FiniteAutomaton, live: set) -> set:
        """The keys of `live` with a word in `a`, which holds no word of a
        decided length."""
        if len(live) == 1:
            return set() if _is_empty(a) else set(live)
        return _lengths_of(a, self.hi) & live

    def moved(self, a: FiniteAutomaton, b: FiniteAutomaton, live: set) -> set:
        """The keys of `live` on which `a` has words that `b`, within `a`
        and canonical like it, has not."""
        if len(live) == 1:
            return set() if a == b else set(live)
        return _lengths_of(a, self.hi, b) & live

    def decide(self, done: set, live: set, a: FiniteAutomaton) -> FiniteAutomaton:
        """Drop `done` from `live`, and return `a` cut to the keys left."""
        live -= done
        if not done or not live:
            return a
        return _canon(cut_lengths(a, live))

    def part(self, a: FiniteAutomaton, key) -> FiniteAutomaton:
        """The words of `a` of length `key`; all of them in a one-key run."""
        if len(self.keys) == 1:
            return a
        return cut_lengths(a, (key,))


def _lengths_of(a: FiniteAutomaton, hi: int, b: FiniteAutomaton | None = None) -> set[int]:
    """The lengths up to `hi` of the words of `a` that `b`, a DFA, lacks (of
    all words of `a` without `b`), read by a frontier walk of the product;
    with `b` the iterate before `a`, this is a run's per-length change set."""
    lengths = set()
    b_rows = {} if b is None else b.adjacency
    b_accepting = frozenset() if b is None else b.accepting
    frontier = {(q, None if b is None else next(iter(b.initial))) for q in a.initial}
    for n in range(hi + 1):
        if not frontier:
            break
        if any(qa in a.accepting and qb not in b_accepting for qa, qb in frontier):
            lengths.add(n)
        frontier = {
            (da, b_rows.get(qb, {}).get(sym, (None,))[0])
            for qa, qb in frontier
            for sym, dsts in a.adjacency.get(qa, {}).items()
            for da in dsts
        }
    return lengths


def _fixpoint(start, step, budget: int, keys=None, live=None, grow=False, cut=True, stop=None):
    """Iterate from `start` within `budget` steps; return the last iterate
    and, per key of `keys` (`_Lengths`, one key by default) that was live,
    whether it converged, at which step, and an iterate holding its words.

    Step n makes y = step(x, y) from the iterate x and the step's previous
    result y (`start` at first).  A growing run's next iterate is the
    canonical union of x and y; any other run's is y, and its iterates
    shrink.  A key converges at the first step that leaves its words
    unchanged.  A key stops, unconverged, at the first y (`start`
    included) where `stop(y)` has a word of its length.  Decided keys leave
    `live`, the caller's set if one is given, so that its step can read
    it (all keys otherwise), and with `cut` y is cut to the keys left; a
    run whose step reads only x passes `cut=False`.  Keys still live after
    `budget` steps end unconverged there.
    """
    if budget < 1:
        raise InputError("budget must be at least 1")
    keys = keys or _Lengths()
    live = set(keys.keys) if live is None else live
    ends = {}
    x = y = start
    n = 0
    while live:
        if stop is not None:
            hit = keys.of(stop(y), live)
            ends.update(dict.fromkeys(hit, (False, n, None)))
            y = keys.decide(hit, live, y)
        if not live or n == budget:
            break
        n += 1
        y = step(x, y)
        nxt = _canon(union(x, y)) if grow else y
        done = live - (keys.moved(nxt, x, live) if grow else keys.moved(x, nxt, live))
        # a shrinking run cuts its iterate, so a decided key keeps its own;
        # a growing one never drops a word, so its last iterate holds them all
        ends.update(dict.fromkeys(done, (True, n, None if grow else nxt)))
        if cut:
            y = keys.decide(done, live, y)
        else:
            live -= done
        x = nxt if grow else y
    ends.update(dict.fromkeys(live, (False, n, None)))
    return x, {key: (*ends[key][:2], ends[key][2] or x) for key in keys.keys if key in ends}
