"""Omega-word automaton algebra.

Buchi acceptance, weak / inherently-weak classification, complementation and
canonical minimization of deterministic weak automata, breakpoint
determinization for (inherently) weak automata, Boolean operations and
emptiness with lasso witnesses.

General nondeterministic Buchi complementation is deliberately not provided;
pipelines that would need it raise NonWeakResult / NotWeakDeterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .alphabet import Alphabet
from .automata import (
    FiniteAutomaton,
    accepts,
    complement,
    intersect,
    is_empty,
    minimize,
    pick_word,
    project_components,
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
        seen = set(self.initial)
        stack = list(self.initial)
        while stack:
            q = stack.pop()
            for dst in self.successors(q):
                if dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        return seen

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


def _rebuild(a: OmegaAutomaton, **kw) -> OmegaAutomaton:
    fields = {
        "alphabet": a.alphabet,
        "n_states": a.n_states,
        "initial": a.initial,
        "accepting": a.accepting,
        "transitions": a.transitions,
    }
    fields.update(kw)
    return OmegaAutomaton(**fields)


def complete_omega(a: OmegaAutomaton) -> OmegaAutomaton:
    """Add a rejecting sink for missing moves (language unchanged)."""
    if a.is_complete:
        return a
    symbols = list(a.alphabet.symbols())
    sink = a.n_states
    extra = set()
    for q in range(a.n_states):
        row = a.adjacency.get(q, {})
        for sym in symbols:
            if sym not in row:
                extra.add((q, sym, sink))
    extra.update((sink, sym, sink) for sym in symbols)
    return _rebuild(
        a, n_states=a.n_states + 1, transitions=a.transitions | frozenset(extra)
    )


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
    return _rebuild(a, accepting=frozenset(accepting))


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


def _shortest_paths(a: OmegaAutomaton) -> dict[int, tuple[int, ...]]:
    """Canonical shortest (then lexicographically least) word reaching each state."""
    best: dict[int, tuple[int, ...]] = {q: () for q in a.initial}
    settled: dict[int, tuple[int, ...]] = dict(best)
    frontier = dict(best)
    while frontier:
        nxt: dict[int, tuple[int, ...]] = {}
        for q in sorted(frontier):
            w = frontier[q]
            for sym in sorted(a.adjacency.get(q, {})):
                for dst in a.adjacency[q][sym]:
                    if dst in settled:
                        continue
                    cand = w + (sym,)
                    if dst not in nxt or cand < nxt[dst]:
                        nxt[dst] = cand
        settled.update(nxt)
        frontier = nxt
    return settled


def _cycle_word(a: OmegaAutomaton, anchor: int, comp: set[int]) -> tuple[int, ...] | None:
    """Shortest (then lexicographically least) nonempty anchor -> anchor word in one SCC."""
    settled: set[int] = set()
    frontier: dict[int, tuple[int, ...]] = {anchor: ()}
    for _ in range(len(comp) + 1):
        hits: list[tuple[int, ...]] = []
        nxt: dict[int, tuple[int, ...]] = {}
        for q in sorted(frontier):
            w = frontier[q]
            for sym in sorted(a.adjacency.get(q, {})):
                for dst in a.adjacency[q][sym]:
                    if dst not in comp:
                        continue
                    cand = w + (sym,)
                    if dst == anchor:
                        hits.append(cand)
                    elif dst not in settled and (dst not in nxt or cand < nxt[dst]):
                        nxt[dst] = cand
        if hits:
            return min(hits)
        settled.update(frontier)
        frontier = nxt
        if not frontier:
            return None
    return None


def buchi_is_empty(
    a: OmegaAutomaton,
) -> tuple[bool, UltimatelyPeriodicWord | None]:
    """Emptiness plus a lasso witness when nonempty."""
    reach = a._reachable
    paths = _shortest_paths(a)
    candidates: list[tuple[int, tuple[int, ...], int]] = []
    for comp in a.sccs:
        live = [q for q in comp if q in reach]
        if not live:
            continue
        if not a._scc_has_cycle(comp):
            continue
        for q in live:
            if q in a.accepting:
                prefix = paths.get(q)
                if prefix is not None:
                    candidates.append((len(prefix), prefix, q))
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
    return complete_omega(a)


def complement_weak_dba(a: OmegaAutomaton) -> OmegaAutomaton:
    """Complement by inverting accepting and non-accepting states."""
    d = _require_weak_dba(a, "complement")
    return _rebuild(d, accepting=frozenset(range(d.n_states)) - d.accepting)


def determinize_weak(a: OmegaAutomaton) -> OmegaAutomaton:
    """Breakpoint (two-set) determinization for (inherently) weak automata.

    Produces a deterministic weak automaton for the same language when one
    exists; raises NonWeakResult when the deterministic form is not
    inherently weak (the language has no weak deterministic representation).
    """
    if not a.is_inherently_weak:
        raise NotWeak("determinize_weak needs an (inherently) weak automaton")
    aw = normalize_weak(a)
    beta = set(aw.accepting)
    symbols = list(a.alphabet.symbols())

    start = (frozenset(aw.initial), frozenset(aw.initial) & frozenset(beta))
    ids: dict[tuple[frozenset[int], frozenset[int]], int] = {start: 0}
    order = [start]
    delta: dict[int, dict[int, int]] = {}
    i = 0
    while i < len(order):
        big, owed = order[i]
        i += 1
        row: dict[int, int] = {}
        source = owed if owed else frozenset(big) & frozenset(beta)
        for sym in symbols:
            nbig = aw.step(big, sym)
            nowed = frozenset(q for q in aw.step(source, sym) if q in beta)
            node = (nbig, nowed)
            if node not in ids:
                ids[node] = len(order)
                order.append(node)
            row[sym] = ids[node]
        delta[ids[(big, owed)]] = row
    resets = frozenset(ids[n] for n in order if not n[1])

    det = OmegaAutomaton(
        a.alphabet,
        len(order),
        frozenset({0}),
        resets,
        frozenset((q, sym, dst) for q, row in delta.items() for sym, dst in row.items()),
    )
    # det accepts the complement language (reset hit infinitely often);
    # flipping its weak normal form yields the original language.
    if not det.is_inherently_weak:
        raise NonWeakResult(
            "determinization left the weak class; language has no weak DBA"
        )
    flipped = normalize_weak(det)
    flipped = _rebuild(
        flipped, accepting=frozenset(range(flipped.n_states)) - flipped.accepting
    )
    return canonical_renumber(flipped)


def canonical_renumber(a: OmegaAutomaton) -> OmegaAutomaton:
    """BFS renumbering (symbol order tie-break) of the reachable part."""
    order: list[int] = sorted(a.initial)
    number = {q: i for i, q in enumerate(order)}
    i = 0
    while i < len(order):
        q = order[i]
        i += 1
        for sym in sorted(a.adjacency.get(q, {})):
            for dst in a.adjacency[q][sym]:
                if dst not in number:
                    number[dst] = len(number)
                    order.append(dst)
    return OmegaAutomaton(
        a.alphabet,
        len(order),
        frozenset(number[q] for q in a.initial),
        frozenset(number[q] for q in a.accepting if q in number),
        frozenset(
            (number[s], sym, number[d])
            for s, sym, d in a.transitions
            if s in number and d in number
        ),
    )


def _state_equivalence(a: OmegaAutomaton) -> dict[int, int]:
    """Omega-language equivalence classes of states of a complete weak DBA.

    Two states differ iff the pair graph reaches, from their pair, a cyclic
    product SCC whose two components disagree on acceptance.
    """
    n = a.n_states

    def dst(q: int, sym: int) -> int:
        return a.adjacency[q][sym][0]

    symbols = sorted({sym for row in a.adjacency.values() for sym in row})
    pairs = [(p, q) for p in range(n) for q in range(n)]
    pid = {pq: i for i, pq in enumerate(pairs)}

    def succ(i: int) -> Iterable[int]:
        p, q = pairs[i]
        for sym in symbols:
            yield pid[(dst(p, sym), dst(q, sym))]

    comps = strongly_connected_components(len(pairs), succ)
    mixed = set()
    for comp in comps:
        has_cycle = len(comp) > 1 or comp[0] in set(succ(comp[0]))
        if not has_cycle:
            continue
        for i in comp:
            p, q = pairs[i]
            if (p in a.accepting) != (q in a.accepting):
                mixed.update(comp)
                break
    # backward closure of mixedness
    back: dict[int, set[int]] = {}
    for i in range(len(pairs)):
        for j in succ(i):
            back.setdefault(j, set()).add(i)
    bad = set(mixed)
    stack = list(mixed)
    while stack:
        j = stack.pop()
        for i in back.get(j, ()):
            if i not in bad:
                bad.add(i)
                stack.append(i)

    cls: dict[int, int] = {}
    for p in range(n):
        for q in range(p + 1):
            if pid[(p, q)] not in bad:
                cls[p] = cls.get(q, q)
                break
        else:
            cls[p] = p
    # renumber class representatives densely
    reps = sorted(set(cls.values()))
    dense = {r: i for i, r in enumerate(reps)}
    return {p: dense[c] for p, c in cls.items()}


def minimize_weak_dba(a: OmegaAutomaton) -> OmegaAutomaton:
    """Canonical minimal weak DBA; equal omega-languages give identical values.

    Quotients by omega-language equivalence of states, then re-derives the
    per-SCC acceptance from the language itself (transient classes are
    rejecting by convention) and renumbers canonically.
    """
    d = _require_weak_dba(a, "minimize")
    d = normalize_weak(canonical_renumber(d))
    cls = _state_equivalence(d)
    n_classes = len(set(cls.values()))

    delta: dict[int, dict[int, int]] = {}
    for q in range(d.n_states):
        c = cls[q]
        row = delta.setdefault(c, {})
        for sym, dsts in d.adjacency.get(q, {}).items():
            t = cls[dsts[0]]
            if sym in row and row[sym] != t:
                raise InputError("language equivalence is not a congruence (bug)")
            row[sym] = t
    initial_cls = cls[next(iter(d.initial))]

    # acceptance per class: pick a cycle in the quotient, replay it on a
    # representative and read off the acceptance of the trapped SCC
    qsucc = {c: sorted(set(row.values())) for c, row in delta.items()}
    qcomps = strongly_connected_components(n_classes, lambda c: qsucc.get(c, []))
    accepting: set[int] = set()
    rep = {c: min(q for q in range(d.n_states) if cls[q] == c) for c in range(n_classes)}
    for comp in qcomps:
        compset = set(comp)
        cyclic = len(comp) > 1 or comp[0] in qsucc.get(comp[0], [])
        if not cyclic:
            continue
        c0 = comp[0]
        cycle = _quotient_cycle(delta, c0, compset)
        state = rep[c0]
        seen_at: dict[int, int] = {}
        step = 0
        while state not in seen_at:
            seen_at[state] = step
            for sym in cycle:
                state = d.adjacency[state][sym][0]
            step += 1
        if state in d.accepting:
            accepting.update(comp)
    result = OmegaAutomaton(
        d.alphabet,
        n_classes,
        frozenset({initial_cls}),
        frozenset(accepting),
        frozenset((c, sym, t) for c, row in delta.items() for sym, t in row.items()),
    )
    return canonical_renumber(result)


def _quotient_cycle(
    delta: dict[int, dict[int, int]], anchor: int, comp: set[int]
) -> tuple[int, ...]:
    """Shortest symbol word looping anchor -> anchor inside comp."""
    frontier: dict[int, tuple[int, ...]] = {anchor: ()}
    seen = {anchor}
    while frontier:
        nxt: dict[int, tuple[int, ...]] = {}
        for c in sorted(frontier):
            w = frontier[c]
            for sym in sorted(delta.get(c, {})):
                t = delta[c][sym]
                if t not in comp:
                    continue
                if t == anchor:
                    return w + (sym,)
                if t not in seen:
                    seen.add(t)
                    nxt[t] = w + (sym,)
        frontier = nxt
    raise InputError("no cycle found in cyclic SCC (bug)")


# ---------------------------------------------------------------------------
# Boolean operations and products


def omega_union(a: OmegaAutomaton, b: OmegaAutomaton) -> OmegaAutomaton:
    a.alphabet.require_same(b.alphabet)
    shift = a.n_states
    return OmegaAutomaton(
        a.alphabet,
        a.n_states + b.n_states,
        a.initial | frozenset(q + shift for q in b.initial),
        a.accepting | frozenset(q + shift for q in b.accepting),
        a.transitions
        | frozenset((s + shift, sym, d + shift) for s, sym, d in b.transitions),
    )


def _product_omega(
    a: OmegaAutomaton,
    b: OmegaAutomaton,
    alphabet: Alphabet,
    symbol_pairs,
) -> OmegaAutomaton:
    """Buchi product; plain when both weak, two-copy otherwise.

    `symbol_pairs(row_a, row_b)` yields (sym_a, sym_b, sym_out) move combos.
    """
    weak_mode = a.is_inherently_weak and b.is_inherently_weak
    if weak_mode:
        a = normalize_weak(a)
        b = normalize_weak(b)
    phases = 1 if weak_mode else 2

    ids: dict[tuple[int, int, int], int] = {}
    order: list[tuple[int, int, int]] = []
    for qa in sorted(a.initial):
        for qb in sorted(b.initial):
            node = (qa, qb, 0)
            if node not in ids:
                ids[node] = len(order)
                order.append(node)
    transitions = set()
    i = 0
    while i < len(order):
        qa, qb, phase = order[i]
        i += 1
        if phases == 1:
            nphase = 0
        elif phase == 0:
            nphase = 1 if qa in a.accepting else 0
        else:
            nphase = 0 if qb in b.accepting else 1
        rowa = a.adjacency.get(qa, {})
        rowb = b.adjacency.get(qb, {})
        for sa, sb, out in symbol_pairs(rowa, rowb):
            for da in rowa[sa]:
                for db in rowb[sb]:
                    node = (da, db, nphase)
                    if node not in ids:
                        ids[node] = len(order)
                        order.append(node)
                    transitions.add((ids[(qa, qb, phase)], out, ids[node]))
    if not order:
        return OmegaAutomaton(alphabet, 1, frozenset({0}), frozenset(), frozenset())
    if phases == 1:
        accepting = frozenset(
            ids[n] for n in order if n[0] in a.accepting and n[1] in b.accepting
        )
    else:
        accepting = frozenset(ids[n] for n in order if n[2] == 1 and n[1] in b.accepting)
    return OmegaAutomaton(
        alphabet,
        len(order),
        frozenset(ids[n] for n in order if n[0] in a.initial and n[1] in b.initial and n[2] == 0),
        accepting,
        frozenset(transitions),
    )


def omega_intersect(a: OmegaAutomaton, b: OmegaAutomaton) -> OmegaAutomaton:
    a.alphabet.require_same(b.alphabet)

    def pairs(rowa, rowb):
        for sym in sorted(rowa.keys() & rowb.keys()):
            yield sym, sym, sym
    return _product_omega(a, b, a.alphabet, pairs)


def omega_sync_product(automata: Sequence[OmegaAutomaton]) -> OmegaAutomaton:
    """Synchronous product over the tuple alphabet (binary folds)."""
    if len(automata) < 2:
        raise InputError("synchronous product needs at least two automata")
    result = automata[0]
    for nxt in automata[1:]:
        alphabet = Alphabet.product(result.alphabet, nxt.alphabet)
        size_b = nxt.alphabet.size

        def pairs(rowa, rowb, _sb=size_b):
            for sa in sorted(rowa):
                for sb in sorted(rowb):
                    yield sa, sb, sa * _sb + sb
        result = _product_omega(result, nxt, alphabet, pairs)
    return result


def omega_project(a: OmegaAutomaton, i: int) -> OmegaAutomaton:
    """Projection; acceptance carried over, nondeterminism may appear."""
    if a.alphabet.arity < 2:
        raise InputError("projection needs a tuple alphabet")
    if not (1 <= i <= a.alphabet.arity):
        raise InputError(f"component index {i} out of range")
    return project_components(a, [i - 1])


def omega_complement(a: OmegaAutomaton) -> OmegaAutomaton:
    """Complement, restricted to weak deterministic automata."""
    return complement_weak_dba(a)


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
        return complete_omega(a)
    return determinize_weak(a)


def omega_equivalent(a: OmegaAutomaton, b: OmegaAutomaton) -> bool:
    """Exact omega-language equality via weak-DBA complementation.

    Raises NonWeakResult when either side is not weak-representable; sampled
    comparison is available separately via `omega_equivalent_sampled`.
    """
    a.alphabet.require_same(b.alphabet)
    da, db = to_weak_dba(a), to_weak_dba(b)
    if not omega_is_empty(omega_intersect(da, complement_weak_dba(db))):
        return False
    return omega_is_empty(omega_intersect(db, complement_weak_dba(da)))


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


def omega_equivalent_sampled(
    a: OmegaAutomaton, b: OmegaAutomaton, count: int = 50, seed: int = 0
) -> bool:
    """Lasso-sampled language agreement (sound refuter, not a proof)."""
    a.alphabet.require_same(b.alphabet)
    for w in sample_lassos(a.alphabet, count, seed=seed):
        if accepts_up_word(a, w) != accepts_up_word(b, w):
            return False
    return True


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
# words.  These operations are the one place that tells the two apart.


def _canon(a: FiniteAutomaton) -> FiniteAutomaton:
    """Canonical form: the minimal trim DFA, or the minimal complete weak DBA."""
    if isinstance(a, OmegaAutomaton):
        return minimize_weak_dba(to_weak_dba(a))
    return minimize(a, completion=False)


def _union(a: FiniteAutomaton, b: FiniteAutomaton) -> FiniteAutomaton:
    if isinstance(a, OmegaAutomaton):
        return omega_union(a, b)
    return union(a, b)


def _intersect(a: FiniteAutomaton, b: FiniteAutomaton) -> FiniteAutomaton:
    if isinstance(a, OmegaAutomaton):
        return omega_intersect(a, b)
    return intersect(a, b)


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
