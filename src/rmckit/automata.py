"""Finite-word automaton algebra.

Construction, Boolean operations, determinization, canonical minimization,
synchronous products, projections and the standard decision procedures.
Values are immutable; every operation is a pure function returning a new
automaton.  State ids are dense integers; canonical numbering is
breadth-first discovery order from the initial states with symbol order as
tie-break, and a completion sink (when materialized) is always the
highest-numbered state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .alphabet import COMPLETION_CAP, Alphabet
from .errors import InputError


@dataclass(frozen=True)
class FiniteAutomaton:
    """Nondeterministic finite-word automaton over an indexed alphabet."""

    alphabet: Alphabet
    n_states: int
    initial: frozenset[int]
    accepting: frozenset[int]
    transitions: frozenset[tuple[int, int, int]]

    def __post_init__(self):
        if self.n_states <= 0:
            raise InputError("automaton needs at least one state")
        size = self.alphabet.size
        for q in self.initial | self.accepting:
            if not (0 <= q < self.n_states):
                raise InputError(f"state {q} out of range")
        for src, sym, dst in self.transitions:
            if not (0 <= src < self.n_states and 0 <= dst < self.n_states):
                raise InputError(f"transition ({src},{sym},{dst}) references unknown state")
            if not (0 <= sym < size):
                raise InputError(f"transition symbol {sym} not in alphabet")

    @cached_property
    def adjacency(self) -> dict[int, dict[int, tuple[int, ...]]]:
        """state -> symbol -> sorted destination states."""
        out: dict[int, dict[int, list[int]]] = {}
        for src, sym, dst in self.transitions:
            out.setdefault(src, {}).setdefault(sym, []).append(dst)
        return {
            src: {sym: tuple(sorted(dsts)) for sym, dsts in row.items()}
            for src, row in out.items()
        }

    @cached_property
    def is_deterministic(self) -> bool:
        if len(self.initial) != 1:
            return False
        return all(
            len(dsts) == 1 for row in self.adjacency.values() for dsts in row.values()
        )

    @cached_property
    def is_complete(self) -> bool:
        size = self.alphabet.size
        return all(
            len(self.adjacency.get(q, {})) == size for q in range(self.n_states)
        )

    def step(self, states: frozenset[int], sym: int) -> frozenset[int]:
        out: set[int] = set()
        for q in states:
            out.update(self.adjacency.get(q, {}).get(sym, ()))
        return frozenset(out)

    def successors(self, q: int) -> Iterable[int]:
        for dsts in self.adjacency.get(q, {}).values():
            yield from dsts


def accepts(a: FiniteAutomaton, word: Sequence[int]) -> bool:
    """True iff some run on the word ends in an accepting state."""
    size = a.alphabet.size
    current = frozenset(a.initial)
    for sym in word:
        if not (0 <= sym < size):
            raise InputError(f"symbol {sym} not in alphabet")
        current = a.step(current, sym)
        if not current:
            return False
    return bool(current & a.accepting)


# ---------------------------------------------------------------------------
# structural helpers


def _reachable_states(a: FiniteAutomaton) -> set[int]:
    seen = set(a.initial)
    stack = list(a.initial)
    while stack:
        q = stack.pop()
        for dst in a.successors(q):
            if dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return seen


def _coreachable_states(a: FiniteAutomaton) -> set[int]:
    back: dict[int, set[int]] = {}
    for src, _sym, dst in a.transitions:
        back.setdefault(dst, set()).add(src)
    seen = set(a.accepting)
    stack = list(a.accepting)
    while stack:
        q = stack.pop()
        for src in back.get(q, ()):
            if src not in seen:
                seen.add(src)
                stack.append(src)
    return seen


def trim(a: FiniteAutomaton) -> FiniteAutomaton:
    """Restrict to states that are reachable and can still reach acceptance.

    The result may be incomplete; a single rejecting state is kept when the
    language is empty.
    """
    useful = _reachable_states(a) & _coreachable_states(a)
    if not useful:
        return FiniteAutomaton(a.alphabet, 1, frozenset({0}), frozenset(), frozenset())
    order = sorted(useful)
    remap = {q: i for i, q in enumerate(order)}
    return FiniteAutomaton(
        a.alphabet,
        len(order),
        frozenset(remap[q] for q in a.initial if q in useful),
        frozenset(remap[q] for q in a.accepting if q in useful),
        frozenset(
            (remap[s], sym, remap[d])
            for s, sym, d in a.transitions
            if s in useful and d in useful
        ),
    )


def strongly_connected_components(
    n_states: int, successors: Callable[[int], Iterable[int]]
) -> list[list[int]]:
    """Tarjan SCCs, iterative; components in a deterministic order."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[list[int]] = []
    counter = itertools.count()

    for root in range(n_states):
        if root in index:
            continue
        work: list[tuple[int, Iterable[int]]] = [(root, iter(sorted(set(successors(root)))))]
        index[root] = low[root] = next(counter)
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = next(counter)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(set(successors(w))))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                components.append(sorted(comp))
    return components


# ---------------------------------------------------------------------------
# determinization / minimization


def _determinize_subsets(
    a: FiniteAutomaton,
) -> tuple[list[frozenset[int]], dict[int, dict[int, int]], set[int]]:
    """Subset construction over reachable subsets; missing moves stay missing.

    Returns (subsets in BFS discovery order, transition map, accepting ids).
    The empty subset appears only if it is the initial subset.
    """
    from collections import deque

    adjacency = a.adjacency
    start = frozenset(a.initial)
    ids: dict[frozenset[int], int] = {start: 0}
    order = [start]
    delta: dict[int, dict[int, int]] = {}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        cid = ids[current]
        row: dict[int, int] = {}
        moves: dict[int, set[int]] = {}
        for q in current:
            qrow = adjacency.get(q)
            if not qrow:
                continue
            for sym, dsts in qrow.items():
                bucket = moves.get(sym)
                if bucket is None:
                    moves[sym] = set(dsts)
                else:
                    bucket.update(dsts)
        for sym in sorted(moves):
            nxt = frozenset(moves[sym])
            hit = ids.get(nxt)
            if hit is None:
                hit = ids[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
            row[sym] = hit
        delta[cid] = row
    accepting = {ids[s] for s in order if s & a.accepting}
    return order, delta, accepting


def _complete_in_place(
    n: int,
    delta: dict[int, dict[int, int]],
    alphabet: Alphabet,
) -> tuple[int, bool]:
    """Add a sink as highest-numbered state when any move is missing."""
    size = alphabet.size
    if size > COMPLETION_CAP:
        raise InputError(
            f"alphabet of size {size} exceeds completion cap {COMPLETION_CAP}"
        )
    missing = any(len(delta.get(q, {})) < size for q in range(n))
    if not missing:
        return n, False
    sink = n
    for q in range(n):
        row = delta.setdefault(q, {})
        for sym in range(size):
            row.setdefault(sym, sink)
    delta[sink] = {sym: sink for sym in range(size)}
    return n + 1, True


def _from_delta(
    alphabet: Alphabet,
    n: int,
    delta: dict[int, dict[int, int]],
    initial: Iterable[int],
    accepting: Iterable[int],
) -> FiniteAutomaton:
    return FiniteAutomaton(
        alphabet,
        n,
        frozenset(initial),
        frozenset(accepting),
        frozenset((q, sym, dst) for q, row in delta.items() for sym, dst in row.items()),
    )


def _rejecting_sink(alphabet: Alphabet) -> FiniteAutomaton:
    """Canonical complete automaton for the empty language."""
    delta = {0: {sym: 0 for sym in alphabet.symbols()}}
    return _from_delta(alphabet, 1, delta, {0}, set())


def determinize(a: FiniteAutomaton) -> FiniteAutomaton:
    """Deterministic complete automaton with the same language."""
    order, delta, accepting = _determinize_subsets(a)
    if not accepting:
        return _rejecting_sink(a.alphabet)
    n, _ = _complete_in_place(len(order), delta, a.alphabet)
    return _from_delta(a.alphabet, n, delta, {0}, accepting)


def minimize(a: FiniteAutomaton, completion: bool | None = None) -> FiniteAutomaton:
    """Canonical minimal DFA; equal languages give identical values.

    The automaton is completed (sink highest-numbered) when the alphabet is
    small enough, or when `completion=True` is forced; above the cap the
    canonical trim form without the dead state is returned, which is equally
    canonical and avoids materializing huge sink rows.
    """
    order, delta, accepting = _determinize_subsets(a)
    n = len(order)

    # Moore refinement with a virtual sink state `n` (rejecting, no moves);
    # moves into the sink's class are dropped from signatures so that a
    # missing move and an explicit dead move compare equal.
    sorted_rows: list[tuple[tuple[int, int], ...]] = [
        tuple(sorted(delta.get(q, {}).items())) for q in range(n)
    ]
    sorted_rows.append(())
    cls = [1] * (n + 1)
    for q in accepting:
        cls[q] = 0
    if not accepting:
        cls = [0] * (n + 1)
    while True:
        sink_cls = cls[n]
        signatures: dict[tuple, int] = {}
        new_cls = [0] * (n + 1)
        for q in range(n + 1):
            sig = (
                cls[q],
                tuple(
                    (sym, cls[dst])
                    for sym, dst in sorted_rows[q]
                    if cls[dst] != sink_cls
                ),
            )
            hit = signatures.get(sig)
            if hit is None:
                hit = signatures[sig] = len(signatures)
            new_cls[q] = hit
        if new_cls == cls:
            break
        cls = new_cls

    dead = cls[n]
    if cls[0] == dead:
        # empty language: canonical one-state rejecting sink
        if completion is None:
            completion = a.alphabet.size <= COMPLETION_CAP
        if completion:
            return _rejecting_sink(a.alphabet)
        return _from_delta(a.alphabet, 1, {0: {}}, {0}, set())

    # quotient transition function over non-dead classes
    qdelta: dict[int, dict[int, int]] = {}
    for q in range(n):
        c = cls[q]
        if c == dead:
            continue
        row = qdelta.setdefault(c, {})
        for sym, dst in delta.get(q, {}).items():
            if cls[dst] != dead:
                row[sym] = cls[dst]
    qacc = {cls[q] for q in accepting}

    # canonical numbering: BFS from the initial class, symbols ascending
    start = cls[0]
    number = {start: 0}
    bfs = [start]
    i = 0
    while i < len(bfs):
        c = bfs[i]
        i += 1
        for sym in sorted(qdelta.get(c, {})):
            d = qdelta[c][sym]
            if d not in number:
                number[d] = len(number)
                bfs.append(d)
    out_delta = {
        number[c]: {sym: number[d] for sym, d in row.items()}
        for c, row in qdelta.items()
    }
    total = len(number)
    if completion is None:
        completion = a.alphabet.size <= COMPLETION_CAP
    if completion:
        total, _ = _complete_in_place(total, out_delta, a.alphabet)
    return _from_delta(
        a.alphabet, total, out_delta, {0}, {number[c] for c in qacc}
    )


# ---------------------------------------------------------------------------
# Boolean operations


def union(a: FiniteAutomaton, b: FiniteAutomaton) -> FiniteAutomaton:
    a.alphabet.require_same(b.alphabet)
    shift = a.n_states
    return FiniteAutomaton(
        a.alphabet,
        a.n_states + b.n_states,
        a.initial | frozenset(q + shift for q in b.initial),
        a.accepting | frozenset(q + shift for q in b.accepting),
        a.transitions
        | frozenset((s + shift, sym, d + shift) for s, sym, d in b.transitions),
    )


def intersect(a: FiniteAutomaton, b: FiniteAutomaton) -> FiniteAutomaton:
    """Product automaton, reachable part only."""
    a.alphabet.require_same(b.alphabet)
    ids: dict[tuple[int, int], int] = {}
    order: list[tuple[int, int]] = []
    for pair in sorted((x, y) for x in a.initial for y in b.initial):
        ids[pair] = len(order)
        order.append(pair)
    transitions = set()
    i = 0
    while i < len(order):
        (qa, qb) = order[i]
        i += 1
        rowa = a.adjacency.get(qa, {})
        rowb = b.adjacency.get(qb, {})
        for sym in sorted(rowa.keys() & rowb.keys()):
            for da in rowa[sym]:
                for db in rowb[sym]:
                    pair = (da, db)
                    if pair not in ids:
                        ids[pair] = len(order)
                        order.append(pair)
                    transitions.add((ids[(qa, qb)], sym, ids[pair]))
    if not order:
        return FiniteAutomaton(a.alphabet, 1, frozenset({0}), frozenset(), frozenset())
    accepting = frozenset(
        ids[p] for p in order if p[0] in a.accepting and p[1] in b.accepting
    )
    return FiniteAutomaton(
        a.alphabet,
        len(order),
        frozenset(ids[p] for p in order if p[0] in a.initial and p[1] in b.initial),
        accepting,
        frozenset(transitions),
    )


def product_general(
    a: FiniteAutomaton,
    b: FiniteAutomaton,
    alphabet: Alphabet,
    symbol_pairs,
) -> FiniteAutomaton:
    """Reachable product with custom move pairing.

    `symbol_pairs(row_a, row_b)` yields (sym_a, sym_b, sym_out) triples; the
    result accepts with both components accepting.
    """
    ids: dict[tuple[int, int], int] = {}
    order: list[tuple[int, int]] = []
    for pair in sorted((x, y) for x in a.initial for y in b.initial):
        if pair not in ids:
            ids[pair] = len(order)
            order.append(pair)
    transitions = set()
    i = 0
    while i < len(order):
        qa, qb = order[i]
        i += 1
        rowa = a.adjacency.get(qa, {})
        rowb = b.adjacency.get(qb, {})
        for sa, sb, out in symbol_pairs(rowa, rowb):
            for da in rowa[sa]:
                for db in rowb[sb]:
                    pair = (da, db)
                    if pair not in ids:
                        ids[pair] = len(order)
                        order.append(pair)
                    transitions.add((ids[(qa, qb)], out, ids[pair]))
    if not order:
        return FiniteAutomaton(alphabet, 1, frozenset({0}), frozenset(), frozenset())
    return FiniteAutomaton(
        alphabet,
        len(order),
        frozenset(ids[p] for p in order if p[0] in a.initial and p[1] in b.initial),
        frozenset(ids[p] for p in order if p[0] in a.accepting and p[1] in b.accepting),
        frozenset(transitions),
    )


def complement(a: FiniteAutomaton) -> FiniteAutomaton:
    d = determinize(a)
    return FiniteAutomaton(
        d.alphabet,
        d.n_states,
        d.initial,
        frozenset(range(d.n_states)) - d.accepting,
        d.transitions,
    )


def difference(a: FiniteAutomaton, b: FiniteAutomaton) -> FiniteAutomaton:
    return intersect(a, complement(b))


def boolean(
    op: str, a: FiniteAutomaton, b: FiniteAutomaton | None = None
) -> FiniteAutomaton:
    """Dispatcher over {union, intersect, complement, difference}."""
    if op == "complement":
        if b is not None:
            raise InputError("complement is unary")
        return complement(a)
    if b is None:
        raise InputError(f"{op} needs two automata")
    if op == "union":
        return union(a, b)
    if op == "intersect":
        return intersect(a, b)
    if op == "difference":
        return difference(a, b)
    raise InputError(f"unknown Boolean operation {op!r}")


# ---------------------------------------------------------------------------
# synchronous product / projection


def sync_product(automata: Sequence[FiniteAutomaton]) -> FiniteAutomaton:
    """Automaton for the synchronous product of the component languages."""
    if len(automata) < 2:
        raise InputError("synchronous product needs at least two automata")
    alphabet = Alphabet.product(*(x.alphabet for x in automata))
    sizes = [x.alphabet.size for x in automata]

    def compose_sym(parts: Sequence[int]) -> int:
        sym = 0
        for p, size in zip(parts, sizes):
            sym = sym * size + p
        return sym

    ids: dict[tuple[int, ...], int] = {}
    order: list[tuple[int, ...]] = []
    for combo in sorted(itertools.product(*(sorted(x.initial) for x in automata))):
        if combo not in ids:
            ids[combo] = len(order)
            order.append(combo)
    transitions = set()
    i = 0
    while i < len(order):
        combo = order[i]
        i += 1
        rows = [x.adjacency.get(q, {}) for x, q in zip(automata, combo)]
        if any(not row for row in rows):
            continue
        for move in itertools.product(
            *(
                [(sym, dst) for sym in sorted(row) for dst in row[sym]]
                for row in rows
            )
        ):
            parts = [m[0] for m in move]
            target = tuple(m[1] for m in move)
            if target not in ids:
                ids[target] = len(order)
                order.append(target)
            transitions.add((ids[combo], compose_sym(parts), ids[target]))
    if not order:
        return FiniteAutomaton(alphabet, 1, frozenset({0}), frozenset(), frozenset())
    return FiniteAutomaton(
        alphabet,
        len(order),
        frozenset(
            ids[c] for c in order if all(q in x.initial for x, q in zip(automata, c))
        ),
        frozenset(
            ids[c] for c in order if all(q in x.accepting for x, q in zip(automata, c))
        ),
        frozenset(transitions),
    )


def project_components(a: FiniteAutomaton, drop: Sequence[int]) -> FiniteAutomaton:
    """Projection dropping the given 0-based alphabet components."""
    dropset = set(drop)
    for i in dropset:
        if not (0 <= i < a.alphabet.arity):
            raise InputError(f"component index {i} out of range")
    if len(dropset) >= a.alphabet.arity:
        raise InputError("cannot project away every component")
    target = a.alphabet.drop_components(sorted(dropset))
    transitions = set()
    for src, sym, dst in a.transitions:
        parts = a.alphabet.parts(sym)
        kept = [p for i, p in enumerate(parts) if i not in dropset]
        transitions.add((src, target.symbol(kept), dst))
    return type(a)(target, a.n_states, a.initial, a.accepting, frozenset(transitions))


def project(a: FiniteAutomaton, i: int) -> FiniteAutomaton:
    """Projection on all components except component i (1-based, per convention)."""
    if a.alphabet.arity < 2:
        raise InputError("projection needs a tuple alphabet")
    if not (1 <= i <= a.alphabet.arity):
        raise InputError(f"component index {i} out of range")
    return project_components(a, [i - 1])


# ---------------------------------------------------------------------------
# decision procedures


def is_empty(a: FiniteAutomaton) -> bool:
    return not (_reachable_states(a) & set(a.accepting))


def includes(a: FiniteAutomaton, b: FiniteAutomaton) -> bool:
    """L(a) included in L(b), decided on the fly (no completion materialized)."""
    a.alphabet.require_same(b.alphabet)
    b0 = frozenset(b.initial)
    seen: set[tuple[int, frozenset[int]]] = set()
    stack: list[tuple[int, frozenset[int]]] = []
    for qa in a.initial:
        pair = (qa, b0)
        if pair not in seen:
            seen.add(pair)
            stack.append(pair)
    while stack:
        qa, bs = stack.pop()
        if qa in a.accepting and not (bs & b.accepting):
            return False
        for sym, dsts in a.adjacency.get(qa, {}).items():
            nxt = b.step(bs, sym)
            for qa2 in dsts:
                pair = (qa2, nxt)
                if pair not in seen:
                    seen.add(pair)
                    stack.append(pair)
    return True


def equivalent(a: FiniteAutomaton, b: FiniteAutomaton) -> bool:
    return includes(a, b) and includes(b, a)


# ---------------------------------------------------------------------------
# small constructors and word utilities


def empty_automaton(alphabet: Alphabet) -> FiniteAutomaton:
    return FiniteAutomaton(alphabet, 1, frozenset({0}), frozenset(), frozenset())


def universal(alphabet: Alphabet) -> FiniteAutomaton:
    """Automaton accepting every finite word (alphabet must be enumerable)."""
    return FiniteAutomaton(
        alphabet,
        1,
        frozenset({0}),
        frozenset({0}),
        frozenset((0, sym, 0) for sym in alphabet.symbols()),
    )


def word_automaton(alphabet: Alphabet, word: Sequence[int]) -> FiniteAutomaton:
    transitions = frozenset((i, sym, i + 1) for i, sym in enumerate(word))
    return FiniteAutomaton(
        alphabet, len(word) + 1, frozenset({0}), frozenset({len(word)}), transitions
    )


def exact_length(alphabet: Alphabet, n: int) -> FiniteAutomaton:
    """All words of exactly length n."""
    if n < 0:
        raise InputError("length must be nonnegative")
    transitions = frozenset(
        (i, sym, i + 1) for i in range(n) for sym in alphabet.symbols()
    )
    return FiniteAutomaton(alphabet, n + 1, frozenset({0}), frozenset({n}), transitions)


def pick_word(a: FiniteAutomaton) -> tuple[int, ...] | None:
    """Canonical accepted word: shortest, then lexicographically least."""
    best: dict[int, tuple[int, ...]] = {q: () for q in a.initial}
    settled: set[int] = set()
    for _ in range(a.n_states + 1):
        hits = [best[q] for q in best if q in a.accepting]
        if hits:
            return min(hits)
        settled |= set(best)
        frontier: dict[int, tuple[int, ...]] = {}
        for q in sorted(best):
            w = best[q]
            for sym in sorted(a.adjacency.get(q, {})):
                for dst in a.adjacency[q][sym]:
                    if dst in settled:
                        continue
                    cand = w + (sym,)
                    if dst not in frontier or cand < frontier[dst]:
                        frontier[dst] = cand
        if not frontier:
            return None
        best = frontier
    return None


def enumerate_words(
    a: FiniteAutomaton, max_len: int, cap: int = 200000
) -> list[tuple[int, ...]]:
    """All accepted words of length <= max_len, sorted (oracle-scale sizes)."""
    out: list[tuple[int, ...]] = []
    frontier: dict[frozenset[int], list[tuple[int, ...]]] = {
        frozenset(a.initial): [()]
    }
    for length in range(max_len + 1):
        for states, words in frontier.items():
            if states & a.accepting:
                out.extend(words)
                if len(out) > cap:
                    raise InputError("word enumeration cap exceeded")
        if length == max_len:
            break
        nxt: dict[frozenset[int], list[tuple[int, ...]]] = {}
        for states, words in frontier.items():
            syms: set[int] = set()
            for q in states:
                syms.update(a.adjacency.get(q, {}).keys())
            for sym in syms:
                target = a.step(states, sym)
                if target:
                    bucket = nxt.setdefault(target, [])
                    bucket.extend(w + (sym,) for w in words)
                    if len(bucket) > cap:
                        raise InputError("word enumeration cap exceeded")
        frontier = nxt
    return sorted(out)
