"""Finite-word automaton algebra.

Construction, Boolean operations, determinization, canonical minimization,
products and the standard decision procedures; there is no projection
function, as a projection is a many-to-one letter map handed to `relabel`.
Values are immutable; every operation is a pure function returning a new
automaton.  State ids are dense integers; canonical numbering is
breadth-first discovery order from the initial states with symbol order as
tie-break.

An automaton is its rows: `FiniteAutomaton.adjacency` is the one stored
form of its moves, and every construction hands rows to the next one.  The
transition set is derived from the rows only when something reads it, such
as serialization; no check does.

`explore` is the one place that numbers states: every product, every
explicit construction over implicitly given states (here and in `omega`,
`gsp`, `losp` and `simulation`) and the quotient of `minimize` is a `moves`
function and an acceptance predicate handed to it, and the rows it walked
become the rows of the automaton it returns.  The one exception is the
subset construction `_determinize_subsets`, which numbers its subsets itself,
in the order `explore` would, because walking the rows directly is faster.
A deterministic input skips the subset construction: `minimize` partitions
the input's own rows, and only the quotient is numbered.

A finite-word set has one canonical form, the trim minimal DFA that
`minimize` returns at every alphabet size; a caller whose contract needs a
complete DFA asks for `determinize(minimize(a))`.  `minimize` partitions
the live states by one of two algorithms, picked by the input.  When
Kahn's algorithm orders every live state, no cycle runs through them, so
the live language is finite, as the language of every set and relation of
a sliced check is: one registration pass in that order gives each state
the class of its signature.  Otherwise Hopcroft's
refinement splits the classes until they are stable.  Both give the
coarsest partition, so the result is the same either way.

`complete` is the one place that adds a completion sink, always as the
highest-numbered state.
`relabel` is the one place that rewrites letters: the identity relation, the
simulation's diagonal (the words w with (w, w) in T+), flag extensions and
the GSP and LOSP label constructions are each a letter map handed to it.
`_reflag` is the one place that changes the accepting states or the class
of an automaton; the rows are shared.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Iterable, Sequence

from .alphabet import COMPLETION_CAP, Alphabet
from .errors import AlphabetCapExceeded, InputError


@dataclass(frozen=True, init=False, eq=False)
class FiniteAutomaton:
    """Nondeterministic finite-word automaton over an indexed alphabet.

    The moves are stored once, as rows: `adjacency` maps a state to a map
    from symbol to the sorted tuple of its distinct destinations, with no
    empty row and no empty symbol entry.  `transitions`, the set of
    (src, sym, dst) triples, is derived from the rows on first read and
    cached; the public constructor takes that set, checks every state and
    symbol, and groups it into rows.  Equality compares the class, the
    alphabet, the state count, the initial and accepting states and the
    rows, so an `OmegaAutomaton` never equals a `FiniteAutomaton`.

    Constructions skip the constructor through `_trusted`, which takes the rows
    its caller already built.  Its only callers are these six.  `explore`
    numbers every state itself and checks each row's symbols; `complete`
    adds only in-range sink moves to a valid automaton; `relabel` keeps the
    states of a valid automaton and checks every new letter; `union` shifts
    the states of two valid automata apart; `_determinize_subsets` numbers
    the subsets of a valid automaton; `_reflag` changes only the accepting
    states, checked in range, and the class of a valid automaton.
    """

    alphabet: Alphabet
    n_states: int
    initial: frozenset[int]
    accepting: frozenset[int]
    transitions: frozenset[tuple[int, int, int]]

    def __init__(self, alphabet, n_states, initial, accepting, transitions):
        if n_states <= 0:
            raise InputError("automaton needs at least one state")
        initial, accepting = frozenset(initial), frozenset(accepting)
        size = alphabet.size
        for q in initial | accepting:
            if not (0 <= q < n_states):
                raise InputError(f"state {q} out of range")
        rows: dict[int, dict[int, list[int]]] = {}
        for src, sym, dst in transitions:
            if not (0 <= src < n_states and 0 <= dst < n_states):
                raise InputError(f"transition ({src},{sym},{dst}) references unknown state")
            if not (0 <= sym < size):
                raise InputError(f"transition symbol {sym} not in alphabet")
            rows.setdefault(src, {}).setdefault(sym, []).append(dst)
        for row in rows.values():
            for sym, dsts in row.items():
                row[sym] = tuple(sorted(set(dsts)))
        self.__dict__.update(
            alphabet=alphabet, n_states=n_states, initial=initial, accepting=accepting,
            transitions=frozenset(transitions), adjacency=rows,
        )

    @classmethod
    def _trusted(cls, alphabet, n_states, initial, accepting, adjacency):
        a = object.__new__(cls)
        a.__dict__.update(
            alphabet=alphabet, n_states=n_states, initial=initial, accepting=accepting,
            adjacency=adjacency,
        )
        return a

    @cached_property
    def transitions(self) -> frozenset[tuple[int, int, int]]:
        """Every move as a (src, sym, dst) triple, derived from the rows."""
        return frozenset(
            (src, sym, dst)
            for src, row in self.adjacency.items()
            for sym, dsts in row.items()
            for dst in dsts
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (
            self.n_states == other.n_states
            and self.initial == other.initial
            and self.accepting == other.accepting
            and self.alphabet == other.alphabet
            and self.adjacency == other.adjacency
        )

    def __hash__(self):
        return hash((self.alphabet, self.n_states, self.initial, self.accepting))

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


def explore(
    cls: type[FiniteAutomaton],
    alphabet: Alphabet,
    starts: Iterable[Hashable],
    moves: Callable[[Hashable], Iterable[tuple[int, Hashable]]],
    accepting: Callable[[Hashable], bool],
) -> FiniteAutomaton:
    """Reachable part of an implicitly given automaton, as a `cls` value.

    Nodes are numbered in discovery order: the `starts` first, in the given
    order and without repeats (they are the initial states), then breadth
    first as `moves(node)` yields `(symbol, successor)` pairs.  `accepting`
    marks the accepting nodes.  No start node gives the one-state automaton
    of the empty language.  The result's `adjacency` is the rows as walked,
    repeated moves dropped; a symbol outside `alphabet` is an `InputError`.
    """
    ids: dict[Hashable, int] = {}
    order: list[Hashable] = []
    for node in starts:
        if node not in ids:
            ids[node] = len(order)
            order.append(node)
    if not order:
        return cls._trusted(alphabet, 1, frozenset({0}), frozenset(), {})
    n_starts, size = len(order), alphabet.size
    adjacency: dict[int, dict[int, tuple[int, ...]]] = {}
    # `order` grows while it is walked: that is the breadth-first queue
    for src, node in enumerate(order):
        row: dict = {}
        repeated = False
        for sym, nxt in moves(node):
            dst = ids.get(nxt)
            if dst is None:
                dst = ids[nxt] = len(order)
                order.append(nxt)
            dsts = row.get(sym)
            if dsts is None:
                row[sym] = (dst,)
            else:
                row[sym] = dsts + (dst,)
                repeated = True
        if row:
            if min(row) < 0 or max(row) >= size:
                bad = next(sym for sym in row if not 0 <= sym < size)
                raise InputError(f"transition symbol {bad} not in alphabet")
            if repeated:
                for sym, dsts in row.items():
                    if len(dsts) > 1:
                        row[sym] = tuple(sorted(set(dsts)))
            adjacency[src] = row
    return cls._trusted(
        alphabet,
        len(order),
        frozenset(range(n_starts)),
        frozenset(i for i, node in enumerate(order) if accepting(node)),
        adjacency,
    )


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


def _shortest_words(
    a: FiniteAutomaton, starts: Iterable[int] | None = None, within: set[int] | None = None
) -> dict[int, tuple[int, ...]]:
    """Shortest, then lexicographically least, word reaching each state
    reachable from `starts` (default: the initial states), moving only
    between states of `within` if it is given."""
    settled: dict[int, tuple[int, ...]] = {q: () for q in (a.initial if starts is None else starts)}
    frontier = dict(settled)
    while frontier:
        nxt: dict[int, tuple[int, ...]] = {}
        for q in sorted(frontier):
            w = frontier[q]
            for sym in sorted(a.adjacency.get(q, {})):
                for dst in a.adjacency[q][sym]:
                    if dst in settled or (within is not None and dst not in within):
                        continue
                    cand = w + (sym,)
                    if dst not in nxt or cand < nxt[dst]:
                        nxt[dst] = cand
        settled.update(nxt)
        frontier = nxt
    return settled


def complete(a: FiniteAutomaton) -> FiniteAutomaton:
    """The same language with every missing move sent to a new rejecting sink.

    The sink is the highest-numbered state, and a complete `a` comes back
    as it is.  The class of `a` is kept, and with it the acceptance
    condition.
    """
    if a.is_complete:
        return a
    sink, rows = a.n_states, a.adjacency
    adjacency = {}
    for q in range(sink + 1):  # every move of the sink itself is missing
        row = dict(rows.get(q, ()))
        for sym in range(a.alphabet.size):
            if sym not in row:
                row[sym] = (sink,)
        adjacency[q] = row
    return type(a)._trusted(a.alphabet, sink + 1, a.initial, a.accepting, adjacency)


def relabel(
    a: FiniteAutomaton, alphabet: Alphabet, letters: Callable[[int], Iterable[int]]
) -> FiniteAutomaton:
    """`a` over `alphabet`, each move on `sym` replaced by one move on each
    letter of `letters(sym)`.

    States, initial and accepting states and the class of `a` stay the same;
    a letter outside `alphabet` is an `InputError`.  The map may be
    one-to-one, many-to-one (a projection) or one-to-many (a label guess).
    """
    size = alphabet.size
    images: dict[int, list[int]] = {}
    adjacency: dict[int, dict[int, tuple[int, ...]]] = {}
    for src, row in a.adjacency.items():
        out: dict[int, list[int]] = {}
        for sym, dsts in row.items():
            new = images.get(sym)
            if new is None:
                new = images[sym] = list(letters(sym))
                for x in new:
                    if not 0 <= x < size:
                        raise InputError(f"transition symbol {x} not in alphabet")
            for x in new:
                out.setdefault(x, []).extend(dsts)
        if out:
            adjacency[src] = {x: tuple(sorted(set(d))) for x, d in out.items()}
    return type(a)._trusted(alphabet, a.n_states, a.initial, a.accepting, adjacency)


def _reflag(
    a: FiniteAutomaton, accepting: frozenset[int], cls: type[FiniteAutomaton] | None = None
) -> FiniteAutomaton:
    """`a` with the accepting states `accepting`, as a `cls` value (default:
    the class of `a`); states, initial states and rows stay, shared."""
    if accepting and not (0 <= min(accepting) and max(accepting) < a.n_states):
        raise InputError("accepting state out of range")
    return (cls or type(a))._trusted(a.alphabet, a.n_states, a.initial, accepting, a.adjacency)


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


def _determinize_subsets(a: FiniteAutomaton) -> FiniteAutomaton:
    """Subset construction over reachable subsets; missing moves stay missing.

    The subsets are numbered in breadth-first discovery order, symbols in
    ascending order, as `explore` would number them; walking the rows here
    directly is faster than through a `moves` function.  The empty subset
    appears only if it is the initial subset.
    """
    adjacency = a.adjacency
    start = frozenset(a.initial)
    ids: dict[frozenset[int], int] = {start: 0}
    order = [start]
    delta: dict[int, dict[int, tuple[int]]] = {}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        cid = ids[current]
        row: dict[int, tuple[int]] = {}
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
            row[sym] = (hit,)
        if row:
            delta[cid] = row
    accepting = frozenset(i for i, s in enumerate(order) if s & a.accepting)
    return FiniteAutomaton._trusted(a.alphabet, len(order), frozenset({0}), accepting, delta)


def _complete_dfa(d: FiniteAutomaton) -> FiniteAutomaton:
    """`complete(d)`, or the one-state rejecting sink when `d` has no
    accepting state; only the sink is built above `COMPLETION_CAP`."""
    if not d.accepting:
        return _reflag(universal(d.alphabet), frozenset())
    _require_completable(d.alphabet)
    return complete(d)


def _require_completable(alphabet: Alphabet) -> None:
    """Refuse to complete anything over more than `COMPLETION_CAP` letters."""
    if alphabet.size > COMPLETION_CAP:
        raise AlphabetCapExceeded(
            f"alphabet of size {alphabet.size} exceeds completion cap {COMPLETION_CAP}"
        )


def determinize(a: FiniteAutomaton) -> FiniteAutomaton:
    """Deterministic complete automaton with the same language."""
    return _complete_dfa(_determinize_subsets(a))


def minimize(a: FiniteAutomaton) -> FiniteAutomaton:
    """Canonical minimal DFA; equal languages give identical values.

    The result is trim at every alphabet size: every state is reachable and
    reaches an accepting one, and the empty language is the one rejecting
    state with no moves.  It is the one canonical form of a finite-word set;
    `determinize(minimize(a))` is the complete minimal DFA.

    Only the live states, those that reach an accepting state, are
    partitioned: the dead states form one class that is never split, and a
    missing move and a move into a dead state compare equal.  The input
    picks one of two algorithms.  Kahn's algorithm orders the live states,
    from those with no move into a live state.  When it orders all of them,
    no cycle runs through a live state, so the live language is finite, and
    one registration pass in that order gives the classes (Revuz 1992;
    Daciuk, Mihov, Watson and Watson 2000).  Otherwise Hopcroft's
    refinement (1971) finds them, as Valmari and Lehtinen (2008) adapt it to
    partial transition functions.  Both give the coarsest partition, so the
    result does not depend on the algorithm.  A deterministic input is
    partitioned as it is; any other goes through the subset construction
    first.
    """
    d = a if a.is_deterministic else _determinize_subsets(a)
    (start,) = d.initial
    n, accepting, rows = d.n_states, d.accepting, d.adjacency

    # the live states, by a backward search from the accepting ones, each
    # with its number of moves into live states; a dead state keeps -1
    preds: list[list[int]] = [[] for _ in range(n)]
    for src, row in rows.items():
        for (dst,) in row.values():
            preds[dst].append(src)
    live_moves = [-1] * n
    stack = list(accepting)
    for q in stack:
        live_moves[q] = 0
    rejecting = []
    while stack:
        for src in preds[stack.pop()]:
            if live_moves[src] < 0:
                live_moves[src] = 1
                rejecting.append(src)
                stack.append(src)
            else:
                live_moves[src] += 1

    # Kahn's order, each live state after its live successors; only an
    # accepting state can have no live move, and the sources of a move into
    # a live state are live
    order = [q for q in accepting if not live_moves[q]]
    for q in order:  # grows while it is walked
        for src in preds[q]:
            live_moves[src] -= 1
            if not live_moves[src]:
                order.append(src)
    if len(order) == len(accepting) + len(rejecting):
        cls, moves = _register(order, rows, accepting, n)
    else:
        cls, moves = _refine(rows, accepting, rejecting, n)

    # the quotient over the live classes, numbered from the initial class
    accepting_classes = {cls[q] for q in accepting}
    return explore(
        FiniteAutomaton,
        a.alphabet,
        [cls[start]] if cls[start] >= 0 else [],
        moves,
        accepting_classes.__contains__,
    )


# `_register` and `_refine` partition the states of a DFA given by its rows
# and its accepting and live rejecting states.  Each returns the class of
# every state, -1 for a dead one, and the quotient's `moves`: a live class's
# moves into live classes as (symbol, class) pairs in ascending symbol order.


def _register(order, rows, accepting, n):
    """Registration, when `order` lists every live state after all its live
    successors.  A state's class is that of its signature: whether it
    accepts, then its moves into live states as (symbol, successor class)
    pairs in ascending symbol order."""
    cls = [-1] * n
    register: dict[tuple, int] = {}
    class_rows: list[list[tuple[int, int]]] = []
    for q in order:
        live = []
        row = rows.get(q)
        if row:
            for sym in sorted(row):
                c = cls[row[sym][0]]
                if c >= 0:
                    live.append((sym, c))
        signature = (q in accepting, *live)
        c = register.get(signature)
        if c is None:
            c = register[signature] = len(class_rows)
            class_rows.append(live)
        cls[q] = c
    return cls, class_rows.__getitem__


def _refine(rows, accepting, rejecting, n):
    """Hopcroft's refinement of {accepting} and {live rejecting}."""
    # the (symbol, source) of each move into a state
    preds: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for src, row in rows.items():
        for sym, (dst,) in row.items():
            preds[dst].append((sym, src))
    cls = [-1] * n
    for q in accepting:
        cls[q] = 0
    for q in rejecting:
        cls[q] = 1
    # Both initial blocks are splitters: with partial moves, stability with
    # respect to one block does not give it for the complement.  Once a
    # block has been a splitter, the smaller half of any later split of it
    # suffices; a block still queued keeps its id, so its new half is
    # queued too.  Either way the new block is the one queued.
    blocks = [set(accepting), set(rejecting)]
    queue = [0, 1]
    while queue:
        by_sym: dict[int, list[int]] = {}
        for q in blocks[queue.pop()]:
            for sym, src in preds[q]:
                srcs = by_sym.get(sym)
                if srcs is None:
                    by_sym[sym] = [src]
                else:
                    srcs.append(src)
        # each state has one move on a symbol, so `srcs` has no repeats
        for srcs in by_sym.values():
            touched: dict[int, list[int]] = {}
            for q in srcs:
                part = touched.get(cls[q])
                if part is None:
                    touched[cls[q]] = [q]
                else:
                    part.append(q)
            for b, part in touched.items():
                block = blocks[b]
                if len(part) == len(block):
                    continue
                block.difference_update(part)
                if len(block) < len(part):
                    small, blocks[b] = block, set(part)
                else:
                    small = set(part)
                for q in small:
                    cls[q] = len(blocks)
                queue.append(len(blocks))
                blocks.append(small)

    # states of one class agree on their live moves, so one representative
    # per class gives its row
    representative: dict[int, int] = {}
    for q in range(n):
        representative.setdefault(cls[q], q)

    def moves(c):
        row = rows.get(representative[c], {})
        for sym in sorted(row):
            dst = cls[row[sym][0]]
            if dst >= 0:
                yield sym, dst

    return cls, moves


# ---------------------------------------------------------------------------
# Boolean operations


def union(a: FiniteAutomaton, b: FiniteAutomaton) -> FiniteAutomaton:
    """Disjoint union; the result has the class of `a` (finite or Buchi)."""
    a.alphabet.require_same(b.alphabet)
    shift = a.n_states
    adjacency = dict(a.adjacency)
    # most moves have one destination, which is shifted without building a
    # list: the minimal DFAs that fixpoints unite have nothing else
    for src, row in b.adjacency.items():
        adjacency[src + shift] = {
            sym: (dsts[0] + shift,) if len(dsts) == 1 else tuple([d + shift for d in dsts])
            for sym, dsts in row.items()
        }
    return type(a)._trusted(
        a.alphabet,
        a.n_states + b.n_states,
        a.initial | frozenset(q + shift for q in b.initial),
        a.accepting | frozenset(q + shift for q in b.accepting),
        adjacency,
    )


def _same_symbol(rowa, rowb):
    """Move pairing of a plain product: both sides read the same symbol."""
    for sym in sorted(rowa.keys() & rowb.keys()):
        yield sym, sym, sym


def _sync_symbols(size_b: int):
    """Move pairing of a synchronous product: every pair of moves, read as
    the pair letter `sym_a * size_b + sym_b` of `Alphabet.product`."""

    def pairs(rowa, rowb):
        for sa in sorted(rowa):
            for sb in sorted(rowb):
                yield sa, sb, sa * size_b + sb

    return pairs


def intersect(a: FiniteAutomaton, b: FiniteAutomaton) -> FiniteAutomaton:
    """Product automaton, reachable part only."""
    a.alphabet.require_same(b.alphabet)
    return product_general(a, b, a.alphabet, _same_symbol)


def product_general(
    a: FiniteAutomaton,
    b: FiniteAutomaton,
    alphabet: Alphabet,
    symbol_pairs,
) -> FiniteAutomaton:
    """Reachable product with custom move pairing, of the class of `a`.

    `symbol_pairs(row_a, row_b)` yields (sym_a, sym_b, sym_out) triples; the
    result accepts with both components accepting.
    """
    return _pair_product(a, b, alphabet, _paired_moves(a, b, symbol_pairs))


def _paired_moves(a: FiniteAutomaton, b: FiniteAutomaton, symbol_pairs):
    """`moves` of the product node (qa, qb) whose moves pair as
    `symbol_pairs(row_a, row_b)` says (see `product_general`)."""
    adj_a, adj_b = a.adjacency, b.adjacency

    def moves(node):
        rowa = adj_a.get(node[0], {})
        rowb = adj_b.get(node[1], {})
        for sa, sb, out in symbol_pairs(rowa, rowb):
            for da in rowa[sa]:
                for db in rowb[sb]:
                    yield out, (da, db)

    return moves


def _pair_product(
    a: FiniteAutomaton, b: FiniteAutomaton, alphabet: Alphabet, moves
) -> FiniteAutomaton:
    """Reachable product of `a` and `b` over `alphabet`, of the class of `a`:
    nodes (qa, qb) from the sorted pairs of initial states, moving as
    `moves(node)` says, accepting when both components accept."""
    return explore(
        type(a),
        alphabet,
        sorted(itertools.product(a.initial, b.initial)),
        moves,
        lambda node: node[0] in a.accepting and node[1] in b.accepting,
    )


def complement(a: FiniteAutomaton) -> FiniteAutomaton:
    d = determinize(a)
    return _reflag(d, frozenset(range(d.n_states)) - d.accepting)


def difference(a: FiniteAutomaton, b: FiniteAutomaton) -> FiniteAutomaton:
    """The words of `a` that `b` rejects, of the class of `a`.

    One reachable product of `a`'s rows with `b`'s subset construction: a
    node (qa, S) pairs a state of `a` with the set of states `b` can be in,
    a move that `b` lacks leads to the empty set, and a node accepts when
    `qa` accepts and `S` holds no accepting state of `b`.  No completion of
    `b` is built, so no alphabet is too large for it.
    """
    a.alphabet.require_same(b.alphabet)
    rows_a, rows_b, fa, fb = a.adjacency, b.adjacency, a.accepting, b.accepting
    subset_rows: dict[frozenset[int], dict[int, frozenset[int]]] = {}
    none: frozenset[int] = frozenset()

    def moves(node):
        qa, states = node
        row = subset_rows.get(states)
        if row is None:  # the subset's moves, merged once per subset
            merged: dict[int, set[int]] = {}
            for q in states:
                for sym, dsts in rows_b.get(q, {}).items():
                    merged.setdefault(sym, set()).update(dsts)
            row = subset_rows[states] = {sym: frozenset(d) for sym, d in merged.items()}
        for sym, dsts in rows_a.get(qa, {}).items():
            nxt = row.get(sym, none)
            for dst in dsts:
                yield sym, (dst, nxt)

    b0 = frozenset(b.initial)
    return explore(
        type(a),
        a.alphabet,
        [(qa, b0) for qa in sorted(a.initial)],
        moves,
        lambda node: node[0] in fa and not node[1] & fb,
    )


# ---------------------------------------------------------------------------
# decision procedures


def is_empty(a: FiniteAutomaton) -> bool:
    return not (_reachable_states(a) & set(a.accepting))


def includes(a: FiniteAutomaton, b: FiniteAutomaton) -> bool:
    """L(a) included in L(b): L(a) minus L(b) is empty."""
    return is_empty(difference(a, b))


def equivalent(a: FiniteAutomaton, b: FiniteAutomaton) -> bool:
    return includes(a, b) and includes(b, a)


# ---------------------------------------------------------------------------
# small constructors and word utilities


def universal(alphabet: Alphabet) -> FiniteAutomaton:
    """Automaton accepting every finite word (alphabet must be enumerable)."""
    def moves(q):
        return ((sym, 0) for sym in alphabet.symbols())

    return explore(FiniteAutomaton, alphabet, [0], moves, lambda q: True)


def word_automaton(alphabet: Alphabet, word: Sequence[int]) -> FiniteAutomaton:
    n = len(word)

    def moves(i):
        return [(word[i], i + 1)] if i < n else []

    return explore(FiniteAutomaton, alphabet, [0], moves, lambda i: i == n)


def cut_lengths(a: FiniteAutomaton, lengths: Iterable[int]) -> FiniteAutomaton:
    """The words of `a` whose length is one of `lengths`: the reachable
    product of `a` with a length counter, of the class of `a`."""
    lengths = frozenset(lengths)
    top, rows = max(lengths, default=0), a.adjacency

    def moves(node):
        q, depth = node
        if depth < top:
            for sym, dsts in rows.get(q, {}).items():
                for dst in dsts:
                    yield sym, (dst, depth + 1)

    return explore(
        type(a),
        a.alphabet,
        [(q, 0) for q in sorted(a.initial)],
        moves,
        lambda node: node[0] in a.accepting and node[1] in lengths,
    )


def pick_word(a: FiniteAutomaton) -> tuple[int, ...] | None:
    """Canonical accepted word: shortest, then lexicographically least."""
    words = _shortest_words(a)
    hits = [words[q] for q in a.accepting if q in words]
    return min(hits, key=lambda w: (len(w), w), default=None)


#: `enumerate_words` gives up once it holds more words than this.
ENUMERATION_CAP = 200000


def enumerate_words(a: FiniteAutomaton, max_len: int) -> list[tuple[int, ...]]:
    """All accepted words of length <= max_len, sorted (oracle-scale sizes)."""
    out: list[tuple[int, ...]] = []
    frontier: dict[frozenset[int], list[tuple[int, ...]]] = {
        frozenset(a.initial): [()]
    }
    for length in range(max_len + 1):
        for states, words in frontier.items():
            if states & a.accepting:
                out.extend(words)
                if len(out) > ENUMERATION_CAP:
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
                    if len(bucket) > ENUMERATION_CAP:
                        raise InputError("word enumeration cap exceeded")
        frontier = nxt
    return sorted(out)
