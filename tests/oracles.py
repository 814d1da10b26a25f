"""Independent oracles and random-instance generators for the test suite.

Everything here recomputes expected results from first principles (word
enumeration, explicit graphs, naive refinement) without going through the
library's symbolic constructions, so that each check stays dual-route.
There are two exceptions.  `closure_loop_formula`, the paper's
closure-based emptiness formula, is kept as a symbolic reference for the
emptiness engine.  `moore_minimize` is Moore's refinement, the algorithm
`minimize` used before partition refinement, kept as its reference; it
shares the subset construction and the quotient numbering with `minimize`,
and with `completion` it adds the sink as `determinize` does, so only the
refinement differs.  `inherently_weak_oracle` decides inherent weakness by
explicit cycle searches.  `naive_includes` is the on-the-fly inclusion
search that `automata.includes` used before it became the emptiness of
`automata.difference`, kept as its reference, and
`exact_length` builds the words of one length that `system.slice_system`
now cuts to with `cut_lengths`.  `relation_equal` and
`reflexive_check` are test helpers on top of `transducer.relation_includes`,
and `inverse` swaps the tracks of a relation through `automata.relabel`, the
reference for joins that read a relation on its output track; nothing in the
library uses them.  `project_components` drops alphabet components (the
alphabet left is `drop_components`) through `automata.relabel`; the tests
build expected languages with it, and it is the reference of the
simulation's diagonal, which the library takes by one `relabel` of T+.
`lasso_search` is the search of the runs on a lasso that
`omega.accepts_up_word` made by hand before it used `explore`, kept as its
reference.  `combination_value` evaluates and/or trees of verdict literals
for `losp.combine_verdicts`, which parses its combination from a string.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import replace

from rmckit.alphabet import Alphabet
from rmckit.automata import (
    FiniteAutomaton,
    _complete_dfa,
    _determinize_subsets,
    explore,
    relabel,
    strongly_connected_components,
)
from rmckit.errors import InputError
from rmckit.omega import OmegaAutomaton, UltimatelyPeriodicWord
from rmckit.system import HOLDS, UNKNOWN, VIOLATED, RegularSystem
from rmckit.transducer import Transducer, identity, relation_includes


def naive_accepts(aut, word) -> bool:
    """Acceptance by direct frontier stepping on the raw transition set."""
    step = {}
    for src, sym, dst in aut.transitions:
        step.setdefault((src, sym), set()).add(dst)
    frontier = set(aut.initial)
    for sym in word:
        frontier = set().union(*(step.get((q, sym), set()) for q in frontier)) if frontier else set()
    return bool(frontier & set(aut.accepting))


def moore_minimize(a: FiniteAutomaton, completion: bool = False) -> FiniteAutomaton:
    """`minimize` by Moore's refinement, which recomputes every state's
    signature each round until no class splits; with `completion`, the
    complete minimal DFA `determinize(minimize(a))`."""
    d = _determinize_subsets(a)
    n, delta, accepting = d.n_states, d.adjacency, d.accepting

    # Moore refinement with a virtual sink state `n` (rejecting, no moves);
    # moves into the sink's class are dropped from signatures so that a
    # missing move and an explicit dead move compare equal.
    sorted_rows: list[tuple[tuple[int, int], ...]] = [
        tuple(sorted((sym, dst) for sym, (dst,) in delta.get(q, {}).items())) for q in range(n)
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

    # the quotient over the live classes, numbered from the initial class;
    # states of one class agree on their live moves, so one representative
    # per class gives its row
    dead = cls[n]
    representative: dict[int, int] = {}
    for q in range(n):
        representative.setdefault(cls[q], q)
    accepting_classes = {cls[q] for q in accepting}

    def moves(c):
        for sym, dst in sorted_rows[representative[c]]:
            if cls[dst] != dead:
                yield sym, cls[dst]

    quotient = explore(
        FiniteAutomaton,
        a.alphabet,
        [cls[0]] if cls[0] != dead else [],
        moves,
        accepting_classes.__contains__,
    )
    return _complete_dfa(quotient) if completion else quotient


def all_words(alphabet: Alphabet, max_len: int):
    for length in range(max_len + 1):
        yield from itertools.product(range(alphabet.size), repeat=length)


def naive_includes(a: FiniteAutomaton, b: FiniteAutomaton) -> bool:
    """L(a) included in L(b), by a depth-first search over pairs (state of
    `a`, subset of `b`) that stops at the first pair accepting in `a` and
    not in `b`; no completion is built."""
    a.alphabet.require_same(b.alphabet)
    b0 = frozenset(b.initial)
    seen = {(qa, b0) for qa in a.initial}
    stack = list(seen)
    while stack:
        qa, bs = stack.pop()
        if qa in a.accepting and not (bs & b.accepting):
            return False
        for sym, dsts in a.adjacency.get(qa, {}).items():
            nxt = b.step(bs, sym)
            for qa2 in dsts:
                if (qa2, nxt) not in seen:
                    seen.add((qa2, nxt))
                    stack.append((qa2, nxt))
    return True


def exact_length(alphabet: Alphabet, n: int) -> FiniteAutomaton:
    """All words of exactly length n."""

    def moves(i):
        return [(sym, i + 1) for sym in alphabet.symbols()] if i < n else []

    return explore(FiniteAutomaton, alphabet, [0], moves, lambda i: i == n)


def language_upto(aut, max_len: int) -> set[tuple[int, ...]]:
    return {tuple(w) for w in all_words(aut.alphabet, max_len) if naive_accepts(aut, w)}


def relation_pairs_upto(t: Transducer, max_len: int) -> set[tuple[tuple, tuple]]:
    """All accepted (input, output) word pairs up to a length bound."""
    size = t.base.size
    out = set()
    for length in range(max_len + 1):
        for w1 in itertools.product(range(size), repeat=length):
            for w2 in itertools.product(range(size), repeat=length):
                pair = tuple(a * size + b for a, b in zip(w1, w2))
                if naive_accepts(t.inner, pair):
                    out.add((w1, w2))
    return out


def relation_equal(t1: Transducer, t2: Transducer) -> bool:
    """Equal relation languages: inclusion both ways."""
    return relation_includes(t1, t2) and relation_includes(t2, t1)


def reflexive_check(t: Transducer) -> bool:
    """Reflexive iff the identity language is included in L(t)."""
    return relation_includes(t, identity(t.base, t.mode))


def inverse(t: Transducer) -> Transducer:
    """Swap the letter components (represents the inverse relation)."""
    size = t.base.size
    return Transducer(
        relabel(t.inner, t.inner.alphabet, lambda sym: ((sym % size) * size + sym // size,))
    )


def drop_components(alphabet: Alphabet, drop) -> Alphabet:
    """Alphabet without the given 0-based components."""
    keep = [c for i, c in enumerate(alphabet.components) if i not in set(drop)]
    if not keep:
        raise InputError("cannot drop every component")
    return Alphabet(tuple(keep))


def project_components(a: FiniteAutomaton, drop) -> FiniteAutomaton:
    """Projection dropping the given 0-based alphabet components."""
    dropset = set(drop)
    for i in dropset:
        if not (0 <= i < a.alphabet.arity):
            raise InputError(f"component index {i} out of range")
    if len(dropset) >= a.alphabet.arity:
        raise InputError("cannot project away every component")
    target = drop_components(a.alphabet, sorted(dropset))

    def kept(sym):
        parts = a.alphabet.parts(sym)
        return (target.symbol([p for i, p in enumerate(parts) if i not in dropset]),)

    return relabel(a, target, kept)


def compose_pairs(p1: set, p2: set) -> set:
    """Relational composition of explicit pair sets (apply p1, then p2)."""
    by_mid: dict[tuple, set[tuple]] = {}
    for a, b in p1:
        by_mid.setdefault(b, set()).add(a)
    out = set()
    for b, c in p2:
        for a in by_mid.get(b, ()):
            out.add((a, c))
    return out


def lasso_search(a: OmegaAutomaton, w: UltimatelyPeriodicWord) -> bool:
    """Buchi acceptance of a lasso word by a search of the runs on it: a
    node (state, position) is numbered state * (|prefix| + |period|) +
    position, and some run accepts iff a reachable SCC with a cycle holds a
    node of an accepting state."""
    size = a.alphabet.size
    for sym in w.prefix + w.period:
        if not (0 <= sym < size):
            raise InputError(f"symbol {sym} not in alphabet")
    p, k = len(w.prefix), len(w.period)
    total = p + k

    def succ(node: int):
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


def inherently_weak_oracle(a: OmegaAutomaton) -> bool:
    """`is_inherently_weak` by explicit searches: no reachable accepting
    state on a cycle shares a component with a rejecting state on a cycle
    of rejecting states.  A state is on a cycle when a search from its
    successors gets back to it; for a rejecting state the search steps
    through rejecting states only."""
    step: dict[int, set[int]] = {}
    for src, _, dst in a.transitions:
        step.setdefault(src, set()).add(dst)

    def reach(starts, allowed=lambda q: True) -> set[int]:
        seen = {q for q in starts if allowed(q)}
        stack = list(seen)
        while stack:
            for dst in step.get(stack.pop(), ()):
                if dst not in seen and allowed(dst):
                    seen.add(dst)
                    stack.append(dst)
        return seen

    def rejecting(q):
        return q not in a.accepting

    reachable = reach(a.initial)
    forward = {q: reach(step.get(q, ())) for q in range(a.n_states)}
    on_accepting_cycle = [q for q in reachable if q in a.accepting and q in forward[q]]
    on_rejecting_cycle = [
        q for q in reachable if rejecting(q) and q in reach(step.get(q, ()), rejecting)
    ]
    return not any(
        r in forward[q] and q in forward[r] for q in on_accepting_cycle for r in on_rejecting_cycle
    )


def lasso_accepts_deterministic(aut: OmegaAutomaton, w: UltimatelyPeriodicWord) -> bool:
    """Buchi acceptance of a lasso word on a deterministic complete automaton,
    by running until the period phase repeats a state."""
    delta = {}
    for src, sym, dst in aut.transitions:
        assert (src, sym) not in delta, "oracle needs a deterministic automaton"
        delta[(src, sym)] = dst
    (state,) = aut.initial
    for sym in w.prefix:
        state = delta[(state, sym)]
    seen = {}
    visited_on_cycle: list[int] = []
    step = 0
    while state not in seen:
        seen[state] = step
        for sym in w.period:
            state = delta[(state, sym)]
        step += 1
    # states visited during one more traversal from the repeated state
    cycle_states = set()
    s = state
    while True:
        cycle_states.add(s)
        for sym in w.period:
            s = delta[(s, sym)]
            cycle_states.add(s)
        if s == state:
            break
    del visited_on_cycle
    return bool(cycle_states & set(aut.accepting))


def weak_dba_difference(a: OmegaAutomaton, b: OmegaAutomaton) -> OmegaAutomaton:
    """L(a) minus L(b) for two weak DBAs over one alphabet, as the explicit
    product of the two, each completed with a rejecting sink (None): a pair
    state accepts iff its `a` state accepts and its `b` state does not.  A
    run settles in one SCC of each weak automaton, where acceptance is
    uniform, so the product accepts the words that `a` accepts and `b` does
    not."""

    def step_map(aut: OmegaAutomaton) -> dict:
        delta = {}
        for src, sym, dst in aut.transitions:
            assert (src, sym) not in delta, "oracle needs deterministic automata"
            delta[(src, sym)] = dst
        return delta

    delta_a, delta_b = step_map(a), step_map(b)
    (qa,), (qb,) = a.initial, b.initial
    start = (qa, qb)
    ids = {start: 0}
    frontier = [start]
    transitions = set()
    while frontier:
        pa, pb = pair = frontier.pop()
        for sym in range(a.alphabet.size):
            succ = (delta_a.get((pa, sym)), delta_b.get((pb, sym)))
            if succ not in ids:
                ids[succ] = len(ids)
                frontier.append(succ)
            transitions.add((ids[pair], sym, ids[succ]))
    accepting = frozenset(
        i for (pa, pb), i in ids.items() if pa in a.accepting and pb not in b.accepting
    )
    return OmegaAutomaton(a.alphabet, len(ids), frozenset({0}), accepting, frozenset(transitions))


def tarjan(nodes, succ):
    """Local SCC computation (kept separate from the library's)."""
    index = {}
    low = {}
    stack = []
    on_stack = set()
    out = []
    counter = itertools.count()

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(succ(root)))]
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
                    work.append((w, iter(succ(w))))
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
                out.append(comp)
    return out


# ---------------------------------------------------------------------------
# explicit-state model checking oracles


def explicit_words(system: RegularSystem, n: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(system.alphabet.size), repeat=n))


def word_graph(system: RegularSystem, n: int):
    """Explicit initial set and step relation on all words of length n."""
    from rmckit.transducer import accepts_pair

    words = explicit_words(system, n)
    initial = [w for w in words if naive_accepts(system.initial, w)]
    edges = {
        w: [v for v in words if accepts_pair(system.relation, w, v)] for w in words
    }
    return words, initial, edges


def gsp_violation_oracle(system: RegularSystem, n: int, neg_aut, cops) -> bool:
    """Explicit Buchi emptiness of (word graph) x (negated property).

    True iff some infinite execution's cop trace is accepted, i.e. the
    property is violated on the slice.
    """
    words, initial, edges = word_graph(system, n)
    mask_of = {}
    for w in words:
        mask = 0
        for i, cop in enumerate(cops):
            if naive_accepts(cop.automaton, w):
                mask |= 1 << i
        mask_of[w] = mask
    nsucc = {}
    for src, sym, dst in neg_aut.transitions:
        nsucc.setdefault((src, sym), []).append(dst)

    nodes = []
    start = []
    for w in initial:
        for q0 in neg_aut.initial:
            start.append((w, q0))
    seen = set(start)
    stack = list(start)
    succ_map = {}
    while stack:
        w, q = stack.pop()
        outs = []
        for v in edges[w]:
            for q2 in nsucc.get((q, mask_of[w]), ()):
                outs.append((v, q2))
        succ_map[(w, q)] = outs
        for node in outs:
            if node not in seen:
                seen.add(node)
                stack.append(node)
    nodes = sorted(seen)
    comps = tarjan(nodes, lambda x: succ_map.get(x, []))
    accepting = set(neg_aut.accepting)
    for comp in comps:
        members = set(comp)
        has_cycle = len(comp) > 1 or any(
            x in members and x == comp[0] for x in succ_map.get(comp[0], [])
        )
        if has_cycle and any(q in accepting for (_w, q) in comp):
            return True
    return False


def closure_loop_formula(msys, budget: int) -> bool:
    """Whether reachable cap acceptance cap loopable is nonempty, where a word
    is loopable iff (w, w) is in the transitive closure T+ of the relation.

    Both fixpoints must converge for the answer to be exact.
    """
    from rmckit.simulation import _loopable_from_plus
    from rmckit.omega import _intersect, _is_empty
    from rmckit.system import reachable
    from rmckit.transducer import closure

    reach = reachable(msys.system, budget)
    plus = closure(msys.system.relation, "plus", budget)
    assert reach.converged and plus.converged
    core = _intersect(reach.automaton, msys.acceptance)
    return not _is_empty(_intersect(core, _loopable_from_plus(msys, plus)))


def up_words(
    alphabet: Alphabet, max_prefix: int, max_period: int
) -> list[UltimatelyPeriodicWord]:
    """Every ultimately periodic word with a prefix of at most `max_prefix`
    and a period of at most `max_period` letters, once each.

    A word is kept in its canonical form: the period is primitive, and the
    prefix does not end with the period's last letter (u a (v a)^w is
    u (a v)^w), so two forms of one word are one node of a graph.
    """
    out = set()
    for p, q in itertools.product(range(max_prefix + 1), range(1, max_period + 1)):
        for prefix in itertools.product(range(alphabet.size), repeat=p):
            for period in itertools.product(range(alphabet.size), repeat=q):
                root = next(
                    period[:d] for d in range(1, q + 1) if period == period[:d] * (q // d)
                )
                stem = prefix
                while stem and stem[-1] == root[-1]:
                    stem, root = stem[:-1], root[-1:] + root[:-1]
                out.add((stem, root))
    return [UltimatelyPeriodicWord(prefix, period) for prefix, period in sorted(out)]


def omega_lasso_oracle(msys, max_prefix: int = 2, max_period: int = 3) -> bool:
    """Whether an accepting lasso exists among small ultimately periodic words.

    The configurations are the words of `up_words`; a step is a pair that the
    relation accepts.  True iff some cycle reachable from an initial word
    visits an accepting word.  A True answer is a real accepting execution;
    False only says that none stays within the bound.  The initial and
    acceptance automata must be deterministic.
    """
    from rmckit.transducer import accepts_pair

    system = msys.system
    words = up_words(system.alphabet, max_prefix, max_period)
    stack = [w for w in words if lasso_accepts_deterministic(system.initial, w)]
    edges = {w: None for w in stack}
    while stack:
        w = stack.pop()
        edges[w] = [v for v in words if accepts_pair(system.relation, w, v)]
        for v in edges[w]:
            if v not in edges:
                edges[v] = None
                stack.append(v)
    for comp in tarjan([w for w in words if w in edges], lambda w: edges[w]):
        cyclic = len(comp) > 1 or comp[0] in edges[comp[0]]
        if cyclic and any(lasso_accepts_deterministic(msys.acceptance, w) for w in comp):
            return True
    return False


def losp_violation_oracle(system: RegularSystem, n: int, losp_neg, leps) -> bool:
    """Explicit generalized-Buchi check over per-position automaton products.

    For every labelling accepted by the negated losp automaton, looks for an
    execution whose position runs satisfy exactly the labelled properties;
    tracked with one acceptance family per (position, property).
    """
    words, initial, edges = word_graph(system, n)
    if not initial:
        return False
    k = len(leps)
    for labelling in itertools.product(range(1 << k), repeat=n):
        if not naive_accepts(losp_neg, labelling):
            continue
        if _labelling_realizable(words, initial, edges, labelling, leps, n):
            return True
    return False


def _labelling_realizable(words, initial, edges, labelling, leps, n) -> bool:
    k = len(leps)
    trans = []
    inits = []
    accs = []
    for i in range(k):
        aut = leps[i].automaton
        naut = leps[i].complement_automaton
        trans.append(
            (
                _step_map(aut),
                _step_map(naut),
            )
        )
        inits.append((sorted(aut.initial), sorted(naut.initial)))
        accs.append((set(aut.accepting), set(naut.accepting)))

    def tracked(j, i):
        return 0 if labelling[j] >> i & 1 else 1

    start_nodes = []
    for w in initial:
        combos = [
            inits[i][tracked(j, i)]
            for j in range(n)
            for i in range(k)
        ]
        for states in itertools.product(*combos):
            start_nodes.append((w, states))
    seen = set(start_nodes)
    stack = list(start_nodes)
    succ_map = {}
    while stack:
        node = stack.pop()
        w, states = node
        outs = []
        for v in edges[w]:
            choices = []
            idx = 0
            for j in range(n):
                for i in range(k):
                    tmap = trans[i][tracked(j, i)]
                    choices.append(tmap.get((states[idx], w[j]), ()))
                    idx += 1
            for nxt in itertools.product(*choices):
                outs.append((v, nxt))
        succ_map[node] = outs
        for m in outs:
            if m not in seen:
                seen.add(m)
                stack.append(m)
    comps = tarjan(sorted(seen), lambda x: succ_map.get(x, []))
    for comp in comps:
        members = set(comp)
        has_cycle = len(comp) > 1 or comp[0] in succ_map.get(comp[0], [])
        if not has_cycle:
            continue
        # every (position, property) family must be visited inside the SCC
        ok = True
        for j in range(n):
            for i in range(k):
                fam = accs[i][tracked(j, i)]
                idx = j * k + i
                if not any(states[idx] in fam for (_w, states) in members):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def _step_map(aut) -> dict:
    out: dict[tuple[int, int], tuple[int, ...]] = {}
    for src, sym, dst in aut.transitions:
        out.setdefault((src, sym), ())
        out[(src, sym)] = out[(src, sym)] + (dst,)
    return out


# ---------------------------------------------------------------------------
# random generators


def random_nfa(rng: random.Random, alphabet: Alphabet, max_states: int = 6) -> FiniteAutomaton:
    n = rng.randint(1, max_states)
    n_trans = rng.randint(0, 3 * n)
    transitions = {
        (rng.randrange(n), rng.randrange(alphabet.size), rng.randrange(n))
        for _ in range(n_trans)
    }
    initial = {rng.randrange(n)}
    if rng.random() < 0.3:
        initial.add(rng.randrange(n))
    accepting = {q for q in range(n) if rng.random() < 0.4}
    return FiniteAutomaton(
        alphabet, n, frozenset(initial), frozenset(accepting), frozenset(transitions)
    )


def random_partial_dfa(rng: random.Random, alphabet: Alphabet, max_states: int = 6) -> FiniteAutomaton:
    """Deterministic, usually partial, with any state initial.

    The moves use at most four letters, drawn once per automaton, so that
    the states of a wide alphabet still share letters.
    """
    n = rng.randint(1, max_states)
    letters = rng.sample(range(alphabet.size), min(4, alphabet.size))
    transitions = frozenset(
        (q, sym, rng.randrange(n)) for q in range(n) for sym in letters if rng.random() < 0.6
    )
    accepting = frozenset(q for q in range(n) if rng.random() < 0.4)
    return FiniteAutomaton(alphabet, n, frozenset({rng.randrange(n)}), accepting, transitions)


def random_dense_nfa(
    rng: random.Random, alphabet: Alphabet, max_states: int = 6, density: float = 0.7
) -> FiniteAutomaton:
    """Nondeterministic, with most moves present: each state has a move on
    each letter with probability `density`, to one or two states, and about
    half the states accept, so its products and differences are mostly
    nonempty (unlike those of `random_nfa`, which draws at most 3n moves)."""
    n = rng.randint(2, max_states)
    transitions = frozenset(
        (q, sym, dst)
        for q in range(n)
        for sym in range(alphabet.size)
        if rng.random() < density
        for dst in rng.sample(range(n), rng.randint(1, 2))
    )
    initial = frozenset(rng.sample(range(n), rng.randint(1, 2)))
    accepting = frozenset(q for q in range(n) if rng.random() < 0.5)
    return FiniteAutomaton(alphabet, n, initial, accepting, transitions)


def reordered(a: FiniteAutomaton, rng: random.Random) -> FiniteAutomaton:
    """An automaton equal to `a` whose transition set and `adjacency` iterate
    in other orders.  The moves are inserted shuffled into a set that held
    filler first, and the rows and their symbols are shuffled, as rows that
    `explore` hands over come in discovery order."""
    moves = list(a.transitions)
    rng.shuffle(moves)
    filler = {(-1, -1, i) for i in range(rng.choice((8, 64, 512, 4096)))}
    rebuilt = set(filler)
    rebuilt.update(moves)
    out = replace(a, transitions=frozenset(rebuilt - filler))
    rows = [(q, list(row.items())) for q, row in out.adjacency.items()]
    rng.shuffle(rows)
    for _, items in rows:
        rng.shuffle(items)
    out.__dict__["adjacency"] = {q: dict(items) for q, items in rows}
    return out


def random_transducer(rng: random.Random, base: Alphabet, max_states: int = 4) -> Transducer:
    pair = Alphabet.product(base, base)
    return Transducer(random_nfa(rng, pair, max_states))


def random_weak_dba(rng: random.Random, alphabet: Alphabet, max_states: int = 6) -> OmegaAutomaton:
    """Deterministic complete automaton with per-SCC random acceptance."""
    n = rng.randint(1, max_states)
    transitions = frozenset(
        (q, sym, rng.randrange(n)) for q in range(n) for sym in range(alphabet.size)
    )
    plain = OmegaAutomaton(
        alphabet, n, frozenset({rng.randrange(n)}), frozenset(), transitions
    )
    accepting: set[int] = set()
    for comp in plain.sccs:
        if rng.random() < 0.5:
            accepting.update(comp)
    return OmegaAutomaton(
        alphabet, n, plain.initial, frozenset(accepting), transitions
    )


def random_layered_weak_dba(
    rng: random.Random, alphabet: Alphabet, max_blocks: int = 8, max_block: int = 3
) -> OmegaAutomaton:
    """Complete weak DBA made of a chain of blocks, each with one acceptance.

    Moves stay in their block or go to a later one, and the acceptance of
    consecutive blocks mostly alternates, so runs can change acceptance many
    times before they settle.  Every state is then doubled and each move picks
    one of the two copies of its target at random: the copies are
    omega-equivalent, so minimization has redundant states to merge.
    """
    sizes = [rng.randint(1, max_block) for _ in range(rng.randint(1, max_blocks))]
    starts = list(itertools.accumulate([0] + sizes))
    n = starts[-1]
    block_of = [b for b, size in enumerate(sizes) for _ in range(size)]
    block_accepting = [rng.random() < 0.5]
    for _ in sizes[1:]:
        block_accepting.append(block_accepting[-1] != (rng.random() < 0.8))

    def target(q: int) -> int:
        b = block_of[q]
        if b + 1 < len(sizes) and rng.random() < 0.4:
            b = rng.choice([b + 1, b + 1, rng.randrange(b + 1, len(sizes))])
        return starts[b] + rng.randrange(sizes[b])

    transitions = frozenset(
        (q + copy * n, sym, target(q) + rng.randrange(2) * n)
        for copy in range(2)
        for q in range(n)
        for sym in range(alphabet.size)
    )
    accepting = frozenset(
        q + copy * n for copy in range(2) for q in range(n) if block_accepting[block_of[q]]
    )
    return OmegaAutomaton(alphabet, 2 * n, frozenset({0}), accepting, transitions)


def max_parity_colour(aut: OmegaAutomaton) -> int:
    """Largest colour of the parity colouring of a weak automaton's SCCs.

    A component's colour is the largest colour of the components it reaches,
    plus one if it is cyclic and that colour's parity (even = accepting)
    disagrees with its acceptance.
    """
    succ: dict[int, set[int]] = {q: set() for q in range(aut.n_states)}
    for src, _sym, dst in aut.transitions:
        succ[src].add(dst)
    comps = tarjan(range(aut.n_states), lambda q: sorted(succ[q]))
    comp_of = {q: i for i, comp in enumerate(comps) for q in comp}
    colour: list[int] = []
    for i, comp in enumerate(comps):  # Tarjan lists successors first
        below = {comp_of[d] for q in comp for d in succ[q]} - {i}
        c = max((colour[j] for j in below), default=0)
        cyclic = len(comp) > 1 or comp[0] in succ[comp[0]]
        if cyclic and (c % 2 == 0) != (comp[0] in aut.accepting):
            c += 1
        colour.append(c)
    return max(colour)


def random_dfa_complete(rng: random.Random, alphabet: Alphabet, max_states: int = 3) -> FiniteAutomaton:
    n = rng.randint(1, max_states)
    transitions = frozenset(
        (q, sym, rng.randrange(n)) for q in range(n) for sym in range(alphabet.size)
    )
    accepting = frozenset(q for q in range(n) if rng.random() < 0.5)
    return FiniteAutomaton(alphabet, n, frozenset({0}), accepting, transitions)


def random_complete_nba(rng: random.Random, alphabet: Alphabet, max_states: int = 3) -> OmegaAutomaton:
    """Complete, usually nondeterministic Buchi automaton with one or two
    initial states: every state moves on every letter to one or two states."""
    n = rng.randint(1, max_states)
    transitions = frozenset(
        (q, sym, dst)
        for q in range(n)
        for sym in range(alphabet.size)
        for dst in rng.sample(range(n), rng.randint(1, min(2, n)))
    )
    initial = frozenset(rng.sample(range(n), rng.randint(1, min(2, n))))
    accepting = frozenset(q for q in range(n) if rng.random() < 0.5)
    return OmegaAutomaton(alphabet, n, initial, accepting, transitions)


def random_sliced_system(rng: random.Random, n: int) -> RegularSystem:
    """Random finite-mode system already restricted to words of length n."""
    from rmckit.automata import determinize, intersect, minimize, union, word_automaton
    from rmckit.system import slice_system, validate

    base = Alphabet.base(("A", "B"))
    words = list(itertools.product(range(base.size), repeat=n))
    chosen = [w for w in words if rng.random() < 0.4] or [words[0]]
    init = word_automaton(base, chosen[0])
    for w in chosen[1:]:
        init = union(init, word_automaton(base, w))
    init = minimize(intersect(init, exact_length(base, n)))
    rel = random_transducer(rng, base, max_states=4)
    sliced = slice_system(validate(RegularSystem(init, rel)), n)
    # completed: the sweep benchmark serializes these draws, and its inputs stay fixed
    return RegularSystem(determinize(sliced.initial), sliced.relation)


def random_unsliced_system(rng: random.Random, lo: int = 2, hi: int = 6) -> RegularSystem:
    """Random finite-mode system over words of several lengths, not sliced.

    The initial set is a random complete DFA cut to the lengths lo..hi,
    drawn again until it has words of at least two lengths.  The relation
    is a random transducer plus a planted cycle for each length with
    initial words: one initial word w steps to a word u1, and u1 .. uk step
    round a cycle, all of w's length, so every slice with an initial word
    has an infinite execution whatever the random part draws.
    """
    from rmckit.automata import cut_lengths, determinize, minimize, union, word_automaton
    from rmckit.system import validate

    base = Alphabet.base(("A", "B"))
    words: list[tuple[int, ...]] = []
    while len({len(w) for w in words}) < 2:
        init = determinize(
            minimize(cut_lengths(random_dfa_complete(rng, base, 4), range(lo, hi + 1)))
        )
        words = sorted(language_upto(init, hi))
    rel = random_transducer(rng, base, max_states=4).inner
    for n in sorted({len(w) for w in words}):
        w = rng.choice([w for w in words if len(w) == n])
        cycle = [tuple(rng.randrange(base.size) for _ in w) for _ in range(rng.randint(1, 3))]
        for a, b in [(w, cycle[0])] + list(zip(cycle, cycle[1:] + cycle[:1])):
            pair = [x * base.size + y for x, y in zip(a, b)]
            rel = union(rel, word_automaton(rel.alphabet, pair))
    return validate(RegularSystem(init, Transducer(rel)))


# ---------------------------------------------------------------------------
# verdict combinations: a tree is a literal name or (op, left, right)

_RANK = {VIOLATED: 0, UNKNOWN: 1, HOLDS: 2}


def combination_value(tree, statuses: dict[str, str]) -> tuple[str, str | None]:
    """Kleene's strong three-valued value of an and/or tree, with violated <
    unknown < holds (`&` is the minimum, `|` the maximum), and for a violated
    value the literal that decides its leftmost violated operand."""
    if isinstance(tree, str):
        return statuses[tree], tree
    op, left, right = tree
    x, y = combination_value(left, statuses), combination_value(right, statuses)
    status = (min if op == "&" else max)(x[0], y[0], key=_RANK.__getitem__)
    if status != VIOLATED:
        return status, None
    return status, (x if x[0] == VIOLATED else y)[1]


def random_combination(rng: random.Random, literals, depth: int):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(literals)
    left, right = (random_combination(rng, literals, depth - 1) for _ in range(2))
    return rng.choice("&|"), left, right


def render_combination(tree, rng: random.Random, extra_parens: bool) -> str:
    """The tree as text: parentheses where precedence (`&` over `|`) and left
    association need them, and with `extra_parens` at random elsewhere too."""
    if isinstance(tree, str):
        return tree
    op, left, right = tree

    def side(sub, is_right: bool) -> str:
        text = render_combination(sub, rng, extra_parens)
        needed = not isinstance(sub, str) and (
            (sub[0] == "|" and op == "&") or (is_right and sub[0] == op)
        )
        if needed or (extra_parens and rng.random() < 0.4):
            return f"({text})"
        return text

    space = rng.choice(["", " ", "  ", "\t"])
    return f"{side(left, False)}{space}{op}{space}{side(right, True)}"
