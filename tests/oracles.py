"""Independent oracles and random-instance generators for the test suite.

Everything here recomputes expected results from first principles (word
enumeration, explicit graphs, naive refinement) without going through the
library's symbolic constructions, so that each check stays dual-route.
The one exception is `closure_loop_formula`, the paper's closure-based
emptiness formula, kept as a symbolic reference for the emptiness engine.
"""

from __future__ import annotations

import itertools
import random

from rmckit.alphabet import Alphabet
from rmckit.automata import FiniteAutomaton
from rmckit.omega import OmegaAutomaton, UltimatelyPeriodicWord
from rmckit.system import RegularSystem
from rmckit.transducer import Transducer


def naive_accepts(aut, word) -> bool:
    """Acceptance by direct frontier stepping on the raw transition set."""
    step = {}
    for src, sym, dst in aut.transitions:
        step.setdefault((src, sym), set()).add(dst)
    frontier = set(aut.initial)
    for sym in word:
        frontier = set().union(*(step.get((q, sym), set()) for q in frontier)) if frontier else set()
    return bool(frontier & set(aut.accepting))


def all_words(alphabet: Alphabet, max_len: int):
    for length in range(max_len + 1):
        yield from itertools.product(range(alphabet.size), repeat=length)


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
    from rmckit.gsp import _loopable_from_plus
    from rmckit.omega import _intersect, _is_empty
    from rmckit.system import reachable
    from rmckit.transducer import closure

    reach = reachable(msys.system, budget)
    plus = closure(msys.system.relation, "plus", budget)
    assert reach.converged and plus.converged
    core = _intersect(reach.automaton, msys.acceptance)
    return not _is_empty(_intersect(core, _loopable_from_plus(msys, plus)))


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


def random_dfa_complete(rng: random.Random, alphabet: Alphabet, max_states: int = 3) -> FiniteAutomaton:
    n = rng.randint(1, max_states)
    transitions = frozenset(
        (q, sym, rng.randrange(n)) for q in range(n) for sym in range(alphabet.size)
    )
    accepting = frozenset(q for q in range(n) if rng.random() < 0.5)
    return FiniteAutomaton(alphabet, n, frozenset({0}), accepting, transitions)


def random_sliced_system(rng: random.Random, n: int) -> RegularSystem:
    """Random finite-mode system already restricted to words of length n."""
    from rmckit.automata import exact_length, intersect, minimize, union, word_automaton
    from rmckit.system import slice_system, validate

    base = Alphabet.base(("A", "B"))
    words = list(itertools.product(range(base.size), repeat=n))
    chosen = [w for w in words if rng.random() < 0.4] or [words[0]]
    init = word_automaton(base, chosen[0])
    for w in chosen[1:]:
        init = union(init, word_automaton(base, w))
    init = minimize(intersect(init, exact_length(base, n)))
    rel = random_transducer(rng, base, max_states=4)
    system = RegularSystem(base, init, rel, "finite")
    return slice_system(validate(system), n)
