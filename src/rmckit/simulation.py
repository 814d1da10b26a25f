"""Symbolic greatest-simulation computation over augmented systems.

The greatest simulation compatible with the declared state properties is the
limit of a decreasing transducer sequence: the initial relation pairs
equal-length words with equal cop sets, and each refinement removes pairs
whose moves cannot be matched.  A refinement step is derived from relation
composition and difference with the step relation T:

    G    = T o Sim^-1        (w2, w3): w2 steps to a word that simulates w3
    Bad  = T o (not G)^-1    (w1, w2): w1 has a move that w2 cannot match
    Sim' = Sim minus Bad

Sim^-1 and (not G)^-1 are never built: each composition joins the output
track of T with the output track of the other relation (`transducer._join`).
The refinement runs on the fixpoint driver `omega._fixpoint`, as a
shrinking run that converges when one step leaves the relation unchanged.

Every question asked of the relation is about reachable words, so the
fixpoint and the closures run inside a T-closed set W, T(W) contained in W:
the reachable set R when it converged, else every word.  The simulation
game started in W x W never leaves it, so the greatest simulation on W x W
is the global one restricted to W x W; for the same reason the strict
closure of T cap (W x W) is T+ cap (W x W).  The initial relation is built
inside W x W, T is cut to it, and not G is its difference with G: no
relation is completed over the pair alphabet.  `_space` chooses W once per
check, and on all pairs over more than `COMPLETION_CAP` letter pairs in
finite mode it gives that cap as the reason no refinement step runs.
`sim_fixpoint` and `validate_candidate` judge in the space it builds and
hand it on in their result, and `check_emptiness_sim` asks only about pairs
in its W x W.  Budget-exhausted over-approximations are never used to
report Holds.

The cops are over the leading components of the augmented alphabet, so a
cop reads the letter `sym` as `sym // radix`, and `gsp._verdicts` gives the
cop mask.  The words w with (w, w) in T+ are one `automata.relabel` of T+
that keeps its diagonal letters.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Sequence

from .alphabet import Alphabet
from .automata import (
    FiniteAutomaton,
    _require_completable,
    _sync_symbols,
    explore,
    product_general,
    relabel,
    universal,
)
from .errors import AlphabetCapExceeded, AlphabetMismatch, InputError, NonWeakResult
from .gsp import StateProperty, _check_cops, _extract_lasso, _verdicts
from .omega import _canon, _difference, _fixpoint, _intersect, _pick, omega_universal
from .system import BuchiRegularSystem, RegularSystem, Verdict, _reach_layers, replay_lasso
from .transducer import (
    OMEGA,
    Transducer,
    _join,
    _require_same_base,
    closure,
    preimage,
    relation_includes,
)


#: The reachability budget of `validate_candidate`, the engines' default.
DEFAULT_BUDGET = 64


@dataclass(frozen=True)
class _Space:
    """Where a simulation check runs (`_space`): the reach `layers` and set
    `reach` of `system`, or `lost`, why there is no reach; the T-closed
    `words` W, R when it is `closed` and every word otherwise, their
    `square` W x W and `relation`, T cut to it; and `capped`, why no
    refinement step runs there."""

    system: RegularSystem
    layers: tuple
    reach: FiniteAutomaton | None
    words: FiniteAutomaton
    square: FiniteAutomaton
    relation: Transducer
    closed: bool
    lost: str | None = None
    capped: str | None = None


@dataclass(frozen=True)
class SimRelation:
    """Iterate of the decreasing simulation sequence (exact once a fixpoint).

    `reason` says why an inexact `sim_fixpoint` result stopped, at the
    completion cap or the budget, and is None otherwise; `space` is where
    the iterate was computed.
    """

    relation: Transducer
    iteration_index: int
    exact: bool
    reason: str | None = None
    space: _Space | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SimCandidate:
    """Externally supplied under-approximation, usable only once validated;
    `space` is the reachable space it was judged in."""

    relation: Transducer
    validated: bool
    space: _Space | None = field(default=None, compare=False, repr=False)


def sim_init(
    msys: BuchiRegularSystem,
    cops: Sequence[StateProperty],
    within: FiniteAutomaton | None = None,
) -> SimRelation:
    """Initial relation: the same-length pairs of words of R whose
    projections have equal cop sets, R being `within` or every word.

    One product of R's rows, read once per track, with the cop automata on
    both words: a node (r1, r2, left cop states, right cop states) moves on
    the pair letter a * |Sigma| + b for each move of r1 on a and each move
    of r2 on b, and accepts when r1 and r2 accept and the cop sets agree.
    The cops must pass `gsp._check_cops` over the leading components of
    Sigma, so that the base letter of a letter `sym` is `sym // radix`.
    """
    m = msys.system
    sigma_a = m.alphabet
    if within is None:
        within = _every_word(sigma_a, m)
    radix = 1
    if cops:
        base = cops[0].automaton.alphabet
        if sigma_a.components[: base.arity] != base.components:
            raise AlphabetMismatch("state property alphabet is not a prefix of the system's")
        _check_cops(cops, base, m.mode)
        radix = sigma_a.size // base.size
    bases = [sym // radix for sym in sigma_a.symbols()]
    deltas = [c.automaton.adjacency for c in cops]  # complete and deterministic
    q0 = tuple(next(iter(c.automaton.initial)) for c in cops)
    successors: dict[tuple, list[tuple]] = {}

    def step(states: tuple) -> list[tuple]:
        """The cop states after each letter, from `states`; computed once."""
        out = successors.get(states)
        if out is None:
            rows = [delta[q] for delta, q in zip(deltas, states)]
            out = successors[states] = [tuple(row[a][0] for row in rows) for a in bases]
        return out

    size, rows_r, fr = sigma_a.size, within.adjacency, within.accepting

    def moves(node):
        r1, r2, left, right = node
        row2 = rows_r.get(r2, {})
        lefts, rights = step(left), step(right)
        for a, d1s in rows_r.get(r1, {}).items():
            left2, first = lefts[a], a * size
            for b, d2s in row2.items():
                right2 = rights[b]
                for d1 in d1s:
                    for d2 in d2s:
                        yield first + b, (d1, d2, left2, right2)

    inner = explore(
        type(m.relation.inner),
        Alphabet.product(sigma_a, sigma_a),
        [(r1, r2, q0, q0) for r1, r2 in sorted(itertools.product(within.initial, repeat=2))],
        moves,
        lambda node: node[0] in fr
        and node[1] in fr
        and _verdicts(cops, node[2]) == _verdicts(cops, node[3]),
    )
    return SimRelation(Transducer(_canon(inner)), 0, False)


def sim_step(
    s: SimRelation, t: Transducer, universe: FiniteAutomaton | None = None
) -> SimRelation:
    """One refinement: drop pairs with an unmatched move.

    Removed are pairs (w1, w2) such that some successor w3 of w1 has no
    counterpart w4 of w2 with (w3, w4) still related:
    G = T o Sim^-1, Bad = T o (not G)^-1 and Sim' = Sim minus Bad.
    `universe` is the set of pairs the relations live in, W x W for a
    T-closed W with T and Sim inside it, and all pairs by default
    (`_all_pairs`, which in finite mode stops at the completion cap); not G
    is its difference with G, so no relation is completed.
    """
    _require_same_base(t, s.relation)
    # G(w2, w3) = exists w4: (w2, w4) in T and (w3, w4) in Sim
    g = _join(t.inner, s.relation, 1)
    not_g = _difference(_all_pairs(t) if universe is None else universe, g)
    # Bad(w1, w2) = exists w3: (w1, w3) in T and not G(w2, w3)
    bad = _join(t.inner, Transducer(not_g), 1)
    refined = _difference(s.relation.inner, bad)
    return SimRelation(Transducer(_canon(refined)), s.iteration_index + 1, False, space=s.space)


def sim_fixpoint(
    msys: BuchiRegularSystem,
    cops: Sequence[StateProperty],
    budget: int = DEFAULT_BUDGET,
) -> SimRelation:
    """Iterate refinement until a fixpoint or the budget runs out.

    The initial relation, T and not G all live in the square W x W of the
    space `_space` builds from reachability within the budget, which every
    result carries: with R converged, W = R and the result is the greatest
    simulation on reachable words.  Terminates exactly on systems with a
    finite-index simulation; a budget-exhausted result is an
    over-approximation usable only as "not yet refuted", never to conclude
    emptiness, and says so in its `reason`.  A space with a `capped` reason
    runs no step: the initial relation comes back inexact, with that reason.
    """
    space = _space(msys.system, budget)
    sim = replace(sim_init(msys, cops, within=space.words), space=space)
    if space.capped is not None:
        return replace(sim, reason=space.capped)

    def refine(relation: Transducer, _) -> Transducer:
        nxt = sim_step(replace(sim, relation=relation), space.relation, space.square)
        if not relation_includes(relation, nxt.relation):
            raise InputError("refinement grew the relation (bug)")
        return nxt.relation

    relation, ends = _fixpoint(sim.relation, refine, budget)
    exact, steps, _ = ends[None]
    why = None if exact else f"budget {budget} exhausted before the simulation fixpoint converged"
    return replace(sim, relation=relation, iteration_index=steps, exact=exact, reason=why)


def validate_candidate(
    c: Transducer,
    msys: BuchiRegularSystem,
    cops: Sequence[StateProperty],
) -> SimCandidate:
    """Safety check for an externally proposed under-approximation.

    Valid iff one more refinement step removes nothing and the candidate
    stays within the cop-compatible initial relation; a validated candidate
    is a simulation contained in the greatest one, so nonemptiness verdicts
    built on it are sound.  It is judged in the space of `DEFAULT_BUDGET`
    steps of reachability (`_space`), which the result carries: its part
    inside W x W, the result's relation and all that `check_emptiness_sim`
    asks about, against the initial relation inside W x W, stepping with T
    cut to the square.  A space with a `capped` reason leaves it
    unvalidated.
    """
    space = _space(msys.system, DEFAULT_BUDGET)
    canon = Transducer(_canon(_intersect(c.inner, space.square)))
    sim0 = sim_init(msys, cops, within=space.words)
    valid = relation_includes(sim0.relation, canon) and space.capped is None and (
        sim_step(SimRelation(canon, 0, False), space.relation, space.square).relation == canon
    )
    return SimCandidate(canon, valid, space)


def check_emptiness_sim(
    msys: BuchiRegularSystem,
    sim: SimRelation | SimCandidate,
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """Simulation-based (non)emptiness of the augmented system.

    Nonempty formula: some reachable state can nontrivially reach an
    accepting state that simulates it, yielding a violation; the empty case
    proves the property only for an exact fixpoint with converged closures,
    and only in finite mode: an omega execution need not repeat a
    configuration even up to simulation, so there it gives Unknown.

    R, its layers and T cut to W x W come from the space `sim` carries,
    built at the budget of `sim_fixpoint` or `validate_candidate`; `budget`
    bounds only T+ and the lasso search.  The formula only pairs reachable
    words with their T+-successors, which are reachable too, and T+ is the
    closure of T cap (W x W), which equals T+ cap (W x W) because W is
    T-closed; the anchor and the concretization see the same pairs as with
    the unrestricted T+.
    """
    exact = isinstance(sim, SimRelation) and sim.exact
    if isinstance(sim, SimCandidate) and not sim.validated:
        raise InputError("candidate simulation was not validated")
    if isinstance(sim, SimRelation) and not sim.exact:
        raise InputError("inexact iterate is not a sound simulation; validate a candidate instead")
    space = sim.space
    if space is None or space.system != msys.system:
        raise InputError("simulation was not built for this system")
    if space.lost is not None:
        return Verdict.unknown(space.lost)
    try:
        plus = closure(space.relation, "plus", budget)
        # words w1 with (w1, w2) in T+ cap Sim for some accepting w2
        similar = Transducer(_intersect(plus.relation.inner, sim.relation.inner))
        anchor = _pick(preimage(similar, msys.acceptance, within=space.reach))
    except NonWeakResult as e:
        return Verdict.unknown(f"weak representability lost: {e}")
    diag = {
        "closure_steps": plus.steps_used,
        "converged": space.closed and plus.converged,
        "sim_exact": exact,
    }
    if anchor is None:
        if not (exact and diag["converged"]):
            return Verdict.unknown("formula empty but result not conclusive", **diag)
        if msys.system.mode == OMEGA:
            return Verdict.unknown(
                "formula empty, but omega executions need not repeat a "
                "configuration up to simulation",
                **diag,
            )
        return Verdict.holds(**diag)
    # the anchor only starts an abstract lasso (each accepting visit may be a
    # fresh, merely similar state); concretize through the exact-repetition
    # core, which exists on locally-finite instances
    witness = _concretize(msys, space.layers, space.reach, plus)
    if witness is None:
        return Verdict.unknown(
            "simulation detected an abstract lasso but no concrete repetition in bound",
            **diag,
        )
    ok, why = replay_lasso(msys, witness)
    if not ok:
        raise InputError(f"extracted witness failed replay: {why} (bug)")
    return Verdict.violated(witness, **diag)


def _space(m: RegularSystem, budget: int) -> _Space:
    """The space of a simulation check on `m`, from reachability within
    `budget` steps: the reach layers and set R, and the T-closed words W,
    R when it converged and every word otherwise, with the square W x W
    over the pair alphabet and T cut to it.

    The square of R is an automaton of R's own class.  In omega mode R is a
    weak DBA, so a cycle of the square stays in one SCC of R per track,
    each accepting or not as a whole, and requiring both tracks to accept
    is the Buchi condition of the square.  The square of every word is all
    pairs (`_all_pairs`), which hold T whole; in finite mode over more than
    `COMPLETION_CAP` letter pairs no refinement step runs in it, and the
    cap is the space's `capped` reason.
    """
    layers = reach = lost = capped = None
    try:
        layers, reach, ends = _reach_layers(m, budget)
        closed = ends[None][0]
    except NonWeakResult as e:
        closed, lost = False, f"weak representability lost: {e}"
    t = m.relation
    if closed:
        square = product_general(reach, reach, t.inner.alphabet, _sync_symbols(m.alphabet.size))
        t = Transducer(_canon(_intersect(t.inner, square)))
    else:
        try:
            square = _all_pairs(t)
        except AlphabetCapExceeded as e:
            square, capped = _every_word(t.inner.alphabet, t), str(e)
    words = reach if closed else _every_word(m.alphabet, m)
    return _Space(m, tuple(layers or ()), reach, words, square, t, closed, lost, capped)


def _every_word(alphabet: Alphabet, like: RegularSystem | Transducer) -> FiniteAutomaton:
    """Every word over `alphabet`, of the word kind of `like`."""
    return omega_universal(alphabet) if like.mode == OMEGA else universal(alphabet)


def _all_pairs(t: Transducer) -> FiniteAutomaton:
    """Every pair of words of the kind of `t`.  It stands for the
    completion of a relation over the pair alphabet, so in finite mode it
    meets the completion cap (`AlphabetCapExceeded`)."""
    if t.mode != OMEGA:
        _require_completable(t.inner.alphabet)
    return _every_word(t.inner.alphabet, t)


def _loopable_from_plus(msys: BuchiRegularSystem, plus):
    """Automaton for words w with (w, w) in the given strict closure: its
    diagonal letters a * |Sigma| + a renamed to a, every other letter dropped."""
    sigma = msys.system.alphabet

    def diagonal(sym: int) -> tuple[int, ...]:
        a, b = divmod(sym, sigma.size)
        return (a,) if a == b else ()

    return _canon(relabel(plus.relation.inner, sigma, diagonal))


def _concretize(msys: BuchiRegularSystem, layers, reach, plus):
    loopable = _loopable_from_plus(msys, plus)
    core = _intersect(_intersect(reach, msys.acceptance), loopable)
    anchor = _pick(core)
    if anchor is None:
        return None
    return _extract_lasso(msys.system, layers, anchor, plus.steps_used + 1)


#: `brute_force_simulation` refuses graphs with more states than this.
BRUTE_FORCE_CAP = 500


def brute_force_simulation(
    n_states: int,
    transitions: Sequence[tuple[int, int]],
    labels: Sequence[object],
) -> set[tuple[int, int]]:
    """Greatest label-compatible simulation on an explicit graph.

    Naive refinement to fixpoint; (p, q) in the result means q simulates p.
    Serves as the independent oracle for the symbolic fixpoint.
    """
    if n_states > BRUTE_FORCE_CAP:
        raise InputError(f"explicit simulation capped at {BRUTE_FORCE_CAP} states")
    if len(labels) != n_states:
        raise InputError("one label per state required")
    succ: dict[int, set[int]] = {i: set() for i in range(n_states)}
    for src, dst in transitions:
        succ[src].add(dst)
    rel = {
        (p, q)
        for p in range(n_states)
        for q in range(n_states)
        if labels[p] == labels[q]
    }
    changed = True
    while changed:
        changed = False
        for p, q in sorted(rel):
            ok = all(
                any((p2, q2) in rel for q2 in succ[q]) for p2 in succ[p]
            )
            if not ok:
                rel.discard((p, q))
                changed = True
    return rel
