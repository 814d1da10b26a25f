"""Symbolic greatest-simulation computation over augmented systems.

The greatest simulation compatible with the declared state properties is the
limit of a decreasing transducer sequence: the initial relation pairs
equal-length words with equal cop sets, and each refinement removes pairs
whose moves cannot be matched.  A refinement step is derived from relation
composition, inverse and complement of the step relation T:

    G    = T o Sim^-1        (w2, w3): w2 steps to a word that simulates w3
    Bad  = T o (not G)^-1    (w1, w2): w1 has a move that w2 cannot match
    Sim' = Sim cap not Bad

An exact fixpoint certifies a finite-index simulation and makes the
simulation-based nonemptiness check complete; budget-exhausted
over-approximations are never used to report Holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .alphabet import Alphabet
from .errors import InputError, NonWeakResult
from .gsp import StateProperty, _extract_lasso, _loopable_from_plus
from .omega import _canon, _complement, _intersect, _pick
from .system import BuchiRegularSystem, Verdict, _reach_layers, replay_lasso
from .transducer import (
    Transducer,
    closure,
    compose,
    inverse,
    preimage,
    relation_includes,
)


@dataclass(frozen=True)
class SimRelation:
    """Iterate of the decreasing simulation sequence (exact once a fixpoint)."""

    relation: Transducer
    iteration_index: int
    exact: bool


@dataclass(frozen=True)
class SimCandidate:
    """Externally supplied under-approximation, usable only once validated."""

    relation: Transducer
    validated: bool


def _aug_base(msys: BuchiRegularSystem) -> Alphabet:
    return msys.system.alphabet


def sim_init(msys: BuchiRegularSystem, cops: Sequence[StateProperty]) -> SimRelation:
    """Initial relation: same-length pairs whose projections have equal cop sets."""
    sigma_a = _aug_base(msys)
    if cops:
        base = cops[0].automaton.alphabet
        width = len(base.components)
    else:
        base = None
        width = len(sigma_a.components)

    def sigma_part(sym: int) -> int:
        if base is None:
            return 0
        return base.symbol(sigma_a.parts(sym)[:width])

    sigma_of = [sigma_part(s) for s in sigma_a.symbols()]
    deltas = []
    finals = []
    for c in cops:
        deltas.append(
            {(q, s): d[0] for q, row in c.automaton.adjacency.items() for s, d in row.items()}
        )
        finals.append(frozenset(c.automaton.accepting))
    q0 = tuple(next(iter(c.automaton.initial)) for c in cops)

    ids: dict[tuple, int] = {(q0, q0): 0}
    order: list[tuple] = [(q0, q0)]
    transitions = set()
    size = sigma_a.size
    i = 0
    while i < len(order):
        left, right = order[i]
        i += 1
        src = ids[(left, right)]
        seen_targets: dict[tuple, list[int]] = {}
        for s1 in range(size):
            a1 = sigma_of[s1]
            left2 = tuple(deltas[j][(left[j], a1)] for j in range(len(cops)))
            for s2 in range(size):
                a2 = sigma_of[s2]
                right2 = tuple(deltas[j][(right[j], a2)] for j in range(len(cops)))
                seen_targets.setdefault((left2, right2), []).append(s1 * size + s2)
        for node, syms in seen_targets.items():
            if node not in ids:
                ids[node] = len(order)
                order.append(node)
            for sym in syms:
                transitions.add((src, sym, ids[node]))

    def label_mask(states: tuple) -> int:
        mask = 0
        for j, f in enumerate(finals):
            if states[j] in f:
                mask |= 1 << j
        return mask

    accepting = frozenset(
        ids[n] for n in order if label_mask(n[0]) == label_mask(n[1])
    )
    inner = type(msys.system.relation.inner)(
        Alphabet.product(sigma_a, sigma_a),
        len(order),
        frozenset({0}),
        accepting,
        frozenset(transitions),
    )
    return SimRelation(Transducer(_canon(inner)), 0, False)


def sim_step(s: SimRelation, t: Transducer) -> SimRelation:
    """One refinement: drop pairs with an unmatched move.

    Removed are pairs (w1, w2) such that some successor w3 of w1 has no
    counterpart w4 of w2 with (w3, w4) still related:
    G = T o Sim^-1, Bad = T o (not G)^-1 and Sim' = Sim cap not Bad.
    """
    if s.relation.base != t.base:
        raise InputError("simulation relation and transducer bases differ")
    # G(w2, w3) = exists w4: (w2, w4) in T and (w3, w4) in Sim
    g = compose(t, inverse(s.relation))
    # Bad(w1, w2) = exists w3: (w1, w3) in T and not G(w2, w3)
    bad = compose(t, inverse(Transducer(_complement(g.inner))))
    refined = _intersect(s.relation.inner, _complement(bad.inner))
    return SimRelation(Transducer(_canon(refined)), s.iteration_index + 1, False)


def sim_fixpoint(
    msys: BuchiRegularSystem,
    cops: Sequence[StateProperty],
    budget: int = 64,
) -> SimRelation:
    """Iterate refinement until a fixpoint or the budget runs out.

    Terminates exactly on systems with a finite-index simulation; a
    budget-exhausted result is an over-approximation usable only as
    "not yet refuted", never to conclude emptiness.
    """
    if budget < 1:
        raise InputError("budget must be at least 1")
    t = msys.system.relation
    current = sim_init(msys, cops)
    for _ in range(budget):
        nxt = sim_step(current, t)
        if not relation_includes(current.relation, nxt.relation):
            raise InputError("refinement grew the relation (bug)")
        if nxt.relation == current.relation:
            return SimRelation(current.relation, nxt.iteration_index, True)
        current = nxt
    return current


def validate_candidate(
    c: Transducer,
    msys: BuchiRegularSystem,
    cops: Sequence[StateProperty],
) -> SimCandidate:
    """Safety check for an externally proposed under-approximation.

    Valid iff one more refinement step removes nothing and the candidate
    stays within the cop-compatible initial relation; a validated candidate
    is a simulation contained in the greatest one, so nonemptiness verdicts
    built on it are sound.
    """
    canon = Transducer(_canon(c.inner))
    sim0 = sim_init(msys, cops)
    if not relation_includes(sim0.relation, canon):
        return SimCandidate(canon, False)
    stepped = sim_step(SimRelation(canon, 0, False), msys.system.relation)
    return SimCandidate(canon, stepped.relation == canon)


def check_emptiness_sim(
    msys: BuchiRegularSystem,
    sim: SimRelation | SimCandidate,
    budget: int = 64,
) -> Verdict:
    """Simulation-based (non)emptiness of the augmented system.

    Nonempty formula: some reachable state can nontrivially reach an
    accepting state that simulates it, yielding a violation; the empty case
    proves the property only for an exact fixpoint with converged closures.
    """
    exact = isinstance(sim, SimRelation) and sim.exact
    if isinstance(sim, SimCandidate) and not sim.validated:
        raise InputError("candidate simulation was not validated")
    if isinstance(sim, SimRelation) and not sim.exact:
        raise InputError("inexact iterate is not a sound simulation; validate a candidate instead")
    m = msys.system
    try:
        layers, reach, reach_conv, _ = _reach_layers(m, budget)
        plus = closure(m.relation, "plus", budget)
        # words w1 with (w1, w2) in T+ cap Sim for some accepting w2
        similar = Transducer(_intersect(plus.relation.inner, sim.relation.inner))
        anchor = _pick(_intersect(reach, preimage(similar, msys.acceptance)))
    except NonWeakResult as e:
        return Verdict.unknown(f"weak representability lost: {e}")
    diag = {
        "closure_steps": plus.steps_used,
        "converged": reach_conv and plus.converged,
        "sim_exact": exact,
    }
    if anchor is None:
        if exact and reach_conv and plus.converged:
            return Verdict.holds(**diag)
        return Verdict.unknown("formula empty but result not conclusive", **diag)
    # the anchor only starts an abstract lasso (each accepting visit may be a
    # fresh, merely similar state); concretize through the exact-repetition
    # core, which exists on locally-finite instances
    witness = _concretize(msys, layers, reach, plus)
    if witness is None:
        return Verdict.unknown(
            "simulation detected an abstract lasso but no concrete repetition in bound",
            **diag,
        )
    ok, why = replay_lasso(msys, witness)
    if not ok:
        raise InputError(f"extracted witness failed replay: {why} (bug)")
    return Verdict.violated(witness, **diag)


def _concretize(msys: BuchiRegularSystem, layers, reach, plus):
    loopable = _loopable_from_plus(msys, plus)
    core = _intersect(_intersect(reach, msys.acceptance), loopable)
    anchor = _pick(core)
    if anchor is None:
        return None
    return _extract_lasso(msys.system, layers, anchor, plus.steps_used + 1)


def brute_force_simulation(
    n_states: int,
    transitions: Sequence[tuple[int, int]],
    labels: Sequence[object],
    cap: int = 500,
) -> set[tuple[int, int]]:
    """Greatest label-compatible simulation on an explicit graph.

    Naive refinement to fixpoint; (p, q) in the result means q simulates p.
    Serves as the independent oracle for the symbolic fixpoint.
    """
    if n_states > cap:
        raise InputError(f"explicit simulation capped at {cap} states")
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
