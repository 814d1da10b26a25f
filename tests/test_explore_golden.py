"""Golden state numbering of every construction built on `automata.explore`,
and of every construction that rewrites the letters of an automaton.

Each case pins (n_states, initial, accepting, sorted transitions) of one
automaton on a fixed fixture, so any change to discovery order, start
handling, the empty-start convention or the place of a completion sink shows
up as a diff.  Over an alphabet above `COMPLETION_CAP` the transition list
is pinned by its length and SHA-256.  The values in `golden/explore.json`
were recorded from the hand-written explorations, completions and letter
rewrites that the kernels `explore`, `complete` and `relabel` replaced.  The
GSP initial sets are pinned in their canonical form (`omega._canon`), which
does not depend on how they are built; their acceptance automata are pinned
as they are.  Regenerate (only for a deliberate numbering change) with
`PYTHONPATH=src python tests/test_explore_golden.py`.
"""

import hashlib
import json
from pathlib import Path
from unittest import mock

import pytest

from rmckit import (
    Alphabet,
    FiniteAutomaton,
    build_augmented_finite,
    build_augmented_losp,
    build_augmented_omega,
    determinize,
    determinize_weak,
    extend_with_flags,
    image,
    intersect,
    local_execution_property,
    losp_property,
    minimize,
    negated_gsp,
    omega_intersect,
    sim_init,
    slice_system,
    state_property,
    universal,
    validate,
)
from rmckit.alphabet import COMPLETION_CAP
from rmckit.automata import complete
from rmckit.fixtures import (
    build_fa,
    cop_one_token,
    gsp_always_one_token_negated,
    lep_liveness,
    lep_liveness_negated,
    losp_all_live_negated,
    ring_alphabet,
    token_ring,
)
from rmckit.omega import OmegaAutomaton, _canon, canonical_renumber
from rmckit.system import BuchiRegularSystem, RegularSystem
from rmckit.transducer import OMEGA, identity

from oracles import inverse, project_components

GOLDEN = Path(__file__).parent / "golden" / "explore.json"
NT = ring_alphabet()
AB = Alphabet.base(("a", "b"))
WIDE = Alphabet.base(tuple(f"x{i}" for i in range(COMPLETION_CAP + 4)))


def last_a():
    # (a|b)*a, nondeterministic
    return build_fa(AB, 2, [0], [1], [(0, "a", 0), (0, "b", 0), (0, "a", 1)])


def has_b():
    # (a|b)*b(a|b)*, nondeterministic with two initial states
    return build_fa(
        AB, 3, [0, 2], [1],
        [(0, "a", 0), (0, "b", 0), (0, "b", 1), (1, "a", 1), (1, "b", 1), (2, "b", 1)],
    )


def a_then_b():
    # a(a|b)*b, nondeterministic; its minimal DFA needs a sink for b at the start
    return build_fa(AB, 3, [0], [2], [(0, "a", 1), (1, "a", 1), (1, "b", 1), (1, "b", 2)])


def dead_end():
    # the empty language, with reachable states and an unreachable accepting one
    return build_fa(AB, 3, [0], [2], [(0, "a", 1), (1, "b", 0), (1, "a", 1)])


def wide_nfa():
    # (x0|x1)* x1 x2 over an alphabet above the completion cap
    return FiniteAutomaton(
        WIDE, 3, frozenset({0}), frozenset({2}),
        frozenset({(0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 2, 2)}),
    )


def no_start(alphabet, omega=False):
    cls = OmegaAutomaton if omega else FiniteAutomaton
    return cls(alphabet, 2, frozenset(), frozenset({1}), frozenset({(0, 0, 1)}))


def inf_many_t():
    # not inherently weak: drives the two-copy Buchi product
    return build_fa(
        NT, 2, [0], [1],
        [(0, "N", 0), (0, "T", 1), (1, "N", 0), (1, "T", 1)],
        omega=True,
    )


def eventually_t_nondet():
    return build_fa(
        NT, 2, [0], [1],
        [(0, "N", 0), (0, "T", 0), (0, "T", 1), (1, "N", 1), (1, "T", 1)],
        omega=True,
    )


def eventually_n():
    return build_fa(
        NT, 3, [0], [2],
        [(0, "T", 0), (0, "N", 1), (0, "N", 2), (1, "N", 2), (2, "N", 2), (2, "T", 2)],
        omega=True,
    )


def scrambled_omega():
    # reachable states numbered out of BFS order, plus an unreachable one
    return build_fa(
        NT, 4, [2], [0],
        [(2, "T", 0), (2, "N", 3), (3, "N", 2), (0, "N", 0), (0, "T", 3), (1, "T", 1)],
        omega=True,
    )


def ring_slice(n):
    return slice_system(token_ring(), n)


def gsp_finite_aug():
    cop = state_property("one_token", cop_one_token())
    neg = negated_gsp(gsp_always_one_token_negated(), 1)
    return build_augmented_finite(ring_slice(2), neg, [cop]), cop


def gsp_omega_aug():
    system = validate(
        RegularSystem(build_fa(NT, 1, [0], [0], [(0, "N", 0)], omega=True), identity(NT, OMEGA))
    )
    starts_t = build_fa(
        NT, 3, [0], [1],
        [(0, "T", 1), (0, "N", 2), (1, "T", 1), (1, "N", 1), (2, "T", 2), (2, "N", 2)],
        omega=True,
    )
    cop = state_property("starts_t", starts_t)
    neg = negated_gsp(gsp_always_one_token_negated(), 1)
    return build_augmented_omega(system, neg, [cop])


def losp_aug():
    lep = local_execution_property("liveness", lep_liveness(), lep_liveness_negated())
    return build_augmented_losp(ring_slice(2), losp_property(losp_all_live_negated(), 1), [lep])


def flagged_ring():
    return extend_with_flags(token_ring(), ["a", "b"])


def ring_image():
    sl = ring_slice(3)
    return image(sl.relation, sl.initial)


def sim_init_explored():
    # the explored relation before sim_init canonicalizes it
    system = RegularSystem(universal(AB), identity(AB))
    cop = state_property("ends_a", minimize(last_a()))
    with mock.patch("rmckit.simulation._canon", lambda a: a):
        return sim_init(BuchiRegularSystem(system, universal(AB)), [cop]).relation.inner


CASES = {
    "intersect": lambda: intersect(last_a(), has_b()),
    "intersect_no_start": lambda: intersect(no_start(AB), has_b()),
    "image_ring_slice_3": ring_image,
    "image_no_start": lambda: image(ring_slice(3).relation, no_start(NT)),
    "omega_intersect_weak": lambda: omega_intersect(eventually_t_nondet(), eventually_n()),
    "omega_intersect_buchi": lambda: omega_intersect(inf_many_t(), eventually_t_nondet()),
    "omega_intersect_no_start": lambda: omega_intersect(no_start(NT, True), inf_many_t()),
    "canonical_renumber": lambda: canonical_renumber(scrambled_omega()),
    "determinize_weak": lambda: determinize_weak(eventually_t_nondet()),
    "sim_init": sim_init_explored,
    "gsp_finite_relation": lambda: gsp_finite_aug()[0].msys.system.relation.inner,
    "gsp_omega_relation": lambda: gsp_omega_aug().msys.system.relation.inner,
    "gsp_finite_initial_canon": lambda: _canon(gsp_finite_aug()[0].msys.system.initial),
    "gsp_omega_initial_canon": lambda: _canon(gsp_omega_aug().msys.system.initial),
    "gsp_finite_acceptance": lambda: gsp_finite_aug()[0].msys.acceptance,
    "gsp_omega_acceptance": lambda: gsp_omega_aug().msys.acceptance,
    "losp_initial": lambda: losp_aug().msys.system.initial,
    "losp_relation": lambda: losp_aug().msys.system.relation.inner,
    "inverse_ring_slice_3": lambda: inverse(ring_slice(3).relation).inner,
    "project_input_ring_slice_3": lambda: project_components(ring_slice(3).relation.inner, [1]),
    "project_output_ring_slice_3": lambda: project_components(ring_slice(3).relation.inner, [0]),
    "flags_initial": lambda: flagged_ring().initial,
    "flags_relation": lambda: flagged_ring().relation.inner,
    "minimize_nfa": lambda: minimize(a_then_b()),
    "minimize_nfa_complete": lambda: determinize(minimize(a_then_b())),
    "minimize_empty": lambda: minimize(dead_end()),
    "minimize_empty_complete": lambda: determinize(minimize(dead_end())),
    "minimize_wide": lambda: minimize(wide_nfa()),
    "determinize_nfa": lambda: determinize(a_then_b()),
    "determinize_empty": lambda: determinize(dead_end()),
    "complete_buchi": lambda: complete(eventually_n()),
}


def shape(a: FiniteAutomaton) -> dict:
    transitions = [list(t) for t in sorted(a.transitions)]
    if a.alphabet.size > COMPLETION_CAP:
        text = json.dumps(transitions).encode()
        transitions = {"count": len(transitions), "sha256": hashlib.sha256(text).hexdigest()}
    return {
        "class": type(a).__name__,
        "n_states": a.n_states,
        "initial": sorted(a.initial),
        "accepting": sorted(a.accepting),
        "transitions": transitions,
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_state_numbering_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())
    assert shape(CASES[name]()) == golden[name]


if __name__ == "__main__":
    rows = (f"  {json.dumps(name)}: {json.dumps(shape(CASES[name]()))}" for name in sorted(CASES))
    print("{\n" + ",\n".join(rows) + "\n}")
