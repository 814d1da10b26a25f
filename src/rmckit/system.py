"""(Omega-)regular systems and reachability-style verification.

A regular system encodes a state-transition system: states are words over a
base alphabet, the initial set is an automaton and the transition relation a
structure-preserving transducer.  Parametric verification slices a finite
system to one word length per network instance; sliced systems have finitely
many reachable states, so the fixpoint computations below are exact on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .alphabet import Alphabet
from .automata import FiniteAutomaton, exact_length, intersect, minimize, union
from .errors import InputError, ModeMismatch, NonWeakResult, NotDeterministic, NotWeak
from .omega import (
    OmegaAutomaton,
    _canon,
    _intersect,
    _is_empty,
    _member,
    _pick,
    _singleton,
)
from .transducer import FINITE, OMEGA, Transducer, accepts_pair, image, preimage

HOLDS = "holds"
VIOLATED = "violated"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class RegularSystem:
    """Triple (alphabet, initial-set automaton, relation transducer)."""

    alphabet: Alphabet
    initial: FiniteAutomaton
    relation: Transducer
    mode: str = FINITE


@dataclass(frozen=True)
class BuchiRegularSystem:
    """Regular system plus a Buchi acceptance-condition automaton."""

    system: RegularSystem
    acceptance: FiniteAutomaton


@dataclass(frozen=True)
class LassoWitness:
    """Execution fragment: words, with an optional loop closing to loop_start.

    `loop_start is None` marks a plain path witness (reachability); words are
    symbol-id tuples in finite mode and UltimatelyPeriodicWord in omega mode.
    """

    words: tuple
    loop_start: int | None
    slice_length: int | None = None


@dataclass(frozen=True)
class Verdict:
    status: str
    witness: LassoWitness | None = None
    diagnostics: dict = field(default_factory=dict)

    @staticmethod
    def holds(**diag) -> "Verdict":
        return Verdict(HOLDS, None, diag)

    @staticmethod
    def violated(witness: LassoWitness, **diag) -> "Verdict":
        return Verdict(VIOLATED, witness, diag)

    @staticmethod
    def unknown(reason: str, **diag) -> "Verdict":
        diag["reason"] = reason
        return Verdict(UNKNOWN, None, diag)


def validate(m: RegularSystem) -> RegularSystem:
    """Check system invariants; flags are recomputed, never trusted."""
    if m.mode not in (FINITE, OMEGA):
        raise ModeMismatch(f"unknown mode {m.mode!r}")
    is_omega = m.mode == OMEGA
    if isinstance(m.initial, OmegaAutomaton) != is_omega:
        raise ModeMismatch("initial automaton does not match the system mode")
    if m.relation.mode != m.mode:
        raise ModeMismatch("relation transducer does not match the system mode")
    if m.initial.alphabet != m.alphabet or m.relation.base != m.alphabet:
        raise ModeMismatch("system components are over different alphabets")
    if not m.initial.is_deterministic:
        raise NotDeterministic("initial-set automaton must be deterministic")
    if is_omega:
        if not m.initial.is_weak:
            raise NotWeak("initial-set automaton must be weak in omega mode")
        rel = m.relation.inner
        if not rel.is_deterministic:
            raise NotDeterministic("relation must be deterministic in omega mode")
        if not rel.is_weak:
            raise NotWeak("relation must be weak in omega mode")
    return m


def slice_system(m: RegularSystem, n: int) -> RegularSystem:
    """Restrict a finite-mode system to words of exactly length n."""
    if m.mode != FINITE:
        raise ModeMismatch("slicing is defined for finite-mode systems only")
    if n < 1:
        raise InputError("slice length must be at least 1")
    initial = minimize(intersect(m.initial, exact_length(m.alphabet, n)))
    rel_inner = minimize(
        intersect(m.relation.inner, exact_length(m.relation.inner.alphabet, n)),
        completion=False,
    )
    return RegularSystem(m.alphabet, initial, Transducer(rel_inner), FINITE)


# ---------------------------------------------------------------------------
# reachability


@dataclass(frozen=True)
class ReachResult:
    automaton: FiniteAutomaton
    converged: bool
    steps: int


def _reach_layers(
    m: RegularSystem,
    budget: int,
    stop: Callable[[FiniteAutomaton], bool] = lambda layer: False,
) -> tuple[list[FiniteAutomaton], FiniteAutomaton, bool, int]:
    """Per-step image layers, the canonical cumulative union, convergence and
    the last layer's index; unconverged at the first layer `stop` holds for."""
    layer = _canon(m.initial)
    layers = [layer]
    cumulative = layer
    step = 0
    while not stop(layer) and step < budget:
        step += 1
        layer = _canon(image(m.relation, layer))
        layers.append(layer)
        nxt = _canon(union(cumulative, layer))
        if nxt == cumulative:
            return layers, cumulative, True, step
        cumulative = nxt
    return layers, cumulative, False, step


def reachable(m: RegularSystem, budget: int = 64) -> ReachResult:
    """Iterated-image fixpoint for T*(initial) with exact convergence."""
    _, cumulative, converged, steps = _reach_layers(m, budget)
    return ReachResult(cumulative, converged, steps)


def _backchain(
    m: RegularSystem, layers: Sequence[FiniteAutomaton], k: int, target
) -> list:
    """Concrete path w_0 .. w_k with w_k = target and w_i in layer i."""
    words = [target]
    for i in range(k - 1, -1, -1):
        back = _intersect(layers[i], preimage(m.relation, _singleton(m.alphabet, words[0])))
        w = _pick(back)
        if w is None:
            raise InputError("witness backchain broke (bug)")
        words.insert(0, w)
    return words


def check_reachability_property(
    m: RegularSystem, bad: FiniteAutomaton, budget: int = 64
) -> Verdict:
    """Holds iff no reachable word is bad; `bad` encodes the unsafe words."""
    if bad.alphabet != m.alphabet:
        raise ModeMismatch("bad-set automaton is over a different alphabet")
    try:
        layers, _, converged, steps = _reach_layers(
            m, budget, lambda layer: not _is_empty(_intersect(layer, bad))
        )
        target = None if converged else _pick(_intersect(layers[-1], bad))
        if target is not None:
            words = _backchain(m, layers, steps, target)
            return Verdict.violated(LassoWitness(tuple(words), None), steps=steps)
    except NonWeakResult as e:
        return Verdict.unknown(f"weak representability lost: {e}")
    if converged:
        return Verdict.holds(steps=steps)
    return Verdict.unknown("budget exhausted before convergence", steps=budget)


@dataclass(frozen=True)
class LocalityEvidence:
    locally_finite: bool
    reason: str


def locality_evidence(m: RegularSystem) -> LocalityEvidence:
    """Length preservation implies every execution stays in one finite slice."""
    if m.mode == FINITE:
        return LocalityEvidence(
            True,
            "structure-preserving finite-word transducer: executions are "
            "confined to words of one length",
        )
    return LocalityEvidence(False, "no syntactic criterion applies in omega mode")


# ---------------------------------------------------------------------------
# parametric driver


def thread_cap() -> int:
    """Slices run one at a time; kept because perfbench/run.py reports it."""
    return 1


def verify_parametric(
    m: RegularSystem,
    check: Callable[[RegularSystem, int], Verdict],
    lo: int = 2,
    hi: int = 8,
) -> tuple[dict[int, Verdict], Verdict]:
    """Run a per-slice check on each length from lo to hi, in slice order;
    the overall verdict is the conjunction of the slice verdicts."""
    if lo < 1 or hi < lo:
        raise InputError("bad slice range")
    results = {n: check(slice_system(m, n), n) for n in range(lo, hi + 1)}
    return results, combine_conjunction(results)


def _conjoin(statuses: Iterable[str]) -> str:
    """Three-valued conjunction: violated if any is, holds if all do."""
    statuses = set(statuses)
    if VIOLATED in statuses:
        return VIOLATED
    return HOLDS if statuses <= {HOLDS} else UNKNOWN


def combine_conjunction(results: dict[int, Verdict]) -> Verdict:
    status = _conjoin(v.status for v in results.values())
    if status == VIOLATED:
        n = min(n for n, v in results.items() if v.status == VIOLATED)
        return Verdict(VIOLATED, results[n].witness, {"slice": n})
    if status == HOLDS:
        return Verdict.holds(slices=sorted(results))
    unknowns = [n for n in sorted(results) if results[n].status == UNKNOWN]
    return Verdict.unknown("some slices unknown", slices=unknowns)


# ---------------------------------------------------------------------------
# witness replay


def replay_lasso(msys: BuchiRegularSystem, witness: LassoWitness) -> tuple[bool, str]:
    """Check a lasso against initialness, the step relation, loop closure and
    the acceptance condition; witnesses must replay before being reported."""
    m = msys.system
    words = witness.words
    if not words:
        return False, "empty witness"
    if witness.loop_start is None or not (0 <= witness.loop_start < len(words)):
        return False, "missing or out-of-range loop start"
    if not _member(m.initial, words[0]):
        return False, "first word is not initial"
    ring = list(words) + [words[witness.loop_start]]
    for i in range(len(ring) - 1):
        if not accepts_pair(m.relation, ring[i], ring[i + 1]):
            return False, f"step {i} is not in the transition relation"
    loop = words[witness.loop_start:]
    if not any(_member(msys.acceptance, w) for w in loop):
        return False, "no loop word satisfies the acceptance condition"
    return True, "ok"
