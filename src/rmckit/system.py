"""(Omega-)regular systems and reachability-style verification.

A regular system encodes a state-transition system: states are words over a
base alphabet, the initial set is an automaton and the transition relation a
structure-preserving transducer, which fixes the base alphabet and the word
kind, finite or omega, of the system.  Parametric verification slices a finite
system to one word length per network instance; sliced systems have finitely
many reachable states, so the fixpoint computations below are exact on them.

The relation preserves length, so a run from an initial set cut to a set of
lengths is the disjoint union of the runs of its slices: every iterate, cut
to length n, is slice n's own.  `verify_parametric` is the one slice runner,
for the library and the CLI alike: it cuts the initial set to the lengths of
a range, leaves the relation whole, runs the check once, and conjoins the
verdict it gives for each length; or it runs the check once on the unsliced
system.  The reachability engine here and the loop engine of `gsp` give a
verdict per length, each equal to the one its slice's own run gives; checks
with no such engine run slice by slice through `each_slice`.  A `violated`
reachability verdict carries a path witness that has replayed against the
system before it is returned.

Reachability, like every fixpoint in the package, runs on the one budgeted
driver `omega._fixpoint`, which decides each length of a run (`_Lengths`)
on its own; the reachability step is one image of the last layer, and a
bad word in a layer stops its length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .alphabet import Alphabet
from .automata import FiniteAutomaton, cut_lengths, minimize
from .errors import InputError, ModeMismatch, NonWeakResult, NotDeterministic, NotWeak
from .omega import (
    OmegaAutomaton,
    _canon,
    _fixpoint,
    _intersect,
    _Lengths,
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
    """Pair (initial-set automaton, relation transducer).  The system's
    alphabet and word kind are read from the relation, never stored."""

    initial: FiniteAutomaton
    relation: Transducer

    @property
    def alphabet(self) -> Alphabet:
        return self.relation.base

    @property
    def mode(self) -> str:
        return self.relation.mode


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

    @staticmethod
    def exhausted(fixpoint: str, **diag) -> "Verdict":
        """Unknown: the budget ran out before the named fixpoint converged."""
        return Verdict.unknown(f"budget exhausted before the {fixpoint} fixpoint converged", **diag)


def validate(m: RegularSystem) -> RegularSystem:
    """Check that the initial set is a deterministic set of the relation's words, weak in
    omega mode with a weak deterministic relation; flags are recomputed, never trusted."""
    _require_set(m, m.initial, "initial")
    if not m.initial.is_deterministic:
        raise NotDeterministic("initial-set automaton must be deterministic")
    if m.mode == OMEGA:
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
    initial = minimize(cut_lengths(m.initial, (n,)))
    rel_inner = minimize(cut_lengths(m.relation.inner, (n,)))
    return RegularSystem(initial, Transducer(rel_inner))


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
    stop: Callable[[FiniteAutomaton], FiniteAutomaton] | None = None,
    keys: _Lengths | None = None,
) -> tuple[list[FiniteAutomaton], FiniteAutomaton, dict]:
    """Per-step image layers, the canonical cumulative union, and per key
    of `keys` (the whole system by default) whether its reach converged and
    the index of its last layer (`_fixpoint`).  A key stops, unconverged,
    at the first layer where `stop(layer)` has a word of its length.  Once
    a key is decided, later layers hold the words of the keys still live
    only."""
    layers = [_canon(m.initial)]

    def step(_, layer: FiniteAutomaton) -> FiniteAutomaton:
        layers.append(_canon(image(m.relation, layer)))
        return layers[-1]

    reach, ends = _fixpoint(layers[0], step, budget, keys, grow=True, stop=stop)
    return layers, reach, ends


def reachable(m: RegularSystem, budget: int = 64) -> ReachResult:
    """Iterated-image fixpoint for T*(initial) with exact convergence."""
    _, cumulative, ends = _reach_layers(m, budget)
    return ReachResult(cumulative, *ends[None][:2])


def _backchain(
    m: RegularSystem, layers: Sequence[FiniteAutomaton], k: int, target
) -> list:
    """Concrete path w_0 .. w_k with w_k = target and w_i in layer i."""
    words = [target]
    for i in range(k - 1, -1, -1):
        w = _pick(preimage(m.relation, _singleton(m.alphabet, words[0]), within=layers[i]))
        if w is None:
            raise InputError("witness backchain broke (bug)")
        words.insert(0, w)
    return words


def _require_set(m: RegularSystem, aut: FiniteAutomaton, what: str) -> FiniteAutomaton:
    """`aut` if it can be the `what` set of `m` ("initial", "bad"): first an
    automaton of the system's word kind, then one over its alphabet."""
    if type(aut) is not (OmegaAutomaton if m.mode == OMEGA else FiniteAutomaton):
        words = "an omega" if m.mode == OMEGA else "a finite"
        raise ModeMismatch(f"{what} set must be {words}-word automaton")
    if aut.alphabet != m.alphabet:
        raise ModeMismatch(f"{what}-set automaton is over a different alphabet")
    return aut


def check_reachability_property(
    m: RegularSystem, bad: FiniteAutomaton, budget: int = 64, lengths: range | None = None
) -> Verdict | dict[int, Verdict]:
    """Holds iff no reachable word is bad; `bad`, an automaton of the system's
    mode, encodes the unsafe words.  A path witness replays before it is
    returned.  Given `lengths`, those the initial set of `m` was cut to, the
    result is a verdict per length, each the one its slice's own run gives."""
    _require_set(m, bad, "bad")
    keys = _Lengths(lengths)
    try:
        layers, _, ends = _reach_layers(m, budget, lambda layer: _intersect(layer, bad), keys)
        verdicts = {}
        for key, (converged, steps, _) in ends.items():
            target = None if converged else _pick(_intersect(keys.part(layers[steps], key), bad))
            if target is not None:
                witness = LassoWitness(tuple(_backchain(m, layers, steps, target)), None)
                ok, why = replay_path(m, bad, witness)
                if not ok:
                    raise InputError(f"extracted witness failed replay: {why} (bug)")
                verdicts[key] = Verdict.violated(witness, steps=steps)
            elif converged:
                verdicts[key] = Verdict.holds(steps=steps)
            else:
                verdicts[key] = Verdict.exhausted("reachability", steps=budget)
    except NonWeakResult as e:
        verdicts = {key: Verdict.unknown(f"weak representability lost: {e}") for key in keys.keys}
    return verdicts if lengths is not None else verdicts[None]


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
    check: Callable[[RegularSystem, range | None], Verdict | dict[int, Verdict]],
    lo: int | None = 2,
    hi: int = 8,
) -> tuple[dict[int | None, Verdict], Verdict]:
    """Run `check(cut, range(lo, hi + 1))` once, where `cut` is `m` with its
    initial set cut to the lengths lo to hi and its relation whole, for a
    verdict per length; or, when lo is None, `check(m, None)` once on the
    unsliced system for one verdict.  The overall verdict is the
    conjunction of the results, in slice order."""
    if lo is None:
        results = {None: check(m, None)}
    elif lo < 1 or hi < lo:
        raise InputError("bad slice range")
    elif m.mode != FINITE:
        raise ModeMismatch("slicing is defined for finite-mode systems only")
    else:
        lengths = range(lo, hi + 1)
        initial = minimize(cut_lengths(m.initial, lengths))
        results = check(RegularSystem(initial, m.relation), lengths)
    status = _conjoin(v.status for v in results.values())
    if status == VIOLATED:
        n = next(n for n, v in results.items() if v.status == VIOLATED)
        return results, Verdict(VIOLATED, results[n].witness, {"slice": n})
    if status == HOLDS:
        return results, Verdict.holds(slices=list(results))
    unknowns = [n for n, v in results.items() if v.status == UNKNOWN]
    return results, Verdict.unknown("some slices unknown", slices=unknowns)


def each_slice(
    check: Callable[[RegularSystem, int | None], Verdict],
) -> Callable[[RegularSystem, range | None], Verdict | dict[int, Verdict]]:
    """A check for `verify_parametric` that runs `check(slice_system(m, n),
    n)` on each length n, for checks with no engine that runs a length set
    at once; unsliced, it runs `check(m, None)`."""

    def run(m: RegularSystem, lengths: range | None):
        if lengths is None:
            return check(m, None)
        return {n: check(slice_system(m, n), n) for n in lengths}

    return run


def _conjoin(statuses: Iterable[str]) -> str:
    """Three-valued conjunction: violated if any is, holds if all do."""
    statuses = set(statuses)
    if VIOLATED in statuses:
        return VIOLATED
    return HOLDS if statuses <= {HOLDS} else UNKNOWN


# ---------------------------------------------------------------------------
# witness replay


def _run_fault(m: RegularSystem, words: Sequence, projected: bool = False) -> str | None:
    """Why `words` is not a run of `m` from an initial word, or None; a
    `projected` run is the projection of a witness onto the original system."""
    if not _member(m.initial, words[0]):
        if projected:
            return "projected first word is not initial in the original system"
        return "first word is not initial"
    for i in range(len(words) - 1):
        if not accepts_pair(m.relation, words[i], words[i + 1]):
            if projected:
                return f"projected step {i} not in the original relation"
            return f"step {i} is not in the transition relation"
    return None


def replay_path(m: RegularSystem, bad: FiniteAutomaton, witness: LassoWitness) -> tuple[bool, str]:
    """Check a path witness against initialness, the step relation and the
    bad set, which its last word must reach."""
    words = witness.words
    if not words:
        return False, "empty witness"
    if witness.loop_start is not None:
        return False, "a path witness has no loop"
    fault = _run_fault(m, words)
    if fault is not None:
        return False, fault
    if not _member(bad, words[-1]):
        return False, "last word is not bad"
    return True, "ok"


def replay_lasso(msys: BuchiRegularSystem, witness: LassoWitness) -> tuple[bool, str]:
    """Check a lasso against initialness, the step relation, loop closure and
    the acceptance condition; witnesses must replay before being reported."""
    words = witness.words
    if not words:
        return False, "empty witness"
    if witness.loop_start is None or not (0 <= witness.loop_start < len(words)):
        return False, "missing or out-of-range loop start"
    fault = _run_fault(msys.system, list(words) + [words[witness.loop_start]])
    if fault is not None:
        return False, fault
    loop = words[witness.loop_start:]
    if not any(_member(msys.acceptance, w) for w in loop):
        return False, "no loop word satisfies the acceptance condition"
    return True, "ok"
