"""The two workloads: seeded inputs, timed checks and their known answers.

A workload's `setup(seed, pass_no, workdir)` builds every input of one pass,
one fresh copy per check, so that cached state on an input object
(`adjacency`, `is_deterministic`, SCC data) never carries from one check to
the next.  It also computes every oracle answer.  Each `Check.run` is the
timed part, from input to verdict, witness replay included; `Check.judge`
runs afterwards, untimed, and returns why the outcome is wrong, or None.

Library calls go through module attributes (`losp.check_losp`, not a name
imported into this file), so that the tracer's rebinding sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import rmckit.cli as cli
import rmckit.fileformat as fileformat
import rmckit.fixtures as fx
import rmckit.gsp as gsp
import rmckit.losp as losp
import rmckit.simulation as simulation
import rmckit.system as system
from rmckit.automata import enumerate_words
from rmckit.system import HOLDS, VIOLATED
from rmckit.transducer import accepts_pair

import oracles

EXIT_CODE = {HOLDS: 0, VIOLATED: 1}


@dataclass
class Check:
    case: str
    run: Callable[[], object]
    judge: Callable[[object], str | None]
    status: Callable[[object], str]


def pass_rng(seed: int, pass_no: int) -> random.Random:
    return random.Random(f"{seed}/{pass_no}")


def _first(out) -> str:
    return out[0]


def _replay_judge(expected: str):
    def judge(out) -> str | None:
        status, replay = out[0], out[1]
        if status != expected:
            return f"verdict {status}, expected {expected}"
        if status == VIOLATED and not replay[0]:
            return f"witness failed replay: {replay[1]}"
        return None

    return judge


# ---------------------------------------------------------------------------
# fixpoint, LOSP half: liveness checks on the 96-letter augmented alphabet


# (label, system factory, slice, known answer); the acceptance suite pins
# the same answers for slices 2..5
LIVENESS_CASES = (
    ("ring", fx.token_ring, 2, HOLDS),
    ("ring", fx.token_ring, 3, HOLDS),
    ("idle", fx.token_ring_idle_mutant, 2, VIOLATED),
    ("idle", fx.token_ring_idle_mutant, 3, VIOLATED),
)


def liveness_checks() -> list[Check]:
    checks = []
    for label, make, n, expected in LIVENESS_CASES:
        sys_ = make()
        lep = losp.local_execution_property(
            "liveness", fx.lep_liveness(), fx.lep_liveness_negated()
        )
        lo = losp.losp_property(fx.losp_all_live_negated(), 1)

        def run(sys_=sys_, lep=lep, lo=lo, n=n):
            aug = losp.build_augmented_losp(system.slice_system(sys_, n), lo, [lep])
            verdict = losp.check_losp(aug, budget=32)
            replay = None
            if verdict.status == VIOLATED:
                replay = losp.replay_losp_witness(aug, verdict.witness)
            return verdict.status, replay

        checks.append(Check(f"losp-{label}-{n}", run, _replay_judge(expected), _first))
    return checks


# ---------------------------------------------------------------------------
# fixpoint, simulation half: greatest simulation on the 18-letter GSP
# augmentation


SIMULATION_CASES = (
    ("ring", fx.token_ring, 2, HOLDS),
    ("idle", fx.token_ring_idle_mutant, 2, HOLDS),
    ("dup", fx.token_ring_dup_mutant, 2, VIOLATED),
)


def _gsp_augmentation(make, n):
    cop = gsp.state_property("one_token", fx.cop_one_token())
    neg = gsp.negated_gsp(fx.gsp_always_one_token_negated(), 1)
    return gsp.build_augmented_finite(system.slice_system(make(), n), neg, [cop]), cop


def _brute_force_answer(make, n):
    """Reachable words of the augmented slice and their greatest simulation."""
    aug, cop = _gsp_augmentation(make, n)
    msys = aug.msys
    words = enumerate_words(system.reachable(msys.system, budget=32).automaton, n)
    idx = {w: i for i, w in enumerate(words)}
    edges = [
        (idx[a], idx[b])
        for a in words
        for b in words
        if accepts_pair(msys.system.relation, a, b)
    ]
    labels = [gsp.cop_of(aug.sigma_word(w), [cop]).mask for w in words]
    return words, simulation.brute_force_simulation(len(words), edges, labels)


def simulation_checks() -> list[Check]:
    checks = []
    for label, make, n, expected in SIMULATION_CASES:
        words, want = _brute_force_answer(make, n)
        aug, cop = _gsp_augmentation(make, n)

        def run(aug=aug, cop=cop):
            sim = simulation.sim_fixpoint(aug.msys, [cop], budget=30)
            verdict = simulation.check_emptiness_sim(aug.msys, sim, budget=32)
            replay = None
            if verdict.status == VIOLATED:
                replay = gsp.replay_gsp_witness(aug, verdict.witness)
            return verdict.status, replay, sim

        def judge(out, expected=expected, words=words, want=want):
            why = _replay_judge(expected)(out)
            if why is not None:
                return why
            sim = out[2]
            if not sim.exact:
                return "simulation fixpoint not reached"
            got = {
                (i, j)
                for i, a in enumerate(words)
                for j, b in enumerate(words)
                if accepts_pair(sim.relation, a, b)
            }
            if got != want:
                return "symbolic simulation differs from brute force"
            return None

        checks.append(Check(f"sim-{label}-{n}", run, judge, _first))
    return checks


def fixpoint_setup(seed: int, pass_no: int, workdir: Path) -> list[Check]:
    del workdir
    checks = liveness_checks() + simulation_checks()
    pass_rng(seed, pass_no).shuffle(checks)
    return checks


# ---------------------------------------------------------------------------
# sweep: many short CLI checks on bundles read from disk


# (command, example, slice range, known answer).  The duplicating mutant
# reaches two tokens on every slice, so both properties fail there; the
# idle mutant keeps exactly one token.  check-gsp on the duplicating mutant
# takes 5 s at slice 6 alone, so its range stops at 3.
BUNDLE_CHECKS = (
    ("check-reach", "token-ring", "2..24", HOLDS),
    ("check-reach", "token-ring-idle-mutant", "2..24", HOLDS),
    ("check-reach", "token-dup-mutant", "2..24", VIOLATED),
    ("check-gsp", "token-ring", "2..24", HOLDS),
    ("check-gsp", "token-ring-idle-mutant", "2..24", HOLDS),
    ("check-gsp", "token-dup-mutant", "2..3", VIOLATED),
)

# Random GSP instances drawn per seed, by (slice length, cop count), and
# rewritten by every pass.  The cost of one draw is heavy-tailed except in
# (2, 1): the slowest of 3000 draws there took 0.5 s and no draw raised the
# peak memory above 31 MB, while in (2, 2) 1 draw in 300 takes over 0.7 s
# and up to 90 MB, and (3, 1) reached 30 s and 350 MB in 1500 draws.  A
# seed holding such a draw sets its run's peak memory and wall time, and
# two such seeds out of ten move the quartiles.  Many light draws keep the
# median check steady across seeds; closure cost on hard instances is what
# the fixpoint workload measures.
RANDOM_DRAWS = {(2, 1): 220}

_RANDOM_SYSTEM = """\
alphabet: A B
mode: finite
initial: initial.aut
relation: relation.aut
{cops}property: gsp-negated neg neg.aut
"""


def random_instance(rng: random.Random, n: int, k: int) -> tuple[dict[str, str], str]:
    """Bundle files of one criterion-3-shaped GSP instance and its answer.

    A random system sliced to length n, k complete cop DFAs and a random
    negated weak DBA; the answer comes from the explicit-state oracle.
    """
    sliced = oracles.random_sliced_system(rng, n)
    cops = [
        gsp.state_property(f"c{i}", oracles.random_dfa_complete(rng, sliced.alphabet))
        for i in range(k)
    ]
    neg = gsp.negated_gsp(
        oracles.random_weak_dba(rng, gsp.cop_alphabet(k), max_states=3), k
    )
    files = {
        "initial.aut": fileformat.serialize_aut(sliced.initial),
        "relation.aut": fileformat.serialize_aut(sliced.relation),
        "neg.aut": fileformat.serialize_aut(neg.automaton),
        "system.sys": _RANDOM_SYSTEM.format(
            cops="".join(f"cop: {c.name} {c.name}.aut\n" for c in cops)
        ),
    }
    for c in cops:
        files[f"{c.name}.aut"] = fileformat.serialize_aut(c.automaton)
    violated = oracles.gsp_violation_oracle(sliced, n, neg.automaton, cops)
    return files, VIOLATED if violated else HOLDS


def random_instances(seed: int):
    """(name, slice, files, answer) for every random instance of a seed."""
    rng = random.Random(seed)
    out = []
    for (n, k), count in RANDOM_DRAWS.items():
        for i in range(count):
            files, answer = random_instance(rng, n, k)
            out.append((f"r{n}{k}-{i}", n, files, answer))
    return out


def _cli_check(argv: list[str], expected: str, case: str) -> Check:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def judge(out) -> str | None:
        code, text = out
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            return f"exit {code} without a JSON report"
        if code != EXIT_CODE[expected] or doc["overall"] != expected:
            return f"overall {doc['overall']} (exit {code}), expected {expected}"
        for row in doc["slices"]:
            if row["status"] != expected:
                return f"slice {row['slice']}: {row['status']}, expected {expected}"
            if expected == VIOLATED and not row.get("witness"):
                return f"slice {row['slice']}: violated without a witness"
        return None

    def status(out) -> str:
        try:
            return json.loads(out[1])["overall"]
        except (json.JSONDecodeError, KeyError):
            return "error"

    return Check(case, run, judge, status)


def sweep_setup(seed: int, pass_no: int, workdir: Path) -> list[Check]:
    root = workdir / "sweep"
    if pass_no == 0:
        shutil.rmtree(root, ignore_errors=True)
    # later passes overwrite the same file names in place: creating and
    # unlinking some 1100 files per pass made set-up time swing by half
    # with the file system's load
    checks = []
    for name in fx.EXAMPLE_NAMES:
        fx.gen_example(name, root / name)
    for command, name, span, expected in BUNDLE_CHECKS:
        argv = [command, "--system", str(root / name / "system.sys"),
                "--slice", span, "--format", "json"]
        checks.append(_cli_check(argv, expected, f"{command}:{name}"))
    for case, n, files, expected in random_instances(seed):
        target = root / case
        target.mkdir(parents=True, exist_ok=True)
        for fname, text in files.items():
            (target / fname).write_text(text)
        argv = ["check-gsp", "--system", str(target / "system.sys"),
                "--slice", str(n), "--format", "json"]
        checks.append(_cli_check(argv, expected, case))
    pass_rng(seed, pass_no).shuffle(checks)
    return checks


WORKLOADS = {
    "fixpoint": fixpoint_setup,
    "sweep": sweep_setup,
}
