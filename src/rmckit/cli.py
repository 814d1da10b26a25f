"""Command-line verification pipelines: parsing and rendering only.

Each command hands one check to the library's slice runner,
`system.verify_parametric`, and `_report` renders its results.
`check-reach` and `check-gsp --engine loop` run once over the whole slice
range and give a verdict per slice; the other commands run slice by slice
through `system.each_slice`.  A row's `time_ms` is the wall time of the run
that gave it, so the rows of one range run all carry that run's time.
`closure` and `sim` report holds when their fixpoint converged, else
unknown.

Exit codes: 0 the property holds (on every requested slice), 1 violated
(a replayed witness is printed), 2 unknown (budget or approximation), 3
input error, a usage error among them.  `--budget` is a positive integer.
`--slice LO..HI` needs 1 <= LO <= HI; slices are reported in slice order.
`--slice none` runs the check once on the unsliced system.

The parser is built once per process; it names each command's handler,
which `main` looks up in this module at call time.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import fixtures
from .errors import InputError, RmckitError
from .fileformat import LoadedSystem, _typed_property, load_system, parse_aut
from .gsp import (
    build_augmented_finite,
    build_augmented_omega,
    check_emptiness_loop,
    replay_gsp_witness,
)
from .losp import build_augmented_losp, check_losp, replay_losp_witness
from .omega import _segments
from .simulation import check_emptiness_sim, sim_fixpoint
from .system import (
    HOLDS,
    UNKNOWN,
    VIOLATED,
    RegularSystem,
    Verdict,
    check_reachability_property,
    each_slice,
    verify_parametric,
)
from .transducer import OMEGA, closure

SCHEMA = 1
_EXIT = {HOLDS: 0, VIOLATED: 1, UNKNOWN: 2}
# the property kinds a GSP check reads: `gsp` blocks were negated at load
# time, and a property file, typed as the first, holds a negated property
_GSP_KINDS = ("gsp-negated", "gsp")
# verdict diagnostics that a verdict's text line prints, in print order
_LINE_KEYS = ("steps", "reach_steps", "nested_rounds", "closure_steps", "reason", "sim_exact")


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return globals()[args.handler](args)
    except (RmckitError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: exit 3, not argparse's 2, which here
    means unknown."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _budget(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"budget must be a positive integer, not {text!r}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rmckit",
        description="regular model checking of linear temporal properties",
    )
    sub = parser.add_subparsers(required=True)

    def common(p, engine=False):
        p.add_argument("--system", required=True, help="system file (.sys)")
        p.add_argument(
            "--property",
            default=None,
            help="property name declared in the system file, or an automaton file",
        )
        p.add_argument(
            "--slice",
            default="2..8",
            help="slice range LO..HI, a single length, or `none` (default 2..8)",
        )
        p.add_argument("--budget", type=_budget, default=64, help="fixpoint budget (default 64)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if engine:
            p.add_argument("--engine", choices=("loop", "sim"), default="loop")

    p = sub.add_parser("check-reach", help="reachability property (bad-state avoidance)")
    common(p)
    p.set_defaults(handler="cmd_check_reach")

    p = sub.add_parser("check-gsp", help="global system property")
    common(p, engine=True)
    p.set_defaults(handler="cmd_check_gsp")

    p = sub.add_parser("check-losp", help="local-oriented system property")
    common(p)
    p.set_defaults(handler="cmd_check_losp")

    p = sub.add_parser("closure", help="iterative closure of the system relation")
    p.add_argument("--system", required=True)
    p.add_argument("--kind", choices=("star", "plus"), default="star")
    p.add_argument("--slice", default="none")
    p.add_argument("--budget", type=_budget, default=64)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler="cmd_closure")

    p = sub.add_parser("sim", help="greatest-simulation fixpoint of the augmented system")
    common(p)
    p.set_defaults(handler="cmd_sim")

    p = sub.add_parser("gen-example", help="write a worked example bundle")
    p.add_argument("name", choices=fixtures.EXAMPLE_NAMES)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(handler="cmd_gen_example")
    return parser


def _parse_slice(text: str, unsliced_error: str | None = None) -> tuple[int, int] | None:
    """`none`, a length N or a range LO..HI with 1 <= LO <= HI; `none` is
    refused with `unsliced_error` if one is given."""
    if text == "none":
        if unsliced_error is not None:
            raise InputError(unsliced_error)
        return None
    lo, sep, hi = text.partition("..")
    try:
        span = int(lo), int(hi if sep else lo)
    except ValueError:
        raise InputError(f"bad slice range {text!r}")
    if not 1 <= span[0] <= span[1]:
        raise InputError(f"bad slice range {text!r}: need 1 <= LO <= HI")
    return span


def _property(loaded: LoadedSystem, kinds: tuple[str, ...], arg: str | None):
    """The automaton of the first declared property of one of `kinds` named
    `arg` (any name if None), or, when `arg` is a file, its automaton typed
    as a property of kind `kinds[0]`, as a declared block would be."""
    if arg is not None and Path(arg).is_file():
        return _typed_property(kinds[0], parse_aut(Path(arg).read_text()), loaded)
    for kind in kinds:
        try:
            return loaded.property_named(kind, arg).automaton
        except InputError:
            continue
    raise InputError(
        f"no {' or '.join(kinds)} property" + (f" named {arg!r}" if arg else "") + " declared"
    )


# ---------------------------------------------------------------------------
# reporting


def _label(row: dict) -> str:
    return "unsliced" if row["slice"] is None else f"slice {row['slice']}"


def _verdict_line(row: dict) -> None:
    extra = [f"{key}={row[key]}" for key in _LINE_KEYS if row.get(key) is not None]
    suffix = f" ({', '.join(extra)})" if extra else ""
    print(f"{_label(row)}: {row['status']}{suffix} [{row['time_ms']} ms]")
    if row.get("witness"):
        w = row["witness"]
        start = w["loop_start"]
        print("  path witness:" if start is None else f"  lasso, loop starts at index {start}:")
        for i, word in enumerate(w["words"]):
            print(f"    {i}: {' '.join(word)}")


def _fields_line(row: dict, keys: tuple[str, ...]) -> None:
    fields = " ".join(f"{key}={row[key]}" for key in keys)
    print(f"{_label(row)}: {fields} [{row['time_ms']} ms]")
    if "reason" in row:
        print(f"  reason: {row['reason']}")


def _report(args, command: str, base: RegularSystem, check, span, fields=()) -> int:
    """Run `check` through `verify_parametric` over the slices of `span`
    (None: unsliced), print a row per result, and return the exit code of
    the runner's conjunction.  Witness words must be words of `base`; a
    text row prints the diagnostics `fields`, or else verdict and witness."""
    results, overall = verify_parametric(base, check, *(span or (None,)))  # None: unsliced
    rows = []
    for n, verdict in results.items():
        row = {"slice": n, "status": verdict.status, **verdict.diagnostics}
        if verdict.witness is not None:
            row["witness"] = {
                "loop_start": verdict.witness.loop_start,
                "words": _witness_words(verdict.witness.words, base.alphabet),
            }
        rows.append(row)
    if args.format == "json":
        doc = {
            "schema": SCHEMA,
            "command": command,
            "system": args.system,
            "slices": rows,
            "overall": overall.status,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for row in rows:
            _fields_line(row, fields) if fields else _verdict_line(row)
        print(f"overall: {overall.status}")
    return _EXIT[overall.status]


def _each(out, f):
    """`f` applied to a verdict, or to each verdict of a per-slice dict."""
    return f(out) if isinstance(out, Verdict) else {n: f(v) for n, v in out.items()}


def _timed(check):
    """`check` with the wall time of each call stamped on the verdicts it
    returns, as `time_ms`."""

    def run(m: RegularSystem, lengths):
        start = time.perf_counter()
        out = check(m, lengths)
        ms = round((time.perf_counter() - start) * 1000, 1)
        return _each(out, lambda v: replace(v, diagnostics={**v.diagnostics, "time_ms": ms}))

    return run


def _witness_words(words, alphabet) -> list[list[str]]:
    """Witness words as letter names; the period of an omega-word follows a `|`."""
    out = []
    for w in words:
        names = []
        for i, part in enumerate(_segments(w)):
            if i:
                names.append("|")
            names.extend(alphabet.name(s) for s in part)
        out.append(names)
    return out


def _replayed(out, aug, replay):
    """The verdicts once their witnesses have replayed through the full
    construction, with the witness words projected onto the original system."""

    def project(verdict: Verdict) -> Verdict:
        if verdict.witness is None:
            return verdict
        ok, why = replay(aug, verdict.witness)
        if not ok:
            raise InputError(f"witness failed replay: {why}")
        words = tuple(aug.sigma_word(w) for w in verdict.witness.words)
        return replace(verdict, witness=replace(verdict.witness, words=words))

    return _each(out, project)


# ---------------------------------------------------------------------------
# commands


def cmd_check_reach(args) -> int:
    loaded = load_system(args.system)
    bad = _property(loaded, ("reach-bad",), args.property)

    def check(m: RegularSystem, lengths):
        return check_reachability_property(m, bad, args.budget, lengths)

    return _report(args, "check-reach", loaded.system, _timed(check), _parse_slice(args.slice))


def cmd_check_gsp(args) -> int:
    loaded = load_system(args.system)
    neg = _property(loaded, _GSP_KINDS, args.property)
    base = loaded.system
    build = build_augmented_omega if base.mode == OMEGA else build_augmented_finite

    def loop(m: RegularSystem, lengths):
        aug = build(m, neg, loaded.cops)
        verdicts = check_emptiness_loop(aug.msys, args.budget, lengths)
        return _replayed(verdicts, aug, replay_gsp_witness)

    def sim(m: RegularSystem, n) -> Verdict:
        aug = build(m, neg, loaded.cops)
        sim = sim_fixpoint(aug.msys, loaded.cops, args.budget)
        if not sim.exact:
            # an unconverged iterate is not a simulation, so no check runs
            return Verdict.unknown(sim.reason, sim_exact=False)
        verdict = check_emptiness_sim(aug.msys, sim, args.budget)
        return _replayed(verdict, aug, replay_gsp_witness)

    check = each_slice(_timed(sim)) if args.engine == "sim" else _timed(loop)
    # omega-mode systems are not sliced (their words are infinite), but a
    # malformed --slice is rejected all the same
    span = _parse_slice(args.slice)
    return _report(args, "check-gsp", base, check, None if base.mode == OMEGA else span)


def cmd_check_losp(args) -> int:
    loaded = load_system(args.system)
    lo_prop = _property(loaded, ("losp-negated",), args.property)

    def check(m: RegularSystem, n) -> Verdict:
        aug = build_augmented_losp(m, lo_prop, loaded.leps)
        return _replayed(check_losp(aug, args.budget), aug, replay_losp_witness)

    span = _parse_slice(args.slice, "check-losp needs a slice range (parametric verification)")
    return _report(args, "check-losp", loaded.system, each_slice(_timed(check)), span)


def _fixpoint(done: bool, **diag) -> Verdict:
    """A `closure` or `sim` row: holds when the fixpoint converged, else unknown."""
    return Verdict(HOLDS if done else UNKNOWN, None, diag)


def cmd_closure(args) -> int:
    loaded = load_system(args.system)

    def check(m: RegularSystem, n) -> Verdict:
        r = closure(m.relation, args.kind, args.budget)
        states = r.relation.inner.n_states
        return _fixpoint(r.converged, converged=r.converged, steps=r.steps_used, states=states)

    span = _parse_slice(args.slice)
    fields = ("converged", "steps", "states")
    return _report(args, "closure", loaded.system, each_slice(_timed(check)), span, fields)


def cmd_sim(args) -> int:
    loaded = load_system(args.system)
    neg = _property(loaded, _GSP_KINDS, args.property)

    def check(m: RegularSystem, n) -> Verdict:
        aug = build_augmented_finite(m, neg, loaded.cops)
        sim = sim_fixpoint(aug.msys, loaded.cops, args.budget)
        states = sim.relation.inner.n_states
        capped = {} if sim.reason is None else {"reason": sim.reason}
        return _fixpoint(
            sim.exact, exact=sim.exact, iterations=sim.iteration_index, states=states, **capped
        )

    needs = "sim needs a slice range (finite-index detection is per slice)"
    span = _parse_slice(args.slice, needs)
    fields = ("exact", "iterations", "states")
    return _report(args, "sim", loaded.system, each_slice(_timed(check)), span, fields)


def cmd_gen_example(args) -> int:
    files = fixtures.gen_example(args.name, args.out)
    for f in files:
        print(f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
