"""Command-line pipelines: exit codes, reports, golden bundles, witnesses."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from rmckit import FiniteAutomaton, cli, system
from rmckit.cli import main
from rmckit.fixtures import EXAMPLE_NAMES, gen_example


@pytest.fixture(scope="module")
def ring_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("ring")
    gen_example("token-ring", out)
    return out


@pytest.fixture(scope="module")
def idle_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("idle")
    gen_example("token-ring-idle-mutant", out)
    return out


@pytest.fixture(scope="module")
def dup_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("dup")
    gen_example("token-dup-mutant", out)
    return out


def test_bundles_are_byte_stable(tmp_path):
    for name in EXAMPLE_NAMES:
        first = tmp_path / "a" / name
        second = tmp_path / "b" / name
        files1 = gen_example(name, first)
        files2 = gen_example(name, second)
        assert [f.name for f in files1] == [f.name for f in files2]
        for f1, f2 in zip(files1, files2):
            assert f1.read_bytes() == f2.read_bytes()


def test_check_reach_holds_exit_zero(ring_dir, capsys):
    code = main(
        ["check-reach", "--system", str(ring_dir / "system.sys"), "--slice", "2..8"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: holds" in out
    assert all(f"slice {n}: holds" in out for n in range(2, 9))


def test_check_reach_json_schema(ring_dir, capsys):
    code = main(
        [
            "check-reach",
            "--system",
            str(ring_dir / "system.sys"),
            "--slice",
            "2..4",
            "--format",
            "json",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert [row["slice"] for row in doc["slices"]] == [2, 3, 4]
    assert all(row["status"] == "holds" for row in doc["slices"])


def test_check_gsp_dup_mutant_violated(dup_dir, capsys):
    code = main(
        ["check-gsp", "--system", str(dup_dir / "system.sys"), "--slice", "3..3"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "violated" in out and "loop starts at index" in out
    assert "T T N" in out  # a two-token word appears in the printed lasso


def test_check_losp_idle_mutant_violated(idle_dir, capsys):
    code = main(
        ["check-losp", "--system", str(idle_dir / "system.sys"), "--slice", "2..2"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "violated" in out


def test_check_losp_json_row_carries_nested_fixpoint_diagnostics(idle_dir, capsys):
    argv = ["check-losp", "--system", str(idle_dir / "system.sys"), "--slice", "2..2"]
    code = main(argv + ["--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["schema"] == 1
    (row,) = doc["slices"]
    assert row["status"] == "violated"
    assert row["nested_rounds"] >= 1
    assert row["converged"] is True
    assert "closure_steps" not in row


def test_check_losp_ring_holds(ring_dir, capsys):
    code = main(
        ["check-losp", "--system", str(ring_dir / "system.sys"), "--slice", "2..3"]
    )
    assert code == 0
    assert "overall: holds" in capsys.readouterr().out


# the complement of liveness behind a dead initial state: only runs that
# start in the second initial state accept
TWO_INITIAL_LIVENESS_NEG = """\
kind: buchi
alphabet: N T
states: 4
initial: 0 1
accepting: 2
trans:
0 N 0
0 T 0
1 N 1
1 N 2
1 T 1
2 N 2
2 T 3
3 N 3
3 T 3
"""


def test_check_losp_complement_with_two_initial_states(tmp_path, capsys):
    gen_example("token-ring-idle-mutant", tmp_path)
    (tmp_path / "lep_liveness_neg.aut").write_text(TWO_INITIAL_LIVENESS_NEG)
    argv = ["check-losp", "--system", str(tmp_path / "system.sys"), "--slice", "2..3"]
    code = main(argv + ["--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    # exit 1, not 3: each witness replayed through the construction
    assert code == 1
    assert [row["status"] for row in doc["slices"]] == ["violated", "violated"]
    assert all(row["witness"]["words"] for row in doc["slices"])


def test_closure_unsliced_budget_reports_unknown(ring_dir, capsys):
    code = main(
        ["closure", "--system", str(ring_dir / "system.sys"), "--budget", "8"]
    )
    out = capsys.readouterr().out
    assert code == 2
    assert "converged=False" in out


def test_closure_json_report(ring_dir, capsys):
    system = str(ring_dir / "system.sys")
    code = main(["closure", "--system", system, "--budget", "8", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert doc["schema"] == 1
    assert doc["command"] == "closure"
    assert doc["overall"] == "unknown"
    assert [row["converged"] for row in doc["slices"]] == [False]
    code = main(["closure", "--system", system, "--slice", "2..3", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["command"] == "closure"
    assert doc["overall"] == "holds"
    assert [row["slice"] for row in doc["slices"]] == [2, 3]


def test_check_reach_unsliced_budget_unknown(ring_dir, capsys):
    code = main(
        [
            "check-reach",
            "--system",
            str(ring_dir / "system.sys"),
            "--slice",
            "none",
            "--budget",
            "8",
        ]
    )
    out = capsys.readouterr().out
    assert code == 2
    assert "reason=budget exhausted before the reachability fixpoint converged" in out
    assert "overall: unknown" in out


def test_sim_command_exact(ring_dir, capsys):
    code = main(["sim", "--system", str(ring_dir / "system.sys"), "--slice", "2..2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "exact=True" in out


def test_sim_json_report(ring_dir, capsys):
    argv = ["sim", "--system", str(ring_dir / "system.sys"), "--slice", "2..2"]
    code = main(argv + ["--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["schema"] == 1
    assert doc["command"] == "sim"
    assert doc["overall"] == "holds"
    assert [(row["slice"], row["exact"]) for row in doc["slices"]] == [(2, True)]
    # one refinement step does not reach the fixpoint on this slice
    code = main(argv + ["--budget", "1", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert doc["command"] == "sim"
    assert doc["overall"] == "unknown"
    assert [row["exact"] for row in doc["slices"]] == [False]
    reason = "budget 1 exhausted before the simulation fixpoint converged"
    assert [row["reason"] for row in doc["slices"]] == [reason]
    assert main(argv + ["--budget", "1"]) == 2
    assert f"  reason: {reason}\n" in capsys.readouterr().out


def test_input_error_exit_three(capsys):
    code = main(["check-reach", "--system", "/definitely/not/there.sys"])
    assert code == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["check-gsp", "--budget", "abc", "--system", "x.sys"],
        ["check-gsp"],
        [],
        ["check-reach", "--system", "x.sys", "--engine", "sim"],
    ],
)
def test_usage_error_exit_three(argv, capsys):
    # argparse's own exit code 2 would read as `unknown`
    code = main(argv)
    assert code == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check-reach", "check-gsp", "check-losp", "sim", "closure"])
@pytest.mark.parametrize("budget", ["0", "-3"])
def test_nonpositive_budget_is_an_input_error(ring_dir, capsys, command, budget):
    argv = [command, "--system", str(ring_dir / "system.sys"), "--slice", "2..2"]
    code = main(argv + ["--budget", budget])
    captured = capsys.readouterr()
    assert code == 3
    assert "overall" not in captured.out
    assert "budget must be a positive integer" in captured.err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["check-gsp", "--help"])
    assert exit_info.value.code == 0
    assert "--budget" in capsys.readouterr().out


def _masked_run(argv) -> tuple[int, str, str]:
    """Exit code, standard output with times masked, and standard error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, re.sub(r'(\[|"time_ms": )[0-9.]+', r"\1<t>", out.getvalue()), err.getvalue()


def test_cached_parser_gives_the_output_of_a_fresh_one(dup_dir):
    system = str(dup_dir / "system.sys")
    runs = [
        ["check-gsp", "--budget", "abc", "--system", system],
        ["check-reach", "--system", system, "--slice", "2..3"],
        ["check-gsp", "--system", system, "--slice", "2..3", "--format", "json"],
        ["closure", "--system", system, "--slice", "2..3"],
    ]
    cli._build_parser.cache_clear()
    cached = [_masked_run(argv) for argv in runs]
    assert cli._build_parser.cache_info().hits == len(runs) - 1
    fresh = []
    for argv in runs:
        cli._build_parser.cache_clear()
        fresh.append(_masked_run(argv))
    assert cached == fresh
    assert [code for code, _, _ in cached] == [3, 1, 1, 0]


def test_rebound_handler_is_called_after_the_parser_is_cached(ring_dir, monkeypatch):
    system = str(ring_dir / "system.sys")
    assert main(["check-reach", "--system", system, "--slice", "2..2"]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_check_reach", lambda args: seen.append(args.slice) or 7)
    assert main(["check-reach", "--system", system, "--slice", "3..4"]) == 7
    assert seen == ["3..4"]


def test_gsp_engine_sim(ring_dir, capsys):
    code = main(
        [
            "check-gsp",
            "--system",
            str(ring_dir / "system.sys"),
            "--slice",
            "2..2",
            "--engine",
            "sim",
        ]
    )
    assert code == 0
    assert "overall: holds" in capsys.readouterr().out


def test_slices_reported_in_order(ring_dir, capsys):
    code = main(
        ["check-reach", "--system", str(ring_dir / "system.sys"), "--slice", "2..5"]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("slice ")]
    assert [l.split(":")[0] for l in lines] == [f"slice {n}" for n in range(2, 6)]


@pytest.mark.parametrize("command", ["check-reach", "check-gsp"])
@pytest.mark.parametrize("bundle", ["ring_dir", "idle_dir", "dup_dir"])
def test_range_rows_equal_the_rows_of_single_slice_runs(request, capsys, command, bundle):
    # one range run gives each slice the row that the slice's own run gives
    sys_file = str(request.getfixturevalue(bundle) / "system.sys")

    def rows(span):
        main([command, "--system", sys_file, "--slice", span, "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        for row in doc["slices"]:
            del row["time_ms"]
        return doc["slices"]

    assert rows("2..7") == [row for n in range(2, 8) for row in rows(str(n))]


@pytest.mark.parametrize("command", ["check-reach", "check-gsp"])
def test_range_checks_slice_no_system(ring_dir, capsys, monkeypatch, command):
    calls = []
    real = system.slice_system
    monkeypatch.setattr(system, "slice_system", lambda *args: calls.append(args) or real(*args))
    code = main([command, "--system", str(ring_dir / "system.sys"), "--slice", "2..24"])
    assert code == 0 and calls == []
    # checks with no range engine still slice, once per slice
    main(["closure", "--system", str(ring_dir / "system.sys"), "--slice", "2..3"])
    assert [n for _, n in calls] == [2, 3]


@pytest.mark.parametrize(
    "command, bundle, span",
    [
        ("check-losp", "ring_dir", "2"),
        ("check-losp", "idle_dir", "2"),
        ("check-gsp", "ring_dir", "2..4"),
        ("check-gsp", "dup_dir", "2..3"),
    ],
)
def test_finite_checks_build_no_transition_set(request, capsys, monkeypatch, command, bundle, span):
    # rows are the one stored form of an automaton: once the system is
    # loaded, a check (witness replay included) neither reads a transition
    # set nor groups one into rows through the public constructor
    calls = []
    real_load, real_init = cli.load_system, FiniteAutomaton.__init__
    derive = FiniteAutomaton.transitions.func

    def load(path):
        out = real_load(path)
        calls.append("loaded")
        return out

    def init(self, *args):
        calls.append("constructor")
        real_init(self, *args)

    def transitions(self):
        calls.append("transitions")
        return derive(self)

    monkeypatch.setattr(cli, "load_system", load)
    monkeypatch.setattr(FiniteAutomaton, "__init__", init)
    monkeypatch.setattr(FiniteAutomaton, "transitions", property(transitions))
    sys_file = str(request.getfixturevalue(bundle) / "system.sys")
    assert main([command, "--system", sys_file, "--slice", span]) in (0, 1)
    assert calls[calls.index("loaded"):] == ["loaded"]


# a negated GSP property with ten states: with one cop the augmented
# alphabet has 2 * 11 * 3 = 66 letters, 4356 letter pairs; the simulation
# refinement complements relations over all of them only while
# reachability has not converged
NEGATED_TEN_STATES = (
    "kind: weak-dba\nalphabet: m0 m1\nstates: 10\ninitial: 0\naccepting: 9\ntrans:\n"
    + "".join(f"{i} m0 {i}\n{i} m1 {min(i + 1, 9)}\n" for i in range(10))
)


def _ten_state_argv(ring_dir, tmp_path):
    prop = tmp_path / "neg.aut"
    prop.write_text(NEGATED_TEN_STATES)
    return ["--system", str(ring_dir / "system.sys"), "--property", str(prop), "--slice", "2..3"]


@pytest.mark.parametrize("command", [["check-gsp", "--engine", "sim"], ["sim"]])
def test_sim_engine_at_the_completion_cap_is_unknown(
    ring_dir, tmp_path, capsys, monkeypatch, command
):
    # at budget 1 reach does not converge, so the simulation would run on
    # all pairs over the whole pair alphabet: the cap stops it before any step
    from rmckit import simulation

    steps = []
    real = simulation.sim_step
    monkeypatch.setattr(simulation, "sim_step", lambda *a: steps.append(a) or real(*a))
    argv = _ten_state_argv(ring_dir, tmp_path)
    code = main(command + argv + ["--budget", "1", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    doc = json.loads(captured.out)
    assert doc["overall"] == "unknown"
    assert [row["reason"] for row in doc["slices"]] == [
        "alphabet of size 4356 exceeds completion cap 4096"
    ] * 2
    assert steps == []
    if command == ["sim"]:
        assert [row["iterations"] for row in doc["slices"]] == [0, 0]


def test_sim_engine_with_converged_reach_decides_the_cap_instance(ring_dir, tmp_path, capsys):
    # with reach converged, not G is taken relative to R x R and nothing is
    # completed: the engine decides the instance as the loop engine does
    argv = _ten_state_argv(ring_dir, tmp_path)
    code = main(["check-gsp", "--engine", "sim"] + argv + ["--format", "json"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    rows = json.loads(captured.out)["slices"]
    assert [(row["status"], row["sim_exact"]) for row in rows] == [("violated", True)] * 2
    assert all(row["witness"]["words"] for row in rows)  # printed only after replay
    assert main(["check-gsp"] + argv) == 1


@pytest.mark.parametrize("command", ["check-reach", "check-gsp", "check-losp", "sim", "closure"])
@pytest.mark.parametrize("span", ["5..2", "0..3", "0"])
def test_bad_slice_range_is_an_input_error(dup_dir, capsys, command, span):
    # an empty or nonpositive range must not pass as a vacuous `holds`
    code = main([command, "--system", str(dup_dir / "system.sys"), "--slice", span])
    captured = capsys.readouterr()
    assert code == 3
    assert "overall" not in captured.out
    assert "bad slice range" in captured.err


@pytest.mark.parametrize(
    "command, needs",
    [
        ("check-losp", "check-losp needs a slice range"),
        ("sim", "sim needs a slice range"),
    ],
)
def test_unsliced_run_is_refused_where_unsupported(dup_dir, capsys, command, needs):
    code = main([command, "--system", str(dup_dir / "system.sys"), "--slice", "none"])
    captured = capsys.readouterr()
    assert code == 3
    assert "overall" not in captured.out
    assert f"error: {needs}" in captured.err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "command, prop",
    [
        ("check-reach", "relation.aut"),  # a transducer
        ("check-reach", "lep_liveness.aut"),  # a Buchi automaton on a finite system
        ("check-losp", "relation.aut"),
        ("check-losp", "lep_liveness.aut"),
        ("check-gsp", "bad_two_tokens.aut"),  # a finite-word automaton
    ],
)
def test_wrong_kind_property_file_is_an_input_error(dup_dir, capsys, command, prop, fmt):
    argv = [command, "--system", str(dup_dir / "system.sys"), "--slice", "2..3"]
    code = main(argv + ["--property", str(dup_dir / prop), "--format", fmt])
    captured = capsys.readouterr()
    assert code == 3
    assert "overall" not in captured.out
    assert "error:" in captured.err


def test_unknown_property_name_is_worded_like_the_loader(dup_dir, capsys):
    argv = ["check-gsp", "--system", str(dup_dir / "system.sys"), "--property", "nope"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "error: no gsp-negated or gsp property named 'nope' declared" in err


# a finite-word automaton over another alphabet than the ring's
OTHER_ALPHABET_DFA = "kind: dfa\nalphabet: A B\nstates: 1\ninitial: 0\naccepting: 0\ntrans:\n"


@pytest.mark.parametrize(
    "command, name, file, error",
    [
        ("check-gsp", "always_one_token", "gsp_always_one_neg.aut", None),
        ("check-losp", "all_live", "losp_all_live_neg.aut", None),
        # a Buchi automaton as the bad set of a finite system
        ("check-reach", "wrong", "lep_liveness.aut", "bad set must be a finite-word automaton"),
        ("check-reach", "wrong", "other.aut", "bad-set automaton is over a different alphabet"),
    ],
    ids=["gsp", "losp", "reach-kind", "reach-alphabet"],
)
def test_property_file_is_typed_as_a_declared_block(tmp_path, command, name, file, error):
    # `--property FILE` and a declared block of the command's first kind go
    # through one typing table: the same rows, or the same error
    gen_example("token-dup-mutant", tmp_path)
    (tmp_path / "other.aut").write_text(OTHER_ALPHABET_DFA)
    path = tmp_path / "system.sys"
    argv = [command, "--system", str(path), "--slice", "2..3", "--format", "json"]
    by_file = _masked_run(argv + ["--property", str(tmp_path / file)])
    if error is None:
        assert by_file[0] == 1
        assert by_file == _masked_run(argv + ["--property", name])
        return
    assert by_file == (3, "", f"error: {error}\n")
    text = path.read_text()
    line = len(text.splitlines()) + 1
    path.write_text(text + f"property: reach-bad {name} {file}\n")
    # a declared block is typed at load, so every command refuses it
    for other in (argv + ["--property", name], ["closure", "--system", str(path)]):
        assert _masked_run(other) == (3, "", f"error: property {name!r}: {error} (line {line})\n")


OMEGA_BUNDLE = {
    "system.sys": "alphabet: N T\nmode: omega\ninitial: initial.aut\nrelation: relation.aut\n",
    "initial.aut": "kind: weak-dba\nalphabet: N T\nstates: 1\ninitial: 0\naccepting: 0\n"
    "trans:\n0 N 0\n",
    # the first letter may turn from N to T
    "relation.aut": "kind: omega-transducer\nalphabet: N T\nstates: 2\ninitial: 0\n"
    "accepting: 0 1\ntrans:\n0 N/T 1\n1 N/N 1\n",
    "bad_has_t.aut": "kind: weak-dba\nalphabet: N T\nstates: 2\ninitial: 0\naccepting: 1\n"
    "trans:\n0 N 0\n0 T 1\n1 N 1\n1 T 1\n",
}


def test_check_reach_omega_path_witness(tmp_path, capsys):
    for name, text in OMEGA_BUNDLE.items():
        (tmp_path / name).write_text(text)
    argv = ["check-reach", "--system", str(tmp_path / "system.sys"), "--slice", "none"]
    code = main(argv + ["--property", str(tmp_path / "bad_has_t.aut")])
    out = capsys.readouterr().out
    assert code == 1
    # omega-words print as prefix | period
    assert "    0: N | N\n    1: T | N\n" in out


def test_check_reach_omega_declared_property(tmp_path, capsys):
    # an omega-mode system declares its reach-bad set as a weak DBA
    bundle = dict(OMEGA_BUNDLE)
    bundle["system.sys"] += "property: reach-bad has_t bad_has_t.aut\n"
    for name, text in bundle.items():
        (tmp_path / name).write_text(text)
    argv = ["check-reach", "--system", str(tmp_path / "system.sys"), "--slice", "none"]
    for extra in ([], ["--property", "has_t"]):
        code = main(argv + extra)
        out = capsys.readouterr().out
        assert code == 1
        assert "    0: N | N\n    1: T | N\n" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_check_reach_omega_finite_property_file_is_an_input_error(tmp_path, capsys, fmt):
    bundle = dict(OMEGA_BUNDLE)
    bundle["bad_finite.aut"] = (
        "kind: nfa\nalphabet: N T\nstates: 2\ninitial: 0\naccepting: 1\n"
        "trans:\n0 N 0\n0 T 1\n1 N 1\n1 T 1\n"
    )
    for name, text in bundle.items():
        (tmp_path / name).write_text(text)
    argv = ["check-reach", "--system", str(tmp_path / "system.sys"), "--slice", "none"]
    code = main(argv + ["--property", str(tmp_path / "bad_finite.aut"), "--format", fmt])
    captured = capsys.readouterr()
    assert code == 3
    assert "overall" not in captured.out
    assert "error: bad set must be an omega-word automaton" in captured.err


@pytest.mark.parametrize("files", ["cop_one_token.aut", "lep_liveness.aut cop_one_token.aut"])
def test_finite_word_lep_is_an_input_error(tmp_path, capsys, files):
    gen_example("token-ring", tmp_path)
    path = tmp_path / "system.sys"
    text = path.read_text()
    lep = "lep: liveness lep_liveness.aut lep_liveness_neg.aut"
    assert lep in text
    path.write_text(text.replace(lep, f"lep: liveness {files}"))
    code = main(["check-reach", "--system", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == (
        "error: lep 'liveness': local execution property 'liveness' needs Buchi automata"
        " (line 8)\n"
    )


def test_initial_set_naming_a_transducer_is_an_input_error(tmp_path, capsys):
    # the initial set is checked as a set of the relation's words, its kind first
    gen_example("token-ring", tmp_path)
    path = tmp_path / "system.sys"
    text = path.read_text()
    assert "initial: initial.aut\n" in text
    path.write_text(text.replace("initial: initial.aut\n", "initial: relation.aut\n"))
    code = main(["check-reach", "--system", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: initial set must be a finite-word automaton\n"


def test_a_file_that_cannot_be_read_is_an_input_error(tmp_path, capsys):
    # the error names the system file, the entry or the property file
    gen_example("token-ring", tmp_path)
    path = tmp_path / "system.sys"
    lines = path.read_text().splitlines()
    lineno = lines.index("initial: initial.aut") + 1
    lines[lineno - 1] = "initial: ."
    path.write_text("\n".join(lines) + "\n")
    assert main(["check-reach", "--system", str(path)]) == 3
    assert capsys.readouterr().err == (
        f"error: referenced file '.' cannot be read: Is a directory (line {lineno})\n"
    )
    assert main(["check-reach", "--system", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        f"error: system file {str(tmp_path)!r} cannot be read: Is a directory\n"
    )
    latin1 = tmp_path / "latin1.aut"
    latin1.write_bytes("# état\n".encode("latin-1"))
    lines[lineno - 1] = "initial: initial.aut"
    path.write_text("\n".join(lines) + "\n")
    assert main(["check-gsp", "--system", str(path), "--property", str(latin1)]) == 3
    assert capsys.readouterr().err == f"error: property file {str(latin1)!r} is not UTF-8 text\n"


@pytest.fixture
def omega_gsp_dir(tmp_path):
    bundle = dict(OMEGA_BUNDLE)
    bundle["system.sys"] = bundle["system.sys"].replace("relation.aut", "stay.aut") + (
        "cop: has_t bad_has_t.aut\nproperty: gsp-negated always_t gsp_neg.aut\n"
    )
    bundle["stay.aut"] = (
        "kind: omega-transducer\nalphabet: N T\nstates: 1\ninitial: 0\naccepting: 0\n"
        "trans:\n0 N/N 0\n0 T/T 0\n"
    )
    # eventually a word without T: the stuttering execution of N^omega violates it
    bundle["gsp_neg.aut"] = (
        "kind: weak-dba\nalphabet: m0 m1\nstates: 2\ninitial: 0\naccepting: 1\n"
        "trans:\n0 m0 1\n0 m1 0\n1 m0 1\n1 m1 1\n"
    )
    for name, text in bundle.items():
        (tmp_path / name).write_text(text)
    return tmp_path


@pytest.mark.parametrize("span", ["abc", "5..2", "0"])
def test_omega_check_gsp_rejects_bad_slice(omega_gsp_dir, capsys, span):
    # omega-mode systems run unsliced, but a malformed --slice is still an error
    argv = ["check-gsp", "--system", str(omega_gsp_dir / "system.sys"), "--budget", "2"]
    code = main(argv + ["--slice", span])
    captured = capsys.readouterr()
    assert code == 3
    assert "overall" not in captured.out
    assert "bad slice range" in captured.err


@pytest.mark.parametrize("extra", [[], ["--slice", "3..4"]])
def test_omega_check_gsp_valid_slice_runs_unsliced(omega_gsp_dir, capsys, extra):
    argv = ["check-gsp", "--system", str(omega_gsp_dir / "system.sys"), "--budget", "2"]
    code = main(argv + extra)
    out = capsys.readouterr().out
    assert code == 1
    assert "overall: violated" in out
    assert "slice " not in out


def _universal_gsp_bundle(tmp_path, relation: str) -> Path:
    """Omega bundle on N^w with the given relation, a property that holds
    everywhere and a negated property that accepts every execution."""
    bundle = dict(OMEGA_BUNDLE)
    bundle["system.sys"] = bundle["system.sys"] + (
        "cop: all all.aut\nproperty: gsp-negated anything gsp_neg.aut\n"
    )
    bundle["relation.aut"] = (
        "kind: omega-transducer\nalphabet: N T\nstates: 2\ninitial: 0\naccepting: 1\n"
        f"trans:\n{relation}"
    )
    bundle["all.aut"] = (
        "kind: weak-dba\nalphabet: N T\nstates: 1\ninitial: 0\naccepting: 0\n"
        "trans:\n0 N 0\n0 T 0\n"
    )
    bundle["gsp_neg.aut"] = (
        "kind: weak-dba\nalphabet: m0 m1\nstates: 1\ninitial: 0\naccepting: 0\n"
        "trans:\n0 m0 0\n0 m1 0\n"
    )
    for name, text in bundle.items():
        (tmp_path / name).write_text(text)
    return tmp_path / "system.sys"


# a step turns a nonempty set of N into T: N^w, TN^w, TTN^w, ...
GROW_T = "0 N/N 0\n0 T/T 0\n0 N/T 1\n1 N/N 1\n1 T/T 1\n1 N/T 1\n"
# N^w steps to T^w, which has no successor
STUCK_T = "0 T/T 0\n0 N/T 1\n1 N/T 1\n1 T/T 1\n"


def test_omega_check_gsp_empty_loop_formula_is_unknown(tmp_path, capsys):
    # GROW_T violates the universal negated property without repeating a
    # configuration, so there is no lasso, and the nested fixpoint never
    # converges
    system = _universal_gsp_bundle(tmp_path, GROW_T)
    code = main(["check-gsp", "--system", str(system), "--budget", "12"])
    out = capsys.readouterr().out
    assert code == 2
    assert "overall: unknown" in out
    assert (
        "reason=accepting cycle set nonempty but no lasso found in bound; omega executions "
        "need not repeat a configuration, and the nested fixpoint did not converge"
    ) in out


def test_omega_check_gsp_stuck_execution_holds(tmp_path, capsys):
    # the only execution stops at T^w; no configuration repeats, and the
    # converged nested fixpoint proves that no violating execution exists
    system = _universal_gsp_bundle(tmp_path, STUCK_T)
    code = main(["check-gsp", "--system", str(system), "--budget", "12"])
    out = capsys.readouterr().out
    assert code == 0
    assert "unsliced: holds (reach_steps=2, nested_rounds=3)" in out
    assert "overall: holds" in out


def test_omega_check_gsp_sim_empty_formula_is_unknown(tmp_path, capsys):
    # the loop engine proves holds here; an empty simulation formula does
    # not, as omega executions need not repeat a configuration
    system = _universal_gsp_bundle(tmp_path, STUCK_T)
    code = main(["check-gsp", "--system", str(system), "--engine", "sim", "--budget", "12"])
    out = capsys.readouterr().out
    assert code == 2
    assert (
        "unsliced: unknown (closure_steps=1, reason=formula empty, but omega executions "
        "need not repeat a configuration up to simulation, sim_exact=True)"
    ) in out
    assert "overall: unknown" in out


def _assert_sim_budget_unknown(argv, budget, capsys):
    code = main(argv + ["--engine", "sim", "--budget", str(budget), "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    doc = json.loads(captured.out)
    assert doc["overall"] == "unknown"
    (row,) = doc["slices"]
    assert row["reason"] == (
        f"budget {budget} exhausted before the simulation fixpoint converged"
    )
    assert row["sim_exact"] is False


def test_gsp_engine_sim_unconverged_is_unknown(ring_dir, capsys):
    argv = ["check-gsp", "--system", str(ring_dir / "system.sys"), "--slice", "2..2"]
    _assert_sim_budget_unknown(argv, 1, capsys)


def test_omega_gsp_engine_sim_unconverged_is_unknown(tmp_path, capsys):
    system = _universal_gsp_bundle(tmp_path, GROW_T)
    _assert_sim_budget_unknown(["check-gsp", "--system", str(system)], 6, capsys)


def test_property_given_as_file(ring_dir, capsys):
    code = main(
        [
            "check-reach",
            "--system",
            str(ring_dir / "system.sys"),
            "--property",
            str(ring_dir / "bad_two_tokens.aut"),
            "--slice",
            "2..3",
        ]
    )
    assert code == 0
    assert "overall: holds" in capsys.readouterr().out


def test_property_given_by_name(ring_dir, capsys):
    code = main(
        [
            "check-gsp",
            "--system",
            str(ring_dir / "system.sys"),
            "--property",
            "always_one_token",
            "--slice",
            "2..2",
        ]
    )
    assert code == 0
    capsys.readouterr()
    code = main(
        [
            "check-gsp",
            "--system",
            str(ring_dir / "system.sys"),
            "--property",
            "no_such_property",
            "--slice",
            "2..2",
        ]
    )
    assert code == 3
    assert "error:" in capsys.readouterr().err



def test_directory_does_not_shadow_a_property_name(ring_dir, tmp_path, monkeypatch, capsys):
    # a name that is also a directory still names the declared property
    (tmp_path / "always_one_token").mkdir()
    monkeypatch.chdir(tmp_path)
    argv = ["check-gsp", "--system", str(ring_dir / "system.sys")]
    code = main(argv + ["--property", "always_one_token", "--slice", "2..2"])
    assert code == 0, capsys.readouterr().err
    assert "overall: holds" in capsys.readouterr().out


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_gen_example_command_writes_the_library_bundle(tmp_path, capsys, name):
    assert main(["gen-example", name, "--out", str(tmp_path / "cli")]) == 0
    written = capsys.readouterr().out.split()
    expected = gen_example(name, tmp_path / "lib")
    assert written == [str(tmp_path / "cli" / f.name) for f in expected]
    assert [Path(f).read_bytes() for f in written] == [f.read_bytes() for f in expected]

def test_console_entry_point_runs():
    # the child gets the checkout's sources, as pytest's own `pythonpath` does
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "rmckit.cli", "gen-example", "--help"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
