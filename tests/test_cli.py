"""Command-line pipelines: exit codes, reports, golden bundles, witnesses."""

import json
import subprocess
import sys

import pytest

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
    assert code == 2
    assert "overall: unknown" in capsys.readouterr().out


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


def test_input_error_exit_three(capsys):
    code = main(["check-reach", "--system", "/definitely/not/there.sys"])
    assert code == 3
    assert "error:" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["check-reach", "check-gsp", "check-losp", "sim", "closure"])
@pytest.mark.parametrize("span", ["5..2", "0..3", "0"])
def test_bad_slice_range_is_an_input_error(dup_dir, capsys, command, span):
    # an empty or nonpositive range must not pass as a vacuous `holds`
    code = main([command, "--system", str(dup_dir / "system.sys"), "--slice", span])
    captured = capsys.readouterr()
    assert code == 3
    assert "overall" not in captured.out
    assert "bad slice range" in captured.err


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


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "rmckit.cli", "gen-example", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
