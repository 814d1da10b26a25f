"""Self-tests of the benchmark's own code: `python3 -m pytest perfbench -q`."""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import rmckit  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from rmckit import fixtures as fx  # noqa: E402
from tracer import Span  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def _span(i, start, end, parent=None):
    return Span(i, f"f{i}", start, end, parent, "c")


def test_self_time_of_nested_spans():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 2.0, 2.5, parent=1),
        _span(3, 5.0, 6.0, parent=0),
    ]
    own = tracer.self_times(spans)
    assert own == {0: 7.0, 1: 1.5, 2: 0.5, 3: 1.0}
    rows = tracer.aggregate(spans + [_span(4, 20.0, 21.0)._replace(name="f1")])
    assert rows["f1"] == {"calls": 2, "total_s": 3.0, "self_s": 2.5}


def test_self_time_counts_overlapping_children_once():
    # two pool threads under one caller, and a child clipped to its parent
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 6.0, parent=0),
        _span(2, 2.0, 7.0, parent=0),
        _span(3, 9.0, 12.0, parent=0),
    ]
    assert tracer.self_times(spans)[0] == 10.0 - 6.0 - 1.0
    assert tracer.covered([], 0.0, 1.0) == 0.0


def _function_bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if module is not None and (name == "rmckit" or name.startswith("rmckit."))
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_install_rebinds_every_binding_and_restore_undoes_it():
    before = _function_bindings()
    originals = {id(fn) for fn in tracer.Tracer().functions.values()}
    t = tracer.Tracer()
    with t:
        during = _function_bindings()
        for key, value in before.items():
            if id(value) in originals:
                assert during[key].__wrapped__ is value, key
            else:
                assert during[key] is value, key
        bound = {(m.__name__, attr) for m, attr, _ in t.bindings}
        assert ("rmckit.transducer", "minimize") in bound
        assert ("rmckit", "minimize") in bound
        assert ("rmckit.cli", "check_losp") in bound
    assert t.bindings == []
    after = _function_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_calls_through_imported_names_are_child_spans():
    t = tracer.Tracer()
    with t:
        t.check = "one"
        rmckit.transducer.canonicalize(fx.ring_relation())
        t.check = None
        rmckit.transducer.canonicalize(fx.ring_relation())  # not recorded
    spans, _ = t.take()
    by_id = {s.id: s for s in spans}
    outer = [s for s in spans if s.name == "transducer.canonicalize"]
    assert len(outer) == 1 and outer[0].parent is None
    inner = [s for s in spans if s.name == "automata.minimize"]
    assert inner and all(by_id[s.parent].name == "transducer.canonicalize" for s in inner)
    assert all(s.check == "one" for s in spans)


def test_metric_names():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in bench[key]]
    assert len(names) == len(set(names))
    t = tracer.Tracer()
    with t:
        t.check = "one"
        rmckit.transducer.closure(fx.ring_relation(), budget=2)
    spans, counts = t.take()
    emitted = [f"{fn}.{stat}" for fn, row in tracer.aggregate(spans).items() for stat in row]
    emitted += [f"{fn}.{stat}" for fn, stat in counts]
    for name in names + emitted:
        assert NAME.match(name), name


def _bundle_digest(seed: int) -> str:
    h = hashlib.sha256()
    for case, n, files, answer in workloads.random_instances(seed):
        h.update(f"{case} {n} {answer}\n".encode())
        for fname in sorted(files):
            h.update(fname.encode() + b"\0" + files[fname].encode())
    return h.hexdigest()


def test_sweep_bundles_are_byte_identical_for_one_seed():
    digest = _bundle_digest(7)
    assert digest == _bundle_digest(7)
    assert digest != _bundle_digest(8)
    # and in fresh interpreters with other string-hash seeds
    code = "import test_perfbench as t; print(t._bundle_digest(7))"
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=HERE, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert out.stdout.strip() == digest
