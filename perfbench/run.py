"""Time-to-verdict benchmark for rmckit.

    python3 perfbench/run.py                      # every workload, one process each
    python3 perfbench/run.py --workload sweep --seed 3 --seconds 25 --trace 0

A run repeats passes until `--seconds` have gone by.  A pass sets up fresh
inputs (timed as set-up), runs every check of the workload (timed one by
one), then judges each outcome against its known answer (untimed).  The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  A traced run
alternates untraced and traced passes, so that `trace.overhead_ratio`
compares the two on inputs of one kind.  The exit code is 1 when any check
failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]
# set-up is timed on every pass, and a traced run needs an untraced and a
# traced pass
MIN_PASSES = 2
# fresh interpreters whose import time makes up the first part of setup_s
IMPORT_SAMPLES = 5
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path[:0] = {paths!r}; "
    "import tracer, workloads; print(time.perf_counter() - t)"
)
UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "check_ms_p50": "ms",
    "check_ms_p90": "ms",
    "unknown_ratio": "ratio",
    "failed_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# the CLI's slice pool keeps its default width, min(4, cpu_count)
os.environ.pop("RMCKIT_THREADS", None)


def _import_library():
    if not (ROOT / "src" / "rmckit").is_dir():
        sys.exit(f"perfbench: no rmckit sources under {ROOT / 'src'}")
    paths = [str(ROOT / "src"), str(ROOT / "tests")]
    sys.path[:0] = paths
    import tracer
    import workloads

    return tracer, workloads, paths


def _import_seconds(paths: list[str]) -> float:
    """Median time to import rmckit and the workloads in a fresh interpreter.

    One import varies by half with the host's load, so it is repeated.
    """
    code = IMPORT_PROBE.format(paths=paths)
    samples = [
        float(subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True,
                             stdout=subprocess.PIPE, text=True).stdout)
        for _ in range(IMPORT_SAMPLES)
    ]
    return statistics.median(samples)


class Run:
    """The passes of one workload in this process."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        self.tracer_mod, self.workloads, paths = _import_library()
        self.import_s = _import_seconds(paths)
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.tracer = self.tracer_mod.Tracer() if trace else None
        self.setups: list[float] = []
        self.walls = {False: [], True: []}  # traced? -> pass wall times
        self.check_s: list[list[float]] = []  # per untraced pass
        self.attempted = self.failed = self.unknown = 0
        self.failures: list[str] = []
        self.layer_passes: list[dict[str, float]] = []
        self.spans = []

    def run(self) -> None:
        setup = self.workloads.WORKLOADS[self.name]
        begin = time.perf_counter()
        lengths = []
        pass_no = 0
        while True:
            traced = self.tracer is not None and pass_no % 2 == 1
            t0 = time.perf_counter()
            checks = setup(self.seed, pass_no, WORKDIR)
            self.setups.append(time.perf_counter() - t0)
            self._pass(pass_no, checks, traced)
            lengths.append(time.perf_counter() - t0)
            pass_no += 1
            # stop when another pass would more likely end past the deadline
            # than before it
            left = self.seconds - (time.perf_counter() - begin)
            if left < statistics.median(lengths) / 2 and pass_no >= MIN_PASSES:
                break

    def _pass(self, pass_no: int, checks, traced: bool) -> None:
        gc.collect()
        outcomes = []
        tracer = self.tracer if traced else None
        with tracer or contextlib.nullcontext():
            first = time.perf_counter()
            for i, check in enumerate(checks):
                if tracer:
                    tracer.check = (pass_no, i)
                t0 = time.perf_counter()
                try:
                    out, err = check.run(), None
                except Exception:  # a check that raises counts as failed
                    out, err = None, traceback.format_exc(limit=3)
                t1 = time.perf_counter()
                outcomes.append((check, out, err, t1 - t0))
            wall = time.perf_counter() - first
        self.walls[traced].append(wall)
        if traced:
            spans, counts = self.tracer.take()
            self.layer_passes.append(self._layer_metrics(spans, counts))
            self.spans.extend(spans)
        else:
            self.check_s.append([dt for _, _, _, dt in outcomes])
        for check, out, err, dt in outcomes:
            self.attempted += 1
            why = err
            if err is None:
                try:
                    why = check.judge(out)
                    self.unknown += check.status(out) == "unknown"
                except Exception:  # malformed output counts as failed
                    why = traceback.format_exc(limit=3)
            if why is not None:
                self.failed += 1
                self.failures.append(f"pass {pass_no} {check.case}: {why}")

    def _layer_metrics(self, spans, counts) -> dict[str, float]:
        rows = self.tracer_mod.aggregate(spans)
        out: dict[str, float] = {}
        for fn, row in rows.items():
            for stat, value in row.items():
                out[f"{fn}.{stat}"] = value
            layer = fn.split(".")[0]
            out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + row["self_s"]
        for (fn, stat), value in counts.items():
            out[f"{fn}.{stat}"] = value
        return out

    # -- results ----------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        by_pass = [[s * 1000 for s in p] for p in self.check_s]
        ms = [x for p in by_pass for x in p]
        return {
            "setup_s": self.import_s + statistics.median(self.setups),
            # a mean, not a median: the host switches between a fast and a
            # slow speed for seconds at a time, and the median of a few
            # passes jumps between the two where the mean weighs them
            "wall_s": statistics.fmean(self.walls[False]),
            # the median check of each pass, averaged over passes like wall_s;
            # one median over all checks shifts with how many passes fitted
            "check_ms_p50": statistics.fmean(statistics.median(p) for p in by_pass),
            "check_ms_p90": statistics.quantiles(ms, n=10, method="inclusive")[8]
            if len(ms) > 1 else ms[0],
            "unknown_ratio": self.unknown / self.attempted,
            "failed_ratio": self.failed / self.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def _layer_means(self) -> dict[str, float]:
        """Every per-layer value, as a mean per traced pass."""
        n = len(self.layer_passes)
        keys = set().union(*self.layer_passes)
        return {k: sum(p.get(k, 0.0) for p in self.layer_passes) / n for k in keys}

    def per_layer(self) -> dict[str, float]:
        """The metrics listed under `per_layer` in BENCHMARK.json."""
        mean = self._layer_means()
        out = {}
        for metric in BENCHMARK["per_layer"]:
            name = metric["name"]
            if name == "trace.overhead_ratio":
                value = statistics.median(self.walls[True]) / statistics.median(
                    self.walls[False]
                )
            elif name.endswith(".converged_ratio"):
                fn = name.rsplit(".", 1)[0]
                calls = mean.get(f"{fn}.calls", 0.0)
                value = mean.get(f"{fn}.converged", 0.0) / calls if calls else 0.0
            elif name.endswith(".alphabet_size"):  # mean per call
                fn = name.rsplit(".", 1)[0]
                calls = mean.get(f"{fn}.calls", 0.0)
                value = mean.get(name, 0.0) / calls if calls else 0.0
            else:
                value = mean.get(name, 0.0)
            out[name] = value
        return out

    def report(self, trace: bool) -> dict:
        print(f"workload {self.name}: seed {self.seed}, {len(self.setups)} passes, "
              f"{self.attempted} checks, CLI slice pool width "
              f"{self.workloads.system.thread_cap()}")
        for line in self.failures:
            print(f"  FAILED {line}")
        e2e = self.end_to_end()
        n_checks = sum(map(len, self.check_s))
        notes = {
            "setup_s": f"import {self.import_s:.3f} s (median of {IMPORT_SAMPLES}) "
            f"+ median of {len(self.setups)} set-ups",
            "wall_s": "mean of untraced passes "
            + " ".join(f"{w:.3f}" for w in self.walls[False]),
            "check_ms_p50": f"n={n_checks}, mean of {len(self.check_s)} pass medians",
            "check_ms_p90": f"n={n_checks}, {n_checks - int(0.9 * n_checks)} beyond",
            "unknown_ratio": f"{self.unknown}/{self.attempted}",
            "failed_ratio": f"{self.failed}/{self.attempted}",
            "peak_rss_mb": "ru_maxrss of this process",
        }
        for name, value in e2e.items():
            if name == "check_ms_p90" and self.name != "sweep":
                continue  # too few checks per run for ten samples beyond p90
            print(f"  {name:<14} {value:>12.4f} {UNITS[name]:<6} {notes[name]}")
        if trace:
            layers = self.per_layer()
            self._print_trace()
            metrics = {
                m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                for m in BENCHMARK["per_layer"]
            }
        else:
            metrics = {
                m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                for m in BENCHMARK["end_to_end"]
            }
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }

    def _print_trace(self) -> None:
        mean = self._layer_means()
        wall = statistics.median(self.walls[True])
        print(f"  traced passes {len(self.walls[True])}, median wall {wall:.4f} s, "
              f"overhead ratio {wall / statistics.median(self.walls[False]):.3f}")
        layer_self = sorted(
            ((v, k) for k, v in mean.items() if k.count(".") == 1 and k.endswith(".self_s")),
            reverse=True,
        )
        total_self = sum(v for v, _ in layer_self) or 1.0
        print("  self time per layer (per pass):")
        for v, k in layer_self:
            print(f"    {k:<40} {v:>10.4f} s {100 * v / total_self:6.1f}%")
        fns = sorted(
            ((v, k) for k, v in mean.items() if k.count(".") == 2 and k.endswith(".self_s")),
            reverse=True,
        )
        print("  top functions by self time (per pass):")
        for v, k in fns[:12]:
            fn = k.rsplit(".", 1)[0]
            print(f"    {fn:<40} {v:>10.4f} s {100 * v / total_self:6.1f}%  "
                  f"calls {mean.get(fn + '.calls', 0):.0f}  "
                  f"total {mean.get(fn + '.total_s', 0):.4f} s")
        path = WORKDIR / f"spans-{self.name}-seed{self.seed}.jsonl"
        self.tracer_mod.write_spans(path, self.spans)
        print(f"  {len(self.spans)} spans written to {path.relative_to(ROOT)}")


def run_one(args) -> int:
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.run()
    finally:
        shutil.rmtree(WORKDIR / "sweep", ignore_errors=True)
    result = run.report(bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process; a combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = max(code, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"workload {name}: no result (exit {proc.returncode})")
            return proc.returncode or 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="run one workload in this process (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
