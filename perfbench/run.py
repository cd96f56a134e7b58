#!/usr/bin/env python3
"""End-to-end benchmark of the nlkpp command-line interface.

    python3 perfbench/run.py --workload atomic_fronts --seed 0 --seconds 10 \
        --trace 0

Runs the real CLI in-process (`nlkpp.cli.main(argv)`, one command at a time)
from the `src/` tree of the checkout this file sits in.  Load model: one
client, one process, no worker threads, a closed loop.  Each pass runs the
workload's commands in order; a warm-up pass is checked and discarded, then
passes repeat until `--seconds` have been measured.  Every artifact is
checked after every invocation, and every data artifact must be
byte-identical to the warm-up pass's.

--trace 0 prints the end-to-end metrics: set-up time (median over fresh
processes), pass time (median over passes) and peak RSS.  Both times are
in seconds at the reference speed of speed.py's probe, which samples the
machine while the program runs; the raw wall times are printed beside
them.  Per-command times and the failure fraction are printed above the
result line; the result's `attempted` and `failed` count every checked
invocation, warm-up included.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics from the traced ones (see tracing.py).  Span times are raw wall,
including the probe's share (about 2%); trace.overhead_s compares the
passes at the reference speed.

BLAS and OpenMP pools are pinned to one thread in this process and its
children.  Artifacts and a JSON run record go to `.perfbench_out/` in the
checkout.  The last line of standard output is the JSON result.
"""
from __future__ import annotations

import os

# one-thread BLAS and OpenMP pools, set before numpy loads (checks and speed
# import it); the set-up processes inherit them
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)

import argparse
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
# a fresh process: import the CLI, then write the workload's configs; the
# speed probe runs throughout and its samples go to stdout
SETUP_CODE = """\
import json, pathlib, sys
sys.path[:0] = sys.argv[1:3]
import speed
with speed.SpeedProbe() as probe:
    import nlkpp.cli
    for path, text in json.load(sys.stdin):
        pathlib.Path(path).write_text(text)
print(json.dumps([probe.samples, probe.spent]))
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def tail_percentile(values):
    """Highest of p50/p90/p99 with at least ten samples beyond it."""
    vals = sorted(values)
    best = None
    for p in (50, 90, 99):
        if len(vals) * (100 - p) / 100 >= 10:
            best = (p, vals[math.ceil(len(vals) * p / 100) - 1])
    return best


class Bench:
    """One workload's invocations, their files, and the failures seen."""

    def __init__(self, cli, workload: str, seed: int):
        self.cli = cli
        self.invocations = workloads.build(workload, seed)
        self.dir = WORK / workload
        self.reference = {}
        self.attempted = 0
        self.failures = []

    def cfg_path(self, inv) -> Path:
        return self.dir / "cfg" / f"{inv.name}.json"

    def out_path(self, inv) -> Path:
        return self.dir / "out" / inv.name

    def config_texts(self):
        return [(str(self.cfg_path(inv)), json.dumps(inv.config))
                for inv in self.invocations if inv.config is not None]

    def write_configs(self) -> None:
        (self.dir / "cfg").mkdir(parents=True, exist_ok=True)
        for path, text in self.config_texts():
            Path(path).write_text(text)

    def measure_setup(self) -> list:
        """(wall, reference-speed) seconds of fresh processes that import
        the CLI and write the workload's configs."""
        (self.dir / "cfg").mkdir(parents=True, exist_ok=True)
        jobs = json.dumps(self.config_texts())
        samples = []
        for _ in range(SETUP_SAMPLES):
            t0 = time.perf_counter()
            child = subprocess.run(
                [sys.executable, "-c", SETUP_CODE, str(HERE), str(SRC)],
                input=jobs, capture_output=True, text=True, check=True,
                timeout=120)
            wall = time.perf_counter() - t0
            probe_samples, probe_spent = json.loads(
                child.stdout.splitlines()[-1])
            samples.append((wall, speed.rescale(wall, probe_samples,
                                                probe_spent)))
        return samples

    def run_pass(self, tracer=None, probe=None) -> dict:
        """One pass; returns {invocation name: (wall seconds, seconds at
        the probe's reference speed)}; without a probe both are the wall."""
        times = {}
        for inv in self.invocations:
            out = self.out_path(inv)
            argv = list(inv.argv)
            if inv.config is not None:
                argv += ["--config", str(self.cfg_path(inv))]
            argv += ["--out", str(out)]
            mark = probe.mark() if probe else 0
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    rc = self.cli.main(argv)
                else:
                    with tracer.command(inv.command):
                        rc = self.cli.main(argv)
            except Exception:  # a traceback is a failed invocation
                rc = "traceback:\n" + traceback.format_exc()
            wall = time.perf_counter() - t0
            times[inv.name] = (wall, probe.rescale(wall, mark) if probe
                               else wall)
            self.attempted += 1
            errs = checks.check(out, rc, inv.check)
            if not errs:
                digest = checks.artifact_digest(out)
                ref = self.reference.setdefault(inv.name, digest)
                if digest != ref:
                    changed = sorted(k for k in ref.keys() | digest.keys()
                                     if ref.get(k) != digest.get(k))
                    errs = [f"artifacts differ from the first pass: {changed}"]
            if errs:
                self.failures.append((inv.name, errs))
                print(f"FAIL {inv.name}: {'; '.join(errs)}", file=sys.stderr)
        return times

    def artifact_bytes(self) -> int:
        return sum(checks.artifact_bytes(self.out_path(inv))
                   for inv in self.invocations)

    def command_times(self, passes) -> dict:
        """{command: per-pass seconds of all its invocations} for the
        commands long enough to time on their own."""
        out = {}
        for cmd in dict.fromkeys(inv.command for inv in self.invocations):
            if cmd in workloads.UNTIMED_COMMANDS:
                continue
            names = [i.name for i in self.invocations if i.command == cmd]
            out[cmd] = [sum(p[n][1] for n in names) for p in passes]
        return out


def _line(name, value, unit, note=""):
    print(f"  {name:<24} {value:>14.6g} {unit:<6} {note}")


def _timing_note(values):
    note = f"median of {len(values)}"
    tail = tail_percentile(values)
    if tail:
        note += f", p{tail[0]} {tail[1]:.6g}"
    return note


def run_untraced(bench, seconds):
    setup = bench.measure_setup()
    with speed.SpeedProbe() as probe:
        bench.run_pass(probe=probe)        # warm-up, checked and discarded
        passes = []
        t0 = time.perf_counter()
        while not passes or time.perf_counter() - t0 < seconds:
            passes.append(bench.run_pass(probe=probe))
    totals = [sum(s for _, s in p.values()) for p in passes]
    raw_totals = [sum(w for w, _ in p.values()) for p in passes]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_scaled = [s for _, s in setup]
    metrics = {"setup_s": (statistics.median(setup_scaled), "s"),
               "pass_s": (statistics.median(totals), "s"),
               "peak_rss_mb": (rss_mb, "MB")}
    print("  times in seconds at the probe's reference speed "
          f"(raw wall in brackets); probe mean "
          f"{statistics.fmean(probe.samples) * 1e6:.4g} us, "
          f"reference {speed.REF_S * 1e6:.4g} us")
    _line("setup_s", metrics["setup_s"][0], "s",
          f"median of {len(setup)} fresh processes "
          f"[{statistics.median(w for w, _ in setup):.4g}]")
    _line("pass_s", metrics["pass_s"][0], "s", _timing_note(totals)
          + f" [{statistics.median(raw_totals):.4g}]")
    for cmd, vals in bench.command_times(passes).items():
        _line(f"{cmd}_s", statistics.median(vals), "s", _timing_note(vals))
    _line("fail_frac", len(bench.failures) / bench.attempted, "ratio",
          f"{len(bench.failures)} of {bench.attempted} invocations")
    _line("peak_rss_mb", rss_mb, "MB", "ru_maxrss of this process")
    record = {"setup_s": setup, "passes_s": passes,
              "probe_mean_s": statistics.fmean(probe.samples)}
    return metrics, record


def run_traced(bench, seconds, modules):
    tracer = tracing.Tracer(modules)
    bench.write_configs()
    plain, traced, layers, commands = [], [], [], []
    with speed.SpeedProbe() as probe:
        bench.run_pass(probe=probe)        # warm-up, checked and discarded
        t0 = time.perf_counter()
        while not traced or time.perf_counter() - t0 < seconds:
            plain.append(sum(s for _, s in bench.run_pass(
                probe=probe).values()))
            tracer.install()
            try:
                traced.append(sum(s for _, s in bench.run_pass(
                    tracer, probe).values()))
            finally:
                tracer.uninstall()
            spans = tracer.take()
            layers.append(tracing.layer_metrics(spans))
            commands.append(tracing.by_command(spans))
    metrics = {}
    for name in layers[0]:
        unit = ("ms" if name.endswith("_ms") else
                "s" if name.endswith("_s") else "count")
        metrics[name] = (statistics.median(m[name] for m in layers), unit)
    metrics["cli.artifact_bytes"] = (bench.artifact_bytes(), "count")
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(plain), "s")
    for name, (value, unit) in metrics.items():
        _line(name, value, unit)
    print(f"  traced pass {statistics.median(traced):.6g} s, untraced "
          f"{statistics.median(plain):.6g} s at the probe's reference speed; "
          "raw self time by layer (last traced pass):")
    for cmd, row in commands[-1].items():
        parts = " ".join(f"{k}={row[k]:.4g}" for k in tracing.MODULES)
        print(f"    {cmd:<9} wall={row['wall_s']:.4g} s = sum of {parts}")
    record = {"wrapped": tracer.wrapped, "untraced_pass_s": plain,
              "traced_pass_s": traced, "layers_by_pass": layers,
              "self_s_by_command": commands}
    return metrics, record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nlkpp" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC / 'nlkpp'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import nlkpp
    if not Path(nlkpp.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported nlkpp from {nlkpp.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    modules = {name: importlib.import_module(f"nlkpp.{name}")
               for name in tracing.MODULES}

    bench = Bench(modules["cli"], args.workload, args.seed)
    shutil.rmtree(bench.dir, ignore_errors=True)
    bench.dir.mkdir(parents=True)
    versions = {"python": platform.python_version(),
                "numpy": numpy.__version__, "scipy": scipy.__version__}
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g} "
          + " ".join(f"{k}={v}" for k, v in versions.items())
          + " " + " ".join(f"{k}={v}" for k, v in PINNED.items()))
    checks.prepare(bench.invocations)
    if args.trace:
        metrics, record = run_traced(bench, args.seconds, modules)
    else:
        metrics, record = run_untraced(bench, args.seconds)
    failed = len(bench.failures)
    result = {"correct": failed == 0, "attempted": bench.attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    record.update({"args": vars(args), "versions": versions,
                   "settings": PINNED, "result": result,
                   "failures": bench.failures,
                   "invocations": [vars(i) for i in bench.invocations]})
    (bench.dir / "record.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
