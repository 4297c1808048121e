"""Benchmark of the qenm command line, one workload per process.

    python3 benchmarks/bench.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
``src/``.  A run imports ``qenm.cli`` in-process, then repeats the
workload's command sequence (closed loop, one client) for ``--seconds``
seconds and at least ``MIN_ITERATIONS`` times, each command with a fresh
``--out-dir``.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median time of
one command sequence after import), ``setup_s`` (median time for a fresh
interpreter to import ``qenm.cli``), ``peak_rss_mb`` of this process.
``--trace 1`` reports the per-layer metrics of ``layers.py``: untraced and
traced iterations alternate, and ``trace.overhead_s`` is the difference of
their median wall times.  ``--workload all`` runs every workload, each in
a fresh process.

A command fails on a nonzero exit code, a failed correctness gate, CSV
output that differs from the first iteration's, or a change to
``cli.DEFAULTS``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1
when a command failed.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_ITERATIONS = 2
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
CHILD_TIMEOUT_S = 170
WORKLOAD_TIMEOUT_S = 600
IMPORT_CODE = ("import time; t = time.perf_counter(); import qenm.cli; "
               "print(time.perf_counter() - t)")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)    # time imports from cached bytecode
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def python_child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          check=True)


def time_fresh_import() -> float:
    return float(python_child(["-c", IMPORT_CODE]).stdout.split()[-1])


def git_commit() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "blas": f"{blas.get('name')} {blas.get('version')}", "numpy": np.__version__,
            "scipy": scipy.__version__, "python": platform.python_version(),
            "commit": git_commit()}


class Run:
    """One workload's command sequences in this process, with their checks."""

    def __init__(self, cli, workload, seed: int, work: Path):
        self.cli = cli
        self.workload = workload
        self.cfg = workload.config_for(seed)
        self.work = work
        self.cfg_path = work / "config.json"
        self.cfg_path.write_text(json.dumps(self.cfg, indent=2, sort_keys=True))
        self.digests: dict[str, dict[str, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.iterations = 0
        self.output_bytes = 0

    def iterate(self) -> float:
        """Run the command sequence once; return its wall time."""
        outs = [self.work / f"{self.iterations}-{cmd.label}" for cmd in self.workload.commands]
        codes, defaults_ok = [], []
        defaults = copy.deepcopy(self.cli.DEFAULTS)
        start = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            for cmd, out in zip(self.workload.commands, outs):
                codes.append(self.cli.main([*cmd.argv, "--config", str(self.cfg_path),
                                            "--out-dir", str(out)]))
                defaults_ok.append(self.cli.DEFAULTS == defaults)
                if not defaults_ok[-1]:
                    self.cli.DEFAULTS.clear()
                    self.cli.DEFAULTS.update(copy.deepcopy(defaults))
        wall = perf_counter() - start
        self.iterations += 1
        self.output_bytes = 0
        for cmd, out, code, clean in zip(self.workload.commands, outs, codes, defaults_ok):
            problems = self._check(cmd, out, code, clean)
            self.attempted += 1
            if problems:
                self.failed += 1
                print(f"FAIL {self.workload.name} {cmd.label}: " + "; ".join(problems[:5]),
                      file=sys.stderr)
            self.output_bytes += sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
            shutil.rmtree(out, ignore_errors=True)
        return wall

    def _check(self, cmd, out: Path, code: int, defaults_ok: bool) -> list[str]:
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if not defaults_ok:
            problems.append("cli.DEFAULTS changed")
        try:
            problems += cmd.gate(out, self.cfg)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"unreadable output: {exc!r}")
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(out.glob("*.csv"))}
        first = self.digests.setdefault(cmd.label, digests)
        if digests != first:
            changed = sorted(n for n in first.keys() | digests.keys()
                             if first.get(n) != digests.get(n))
            problems.append(f"CSV output differs from the first iteration: {changed}")
        return problems

    def loop(self, seconds: float, minimum: int) -> list[float]:
        walls: list[float] = []
        deadline = perf_counter() + seconds
        while len(walls) < minimum or perf_counter() < deadline:
            walls.append(self.iterate())
        return walls


def run_workload(args) -> int:
    if not (SRC / "qenm" / "cli.py").is_file():
        print(f"no qenm source under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = False
    import qenm.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"imported qenm from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    print("env " + json.dumps(environment(args), sort_keys=True), flush=True)
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        run = Run(cli, WORKLOADS[args.workload], args.seed, Path(tmp))
        if args.trace:
            metrics, counts, units = traced_metrics(run, args.seconds)
        else:
            setup = [time_fresh_import() for _ in range(SETUP_SAMPLES)]
            walls = run.loop(args.seconds, MIN_ITERATIONS)
            metrics = {"wall_s": statistics.median(walls),
                       "setup_s": statistics.median(setup),
                       "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
            counts = {"wall_s": len(walls), "setup_s": len(setup)}
            print(f"{args.workload} samples wall_s {[round(w, 4) for w in walls]} "
                  f"setup_s {[round(t, 4) for t in setup]}")
            units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    with contextlib.suppress(OSError):      # another run may still be using it
        WORK.rmdir()
    for name, value in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        note = f" (median of {counts[name]})" if units[name] == "s" else ""
        print(f"{args.workload} {name} {shown} {units[name]}{note}")
    print(f"{args.workload} fail_ratio {run.failed / run.attempted:.6g} failed/attempted "
          f"({run.failed} of {run.attempted} commands)")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0 if run.failed == 0 else 1


def traced_metrics(run: Run, seconds: float) -> tuple[dict, dict, dict]:
    """Per-layer metrics, their sample counts and their units.

    Untraced and traced iterations alternate, so that a drift in machine
    speed during the run does not show up as tracing overhead.  Times are
    medians over the traced iterations and the import samples; counts
    repeat exactly and are reported as the count of one iteration.
    """
    import layers

    imports = [layers.import_metrics(python_child(["-X", "importtime", "-c",
                                                   "import qenm.cli"]).stderr)
               for _ in range(IMPORTTIME_SAMPLES)]
    tracer, counts = layers.new_tracer()
    per_iteration, untraced, traced = [], [], []
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        untraced.append(run.iterate())
        tracer.install()
        try:
            traced.append(run.iterate())
        finally:
            tracer.uninstall()
        per_iteration.append(layers.span_metrics(tracer.take(), counts))
        counts.reset()
    samples = {**{k: [m[k] for m in imports] for k in imports[0]},
               **{k: [m[k] for m in per_iteration] for k in per_iteration[0]}}
    metrics = {k: (statistics.median if layers.UNITS[k] == "s" else statistics.median_low)(v)
               for k, v in samples.items()}
    metrics["cli.output_bytes"] = run.output_bytes
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    sizes = {k: len(v) for k, v in samples.items()}
    sizes["trace.overhead_s"] = len(traced)
    return {k: metrics[k] for k in layers.UNITS}, sizes, layers.UNITS


def run_all(args) -> int:
    from workloads import WORKLOADS

    attempted = failed = 0
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKLOAD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        if not lines or not lines[-1].startswith("{"):
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        results[name] = result["metrics"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": results}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
