"""scedex benchmark entry point.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds the workload's inputs from the seed, then runs its batch of CLI
operations in a closed loop with one client: each operation is a fresh
``python -m scedex.cli ...`` subprocess, started only after the previous one
exited.  Every output is checked.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics
with ``--trace 1``.

The traced run executes each operation twice, untraced and then under
``traced_cli.py``, so the tracing overhead is measured in the same run and
the traced output must equal the untraced one byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
TRACED_CLI = os.path.join(BENCH, "traced_cli.py")
LAUNCHER = os.path.join(BENCH, "launcher.py")

SETUP_REPEATS = 3
SETUP_MIN_S = 0.5      # cheap set-ups repeat until this much time is measured
BASELINE_REPEATS = 3
OP_TIMEOUT_S = 100.0


@dataclass
class OpRun:
    name: str
    wall: float
    rss_mb: float
    exit: int
    stdout: bytes
    stderr: bytes
    status: str = ""     # "ok", "failed" (structured error) or "wrong"
    reason: str = ""


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("SCEDEX_THREADS", None)
    return env


class Launcher:
    """Client of ``launcher.py``, the small process that spawns operations."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, LAUNCHER], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True, cwd=ROOT)

    def spawn(self, cmd: list, env: dict, out_path: str, err_path: str) -> tuple:
        """Run ``cmd``; return (wall seconds, max RSS in MB, exit code)."""
        req = {"cmd": cmd, "env": env, "stdout": out_path, "stderr": err_path,
               "cwd": ROOT, "timeout": OP_TIMEOUT_S}
        self._proc.stdin.write(json.dumps(req) + "\n")
        self._proc.stdin.flush()
        answer = self._proc.stdout.readline()
        if not answer:
            raise RuntimeError("the launcher process ended early")
        return tuple(json.loads(answer))

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=OP_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def run_op(launcher: Launcher, op, tag: str, workdir: str, env: dict,
           traced: bool) -> OpRun:
    base = os.path.join(workdir, "out", tag)
    if traced:
        cmd = [sys.executable, TRACED_CLI, *op.argv]
        env = dict(env, SCEDEX_BENCH_SPANS=base + ".spans.json")
    else:
        cmd = [sys.executable, "-m", "scedex.cli", *op.argv]
    wall, rss, code = launcher.spawn(cmd, env, base + ".stdout", base + ".stderr")
    with open(base + ".stdout", "rb") as fh:
        out = fh.read()
    with open(base + ".stderr", "rb") as fh:
        err = fh.read()
    return OpRun(op.name, wall, rss, code, out, err)


def judge(op, run: OpRun, ctx: dict, earlier: dict) -> None:
    """Set run.status: "ok", "failed" (the structured error the op may end
    with at this version) or "wrong" (bad output, crash, or not identical
    to the run it must reproduce)."""
    if op.same_as is not None:
        ref = earlier[op.same_as]
        if (run.exit, run.stdout) != (ref.exit, ref.stdout) or (
                run.exit != 0 and run.stderr != ref.stderr):
            run.status, run.reason = "wrong", f"output differs from {op.same_as}"
            return
    if run.exit == 0:
        try:
            reason = op.check(run.stdout.decode(), ctx)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"unreadable output: {type(exc).__name__}: {exc}"
        run.status, run.reason = ("ok", "") if reason is None else ("wrong", reason)
        return
    text = run.stderr.decode(errors="replace")
    error = None
    if run.exit == 1 and "{" in text:
        try:
            error = json.loads(text[text.index("{"):])["error"]
        except (ValueError, KeyError, TypeError):
            error = None
    if error is not None and error == op.expect_error:
        run.status, run.reason = "failed", f"{error} (structured report, exit 1)"
    else:
        last = text.strip().splitlines()[-1:] or [""]
        run.status, run.reason = "wrong", f"exit {run.exit}: {last[0][:200]}"


def run_pass(launcher: Launcher, w, ctx: dict, workdir: str, env: dict, label: str) -> tuple:
    """One pass of the batch; returns (pass wall seconds, runs by op name)."""
    runs: dict = {}
    start = time.perf_counter()
    for op in w.ops:
        run = run_op(launcher, op, f"{label}-{op.name}", workdir, env, traced=False)
        judge(op, run, ctx, runs)
        runs[op.name] = run
    return time.perf_counter() - start, runs


def tail_percentile(samples: list) -> tuple:
    """Highest percentile with at least ten samples beyond it:
    (value, percentile, samples beyond).  Below 11 samples no percentile
    has ten beyond it, and the maximum is reported with its count."""
    xs = sorted(samples)
    n = len(xs)
    if n >= 11:
        return xs[n - 11], 100.0 * (n - 10) / n, 10
    return xs[-1], 100.0, 0


def declared_metrics(kind: str) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)[kind]


def emit(declared: list, values: dict) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def setup_workload(name: str, seed: int, workdir: str, repeats: int):
    import scedex.mc  # noqa: F401  (import cost is not set-up work)
    import workloads

    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(os.path.join(workdir, "out"))
    times = []
    while len(times) < repeats or sum(times) < SETUP_MIN_S * (repeats > 1):
        start = time.perf_counter()
        w = workloads.setup(name, seed, workdir)
        times.append(time.perf_counter() - start)
    return w, times


def median_wall(launcher: Launcher, cmd: list, env: dict, workdir: str) -> float:
    null = os.path.join(workdir, "out", "baseline")
    return statistics.median(launcher.spawn(cmd, env, null + ".stdout", null + ".stderr")[0]
                             for _ in range(BASELINE_REPEATS))


def run_workload(launcher: Launcher, name: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    import spans
    import workloads

    workdir = os.path.join(WORK, name)
    # The traced run reports no set-up time, so it sets up once.
    w, setup_times = setup_workload(name, seed, workdir, 1 if trace else SETUP_REPEATS)
    ctx = workloads.check_context(w)
    env = program_env()
    # Compile bytecode and warm the file cache once: users pay that only on
    # the first run after installing.
    launcher.spawn([sys.executable, "-c", "import scedex.cli"], env,
                   os.path.join(workdir, "out", "warmup.stdout"),
                   os.path.join(workdir, "out", "warmup.stderr"))

    print(f"[{name}] seed={seed} trace={int(trace)} {len(w.ops)} ops per pass; "
          f"set-up x{len(setup_times)}, median {statistics.median(setup_times):.4f} s")
    all_runs: list = []
    if not trace:
        passes = []
        started = time.perf_counter()
        while True:
            wall, runs = run_pass(launcher, w, ctx, workdir, env, f"p{len(passes)}")
            passes.append((wall, runs))
            all_runs.extend(runs.values())
            if time.perf_counter() - started + wall > seconds:
                break
        report_runs(all_runs)
        walls = [r.wall for r in all_runs]
        tail, pct, beyond = tail_percentile(walls)
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(p[0] for p in passes),
            "op_s.p50": statistics.median(walls),
            "op_s.tail": tail,
            "peak_rss_mb": max(r.rss_mb for r in all_runs),
        }
        metrics = emit(declared_metrics("end_to_end"), values)
        for key, m in metrics.items():
            print(f"  {key} = {m['value']} {m['unit']}")
        print(f"  op_s.tail is p{pct:.1f} of n={len(walls)} op samples, {beyond} beyond it")
        print(f"  passes = {len(passes)}")
        print_fail_frac(all_runs)
        reps = [sum(json.loads(r.stdout)["replications"] for r in runs.values()
                    if r.status == "ok" and r.name.startswith("mc-")) for _, runs in passes]
        if any(reps):
            rate = statistics.median(n / p[0] for n, p in zip(reps, passes))
            print(f"  reps_per_s = {rate} 1/s ({reps[0]} replications per pass)")
    else:
        metrics, all_runs = traced_pass(launcher, w, ctx, workdir, env, spans)
    return {
        "correct": all(r.status != "wrong" for r in all_runs),
        "attempted": len(all_runs),
        "failed": sum(r.status != "ok" for r in all_runs),
        "metrics": metrics,
    }


def traced_pass(launcher: Launcher, w, ctx: dict, workdir: str, env: dict, spans) -> tuple:
    plain: dict = {}
    traced: dict = {}
    traces: dict = {}
    for op in w.ops:
        plain[op.name] = run_op(launcher, op, f"plain-{op.name}", workdir, env, traced=False)
        judge(op, plain[op.name], ctx, plain)
        run = run_op(launcher, op, f"traced-{op.name}", workdir, env, traced=True)
        judge(op, run, ctx, traced)
        if (run.exit, run.stdout) != (plain[op.name].exit, plain[op.name].stdout):
            run.status, run.reason = "wrong", "traced output differs from the untraced run"
        traced[op.name] = run
        with open(os.path.join(workdir, "out", f"traced-{op.name}.spans.json")) as fh:
            traces[op.name] = json.load(fh)
    all_runs = [*plain.values(), *traced.values()]
    print("  untraced:")
    report_runs(plain.values())
    print("  traced:")
    report_runs(traced.values())
    print_fail_frac(all_runs)

    print("  per-op layer metrics (traced; zeros omitted):")
    for op in w.ops:
        one = spans.layer_metrics([traces[op.name]])
        cells = " ".join(f"{k}={v:.4g}" for k, v in one.items() if v)
        print(f"    {op.name}: {cells}")

    values = spans.layer_metrics(list(traces.values()))
    values["cli.interpreter_s"] = median_wall(launcher, [sys.executable, "-c", "pass"], env,
                                              workdir)
    values["cli.import_s"] = median_wall(launcher, [sys.executable, "-c", "import scedex.cli"],
                                         env, workdir)
    t1, t2 = traces.get("mc-size-space"), traces.get("mc-size-space-2threads")
    values["mc.thread_speedup"] = (
        spans.span_total(t1, "mc.mc_test_size") / spans.span_total(t2, "mc.mc_test_size")
        if t1 and t2 else 0.0)
    values["trace.wall_s"] = sum(r.wall for r in traced.values())
    values["trace.overhead_s"] = values["trace.wall_s"] - sum(r.wall for r in plain.values())
    metrics = emit(declared_metrics("per_layer"), values)
    with open(os.path.join(workdir, "trace.json"), "w") as fh:
        json.dump({"metrics": values, "ops": traces}, fh)
    for key, m in metrics.items():
        print(f"  {key} = {m['value']} {m['unit']}")
    return metrics, all_runs


def report_runs(runs: list) -> None:
    for r in runs:
        note = r.status if not r.reason else f"{r.status}: {r.reason}"
        print(f"  op {r.name:<24} {r.wall:9.4f} s {r.rss_mb:8.1f} MB  exit {r.exit}  {note}")


def print_fail_frac(runs: list) -> None:
    bad = sum(r.status != "ok" for r in runs)
    print(f"  fail_frac = {bad / len(runs)} ratio ({bad} of {len(runs)} ops)")


def main(argv=None) -> int:
    sys.stdout.reconfigure(line_buffering=True)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "scedex", "cli.py")):
        print(f"scedex sources not found under {SRC}", file=sys.stderr)
        return 2
    launcher = Launcher()  # before any input exists: see launcher.py
    try:
        return run(launcher, args)
    finally:
        launcher.close()


def run(launcher: Launcher, args) -> int:
    sys.path.insert(0, SRC)
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"unknown workload {unknown[0]!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2

    import numpy
    import scipy
    print(f"machine {platform.machine()} {os.cpu_count()} cpus, Python "
          f"{platform.python_version()}, numpy {numpy.__version__}, scipy {scipy.__version__}")
    results = {n: run_workload(launcher, n, args.seed, args.seconds, bool(args.trace))
               for n in names}
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
