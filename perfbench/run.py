"""clarikit pipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a clarikit checkout.  It builds its inputs with
`clarikit synth-gen` and the writers in workloads.py, all from --seed, then:

--trace 0  sets up three times (set-up time is the median), then runs the
           workload's CLI stages in order, one fresh `python -m clarikit.cli`
           process at a time, in passes over the stages for about --seconds,
           at least three passes.  It prints the end-to-end metrics of
           BENCHMARK.json.
--trace 1  times the import of clarikit.cli in fresh interpreters, runs the
           stages once untraced, then once more in this process through
           clarikit.cli.main with span wrappers installed (spans.py), and
           prints the per-layer metrics of BENCHMARK.json.

Each stage invocation is one operation.  It fails on a non-zero exit, on
outputs that differ from the first repetition's (every file under --out,
manifest.json included) or on a failed oracle check.  The last stdout line is
the result as JSON; the line before it gives the run context.  Work files go
to .perfbench/ and are removed at the end, except the traced run's spans,
kept in .perfbench/spans-<workload>.tsv.gz.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback

from workloads import WORKLOADS, Workload

SETUP_REPEATS = 3
MIN_REPEATS = 3
STARTUP_REPEATS = 5
# a run must end within 180 s; no single process may outlive this
PROCESS_TIMEOUT_S = 150.0

NOTES = (
    "Measures only the benchmark's own processes: wall time with perf_counter, peak RSS of each stage "
    "process with os.wait4. No system-wide tracing, no cache dropping, no CPU pinning."
)


class Failure(Exception):
    """The benchmark cannot run at all (not an operation failure)."""


class Operations:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED {label}: {problem}", file=sys.stderr)


class Bench:
    def __init__(self, root: str, workload: Workload, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = os.path.join(root, ".perfbench", f"work-{workload.name}-{seed}")
        self.ops = Operations()
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.config_path = os.path.join(self.work, "synth.json")

    # -- processes -----------------------------------------------------------

    def spawn(self, argv: list, log_name: str) -> tuple:
        """Run one process to completion; (exit code, wall s, peak RSS MB).
        Its own rusage comes from os.wait4, so a larger earlier child is
        never charged to it."""
        log_path = os.path.join(self.work, "logs", log_name)
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL, stdout=log, stderr=log)
            watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            with open(log_path, encoding="utf-8", errors="replace") as fh:
                print(f"{log_name} exited {proc.returncode}:\n{fh.read()[-2000:]}", file=sys.stderr)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def cli(self, command: str, args: list, out: str, label: str) -> tuple:
        argv = [sys.executable, "-m", "clarikit.cli", command, *args, "--out", out]
        return self.spawn(argv, f"{label}.log")

    # -- set-up --------------------------------------------------------------

    def prepare(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(os.path.join(self.work, "logs"))
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.workload.synth_config, fh, sort_keys=True)
        # compile the package's bytecode once, so no timed process pays for it
        code, _, _ = self.spawn([sys.executable, "-c", "import clarikit.cli"], "warmup.log")
        if code != 0:
            raise Failure(f"cannot import clarikit.cli from {self.env['PYTHONPATH']}")

    def setups(self, count: int) -> tuple:
        """Set up `count` times: synth-gen plus the side-input writers.
        Returns the first input dir and the median wall time.  Every
        repetition must produce byte-identical inputs."""
        first, reference, walls = None, None, []
        for index in range(count):
            inp = os.path.join(self.work, f"setup{index}")
            start = time.perf_counter()
            code, _, _ = self.cli("synth-gen", ["--config", self.config_path, "--seed", str(self.seed)], inp, f"setup{index}")
            if code == 0:
                self.workload.write_side_inputs(inp, self.seed)
            walls.append(time.perf_counter() - start)
            if code != 0:
                self.ops.record(f"setup{index} synth-gen", [f"exit code {code}"])
                raise Failure("synth-gen failed")
            digest = tree_digest(inp)
            if first is None:
                first, reference = inp, digest
            else:
                shutil.rmtree(inp)
            problems = [] if digest == reference else [f"inputs differ from setup0: {diff_names(digest, reference)}"]
            self.ops.record(f"setup{index} synth-gen", problems)
        return first, statistics.median(walls)

    # -- stages --------------------------------------------------------------

    def run_stages(self, inp: str, rep: str) -> tuple:
        """One pass over the stages as subprocesses; (out dir by command,
        wall s by command, peak RSS MB by command).  A failed stage ends the
        pass, since later stages read its outputs."""
        outs, walls, rss = {}, {}, {}
        for stage in self.workload.stages:
            out = os.path.join(self.work, rep, stage.command)
            code, wall, peak = self.cli(stage.command, stage.args(inp, outs, self.seed), out, f"{rep}-{stage.command}")
            outs[stage.command] = out
            if code != 0:
                self.ops.record(f"{rep} {stage.command}", [f"exit code {code}"])
                break
            walls[stage.command], rss[stage.command] = wall, peak
        return outs, walls, rss

    def judge(self, rep: str, outs: dict, walls: dict, reference: dict | None, inp: str) -> dict:
        """Record one operation per stage that exited 0: oracle checks on the
        first pass, byte identity with the first pass after it.  Returns the
        digests of this pass."""
        digests = {command: tree_digest(out) for command, out in outs.items() if command in walls}
        problems = {command: [] for command in walls}
        if reference is None:
            if len(walls) == len(self.workload.stages):
                try:
                    for command, message in self.workload.check(inp, outs):
                        problems[command].append(message)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    problems[self.workload.stages[-1].command].append(f"output check raised {exc!r}")
        else:
            for command, digest in digests.items():
                if digest != reference.get(command):
                    problems[command].append(f"outputs differ from the first pass: {diff_names(digest, reference.get(command, {}))}")
        for command in walls:
            self.ops.record(f"{rep} {command}", problems[command])
        return digests


def tree_digest(directory: str) -> dict:
    """sha256 of every file under a directory, by relative path."""
    out = {}
    for base, _dirs, files in os.walk(directory):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def diff_names(a: dict, b: dict) -> list:
    return sorted(name for name in set(a) | set(b) if a.get(name) != b.get(name))


def metric_key(command: str) -> str:
    return command.replace("-", "_") + "_s"


# -- the two kinds of run -------------------------------------------------------


def trimmed_mean(values: list) -> float:
    """Mean without the fastest and the slowest value (of three or more): a
    pass caught whole in a stall of the shared machine, or one that ran
    wholly in a quiet moment, does not move it, yet every other pass does."""
    ordered = sorted(values)
    if len(ordered) >= 3:
        ordered = ordered[1:-1]
    return statistics.fmean(ordered)


def end_to_end(bench: Bench, seconds: float) -> dict:
    """total_s sums each stage's trimmed mean over the passes.  A pass
    starts only while the previous one's duration still fits in `seconds`,
    so a run measures about `seconds` of work whatever the pass length."""
    inp, setup_s = bench.setups(SETUP_REPEATS)
    samples, peaks, reference = {}, [], None
    start = time.perf_counter()
    rep, last = 0, 0.0
    while rep < MIN_REPEATS or time.perf_counter() - start + last <= seconds:
        name = f"rep{rep}"
        began = time.perf_counter()
        outs, walls, rss = bench.run_stages(inp, name)
        last = time.perf_counter() - began
        digests = bench.judge(name, outs, walls, reference, inp)
        print(f"{name}: " + " ".join(f"{c}={w:.3f}s/{rss[c]:.0f}MB" for c, w in walls.items()), file=sys.stderr)
        peaks.extend(rss.values())
        for command, wall in walls.items():
            samples.setdefault(command, []).append(wall)
        if reference is None:
            reference = digests
        else:
            shutil.rmtree(os.path.join(bench.work, name))
        rep += 1
    if len(samples) != len(bench.workload.stages):
        raise Failure("some stage never completed")
    total = sum(trimmed_mean(walls) for walls in samples.values())
    return {"setup_s": setup_s, "total_s": total, "peak_rss_mb": max(peaks)}


def startup_seconds(bench: Bench) -> float:
    """Median import time of clarikit.cli in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import clarikit.cli; print(repr(time.perf_counter() - t))"
    samples = []
    for _ in range(STARTUP_REPEATS):
        try:
            out = subprocess.run(
                [sys.executable, "-c", code], cwd=bench.root, env=bench.env, stdin=subprocess.DEVNULL,
                capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S, check=True,
            )
            samples.append(float(out.stdout))
        except (subprocess.SubprocessError, ValueError) as exc:
            raise Failure(f"timing the import of clarikit.cli failed: {exc}") from None
    return statistics.median(samples)


def main_in_process(tracer, command: str, args: list, out: str) -> tuple:
    """Run one command through clarikit.cli.main in this process under a
    cli.<command> span; (problems, wall s)."""
    import clarikit.cli

    tracer.stage = command
    record = tracer.begin(f"cli.{command}")
    try:
        code = clarikit.cli.main([command, *args, "--out", out])
    except SystemExit as exc:
        code = exc.code
    except Exception:  # the run must go on to report the failure
        traceback.print_exc()
        code = "exception"
    finally:
        tracer.end(record)
    return ([] if code == 0 else [f"in-process exit code {code}"]), record[2] - record[1]


def in_process_pass(bench: Bench, tracer, label: str, inp: str, reference: dict) -> float:
    """Set-up and stages in this process, each output checked byte for byte
    against the subprocess pass; returns the stages' summed wall time."""
    setup_dir = os.path.join(bench.work, f"{label}-setup")
    args = ["--config", bench.config_path, "--seed", str(bench.seed)]
    problems, _ = main_in_process(tracer, "synth-gen", args, setup_dir)
    if not problems:
        bench.workload.write_side_inputs(setup_dir, bench.seed)
        if tree_digest(setup_dir) != tree_digest(inp):
            problems.append(f"{label} set-up inputs differ from the subprocess ones")
    bench.ops.record(f"{label} synth-gen", problems)
    outs, total = {}, 0.0
    for stage in bench.workload.stages:
        outs[stage.command] = out = os.path.join(bench.work, label, stage.command)
        problems, wall = main_in_process(tracer, stage.command, stage.args(inp, outs, bench.seed), out)
        if not problems and tree_digest(out) != reference[stage.command]:
            problems.append(f"{label} outputs differ from the subprocess ones")
        bench.ops.record(f"{label} {stage.command}", problems)
        total += wall
    return total


def per_layer(bench: Bench) -> dict:
    """Stage wall times from one subprocess pass, then the same stages twice
    in this process: untraced, and traced.  The difference between the two
    in-process totals is the tracing overhead."""
    import spans

    commands = sorted({s.command for w in WORKLOADS.values() for s in w.stages})
    # stages of other workloads read 0, like the layers this one does not load
    metrics = {metric_key(command): 0.0 for command in commands}
    metrics["cli.startup_s"] = startup_seconds(bench)
    inp, _ = bench.setups(1)
    outs, walls, _rss = bench.run_stages(inp, "subprocess")
    reference = bench.judge("subprocess", outs, walls, None, inp)
    if len(walls) != len(bench.workload.stages):
        raise Failure("the subprocess pass did not complete")
    for command, wall in walls.items():
        metrics[metric_key(command)] = wall

    sys.path.insert(0, os.path.join(bench.root, "src"))
    untraced_total = in_process_pass(bench, spans.Tracer(), "untraced", inp, reference)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_total = in_process_pass(bench, tracer, "traced", inp, reference)
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(bench.root, ".perfbench", f"spans-{bench.workload.name}.tsv.gz"), f"{bench.workload.name}-{bench.seed}")
    metrics.update(tracer.layer_metrics(["synth-gen", *commands]))
    metrics["trace.overhead_s"] = traced_total - untraced_total
    return metrics


# -- entry point ------------------------------------------------------------------


def blas_info() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"numpy": numpy.__version__, "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")}}


def loadavg() -> str:
    with open("/proc/loadavg", encoding="ascii") as fh:
        return fh.read().strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "clarikit", "cli.py")):
        print(f"error: {root} holds no clarikit sources (src/clarikit); run from the root of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    context = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **blas_info(),
        "loadavg_start": loadavg(),
        "notes": NOTES,
    }
    bench = Bench(root, WORKLOADS[args.workload], args.seed)
    try:
        bench.prepare()
        measured = per_layer(bench) if args.trace else end_to_end(bench, args.seconds)
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    context["loadavg_end"] = loadavg()

    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": bench.ops.failed == 0,
        "attempted": bench.ops.attempted,
        "failed": bench.ops.failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
