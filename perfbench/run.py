#!/usr/bin/env python3
"""gdiff benchmark: seeded problem files through the path of `gdiff run`.

    python3 perfbench/run.py --workload exact-solve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One run generates the workload's problem files from the seed, loads them in
rounds to time set-up, then makes closed-loop passes (load, every task, text
report; one file after another, one process) until ``--seconds`` have
passed and at least three passes are done.  While it times, a timer signal
runs a short fixed reference loop every 20 ms, and every time is reported
at the loop's nominal speed (speed.py), so that the machine's speed swings
cancel out.  Every task's report line is
checked against its expected line, and the expected dimensions against an
independent sympy oracle.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced passes that wrap gdiff's public functions from
outside (see layers.py and spans.py), and reports the per-layer metrics.
``--workload all`` runs every workload in a fresh process of its own.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it, and ``perfbench/out/``, hold the details: pass and task times, the tail
percentile and its sample count, failures and the environment.
"""

import os

# numpy's OpenBLAS would otherwise start threads of its own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_PASSES = 3
MIN_PAIRS = 2        # traced run: (untraced, traced) pass pairs
SETUP_ROUNDS = 5     # at least this many set-up rounds ...
SETUP_SECONDS = 4.0  # ... and more until this long
TAIL_SAMPLES = 10    # the tail percentile keeps at least this many beyond it
END_TO_END = {"setup_s": "s", "pass_s": "s", "ok_frac": "ratio",
              "peak_rss_mb": "MB"}
# Printed and kept with the result, not gated: single tasks are too short
# for the speed samples to take the machine's swings out (README.md).
RECORDED = {"task_s_p50": "s", "task_s_tail": "s", "failed_frac": "ratio",
            "raw_setup_s": "s", "raw_pass_s": "s", "sample_s": "s"}

clock = time.perf_counter


def fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


# -- environment -------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": git_commit(),
    }


# -- one pass ----------------------------------------------------------------

class TaskTimer:
    """Times every `problem.run_task` call that `run_problem` makes, less
    the time of the speed samples taken during it."""

    def __init__(self, problem, sampler):
        self.problem = problem
        self.sampler = sampler
        self.times = []
        self.original = None

    def install(self) -> None:
        self.original = original = self.problem.run_task
        times, mark, window = self.times, self.sampler.mark, self.sampler.window

        def timed(*args, **kwargs):
            start = mark()
            try:
                return original(*args, **kwargs)
            finally:
                times.append(window(start, mark())[0])

        self.problem.run_task = timed

    def remove(self) -> None:
        if self.original is not None:
            self.problem.run_task, self.original = self.original, None


def task_label(task: dict) -> str:
    refs = [str(task[k]) for k in ("equation", "source", "target", "system",
                                   "hmodule", "first", "second") if k in task]
    return " ".join([task.get("task", "?")] + refs)


def run_pass(problem, files, seed: int, timer: TaskTimer) -> dict:
    """Load, run and report every file once, in order.  "seconds" is the
    pass's work time, "sample" the mean speed-sample time during it,
    "tasks" the work time of each task."""
    texts, failures, attempted = [], [], 0
    first_task = len(timer.times)
    start = timer.sampler.mark()
    for name, path, expected, labels in files:
        broken = None   # the line every task gets when the file fails whole
        try:
            prob = problem.load_problem(path)
            tasks = prob.tasks
        except Exception as exc:  # noqa: BLE001 - counts every task as failed
            broken = f"load failed: {type(exc).__name__}: {exc}"
            tasks = [{"task": "?"}] * len(expected)
            text = broken + "\n"
        else:
            try:
                text = problem.format_report(problem.run_problem(prob, seed),
                                             "text")
            except Exception as exc:  # noqa: BLE001 - escaped run_problem
                broken = f"aborted: {type(exc).__name__}: {exc}"
                text = broken + "\n"
        texts.append(text)
        got = dict(line.split(": ", 1) for line in text.splitlines()
                   if line.startswith("task "))
        for i, (task, want) in enumerate(zip(tasks, expected)):
            attempted += 1
            line = got.get(f"task {i} {task['task']}", broken)
            if line != want:
                failures.append({"file": name, "index": i, "task": labels[i],
                                 "expected": want, "got": line})
    seconds, _, sample = timer.sampler.window(start, timer.sampler.mark())
    return {"seconds": seconds, "sample": sample,
            "tasks": timer.times[first_task:], "texts": texts,
            "failures": failures, "attempted": attempted}


def measure_setup(problem, files, sampler):
    """Set-up time: rounds of loading every file once, for at least
    SETUP_ROUNDS rounds and SETUP_SECONDS seconds.  Returns the mean work
    time of a round at the nominal reference speed, the same in raw
    seconds, and the number of rounds.  A file that fails to load is left
    out here; its tasks fail in every pass."""
    loadable = []
    for _, path, _, _ in files:
        try:
            problem.load_problem(path)
        except Exception:  # noqa: BLE001 - run_pass reports it
            continue
        loadable.append(path)
    work, rounds = 0.0, 0
    first = sampler.mark()
    while rounds < SETUP_ROUNDS or clock() - first[0] < SETUP_SECONDS:
        for path in loadable:
            start = sampler.mark()
            problem.load_problem(path)
            work += sampler.window(start, sampler.mark())[0]
        rounds += 1
    _, _, sample = sampler.window(first, sampler.mark())
    return speed.normalized(work / rounds, sample), work / rounds, rounds


# -- one workload ------------------------------------------------------------

def percentile(samples, pct: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not os.path.isdir(os.path.join(SRC, "gdiff")):
        fail(f"no gdiff sources at {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import gdiff
    from gdiff import problem
    if os.path.dirname(os.path.abspath(gdiff.__file__)) != os.path.join(SRC, "gdiff"):
        fail(f"imported gdiff from {gdiff.__file__}, not from {SRC}")
    import layers
    from spans import Tracer

    specs = workloads.build(workload, seed)
    workdir = os.path.join(OUT, f"{workload}-seed{seed}")
    paths = workloads.write_files(specs, workdir)
    files = [(name, path, expected, [task_label(t) for t in prob["tasks"]])
             for (name, prob, expected), path in zip(specs, paths)]
    tasks_per_pass = sum(len(expected) for _, _, expected, _ in files)

    info = {"workload": workload, "seed": seed, "trace": int(trace),
            "tasks_per_pass": tasks_per_pass}
    problems = []
    tracer = Tracer() if trace else None
    sampler = speed.Sampler(on_sample=tracer.exclude if trace else None)
    timer = TaskTimer(problem, sampler)
    if not trace:
        sampler.start()
        try:
            setup_s, raw_setup_s, setup_rounds = measure_setup(problem, files,
                                                               sampler)
            timer.install()
            passes = []
            start = clock()
            while len(passes) < MIN_PASSES or clock() - start < seconds:
                passes.append(run_pass(problem, files, seed, timer))
        finally:
            timer.remove()
            sampler.stop()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        measured = passes
    else:
        def snapshot(sample):
            values = {m: layers.value(m, tracer.self_time, tracer.calls,
                                      tracer.counters)
                      for m in layers.METRICS if m != "trace_overhead"}
            tracer.reset()
            return {m: speed.normalized(v, sample) if m.endswith(".s") else v
                    for m, v in values.items()}

        def traced_pass():
            tracer.install(layers.TARGETS)
            timer.install()   # over the tracer's run_task span, not under it
            traced = run_pass(problem, files, seed, timer)
            timer.remove()
            tracer.remove()
            traced["per_layer"] = snapshot(traced["sample"])
            return traced

        def plain_pass():
            timer.install()
            plain = run_pass(problem, files, seed, timer)
            timer.remove()
            return plain

        # Untraced and traced passes alternate in pairs, so that both sides
        # of the overhead ratio see nearby phases of machine speed, and
        # every other pair runs its traced pass first, so that neither
        # side is always the first.  A speed sample inside a span counts
        # as its child, so it leaves the span's self time.
        pairs = []
        sampler.start()
        try:
            start = clock()
            while len(pairs) < MIN_PAIRS or clock() - start < seconds:
                if len(pairs) % 2 == 0:
                    plain = plain_pass()
                    traced = traced_pass()
                else:
                    traced = traced_pass()
                    plain = plain_pass()
                pairs.append((plain, traced))
        finally:
            timer.remove()
            tracer.remove()
            sampler.stop()
        passes = [traced for _, traced in pairs]
        measured = [p for pair in pairs for p in pair]
        if any(t["texts"] != u["texts"] for u, t in pairs):
            problems.append("traced and untraced reports differ")

    attempted = sum(p["attempted"] for p in measured)
    failures = [f for p in measured for f in p["failures"]]
    unknown = [f for f in failures if not workloads.is_known_defect(
        f["file"], f["task"], f["got"])]
    if unknown:
        problems.append(f"{len(unknown)} unexpected report lines")
    if any(p["texts"] != measured[0]["texts"] for p in measured):
        problems.append("reports differ between passes of one run")

    import oracle
    try:
        mismatch = oracle.check(workloads.involution(seed), workdir)
    except Exception as exc:  # noqa: BLE001 - a failed check, not a crash
        mismatch = f"{type(exc).__name__}: {exc}"
    if mismatch:
        problems.append(f"oracle disagrees: {mismatch}")

    info.update({
        "passes": len(measured), "attempted": attempted,
        "pass_seconds": [p["seconds"] for p in measured],
        "pass_samples": [p["sample"] for p in measured],
        "failed": len(failures), "failed_frac": len(failures) / attempted,
        "failures": sorted({(f["file"], f["task"], f["got"]) for f in failures}),
        "known_defects": {f"{k[0]}: {k[1]}": v
                          for k, v in workloads.KNOWN_DEFECTS.items()},
        "environment": environment(),
    })

    if not trace:
        samples = [speed.normalized(t, p["sample"])
                   for p in passes for t in p["tasks"]]
        tail_pct = math.floor(100 * (1 - TAIL_SAMPLES / (tasks_per_pass * MIN_PASSES)))
        info.update({"task_s_p50": statistics.median(samples),
                     "task_s_tail": percentile(samples, tail_pct),
                     "raw_setup_s": raw_setup_s, "setup_rounds": setup_rounds,
                     "raw_pass_s": statistics.median(p["seconds"] for p in passes),
                     "sample_s": statistics.median(p["sample"] for p in passes),
                     "tail_percentile": tail_pct, "task_samples": len(samples),
                     "task_medians": task_medians(samples, specs)})
        metrics = {
            "setup_s": setup_s,
            "pass_s": statistics.median(
                speed.normalized(p["seconds"], p["sample"]) for p in passes),
            "ok_frac": 1 - len(failures) / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    else:
        metrics = per_layer(passes)
        unsteady = [m for m in metrics if not m.endswith(".s") and
                    any(p["per_layer"][m] != metrics[m] for p in passes)]
        if unsteady:
            problems.append(f"counters differ between passes: {unsteady}")
        metrics["trace_overhead"] = statistics.median(
            speed.normalized(t["seconds"], t["sample"])
            / speed.normalized(u["seconds"], u["sample"]) for u, t in pairs)
        units = {m: layers.unit(m) for m in metrics}
        spans_path = os.path.join(workdir, "spans.jsonl")
        tracer.write_spans(spans_path)
        info.update({"spans": len(tracer.spans), "spans_file": spans_path,
                     "counters_digest": counters_digest(metrics)})

    info["problems"] = problems
    return {"correct": not problems, "attempted": attempted,
            "failed": len(failures), "info": info,
            "metrics": {m: {"value": v, "unit": units[m]}
                        for m, v in metrics.items()}}


def task_medians(samples, specs) -> dict:
    """Median time of each task over the passes, when every pass ran all
    of its tasks."""
    labels = [f"{name} {i} {task_label(task)}"
              for name, prob, _ in specs for i, task in enumerate(prob["tasks"])]
    if len(samples) % len(labels):
        return {}
    return {label: statistics.median(samples[i::len(labels)])
            for i, label in enumerate(labels)}


def per_layer(passes) -> dict:
    """Median self time over the traced passes; counters from the first."""
    first = passes[0]["per_layer"]
    return {m: (statistics.median(p["per_layer"][m] for p in passes)
                if m.endswith(".s") else v) for m, v in first.items()}


def counters_digest(metrics: dict) -> str:
    """A fingerprint of every counter, to compare runs with one seed."""
    import hashlib
    counters = sorted((m, v) for m, v in metrics.items()
                      if not m.endswith(".s") and m != "trace_overhead")
    return hashlib.sha256(json.dumps(counters).encode()).hexdigest()[:16]


def print_result(result: dict) -> None:
    info = result["info"]
    rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
    rows += [(name, info[name], unit) for name, unit in RECORDED.items()
             if name in info]
    for name, value, unit in rows:
        print(f"{info['workload']:<18} {name:<42} {value:>14.6g} {unit}")
    keys = ("passes", "attempted", "failed", "tail_percentile", "task_samples",
            "spans", "counters_digest", "problems")
    print(json.dumps({k: info[k] for k in keys if k in info}))
    for failure in info["failures"]:
        print("failed:", " | ".join(str(x) for x in failure))
    print("environment:", json.dumps(info["environment"]))


def run_one(args) -> int:
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    info = result.pop("info")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(result, info=info), fh, indent=1, default=str)
    print_result(dict(result, info=info))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process of its own, then one table."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            fail(f"workload {workload} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
