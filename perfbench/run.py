"""Benchmark of the ctrlkit CLI verbs, end to end and layer by layer.

    python3 perfbench/run.py --workload {train,generate,score,all} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  One process, one client, closed loop: every verb runs in process
through ``ctrlkit.cli.main`` and waits for the one before it, so interpreter
start-up stays out of the numbers.  A run sets its workload up several times
(the median is ``setup_s``), runs one warm-up round, then repeats the
workload's round of verb calls for ``--seconds`` and checks every output.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics from the traced
ones; the ratio of the two kinds of round gives ``trace.overhead_share``.
The last line of standard output is one JSON object.  ``--workload all``
runs the three workloads one after another and prints every metric.
"""

from __future__ import annotations

import os

# OpenBLAS with 2 threads on a 2-core machine stalls erratically on the
# small matmuls of decoding (a 16-token forward measured 3.4 ms with one
# thread and up to 95 ms with two), which would swamp the medians.  Pin one
# thread, which also stays within nproc; set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
NAMES = ("train", "generate", "score")

# Metrics that every workload reports; they are the ones BENCHMARK.json lists.
E2E_COMMON = ("round_s", "setup_s", "peak_rss_mb")
# Median time of the reference on the machine the benchmark was built on, in
# quiet periods.  Times divided by the reference are multiplied by it, which
# turns them back into seconds on that machine.
NOMINAL_REFERENCE_S = 0.012
PER_LAYER_COMMON = ("trace.overhead_share", "cli.self_s", "tokenizer.self_s",
                    "model.self_s", "ngram.self_s", "model.rows_per_output")


def load_program():
    """Import ctrlkit from this checkout's ``src``, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "ctrlkit", "__init__.py")):
        sys.exit(f"error: no ctrlkit sources under {SRC}; run from a source checkout")
    sys.path[:0] = [SRC, HERE]
    import ctrlkit

    if os.path.dirname(os.path.dirname(os.path.abspath(ctrlkit.__file__))) != SRC:
        sys.exit(f"error: imported ctrlkit from {ctrlkit.__file__}, not from {SRC}")


def machine_record() -> dict:
    import scipy

    quota = None
    for path in ("/sys/fs/cgroup/cpu.max", "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"):
        try:
            with open(path) as fh:
                quota = fh.read().strip()
            break
        except OSError:
            continue
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cgroup_cpu_quota": quota,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads():
    """Threads the loaded OpenBLAS uses, asked of the library itself."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ["OPENBLAS_NUM_THREADS"]


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


class Reference:
    """A fixed piece of work that involves no ctrlkit code, about 10 ms, in
    three parts of similar length: float32 matmuls of a 4/4/128/512 block's
    sizes, many small numpy operations like those of one decoding step, and
    Python dict and tuple churn like BPE's.

    The runner times it just before and just after every verb call.  On a
    shared host the machine's speed drifts between runs and within one, and
    work of each kind drifts differently: a matmul-heavy process on the
    other CPU made a 155-token forward 2.8 times slower and decoding hardly
    slower.  A verb's time divided by the reference time around it cancels
    much of that drift, while a change to the program moves the ratio as
    much as it moves the verb's own time.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((96, 128)).astype(np.float32)
        self.w1 = rng.standard_normal((128, 512)).astype(np.float32)
        self.w2 = rng.standard_normal((512, 128)).astype(np.float32) / 512
        self.logits = rng.standard_normal(320)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in range(16):
            ((self.x @ self.w1) @ self.w2).sum()
        for _ in range(200):
            p = np.exp(self.logits - self.logits.max())
            p /= p.sum()
            order = np.argsort(-p, kind="stable")
            np.cumsum(p[order]).searchsorted(0.9)
        churn = {}
        for i in range(10_000):
            churn[i, i & 7] = str(i)
        return time.perf_counter() - t0


class Runner:
    """One workload, one process: set-up, rounds, checks and the report."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, small: bool,
                 work_dir: str):
        from workloads import WORKLOADS

        self.workload = WORKLOADS[name](small)
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.scratch = os.path.join(work_dir, f"run-{name}-{seed}-{os.getpid()}")
        self.samples: list[list[tuple]] = []  # per step: (seconds, work, reference)
        self.failures: list[str] = []
        self.attempted = 0
        # Per round, the sum of call times divided by the reference time.
        self.round_times: dict[bool, list[float]] = {False: [], True: []}
        self.setup_times: list[tuple[float, float]] = []  # (seconds, reference)
        self.tracer = None
        self.reference = Reference()

    def set_up(self) -> None:
        from workloads import _digest

        digests = None
        for i in range(SETUP_REPEATS):
            d = os.path.join(self.scratch, f"setup{i}")
            os.makedirs(d)
            before = self.reference()
            t0 = time.perf_counter()
            files = self.workload.setup(d, self.seed)
            seconds = time.perf_counter() - t0
            self.setup_times.append((seconds, (before + self.reference()) / 2))
            now = [_digest(os.path.join(d, f)) for f in files]
            if digests is not None and now != digests:
                self.failures.append("set-up: a rebuild with the same seed gave other files")
            digests = now
            if i:
                shutil.rmtree(os.path.join(self.scratch, f"setup{i - 1}"))
        self.steps = self.workload.steps()
        self.samples = [[] for _ in self.steps]

    def run_round(self, traced: bool, record: bool) -> None:
        from ctrlkit import cli
        from workloads import CheckFailed

        total = 0.0
        for i, step in enumerate(self.steps):
            self.attempted += 1
            out, err = io.StringIO(), io.StringIO()
            # Start every call from a collected heap, so a collection that
            # earlier calls made due does not land in this call's time.
            gc.collect()
            before = self.reference()
            with step.around() if step.around else nullcontext():
                with redirect_stdout(out), redirect_stderr(err):
                    with self.tracer.call(step.argv[0]) if traced else nullcontext():
                        t0 = time.perf_counter()
                        rc = cli.main(step.argv)
                        seconds = time.perf_counter() - t0
            reference = (before + self.reference()) / 2
            total += seconds / reference
            if rc != 0:
                self.failures.append(f"{step.argv[0]} exited {rc}: {err.getvalue().strip()}")
                continue
            try:
                work = step.check()
            except CheckFailed as exc:
                self.failures.append(f"{step.argv[0]}: {exc}")
                continue
            except Exception as exc:  # a missing or unreadable output file
                self.failures.append(f"{step.argv[0]}: {type(exc).__name__}: {exc}")
                continue
            if record:
                self.samples[i].append((seconds, work, reference))
        if record:
            self.round_times[traced].append(total)

    def measure(self) -> None:
        self.run_round(traced=False, record=False)  # warm-up, checked but not timed
        deadline = time.perf_counter() + self.seconds
        rounds = 0
        while True:
            traced = self.trace and rounds % 2 == 1
            if traced:
                with self.tracer.installed():
                    self.run_round(traced=True, record=True)
            else:
                self.run_round(traced=False, record=True)
            rounds += 1
            if time.perf_counter() >= deadline and (rounds >= 2 or not self.trace):
                break

    def end_to_end(self) -> dict[str, tuple[float, str, int]]:
        out: dict[str, tuple[float, str, int]] = {}
        by_metric: dict[str, list[float]] = {}
        units = {}
        for step, samples in zip(self.steps, self.samples):
            by_metric.setdefault(step.metric, []).extend(w / s for s, w, _ in samples)
            units[step.metric] = step.unit
        for metric, rates in by_metric.items():
            out[metric] = (statistics.median(rates) if rates else float("nan"),
                           units[metric], len(rates))
        out.update(self.workload.extra)
        n = min(len(s) for s in self.samples)
        out["round_s"] = (NOMINAL_REFERENCE_S * sum(_median([s / r for s, _, r in c])
                                                    for c in self.samples), "s", n)
        out["round_wall_s"] = (sum(_median([s for s, _, _ in c]) for c in self.samples), "s", n)
        out["reference_s"] = (_median([r for c in self.samples for _, _, r in c]), "s",
                              sum(len(c) for c in self.samples))
        setups = self.setup_times
        out["setup_s"] = (NOMINAL_REFERENCE_S * statistics.median(s / r for s, r in setups),
                          "s", len(setups))
        out["setup_wall_s"] = (statistics.median(s for s, _ in setups), "s", len(setups))
        out["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB", 1)
        return out

    def per_layer(self) -> dict[str, tuple[float, str, int]]:
        from spans import layer_metrics

        plain, traced = self.round_times[False], self.round_times[True]
        out = layer_metrics(self.tracer, len(traced))
        out["trace.overhead_share"] = (
            statistics.median(traced) / statistics.median(plain) - 1, "ratio",
            min(len(plain), len(traced)))
        gaps = self.tracer.call_gaps()
        out["trace.max_call_gap_us"] = (max(gaps) / 1e3, "us", len(gaps))
        if min(gaps) < 0 or max(gaps) > 1_000_000:
            self.failures.append("trace: span self times do not add up to a call's wall time")
        return out

    def run(self) -> dict:
        os.makedirs(self.scratch)
        try:
            self.set_up()
            if self.trace:
                from spans import Tracer

                self.tracer = Tracer()
            self.measure()
            metrics = self.per_layer() if self.trace else self.end_to_end()
            metrics["failed_share"] = (len(self.failures) / self.attempted, "ratio",
                                       self.attempted)
        finally:
            shutil.rmtree(self.scratch, ignore_errors=True)
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "why": self.workload.why,
            "machine": machine_record(),
            "properties": self.workload.properties,
            "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
            "failures": self.failures,
            "attempted": self.attempted,
            "calls": [[step.argv[0], samples] for step, samples in zip(self.steps, self.samples)],
        }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def print_report(result: dict) -> None:
    print(f"# workload {result['workload']}  seed {result['seed']}  "
          f"seconds {result['seconds']}  trace {result['trace']}")
    print(f"# why: {result['why']}")
    print("# machine " + json.dumps(result["machine"], sort_keys=True))
    print("# properties " + json.dumps(result["properties"], sort_keys=True))
    for failure in result["failures"]:
        print(f"# FAILED {failure}")
    for name, m in sorted(result["metrics"].items()):
        print(f"{name:45s} {m['value']:>16.6f} {m['unit']:12s} n={m['n']}")


def result_line(result: dict, names) -> dict:
    metrics = result["metrics"]
    return {
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        # A metric without a single good call is NaN, which JSON lacks; such
        # a run has failures, so "correct" is already false.
        "metrics": {n: {"value": metrics[n]["value"] if math.isfinite(metrics[n]["value"])
                        else 0.0, "unit": metrics[n]["unit"]}
                    for n in names},
    }


def run_all(args) -> int:
    """Each workload in its own process, so each has its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", args.work_dir]
        if args.small:
            cmd.append("--small")
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, m in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="reduced inputs, for the benchmark's self-test")
    p.add_argument("--work-dir", default=os.path.join(ROOT, ".perfbench_work"),
                   help="scratch files, results and traces (default: .perfbench_work)")
    args = p.parse_args(argv)
    args.work_dir = os.path.abspath(args.work_dir)
    load_program()
    if args.workload == "all":
        return run_all(args)

    runner = Runner(args.workload, args.seed, args.seconds, bool(args.trace), args.small,
                    args.work_dir)
    result = runner.run()
    results = os.path.join(args.work_dir, "results")
    os.makedirs(results, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(results, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    if runner.tracer is not None:
        with open(os.path.join(results, stem + ".spans.json"), "w", encoding="utf-8") as fh:
            json.dump(runner.tracer.dump(), fh)
    print_report(result)
    names = PER_LAYER_COMMON if args.trace else E2E_COMMON
    print(json.dumps(result_line(result, names), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
