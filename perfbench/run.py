"""braidkit benchmark: closed-loop workloads with one client and checked
answers.

    python3 perfbench/run.py --workload kernel-ab --seed 1 --seconds 35 --trace 0

Run from the root of a braidkit checkout.  One round runs every query class
of the workload in a seeded order; rounds repeat until --seconds have passed.
With --trace 0 the last line of output is a JSON object with the end-to-end
metrics: the median time to answer of each query class (corrected for machine
drift, see REF_LOOP_S), set-up time and peak memory.  With --trace 1 it holds
the per-layer metrics of a traced run instead (see perfbench/README.md).  The line before it is a JSON report with
tail percentiles, sample counts, input properties, the drift probe and the
environment.  `--workload all` runs every workload in turn and prints every
metric by name.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("verify-cli", "kernel-ab", "word-problems")

# end-to-end metrics, all in seconds except peak_rss_mb (MB)
E2E_NAMES = ("setup_s", "peak_rss_mb", "import_s", "verify_full_s",
             "verify_filtered_s", "cli_query_s", "kernel_ab_s",
             "kernel_raw_ab_s", "g2g3_s", "coinvariants_s", "braid_eq_s",
             "hom_braid_s", "subgroup_s")

# (name, unit, better)
LAYER_UNITS = (
    ("cli.import_s", "s", "lower"), ("cli.import_sympy_s", "s", "lower"),
    ("verify.run_s", "s", "lower"), ("verify.run_filtered_s", "s", "lower"),
    ("verify.checks_built", "count", "lower"),
    ("verify.checks_selected", "count", "higher"),
    ("presentations.build_s", "s", "lower"),
    ("presentations.instantiate_s", "s", "lower"),
    ("presentations.relators", "count", "lower"),
    ("reidschreier.rewrite_s", "s", "lower"),
    ("reidschreier.tietze_s", "s", "lower"),
    ("reidschreier.gens_eliminated", "count", "higher"),
    ("reidschreier.relators_out", "count", "lower"),
    ("intlin.snf_s", "s", "lower"), ("intlin.snf_calls", "count", "lower"),
    ("intlin.matrix_cells", "count", "lower"),
    ("intlin.density", "frac", "higher"), ("intlin.unit_frac", "frac", "higher"),
    ("series.coinvariants_s", "s", "lower"), ("series.g2g3_s", "s", "lower"),
    ("series.window_K", "count", "higher"),
    ("words.free_reduce_calls", "count", "lower"),
    ("words.substitute_calls", "count", "lower"),
    ("words.self_s", "s", "lower"),
    ("garside.nf_s", "s", "lower"), ("garside.nf_calls", "count", "lower"),
    ("garside.letters_in", "count", "lower"),
    ("garside.factors_out", "count", "lower"),
    ("models.mul_calls", "count", "lower"), ("models.mul_s", "s", "lower"),
    ("hom.relators_checked", "count", "higher"), ("hom.check_s", "s", "lower"),
    ("freesub.fold_s", "s", "lower"), ("freesub.graph_edges", "count", "lower"),
    ("freesub.contains_s", "s", "lower"),
    ("freesub.contains_letters", "count", "higher"),
    ("freesub.express_s", "s", "lower"),
    ("freesub.member_frac", "frac", "higher"),
    ("trace.overhead_frac", "frac", "lower"),
    ("calib.loop_s", "s", "lower"),
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs for the benchmark's own tests")
    ap.add_argument("--setup-only", action="store_true",
                    help="import braidkit, build the inputs and exit")
    return ap.parse_args(argv)


# Time of `calibrate` on the reference machine (2-core x86_64, Python
# 3.11).  Timings are reported in reference seconds: wall seconds times
# REF_LOOP_S over the loop time measured around that sample.
REF_LOOP_S = 0.0175


def calibrate() -> float:
    """A fixed pure-Python loop; its time tracks the machine's speed."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return time.perf_counter() - start


def tail(samples: list) -> dict:
    """Median plus the highest percentile that has at least ten samples
    beyond it (the maximum when there are fewer than 20 samples)."""
    xs = sorted(samples)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n}
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            out["tail_p"], out["tail"] = p, xs[min(n - 1, int(n * p / 100))]
            return out
    out["tail_p"], out["tail"] = 100, xs[-1]
    return out


def summarize(props: list) -> dict:
    """Mean of each numeric input property, first value of the others."""
    out = {}
    for key in props[0] if props else ():
        values = [p[key] for p in props if key in p]
        if all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in values):
            out[key] = sum(values) / len(values)
        elif all(isinstance(v, bool) for v in values):
            out[key + "_share"] = sum(values) / len(values)
        else:
            out[key] = values[0]
    return out


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "braidkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"seed": seed, "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "commit": commit,
            "src_sha256": digest.hexdigest()[:16]}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Run:
    """One closed-loop run of one workload."""

    def __init__(self, args, workloads, cli):
        self.args = args
        self.wl = workloads
        self.cli = cli
        self.samples: dict = {}
        self.props: dict = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.calib: list = []
        self.raw: dict = {}
        self.start = time.perf_counter()

    def time_up(self) -> bool:
        return time.perf_counter() - self.start >= self.args.seconds

    def rng(self, name: str) -> random.Random:
        return random.Random("%s:%d:%s" % (self.args.workload, self.args.seed,
                                           name))

    def attempt(self, name, query, rng, tracer=None, inp=None):
        """Make (unless given), solve under the clock, check.  Returns the
        input and the solve time."""
        self.attempted += 1
        if inp is None:
            inp = query.make(rng)
        if tracer is not None:
            tracer.request = "%s#%d" % (name, self.attempted)
            tracer.install()
        signal.setitimer(signal.ITIMER_REAL, self.wl.QUERY_TIMEOUT_S)
        start = time.perf_counter()
        try:
            out = query.solve(inp)
            elapsed = time.perf_counter() - start
        except Exception:
            elapsed = time.perf_counter() - start
            self._fail(name, traceback.format_exc(limit=3))
            return inp, elapsed
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if tracer is not None:
                tracer.uninstall()
        try:
            ok, props = query.check(inp, out)
        except Exception:
            self._fail(name, traceback.format_exc(limit=3))
            return inp, elapsed
        if not ok:
            self._fail(name, "wrong answer")
        self.props.setdefault(name, []).append(props)
        return inp, elapsed

    def _fail(self, name, why):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append({"query": name, "why": why})

    def rounds(self, queries):
        """Yield each round's (name, query, rng) list in a seeded order,
        until the time is up and every class has a sample."""
        order = self.rng("order")
        rngs = {name: self.rng(name) for name in queries}
        self.start = time.perf_counter()
        first = True
        while first or not self.time_up():
            plan = [name for name, (_q, reps) in queries.items()
                    for _ in range(reps)]
            order.shuffle(plan)
            yield [(name, queries[name][0], rngs[name]) for name in plan]
            first = False

    def measure(self, queries) -> dict:
        """Median per class of drift-corrected times: each sample is scaled
        by the calibration loop timed just before and just after it."""
        before = calibrate()
        self.calib.append(before)
        for plan in self.rounds(queries):
            for name, query, rng in plan:
                if self.time_up() and all(n in self.samples for n in queries):
                    break
                _inp, elapsed = self.attempt(name, query, rng)
                after = calibrate()
                self.calib.append(after)
                self.raw.setdefault(name, []).append(elapsed)
                self.samples.setdefault(name, []).append(
                    elapsed * REF_LOOP_S * 2 / (before + after))
                before = after
        return {name: statistics.median(xs) for name, xs in self.samples.items()}

    def measure_traced(self, queries, tracing) -> dict:
        """Per-layer run: in-process queries run untraced and then traced on
        the same input; the command line is replaced by an import-time probe
        and the verify suite in process."""
        tr = tracing.Tracer()
        inproc = {n: qr for n, qr in queries.items() if not qr[0].cli}
        inproc["verify.run_s"] = (self.wl.verify_in_process("all"), 1)
        inproc["verify.run_filtered_s"] = (
            self.wl.verify_in_process(self.wl.VERIFY_FILTER), 1)
        plain = traced = 0.0
        rounds = 0
        importtime = []
        for plan in self.rounds(inproc):
            self.calib.append(calibrate())
            for name, query, rng in plan:
                if name.startswith("verify."):
                    _inp, t = self.attempt(name, query, rng, tracer=tr)
                    self.samples.setdefault(name, []).append(t)
                    continue
                inp, t0 = self.attempt(name, query, rng)
                _inp, t1 = self.attempt(name, query, rng, tracer=tr, inp=inp)
                plain += t0
                traced += t1
            importtime.append(self.import_times())
            rounds += 1
        metrics = tracing.layer_metrics(tr, rounds)
        metrics["cli.import_s"] = statistics.median(t for t, _ in importtime)
        metrics["cli.import_sympy_s"] = statistics.median(
            s for _, s in importtime)
        for name in ("verify.run_s", "verify.run_filtered_s"):
            metrics[name] = statistics.median(self.samples[name])
        metrics["trace.overhead_frac"] = traced / plain - 1 if plain else 0.0
        metrics["calib.loop_s"] = statistics.median(self.calib)
        self.tracer, self.traced_rounds = tr, rounds
        return metrics

    def import_times(self):
        """Cumulative import time of braidkit.cli and of sympy, from
        `python -X importtime`."""
        self.attempted += 1
        proc = self.cli.run(["-c", "import braidkit.cli"], ("-X", "importtime"))
        cum = {}
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[1].isdigit():
                cum[parts[2]] = int(parts[1]) / 1e6
        if proc.returncode != 0 or "braidkit.cli" not in cum:
            self._fail("cli.import", proc.stderr[-500:])
        return cum.get("braidkit.cli", 0.0), cum.get("sympy", 0.0)


def _time_out(_signum, _frame):
    raise TimeoutError("query still running after its time limit")


def setup_query(args, workloads):
    """A fresh interpreter that imports braidkit and builds the workload's
    inputs.  It runs once per round, so that set-up is measured several
    times, spread over the run like every other class."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]

    def solve(_):
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=workloads.QUERY_TIMEOUT_S)

    def check(_, proc):
        return proc.returncode == 0, {}
    return workloads.Query(workloads.no_input, solve, check, cli=True)


def workdir(args) -> str:
    path = os.path.join(ROOT, ".bench_out", "%s-s%d-t%d" % (
        args.workload, args.seed, args.trace))
    if not args.setup_only:
        shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path, exist_ok=True)
    return path


def run_all(args) -> int:
    """Run every workload in its own process and print every metric."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        for key in ("attempted", "failed"):
            merged[key] += result[key]
        merged["correct"] &= result["correct"]
        for metric, value in result["metrics"].items():
            merged["metrics"]["%s/%s" % (name, metric)] = value
            print("%-14s %-30s %14.6g %s" % (name, metric, value["value"],
                                             value["unit"]))
        print("%-14s %-30s %14.6g %s" % (
            name, "failed_frac", result["failed"] / result["attempted"],
            "frac"))
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "braidkit", "__init__.py")):
        sys.stderr.write("perfbench: no braidkit sources under %s; run from "
                         "the root of a braidkit checkout\n" % SRC)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    import braidkit.cli  # noqa: F401  (start-up cost users pay)
    import tracing
    import workloads

    cli = workloads.Cli(ROOT, workdir(args))
    if args.setup_only:
        workloads.prepare(args.workload, args.seed, args.size, cli)
        return 0
    queries = workloads.prepare(args.workload, args.seed, args.size, cli)
    queries["setup_s"] = (setup_query(args, workloads), 1)
    signal.signal(signal.SIGALRM, _time_out)
    run = Run(args, workloads, cli)
    if args.trace:
        values = run.measure_traced(queries, tracing)
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u, _b in LAYER_UNITS}
    else:
        values = run.measure(queries)
        values["peak_rss_mb"] = peak_rss_mb()
        metrics = {k: {"value": values[k],
                       "unit": "MB" if k == "peak_rss_mb" else "s"}
                   for k in E2E_NAMES}
    report = {
        "workload": args.workload, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "env": environment(args.seed),
        "peak_rss_mb": peak_rss_mb(),
        "failed_frac": run.failed / max(run.attempted, 1),
        "samples": {k: tail(v) for k, v in run.samples.items()},
        "raw_samples": {k: tail(v) for k, v in run.raw.items()},
        "inputs": {k: summarize(v) for k, v in run.props.items()},
        "calib_s": {"median": statistics.median(run.calib),
                    "min": min(run.calib), "max": max(run.calib),
                    "n": len(run.calib)},
        "failures": run.failures,
    }
    with open(os.path.join(cli.workdir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    if args.trace:
        write_spans(run.tracer, run.traced_rounds, cli.workdir)
    print(json.dumps(report))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def write_spans(tr, rounds: int, path: str):
    """Spans as JSON lines [name, start, end, parent, request], and the
    per-function totals and counters they were summed into."""
    with open(os.path.join(path, "spans.jsonl"), "w") as fh:
        for span in tr.spans:
            if span is not None:
                name, start, end, parent, request = span
                fh.write(json.dumps([name, start, end, parent, request]) + "\n")
    with open(os.path.join(path, "layer_totals.json"), "w") as fh:
        json.dump({"stats": {k: dict(zip(("calls", "inclusive_s", "self_s"), v))
                             for k, v in tr.stats.items()},
                   "counts": dict(tr.counts), "dropped_spans": tr.dropped,
                   "rounds": rounds}, fh, indent=1)


if __name__ == "__main__":
    sys.exit(main())
