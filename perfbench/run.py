"""Benchmark of the partmorse CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  Every sample is a fresh Python process
(perfbench/child.py), so the module-level caches of partmorse start cold;
samples run one at a time with PYTHONHASHSEED fixed.  A run repeats
samples of one workload while the next one still fits in --seconds and
reports medians.  A reference loop (perfbench/reference.py) runs in its own
process before and after every sample; each sample's time is divided by
the mean of the two, which takes out most of the host's drift in speed.
With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 the run alternates untraced and traced samples and
reports the per-layer metrics instead.  --all interleaves every workload
round-robin and prints a table; --self-test shows that a wrong expected
table makes the output checks fail.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

END_TO_END_UNITS = {"wall_rel": "ref", "cpu_rel": "ref", "peak_rss_mb": "MB", "setup_s": "s"}
# the raw times are printed beside the end-to-end metrics, not gated: on a
# shared host they drift by 20-30% from one minute to the next
PRINTED_UNITS = {"wall_s": "s", "cpu_s": "s", **END_TO_END_UNITS}
TRACE_UNITS = {"trace.overhead_s": "s", "trace.span_coverage": "ratio"}
# set-up (imports) is short and its time swings with the host's CPU speed
# from one ten-second stretch to the next, so each run takes the median of
# several fresh processes spread between the samples
SETUP_PROBES = 8
PROBES_PER_SAMPLE = 2
# a sample of verify-n6 or quotient-n7 takes 6-14 s, half a run or more;
# two samples give them a median that is not a single draw
MIN_SAMPLES = 2
# a run must end within 180 s; leave room for the set-up probes
DEADLINE_S = 165.0
# layers whose spans must be absent, by workload
BYPASSES = {
    "report-n6": ("homology.",),
    "homology-n6": ("morse.", "construction."),
    "quotient-n7": ("morse.", "construction."),
}


class ProgramMissing(RuntimeError):
    pass


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.self_s": "s" for name in spans.SPAN_TARGETS}
    for name in (*spans.SIZE_COUNTERS, *spans.COUNTER_TARGETS, *spans.CALL_COUNTS):
        units[name] = "count"
    return {**units, **TRACE_UNITS}


def check_count(workload: str, seed: int) -> int:
    invs = workloads.generate(workload, seed, workloads.load_expected())
    return sum(len(checks.check_names(inv)) for inv in invs)


def git_commit() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, env=env, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


class Runner:
    """Starts child processes one at a time, within an optional deadline."""

    def __init__(self, deadline_s: float | None):
        self.t0 = time.perf_counter()
        self.deadline_s = deadline_s
        # one BLAS thread: starting OpenBLAS's pool wakes the other vCPU and
        # doubles import time whenever the host is slow to schedule it
        self.env = {**os.environ, "PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

    def remaining(self) -> float | None:
        if self.deadline_s is None:
            return None
        return self.deadline_s - (time.perf_counter() - self.t0)

    def child(self, workload: str, seed: int, *extra: str) -> dict | None:
        """The child's JSON result, or None when it crashed or ran out of time."""
        timeout = self.remaining()
        if timeout is not None and timeout <= 0:
            return None
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed), *extra]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"# {workload}: sample stopped at the {self.deadline_s:.0f} s deadline", file=sys.stderr)
            return None
        if proc.returncode == 3:
            raise ProgramMissing(proc.stderr.strip())
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"# {workload}: child exited with {proc.returncode}", file=sys.stderr)
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def sample(self, workload: str, seed: int, trace_out: Path | None = None) -> dict:
        extra = ("--trace-out", str(trace_out)) if trace_out else ()
        res = self.child(workload, seed, *extra)
        if res is None:  # a crash fails every check of the sample
            n = check_count(workload, seed)
            return {"attempted": n, "failed": n}
        return res

    def setup(self, workload: str, seed: int) -> float | None:
        res = self.child(workload, seed, "--setup-only")
        return None if res is None else res["setup_s"]

    def reference(self) -> dict | None:
        """Wall and CPU time of the reference loop, or None past the deadline."""
        timeout = self.remaining()
        if timeout is not None and timeout <= 0:
            return None
        cmd = [sys.executable, str(HERE / "reference.py")]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None
        if proc.returncode != 0:
            raise RuntimeError(f"reference loop failed: {proc.stderr.strip()}")
        return json.loads(proc.stdout)


def relate(sample: dict, before: dict | None, after: dict | None):
    """Add the sample's times divided by the reference times around it."""
    if "wall_s" not in sample or before is None or after is None:
        return
    for m in ("wall", "cpu"):
        ref = (before[f"{m}_s"] + after[f"{m}_s"]) / 2
        sample[f"{m}_rel"] = sample[f"{m}_s"] / ref


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"tail n/a (needs 11 samples, has {n})"
    ordered = sorted(values)
    return f"p{100 * (n - 10) / n:.0f} {ordered[n - 11]:.4f}"


def summarize(workload: str, samples: list[dict], setups: list[float]) -> dict:
    timed = [s for s in samples if "wall_rel" in s]
    if not timed:
        raise RuntimeError(f"{workload}: no sample completed")
    values = {m: [s[m] for s in timed] for m in ("wall_s", "cpu_s", "wall_rel", "cpu_rel", "peak_rss_mb")}
    values["setup_s"] = [s["setup_s"] for s in timed] + setups
    return {
        "values": values,
        "metrics": {m: statistics.median(v) for m, v in values.items()},
        "attempted": sum(s["attempted"] for s in samples),
        "failed": sum(s["failed"] for s in samples),
        "versions": timed[0].get("versions", {}),
        "failures": sorted(
            {f"{inv['argv']}: {name}" for s in timed for inv in s["invocations"] for name, ok in inv["checks"] if not ok}
        ),
    }


def print_end_to_end(workload: str, summary: dict):
    for m, unit in PRINTED_UNITS.items():
        v = summary["values"][m]
        print(
            f"{workload:12s} {m:12s} median {statistics.median(v):10.4f} {unit:3s} min {min(v):10.4f}"
            f"  {tail_percentile(v)}  n={len(v)}"
        )
    a, f = summary["attempted"], summary["failed"]
    print(f"{workload:12s} fail_ratio   {f / a:.4f} ({f} of {a} output checks failed)")
    for line in summary["failures"][:20]:
        print(f"{workload:12s} FAILED {line}")


def measure(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    runner.setup(workload, seed)  # untimed: writes bytecode, warms the file cache
    samples = []
    start = time.perf_counter()
    setups = []
    before = runner.reference()
    while True:
        t = time.perf_counter()
        samples.append(runner.sample(workload, seed))
        after = runner.reference()
        relate(samples[-1], before, after)
        before = after
        setups += [runner.setup(workload, seed) for _ in range(PROBES_PER_SAMPLE)]
        if runner.remaining() is not None and runner.remaining() <= 0:
            break
        # start another sample only if it should end within --seconds
        now = time.perf_counter()
        if len(samples) >= MIN_SAMPLES and now - start + (now - t) > seconds:
            break
    setups += [runner.setup(workload, seed) for _ in range(SETUP_PROBES - len(setups))]
    return summarize(workload, samples, [s for s in setups if s is not None])


def trace_metrics(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced samples; per-layer medians."""
    OUT.mkdir(exist_ok=True)
    runner.setup(workload, seed)
    plain, traced, docs = [], [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        plain.append(runner.sample(workload, seed))
        path = OUT / f"trace-{workload}-seed{seed}-{len(docs)}.json"
        traced.append(runner.sample(workload, seed, path))
        if "wall_s" not in traced[-1]:
            break
        with open(path) as fh:
            docs.append(json.load(fh))
        # start another pair only if it should end within --seconds
        now = time.perf_counter()
        if now - start + (now - t) > seconds:
            break
    plain_t = [s["wall_s"] for s in plain if "wall_s" in s]
    if not docs or not plain_t:
        raise RuntimeError(f"{workload}: no traced sample completed")
    metrics = {}
    for name in spans.SPAN_TARGETS:
        metrics[f"{name}.self_s"] = statistics.median(d["self_s"][name] for d in docs)
    for name in (*spans.SIZE_COUNTERS, *spans.COUNTER_TARGETS, *spans.CALL_COUNTS):
        metrics[name] = statistics.median(d["counters"][name] for d in docs)
    metrics["trace.overhead_s"] = statistics.median(d["wall_s"] for d in docs) - statistics.median(plain_t)
    metrics["trace.span_coverage"] = statistics.median(d["root_span_s"] / d["wall_s"] for d in docs)
    samples = plain + traced
    return {
        "metrics": metrics,
        "calls": docs[0]["calls"],
        "attempted": sum(s["attempted"] for s in samples),
        "failed": sum(s["failed"] for s in samples),
        "versions": next((s["versions"] for s in samples if "versions" in s), {}),
    }


def print_per_layer(workload: str, result: dict):
    units = per_layer_units()
    for name, value in result["metrics"].items():
        print(f"{workload:12s} {name:45s} {value:14.4f} {units[name]}")
    for prefix in BYPASSES.get(workload, ()):
        n = sum(c for name, c in result["calls"].items() if name.startswith(prefix))
        verdict = "ok" if n == 0 else "VIOLATED"
        print(f"{workload:12s} bypass: no {prefix}* spans: {verdict} ({n} calls)")


def print_env(seed: int, versions: dict):
    print(
        f"# seed {seed}  python {versions.get('python', '?')}  numpy {versions.get('numpy', '?')}"
        f"  nproc {os.cpu_count()}  commit {git_commit()}  PYTHONHASHSEED=0 OPENBLAS_NUM_THREADS=1"
    )


def result_line(attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
        }
    )


def run_one(args) -> int:
    runner = Runner(DEADLINE_S)
    if args.trace:
        res = trace_metrics(runner, args.workload, args.seed, args.seconds)
        print_env(args.seed, res["versions"])
        print_per_layer(args.workload, res)
        print(result_line(res["attempted"], res["failed"], res["metrics"], per_layer_units()))
        return 0
    summary = measure(runner, args.workload, args.seed, args.seconds)
    print_env(args.seed, summary["versions"])
    print_end_to_end(args.workload, summary)
    print(result_line(summary["attempted"], summary["failed"], summary["metrics"], END_TO_END_UNITS))
    return 0


def run_all(args) -> int:
    """Every workload, samples interleaved round-robin, --seconds each."""
    runner = Runner(None)
    names = list(workloads.SPECS)
    for w in names:
        runner.setup(w, args.seed)
    samples = {w: [] for w in names}
    setups = {w: [] for w in names}
    spent = dict.fromkeys(names, 0.0)
    before = runner.reference()
    while any(spent[w] < args.seconds or not samples[w] for w in names):
        for w in names:
            if spent[w] >= args.seconds and samples[w]:
                continue
            t = time.perf_counter()
            samples[w].append(runner.sample(w, args.seed))
            spent[w] += time.perf_counter() - t
            after = runner.reference()
            relate(samples[w][-1], before, after)
            before = after
            s = runner.setup(w, args.seed)
            if s is not None:
                setups[w].append(s)
    summaries = {w: summarize(w, samples[w], setups[w]) for w in names}
    print_env(args.seed, summaries[names[0]]["versions"])
    for w in names:
        print_end_to_end(w, summaries[w])
    report = {
        "seed": args.seed,
        "versions": summaries[names[0]]["versions"],
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "end_to_end": {w: {k: summaries[w][k] for k in ("values", "metrics", "attempted", "failed")} for w in names},
    }
    if args.trace:
        report["per_layer"] = {}
        for w in names:
            res = trace_metrics(runner, w, args.seed, 0)
            print_per_layer(w, res)
            report["per_layer"][w] = res
    OUT.mkdir(exist_ok=True)
    path = OUT / f"all-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"# wrote {path.relative_to(ROOT)}")
    failed = sum(s["failed"] for s in summaries.values())
    return 0 if failed == 0 else 1


def self_test(args) -> int:
    """The checks must fail on a wrong expected table and on a crashed call."""
    results = []
    for w in workloads.SPECS:
        for inv in workloads.generate(w, args.seed, workloads.load_expected()):
            names = checks.check_names(inv)
            crashed = checks.check(inv, 1, "")
            garbled = checks.check(inv, 0, "not the expected output")
            results.append((f"{w} {inv.label()}: exit 1 fails all {len(names)} checks", all(not ok for _, ok in crashed)))
            results.append((f"{w} {inv.label()}: garbled output fails", all(not ok for _, ok in garbled)))

    runner = Runner(None)
    good = runner.sample("homology-n6", args.seed)
    results.append((f"homology-n6 with the recorded tables: fail_ratio 0 ({good['failed']}/{good['attempted']})", good["failed"] == 0))
    wrong = workloads.load_expected()
    wrong["homology"]["n=6 (1 2)"]["table"][3]["betti"] += 1
    OUT.mkdir(exist_ok=True)
    path = OUT / "expected-wrong.json"
    with open(path, "w") as fh:
        json.dump(wrong, fh)
    bad = runner.child("homology-n6", args.seed, "--expected", str(path))
    ratio = bad["failed"] / bad["attempted"] if bad else 0.0
    results.append((f"homology-n6 with a wrong table: fail_ratio {ratio:.4f} > 0", ratio > 0))

    for name, ok in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    failed = sum(1 for _, ok in results if not ok)
    print(f"self-test: {len(results) - failed} of {len(results)} passed")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--workload", choices=sorted(workloads.SPECS))
    mode.add_argument("--all", action="store_true", help="every workload, round-robin")
    mode.add_argument("--self-test", action="store_true", help="show that the output checks can fail")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "partmorse" / "__init__.py").is_file():
        print(f"error: no partmorse sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test(args)
        if args.all:
            return run_all(args)
        if args.workload is None:
            ap.error("choose --workload, --all or --self-test")
        return run_one(args)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
