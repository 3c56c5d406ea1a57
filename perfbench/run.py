"""airelm benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload sweep_nr_wbcd --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from its
`src` directory.  The benchmark is one closed-loop client: it writes the
workload's inputs from --seed, then starts one repetition at a time, each a
fresh `python3 child.py` process running one `airelm.cli.main` call, until
the next repetition would end past --seconds.  Every repetition's CSV is
checked (exit code, row count, finite accuracies, accuracy floors, and
identical bytes across repetitions).

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced repetitions and reports per-layer metrics from the traced ones, plus
the tracing overhead.  The last line of stdout is one JSON object; a
readable table precedes it, and the full record (environment, quartiles,
every sample) goes to perfbench/_work/results/.  Exit code 0 when every
repetition passes, 1 when one fails a check, 2 when the benchmark cannot
run the program at all.  See README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SRC = CHECKOUT / "src"
WORK = BENCH_DIR / "_work"

MIN_REPS = 3                # per kind (untraced, traced) of repetition
DEADLINE_S = 170.0          # the whole run, including set-up, ends before this

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "mean_accuracy": "frac"}

# Each reported per-layer time sums the self time of these span layers (see
# spans.py).  Every group is exercised by all three workloads, so no
# reported time is a constant 0; the finer split goes to the results record.
LAYER_TIMES = {
    "numkernel.svd": ("numkernel.svd",),
    "numkernel.lstsq": ("numkernel.lstsq",),
    "elm.hidden_matrix": ("elm.hidden_matrix",),
    "elm.train": ("elm.train",),
    "elm": ("elm.fit", "elm.predict", "elm.online_update", "elm.digital_hidden"),
    "activation": ("activation.rapp", "activation.sigmoid"),
    "data.source": ("data.load", "data.synth"),
    "data.prep": ("data.prep",),
    "rng.split": ("rng.split",),
    "channel.draw": ("channel.sample", "channel.evolve"),
    "channel.sigma2": ("channel.sigma2",),
    "experiments": (spans.ROOT,),
    "experiments.emit": ("experiments.emit",),
    "config.parse": ("config.parse",),
}
LAYER_COUNTS = (
    "numkernel.svd.calls", "numkernel.svd.mnk",
    "elm.hidden_matrix.calls", "elm.hidden_matrix.rows", "elm.predict.calls",
    "elm.online_update.calls", "activation.sigmoid.calls", "data.prep.calls",
    "rng.split.calls", "channel.sigma2.calls", "channel.evolve.calls",
)
LAYER_METRICS = (*(f"{group}.self_ms" for group in LAYER_TIMES), *LAYER_COUNTS)
TRACE_OVERHEAD = "trace.overhead_ms"
UNITS = {"self_ms": "ms", "calls": "count", "rows": "count", "mnk": "mnk"}


class Unrunnable(Exception):
    """The program cannot be started from this checkout at all."""


def environment() -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass                # numpy before 1.26 only prints its config
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "blas": blas.get("name"), "blas_version": blas.get("version"),
           "nproc": len(os.sched_getaffinity(0))}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if var in os.environ:
            env[var] = os.environ[var]
    return env


def _steal_ticks() -> int:
    """Time the hypervisor has stolen from all CPUs so far, in clock ticks.

    This is the `steal` column of /proc/stat; 0 where it is not reported.
    """
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0
    return int(fields[8]) if len(fields) > 8 else 0


@dataclass
class Child:
    code: int
    rss_mb: float
    stolen: float       # share of all CPU time stolen while the child ran


def run_child(args, stderr_path, timeout) -> Child:
    """Run child.py to completion.

    The parent blocks on a pidfd instead of polling, so it takes no CPU from
    the child, and reaps the child with wait4, whose resource usage covers
    exactly this child and anything it started and waited for.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    steal0, t0 = _steal_ticks(), time.monotonic()
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), *args],
            stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=CHECKOUT)
    pidfd = os.pidfd_open(proc.pid)
    try:
        if not select.select([pidfd], [], [], max(timeout, 0.0))[0]:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(pidfd)
    wall = time.monotonic() - t0
    stolen = ((_steal_ticks() - steal0) / os.sysconf("SC_CLK_TCK")
              / (wall * os.cpu_count()))
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, usage.ru_maxrss / 1024.0, stolen)


def _stderr_tail(path, lines=5) -> str:
    try:
        text = Path(path).read_text(errors="replace")
    except OSError:
        return ""
    return "\n".join(text.splitlines()[-lines:])


@dataclass
class Repetition:
    traced: bool
    problems: list = field(default_factory=list)
    csv: bytes = None
    result: dict = field(default_factory=dict)
    rss_mb: float = None
    stolen: float = 0.0


def repetition(wl, ini, work, traced, timeout) -> Repetition:
    rep = Repetition(traced=traced)
    out, result, stderr = work / "out.csv", work / "child.json", work / "child.err"
    for path in (out, result):
        path.unlink(missing_ok=True)
    args = ["--ini", str(ini), "--subcommand", wl.subcommand,
            "--out", str(out), "--result", str(result)]
    child = run_child(args + (["--trace"] if traced else []), stderr, timeout)
    rep.rss_mb, rep.stolen = child.rss_mb, child.stolen
    if child.code != 0:
        rep.problems.append(f"exit code {child.code}: {_stderr_tail(stderr)}")
        return rep
    rep.result = json.loads(result.read_text())
    if rep.result["code"] != 0:
        rep.problems.append(f"airelm exit code {rep.result['code']}: "
                            f"{_stderr_tail(stderr)}")
        return rep
    rep.csv = out.read_bytes()
    if traced:
        rep.result["layers"] = spans.layer_totals(rep.result.pop("spans"),
                                                  rep.result["root_thread"])
    return rep


def work_counts(rep):
    """Everything a traced repetition counted, without the times."""
    return {layer: {k: v for k, v in totals.items() if k != "self_ns"}
            for layer, totals in rep.result["layers"].items()}


def setup_only(wl, ini, work, timeout) -> float:
    result, stderr = work / "setup.json", work / "setup.err"
    result.unlink(missing_ok=True)
    child = run_child(["--ini", str(ini), "--subcommand", wl.subcommand,
                       "--result", str(result), "--setup-only"],
                      stderr, timeout)
    if child.code != 0:
        raise Unrunnable(f"set-up failed with exit code {child.code}: "
                         f"{_stderr_tail(stderr)}")
    data = json.loads(result.read_text())
    if not Path(data["airelm"]).is_relative_to(SRC):
        raise Unrunnable(f"imported airelm from {data['airelm']}, not from {SRC}")
    return data["setup_s"]


def summary(values) -> dict:
    values = list(values)
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    q1, q3 = (statistics.quantiles(values, n=4)[::2] if len(values) > 1
              else (values[0], values[0]))
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def layer_value(rep, metric) -> float:
    name, _, field = metric.rpartition(".")
    layers = rep.result["layers"]
    if field == "self_ms":
        return sum(layers.get(layer, {}).get("self_ns", 0)
                   for layer in LAYER_TIMES[name]) / 1e6
    return layers.get(name, {}).get(field, 0)


def measure(wl, seed, seconds, trace) -> dict:
    started = time.monotonic()
    if not (SRC / "airelm" / "__init__.py").is_file():
        raise Unrunnable(f"no airelm package under {SRC}")
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ini = workloads.write_inputs(wl, seed, work)

    def remaining():
        return DEADLINE_S - (time.monotonic() - started)

    # The first child compiles bytecode and fills the file cache; users pay
    # that once, not per run, so it is not measured.
    setup_only(wl, ini, work, remaining())

    # Each repetition is followed by a set-up-only child, so that set-up
    # samples, like run samples, spread over the whole run and so over
    # whatever load the host goes through meanwhile.
    reps, walls, setups = [], [], []
    loop_start = time.monotonic()
    while True:
        kinds = [r.traced for r in reps]
        enough = all(kinds.count(k) >= MIN_REPS
                     for k in ((False, True) if trace else (False,)))
        typical = statistics.median(walls) if walls else 0.0
        if enough and time.monotonic() - loop_start + typical > seconds:
            break
        if remaining() < 2 * typical:
            break
        t0 = time.monotonic()
        reps.append(repetition(wl, ini, work, trace and len(reps) % 2 == 1,
                               remaining()))
        setups.append(setup_only(wl, ini, work, remaining()))
        walls.append(time.monotonic() - t0)

    # The determinism contract: every repetition writes the same bytes.  The
    # reference is the CSV that more than half of them wrote; without one,
    # every repetition fails.
    written = [r.csv for r in reps if r.csv is not None]
    reference, copies = (collections.Counter(written).most_common(1)[0]
                         if written else (None, 0))
    agreed = 2 * copies > len(written)
    counted = [work_counts(r) for r in reps if "layers" in r.result]
    for r in reps:
        if r.csv is not None:
            r.problems += workloads.check_csv(wl, r.csv, reference)
            if not agreed:
                r.problems.append("no CSV is shared by most repetitions")
        if "layers" in r.result and work_counts(r) != counted[0]:
            r.problems.append("traced call counts differ from the other repetitions")

    good = [r for r in reps if not r.problems]
    plain = [r for r in good if not r.traced]
    traced = [r for r in good if r.traced]
    setups += [r.result["setup_s"] for r in reps if "setup_s" in r.result]
    stats = {
        "run_s": summary(r.result["run_s"] for r in plain),
        "setup_s": summary(setups),
        "peak_rss_mb": summary(r.rss_mb for r in plain),
        "mean_accuracy": summary(
            [workloads.mean_mimo_accuracy(r.csv) for r in good[:1]]),
    }
    if trace:
        for metric in LAYER_METRICS:
            stats[metric] = summary(layer_value(r, metric) for r in traced)
        for layer in sorted({k for r in traced for k in r.result["layers"]}):
            stats[f"span {layer}.self_ms"] = summary(
                r.result["layers"].get(layer, {}).get("self_ns", 0) / 1e6
                for r in traced)
        stats[TRACE_OVERHEAD] = summary(
            [(statistics.median(r.result["run_s"] for r in traced)
              - statistics.median(r.result["run_s"] for r in plain)) * 1e3]
            if traced and plain else [])
    return {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "attempted": len(reps), "failed": len(reps) - len(good),
        "failures": [p for r in reps for p in r.problems],
        "stats": stats,
        "samples": {"run_s": [r.result.get("run_s") for r in reps],
                    "traced": [r.traced for r in reps],
                    "stolen": [r.stolen for r in reps],
                    "peak_rss_mb": [r.rss_mb for r in reps],
                    "setup_s": setups},
        "elapsed_s": time.monotonic() - started,
    }


def unit(metric) -> str:
    return END_TO_END.get(metric) or UNITS.get(metric.rpartition(".")[2], "ms")


def report(record) -> dict:
    """Print the readable table; return the one-line JSON result."""
    stats = record["stats"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {int(record['trace'])}  repetitions {record['attempted']}  "
          f"failed {record['failed']}")
    stolen = record["samples"]["stolen"]
    print(f"hypervisor steal while repetitions ran: median "
          f"{statistics.median(stolen):.1%} of CPU time, max {max(stolen):.1%}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for problem in record["failures"]:
        print(f"FAILED: {problem}")
    print(f"  {'metric':<34}{'median':>14}{'q1':>14}{'q3':>14}{'n':>5}  unit")
    for name, s in stats.items():
        print(f"  {name:<34}{s['median']:>14.6g}{s['q1']:>14.6g}"
              f"{s['q3']:>14.6g}{s['n']:>5}  {unit(name)}")
    print(f"  {'failed_frac':<34}{record['failed'] / record['attempted']:>14.6g}"
          f"{'':>33}  frac")
    names = ((*LAYER_METRICS, TRACE_OVERHEAD) if record["trace"]
             else tuple(END_TO_END))
    return {"correct": record["failed"] == 0,
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": {n: {"value": stats[n]["median"], "unit": unit(n)}
                        for n in names}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        record = measure(workloads.WORKLOADS[args.workload], args.seed,
                         args.seconds, bool(args.trace))
    except Unrunnable as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    line = report(record)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
