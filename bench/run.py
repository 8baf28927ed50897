"""The wittsums benchmark: one command, four workloads.

    python3 bench/run.py --workload lfun-p1 --seed 1 --seconds 12 --trace 0

Run it from the root of a source checkout; it needs no install, only
`src/wittsums` and the Python it runs under.  The last line of standard
output is one JSON object with "correct", "attempted", "failed" and
"metrics".  With --trace 0 the metrics are the end-to-end ones (setup_s,
cold_s, warm_s, peak_rss_mb); with --trace 1 they are
the per-layer ones from a traced run plus the tracing overhead.  See
bench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "runs")

sys.path.insert(0, HERE)

import checks  # noqa: E402
import jobs  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("lfun-p1", "genus1", "sweep-kumar", "cli-oneshot")
WORKERS = 3           # fresh workers per untraced library run
SETUP_PROBES = 2      # extra import-time samples beside the workers' own
CLI_SETUP_SAMPLES = 3
WARM_POOL = 20        # warm lists generated per worker, more than any uses
CLI_POOL = 8          # cli-oneshot scripts generated per run, likewise
CHILD_TIMEOUT = 170   # seconds; a run must end within 180

# Every child gets the same hash seed (sympy's term order, and so the cost of
# building universal Witt polynomials, depends on it: 5.9-6.5 s at seed 0
# against 6.5-6.9 s at seed 1 for (p, l) = (3, 4)) and single-threaded BLAS
# (two cores, and the benchmark is one process at a time).
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=SRC,
    PYTHONHASHSEED="0",
    OPENBLAS_NUM_THREADS="1",
    OMP_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
    NUMEXPR_NUM_THREADS="1",
)

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import wittsums; "
    "print(time.perf_counter() - t)"
)


def _run(cmd, **kw):
    """subprocess.run with the pinned environment and a hard timeout (the
    child is killed and reaped if it overruns)."""
    return subprocess.run(cmd, env=CHILD_ENV, cwd=ROOT, timeout=CHILD_TIMEOUT, **kw)


def _peak_rss_mb() -> float:
    """Largest resident set of any child waited for so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


# -- library workloads ----------------------------------------------------------------


def make_lists(workload: str, seed: int, workers: int, n_warm: int) -> list:
    """(cold list, warm lists) for each worker, all drawn from the seed
    before any timing starts."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "lfun-p1":
        cold, warm = jobs.lfun_list, jobs.lfun_list
    elif workload == "genus1":
        cold, warm = jobs.genus_list, jobs.genus_list
    else:
        def cold(r):
            return jobs.kumar_list(r, jobs.KUMAR_COLD_FAMILY)

        def warm(r):
            return jobs.kumar_list(r, jobs.KUMAR_WARM_FAMILY)
    return [(cold(rng), [warm(rng) for _ in range(n_warm)]) for _ in range(workers)]


def import_probe() -> float:
    out = _run([sys.executable, "-c", IMPORT_PROBE], check=True,
               capture_output=True, text=True)
    return float(out.stdout)


def warm_bytecode():
    """One untimed import writes the bytecode cache, as an install would."""
    _run([sys.executable, "-c", "import wittsums.cli"], check=True,
         stdout=subprocess.DEVNULL)


def run_worker(plan: dict) -> dict:
    out = _run([sys.executable, os.path.join(HERE, "worker.py")],
               input=json.dumps(plan), capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise RuntimeError(f"worker exited with {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def import_times() -> tuple:
    """(wittsums, sympy) cumulative import times from -X importtime."""
    out = _run([sys.executable, "-X", "importtime", "-c", "import wittsums"],
               check=True, capture_output=True, text=True)
    cum = {}
    for line in out.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cum[parts[2].strip()] = int(parts[1]) / 1e6
    return cum["wittsums"], cum.get("sympy", 0.0)


def _report_wrong(res):
    for reason in res["wrong"]:
        print(f"wrong output: {reason}", file=sys.stderr)


def library_run(workload, seed, seconds):
    """WORKERS fresh workers, one after another.  Each imports wittsums (a
    setup sample), runs its own cold list (a cold sample) and then warm
    lists for its share of `seconds`.  Each metric is the median of its
    samples, so one slow moment of a shared host moves it little."""
    plans = make_lists(workload, seed, WORKERS, WARM_POOL)
    warm_bytecode()
    setup, cold, warm = [import_probe() for _ in range(SETUP_PROBES)], [], []
    attempted = failed = wrong = 0
    for cold_list, warm_lists in plans:
        res = run_worker({"trace": False, "cold": cold_list, "warm": warm_lists,
                          "seconds": seconds / WORKERS})
        _report_wrong(res)
        setup.append(res["import_s"])
        cold.append(res["cold_s"])
        warm += res["warm_s"]
        attempted += res["attempted"]
        failed += res["failed"]
        wrong += res["wrong_count"]
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "cold_s": _metric(statistics.median(cold), "s"),
        "warm_s": _metric(statistics.median(warm), "s"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
    }
    return wrong == 0, attempted, failed, metrics


def library_trace(workload, seed):
    """The cold list and one warm list, untraced and then traced, in two
    fresh workers; the work is fixed so counts repeat exactly."""
    [(cold, warm)] = make_lists(workload, seed, 1, 1)
    plan = {"cold": cold, "warm": warm, "seconds": 0}
    plain = run_worker(dict(plan, trace=False))
    spans = os.path.join(RUNS, f"spans-{workload}-seed{seed}.json")
    traced = run_worker(dict(plan, trace=True, spans=spans))
    for res in (plain, traced):
        _report_wrong(res)
    overhead = (traced["cold_s"] + sum(traced["warm_s"])) - (
        plain["cold_s"] + sum(plain["warm_s"]))
    correct = plain["wrong_count"] == 0 and traced["wrong_count"] == 0
    return (correct, plain["attempted"] + traced["attempted"],
            plain["failed"] + traced["failed"], traced["totals"], overhead)


# -- cli-oneshot -----------------------------------------------------------------------


def cli_pass(script, tag, traced=False):
    """Run every invocation once, each in a fresh process; returns (summed
    wall time, invocations that exited with another code than documented,
    wrong outputs, raw trace totals, bytes written)."""
    total, failed, wrong, totals, written = 0.0, 0, [], [], 0
    for k, spec in enumerate(script):
        out_path = os.path.join(RUNS, f"{tag}-{k}.json")
        if traced:
            tot_path = out_path + ".trace"
            cmd = [sys.executable, os.path.join(HERE, "cli_trace.py"), tot_path,
                   *spec["args"], "--out", out_path]
        else:
            cmd = [sys.executable, "-m", "wittsums.cli", *spec["args"], "--out", out_path]
        t0 = time.perf_counter()
        proc = _run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        total += time.perf_counter() - t0
        payload = None
        if os.path.exists(out_path):
            written += os.path.getsize(out_path)
            try:
                with open(out_path) as fh:
                    payload = json.load(fh)
            except ValueError:
                wrong.append(f"{spec['args'][:2]}: output is not JSON")
            os.remove(out_path)
        if traced and os.path.exists(tot_path):
            with open(tot_path) as fh:
                totals.append(json.load(fh))
            os.remove(tot_path)
        if proc.returncode != spec["rc"]:
            failed += 1
            print(f"failed: {spec['args'][:2]}: exit {proc.returncode}, expected "
                  f"{spec['rc']}: {proc.stderr.strip()[-200:]}", file=sys.stderr)
            continue
        reason = checks.check_cli(spec, payload)
        if reason:
            wrong.append(f"{spec['args'][:2]}: {reason}")
    return total, failed, wrong, totals, written


def cli_setup():
    """Median wall time of the cheapest invocation (CLI cold start)."""
    warm_bytecode()
    samples = []
    for _ in range(CLI_SETUP_SAMPLES):
        t0 = time.perf_counter()
        _run([sys.executable, "-m", "wittsums.cli", *jobs.CLI_SETUP_ARGS],
             check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def cli_scripts(seed: int, n: int) -> list:
    rng = random.Random(f"cli-oneshot:{seed}")
    return [jobs.cli_script(rng) for _ in range(n)]


def cli_run(seed, seconds):
    """The first pass is cold_s; further passes, each on new inputs, run
    until their summed time reaches `seconds` (at least one) and give warm_s.
    Every invocation is a fresh process, so the two differ only by what the
    operating system keeps warm."""
    scripts = cli_scripts(seed, CLI_POOL)
    setup_s = cli_setup()
    passes, failed, wrong = [], 0, []
    for script in scripts:
        if len(passes) > 1 and sum(passes[1:]) >= seconds:
            break
        total, nfail, bad, _, _ = cli_pass(script, f"cli-seed{seed}")
        passes.append(total)
        failed += nfail
        wrong += bad
    for reason in wrong:
        print(f"wrong output: {reason}", file=sys.stderr)
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "cold_s": _metric(passes[0], "s"),
        "warm_s": _metric(statistics.median(passes[1:]), "s"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
    }
    return not wrong, sum(len(s) for s in scripts[:len(passes)]), failed, metrics


def cli_trace(seed):
    script = cli_scripts(seed, 1)[0]
    plain, failed, wrong, _, _ = cli_pass(script, f"cli-seed{seed}")
    traced, nfail, bad, totals, written = cli_pass(script, f"cli-seed{seed}", traced=True)
    failed += nfail
    wrong += bad
    for reason in wrong:
        print(f"wrong output: {reason}", file=sys.stderr)
    merged = tracing.merge(totals)
    merged["cli.output_mb"] = written / 1e6
    return not wrong, 2 * len(script), failed, merged, traced - plain


# -- entry point -----------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wittsums", "__init__.py")):
        print(f"error: no wittsums sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(RUNS, exist_ok=True)

    if args.trace:
        if args.workload == "cli-oneshot":
            correct, attempted, failed, totals, overhead = cli_trace(args.seed)
        else:
            correct, attempted, failed, totals, overhead = library_trace(
                args.workload, args.seed)
        metrics = tracing.metrics(totals)
        import_s, sympy_s = import_times()
        metrics["wittsums.import_s"] = _metric(import_s, "s")
        metrics["wittsums.import_sympy_s"] = _metric(sympy_s, "s")
        metrics["trace.overhead_s"] = _metric(overhead, "s")
    elif args.workload == "cli-oneshot":
        correct, attempted, failed, metrics = cli_run(args.seed, args.seconds)
    else:
        correct, attempted, failed, metrics = library_run(
            args.workload, args.seed, args.seconds)

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
