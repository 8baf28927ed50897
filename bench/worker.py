"""One fresh process that runs a library workload's job lists.

Reads a plan (JSON) on stdin, imports `wittsums`, runs the cold list and
then warm lists, checks every output after its list's clock has stopped,
and prints one JSON result line.  With "trace" set it installs the tracer
first and writes its spans to the plan's "spans" path.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402


def _lfun_p1(ws, job):
    F = ws.get_field(job["p"], job["m"])
    x = ws.RationalFunction.x(F)
    coords = []
    for terms in job["comps"]:
        acc = ws.RationalFunction.zero(F)
        for e, c in terms:
            acc = acc + ws.RationalFunction.const(F, c) * x**e
        coords.append(acc)
    f = ws.witt_function(ws.RationalFunctionField(F), coords)
    return ws.l_function(f)


def _out_lfun(res):
    return {"claimed_degree": res.claimed_degree,
            "coefficients": [list(c.coeffs) for c in res.coefficients]}


def _genus1(ws, job):
    F = ws.get_field(job["p"], 1)
    E = ws.EllipticCurve(F, *job["curve"])
    ring = ws.EllipticFunctionField(E)
    X, Y = ws.EllipticFunction.x(E), ws.EllipticFunction.y(E)
    coords = []
    for comp in job["coords"]:
        acc = ws.EllipticFunction.zero(E)
        for a, b, c in comp:
            acc = acc + (X**a * Y**b).scale(c)
        coords.append(acc)
    truncs = [ws.witt_function(ring, coords[:k]) for k in range(1, job["l"] + 1)]
    conds = [ws.conductor(t).degree for t in truncs]
    genus = ws.genus_of_cover(truncs[-1], 1)
    lf = ws.l_function(truncs[job["lfun_len"] - 1])
    return conds, genus, lf


def _kumar_sweep(ws, job):
    return ws.sweep_kumar(*job["ring"], *job["degs"])


def _kumar_sample(ws, job):
    p, l, m = job["ring"]
    R = ws.get_galois_ring(p, l, m)
    coeffs = []
    for k, a in enumerate(job["a"]):
        b = job["b"][k] if k < len(job["b"]) else 0
        coeffs.append(R.add(R.teichmuller(a), R.scalar_mul(p, R.teichmuller(b))))
    return ws.sum_teichmuller(R, coeffs)


RUN = {"lfun_p1": _lfun_p1, "genus1": _genus1,
       "kumar_sweep": _kumar_sweep, "kumar_sample": _kumar_sample}


def check_list(jobs, results):
    """Reasons for wrong outputs (empty when all are right).  Jobs that
    raised are counted as failed by the caller and skipped here."""
    wrong = []
    sweep_sq = None
    for job, res in zip(jobs, results):
        if isinstance(res, Exception):
            continue
        kind = job["kind"]
        if kind == "lfun_p1":
            reason = checks.check_lfun_p1(job, _out_lfun(res))
        elif kind == "genus1":
            conds, genus, lf = res
            out = _out_lfun(lf)
            out.update(conductors=conds, genus=genus)
            reason = checks.check_genus1(job, out)
        elif kind == "kumar_sweep":
            reason, sweep_sq = checks.check_kumar_reports(
                job["ring"][0], job["ring"][2], job["degs"],
                [r.instance for r in res], [r.measured for r in res])
        else:
            reason = checks.check_kumar_sample(
                list(res.value.coeffs), sweep_sq or {}, job["index"])
        if reason:
            wrong.append(f"{kind}: {reason}")
    return wrong


def run_list(ws, jobs, tracer, first_job):
    results = []
    gc.collect()
    t0 = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer:
            tracer.job = first_job + i
        try:
            results.append(RUN[job["kind"]](ws, job))
        except Exception as exc:  # a job that raises is a failed operation
            results.append(exc)
    elapsed = time.perf_counter() - t0
    failed = sum(isinstance(r, Exception) for r in results)
    return elapsed, results, failed


def main():
    plan = json.load(sys.stdin)
    t0 = time.perf_counter()
    import wittsums as ws
    import_s = time.perf_counter() - t0
    tracer = None
    if plan["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    lists = [plan["cold"]] + plan["warm"]
    times, attempted, failed, wrong = [], 0, 0, []
    job_no = 0
    for n, jobs in enumerate(lists):
        # at least one warm list; "seconds" counts timed warm-list time only
        if n > 1 and sum(times[1:]) >= plan["seconds"]:
            break
        elapsed, results, nfail = run_list(ws, jobs, tracer, job_no)
        job_no += len(jobs)
        times.append(elapsed)
        attempted += len(jobs)
        failed += nfail
        wrong += check_list(jobs, results)
        del results
    out = {"import_s": import_s, "cold_s": times[0], "warm_s": times[1:],
           "attempted": attempted, "failed": failed, "wrong": wrong[:20],
           "wrong_count": len(wrong)}
    if tracer:
        out["totals"] = tracer.totals()
        tracer.dump(plan["spans"])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
