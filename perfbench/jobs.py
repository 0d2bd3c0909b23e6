"""One measurement job, run in a fresh interpreter by ``run.py``.

    python3 perfbench/jobs.py JOB '{"workload": ..., "seed": ..., ...}'

JOB is ``setup`` (traced set-ups repeated within a time budget), ``study``
(one ``run_replicates`` call, tracing off, optionally followed by untraced
set-ups) or ``traced`` (the replicate loop through the public layer
functions, one span per call).  The last line of
standard output is a JSON object.  An error raised by the package is
reported in that object; exit code 3 means the package could not be
imported.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
import warnings
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

try:
    import numpy as np
    import lrdextremes as lx
    from lrdextremes import simulate
except ImportError as exc:
    print(f"cannot import the package: {exc}", file=sys.stderr)
    sys.exit(3)

# layer spans of one replicate, in _run_one's call order
REP_LAYERS = (
    "simulate.gen_innovations",
    "simulate.moving_average",
    "estats.frame",
    "estats.decompose",
    "estats.reduction_sup",
)
SETUP_LAYERS = ("config.build_problem", "scaling.feasibility", "scaling.make_bundle")
MAX_SETUPS = 25


def _span(tracer, name, rep=-1):
    return tracer.span(name, rep) if tracer is not None else nullcontext()


def _setup(cfg, tracer=None):
    """Config to ready-to-simulate: problem, feasibility quadratures, bundle."""
    lx.build_problem.cache_clear()
    with _span(tracer, "config.build_problem"):
        coeffs, dist, mx, ty = lx.build_problem(cfg)
    with _span(tracer, "scaling.feasibility"):
        lx.power_rank_integral(mx, ty)
        p = cfg.p_override if cfg.p_override is not None else lx.select_p(cfg.beta)
        for r in range(1, p + 1):
            lx.check_condition_Dr(mx, ty, r)
    with _span(tracer, "scaling.make_bundle"):
        bundle = lx.make_bundle(
            mx, ty, coeffs.c, dist.variance, cfg.beta, coeffs.L0, cfg.n, cfg.xi,
            p=cfg.p_override, spec_hash=simulate.config_hash(coeffs, dist, mx, ty, cfg.n),
        )
    return (coeffs, dist, mx, ty), bundle


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def _repeat_setups(cfg, budget_s: float, min_reps: int, traced: bool) -> dict:
    """Repeat the set-up until the budget is spent; seconds of each repeat and the model."""
    budget_end = time.perf_counter() + budget_s
    repeats, trunc_warnings = [], 0
    while len(repeats) < min_reps or (len(repeats) < MAX_SETUPS and time.perf_counter() < budget_end):
        tracer = Tracer() if traced else None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            (coeffs, dist, mx, ty), bundle = _setup(cfg, tracer)
            total = time.perf_counter() - t0
            if traced:
                with tracer.span("scaling.sigma_n1_exact"):
                    lx.sigma_n1_exact(coeffs.c, dist.variance, cfg.n)
        trunc_warnings = sum(issubclass(c.category, lx.TruncationWarning) for c in caught)
        rec = {"setup_s": total}
        if traced:
            for _, name, start, end, _, _ in tracer.spans:
                rec[name] = (end - start) / 1e9
        repeats.append(rec)
    model = {
        "M": coeffs.M,
        "cap_bound": bool(coeffs.M >= simulate.M_CAP or trunc_warnings > 0),
        "truncation_warnings": trunc_warnings,
        "k_n": bundle.k_n,
        "p": bundle.p,
        "fft_len": cfg.n + 2 * coeffs.M,
        "sigma_n1": bundle.sigma_n1,
    }
    return {"repeats": repeats, "model": model}


def job_setup(cfg, w, args):
    """Traced set-ups: one span per set-up layer, plus sigma_n1_exact on its own."""
    return _repeat_setups(cfg, args["budget_s"], args["min_reps"], traced=True)


def _count_queue_bytes() -> list:
    """Count the bytes this process pickles onto multiprocessing queues.

    In a study process that is the pool's task queue.  Returns a one-item
    list that the count accumulates in.
    """
    import multiprocessing.queues as mq

    sent = [0]
    base = mq._ForkingPickler

    class Counting(base):
        @classmethod
        def dumps(cls, obj, protocol=None):
            buf = base.dumps(obj, protocol)
            sent[0] += len(buf)
            return buf

    mq._ForkingPickler = Counting
    return sent


def job_study(cfg, w, args):
    threads = args["threads"]
    sent = _count_queue_bytes() if args.get("count_ipc") else [0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        res = lx.run_replicates(cfg, threads=threads, with_reduction=w.with_reduction)
        wall = time.perf_counter() - t0
    peak_rss_mb = _peak_rss_mb()
    # set-ups timed after the study, so that set-up samples spread over the whole run
    setups = _repeat_setups(cfg, args["setup_budget_s"], 1, traced=False) if args.get("setup_budget_s") else None
    return {
        "wall_s": wall,
        "z": [float(v) for v in res.z_samples],
        "z_hex": res.z_samples.tobytes().hex(),
        "reduction_sup": [rep.reduction_sup for rep in res.replicates],
        "p": res.summary["feasibility"]["p"],
        "peak_rss_mb": peak_rss_mb,
        "truncation_warnings": sum(issubclass(c.category, lx.TruncationWarning) for c in caught),
        "ipc_bytes_sent": sent[0],
        "setups": setups,
    }


def _traced_replicate(tracer, r, cfg, w, problem, bundle):
    """One replicate in _run_one's call order; locals are freed on return, as there."""
    coeffs, dist, mx, ty = problem
    seed = lx.derive_seed(cfg.master_seed, r)
    with tracer.span("mc.replicate", r):
        with tracer.span("simulate.gen_innovations", r):
            eps = lx.gen_innovations(dist, bundle.n + coeffs.M, seed)
        with tracer.span("simulate.moving_average", r):
            x = lx.moving_average(coeffs.c, eps)
        with tracer.span("estats.frame", r):
            frame = lx.ProcessFrame.from_path(x, mx, ty, bundle.sigma_n1)
        if not frame.analytic:
            raise lx.StateError("the traced loop covers analytic X marginals only")
        with tracer.span("estats.decompose", r):
            dec = lx.decompose_I(frame, bundle)
            ur = lx.u_ratio(frame, bundle.k_n)
        with tracer.span("estats.reduction_sup", r):
            if w.with_reduction and bundle.p <= 2:
                red = lx.reduction_sup(x, eps, coeffs.c, bundle.p, mx, bundle.sigma_n1)
            else:
                red = None
    rep = lx.ReplicateResult(r, seed, dec.z, dec.i1, dec.i2, dec.i3, ur, red.value if red else float("nan"))
    return rep, eps.size, x.size, red.grid_size if red else 0


def job_traced(cfg, w, args):
    """_run_one's call order through the public functions, one span per call."""
    tracer = Tracer()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", lx.TruncationWarning)
        t0 = time.perf_counter()
        problem, bundle = _setup(cfg, tracer)
        reps = [_traced_replicate(tracer, r, cfg, w, problem, bundle) for r in range(cfg.replicates)]
        wall = time.perf_counter() - t0

    eps_len, x_len, grid_size = reps[-1][1:]
    reps = [rep for rep, *_ in reps]
    z = np.array([rep.z for rep in reps])
    result = lx.McRunResult(z_samples=z, replicates=reps, summary=lx.summarize(z),
                            config_echo=dict(cfg.as_dict(), R=cfg.replicates), master_seed=cfg.master_seed)
    summarize_s, csv_s = [], []
    with tempfile.TemporaryDirectory(dir=args["out_dir"]) as tmp:
        for _ in range(5):
            t0 = time.perf_counter()
            lx.summarize(z)
            summarize_s.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            lx.mc.write_z_samples_csv(result, os.path.join(tmp, "z_samples.csv"))
            lx.mc.write_summary_csv(result, os.path.join(tmp, "summary.csv"))
            csv_s.append(time.perf_counter() - t0)

    setup_ms = sum((end - start) / 1e6 for _, name, start, end, _, _ in tracer.spans if name in SETUP_LAYERS)
    reduced = w.with_reduction and bundle.p <= 2
    return {
        "wall_s": wall,
        "setup_ms": setup_ms,
        "z": [float(v) for v in z],
        "layers_ms": {name: tracer.per_rep_ms(name) for name in REP_LAYERS},
        "rep_ms": [(end - start) / 1e6 for _, name, start, end, _, _ in tracer.spans if name == "mc.replicate"],
        "summarize_ms": statistics.median(summarize_s) * 1e3,
        "write_csv_ms": statistics.median(csv_s) * 1e3,
        # computed from array lengths, not measured traffic
        "bytes_per_rep": 8 * (eps_len + (cfg.n + 2 * problem[0].M) + x_len),
        "reduction_fft_calls": bundle.p * (bundle.p + 1) // 2 if reduced else 0,
        "reduction_grid_points": grid_size,
        "spans": tracer.as_records(),
    }


JOBS = {"setup": job_setup, "study": job_study, "traced": job_traced}


def main(argv):
    job, args = argv[1], json.loads(argv[2])
    w = WORKLOADS[args["workload"]]
    cfg = lx.ExperimentConfig(**w.config_kwargs(args["seed"]))
    try:
        out = JOBS[job](cfg, w, args)
    except Exception as exc:  # the parent counts the study as failed and reports why
        traceback.print_exc()
        out = {"error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv)
