"""Monte Carlo harness: parallel replicates, goodness of fit, convergence.

Replicate r always draws from the stream derived as h(master_seed, r), so
results are byte-identical across execution orders and worker counts; the
reduction is by replicate index, never by completion order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import kolmogorov, ndtr, ndtri

from .config import ExperimentConfig, build_problem
from .errors import DomainError, InfeasibleConfigError
from .estats import (
    MAX_REDUCTION_ORDER,
    ProcessFrame,
    TailGrid,
    decompose_I,
    multilinear_sums,
    reduction_sup_sorted,
    u_ratio,
)
from .model import GaussianMarginal, ParetoMarginal
from .scaling import (
    ScalingBundle,
    check_condition_Dr,
    iid_contrast,
    iid_scale,
    make_bundle,
    power_rank_integral,
)
from .simulate import FilterPlan, config_hash, derive_seed, innovation_source

QQ_PROBS = (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95)

# nominal heavy-tail index for the cross-model i.i.d. contrast column
CONTRAST_ALPHA = 4.0


@dataclass(frozen=True)
class ReplicateResult:
    replicate: int
    seed: int
    z: float
    i1: float
    i2: float
    i3: float
    u_ratio: float
    reduction_sup: float


@dataclass(frozen=True)
class McRunResult:
    """Replicate-level outputs plus a summary recomputable from z_samples."""

    z_samples: np.ndarray = field(repr=False)
    replicates: list = field(repr=False)
    summary: dict
    config_echo: dict
    master_seed: int
    bundle: ScalingBundle | None = field(default=None, repr=False)


def ks_test(sample) -> tuple[float, float]:
    """Exact KS distance to the standard normal and its asymptotic p-value.

    D = sup_x |F_m(x) - Phi(x)|; p follows the Kolmogorov distribution of
    sqrt(m) * D.
    """
    arr = np.sort(np.asarray(sample, dtype=float))
    m = arr.size
    if m < 8:
        raise DomainError(f"need at least 8 observations for the KS test, got {m}")
    cdf = ndtr(arr)
    grid = np.arange(m, dtype=float)
    d_plus = np.max((grid + 1.0) / m - cdf)
    d_minus = np.max(cdf - grid / m)
    d = float(max(d_plus, d_minus))
    return d, float(kolmogorov(math.sqrt(m) * d))


def summarize(z_samples: np.ndarray) -> dict:
    """Deterministic summary of a z sample; recomputable bit-exactly."""
    z = np.asarray(z_samples, dtype=float)
    if z.size >= 8:
        d, p = ks_test(z)
    else:
        d, p = float("nan"), float("nan")
    qq = [
        {"prob": q, "theoretical": float(ndtri(q)), "empirical": float(np.quantile(z, q))}
        for q in QQ_PROBS
    ]
    return {
        "mean": float(np.mean(z)),
        "variance": float(np.var(z, ddof=1)) if z.size >= 2 else float("nan"),
        "ks_d": d,
        "ks_p": p,
        "qq": qq,
    }


def _problem_and_bundle(config: ExperimentConfig, n: int, check_feasible: bool = True):
    """The realized (coeffs, dist, mx, ty) and the scaling bundle at size n."""
    problem = build_problem(config)
    coeffs, dist, mx, ty = problem
    bundle = make_bundle(
        mx,
        ty,
        coeffs.c,
        dist.variance,
        config.beta,
        coeffs.L0,
        n,
        config.xi,
        p=config.p_override,
        spec_hash=config_hash(coeffs, dist, mx, ty, n),
        check_feasible=check_feasible,
    )
    return problem, bundle


def _marginal_refusal(mx, dist) -> str | None:
    """Why no replicate can run on this X marginal under these innovations, or None when replicates can."""
    if isinstance(mx, ParetoMarginal):
        return (
            "declared Pareto X marginal: no linear process of this model has it "
            "(use 'gaussian' with gaussian innovations, whose X marginal is exact)"
        )
    if isinstance(mx, GaussianMarginal) and dist.kind != "gaussian":
        # at q = 1e-4 under t_5, F_gauss(X) exceeds 1 - q at about 8 q (beta 0.8, n = 2^13)
        return (
            f"Gaussian X marginal under {dist.kind} innovations: a linear process with t_{dist.nu:g} "
            f"innovations has a regularly varying tail of index {dist.nu:g}, so X lies in "
            "the Frechet domain and F(X) is not uniform in the tail "
            f"(there is no exact X marginal for {dist.kind} innovations yet)"
        )
    return None


def _feasibility_record(problem, bundle: ScalingBundle) -> dict:
    """Run the one-time hypothesis checks beyond xi; raise before any simulation."""
    coeffs, dist, mx, ty = problem
    if (refusal := _marginal_refusal(mx, dist)) is not None:
        raise InfeasibleConfigError(refusal)
    record = {"case": bundle.case.name, "xi_threshold": bundle.feasibility.threshold}
    pr = power_rank_integral(mx, ty)
    record["power_rank_integral"] = pr
    if pr == 0.0:
        raise InfeasibleConfigError("power-rank integral vanishes; normalization by sigma_n1 is invalid")
    record["p"] = bundle.p
    record["condition_Dr"] = [check_condition_Dr(mx, ty, r) for r in range(1, bundle.p + 1)]
    return record


def _reduction_skip_reason(p: int, with_reduction: bool) -> str | None:
    """Why no replicate computes the reduction supremum, or None when every replicate does."""
    if not with_reduction:
        return "reduction off"
    if p > MAX_REDUCTION_ORDER:
        return f"p = {p} > MAX_REDUCTION_ORDER = {MAX_REDUCTION_ORDER}"
    return None


@dataclass(frozen=True, eq=False)
class ReplicatePlan:
    """What every replicate of one (problem, bundle) shares, built once per run.

    ``filter`` is the filter plan of order p when the reduction supremum
    is computed (order 1 otherwise): the spectra of c**m for m < p, and the
    window sums of c**p that give the top power's total as one weighted sum
    per replicate.  A replicate streams its seeded innovations through the
    plan's one pass, which returns the path, the power sums below p and that
    total, so no replicate builds its n + M innovations as one array.  The
    spectra of c come from the bundle's plan, so a run transforms the taps
    once per filtered power and never transforms c**p.
    ``tail`` is its tail grid, or None when ``_reduction_skip_reason``
    gives a reason not to compute it.
    """

    filter: FilterPlan
    tail: TailGrid | None

    @classmethod
    def build(cls, problem, bundle: ScalingBundle, with_reduction: bool) -> "ReplicatePlan":
        reduced = _reduction_skip_reason(bundle.p, with_reduction) is None
        order = max(bundle.p, 1) if reduced else 1
        tail = TailGrid.build(problem[2], bundle.p) if reduced else None
        return cls(filter=bundle.filter_plan.with_order(order), tail=tail)


def _run_one(r: int, seed: int, problem, bundle: ScalingBundle, plan: ReplicatePlan) -> ReplicateResult:
    _, dist, mx, ty = problem
    sums = plan.filter.stream(innovation_source(dist, seed))
    x = sums.paths[0]
    frame = ProcessFrame.from_path(x, mx, ty, bundle.sigma_n1)
    dec = decompose_I(frame, bundle)
    ur = u_ratio(frame, bundle.k_n)
    if plan.tail is not None:
        y = multilinear_sums(sums, bundle.p)
        red = reduction_sup_sorted(frame.x_sorted, frame.F_sorted, y, plan.tail, mx, bundle.sigma_n1).value
    else:
        red = float("nan")
    return ReplicateResult(
        replicate=r, seed=seed, z=dec.z, i1=dec.i1, i2=dec.i2, i3=dec.i3, u_ratio=ur, reduction_sup=red
    )


# The heap set-up that keeps a replicate's arrays on reused pages is done
# once, when ``simulate`` is imported (see ``simulate._raise_mmap_threshold``).

# (problem, bundle, plan) of the run, set once in each pool worker
_worker_run = None


def _init_worker(problem, bundle: ScalingBundle, plan: ReplicatePlan) -> None:
    global _worker_run
    _worker_run = (problem, bundle, plan)


def _run_task(task) -> ReplicateResult:
    r, seed = task
    return _run_one(r, seed, *_worker_run)


def _run_replicate_loop(problem, bundle: ScalingBundle, master_seed: int, R: int, threads: int, with_reduction: bool):
    """Replicates 0..R-1 of one bundle, in replicate order whatever the worker count.

    The plan is built here, once; pool workers receive it with the problem
    and the bundle when they start, so a task is only (r, seed).
    """
    plan = ReplicatePlan.build(problem, bundle, with_reduction)
    tasks = [(r, derive_seed(master_seed, r)) for r in range(R)]
    workers = os.cpu_count() if threads == 0 else threads
    if workers is None or workers <= 1 or R == 1:
        reps = [_run_one(r, seed, problem, bundle, plan) for r, seed in tasks]
    else:
        n_workers = min(workers, R)
        with ProcessPoolExecutor(
            max_workers=n_workers, initializer=_init_worker, initargs=(problem, bundle, plan)
        ) as pool:
            reps = list(pool.map(_run_task, tasks, chunksize=max(1, R // (4 * n_workers))))
    reps.sort(key=lambda rep: rep.replicate)  # reduction by index, not completion order
    return reps


def run_replicates(
    config: ExperimentConfig,
    R: int | None = None,
    master_seed: int | None = None,
    threads: int = 1,
    with_reduction: bool = True,
    n: int | None = None,
) -> McRunResult:
    """Run R independent replicates of the extreme-sum experiment.

    Parameters
    ----------
    config : ExperimentConfig
        Validated configuration; feasibility (xi threshold, power rank,
        derivative-integrability) is checked once before any simulation.
    R, master_seed, n : optional overrides of the config values.
    threads : int
        Worker processes; 0 means the detected CPU count, 1 runs inline.
        The output never depends on this value.
    """
    R = R if R is not None else config.replicates
    master_seed = master_seed if master_seed is not None else config.master_seed
    n = n if n is not None else config.n
    if R < 1:
        raise DomainError("R must be >= 1")
    if n is None:
        raise DomainError("an experiment size n is required")

    problem, bundle = _problem_and_bundle(config, n)
    feas = _feasibility_record(problem, bundle)
    feas["reduction_sup"] = _reduction_skip_reason(bundle.p, with_reduction) or "computed"
    reps = _run_replicate_loop(problem, bundle, master_seed, R, threads, with_reduction)

    z = np.array([rep.z for rep in reps])
    summary = summarize(z)
    summary["feasibility"] = feas
    echo = config.as_dict()
    echo["n"] = n
    echo["R"] = R
    # the result does not keep the filter plan alive: its spectra and taps are the run's largest arrays
    kept = replace(bundle, filter_plan=None)
    return McRunResult(
        z_samples=z, replicates=reps, summary=summary, config_echo=echo, master_seed=master_seed, bundle=kept
    )


def trend_nonincreasing(values, allowed_inversions: int = 1, rtol: float = 0.0) -> bool:
    """True when the sequence decreases with at most the allowed inversions."""
    vals = list(values)
    inversions = sum(1 for a, b in zip(vals, vals[1:]) if b > a * (1.0 + rtol))
    return inversions <= allowed_inversions


def convergence_study(
    config: ExperimentConfig,
    n_grid=None,
    R: int | None = None,
    master_seed: int | None = None,
    threads: int = 1,
) -> list[dict]:
    """Replicate study over increasing n; one row of diagnostics per size.

    Uses the same master seed family at every size (common random numbers),
    so the across-n trends are compared on coupled samples.
    """
    n_grid = list(n_grid if n_grid is not None else (config.n_grid or []))
    if not n_grid:
        raise DomainError("an increasing n_grid is required")
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise DomainError("n_grid must be strictly increasing")
    rows = []
    for nn in n_grid:
        res = run_replicates(config, R=R, master_seed=master_seed, threads=threads, n=nn)
        k_n, sigma_n1 = res.bundle.k_n, res.bundle.sigma_n1
        i2 = np.median(np.abs([r.i2 for r in res.replicates]))
        i3 = np.median(np.abs([r.i3 for r in res.replicates]))
        urdev = np.median(np.abs([r.u_ratio - 1.0 for r in res.replicates]))
        reds = np.array([r.reduction_sup for r in res.replicates])
        red = float(np.median(reds)) if np.all(np.isfinite(reds)) else float("nan")
        rows.append(
            {
                "n": nn,
                "k_n": k_n,
                "ks_d": res.summary["ks_d"],
                "ks_p": res.summary["ks_p"],
                "z_mean": res.summary["mean"],
                "z_var": res.summary["variance"],
                "med_abs_i2": float(i2),
                "med_abs_i3": float(i3),
                "med_u_ratio_dev": float(urdev),
                "med_reduction_sup": red,
                "iid_contrast": iid_contrast(nn, k_n, CONTRAST_ALPHA),
                "lrd_scale": (nn / k_n) / sigma_n1,
                "iid_scale": iid_scale(nn, k_n, CONTRAST_ALPHA),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# CSV emission (schema-stable, shortest round-trip floats)
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(float(v))
    if isinstance(v, (np.floating,)):
        return repr(float(v))
    return str(v)


def write_z_samples_csv(result: McRunResult, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("replicate,seed,z,i1,i2,i3,u_ratio,reduction_sup\n")
        for rep in result.replicates:
            fields = [rep.replicate, rep.seed, rep.z, rep.i1, rep.i2, rep.i3, rep.u_ratio, rep.reduction_sup]
            fh.write(",".join(_fmt(v) for v in fields) + "\n")


def write_summary_csv(result: McRunResult, path) -> None:
    rows = [
        ("mean", result.summary["mean"]),
        ("variance", result.summary["variance"]),
        ("ks_d", result.summary["ks_d"]),
        ("ks_p", result.summary["ks_p"]),
        ("replicates", len(result.z_samples)),
        ("master_seed", result.master_seed),
    ]
    for item in result.summary["qq"]:
        rows.append((f"qq_p{int(round(item['prob'] * 100)):02d}_theoretical", item["theoretical"]))
        rows.append((f"qq_p{int(round(item['prob'] * 100)):02d}_empirical", item["empirical"]))
    for key, val in sorted(result.config_echo.items()):
        rows.append((f"config_{key}", val))
    with open(path, "w", newline="") as fh:
        fh.write("metric,value\n")
        for key, val in rows:
            fh.write(f"{key},{_fmt(val)}\n")


CONVERGENCE_COLUMNS = (
    "n",
    "k_n",
    "ks_d",
    "ks_p",
    "z_mean",
    "z_var",
    "med_abs_i2",
    "med_abs_i3",
    "med_u_ratio_dev",
    "med_reduction_sup",
    "iid_contrast",
    "lrd_scale",
    "iid_scale",
)


def write_convergence_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CONVERGENCE_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in CONVERGENCE_COLUMNS) + "\n")


def write_errors_csv(errors: list[tuple[int, str]], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("code,message\n")
        for code, message in errors:
            sanitized = message.replace("\n", " ").replace(",", ";")
            fh.write(f"{code},{sanitized}\n")
