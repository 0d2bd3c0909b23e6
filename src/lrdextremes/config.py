"""Flat key=value experiment configuration: parsing, validation, realization.

The format is deliberately nesting-free so any tooling can read it; lists
are comma-separated.  All randomness flows from the single ``master_seed``
key, whose absence is an error rather than an implicit time-based seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from functools import lru_cache

from .errors import ConfigError, DomainError
from .model import (
    GaussianMarginal,
    IdentityTarget,
    InnovationDist,
    LogParetoTarget,
    ParetoMarginal,
    ParetoTarget,
    ExponentialTarget,
    SvConstant,
    SvLogPower,
    _marginal_refusal,
)
from .scaling import xi_feasibility
from .simulate import build_coefficient_model

KNOWN_KEYS = {
    "beta",
    "L0",
    "innovation",
    "x_marginal",
    "y_marginal",
    "xi",
    "n",
    "n_grid",
    "R",
    "p_override",
    "master_seed",
    "trunc_tol",
    "out_dir",
}

REQUIRED_KEYS = ("beta", "y_marginal", "xi", "master_seed")


@dataclass(frozen=True)
class ExperimentConfig:
    """Experiment description, primitives only (picklable, hashable).

    The dataclass checks nothing.  ``parse_config`` validates the text it
    reads; a directly built config is validated by ``build_problem``, which
    refuses a malformed spec by key, and a run refuses its xi and marginals
    with ``parse_config``'s text.
    """

    beta: float
    y_marginal: str
    xi: float
    master_seed: int
    l0: str = "constant:1"
    innovation: str = "gaussian:1"
    x_marginal: str = "gaussian"
    n: int | None = None
    n_grid: tuple[int, ...] | None = None
    replicates: int = 100
    p_override: int | None = None
    trunc_tol: float = 1e-3
    out_dir: str | None = None

    def as_dict(self) -> dict:
        d = asdict(self)
        d["n_grid"] = ",".join(str(v) for v in self.n_grid) if self.n_grid else ""
        return {k: ("" if v is None else v) for k, v in d.items()}


# key -> kind -> (fewest numbers, most numbers, form, constructor); a
# constructor takes the context first (the Gaussian X's scale, or a
# target's X marginal), then the numbers after the colon
_SPECS = {
    "L0": {
        "constant": (0, 1, "constant[:C]", SvConstant),
        "logpower": (2, 2, "logpower:C,B", SvLogPower),
    },
    "innovation": {
        "gaussian": (0, 1, "gaussian[:SIGMA]", InnovationDist.gaussian),
        "student_t": (1, 2, "student_t:NU[,SIGMA]", InnovationDist.student_t),
    },
    "x_marginal": {
        "gaussian": (0, 0, "gaussian", GaussianMarginal),
        "pareto": (1, 2, "pareto:ALPHA[,XM]", lambda s, *values: ParetoMarginal(*values)),
    },
    "y_marginal": {
        "exponential": (0, 0, "exponential", lambda mx: ExponentialTarget()),
        "pareto": (1, 1, "pareto:ALPHA0", lambda mx, alpha0: ParetoTarget(alpha0)),
        "logpareto": (0, 1, "logpareto[:U0]", LogParetoTarget),
        "identity": (0, 0, "identity", IdentityTarget),
    },
}


def _spec(key: str, spec: str, *context):
    """The object that the spec string of ``key`` names; the one place a spec is split.

    An unknown kind, a wrong count of numbers, a non-number and a value the
    constructor refuses all raise ``ConfigError`` naming the key.
    """
    kind, _, rest = spec.partition(":")
    forms = _SPECS[key]
    if kind not in forms:
        raise ConfigError(f"key {key!r}: unknown {key} spec {spec!r} (use {' | '.join(f[2] for f in forms.values())})")
    least, most, form, make = forms[kind]
    try:
        values = [float(v) for v in rest.split(",")] if rest else []
    except ValueError:
        values = None
    if values is None or not least <= len(values) <= most or not all(map(math.isfinite, values)):
        raise ConfigError(f"key {key!r}: {kind} needs {form!r}, got {spec!r}")
    try:
        return make(*context, *values)
    except DomainError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from None


def _marginals(x_marginal: str, y_marginal: str, s: float):
    """The X marginal (a Gaussian one of standard deviation s) and the target Y marginal."""
    mx = _spec("x_marginal", x_marginal, s)
    return mx, _spec("y_marginal", y_marginal, mx)


def parse_config(text: str, require_feasible: bool = True) -> ExperimentConfig:
    """Parse and validate flat ``key = value`` text.

    Every violation is collected and reported together.  With
    ``require_feasible`` the xi threshold of the case, read off the
    marginals' MDA tags, is enforced, and so is the refusal of an X marginal
    no replicate can run on; diagnostic commands relax both.
    """
    violations: list[str] = []
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            violations.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KNOWN_KEYS:
            violations.append(f"unknown key {key!r}")
            continue
        if key in raw:
            violations.append(f"duplicate key {key!r}")
            continue
        raw[key] = value

    for key in REQUIRED_KEYS:
        if key not in raw:
            violations.append(f"missing required key {key!r}")
    if "n" not in raw and "n_grid" not in raw:
        violations.append("one of 'n' or 'n_grid' is required")

    def grab(key, conv, default=None, check=None, describe=""):
        if key not in raw:
            return default
        try:
            val = conv(raw[key])
        except (ValueError, DomainError) as exc:
            violations.append(f"key {key!r}: {exc}")
            return default
        if check is not None and not check(val):
            violations.append(f"key {key!r}: {describe} (got {raw[key]})")
            return default
        return val

    beta = grab("beta", float, check=lambda b: 0.5 < b < 1.0, describe="beta must lie in (1/2, 1)")
    xi = grab("xi", float, check=lambda x: 0.0 < x < 1.0, describe="xi must lie in (0, 1)")
    n = grab("n", int, check=lambda v: v >= 4, describe="n must be >= 4")
    replicates = grab("R", int, default=100, check=lambda v: v >= 1, describe="R must be >= 1")
    p_override = grab("p_override", int, check=lambda v: v >= 1, describe="p_override must be >= 1")
    master_seed = grab("master_seed", int, check=lambda v: v >= 0, describe="master_seed must be a nonnegative integer")
    trunc_tol = grab(
        "trunc_tol", float, default=1e-3, check=lambda v: 0.0 < v < 0.1, describe="trunc_tol must lie in (0, 0.1)"
    )
    out_dir = raw.get("out_dir")

    n_grid = None
    if "n_grid" in raw:
        try:
            n_grid = tuple(int(v.strip()) for v in raw["n_grid"].split(",") if v.strip())
            if not n_grid or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
                violations.append("key 'n_grid': must be a strictly increasing comma-separated list")
                n_grid = None
        except ValueError as exc:
            violations.append(f"key 'n_grid': {exc}")

    l0 = raw.get("L0", "constant:1")
    innovation = raw.get("innovation", "gaussian:1")
    x_marginal = raw.get("x_marginal", "gaussian")
    y_marginal = raw.get("y_marginal", "")

    def realize(build, *args):
        try:
            return build(*args)
        except ConfigError as exc:
            violations.extend(exc.violations)

    realize(_spec, "L0", l0)
    dist = realize(_spec, "innovation", innovation)
    # no MDA tag and no refusal depends on the Gaussian X's scale, so s = 1 stands in for it
    marginals = realize(_marginals, x_marginal, y_marginal, 1.0) if "y_marginal" in raw else None
    mx, ty = marginals or (None, None)

    # extreme-count bounds per experiment size
    if xi is not None:
        for nn in list(n_grid or []) + ([n] if n is not None else []):
            k_n = math.ceil(nn**xi)
            if not 2 <= k_n <= nn - 1:
                violations.append(f"k_n = ceil({nn}^{xi}) = {k_n} must lie in [2, n-1]")

    if require_feasible and mx is not None:
        if beta is not None and xi is not None and (refusal := xi_feasibility(mx.mda, ty.mda, beta, xi).refusal):
            violations.append(refusal)
        if dist is not None and (refusal := _marginal_refusal(mx, dist)):
            violations.append(refusal)

    if violations:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(violations), violations)

    return ExperimentConfig(
        beta=beta,
        y_marginal=y_marginal,
        xi=xi,
        master_seed=master_seed,
        l0=l0,
        innovation=innovation,
        x_marginal=x_marginal,
        n=n,
        n_grid=n_grid,
        replicates=replicates,
        p_override=p_override,
        trunc_tol=trunc_tol,
        out_dir=out_dir,
    )


@lru_cache(maxsize=8)
def build_problem(config: ExperimentConfig):
    """Realize the configuration as (coeffs, innovation, mx, ty) objects.

    Every X marginal is in closed form, so nothing is drawn here.  The
    specs are read by the parser that ``parse_config`` uses, so a directly
    built config with a malformed spec is refused here, by key.
    """
    coeffs = build_coefficient_model(config.beta, _spec("L0", config.l0), config.trunc_tol)
    dist = _spec("innovation", config.innovation)
    mx, ty = _marginals(config.x_marginal, config.y_marginal, dist.sigma_eps * math.sqrt(coeffs.total_square_sum))
    return coeffs, dist, mx, ty
