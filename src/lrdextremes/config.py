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
    MdaTag,
    ParetoMarginal,
    ParetoTarget,
    ExponentialTarget,
    SvConstant,
    SvLogPower,
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
    """Validated experiment description, primitives only (picklable, hashable)."""

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


def _parse_sv(spec: str):
    kind, _, rest = spec.partition(":")
    if kind == "constant":
        return SvConstant(float(rest) if rest else 1.0)
    if kind == "logpower":
        parts = [p for p in rest.split(",") if p]
        if len(parts) != 2:
            raise DomainError(f"logpower needs 'logpower:C,B', got {spec!r}")
        return SvLogPower(float(parts[0]), float(parts[1]))
    raise DomainError(f"unknown slowly varying spec {spec!r} (use constant:C or logpower:C,B)")


def _parse_innovation(spec: str) -> InnovationDist:
    kind, _, rest = spec.partition(":")
    parts = [p for p in rest.split(",") if p]
    if kind == "gaussian":
        return InnovationDist.gaussian(float(parts[0]) if parts else 1.0)
    if kind == "student_t":
        if not parts:
            raise DomainError("student_t needs 'student_t:NU[,SIGMA]'")
        sigma = float(parts[1]) if len(parts) > 1 else 1.0
        return InnovationDist.student_t(float(parts[0]), sigma)
    raise DomainError(f"unknown innovation spec {spec!r}")


def _x_marginal_tag(spec: str) -> MdaTag:
    """MDA tag of the X marginal spec, so the case is known at parse time."""
    kind, _, rest = spec.partition(":")
    if kind == "gaussian":
        return MdaTag("gumbel")
    if kind == "pareto":
        parts = [p for p in rest.split(",") if p]
        if not parts:
            raise DomainError("pareto marginal needs 'pareto:ALPHA[,XM]'")
        return MdaTag("frechet", float(parts[0]))
    raise DomainError(f"unknown x_marginal spec {spec!r}")


def _y_marginal_tag(spec: str, x_tag: MdaTag | None) -> MdaTag | None:
    kind, _, rest = spec.partition(":")
    if kind == "exponential":
        return MdaTag("gumbel")
    if kind == "pareto":
        if not rest:
            raise DomainError("pareto target needs 'pareto:ALPHA0'")
        return MdaTag("frechet", float(rest))
    if kind == "logpareto":
        if x_tag is not None and x_tag.kind != "frechet":
            raise DomainError("logpareto target requires a Frechet-tagged x_marginal")
        return MdaTag("gumbel")
    if kind == "identity":
        return x_tag
    raise DomainError(f"unknown y_marginal spec {spec!r}")


def parse_config(text: str, require_feasible: bool = True) -> ExperimentConfig:
    """Parse and validate flat ``key = value`` text.

    Every violation is collected and reported together.  With
    ``require_feasible`` the xi threshold of the statically determined case
    is enforced; diagnostic commands relax this.
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

    x_tag = None
    try:
        _parse_sv(l0)
    except DomainError as exc:
        violations.append(f"key 'L0': {exc}")
    try:
        _parse_innovation(innovation)
    except DomainError as exc:
        violations.append(f"key 'innovation': {exc}")
    try:
        x_tag = _x_marginal_tag(x_marginal)
    except DomainError as exc:
        violations.append(f"key 'x_marginal': {exc}")
    y_tag = None
    if y_marginal:
        try:
            y_tag = _y_marginal_tag(y_marginal, x_tag)
        except DomainError as exc:
            violations.append(f"key 'y_marginal': {exc}")

    # extreme-count bounds per experiment size
    if xi is not None:
        for nn in list(n_grid or []) + ([n] if n is not None else []):
            k_n = math.ceil(nn**xi)
            if not 2 <= k_n <= nn - 1:
                violations.append(f"k_n = ceil({nn}^{xi}) = {k_n} must lie in [2, n-1]")

    if require_feasible and beta is not None and xi is not None and x_tag is not None and y_tag is not None:
        refusal = xi_feasibility(x_tag, y_tag, beta, xi).refusal
        if refusal is not None:
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

    Every X marginal is in closed form, so nothing is drawn here.  A
    config built directly, without ``parse_config``, has an unknown
    marginal spec refused here by name.
    """
    L0 = _parse_sv(config.l0)
    coeffs = build_coefficient_model(config.beta, L0, config.trunc_tol)
    dist = _parse_innovation(config.innovation)

    kind, _, rest = config.x_marginal.partition(":")
    if kind == "gaussian":
        mx = GaussianMarginal(dist.sigma_eps * math.sqrt(coeffs.total_square_sum))
    elif kind == "pareto":
        parts = [p for p in rest.split(",") if p]
        mx = ParetoMarginal(float(parts[0]), float(parts[1]) if len(parts) > 1 else 1.0)
    else:
        raise ConfigError(f"unknown x_marginal spec {config.x_marginal!r}")

    ykind, _, yrest = config.y_marginal.partition(":")
    if ykind == "exponential":
        ty = ExponentialTarget()
    elif ykind == "pareto":
        ty = ParetoTarget(float(yrest))
    elif ykind == "logpareto":
        ty = LogParetoTarget(mx, float(yrest) if yrest else 0.5)
    elif ykind == "identity":
        ty = IdentityTarget(mx)
    else:
        raise ConfigError(f"unknown y_marginal spec {config.y_marginal!r}")
    return coeffs, dist, mx, ty
