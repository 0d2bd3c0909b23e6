"""Flat key=value experiment configuration: parsing, validation, realization.

The format is deliberately nesting-free so any tooling can read it; lists
are comma-separated.  All randomness flows from the single ``master_seed``
key, whose absence is an error rather than an implicit time-based seed.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, fields
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
from .simulate import DEFAULT_TRUNC_TOL, build_coefficient_model


@dataclass(frozen=True)
class ExperimentConfig:
    """Experiment description, primitives only (picklable, hashable).

    The dataclass itself checks nothing.  ``parse_config`` and
    ``build_problem`` refuse a value outside its key's range, and a k_n
    outside [2, n-1], with the same text by the rows of ``_KEYS``;
    ``build_problem`` also refuses a malformed spec by key, and a run
    refuses its xi and marginals with ``parse_config``'s text.
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
    trunc_tol: float = DEFAULT_TRUNC_TOL
    out_dir: str | None = None

    def as_dict(self) -> dict:
        d = asdict(self)
        d["n_grid"] = ",".join(str(v) for v in self.n_grid) if self.n_grid else ""
        return {k: ("" if v is None else v) for k, v in d.items()}


_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


# key -> (field, conversion, check, refusal), in the order a config's
# violations are reported; a key is required when its field has no default
_KEYS = {
    "beta": ("beta", float, lambda b: 0.5 < b < 1.0, "beta must lie in (1/2, 1) (got {})"),
    "y_marginal": ("y_marginal", str, None, None),
    "xi": ("xi", float, lambda x: 0.0 < x < 1.0, "xi must lie in (0, 1) (got {})"),
    "n": ("n", int, lambda v: v >= 4, "n must be >= 4 (got {})"),
    "R": ("replicates", int, lambda v: v >= 1, "R must be >= 1 (got {})"),
    "p_override": ("p_override", int, lambda v: v >= 1, "p_override must be >= 1 (got {})"),
    "master_seed": ("master_seed", int, lambda v: v >= 0, "master_seed must be a nonnegative integer (got {})"),
    "trunc_tol": ("trunc_tol", float, lambda v: 0.0 < v < 0.1, "trunc_tol must lie in (0, 0.1) (got {})"),
    "n_grid": (
        "n_grid",
        lambda text: tuple(int(v.strip()) for v in text.split(",") if v.strip()),
        lambda g: len(g) > 0 and all(b > a for a, b in zip(g, g[1:])),
        "must be a strictly increasing comma-separated list",
    ),
    "L0": ("l0", str, None, None),
    "innovation": ("innovation", str, None, None),
    "x_marginal": ("x_marginal", str, None, None),
    "out_dir": ("out_dir", str, None, None),
}


def _checked(values: dict) -> tuple[dict, list[str]]:
    """The typed field values that their rows accept, and every refusal.

    The rows refuse in row order, then each experiment size of an accepted
    n_grid and n whose k_n = ceil(n^xi) leaves [2, n-1] at an accepted xi.
    A field that is absent or None is not checked.
    """
    held, violations = {}, []
    for key, (field, _, check, refusal) in _KEYS.items():
        value = values.get(field)
        if value is None or check is None or check(value):
            held[field] = value
        else:
            violations.append(f"key {key!r}: " + refusal.format(value))
    xi = held.get("xi")
    for nn in (*(held.get("n_grid") or ()), held.get("n")):
        if xi is not None and nn is not None and not 2 <= (k_n := math.ceil(nn**xi)) <= nn - 1:
            violations.append(f"k_n = ceil({nn}^{xi}) = {k_n} must lie in [2, n-1]")
    return held, violations


def _refuse(violations: list[str]) -> None:
    if violations:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(violations), violations)


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
        if key not in _KEYS:
            violations.append(f"unknown key {key!r}")
            continue
        if key in raw:
            violations.append(f"duplicate key {key!r}")
            continue
        raw[key] = value

    for key, (field, *_) in _KEYS.items():
        if key not in raw and _DEFAULTS[field] is MISSING:
            violations.append(f"missing required key {key!r}")
    if "n" not in raw and "n_grid" not in raw:
        violations.append("one of 'n' or 'n_grid' is required")

    values = {}
    for key, (field, convert, _, _) in _KEYS.items():
        if key in raw:
            try:
                values[field] = convert(raw[key])
            except ValueError as exc:
                violations.append(f"key {key!r}: {exc}")
    held, refused = _checked(values)
    violations += refused

    def realize(build, *args):
        try:
            return build(*args)
        except ConfigError as exc:
            violations.extend(exc.violations)

    given = {**_DEFAULTS, **values}
    realize(_spec, "L0", given["l0"])
    dist = realize(_spec, "innovation", given["innovation"])
    # no MDA tag and no refusal depends on the Gaussian X's scale, so s = 1 stands in for it
    marginals = realize(_marginals, given["x_marginal"], given["y_marginal"], 1.0) if "y_marginal" in raw else None
    mx, ty = marginals or (None, None)

    if require_feasible and mx is not None:
        beta, xi = held.get("beta"), held.get("xi")
        if beta is not None and xi is not None and (refusal := xi_feasibility(mx.mda, ty.mda, beta, xi).refusal):
            violations.append(refusal)
        if dist is not None and (refusal := _marginal_refusal(mx, dist)):
            violations.append(refusal)

    _refuse(violations)
    return ExperimentConfig(**values)


@lru_cache(maxsize=8)
def build_problem(config: ExperimentConfig):
    """Realize the configuration as (coeffs, innovation, mx, ty) objects.

    A directly built config is first refused by the rows of ``_KEYS`` and
    the k_n bound, every violation at once with ``parse_config``'s text,
    before any array is built.  Every X marginal is in closed form, so
    nothing is drawn here.  The specs are read by the parser that
    ``parse_config`` uses, so a malformed spec is refused here, by key.
    """
    _refuse(_checked(vars(config))[1])
    coeffs = build_coefficient_model(config.beta, _spec("L0", config.l0), config.trunc_tol)
    dist = _spec("innovation", config.innovation)
    mx, ty = _marginals(config.x_marginal, config.y_marginal, dist.sigma_eps * math.sqrt(coeffs.total_square_sum))
    return coeffs, dist, mx, ty
