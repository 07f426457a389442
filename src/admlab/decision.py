"""Finite decision problems: risk matrices, priors, mixtures, Bayes risk, serialization.

All standard-scale arithmetic is exact rational; hyper priors carry
Levi-Civita weights.  Floats never enter a risk computation, so dominance
and certificate verdicts cannot depend on rounding.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, fields, is_dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from admlab.hyperreal import LCNumber, _as_fraction, format_rational, parse_lc
from admlab.simplex import _ones, _pack, _width

__all__ = [
    "DecisionProblem",
    "Mixture",
    "Prior",
    "ProblemFormatError",
    "bayes_risk",
    "format_rational",
    "load_problem",
    "mixture_risk",
    "random_problem",
    "risk_at",
    "save_problem",
]

REAL = "REAL"
HYPER = "HYPER"


class ProblemFormatError(ValueError):
    """A problem file or constructor argument violates the format contract."""


def _exact(v, where: str) -> Fraction:
    if isinstance(v, bool):
        raise ProblemFormatError(f"{where}: expected a rational, got a boolean ({v!r})")
    if isinstance(v, float):
        raise ProblemFormatError(
            f"{where}: floats are not accepted; write rationals as strings like \"3/10\" or \"0.3\"")
    try:
        return _as_fraction(v)
    except TypeError:
        raise ProblemFormatError(f"{where}: expected a rational, got {type(v).__name__}") from None
    except (ValueError, ZeroDivisionError) as ex:
        raise ProblemFormatError(f"{where}: cannot parse rational from {v!r}") from ex


@dataclass(frozen=True)
class Prior:
    """Probability weights over the parameter labels.

    The weights' values fix the read-only ``kind``: HYPER when some weight has
    a term at a nonzero power of eps (all weights are then stored as
    Levi-Civita numbers, allowing infinitesimal but still nonnegative ones),
    REAL otherwise (exact rationals, a standard Levi-Civita weight included).
    Weights must sum to exactly 1 either way.
    """

    weights: dict
    kind: str = field(init=False)

    def __post_init__(self):
        if not self.weights:
            raise ValueError("prior needs at least one weight")
        hyper = any(isinstance(w, LCNumber) and w.terms.keys() - {0}
                    for w in self.weights.values())
        clean = {}
        for label, w in self.weights.items():
            if not isinstance(w, LCNumber):
                w = _exact(w, f"prior weight {label}")
                if hyper:
                    w = LCNumber.from_real(w)
            elif not hyper:
                w = w.standard_part()
            if w < 0:
                raise ValueError(f"prior weight for {label} is negative: {w}")
            clean[label] = w
        total = sum(clean.values())
        if total != 1:
            raise ValueError(f"prior weights must sum to exactly 1, got {total}")
        object.__setattr__(self, "weights", clean)
        object.__setattr__(self, "kind", HYPER if hyper else REAL)

    @classmethod
    def dirac(cls, label) -> "Prior":
        return cls({label: Fraction(1)})

    def weight(self, label):
        zero = LCNumber.zero() if self.kind == HYPER else Fraction(0)
        return self.weights.get(label, zero)


@dataclass(frozen=True)
class Mixture:
    """Rational convex weights over base procedures."""

    weights: dict

    def __post_init__(self):
        clean = {}
        for label, w in self.weights.items():
            w = _exact(w, f"mixture weight {label}")
            if w < 0:
                raise ValueError(f"mixture weight for {label} is negative: {w}")
            if w > 0:
                clean[label] = w
        if sum(clean.values()) != 1:
            raise ValueError("mixture weights must sum to exactly 1")
        object.__setattr__(self, "weights", clean)

    @classmethod
    def point_mass(cls, label) -> "Mixture":
        return cls({label: Fraction(1)})


def _from_lp(cls, labels, num, D):
    """The Prior or Mixture of an LP solution, weight num[j] / D for labels[j]
    (entries past the labels, such as slacks or a free variable, are ignored).

    Checked in ints: D > 0, no weight negative, the weights summing to D.  A
    Mixture keeps its positive weights only, a Prior every label.  Weights
    that fail are a fault of the LP, not of the input: RuntimeError (exit 3).
    """
    name = cls.__name__.lower()
    num = num[:len(labels)]
    total = sum(v for v in num if v > 0)
    if D <= 0:
        problem = f"denominator {D} is not positive"
    elif cls is Mixture and total != D:  # a Mixture's positive weights first
        problem = "mixture weights must sum to exactly 1"
    elif min(num) < 0:
        k = next(k for k, v in enumerate(num) if v < 0)
        problem = f"{name} weight for {labels[k]} is negative: {Fraction(num[k], D)}"
    elif total != D:
        problem = f"prior weights must sum to exactly 1, got {Fraction(total, D)}"
    else:
        out = object.__new__(cls)
        object.__setattr__(out, "weights", {label: Fraction(v, D)
                                            for label, v in zip(labels, num)
                                            if v or cls is Prior})
        if cls is Prior:
            object.__setattr__(out, "kind", REAL)
        return out
    raise RuntimeError(f"LP solution is not a valid {name}: {problem}")


def _fmt(v):
    """A payload's encoding of an exact value: a Fraction as 'n' or 'n/d', a
    Levi-Civita number as its text, a Prior or Mixture as its weights, a dict,
    tuple or list item by item, any other dataclass (a report) as its fields
    in order, each under its name or its metadata's "key"; anything else
    (None included) as it is."""
    if isinstance(v, Fraction):
        return format_rational(v)
    if isinstance(v, LCNumber):
        return str(v)
    if isinstance(v, (Prior, Mixture)):
        v = v.weights
    if isinstance(v, dict):
        return {k: _fmt(x) for k, x in v.items()}
    if isinstance(v, (tuple, list)):
        return [_fmt(x) for x in v]
    if is_dataclass(v):
        return {f.metadata.get("key", f.name): _fmt(getattr(v, f.name)) for f in fields(v)}
    return v


class _Report:
    """A report whose payload is its fields, as ``_fmt`` encodes them."""

    def as_dict(self):
        return _fmt(self)


@dataclass(frozen=True)
class DecisionProblem:
    """A finite decision problem: parameter labels, procedure labels, exact risk matrix.

    Derived at construction: ``den``, the least common denominator of the risks,
    and ``irisk``, the int matrix with ``risk[i][j] == irisk[i][j] / den``.
    ``_packed`` keeps what the LP builders derive from ``irisk`` on first
    use: its span (``_risk_span``) and its packed columns and rows, per field
    width (``_packed_risk``).
    """

    theta_labels: tuple
    proc_labels: tuple
    risk: tuple                      # rows indexed by theta, columns by procedure
    allow_mixtures: bool = True
    priors: dict = field(default_factory=dict, compare=False)
    den: int = field(init=False, repr=False, compare=False)
    irisk: tuple = field(init=False, repr=False, compare=False)
    _packed: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        thetas = tuple(self.theta_labels)
        procs = tuple(self.proc_labels)
        if not thetas or not procs:
            raise ProblemFormatError("need at least one parameter and one procedure")
        if len(set(thetas)) != len(thetas):
            raise ProblemFormatError("duplicate parameter labels")
        if len(set(procs)) != len(procs):
            raise ProblemFormatError("duplicate procedure labels")
        rows = tuple(self.risk)
        if len(rows) != len(thetas):
            raise ProblemFormatError(
                f"risk matrix has {len(rows)} rows for {len(thetas)} parameters")
        matrix = []
        for i, row in enumerate(rows):
            row = tuple(row)
            if len(row) != len(procs):
                raise ProblemFormatError(
                    f"risk row {i} has {len(row)} entries for {len(procs)} procedures")
            matrix.append(tuple(_exact(v, f"risk[{i}][{j}]") for j, v in enumerate(row)))
        object.__setattr__(self, "theta_labels", thetas)
        object.__setattr__(self, "proc_labels", procs)
        object.__setattr__(self, "risk", tuple(matrix))
        den = lcm(*(v.denominator for row in matrix for v in row))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "irisk", tuple(
            tuple(v.numerator * (den // v.denominator) for v in row) for row in matrix))
        object.__setattr__(self, "_packed", {})

    def theta_index(self, label) -> int:
        try:
            return self.theta_labels.index(label)
        except ValueError:
            raise ValueError(f"unknown parameter label {label!r}") from None

    def proc_index(self, label) -> int:
        try:
            return self.proc_labels.index(label)
        except ValueError:
            raise ValueError(f"unknown procedure label {label!r}") from None


def risk_at(p: DecisionProblem, theta, proc) -> Fraction:
    return p.risk[p.theta_index(theta)][p.proc_index(proc)]


def mixture_risk(p: DecisionProblem, theta, m: Mixture) -> Fraction:
    if not p.allow_mixtures:
        raise ValueError("mixtures are disabled for this problem")
    i = p.theta_index(theta)
    total = Fraction(0)
    for label, w in m.weights.items():
        total += w * p.risk[i][p.proc_index(label)]
    return total


def bayes_risk(p: DecisionProblem, prior: Prior, delta):
    """Prior-weighted risk of a procedure label or a Mixture.

    Returns a Fraction for REAL priors, an LCNumber for HYPER priors.
    """
    for label in prior.weights:
        p.theta_index(label)
    if isinstance(delta, Mixture):
        per_theta = {t: mixture_risk(p, t, delta) for t in p.theta_labels}
    else:
        j = p.proc_index(delta)
        per_theta = {t: p.risk[i][j] for i, t in enumerate(p.theta_labels)}
    return sum(prior.weight(t) * per_theta[t] for t in p.theta_labels)


# -- integer passes over irisk -----------------------------------------------

def _risk_span(p: DecisionProblem):
    """(hi, lo, sums): the largest and the least entry of irisk and its column
    sums, computed on the first call and kept in ``p._packed``."""
    span = p._packed.get("span")
    if span is None:
        irisk = p.irisk
        span = p._packed["span"] = (max(map(max, irisk)), min(map(min, irisk)),
                                     [sum(c) for c in zip(*irisk)])
    return span


def _packed_risk(p: DecisionProblem, T: int):
    """(W, cols, rows): irisk packed at a field width W for entries below 2**T.

    ``cols[j]`` holds ``irisk[i][j]`` in field i (procedure j's risk column),
    ``rows[i]`` holds it in field j (parameter i's risk row), each packed as
    ``simplex._pack`` packs a row.  W is ``simplex._width`` of T, but never less
    than that of ``Tp = bits(max(hi - lo, den)) + bits(nt + 1)``, which is at
    least the T of the hull, risk-equal, certificate and witness LPs (the
    witness LP is the game's at q = 0, a = 1, with T = bits(max(hi - lo,
    den))): those share one packing, and only the Stein and game LPs, whose
    rows scale by eps's or gamma's parts, may need a wider one.  Both vectors are
    built together on the first call for a width and kept in ``p._packed``.
    """
    hi, lo, _ = _risk_span(p)
    Tp = max(hi - lo, p.den).bit_length() + (len(p.theta_labels) + 1).bit_length()
    W = _width(max(T, Tp))
    memo = p._packed.get(W)
    if memo is None:
        memo = p._packed[W] = ([_pack(c, W) for c in zip(*p.irisk)],
                               [_pack(r, W) for r in p.irisk])
    return (W, *memo)


def _packed_gaps(p: DecisionProblem, j0: int, T: int):
    """(W, G): delta0's gap rows ``G[i] = R_theta_i - r(theta_i, delta0) * ones``,
    ``R`` the packed risk rows of ``_packed_risk(p, T)``: field j of ``G[i]`` is
    ``irisk[i][j] - irisk[i][j0]``, 0 at delta0 and at most hi - lo in size."""
    W, _, rows = _packed_risk(p, T)
    ones = _ones(len(p.proc_labels), W)
    return W, [x - r[j0] * ones for x, r in zip(rows, p.irisk)]


def _int_weights(weights):
    """(w, q): rational weights as ints w[j] / q, q their least common denominator."""
    q = lcm(*(v.denominator for v in weights))
    return [v.numerator * (q // v.denominator) for v in weights], q


def _weighted_rows(matrix, w):
    """sum_j w[j] * row[j] for each row of an int matrix, with int weights w."""
    return [sum(map(mul, w, row)) for row in matrix]


def _mixture_gaps(p: DecisionProblem, w, q: int, j0: int):
    """(g, n): r(theta_i, mix) - r(theta_i, delta0) == g[i] / n for the mixture
    with weight w[j] / q on the j-th procedure."""
    s = _weighted_rows(p.irisk, w)
    return [si - q * row[j0] for si, row in zip(s, p.irisk)], q * p.den


def _bayes_gaps(p: DecisionProblem, w, q: int, j0: int):
    """(g, n): r(pi, delta_j) - r(pi, delta0) == g[j] / n for the prior with
    weight w[i] / q on the i-th parameter.

    The weights need not be a prior: the gaps are linear in them.
    """
    risks = _weighted_rows(zip(*p.irisk), w)
    return [r - risks[j0] for r in risks], q * p.den


def _lc_gaps(p: DecisionProblem, prior: Prior, j0: int):
    """Per procedure, r(pi, delta_j) - r(pi, delta0) as an LCNumber.

    One ``_bayes_gaps`` pass per power of eps in the prior's weights (a
    rational weight is its eps^0 term), so no Levi-Civita product is formed.
    """
    for label in prior.weights:
        p.theta_index(label)
    terms = [w.terms if isinstance(w, LCNumber) else {0: w}
             for w in map(prior.weight, p.theta_labels)]
    per_power = [(k, *_bayes_gaps(p, *_int_weights([t.get(k, 0) for t in terms]), j0))
                 for k in sorted(set().union(*terms))]
    return [LCNumber({k: Fraction(g[j], n) for k, g, n in per_power})
            for j in range(len(p.proc_labels))]


# -- serialization -----------------------------------------------------------

def _reject_float(s):
    raise ProblemFormatError(
        f"bare float {s!r} in problem file; write rationals as strings like \"1/3\" or \"0.25\"")


def _unique_keys(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ProblemFormatError(f"key {key!r} repeated in problem file")
        obj[key] = value
    return obj


def _parse_prior_weight(s, where: str):
    if isinstance(s, str) and ("ε" in s or "eps" in s):
        try:
            return parse_lc(s)
        except ValueError as ex:
            raise ProblemFormatError(f"{where}: {ex}") from ex
    return _exact(s, where)


def load_problem(data) -> DecisionProblem:
    """Parse a problem from JSON bytes or text, validating every invariant."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        raw = json.loads(data, parse_float=_reject_float, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as ex:
        raise ProblemFormatError(f"not valid JSON: line {ex.lineno} column {ex.colno}") from ex
    if not isinstance(raw, dict):
        raise ProblemFormatError("top level must be a JSON object")
    for key in ("theta", "procedures", "risk"):
        if key not in raw:
            raise ProblemFormatError(f"missing required field {key!r}")
    theta = raw["theta"]
    procs = raw["procedures"]
    risk = raw["risk"]
    if not isinstance(theta, list) or not all(isinstance(t, str) for t in theta):
        raise ProblemFormatError("field 'theta' must be a list of strings")
    if not isinstance(procs, list) or not all(isinstance(d, str) for d in procs):
        raise ProblemFormatError("field 'procedures' must be a list of strings")
    if not isinstance(risk, list) or not all(isinstance(row, list) for row in risk):
        raise ProblemFormatError("field 'risk' must be a list of rows")
    allow = raw.get("allow_mixtures", True)
    if not isinstance(allow, bool):
        raise ProblemFormatError("field 'allow_mixtures' must be a boolean")
    if not isinstance(raw.get("priors"), (dict, type(None))):
        raise ProblemFormatError("field 'priors' must be an object or null")
    priors = {}
    for name, spec in (raw.get("priors") or {}).items():
        if not isinstance(spec, dict):
            raise ProblemFormatError(f"prior {name!r} must map labels to weights")
        weights = {lbl: _parse_prior_weight(w, f"prior {name!r}, weight {lbl!r}")
                   for lbl, w in spec.items()}
        try:
            priors[name] = Prior(weights)
        except ValueError as ex:
            raise ProblemFormatError(f"prior {name!r}: {ex}") from ex
        if set(weights) - set(theta):
            raise ProblemFormatError(f"prior {name!r} references unknown labels")
    p = DecisionProblem(tuple(theta), tuple(procs), tuple(map(tuple, risk)), allow, priors)
    return p


def save_problem(p: DecisionProblem) -> bytes:
    doc = {
        "theta": list(p.theta_labels),
        "procedures": list(p.proc_labels),
        "risk": _fmt(p.risk),
        "allow_mixtures": p.allow_mixtures,
    }
    if p.priors:
        doc["priors"] = _fmt(p.priors)
    return (json.dumps(doc, ensure_ascii=False, indent=2) + "\n").encode("utf-8")


def random_problem(n_theta: int, n_proc: int, seed: int,
                   grid_denominator: int = 8) -> DecisionProblem:
    """Risk entries i.i.d. uniform on the grid {0, 1/q, ..., 1}, deterministic in seed.

    The coarse default grid keeps dominance gaps macroscopic, which the
    randomized equivalence suites rely on.
    """
    if n_theta < 1 or n_proc < 1:
        raise ValueError("sizes must be at least 1")
    if grid_denominator < 1:
        raise ValueError("grid_denominator must be at least 1")
    rng = random.Random(seed)
    risk = tuple(
        tuple(Fraction(rng.randint(0, grid_denominator), grid_denominator)
              for _ in range(n_proc))
        for _ in range(n_theta))
    return DecisionProblem(
        tuple(f"t{i+1}" for i in range(n_theta)),
        tuple(f"d{j+1}" for j in range(n_proc)),
        risk)
