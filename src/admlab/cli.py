"""Batch command-line front end.

Machine-readable payloads (JSON, or CSV for the shrinking-beta table) go
to standard output; diagnostics go to standard error.  Exit codes:

    0  success / affirmative verdict
    1  negative mathematical verdict (dominated, infeasible, bound missed)
    2  input error (malformed file, bad flag value, unknown label)
    3  internal error

The argument parser is built once per process, on the first ``main`` call,
and reused by every later call; ``import admlab.cli`` does not build it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import traceback
from fractions import Fraction
from pathlib import Path

from . import __version__
from .admissibility import (
    Certificate,
    admissible_set,
    dominated_in_hull,
    dominates,
    ns_blyth_check,
    ns_stein_check,
    positive_prior_certificate,
    stein_check,
    witness_set,
)
from .decision import (
    Prior,
    ProblemFormatError,
    load_problem,
    random_problem,
    save_problem,
)
from .game import derived_game_value
from .hyperreal import parse_lc

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2))


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def _read_problem(path: str):
    return load_problem(Path(path).read_bytes())


def _rational(text: str) -> Fraction:
    """An exact rational flag value; a zero denominator is an input error too."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _parse_prior_spec(spec: str) -> Prior:
    """'t1:1-eps, t2:eps' -> Prior; values go through the LC parser."""
    weights = {}
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        label, sep, expr = chunk.partition(":")
        if not sep or not label.strip() or not expr.strip():
            raise ValueError(f"cannot parse prior entry {chunk!r}; "
                             "expected label:weight")
        label = label.strip()
        if label in weights:
            raise ValueError(f"prior label {label!r} repeated")
        weights[label] = parse_lc(expr.strip())
    if not weights:
        raise ValueError("empty prior specification")
    return Prior(weights)


def _parse_family_spec(spec: str):
    """Semicolon-separated groups of comma/space-separated labels."""
    family = []
    for group in spec.split(";"):
        labels = tuple(part for part in group.replace(",", " ").split() if part)
        if labels:
            family.append(labels)
    if not family:
        raise ValueError("empty family specification")
    return tuple(family)


def _parse_rect(spec: str):
    from .graybill_deal import RectangleO
    parts = [part.strip() for part in spec.split(",")]
    if len(parts) != 4:
        raise ValueError("rectangle must be a1,b1,a2,b2")
    return RectangleO(*(float(part) for part in parts))


def _parse_betas(spec: str):
    betas = [float(part) for part in spec.split(",") if part.strip()]
    if not betas:
        raise ValueError("empty beta list")
    return betas


def _mc_config(args):
    from .graybill_deal import MCConfig
    return MCConfig(n_samples=args.samples, seed=args.seed, threads=args.threads)


def _resolve_phi(spec: str, args, n: int):
    import numpy as np
    from .graybill_deal import GDPriorParams, phi_bayes, phi_gd
    if spec == "gd":
        return phi_gd
    if spec == "bayes":
        if args.alpha is None or args.beta is None:
            raise ValueError("--phi bayes needs --alpha and --beta")
        return functools.partial(phi_bayes,
                                 prior=GDPriorParams(args.alpha, args.beta, n))
    try:
        value = float(spec)
    except ValueError:
        raise ValueError(f"unknown phi spec {spec!r}; "
                         "use gd, bayes, or a constant") from None
    if not math.isfinite(value):
        raise ValueError(f"constant phi must be finite, got {spec!r}")
    return lambda s1, s2: np.full_like(np.asarray(s1, dtype=np.float64), value)


# -- exact-arithmetic commands --------------------------------------------------

def cmd_check(args) -> int:
    p = _read_problem(args.problem)
    if args.delta is not None:
        if p.allow_mixtures:
            rep = dominated_in_hull(p, args.delta)
            _emit(rep.as_dict())
            return EXIT_NEGATIVE if rep.dominated else EXIT_OK
        p.proc_index(args.delta)
        by = [d for d in p.proc_labels if d != args.delta
              and dominates(p, d, args.delta)]
        _emit({"delta0": args.delta, "dominated": bool(by),
               "dominated_by": by or None})
        return EXIT_NEGATIVE if by else EXIT_OK
    if p.allow_mixtures:
        reports = {d: dominated_in_hull(p, d) for d in p.proc_labels}
        admissible = {d for d, rep in reports.items() if not rep.dominated}
    else:
        admissible = admissible_set(p)
    payload = {
        "allow_mixtures": p.allow_mixtures,
        "admissible_set": [d for d in p.proc_labels if d in admissible],
    }
    if p.allow_mixtures:
        payload["reports"] = {d: rep.as_dict() for d, rep in reports.items()}
    _emit(payload)
    return EXIT_OK


def cmd_certify(args) -> int:
    p = _read_problem(args.problem)
    result = positive_prior_certificate(p, args.delta)
    _emit(result.as_dict())
    return EXIT_OK if isinstance(result, Certificate) else EXIT_NEGATIVE


def cmd_witness(args) -> int:
    p = _read_problem(args.problem)
    p.proc_index(args.delta)      # unknown label is an input error, not a verdict
    if not p.allow_mixtures:      # and so is a problem without mixtures
        raise ValueError("witness_set needs mixtures enabled")
    try:
        w = witness_set(p, args.delta)
    except ValueError as exc:
        _emit({"delta0": args.delta, "witness": None, "reason": str(exc)})
        return EXIT_NEGATIVE
    _emit(w.as_dict())
    if not w.validated:
        _diag("the restriction LP's dual prior failed to confirm the margin")
        return EXIT_INTERNAL
    return EXIT_OK


def cmd_stein(args) -> int:
    p = _read_problem(args.problem)
    res = stein_check(p, args.delta, args.theta, _rational(args.eps))
    _emit(res.as_dict())
    return EXIT_OK if res.feasible else EXIT_NEGATIVE


def cmd_ns(args) -> int:
    p = _read_problem(args.problem)
    prior = _parse_prior_spec(args.prior)
    family = _parse_family_spec(args.family)
    if args.mode == "stein":
        if args.eps is None:
            raise ValueError("--mode stein needs --eps")
        if len(family) != 1:
            raise ValueError("--mode stein takes exactly one family group")
        rep = ns_stein_check(p, args.delta, prior, family[0], _rational(args.eps))
    else:
        if args.rho is None:
            raise ValueError("--mode blyth needs --rho")
        rep = ns_blyth_check(p, args.delta, prior, parse_lc(args.rho), family)
    _emit(rep.as_dict())
    return EXIT_OK if rep.ok else EXIT_NEGATIVE


def cmd_game(args) -> int:
    p = _read_problem(args.problem)
    rep = derived_game_value(p, args.delta, args.theta0, _rational(args.gamma))
    _emit(rep.as_dict())
    return EXIT_OK


def cmd_gen(args) -> int:
    p = random_problem(args.theta, args.procs, args.seed)
    data = save_problem(p).decode("utf-8")
    if args.output:
        Path(args.output).write_text(data, encoding="utf-8")
        _diag(f"wrote {args.theta}x{args.procs} problem (seed {args.seed}) "
              f"to {args.output}")
    else:
        sys.stdout.write(data)
        _diag(f"generated {args.theta}x{args.procs} problem with seed {args.seed}")
    return EXIT_OK


# -- Monte Carlo commands --------------------------------------------------------
# graybill_deal pulls in numpy (scipy.special too for gd mass), so only these import it.

def cmd_gd_risk(args) -> int:
    from .graybill_deal import GDParams, risk_c1
    theta = GDParams(args.mu, args.sigma1_sq, args.sigma2_sq, args.n)
    phi = _resolve_phi(args.phi, args, args.n)
    rep = risk_c1(theta, phi, _mc_config(args))
    payload = rep.as_dict()
    payload["phi"] = args.phi
    _emit(payload)
    return EXIT_OK


def cmd_gd_diff(args) -> int:
    from .graybill_deal import GDParams, risk_diff
    theta = GDParams(args.mu, args.sigma1_sq, args.sigma2_sq, args.n)
    phi0 = _resolve_phi(args.phi0, args, args.n)
    phi1 = _resolve_phi(args.phi1, args, args.n)
    est = risk_diff(theta, phi0, phi1, _mc_config(args))
    _emit({
        "mu": args.mu, "sigma1_sq": args.sigma1_sq, "sigma2_sq": args.sigma2_sq,
        "n": args.n, "phi0": args.phi0, "phi1": args.phi1,
        "mean": est.mean, "std_error": est.std_error,
        "n_samples": est.n_samples, "seed": est.seed,
    })
    return EXIT_OK


def cmd_gd_excess(args) -> int:
    from .graybill_deal import GDPriorParams, ReportCheckError, excess_bayes_risk
    prior = GDPriorParams(args.alpha, args.beta, args.n)
    try:
        rep = excess_bayes_risk(prior, _mc_config(args))
    except ReportCheckError as exc:
        _diag(str(exc))
        return EXIT_NEGATIVE
    _emit(rep.as_dict())
    return EXIT_OK


def cmd_gd_mass(args) -> int:
    from .graybill_deal import GDPriorParams, ReportCheckError, prior_mass_bound
    prior = GDPriorParams(args.alpha, args.beta, args.n)
    rect = _parse_rect(args.rect)
    if args.samples < 0:
        raise ValueError("--samples must be >= 0 (0 skips the Monte Carlo cross-check)")
    mc = _mc_config(args) if args.samples else None
    try:
        rep = prior_mass_bound(rect, prior, mc=mc)
    except ReportCheckError as exc:
        _diag(str(exc))
        return EXIT_NEGATIVE
    _emit(rep.as_dict())
    return EXIT_OK


def cmd_gd_blyth(args) -> int:
    from .graybill_deal import ReportCheckError, blyth_sequence_report
    rect = _parse_rect(args.rect)
    betas = _parse_betas(args.betas)
    try:
        rep = blyth_sequence_report(args.alpha, args.n, betas, rect,
                                    _mc_config(args))
    except ReportCheckError as exc:
        _diag(str(exc))
        return EXIT_NEGATIVE
    if args.format == "json":
        _emit(rep.as_dict())
    else:
        sys.stdout.write(rep.csv())
    if rep.slow_convergence:
        _diag("slow convergence: 1 - 2*alpha is small, ratios decay slowly")
    return EXIT_OK


# -- parser ----------------------------------------------------------------------

def _add_mc_flags(sub) -> None:
    sub.add_argument("--samples", type=int, default=10**6,
                     help="Monte Carlo sample count (default 1e6)")
    sub.add_argument("--seed", type=int, default=0,
                     help="generator seed, embedded in the report (default 0)")
    sub.add_argument("--threads", type=int, default=None,
                     help="shard worker threads (default: ADMLAB_THREADS or auto)")


def _add_model_flags(sub) -> None:
    sub.add_argument("--mu", type=float, default=0.0)
    sub.add_argument("--sigma1-sq", type=float, required=True, dest="sigma1_sq")
    sub.add_argument("--sigma2-sq", type=float, required=True, dest="sigma2_sq")
    sub.add_argument("--n", type=int, default=5)
    sub.add_argument("--alpha", type=float, default=None,
                     help="prior shape, needed when a bayes phi is used")
    sub.add_argument("--beta", type=float, default=None,
                     help="prior scale, needed when a bayes phi is used")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser; parsing does not change it, so it is built once."""
    parser = argparse.ArgumentParser(
        prog="admlab",
        description="Workbench for admissibility in finite decision problems.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("check", help="dominance / admissibility verdict")
    s.add_argument("problem")
    s.add_argument("--delta", default=None,
                   help="procedure to check; omit to list the admissible set")
    s.set_defaults(func=cmd_check)

    s = sub.add_parser("certify", help="positive-prior Bayes certificate")
    s.add_argument("problem")
    s.add_argument("--delta", required=True)
    s.set_defaults(func=cmd_certify)

    s = sub.add_parser("witness", help="witnessing parameter set, not always minimal")
    s.add_argument("problem")
    s.add_argument("--delta", required=True)
    s.set_defaults(func=cmd_witness)

    s = sub.add_parser("stein", help="near-minimax feasibility at one parameter")
    s.add_argument("problem")
    s.add_argument("--delta", required=True)
    s.add_argument("--theta", required=True)
    s.add_argument("--eps", required=True, help="excess budget, exact rational")
    s.set_defaults(func=cmd_stein)

    s = sub.add_parser("ns", help="infinitesimal-prior checks")
    s.add_argument("problem")
    s.add_argument("--delta", required=True)
    s.add_argument("--prior", required=True,
                   help="comma-separated label:weight with eps terms, "
                        "e.g. 't1:1-eps,t2:eps'")
    s.add_argument("--family", required=True,
                   help="semicolon-separated label groups, e.g. 't1;t2,t3'")
    s.add_argument("--mode", choices=("stein", "blyth"), required=True)
    s.add_argument("--eps", default=None, help="excess budget (stein mode)")
    s.add_argument("--rho", default=None, help="mass floor (blyth mode)")
    s.set_defaults(func=cmd_ns)

    s = sub.add_parser("game", help="derived zero-sum game value")
    s.add_argument("problem")
    s.add_argument("--delta", required=True)
    s.add_argument("--theta0", required=True)
    s.add_argument("--gamma", required=True, help="weight on the far term")
    s.set_defaults(func=cmd_game)

    s = sub.add_parser("gen", help="emit a random problem file")
    s.add_argument("--theta", type=int, required=True)
    s.add_argument("--procs", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("-o", "--output", default=None)
    s.set_defaults(func=cmd_gen)

    gd = sub.add_parser("gd", help="two-sample common-mean studies")
    gdsub = gd.add_subparsers(dest="gd_command", required=True)

    s = gdsub.add_parser("risk", help="risk of one shrinkage weight")
    _add_model_flags(s)
    s.add_argument("--phi", default="gd", help="gd, bayes, or a constant")
    _add_mc_flags(s)
    s.set_defaults(func=cmd_gd_risk)

    s = gdsub.add_parser("diff", help="risk difference of two weights")
    _add_model_flags(s)
    s.add_argument("--phi0", default="gd")
    s.add_argument("--phi1", default="bayes")
    _add_mc_flags(s)
    s.set_defaults(func=cmd_gd_diff)

    s = gdsub.add_parser("excess", help="Bayes-risk gap of the variance weight")
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--beta", type=float, required=True)
    s.add_argument("--n", type=int, default=5)
    _add_mc_flags(s)
    s.set_defaults(func=cmd_gd_excess)

    s = gdsub.add_parser("mass", help="prior mass lower bound on a rectangle")
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--beta", type=float, required=True)
    s.add_argument("--n", type=int, default=5)
    s.add_argument("--rect", default="1,2,1,2", help="a1,b1,a2,b2")
    _add_mc_flags(s)
    s.set_defaults(func=cmd_gd_mass)

    s = gdsub.add_parser("blyth", help="excess/mass ratios along shrinking beta")
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--n", type=int, default=5)
    s.add_argument("--betas", default="1e-1,1e-2,1e-3,1e-4",
                   help="comma-separated, strictly decreasing")
    s.add_argument("--rect", default="1,2,1,2", help="a1,b1,a2,b2")
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_mc_flags(s)
    s.set_defaults(func=cmd_gd_blyth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ProblemFormatError, ValueError, OSError) as exc:
        _diag(f"error: {exc}")
        return EXIT_INPUT
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
