"""Inputs and operations of the four benchmark workloads.

A run works through whole blocks of operations.  Every block of a workload
holds the same kinds of operation in the same proportions: one problem of
each size (``verdict_sweep``, ``wide_lp``, new problems in every block, so
a longer run sees more inputs), or the same list of reports and calls
(``gd_study``, ``cli_calls``).  Inputs come from the workload seed and the
block number only, through the benchmark's own generators; the program sees
nothing but the generated problems, parameters and files.

Calls into admlab go through module attributes at call time (for example
``adm.dominated_in_hull``), so the tracing wrappers in ``layers.py`` see them.
"""

from __future__ import annotations

import functools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import checks

EPS_GRID = (Fraction(1), Fraction(1, 10), Fraction(1, 100))
MC_SAMPLES = 10**6
CLI_MC_SAMPLES = 10**5
BLYTH_BETAS = (1e-1, 1e-2, 1e-3, 1e-4)


@dataclass
class Op:
    kind: str
    work: float                                  # what was asked, see README
    call: Callable[[], object]
    check: Callable[[object], list]              # messages; empty means pass
    replay: Optional[Callable[[], object]] = None   # cli: same argv as a subprocess


@dataclass
class Workload:
    name: str
    block: Callable[[int], list]                 # block number -> its operations
    warmup: Op                                   # the untimed warm-up operation
    threads: int = 1
    calibrated: bool = False                     # times scaled by calib.py
    extra_check: Callable[[list], list] = lambda outputs: []


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def workload_threads() -> int:
    return min(2, nproc())


# gd_study is timed at one thread.  On a shared 2-vCPU host a two-thread
# report waits for the slower vCPU, and its time moved by up to 25% between
# runs minutes apart while single-threaded work moved by 5% (README.md).
GD_THREADS = 1


def _labels(prefix, n):
    return tuple(f"{prefix}{k + 1}" for k in range(n))


def _risk(rng, nt, nd, q):
    return tuple(tuple(Fraction(rng.randint(0, q), q) for _ in range(nd))
                 for _ in range(nt))


def _indexed(labels, weights):
    """{label: w} -> {index: w} for the labels present."""
    return {labels.index(k): v for k, v in weights.items()}


def _row_weights(thetas, weights):
    return [weights.get(t, Fraction(0)) for t in thetas]


class _Refs:
    """linprog references, computed once per input and reused across repeats."""

    def __init__(self):
        self._memo = {}

    def get(self, key, fn, *args):
        if key not in self._memo:
            self._memo[key] = fn(*args)
        return self._memo[key]


# -- exact side: shared pieces ------------------------------------------------------

def _check_hull(refs, risk, procs, j0, dom):
    ref = refs.get(("dom", j0), checks.ref_dominance, risk, j0)
    mixture = _indexed(procs, dom.mixture.weights) if dom.mixture else None
    return checks.check_dominance(risk, j0, dom.dominated, dom.improvement, mixture, ref)


def _check_cert(adm, risk, thetas, procs, j0, cert):
    if isinstance(cert, adm.Certificate):
        return checks.check_certificate(risk, j0, _row_weights(thetas, cert.prior.weights))
    if cert.witness is not None:
        return checks.check_dominating_mixture(risk, j0, _indexed(procs, cert.witness.weights))
    return []


# -- verdict_sweep -----------------------------------------------------------------

SWEEP_SIZES = tuple((nt, nd) for nt in range(2, 7) for nd in range(2, 7))


def _verdicts(adm, p, d):
    """The four verdict routes for procedure d of problem p."""
    dom = adm.dominated_in_hull(p, d)
    cert = adm.positive_prior_certificate(p, d)
    steins = [adm.stein_check(p, d, t, e) for t in p.theta_labels for e in EPS_GRID]
    blyth = None
    if isinstance(cert, adm.Certificate):
        singles = tuple((t,) for t in p.theta_labels)
        blyth = adm.ns_blyth_check(p, d, cert.prior, cert.min_weight, singles)
    return dom, cert, steins, blyth


def _check_verdicts(adm, risk, thetas, procs, j0, refs, out):
    dom, cert, steins, blyth = out
    msgs = _check_hull(refs, risk, procs, j0, dom)
    msgs += _check_cert(adm, risk, thetas, procs, j0, cert)
    for s in steins:
        if s.feasible:
            msgs += checks.check_stein(risk, j0, thetas.index(s.theta0), s.eps,
                                       _row_weights(thetas, s.prior.weights),
                                       s.theta0_weight, s.excess, s.bound)
    admissible = not dom.dominated
    has_cert = isinstance(cert, adm.Certificate)
    stein_ok = all(s.feasible for s in steins)
    blyth_ok = blyth is None or (blyth.ok and blyth.excess.is_zero())
    if not (admissible == has_cert == stein_ok and blyth_ok):
        msgs.append(f"{procs[j0]}: routes disagree (hull {admissible}, certificate "
                    f"{has_cert}, stein {stein_ok}, blyth {blyth_ok})")
    return msgs


def build_verdict_sweep(seed):
    from admlab import DecisionProblem
    from admlab import admissibility as adm

    @functools.lru_cache(maxsize=None)
    def block(b):
        rng = random.Random(f"verdict_sweep/{seed}/{b}")
        ops = []
        for nt, nd in SWEEP_SIZES:
            risk = _risk(rng, nt, nd, 8)
            thetas, procs = _labels("t", nt), _labels("d", nd)
            p = DecisionProblem(thetas, procs, risk)
            refs = _Refs()
            for j0, d in enumerate(procs):
                ops.append(Op("verdicts", 1, functools.partial(_verdicts, adm, p, d),
                              functools.partial(_check_verdicts, adm, risk, thetas, procs,
                                                j0, refs)))
        return ops

    # the first procedure of the first 4 x 4 problem
    warm = sum(nd for _, nd in SWEEP_SIZES[:SWEEP_SIZES.index((4, 4))])
    return Workload("verdict_sweep", block, warmup=block(0)[warm], calibrated=True)


# -- wide_lp -----------------------------------------------------------------------

WIDE_SIZES = ((8, 8), (8, 10), (8, 12), (9, 9), (9, 11), (10, 8), (10, 10), (11, 9))
WIDE_GRID = 97


def _wide_op(adm, game, p, d, theta0, gamma):
    dom = adm.dominated_in_hull(p, d)
    cert = adm.positive_prior_certificate(p, d)
    wit = None
    if not dom.dominated and not dom.risk_equal:
        wit = adm.witness_set(p, d)
    g = game.derived_game_value(p, d, theta0, gamma)
    return dom, cert, wit, g


def _check_wide(adm, risk, thetas, procs, j0, i0, gamma, refs, out):
    dom, cert, wit, g = out
    msgs = _check_hull(refs, risk, procs, j0, dom)
    msgs += _check_cert(adm, risk, thetas, procs, j0, cert)
    if (not dom.dominated) != isinstance(cert, adm.Certificate):
        msgs.append("hull verdict and certificate disagree")
    if wit is not None:
        rows = [thetas.index(t) for t in wit.thetas]
        ref = refs.get(("wit", tuple(rows)), checks.ref_witness_margin, risk, j0, rows)
        msgs += checks.check_witness(wit.margin, wit.validated, ref)
    elif not dom.dominated and not dom.risk_equal:
        msgs.append("witness set missing for an admissible procedure")
    payoff = checks.game_payoff(risk, j0, i0, gamma)
    ref = refs.get("game", checks.ref_game_value, payoff)
    msgs += checks.check_game(payoff, g.lower, g.upper,
                              _row_weights(thetas, g.optimal_prior.weights),
                              _indexed(procs, g.optimal_mixture.weights), ref)
    return msgs


def build_wide_lp(seed):
    from admlab import DecisionProblem
    from admlab import admissibility as adm
    from admlab import game

    @functools.lru_cache(maxsize=None)
    def block(b):
        rng = random.Random(f"wide_lp/{seed}/{b}")
        ops = []
        for nt, nd in WIDE_SIZES:
            risk = _risk(rng, nt, nd, WIDE_GRID)
            thetas, procs = _labels("t", nt), _labels("d", nd)
            p = DecisionProblem(thetas, procs, risk)
            j0, i0 = rng.randrange(nd), rng.randrange(nt)
            gamma = Fraction(rng.randint(1, 4), 2)
            ops.append(Op("wide", 1,
                          functools.partial(_wide_op, adm, game, p, procs[j0], thetas[i0], gamma),
                          functools.partial(_check_wide, adm, risk, thetas, procs, j0, i0,
                                            gamma, _Refs())))
        return ops

    return Workload("wide_lp", block, warmup=block(0)[WIDE_SIZES.index((9, 9))],
                    calibrated=True)


# -- gd_study ----------------------------------------------------------------------

@dataclass(frozen=True)
class GDSetting:
    mc_seed: int
    mu: float
    sigma1_sq: float
    sigma2_sq: float
    n: int = 5
    alpha: float = 0.25
    beta: float = 0.01           # prior scale for risk_diff and the mass bound
    excess_beta: float = 1e-3
    rect: tuple = (1.0, 2.0, 1.0, 2.0)


# A fixed pool, every setting audited by perfbench/tests: the statistical
# checks use 3- and 4-SE tolerances, so settings drawn afresh from each
# seed would fail now and then on correct code.  The workload seed picks
# one.  Only the generator seed and the sampling model's parameters vary;
# the prior shape, scales and rectangle stay fixed because the gamma
# sampler and the quadrature take longer for some of them, which would
# make run time depend on the seed.
GD_POOL = (
    GDSetting(101, 0.0, 1.0, 2.0),
    GDSetting(102, 1.0, 0.5, 1.0),
    GDSetting(103, -0.5, 2.0, 4.0),
    GDSetting(104, 2.0, 1.5, 3.0),
    GDSetting(105, 0.0, 3.0, 1.0),
    GDSetting(106, 1.0, 1.0, 1.0),
    GDSetting(107, -0.5, 4.0, 2.0),
    GDSetting(108, 2.0, 0.5, 2.0),
)


def gd_setting(seed) -> GDSetting:
    return GD_POOL[seed % len(GD_POOL)]


def _pair(est):
    return est.mean, est.std_error


def gd_checks(s: GDSetting):
    """Check functions for the five Monte Carlo reports of setting s."""
    refs = _Refs()

    def risk(rep):
        return checks.check_risk_c1(_pair(rep.direct), _pair(rep.analytic), _pair(rep.bias))

    def diff(est):
        own = refs.get("diff", checks.own_risk_diff, s.mu, s.sigma1_sq, s.sigma2_sq, s.n,
                       s.alpha, s.beta, MC_SAMPLES, s.mc_seed)
        return checks.check_against_own("risk_diff", _pair(est), own)

    def excess(rep):
        own = refs.get("excess", checks.own_excess, s.alpha, s.excess_beta, s.n,
                       MC_SAMPLES, s.mc_seed)
        return checks.check_excess(_pair(rep.excess), _pair(rep.upper_mc),
                                   _pair(rep.beta_route), s.excess_beta, own)

    def mass(rep):
        exact = refs.get("mass", checks.invgamma_rect_mass, s.alpha, s.beta, s.rect)
        mc_mass = _pair(rep.mc_mass) if rep.mc_mass is not None else None
        msgs = checks.check_mass(rep.quad_mass, mc_mass, exact)
        return msgs + ([] if mc_mass else ["mass report carries no Monte Carlo mass"])

    def blyth(rep):
        own = refs.get("blyth", checks.own_excess, s.alpha, BLYTH_BETAS[0], s.n,
                       MC_SAMPLES, s.mc_seed)
        rows = [(r.beta, r.excess.mean, r.excess.std_error, r.ratio) for r in rep.rows]
        if len(rows) != len(BLYTH_BETAS):
            return [f"blyth report has {len(rows)} rows"]
        return checks.check_blyth(rows, own)

    return risk, diff, excess, mass, blyth


def build_gd_study(seed):
    from admlab.graybill_deal import mc, model
    s = gd_setting(seed)
    threads = GD_THREADS
    cfg = mc.MCConfig(n_samples=MC_SAMPLES, seed=s.mc_seed, threads=threads)
    theta = model.GDParams(s.mu, s.sigma1_sq, s.sigma2_sq, s.n)
    prior = model.GDPriorParams(s.alpha, s.beta, s.n)
    phi_bayes = functools.partial(model.phi_bayes, prior=prior)
    rect = model.RectangleO(*s.rect)
    c_risk, c_diff, c_excess, c_mass, c_blyth = gd_checks(s)
    ops = [
        Op("risk_c1", MC_SAMPLES, lambda: mc.risk_c1(theta, model.phi_gd, cfg), c_risk),
        Op("risk_diff", MC_SAMPLES,
           lambda: mc.risk_diff(theta, model.phi_gd, phi_bayes, cfg), c_diff),
        Op("excess_bayes_risk", MC_SAMPLES,
           lambda: mc.excess_bayes_risk(model.GDPriorParams(s.alpha, s.excess_beta, s.n), cfg),
           c_excess),
        Op("prior_mass_bound", MC_SAMPLES,
           lambda: mc.prior_mass_bound(rect, prior, mc=cfg), c_mass),
        Op("blyth_sequence_report", MC_SAMPLES * len(BLYTH_BETAS),
           lambda: mc.blyth_sequence_report(s.alpha, s.n, BLYTH_BETAS, rect, cfg), c_blyth),
    ]

    def same_across_threads(outputs):
        first = next((out for op, out in outputs if op is ops[0]), None)
        if first is None:
            return ["no risk_c1 report to compare across thread counts"]
        other = workload_threads()
        again = mc.risk_c1(theta, model.phi_gd,
                           mc.MCConfig(n_samples=MC_SAMPLES, seed=s.mc_seed, threads=other))
        if repr(again.as_dict()) != repr(first.as_dict()):
            return [f"risk_c1 differs between {threads} and {other} threads"]
        return []

    return Workload("gd_study", lambda b: ops, warmup=ops[1], threads=threads, calibrated=True,
                    extra_check=same_across_threads)


# -- cli_calls ----------------------------------------------------------------------

CLI_THETAS, CLI_PROCS = 4, 5


def cli_problem(seed):
    """A 4 x 5 problem on the 1/8 grid with known verdicts.

    d1 alone has risk 0 at t1, so it is the unique Bayes procedure under a
    prior concentrated near t1: admissible, with no risk-equal mixture.
    d5 is d1 plus 1/8 everywhere, so d1 dominates it.
    """
    rng = random.Random(f"cli_calls/{seed}")
    risk = [[Fraction(rng.randint(0, 8), 8) for _ in range(CLI_PROCS - 1)]
            for _ in range(CLI_THETAS)]
    risk[0][0] = Fraction(0)
    for j in range(1, CLI_PROCS - 1):
        risk[0][j] = Fraction(rng.randint(1, 8), 8)
    for row in risk:
        row.append(row[0] + Fraction(1, 8))
    return tuple(tuple(row) for row in risk)


def _fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _cli_checks(risk, gd: GDSetting, gen_seed, gen: Path):
    """(argv tail, expected exit code, stdout check) for each call of a round."""
    thetas, procs = _labels("t", CLI_THETAS), _labels("d", CLI_PROCS)
    refs = _Refs()
    eta = Fraction(1, 64 * CLI_THETAS)
    blyth_prior = [1 - (CLI_THETAS - 1) * eta] + [eta] * (CLI_THETAS - 1)
    dominated = CLI_PROCS - 1

    def dom_report(j0, rep):
        mixture = rep["mixture"]
        mix = {procs.index(k): Fraction(v) for k, v in mixture.items()} if mixture else None
        ref = refs.get(("dom", j0), checks.ref_dominance, risk, j0)
        return checks.check_dominance(risk, j0, rep["dominated"], Fraction(rep["improvement"]),
                                      mix, ref)

    def check_all(pl):
        msgs = []
        for j0, d in enumerate(procs):
            msgs += dom_report(j0, pl["reports"][d])
        expect = [d for j0, d in enumerate(procs)
                  if refs.get(("dom", j0), checks.ref_dominance, risk, j0) <= checks.LP_TOL]
        if pl["admissible_set"] != expect:
            msgs.append(f"admissible set {pl['admissible_set']} != {expect}")
        return msgs

    def check_one(pl):
        return dom_report(dominated, pl) + ([] if pl["dominated"] else ["d5 not dominated"])

    def certify(pl):
        w = [Fraction(pl["prior"][t]) for t in thetas]
        return checks.check_certificate(risk, 0, w)

    def witness(pl):
        rows = [thetas.index(t) for t in pl["thetas"]]
        ref = refs.get(("wit", tuple(rows)), checks.ref_witness_margin, risk, 0, rows)
        return checks.check_witness(Fraction(pl["margin"]), pl["validated"], ref)

    def stein(pl):
        if not pl["feasible"]:
            return ["stein infeasible for an admissible procedure"]
        w = [Fraction(pl["prior"].get(t, "0")) for t in thetas]
        return checks.check_stein(risk, 0, 1, Fraction(1, 100), w, Fraction(pl["theta0_weight"]),
                                  Fraction(pl["excess"]), Fraction(pl["bound"]))

    def ns_stein(pl):
        prior = {0: (Fraction(1), Fraction(-1)), 1: (Fraction(0), Fraction(1))}
        ok, excess = checks.ns_stein_expected(risk, 0, prior, (0, 1), Fraction(1, 100))
        msgs = [] if pl["ok"] == ok else [f"ns stein ok={pl['ok']}, expected {ok}"]
        if excess != (0, 0) or pl["excess"] != "0":
            msgs.append(f"ns stein excess {pl['excess']}, expected 0")
        return msgs

    def ns_blyth(pl):
        msgs = checks.check_certificate(risk, 0, blyth_prior)
        if not (pl["ok"] and pl["excess"] == "0"):
            msgs.append(f"ns blyth ok={pl['ok']} excess={pl['excess']} under a Bayes prior")
        return msgs

    def game_check(pl):
        gamma = Fraction(1, 2)
        payoff = checks.game_payoff(risk, 0, 1, gamma)
        ref = refs.get("game", checks.ref_game_value, payoff)
        prior = [Fraction(pl["optimal_prior"].get(t, "0")) for t in thetas]
        mix = {procs.index(k): Fraction(v) for k, v in pl["optimal_mixture"].items()}
        return checks.check_game(payoff, Fraction(pl["lower"]), Fraction(pl["upper"]), prior, mix, ref)

    def gd_risk(pl):
        return checks.check_risk_c1(
            (pl["direct"]["mean"], pl["direct"]["std_error"]),
            (pl["analytic"]["mean"], pl["analytic"]["std_error"]),
            (pl["bias"]["mean"], pl["bias"]["std_error"]))

    first_gen = {}

    def gen_file(stdout):
        """gen writes a 3 x 4 problem on the 1/8 grid in [0, 1], the same every call."""
        text = gen.read_text(encoding="utf-8")
        if first_gen.setdefault("text", text) != text:
            return ["gen output differs between calls with the same seed"]
        doc = json.loads(text)
        if doc["theta"] != ["t1", "t2", "t3"] or doc["procedures"] != ["d1", "d2", "d3", "d4"]:
            return ["gen labels are wrong"]
        cells = [Fraction(v) for row in doc["risk"] for v in row]
        if len(doc["risk"]) != 3 or len(cells) != 12:
            return ["gen risk matrix has the wrong shape"]
        if any(not 0 <= v <= 1 or (v * 8).denominator != 1 for v in cells):
            return ["gen risk entry off the 1/8 grid"]
        return []

    def payload(check):
        return lambda stdout: check(json.loads(stdout))

    prior_spec = ", ".join(f"{t}:{_fmt(w)}" for t, w in zip(thetas, blyth_prior))
    threads = GD_THREADS
    return [
        (["check", "{problem}"], 0, payload(check_all)),
        (["check", "{problem}", "--delta", procs[dominated]], 1, payload(check_one)),
        (["certify", "{problem}", "--delta", "d1"], 0, payload(certify)),
        (["witness", "{problem}", "--delta", "d1"], 0, payload(witness)),
        (["stein", "{problem}", "--delta", "d1", "--theta", "t2", "--eps", "1/100"], 0,
         payload(stein)),
        (["ns", "{problem}", "--delta", "d1", "--mode", "stein", "--prior", "t1:1-eps, t2:eps",
          "--eps", "1/100", "--family", "t1, t2"], 0, payload(ns_stein)),
        (["ns", "{problem}", "--delta", "d1", "--mode", "blyth", "--prior", prior_spec,
          "--rho", _fmt(eta), "--family", "; ".join(thetas)], 0, payload(ns_blyth)),
        (["game", "{problem}", "--delta", "d1", "--theta0", "t2", "--gamma", "1/2"], 0,
         payload(game_check)),
        (["gen", "--theta", "3", "--procs", "4", "--seed", str(gen_seed), "-o", str(gen)], 0,
         gen_file),
        (["gd", "risk", "--mu", repr(gd.mu), "--sigma1-sq", repr(gd.sigma1_sq),
          "--sigma2-sq", repr(gd.sigma2_sq), "--n", str(gd.n),
          "--samples", str(CLI_MC_SAMPLES), "--seed", str(gd.mc_seed),
          "--threads", str(threads)], 0, payload(gd_risk)),
    ]


def cli_env(src: Path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("ADMLAB_")}
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_cli(argv, env, cwd):
    r = subprocess.run([sys.executable, "-m", "admlab.cli", *argv], env=env, cwd=cwd,
                       capture_output=True, text=True, timeout=60)
    return r.returncode, r.stdout, r.stderr


def _cli_result_check(expected, check, out):
    code, stdout, stderr = out
    if code != expected:
        return [f"exit code {code}, expected {expected}: {stderr.strip()[-200:]}"]
    return check(stdout)


def _cli_session(calls):
    return [_cli_in_process(argv) for argv, _, _ in calls]


def _check_session(calls, outs):
    msgs = []
    for (argv, expected, check), out in zip(calls, outs):
        msgs += [f"{argv[0]}: {m}" for m in _cli_result_check(expected, check, out)]
    return msgs


def _replay_session(calls, env, cwd):
    return [_run_cli(argv, env, cwd) for argv, _, _ in calls]


def _cli_in_process(argv):
    """One CLI call through ``cli.main`` in this process: (exit code, stdout, stderr)."""
    import contextlib
    import io
    from admlab import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:      # argparse rejected the argv
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def build_cli_calls(seed, root: Path, workdir: Path):
    import admlab.cli  # noqa: F401  (start-up a CLI user waits for: part of set-up)
    risk = cli_problem(seed)
    problem = workdir / "problem.json"
    doc = {"theta": list(_labels("t", CLI_THETAS)), "procedures": list(_labels("d", CLI_PROCS)),
           "risk": [[_fmt(v) for v in row] for row in risk], "allow_mixtures": True}
    problem.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    env = cli_env(root / "src")
    calls = [([a.format(problem=problem) for a in tail], expected, check)
             for tail, expected, check in _cli_checks(risk, gd_setting(seed), seed,
                                                      workdir / "gen.json")]
    # One operation is the whole session of ten calls: single calls cost 2-40 ms
    # each, and the median of such a mix moved by 0.14 between seeds.
    op = Op("cli", len(calls), functools.partial(_cli_session, calls),
            functools.partial(_check_session, calls),
            replay=functools.partial(_replay_session, calls, env, str(workdir)))
    return Workload("cli_calls", lambda b: [op], warmup=op, threads=GD_THREADS, calibrated=True)


BUILDERS = {
    "verdict_sweep": build_verdict_sweep,
    "wide_lp": build_wide_lp,
    "gd_study": build_gd_study,
    "cli_calls": build_cli_calls,
}
