"""Tests of the benchmark itself: every output check must be able to fail.

    python3 -m pytest -q perfbench/tests

The checks pass on the program's real outputs and reject a tampered copy:
one certificate weight changed, a game value off by 1/1000, a Monte Carlo
mean moved by 10 standard errors.  The Monte Carlo settings of the
gd_study pool all pass every statistical check, and the counts of a timed
and a traced run agree.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402
from admlab import DecisionProblem  # noqa: E402
from admlab import admissibility as adm  # noqa: E402
from admlab import game  # noqa: E402

RISK = tuple(tuple(Fraction(v, 8) for v in row) for row in
             ((0, 3, 5, 1), (4, 1, 2, 6), (6, 5, 0, 7)))
THETAS, PROCS = ("t1", "t2", "t3"), ("d1", "d2", "d3", "d4")
PROBLEM = DecisionProblem(THETAS, PROCS, RISK)


def _weights(cert):
    return [cert.prior.weights[t] for t in THETAS]


def test_certificate_check_rejects_one_changed_weight():
    cert = adm.positive_prior_certificate(PROBLEM, "d1")
    assert isinstance(cert, adm.Certificate)
    w = _weights(cert)
    assert checks.check_certificate(RISK, 0, w) == []
    for k in range(len(w)):
        tampered = list(w)
        tampered[k] += Fraction(1, 1000)
        assert checks.check_certificate(RISK, 0, tampered)


def test_certificate_check_rejects_a_prior_that_is_not_bayes():
    # positive and summing to 1, but d3 beats d1 under it
    assert checks.check_certificate(RISK, 0, [Fraction(1, 10), Fraction(1, 10), Fraction(4, 5)])


def test_dominance_check_rejects_a_wrong_value_and_a_bad_mixture():
    rep = adm.dominated_in_hull(PROBLEM, "d4")
    assert rep.dominated
    ref = checks.ref_dominance(RISK, 3)
    mix = {PROCS.index(k): v for k, v in rep.mixture.weights.items()}
    assert checks.check_dominance(RISK, 3, True, rep.improvement, mix, ref) == []
    assert checks.check_dominance(RISK, 3, True, rep.improvement + Fraction(1, 1000), mix, ref)
    assert checks.check_dominance(RISK, 3, True, rep.improvement, {2: Fraction(1)}, ref)


def test_game_check_rejects_a_value_off_by_one_thousandth():
    gamma = Fraction(1, 2)
    g = game.derived_game_value(PROBLEM, "d1", "t2", gamma)
    payoff = checks.game_payoff(RISK, 0, 1, gamma)
    ref = checks.ref_game_value(payoff)
    prior = [g.optimal_prior.weights.get(t, Fraction(0)) for t in THETAS]
    mix = {PROCS.index(k): v for k, v in g.optimal_mixture.weights.items()}
    assert checks.check_game(payoff, g.lower, g.upper, prior, mix, ref) == []
    off = Fraction(1, 1000)
    assert checks.check_game(payoff, g.lower + off, g.upper + off, prior, mix, ref)
    assert checks.check_game(payoff, g.lower, g.upper + off, prior, mix, ref)


def test_witness_check_rejects_a_wrong_margin():
    w = adm.witness_set(PROBLEM, "d1")
    rows = [THETAS.index(t) for t in w.thetas]
    ref = checks.ref_witness_margin(RISK, 0, rows)
    assert checks.check_witness(w.margin, w.validated, ref) == []
    assert checks.check_witness(w.margin + Fraction(1, 1000), True, ref)


def _moved(est, k=10.0):
    return dataclasses.replace(est, mean=est.mean + k * est.std_error)


@pytest.fixture(scope="module")
def gd_reports():
    """The five reports of the first pool setting, as the workload makes them."""
    wl = workloads.build_gd_study(0)
    return wl, [op.call() for op in wl.block(0)]


def test_monte_carlo_checks_pass_and_reject_a_mean_moved_by_ten_se(gd_reports):
    wl, (risk, diff, excess, mass, blyth) = gd_reports
    for op, rep in zip(wl.block(0), (risk, diff, excess, mass, blyth)):
        assert op.check(rep) == [], op.kind
    c_risk, c_diff, c_excess, c_mass, c_blyth = (op.check for op in wl.block(0))
    assert c_risk(dataclasses.replace(risk, direct=_moved(risk.direct)))
    assert c_risk(dataclasses.replace(risk, bias=_moved(risk.bias)))
    assert c_diff(_moved(diff))
    assert c_excess(dataclasses.replace(excess, excess=_moved(excess.excess)))
    assert c_mass(dataclasses.replace(mass, mc_mass=_moved(mass.mc_mass)))
    row = blyth.rows[0]
    rows = (dataclasses.replace(row, excess=_moved(row.excess)),) + tuple(blyth.rows[1:])
    assert c_blyth(dataclasses.replace(blyth, rows=rows))


def test_every_gd_pool_setting_passes_every_check():
    for seed in range(len(workloads.GD_POOL)):
        wl = workloads.build_gd_study(seed)
        outputs = [(op, op.call()) for op in wl.block(0)]
        for op, out in outputs:
            assert op.check(out) == [], (seed, op.kind)
        assert wl.extra_check(outputs) == [], seed


def test_every_gd_pool_setting_passes_the_cli_risk_check():
    from admlab.graybill_deal import mc, model
    for s in workloads.GD_POOL:
        rep = mc.risk_c1(model.GDParams(s.mu, s.sigma1_sq, s.sigma2_sq, s.n), model.phi_gd,
                         mc.MCConfig(workloads.CLI_MC_SAMPLES, s.mc_seed, 1))
        pairs = [(e.mean, e.std_error) for e in (rep.direct, rep.analytic, rep.bias)]
        assert checks.check_risk_c1(*pairs) == [], s


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload,count", [("gd_study", "mc.shards"),
                                            ("verdict_sweep", "simplex.pivots")])
def test_counts_repeat_between_timed_and_traced_runs(workload, count):
    args = ["--workload", workload, "--seed", "3", "--seconds", "0"]
    timed = _run(args + ["--trace", "0"], ROOT)
    traced = _run(args + ["--trace", "1"], ROOT)
    assert timed.returncode == traced.returncode == 0
    out = BENCH / "out"
    a = json.loads((out / f"{workload}-seed3-trace0.json").read_text())["counts_per_block"]
    b = json.loads((out / f"{workload}-seed3-trace1.json").read_text())["counts_per_block"]
    assert a == b and a[0][count] > 0


def test_blocks_depend_on_seed_and_block_number_only():
    one, two = workloads.build_wide_lp(5), workloads.build_wide_lp(5)
    assert [op.call.args[2].risk for op in one.block(2)] == \
        [op.call.args[2].risk for op in two.block(2)]
    assert [op.call.args[2].risk for op in one.block(1)] != \
        [op.call.args[2].risk for op in one.block(2)]
    gd = workloads.build_gd_study(5)
    assert gd.block(0) is gd.block(7)


def test_run_fails_without_the_program_source():
    (BENCH / "out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=BENCH / "out"))
    try:
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        res = _run(["--workload", "wide_lp", "--seed", "0", "--seconds", "10", "--trace", "0"],
                   bare)
    finally:
        shutil.rmtree(bare)
    assert res.returncode != 0
    assert not res.stdout.strip()
