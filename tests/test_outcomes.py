"""Every public checker answers with a report.

A checker raises only for bad input (``ValueError``, the CLI's exit 2) or
for an internal fault (exit 3).  A negative verdict is a report: each exact
checker reports on a dominated delta0, and each Graybill-Deal report whose
own check fails comes back with ``ok`` false.
"""

import json
from fractions import Fraction as F

import pytest

from admlab import admissibility as adm
from admlab.decision import DecisionProblem, Prior
from admlab.game import derived_game_value
from admlab.graybill_deal import (
    GDPriorParams,
    MCConfig,
    RectangleO,
    blyth_sequence_report,
    excess_bayes_risk,
    kernels,
    mc,
    prior_mass_bound,
)

# d1 and d2 each beat d0 by at least 1 at every theta
DOMINATED = DecisionProblem(("t1", "t2"), ("d0", "d1", "d2"), ((2, 0, 1), (2, 1, 0)))
HALF = Prior({"t1": F(1, 2), "t2": F(1, 2)})
SQUARE = RectangleO(1.0, 2.0, 1.0, 2.0)
CFG = MCConfig(n_samples=4096, seed=3, threads=1)


def test_every_exact_checker_reports_on_a_dominated_delta0():
    reports = {
        "hull": adm.dominated_in_hull(DOMINATED, "d0"),
        "certificate": adm.positive_prior_certificate(DOMINATED, "d0"),
        "witness": adm.witness_set(DOMINATED, "d0"),
        "stein": adm.stein_check(DOMINATED, "d0", "t1", F(1, 100)),
        "ns_stein": adm.ns_stein_check(DOMINATED, "d0", HALF, ("t1",), F(1, 100)),
        "ns_blyth": adm.ns_blyth_check(DOMINATED, "d0", HALF, F(1, 2), [("t1",), ("t2",)]),
        "game": derived_game_value(DOMINATED, "d0", "t1", F(1, 2)),
    }
    assert reports["hull"].dominated
    cert = reports["certificate"]
    assert isinstance(cert, adm.NoPositivePrior) and not cert.any_prior
    assert cert.witness is not None
    assert reports["witness"] == adm.NoWitness(
        "d0", "d0 is dominated in the hull; no witness set exists")
    assert not reports["stein"].feasible
    assert not reports["ns_stein"].ok
    assert not reports["ns_blyth"].ok and not reports["ns_blyth"].ratio_ok
    # d1 pays less than d0 at every theta, so the game's value is negative
    assert reports["game"].determined and reports["game"].upper < 0
    for rep in reports.values():
        json.dumps(rep.as_dict())


@pytest.fixture
def failing_estimates(monkeypatch):
    def constant_excess(t1, t2, beta, coef):
        # every draw's excess is 10: far past 2*beta, and flat in beta, so
        # the Blyth ratios grow as beta shrinks
        return 10.0 * t1.size, 100.0 * t1.size
    monkeypatch.setattr(kernels, "excess_sums", constant_excess)
    # the mass bound 1e9 * beta^(2 alpha) lies far above any mass
    monkeypatch.setattr(mc, "mass_constant", lambda O, alpha: 1e9)


def test_failed_gd_checks_are_reports_with_ok_false(failing_estimates):
    prior = GDPriorParams(0.25, 1e-3, 5)
    excess = excess_bayes_risk(prior, CFG)
    assert not excess.ok and excess.excess.mean > excess.claim_limit
    mass = prior_mass_bound(SQUARE, prior, mc=CFG)
    assert not mass.ok and mass.quad_mass < mass.lower_bound
    blyth = blyth_sequence_report(0.25, 5, [1e-2, 1e-3], SQUARE, CFG)
    assert not blyth.ok and blyth.rows[1].ratio > blyth.rows[0].ratio
    for rep in (excess, mass, blyth):
        assert rep.as_dict()["ok"] is False


@pytest.mark.parametrize("power, ok", [(0.6, False), (0.9, True)])
def test_blyth_ok_needs_the_decay_target(monkeypatch, power, ok):
    # excess ~ beta^power against a mass bound ~ beta^(2 alpha) = beta^0.5:
    # the ratios fall like beta^(power - 0.5) in both cases, and over three
    # decades the target asks for at least (1e-3)^0.25, about 0.18; 0.6 falls
    # to 0.50 of the first ratio and misses it, 0.9 falls to 0.06
    def excess(t1, t2, beta, coef):
        return beta ** power * t1.size, beta ** (2 * power) * t1.size
    monkeypatch.setattr(kernels, "excess_sums", excess)
    rep = blyth_sequence_report(0.25, 5, [1e-1, 1e-2, 1e-3, 1e-4], SQUARE, CFG)
    ratios = [row.ratio for row in rep.rows]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert rep.ok is ok and rep.as_dict()["ok"] is ok
