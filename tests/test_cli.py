"""End-to-end command-line behavior: payloads, exit codes, round trips."""

import ast
import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import exact_outputs
from admlab import admissibility, cli, game, simplex
from admlab.admissibility import dominated_in_hull
from admlab.decision import DecisionProblem, Prior, load_problem, random_problem, save_problem
from admlab.game import derived_game_value
from admlab.simplex import _solve_packed


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


@pytest.fixture
def two_point(tmp_path):
    p = DecisionProblem(("t1", "t2"), ("d0", "d1"), ((0, 1), (1, 0)))
    path = tmp_path / "two_point.json"
    path.write_bytes(save_problem(p))
    return str(path)


@pytest.fixture
def with_dominated(tmp_path):
    # dbad has risk (2,2); the d0/d1 mixtures cut strictly below it
    p = DecisionProblem(("t1", "t2"), ("d0", "d1", "dbad"),
                        ((0, 1, 2), (1, 0, 2)))
    path = tmp_path / "dominated.json"
    path.write_bytes(save_problem(p))
    return str(path)


class TestCheck:
    def test_listing(self, capsys, two_point):
        code, payload, _ = run_json(capsys, "check", two_point)
        assert code == 0
        assert payload["admissible_set"] == ["d0", "d1"]
        assert payload["reports"]["d0"]["dominated"] is False

    def test_listing_builds_each_hull_report_once(self, capsys, monkeypatch, with_dominated):
        calls = []

        def counted(p, delta0):
            calls.append(delta0)
            return dominated_in_hull(p, delta0)
        monkeypatch.setattr(cli, "dominated_in_hull", counted)
        monkeypatch.setattr(admissibility, "dominated_in_hull", counted)
        code, payload, _ = run_json(capsys, "check", with_dominated)
        assert code == 0 and payload["admissible_set"] == ["d0", "d1"]
        assert calls == ["d0", "d1", "dbad"]

    def test_dominated_delta_exits_one(self, capsys, with_dominated):
        code, payload, _ = run_json(capsys, "check", with_dominated,
                                    "--delta", "dbad")
        assert code == 1
        assert payload["dominated"] is True
        assert payload["mixture"] is not None

    def test_admissible_delta_exits_zero(self, capsys, with_dominated):
        code, payload, _ = run_json(capsys, "check", with_dominated,
                                    "--delta", "d0")
        assert code == 0
        assert payload["dominated"] is False

    def test_vertex_only_check(self, capsys, tmp_path):
        p = DecisionProblem(("t1", "t2"), ("d0", "d1"), ((0, 1), (1, 0)),
                            allow_mixtures=False)
        path = tmp_path / "vertex.json"
        path.write_bytes(save_problem(p))
        code, payload, _ = run_json(capsys, "check", str(path),
                                    "--delta", "d0")
        assert code == 0
        assert payload["dominated"] is False
        code, payload, _ = run_json(capsys, "check", str(path))
        assert code == 0
        assert payload["admissible_set"] == ["d0", "d1"]
        assert "reports" not in payload


class TestCertify:
    def test_two_point_gives_the_symmetric_prior(self, capsys, two_point):
        code, payload, _ = run_json(capsys, "certify", two_point,
                                    "--delta", "d0")
        assert code == 0
        assert payload["verdict"] == "certificate"
        assert payload["prior"] == {"t1": "1/2", "t2": "1/2"}
        assert payload["min_weight"] == "1/2"

    def test_dominated_gets_no_certificate(self, capsys, with_dominated):
        code, payload, _ = run_json(capsys, "certify", with_dominated,
                                    "--delta", "dbad")
        assert code == 1
        assert payload["verdict"] == "no_positive_prior"
        assert payload["witness"] is not None


class TestWitness:
    def test_admissible_vertex(self, capsys, two_point):
        code, payload, _ = run_json(capsys, "witness", two_point,
                                    "--delta", "d0")
        assert code == 0
        assert payload["validated"] is True
        assert payload["margin"] is not None

    def test_dominated_vertex_is_a_negative_verdict(self, capsys,
                                                    with_dominated):
        code, payload, _ = run_json(capsys, "witness", with_dominated,
                                    "--delta", "dbad")
        assert code == 1
        assert payload["witness"] is None
        assert "dominated" in payload["reason"]

    @staticmethod
    def _with_duals(capsys, tmp_path, monkeypatch, first, rest):
        """``admlab witness`` for d0 = (1, 1) against d1 = (0, 3) and d2 = (3, 0),
        whose set is {t1, t2} with margin 1/2, the restriction LP's duals
        replaced by first and then rest."""
        p = DecisionProblem(("t1", "t2"), ("d0", "d1", "d2"), ((1, 0, 3), (1, 3, 0)))
        path = tmp_path / "three.json"
        path.write_bytes(save_problem(p))

        def moved(*args, **kwargs):
            res = _solve_packed(*args, **kwargs)
            return dataclasses.replace(res, ynum=[first] + [rest] * (len(res.ynum) - 1))
        monkeypatch.setattr(game, "_solve_packed", moved)
        code, out, err = run(capsys, "witness", str(path), "--delta", "d0")
        payload = json.loads(out)
        assert payload["thetas"] == ["t1", "t2"] and payload["margin"] == "1/2"
        return code, payload, err

    def test_an_unconfirmed_margin_is_an_internal_fault(self, capsys, tmp_path, monkeypatch):
        # duals moved onto t1 alone give a prior under which d1 beats d0, so
        # the margin is unconfirmed and the CLI exits 3
        code, payload, err = self._with_duals(capsys, tmp_path, monkeypatch, 1, 0)
        assert code == 3
        assert payload["validated"] is False and payload["validation_value"] == "1"
        assert "dual prior" in err

    def test_duals_that_are_no_prior_are_an_internal_fault(self, capsys, tmp_path, monkeypatch):
        # a negative dual is no prior at all, so there is no validation value
        code, payload, err = self._with_duals(capsys, tmp_path, monkeypatch, -1, 2)
        assert code == 3
        assert payload["validated"] is False and payload["validation_value"] is None
        assert "dual prior" in err

    def test_a_problem_without_mixtures_is_an_input_error(self, capsys, tmp_path):
        # witness sets, like the derived game, range over mixtures: a file
        # that disables them is bad input (exit 2), not a negative verdict
        p = DecisionProblem(("t1", "t2"), ("d0", "d1"), ((0, 1), (1, 0)),
                            allow_mixtures=False)
        path = tmp_path / "vertex.json"
        path.write_bytes(save_problem(p))
        for argv in (("witness", str(path), "--delta", "d0"),
                     ("game", str(path), "--delta", "d0", "--theta0", "t1", "--gamma", "1")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error:") and "mixtures enabled" in err, argv


class TestStein:
    def test_feasible(self, capsys, two_point):
        code, payload, _ = run_json(capsys, "stein", two_point,
                                    "--delta", "d0", "--theta", "t1",
                                    "--eps", "1/10")
        assert code == 0
        assert payload["feasible"] is True

    def test_infeasible(self, capsys, with_dominated):
        code, payload, _ = run_json(capsys, "stein", with_dominated,
                                    "--delta", "dbad", "--theta", "t1",
                                    "--eps", "1/10")
        assert code == 1
        assert payload["feasible"] is False

    def test_bad_eps_is_an_input_error(self, capsys, two_point):
        code, _, err = run(capsys, "stein", two_point, "--delta", "d0",
                           "--theta", "t1", "--eps", "0")
        assert code == 2
        assert "eps" in err


class TestNs:
    def test_stein_mode_passes_with_the_certificate_prior(self, capsys,
                                                          two_point):
        code, payload, _ = run_json(capsys, "ns", two_point, "--delta", "d0",
                                    "--prior", "t1:1/2,t2:1/2",
                                    "--family", "t1,t2",
                                    "--mode", "stein", "--eps", "1")
        assert code == 0
        assert payload["ok"] is True

    def test_blyth_mode_passes(self, capsys, two_point):
        code, payload, _ = run_json(capsys, "ns", two_point, "--delta", "d0",
                                    "--prior", "t1:1/2,t2:1/2",
                                    "--family", "t1;t2",
                                    "--mode", "blyth", "--rho", "1/2")
        assert code == 0
        assert payload["ok"] is True
        assert payload["mass_ok"] is True and payload["ratio_ok"] is True

    def test_infinitesimal_prior_terms_parse(self, capsys, two_point):
        code, payload, _ = run_json(capsys, "ns", two_point, "--delta", "d0",
                                    "--prior", "t1:1-eps,t2:eps",
                                    "--family", "t1;t2",
                                    "--mode", "blyth", "--rho", "eps")
        assert code == 0
        assert payload["ok"] is True

    def test_failing_verdict(self, capsys, with_dominated):
        code, payload, _ = run_json(capsys, "ns", with_dominated,
                                    "--delta", "dbad",
                                    "--prior", "t1:1-eps,t2:eps",
                                    "--family", "t1;t2",
                                    "--mode", "blyth", "--rho", "eps")
        assert code == 1
        assert payload["ok"] is False

    def test_mode_flag_requirements(self, capsys, two_point):
        code, _, err = run(capsys, "ns", two_point, "--delta", "d0",
                           "--prior", "t1:1/2,t2:1/2", "--family", "t1,t2",
                           "--mode", "stein")
        assert code == 2 and "--eps" in err
        code, _, err = run(capsys, "ns", two_point, "--delta", "d0",
                           "--prior", "t1:1/2,t2:1/2", "--family", "t1;t2",
                           "--mode", "blyth")
        assert code == 2 and "--rho" in err
        code, _, err = run(capsys, "ns", two_point, "--delta", "d0",
                           "--prior", "t1:1/2,t2:1/2", "--family", "t1;t2",
                           "--mode", "stein", "--eps", "1")
        assert code == 2 and "one family group" in err

    def test_prior_spec_errors(self, capsys, two_point):
        code, _, err = run(capsys, "ns", two_point, "--delta", "d0",
                           "--prior", "garbage", "--family", "t1",
                           "--mode", "stein", "--eps", "1")
        assert code == 2
        assert "prior entry" in err

    def test_a_repeated_prior_label_is_an_input_error(self, capsys, two_point):
        # kept last-wins, it would parse as {t1: 1, t2: 0}
        code, out, err = run(capsys, "ns", two_point, "--delta", "d0",
                             "--prior", "t1:1, t1:1, t2:0", "--family", "t1",
                             "--mode", "stein", "--eps", "1")
        assert code == 2 and out == ""
        assert "prior label 't1' repeated" in err

    def test_a_repeated_family_label_is_an_input_error(self, capsys, tmp_path):
        # excess 1/4 misses prior(t1) * eps = 1/6; t1 counted twice would pass
        path = tmp_path / "repeat.json"
        path.write_bytes(save_problem(
            DecisionProblem(("t1", "t2"), ("d0", "d1"), ((1, 0), (0, F(1, 2))))))
        argv = ("ns", str(path), "--delta", "d0", "--prior", "t1:1/2,t2:1/2",
                "--mode", "stein", "--eps", "1/3", "--family")
        code, payload, _ = run_json(capsys, *argv, "t1")
        assert code == 1 and payload["ok"] is False and payload["bound"] == "1/6"
        code, out, err = run(capsys, *argv, "t1 t1")
        assert code == 2 and out == ""
        assert "repeats parameter label 't1'" in err

    def test_prior_term_of_degree_20_gets_its_exact_verdict(self, capsys, tmp_path):
        # the weight eps^20 at t3 is kept, so the bound is eps^20 / 100
        path = tmp_path / "demo.json"
        path.write_bytes(save_problem(random_problem(3, 4, 7)))
        argv = ("ns", str(path), "--prior", "t2:1-eps^20, t3:eps^20",
                "--mode", "stein", "--eps", "1/100", "--family", "t3", "--delta")
        code, payload, err = run_json(capsys, *argv, "d1")
        assert code == 0 and err == ""
        assert payload == {"ok": True, "excess": "0", "bound": "1/100ε^20"}
        # d3 ties d1 at t2 and trails it by 3/8 at t3: an excess at degree
        # 20 alone, past the bound
        code, payload, err = run_json(capsys, *argv, "d3")
        assert code == 1 and err == ""
        assert payload == {"ok": False, "excess": "3/8ε^20", "bound": "1/100ε^20"}

    @pytest.mark.parametrize("argv, where", [
        (("--mode", "blyth", "--prior", "t1:4/13, t2:5/13, t3:4/13", "--rho", "1 0",
          "--family", "t1; t2; t3"), "--rho"),
        (("--mode", "stein", "--prior", "t2:1/1 0, t3:9/10", "--eps", "1/100",
          "--family", "t2, t3"), "--prior: weight for 't2'"),
    ], ids=["rho", "prior"])
    def test_a_space_inside_a_number_is_an_input_error(self, capsys, tmp_path, argv, where):
        # with the space dropped, rho would read 10 and pi(t2) 1/10: both pass
        path = tmp_path / "demo.json"
        path.write_bytes(save_problem(random_problem(3, 4, 7)))
        code, out, err = run(capsys, "ns", str(path), "--delta", "d1", *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {where}: cannot parse '0' in Levi-Civita literal")


class TestGame:
    def test_value_is_determined(self, capsys, two_point):
        code, payload, _ = run_json(capsys, "game", two_point,
                                    "--delta", "d0", "--theta0", "t1",
                                    "--gamma", "1/2")
        assert code == 0
        assert payload["determined"] is True
        assert payload["lower"] == payload["upper"]


class TestGen:
    def test_emits_loadable_problem(self, capsys):
        code, out, err = run(capsys, "gen", "--theta", "3", "--procs", "4",
                             "--seed", "7")
        assert code == 0
        p = load_problem(out)
        assert len(p.theta_labels) == 3 and len(p.proc_labels) == 4
        assert "seed 7" in err

    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run(capsys, "gen", "--theta", "2", "--procs", "2",
                           "--seed", "1", "-o", str(target))
        assert code == 0
        assert out == ""
        load_problem(target.read_bytes())

    def test_round_trip_through_check(self, capsys, tmp_path):
        # gen output must feed back into check cleanly for 100 seeds
        for seed in range(100):
            target = tmp_path / f"rt{seed}.json"
            code, _, _ = run(capsys, "gen", "--theta", str(2 + seed % 3),
                             "--procs", str(2 + seed % 4), "--seed", str(seed),
                             "-o", str(target))
            assert code == 0
            code, out, _ = run(capsys, "check", str(target))
            assert code == 0
            assert json.loads(out)["admissible_set"]


class TestGd:
    def test_risk_payload(self, capsys):
        code, payload, _ = run_json(capsys, "gd", "risk",
                                    "--sigma1-sq", "1", "--sigma2-sq", "2",
                                    "--samples", "4096", "--seed", "3")
        assert code == 0
        assert payload["seed"] == 3
        assert payload["phi"] == "gd"
        assert payload["direct"]["n_samples"] == 4096

    def test_constant_phi(self, capsys):
        code, payload, _ = run_json(capsys, "gd", "risk",
                                    "--sigma1-sq", "1", "--sigma2-sq", "2",
                                    "--phi", "0.25", "--samples", "4096")
        assert code == 0
        assert payload["phi"] == "0.25"

    def test_diff_of_identical_weights_is_zero(self, capsys):
        code, payload, _ = run_json(capsys, "gd", "diff",
                                    "--sigma1-sq", "1", "--sigma2-sq", "2",
                                    "--phi0", "gd", "--phi1", "gd",
                                    "--samples", "4096")
        assert code == 0
        assert payload["mean"] == 0.0

    def test_excess(self, capsys):
        code, payload, _ = run_json(capsys, "gd", "excess",
                                    "--alpha", "0.25", "--beta", "1e-3",
                                    "--samples", "8192", "--seed", "5")
        assert code == 0
        assert payload["ok"] is True
        assert payload["seed"] == 5

    def test_excess_bad_regime_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "gd", "excess", "--alpha", "0.25",
                           "--beta", "1e-3", "--n", "2", "--samples", "4096")
        assert code == 2
        assert "2*alpha" in err

    def test_mass(self, capsys):
        code, payload, _ = run_json(capsys, "gd", "mass",
                                    "--alpha", "0.25", "--beta", "1e-3",
                                    "--samples", "8192")
        assert code == 0
        assert payload["quad_mass"] > payload["lower_bound"]
        assert "mc_mass" in payload

    def test_mass_without_sampling(self, capsys):
        code, payload, _ = run_json(capsys, "gd", "mass",
                                    "--alpha", "0.25", "--beta", "1e-3",
                                    "--samples", "0")
        assert code == 0
        assert "mc_mass" not in payload

    def test_mass_precondition_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "gd", "mass", "--alpha", "0.4",
                           "--beta", "0.8", "--samples", "0")
        assert code == 2
        assert "ln(2)" in err

    def test_blyth_csv(self, capsys):
        code, out, _ = run(capsys, "gd", "blyth", "--alpha", "0.25",
                           "--samples", "8192", "--seed", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "beta,excess_mean,excess_se,mass_bound,ratio"
        assert len(lines) == 5
        ratios = [float(line.split(",")[4]) for line in lines[1:]]
        assert ratios == sorted(ratios, reverse=True)

    def test_blyth_json_and_slow_flag(self, capsys):
        code, out, err = run(capsys, "gd", "blyth", "--alpha", "0.49",
                             "--betas", "1e-2,1e-3", "--samples", "4096",
                             "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["slow_convergence"] is True
        assert "slow convergence" in err

    def test_bad_rect_is_an_input_error(self, capsys):
        code, _, _ = run(capsys, "gd", "mass", "--alpha", "0.25",
                         "--beta", "1e-3", "--rect", "1,2,3", "--samples", "0")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("risk", "--sigma1-sq", "1", "--sigma2-sq", "nan"),
        ("risk", "--sigma1-sq", "inf", "--sigma2-sq", "2"),
        ("risk", "--sigma1-sq", "1", "--sigma2-sq", "2", "--mu", "nan"),
        ("diff", "--sigma1-sq", "1", "--sigma2-sq", "2", "--mu=-inf"),
        ("risk", "--sigma1-sq", "1", "--sigma2-sq", "2", "--phi", "nan"),
        ("diff", "--sigma1-sq", "1", "--sigma2-sq", "2", "--phi1", "inf"),
        ("risk", "--sigma1-sq", "1", "--sigma2-sq", "2", "--phi", "bayes",
         "--alpha", "0.25", "--beta", "inf"),
        ("excess", "--alpha", "0.25", "--beta", "nan"),
        ("mass", "--alpha", "0.25", "--beta", "inf"),
    ])
    def test_non_finite_input_is_an_input_error(self, capsys, argv):
        code, out, err = run(capsys, "gd", *argv, "--samples", "1000", "--threads", "1")
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_negative_samples_are_an_input_error(self, capsys):
        code, out, err = run(capsys, "gd", "mass", "--alpha", "0.25",
                             "--beta", "0.01", "--samples", "-5")
        assert code == 2
        assert out == ""
        assert "--samples" in err

    def test_increasing_betas_are_an_input_error(self, capsys):
        code, _, _ = run(capsys, "gd", "blyth", "--alpha", "0.25",
                         "--betas", "1e-3,1e-2", "--samples", "4096")
        assert code == 2

    # each report with the kernel (or helper) it reaches; --samples 4096 so
    # mass runs its Monte Carlo cross-check
    GD_CHECKED = [
        (("excess", "--alpha", "0.25", "--beta", "1e-3"), "excess_sums"),
        (("mass", "--alpha", "0.25", "--beta", "1e-3"), "rect_count"),
        (("blyth", "--alpha", "0.25", "--betas", "1e-2,1e-3"), "excess_sums"),
    ]

    @pytest.mark.parametrize("argv, kernel", GD_CHECKED, ids=[a[0] for a, _ in GD_CHECKED])
    def test_a_faulty_kernel_is_an_internal_error(self, capsys, monkeypatch, argv, kernel):
        from admlab.graybill_deal import kernels

        def boom(*args):
            raise RuntimeError("wires crossed")
        monkeypatch.setattr(kernels, kernel, boom)
        code, out, err = run(capsys, "gd", *argv, "--samples", "4096", "--threads", "1")
        assert code == 3
        assert out == ""
        assert "wires crossed" in err and "Traceback" in err

    @pytest.mark.parametrize("argv, kernel", GD_CHECKED, ids=[a[0] for a, _ in GD_CHECKED])
    def test_a_failed_report_check_is_a_negative_verdict(self, capsys, monkeypatch,
                                                         argv, kernel):
        from admlab.graybill_deal import kernels, mc

        def constant_excess(t1, t2, beta, coef):
            # every draw's excess is 10: far past 2*beta, and flat in beta,
            # so the Blyth ratios grow as beta shrinks
            return 10.0 * t1.size, 100.0 * t1.size
        monkeypatch.setattr(kernels, "excess_sums", constant_excess)
        # the mass bound 1e9 * beta^(2 alpha) lies far above any mass
        monkeypatch.setattr(mc, "mass_constant", lambda O, alpha: 1e9)
        # the report still goes to stdout, saying "ok": false; blyth's CSV
        # has no ok column, so only the exit code tells there
        code, out, err = run(capsys, "gd", *argv, "--samples", "4096", "--threads", "1")
        assert code == 1
        assert "Traceback" not in err
        if argv[0] == "blyth":
            assert out.splitlines()[0] == "beta,excess_mean,excess_se,mass_bound,ratio"
            assert len(out.splitlines()) == 3
            code, out, err = run(capsys, "gd", *argv, "--samples", "4096", "--threads", "1",
                                 "--format", "json")
            assert code == 1 and "Traceback" not in err
        assert json.loads(out)["ok"] is False


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ("stein", "--delta", "d0", "--theta", "t1", "--eps", "1/0"),
        ("game", "--delta", "d0", "--theta0", "t1", "--gamma", "1/0"),
        ("ns", "--delta", "d0", "--prior", "t1:1/2,t2:1/2", "--family", "t1",
         "--mode", "stein", "--eps", "1/0"),
        ("ns", "--delta", "d0", "--prior", "t1:1/0,t2:eps", "--family", "t1",
         "--mode", "stein", "--eps", "1/10"),
        ("ns", "--delta", "d0", "--prior", "t1:1-eps,t2:eps", "--family", "t1;t2",
         "--mode", "blyth", "--rho", "1/0"),
    ], ids=["stein-eps", "game-gamma", "ns-eps", "ns-prior", "ns-rho"])
    def test_a_zero_denominator_is_an_input_error(self, capsys, two_point, argv):
        code, out, err = run(capsys, argv[0], two_point, *argv[1:])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "zero denominator" in err
        if argv[-1] == "1/0":
            # a bad flag names itself, and an exact-rational one the accepted form
            assert err.startswith(f"error: {argv[-2]}: zero denominator in '1/0'")
            assert (argv[-2] == "--rho") != ("; expected an exact rational" in err)
            assert (argv[-2] == "--rho") != ("1/100 (no exponent, no '_')" in err)
        else:  # a bad prior weight names the flag and the weight's label
            assert err.startswith("error: --prior: weight for 't1': zero denominator in '1/0'")

    def test_a_zero_denominator_in_a_problem_file_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"theta": ["t1", "t2"], "procedures": ["d0"],
                                    "risk": [["0"], ["1"]],
                                    "priors": {"pi": {"t1": "1/0 + eps", "t2": "-eps"}}}))
        code, out, err = run(capsys, "check", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "zero denominator" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent/problem.json")
        assert code == 2
        assert err

    def test_a_repeated_key_in_a_problem_file_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "twice.json"
        path.write_text('{"theta": ["t1"], "procedures": ["d0", "d1"], '
                        '"risk": [["0", "1"]], "risk": [["1", "0"]]}')
        code, out, err = run(capsys, "check", str(path), "--delta", "d0")
        assert code == 2 and out == ""
        assert "key 'risk' repeated" in err

    def test_a_list_of_priors_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "priors.json"
        for value in ('["x"]', "[]"):
            path.write_text('{"theta": ["t1"], "procedures": ["d1"], "risk": [["0"]], '
                            '"priors": %s}' % value)
            code, out, err = run(capsys, "check", str(path))
            assert code == 2 and out == ""
            assert "'priors' must be an object or null" in err

    @pytest.mark.parametrize("change, message", [
        (None, "top level must be a JSON object"),
        ({"theta": [], "risk": []}, "need at least one parameter and one procedure"),
        ({"theta": [1, "t2"]}, "field 'theta' must be a list of strings"),
        ({"procedures": ["d0", 1]}, "field 'procedures' must be a list of strings"),
        ({"procedures": ["d0", "d0"]}, "duplicate procedure labels"),
        ({"risk": "0"}, "field 'risk' must be a list of rows"),
        ({"risk": [["0", "1"]]}, "risk matrix has 1 rows for 2 parameters"),
        ({"risk": [[None, "1"], ["1", "0"]]}, "risk[0][0]: expected a rational, got NoneType"),
        ({"risk": [[True, "1"], ["1", "0"]]}, "risk[0][0]: expected a rational, got a boolean"),
        ({"allow_mixtures": "yes"}, "field 'allow_mixtures' must be a boolean"),
        ({"priors": {"pi": ["t1"]}}, "prior 'pi' must map labels to weights"),
        ({"priors": {"pi": {}}}, "prior 'pi': prior needs at least one weight"),
        ({"priors": {"pi": {"t9": "1"}}}, "prior 'pi' references unknown labels"),
        ({"priors": {"pi": {"t1": True}}},
         "prior 'pi', weight 't1': expected a rational, got a boolean"),
        # Python's numeric-literal extras: Fraction(str) alone reads these as 10,
        # 1/100, 1, 3 and (a prior summing to 1) 1/2
        ({"risk": [["1_0", "1"], ["1", "0"]]}, "risk[0][0]: cannot parse rational from '1_0'"),
        ({"risk": [["1e-2", "1"], ["1", "0"]]}, "risk[0][0]: cannot parse rational from '1e-2'"),
        ({"risk": [["1E0", "1"], ["1", "0"]]}, "risk[0][0]: cannot parse rational from '1E0'"),
        ({"risk": [["٣", "1"], ["1", "0"]]}, "risk[0][0]: cannot parse rational from '٣'"),
        ({"priors": {"pi": {"t1": "0.5_0", "t2": "1/2"}}},
         "prior 'pi', weight 't1': cannot parse '_0' in Levi-Civita literal '0.5_0'"),
    ], ids=["top-level", "no-labels", "theta-label", "procedure-label", "repeated-procedure",
            "risk-not-list", "risk-rows", "risk-entry", "risk-bool", "allow-mixtures",
            "prior-not-object", "empty-prior", "prior-labels", "prior-bool",
            "risk-underscore", "risk-exponent", "risk-upper-exponent", "risk-digit",
            "prior-underscore"])
    def test_a_rejected_problem_file_is_an_input_error(self, capsys, tmp_path, change, message):
        doc = {"theta": ["t1", "t2"], "procedures": ["d0", "d1"],
               "risk": [["0", "1"], ["1", "0"]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([doc] if change is None else {**doc, **change}))
        code, out, err = run(capsys, "check", str(path))
        assert code == 2 and out == ""
        assert message in err

    @pytest.mark.parametrize("argv, message", [
        (("ns", "{}", "--delta", "d0", "--prior", ",", "--family", "t1", "--mode", "stein",
          "--eps", "1"), "empty prior specification"),
        (("ns", "{}", "--delta", "d0", "--prior", "t1:1/2,t2:1/2", "--family", ";",
          "--mode", "stein", "--eps", "1"), "empty family specification"),
        (("gd", "blyth", "--alpha", "0.25", "--betas", ","), "empty beta list"),
        (("gd", "risk", "--sigma1-sq", "1", "--sigma2-sq", "2", "--phi", "bayes",
          "--alpha", "0.25"), "--phi bayes needs --alpha and --beta"),
        (("gd", "risk", "--sigma1-sq", "1", "--sigma2-sq", "2", "--phi", "gdx"),
         "unknown phi spec 'gdx'"),
        # Python's numeric-literal extras: Fraction(str) alone reads 1/100, 3, 10 and 100;
        # each message names the flag and the accepted form
        (("stein", "{}", "--delta", "d0", "--theta", "t1", "--eps", "1e-2"),
         "error: --eps: Invalid literal for Fraction: '1e-2'; expected an exact rational"),
        (("stein", "{}", "--delta", "d0", "--theta", "t1", "--eps", "٣"),
         "error: --eps: Invalid literal for Fraction: '٣'; expected an exact rational"),
        (("stein", "{}", "--delta", "d0", "--theta", "t1", "--eps", "1_0"),
         "error: --eps: Invalid literal for Fraction: '1_0'; expected an exact rational"),
        (("stein", "{}", "--delta", "d0", "--theta", "t1", "--eps", "x"),
         "error: --eps: Invalid literal for Fraction: 'x'; expected an exact rational"),
        (("game", "{}", "--delta", "d0", "--theta0", "t1", "--gamma", "1_0"),
         "error: --gamma: Invalid literal for Fraction: '1_0'; expected an exact rational"),
        (("game", "{}", "--delta", "d0", "--theta0", "t1", "--gamma", "1E2"),
         "error: --gamma: Invalid literal for Fraction: '1E2'; expected an exact rational"),
        (("game", "{}", "--delta", "d0", "--theta0", "t1", "--gamma", "x"),
         "error: --gamma: Invalid literal for Fraction: 'x'; expected an exact rational"),
        (("ns", "{}", "--delta", "d0", "--prior", "t1:1/2,t2:1/2", "--family", "t1,t2",
          "--mode", "stein", "--eps", "1e-2"),
         "error: --eps: Invalid literal for Fraction: '1e-2'; expected an exact rational"),
        (("ns", "{}", "--delta", "d0", "--prior", "t1:1/2,t2:1/2", "--family", "t1,t2",
          "--mode", "stein", "--eps", "1_0"),
         "error: --eps: Invalid literal for Fraction: '1_0'; expected an exact rational"),
        # a Levi-Civita flag or prior weight names itself too
        (("ns", "{}", "--delta", "d0", "--prior", "t1:1-eps,t2:eps", "--family", "t1;t2",
          "--mode", "blyth", "--rho", "1e-2"),
         "error: --rho: cannot parse 'e-2' in Levi-Civita literal '1e-2'"),
        (("ns", "{}", "--delta", "d0", "--prior", "t1:1-eps,t2:eps", "--family", "t1;t2",
          "--mode", "blyth", "--rho", "1 0"),
         "error: --rho: cannot parse '0' in Levi-Civita literal '1 0'"),
        (("ns", "{}", "--delta", "d0", "--prior", "t1:1-eps,t2:1e-2", "--family", "t1,t2",
          "--mode", "stein", "--eps", "1/100"),
         "error: --prior: weight for 't2': cannot parse 'e-2' in Levi-Civita literal '1e-2'"),
        # a flag that the chosen mode does not read, however well formed
        (("ns", "{}", "--delta", "d0", "--prior", "t1:1-eps,t2:eps", "--family", "t1;t2",
          "--mode", "blyth", "--rho", "1/4", "--eps", "1/100"),
         "error: --mode blyth takes no --eps"),
        (("ns", "{}", "--delta", "d0", "--prior", "t1:1-eps,t2:eps", "--family", "t1,t2",
          "--mode", "stein", "--eps", "1/100", "--rho", "1/4"),
         "error: --mode stein takes no --rho"),
    ], ids=["empty-prior", "empty-family", "empty-betas", "bayes-phi", "unknown-phi",
            "stein-eps-exponent", "stein-eps-digit", "stein-eps-underscore", "stein-eps-word",
            "game-gamma-underscore", "game-gamma-exponent", "game-gamma-word",
            "ns-eps-exponent", "ns-eps-underscore", "ns-rho-exponent", "ns-rho-space",
            "ns-prior-exponent", "ns-blyth-eps", "ns-stein-rho"])
    def test_a_rejected_option_is_an_input_error(self, capsys, two_point, argv, message):
        code, out, err = run(capsys, *(a.format(two_point) for a in argv))
        assert code == 2 and out == ""
        assert message in err

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"theta": ["t1"]}')
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "procedures" in err

    def test_unknown_label(self, capsys, two_point):
        code, _, err = run(capsys, "certify", two_point, "--delta", "zzz")
        assert code == 2
        assert "unknown procedure" in err

    def test_argparse_rejects_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_internal_errors_map_to_three(self, capsys, two_point,
                                          monkeypatch):
        def boom(p, delta0):
            raise RuntimeError("wires crossed")
        monkeypatch.setattr(cli, "dominated_in_hull", boom)
        code, _, err = run(capsys, "check", two_point, "--delta", "d0")
        assert code == 3
        assert "wires crossed" in err

    def test_invalid_lp_solution_is_an_internal_fault(self, capsys, two_point,
                                                      monkeypatch):
        # an LP whose solution carries a negative weight: the bad prior comes
        # from the program, not from the input file
        def negative(*args, **kwargs):
            res = _solve_packed(*args, **kwargs)
            return dataclasses.replace(res, num=[-2, 4, 1], D=2, objective=F(1, 2))
        monkeypatch.setattr(admissibility, "_solve_packed", negative)
        code, out, err = run(capsys, "certify", two_point, "--delta", "d0")
        assert code == 3
        assert out == ""
        assert "not a valid prior" in err

    def test_every_observed_code_is_canonical(self, capsys, two_point,
                                              with_dominated):
        codes = set()
        codes.add(run(capsys, "check", two_point)[0])
        codes.add(run(capsys, "check", with_dominated, "--delta", "dbad")[0])
        codes.add(run(capsys, "check", "/does/not/exist")[0])
        assert codes == {0, 1, 2}

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip()

    def test_payload_never_mixes_with_diagnostics(self, capsys, two_point):
        code, out, err = run(capsys, "certify", two_point, "--delta", "d0")
        json.loads(out)          # stdout is pure JSON
        assert "error" not in out


def _session(problem):
    """One call of every subcommand, a usage error and --version."""
    mc = ("--samples", "4096", "--threads", "1")
    return [
        ("check", problem),
        ("check", problem, "--delta", "dbad"),
        ("certify", problem, "--delta", "d0"),
        ("witness", problem, "--delta", "dbad"),
        ("stein", problem, "--delta", "d0", "--theta", "t1", "--eps", "1/10"),
        ("ns", problem, "--delta", "d0", "--prior", "t1:1-eps,t2:eps",
         "--family", "t1;t2", "--mode", "blyth", "--rho", "eps"),
        ("game", problem, "--delta", "d0", "--theta0", "t1", "--gamma", "1/2"),
        ("gen", "--theta", "2", "--procs", "3", "--seed", "4"),
        ("gd", "risk", "--sigma1-sq", "1", "--sigma2-sq", "2", *mc),
        ("gd", "diff", "--sigma1-sq", "1", "--sigma2-sq", "2",
         "--alpha", "0.25", "--beta", "0.5", *mc),
        ("gd", "excess", "--alpha", "0.25", "--beta", "1e-3", *mc),
        ("gd", "mass", "--alpha", "0.25", "--beta", "1e-3", *mc),
        ("gd", "blyth", "--alpha", "0.25", "--betas", "1e-2,1e-3", *mc),
        ("stein", problem, "--delta", "d0", "--theta"),        # usage error
        ("gd", "risk", "--sigma1-sq", "1"),                     # usage error
        ("--version",),
    ]


class TestParser:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        cli.build_parser.cache_clear()
        yield
        cli.build_parser.cache_clear()

    @staticmethod
    def call(capsys, *argv):
        """run(), with argparse's SystemExit (--version, usage errors) as the code."""
        try:
            return run(capsys, *argv)
        except SystemExit as exc:
            captured = capsys.readouterr()
            return exc.code, captured.out, captured.err

    def test_main_builds_the_parser_once(self, capsys, two_point):
        for argv in _session(two_point)[:3] * 2 + [("--version",), ("frobnicate",)]:
            self.call(capsys, *argv)
        assert cli.build_parser.cache_info().misses == 1

    def test_reused_parser_matches_a_fresh_one(self, capsys, with_dominated):
        session = _session(with_dominated)
        fresh = []
        for argv in session:
            cli.build_parser.cache_clear()
            fresh.append(self.call(capsys, *argv))
        cli.build_parser.cache_clear()
        reused = [self.call(capsys, *argv) for argv in session + session]
        assert reused == fresh + fresh
        codes = [code for code, _, _ in fresh]
        assert codes[-3:] == [2, 2, 0] and set(codes[:-3]) <= {0, 1}
        assert "usage: admlab stein" in fresh[-3][2]
        assert "the following arguments are required: --sigma2-sq" in fresh[-2][2]


class TestStartup:
    def test_import_leaves_numpy_unloaded(self):
        # only the gd commands need numpy and scipy, so loading the CLI
        # must not pay for them
        src = str(Path(cli.__file__).resolve().parents[1])
        probe = ("import sys, admlab.cli; "
                 "print(sorted(m for m in ('numpy', 'scipy', 'admlab.graybill_deal') "
                 "if m in sys.modules))")
        res = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                             text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"

    def test_import_builds_no_parser(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        probe = "import admlab.cli as c; print(c.build_parser.cache_info().misses)"
        res = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                             text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "0"

    # one probe per case: a gd command in a fresh interpreter, then the scipy
    # modules it left loaded; scipy is a test-only oracle, so none may load any
    GD_SCIPY = [
        ("gd", "risk", "--sigma1-sq", "1", "--sigma2-sq", "2"),
        ("gd", "diff", "--sigma1-sq", "1", "--sigma2-sq", "2",
         "--alpha", "0.25", "--beta", "0.01"),
        ("gd", "excess", "--alpha", "0.25", "--beta", "0.001"),
        ("gd", "blyth", "--alpha", "0.25"),
        ("gd", "mass", "--alpha", "0.25", "--beta", "0.01"),
    ]

    @staticmethod
    def scipy_loaded_by(statement):
        src = str(Path(cli.__file__).resolve().parents[1])
        probe = (f"import contextlib, io, json, sys\n{statement}\n"
                 "print(json.dumps([m for m in ('scipy', 'scipy.integrate', 'scipy.special') "
                 "if m in sys.modules]))")
        res = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                             text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert res.returncode == 0, res.stderr
        return json.loads(res.stdout)

    def test_graybill_deal_import_leaves_scipy_unloaded(self):
        assert self.scipy_loaded_by("import admlab.graybill_deal") == []

    @pytest.mark.parametrize("argv", GD_SCIPY, ids=[argv[1] for argv in GD_SCIPY])
    def test_gd_commands_load_scipy_only_where_used(self, argv):
        call = ("from admlab import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    code = cli.main({list(argv)!r} + "
                "['--samples', '1000', '--threads', '1'])\n"
                "if code:\n"
                "    sys.exit(f'exit {code}')")
        assert self.scipy_loaded_by(call) == []

    def test_only_simplex_lays_out_a_tableau(self):
        # every LP reaches the kernel as rows over its structural columns,
        # through solve_lp or _solve_packed: slack and negative-part columns,
        # the rhs field, the start basis and phase 1's room stay in simplex.py.
        # A star import and simplex.__all__ reach the public names alone
        allowed = {"LPResult", "solve_lp", "_solve_packed", "_pack", "_ones", "_width"}
        assert set(simplex.__all__) <= allowed
        root = Path(cli.__file__).resolve().parent
        found = []
        for path in sorted(root.rglob("*.py")):
            if path == root / "simplex.py":
                continue
            rel = path.relative_to(root.parent).with_suffix("")
            package = ".".join(rel.parts[:-1])  # a module's package, or an __init__'s own
            tree = ast.parse(path.read_text(encoding="utf-8"))
            bound = set()  # local names of the admlab.simplex module itself
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    module = importlib.util.resolve_name(
                        "." * node.level + (node.module or ""), package)
                    for alias in node.names:
                        if module == "admlab.simplex" and alias.name not in allowed | {"*"}:
                            found.append(f"{rel}:{node.lineno} {alias.name}")
                        elif module == "admlab" and alias.name == "simplex":
                            bound.add(alias.asname or alias.name)
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name == "admlab.simplex":
                            found.append(f"{rel}:{node.lineno} import {alias.name}")
            found += [f"{rel}:{node.lineno} {node.value.id}.{node.attr}" for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in bound and node.attr not in allowed | {"__all__"}]
        assert found == []

    def test_no_module_imports_scipy(self):
        # the runtime depends on numpy alone; scipy stays in the test extra
        root = Path(cli.__file__).resolve().parent
        found = []
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(name.split(".")[0] == "scipy" for name in names):
                    found.append(f"{path.relative_to(root)}:{node.lineno}")
        assert found == []


def test_exact_report_payloads_are_their_fields():
    # each exact report's payload is its fields in declaration order, each
    # under its name; an LP's pivot count goes out as lp_iterations, while a
    # witness set's iterations count cutting-plane rounds and keep their name
    p = DecisionProblem(("t1", "t2"), ("d0", "d1", "dbad"), ((0, 1, 2), (1, 0, 2)))
    pi = Prior({"t1": F(1, 2), "t2": F(1, 2)})
    reports = [
        admissibility.dominated_in_hull(p, "dbad"),
        admissibility.positive_prior_certificate(p, "d0"),
        admissibility.positive_prior_certificate(p, "dbad"),
        admissibility.witness_set(p, "d0"),
        admissibility.witness_set(p, "dbad"),
        admissibility.stein_check(p, "d0", "t1", F(1, 10)),
        admissibility.ns_stein_check(p, "d0", pi, ("t1",), F(1, 10)),
        derived_game_value(p, "d0", "t1", F(1, 2)),
    ]
    assert [type(rep).__name__ for rep in reports] == [
        "HullDominanceReport", "Certificate", "NoPositivePrior", "WitnessSet", "NoWitness",
        "SteinResult", "NsSteinReport", "GameValueReport"]
    for rep in reports:
        names = [f.name for f in dataclasses.fields(rep)]
        if not isinstance(rep, admissibility.WitnessSet):
            names = ["lp_iterations" if n == "iterations" else n for n in names]
        payload = rep.as_dict()
        assert list(payload) == names, type(rep).__name__
        json.dumps(payload)
    assert reports[1].as_dict()["verdict"] == "certificate"
    assert reports[2].as_dict()["verdict"] == "no_positive_prior"
    assert reports[4].as_dict() == {
        "delta0": "dbad", "witness": None,
        "reason": "dbad is dominated in the hull; no witness set exists"}


# sha256 of what exact_outputs.problem_outputs() prints; a change that keeps
# every exact output keeps it
PROBLEM_OUTPUTS_SHA256 = "c0db996287e6134677e78d67638b397eae416a15ed777dde42adb5079fb6f442"


def test_random_problem_outputs_are_pinned():
    # every exact verdict, prior, mixture and lp_iterations count that the CLI
    # and the API give for random_problem seeds 0-11 on the 1/8 and 1/97 grids
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exact_outputs.problem_outputs()
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digest == PROBLEM_OUTPUTS_SHA256, (
        "exact outputs moved; diff `python tests/exact_outputs.py` against the parent tree")


def test_exact_outputs_script_runs_end_to_end(tmp_path, monkeypatch):
    # every section of the script runs, the parser, Monte Carlo and kernel
    # ones that the pin leaves out included; a printout compared with itself
    # moves nothing, and a moved LP counts under the checker that solved it
    monkeypatch.setenv("COLUMNS", "80")  # main sets it; restored after the test

    def printed(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert exact_outputs.main(list(argv)) == 0
        return out.getvalue()

    text = printed()
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_text(text, encoding="utf-8")
    assert printed("--compare", str(old), str(old)).splitlines()[-1] == "no payload moved"
    lp = next(line for line in text.splitlines() if line.startswith("lp witness_set LPResult("))
    new.write_text(text.replace(lp, lp.replace("iterations=", "iterations=1"), 1),
                   encoding="utf-8")
    moved = printed("--compare", str(old), str(new)).splitlines()
    assert [line.split()[:4] for line in moved[1:-1]] == [["lp", "witness_set", "iterations", "1"]]
    assert moved[-1].startswith("paired: ") and moved[-1].endswith(" reports; unpaired: 0")


def test_exact_outputs_compare_runs_without_admlab(tmp_path):
    # --compare reads two text files only: run as a script from elsewhere,
    # with no PYTHONPATH and admlab blocked from import, it still compares
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_text('== a\nhull {"x": 1}\n', encoding="utf-8")
    new.write_text('== a\nhull {"x": 2}\n', encoding="utf-8")
    probe = ("import runpy, sys; sys.modules['admlab'] = None; sys.argv[:1] = []; "
             "runpy.run_path(sys.argv[0], run_name='__main__')")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run([sys.executable, "-c", probe, exact_outputs.__file__, "--compare",
                          str(old), str(new)], capture_output=True, text=True, timeout=60,
                         cwd=tmp_path, env=env)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[-2].split() == ["hull", "x", "1", "1"]
    assert lines[-1] == "paired: 1 reports; unpaired: 0"


def test_exact_outputs_compare_fails_on_unpaired_reports(tmp_path, capsys):
    # records pair by section and place, so a report that one printout files
    # under another section pairs with nothing: the comparison counts it and
    # fails rather than read its silence as "nothing moved"
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_text('== a\nhull {"x": 1}\n== b\nhull {"x": 2}\n', encoding="utf-8")
    new.write_text('== a\nhull {"x": 1}\n== c\nhull {"x": 2}\n', encoding="utf-8")
    assert exact_outputs.main(["--compare", str(old), str(new)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-4:] == ["only in old: 1 reports, e.g. hull", "only in new: 1 reports, e.g. hull",
                          "paired: 1 reports; unpaired: 2", "no paired payload moved"]
