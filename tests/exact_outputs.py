"""Print every exact output and every seeded Monte Carlo output of admlab.

Run it on two trees and diff the results; a change that must keep exact
outputs (verdicts, priors, mixtures, ``lp_iterations``) and bit-identical
seeded Monte Carlo output shows no diff:

    PYTHONPATH=src python tests/exact_outputs.py > after.txt

It first prints the parser's own output: ``admlab --help``, each
subcommand's ``--help`` and one usage error, with ``COLUMNS=80`` so the help
width does not depend on the terminal.  Then it prints the stdout, stderr and
exit code of every ``admlab gd`` report at fixed seeds: ``gd risk`` with the
``gd``, ``bayes`` and a constant weight, ``gd diff``, ``gd excess``, ``gd mass``
with and without its Monte Carlo cross-check, and ``gd blyth`` as CSV and as
JSON.  Each runs at 196625 draws (three full shards of 2^16 and a partial one)
on one thread and on two, which must print the same numbers.  Then it covers
``random_problem`` seeds 0-11 on the 1/8 and 1/97 grids.  For
each problem it prints the stdout, stderr and exit code of the CLI
subcommands check, certify, witness, stein, game and ns, then
``repr(as_dict())`` of every hull, certificate, witness, Stein, game and
Levi-Civita report the API gives for it, the Levi-Civita ones under a real
prior and under an infinitesimal one, and the shifted risks under both
priors.  Pytest does not collect this file, but ``tests/test_cli.py`` pins
the sha256 of that last section (``problem_outputs``); the help text and the
Monte Carlo reports are left out of the pin, since their bytes depend on the
Python and numpy versions.  Last comes the kernel dump: every ``LPResult``
the checkers and the game solve on fixed problems, each printed as ``lp``
and the public checker that solved it, then fixed LPs with large entries.

Given two such printouts, ``--compare`` counts what moved between them, per
report kind (the API report's name, ``cli`` and the subcommand, or ``lp``
and the public checker that solved the LP, such as ``lp witness_set``)
and per key path in its payload, with list indices and parameter or
procedure labels read as ``*`` (``reports.*.lp_iterations``: some
procedure's pivot count in ``admlab check``'s reports), counting each
report once per path.  Only reports found in both printouts pair up; it
prints how many did and did not, and exits 1 if any did not, so run this
script's own version on both trees.  It reads only the two files, so admlab
need not be importable for it (the printing functions import it when called):

    python tests/exact_outputs.py --compare before.txt after.txt
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import random
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

SEEDS = range(12)
GRIDS = (8, 97)
EPS_GRID = (Fraction(1), Fraction(1, 10), Fraction(1, 100))
GAMMAS = (Fraction(1, 2), Fraction(2))
GD_SAMPLES = 3 * 2**16 + 17
GD_MODEL = ("--mu", "0.5", "--sigma1-sq", "1", "--sigma2-sq", "2", "--n", "5")
GD_REPORTS = (
    ("risk", "--phi", "gd", *GD_MODEL, "--seed", "11"),
    ("risk", "--phi", "bayes", "--alpha", "0.25", "--beta", "0.01", *GD_MODEL, "--seed", "12"),
    ("risk", "--phi", "0.3", *GD_MODEL, "--seed", "13"),
    ("diff", "--phi0", "gd", "--phi1", "bayes", "--alpha", "0.25", "--beta", "0.01",
     *GD_MODEL, "--seed", "14"),
    ("excess", "--alpha", "0.25", "--beta", "0.001", "--n", "5", "--seed", "15"),
    ("mass", "--alpha", "0.25", "--beta", "0.01", "--rect", "1,3,0.5,2", "--seed", "16"),
    ("mass", "--alpha", "0.4", "--beta", "0.3", "--rect", "1,3,0.5,2", "--samples", "0"),
    ("blyth", "--alpha", "0.25", "--n", "5", "--betas", "1e-1,1e-2,1e-3", "--seed", "17"),
    ("blyth", "--alpha", "0.45", "--n", "4", "--betas", "0.2,0.05,0.01", "--rect", "1,2,0.5,3",
     "--format", "json", "--seed", "18"),
)


def run_cli(*argv):
    from admlab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse: --help and usage errors
            code = exc.code
    print("$ admlab", " ".join(str(a) for a in argv))
    print(out.getvalue(), end="")
    print("stderr:", err.getvalue(), end="" if err.getvalue().endswith("\n") else "\n")
    print("exit:", code)


def report(name, call):
    try:
        text = repr(call().as_dict())
    except (ValueError, RuntimeError) as exc:
        text = f"{type(exc).__name__}: {exc}"
    print(name, text)


def parser_outputs():
    run_cli("--help")
    for cmd in ("check", "certify", "witness", "stein", "ns", "game", "gen", "gd"):
        run_cli(cmd, "--help")
    for cmd in ("risk", "diff", "excess", "mass", "blyth"):
        run_cli("gd", cmd, "--help")
    run_cli("check", "problem.json", "--bogus")


def gd_outputs():
    for args in GD_REPORTS:
        samples = () if "--samples" in args else ("--samples", GD_SAMPLES)
        for threads in (1, 2):
            run_cli("gd", *args, *samples, "--threads", threads)


def cli_outputs(path, p):
    t0, t1 = p.theta_labels[0], p.theta_labels[-1]
    lc_prior = f"{t0}:1-eps,{t1}:eps" if t0 != t1 else f"{t0}:1"
    run_cli("check", path)
    for d in p.proc_labels:
        run_cli("check", path, "--delta", d)
        run_cli("certify", path, "--delta", d)
        run_cli("witness", path, "--delta", d)
        for t in p.theta_labels:
            run_cli("stein", path, "--delta", d, "--theta", t, "--eps", "1/10")
        run_cli("game", path, "--delta", d, "--theta0", t0, "--gamma", "1/2")
        run_cli("ns", path, "--delta", d, "--prior", lc_prior, "--mode", "stein",
                "--family", t1, "--eps", "1/10")
        run_cli("ns", path, "--delta", d, "--prior", lc_prior, "--mode", "blyth",
                "--family", f"{t0};{t1}", "--rho", "eps^2")


def api_outputs(p):
    from admlab import admissibility as adm
    from admlab.decision import Prior
    from admlab.game import derived_game_value, shifted_risk
    from admlab.hyperreal import LCNumber

    eps = LCNumber.eps()
    singles = tuple((t,) for t in p.theta_labels)
    t0, t1 = p.theta_labels[0], p.theta_labels[-1]
    hyper = Prior({t0: 1 - eps, t1: eps} if t0 != t1 else {t0: 1})
    for d in p.proc_labels:
        report(f"hull {d}", lambda: adm.dominated_in_hull(p, d))
        cert = adm.positive_prior_certificate(p, d)
        print(f"certificate {d}", repr(cert.as_dict()))
        report(f"witness {d}", lambda: adm.witness_set(p, d))
        for t in p.theta_labels:
            for e in EPS_GRID:
                report(f"stein {d} {t} {e}", lambda: adm.stein_check(p, d, t, e))
            for g in GAMMAS:
                report(f"game {d} {t} {g}", lambda: derived_game_value(p, d, t, g))
        if isinstance(cert, adm.Certificate):
            prior, rho = cert.prior, cert.min_weight
        else:
            prior = Prior({t: Fraction(1, len(p.theta_labels)) for t in p.theta_labels})
            rho = LCNumber({1: 1})
        for B in singles:
            report(f"ns_stein {d} {B}", lambda: adm.ns_stein_check(p, d, prior, B, Fraction(1, 10)))
        report(f"ns_blyth {d}", lambda: adm.ns_blyth_check(p, d, prior, rho, singles))
        for B in singles:
            report(f"ns_stein hyper {d} {B}",
                   lambda: adm.ns_stein_check(p, d, hyper, B, Fraction(1, 10)))
        for rho in (eps, eps * eps):
            report(f"ns_blyth hyper {d} {rho}",
                   lambda: adm.ns_blyth_check(p, d, hyper, rho, singles))
        for pi in (prior, hyper):
            print(f"shifted {d} {pi.kind}",
                  [str(shifted_risk(p, d, pi, d1)) for d1 in p.proc_labels])


def problem_outputs():
    """The CLI and API outputs of every random problem, in a scratch directory."""
    from admlab.decision import random_problem, save_problem

    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)  # contextlib.chdir needs Python 3.11
        try:
            for grid in GRIDS:
                for seed in SEEDS:
                    p = random_problem(2 + seed % 5, 2 + (seed * 7) % 5, seed, grid)
                    print(f"== seed {seed}, grid 1/{grid}, "
                          f"{len(p.theta_labels)}x{len(p.proc_labels)}")
                    path = f"seed{seed}-grid{grid}.json"
                    Path(path).write_bytes(save_problem(p))
                    cli_outputs(path, p)
                    api_outputs(p)
        finally:
            os.chdir(cwd)


KERNEL_SHAPES = ((2, 3), (3, 3), (4, 5), (5, 4), (6, 6), (8, 8), (9, 11))


def large_entry_lps(count=40, seed=20261019):
    """Fixed LPs with entries n / q, |n| <= 2**120 and q <= 10**12, mixed signs."""
    rng = random.Random(seed)

    def entry():
        return Fraction(rng.randint(-2**120, 2**120), rng.randint(1, 10**12))

    for k in range(count):
        n, m_ub, m_eq = rng.randint(2, 5), rng.randint(1, 4), rng.randint(0, 2)
        A_ub = [[entry() for _ in range(n)] for _ in range(m_ub)]
        A_eq = [[entry() for _ in range(n)] for _ in range(m_eq)]
        # a point x0 >= 0 satisfies every row, and a box row keeps it bounded
        x0 = [Fraction(rng.randint(0, 3), rng.randint(1, 5)) for _ in range(n)]
        b_ub = [sum(a * v for a, v in zip(row, x0)) + abs(entry()) for row in A_ub]
        A_ub.append([Fraction(1)] * n)
        b_ub.append(sum(x0) + 1)
        b_eq = [sum(a * v for a, v in zip(row, x0)) for row in A_eq]
        free = [j for j in range(n) if k % 3 == 0 and rng.random() < 0.3]
        for j in free:  # free variables get a lower bound too
            A_ub.append([Fraction(-1) if i == j else Fraction(0) for i in range(n)])
            b_ub.append(Fraction(1))
        yield ([entry() for _ in range(n)],), dict(A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                                                   free_vars=free, maximize=k % 2 == 0)


def kernel_outputs():
    """Every LPResult the checkers and the game solve, then the large-entry LPs.

    The forced-zero LP goes through ``solve_lp``; every other checker LP, and
    the game's, packs its own rows and calls the kernel's private entry
    ``simplex._solve_packed``, so both entries are recorded.  Each LP prints
    as ``lp`` and the public checker that solved it (``lp witness_set``), a
    large-entry LP as ``lp solve_lp``."""
    from admlab import admissibility as adm
    from admlab import game, simplex
    from admlab.decision import random_problem

    checker = None

    def recorded(solve):
        def record(*args, **kwargs):
            res = solve(*args, **kwargs)
            print("lp", checker, repr(res))
            return res
        return record

    def check(fn, *args):
        nonlocal checker
        checker = fn.__name__
        return fn(*args)

    saved = adm.solve_lp, adm._solve_packed, game._solve_packed
    adm.solve_lp = recorded(simplex.solve_lp)
    adm._solve_packed = game._solve_packed = recorded(simplex._solve_packed)
    try:
        for grid in GRIDS:
            for seed, (nt, nd) in enumerate(KERNEL_SHAPES):
                p = random_problem(nt, nd, 100 + seed, grid)
                print(f"== kernel seed {100 + seed}, grid 1/{grid}, {nt}x{nd}")
                singles = tuple((t,) for t in p.theta_labels)
                for j, d in enumerate(p.proc_labels):
                    check(adm.dominated_in_hull, p, d)
                    cert = check(adm.positive_prior_certificate, p, d)
                    for t in p.theta_labels:
                        for e in EPS_GRID:
                            check(adm.stein_check, p, d, t, e)
                    if isinstance(cert, adm.Certificate):
                        check(adm.ns_blyth_check, p, d, cert.prior, cert.min_weight, singles)
                    # a refusal (NoWitness) is an output too; the suppress keeps
                    # a tree whose witness_set raised it as a ValueError printable
                    with contextlib.suppress(ValueError):
                        check(adm.witness_set, p, d)
                    check(game.derived_game_value, p, d, p.theta_labels[j % nt], GAMMAS[j % 2])
    finally:
        adm.solve_lp, adm._solve_packed, game._solve_packed = saved
    print("== large entries")
    for args, kwargs in large_entry_lps():
        print("lp solve_lp", repr(simplex.solve_lp(*args, **kwargs)))


def _leaves(value, path=()):
    """{path: leaf} of a parsed payload, a path the tuple of dict keys and list
    indices down to a leaf (a scalar, or an empty dict or list)."""
    if isinstance(value, (dict, list)) and value:
        items = value.items() if isinstance(value, dict) else enumerate(value)
        return {k: v for key, item in items for k, v in _leaves(item, path + (key,)).items()}
    return {path: value}


def _payload(text):
    """A report's payload as {path: text}: JSON, a dict repr or an LPResult repr."""
    text = text.strip()
    with contextlib.suppress(ValueError):
        value = json.loads(text)
        if isinstance(value, dict):
            return {k: json.dumps(v) for k, v in _leaves(value).items()}
    if text.startswith("{"):
        with contextlib.suppress(ValueError, SyntaxError):
            return {k: repr(v) for k, v in _leaves(ast.literal_eval(text)).items()}
    if text.startswith("LPResult("):
        return {(kw.arg,): ast.unparse(kw.value)
                for kw in ast.parse(text).body[0].value.keywords}
    return {(): text}


# a parameter or procedure label of random_problem, or several joined by spaces
_LABEL = re.compile(r"[td]\d+( [td]\d+)*")


def _key_path(path):
    """A payload path as text, list indices and labels read as *: so
    ``reports.*.lp_iterations`` counts every procedure's pivots together."""
    return ".".join("*" if isinstance(k, int) or _LABEL.fullmatch(k) else k
                    for k in path) or "(text)"


def _records(lines):
    """{(section, name, occurrence): (kind, payload)} for one printout; a CLI
    call's name is its command line, an API report's its kind."""
    out, seen, section, k = {}, {}, "", 0

    def add(name, kind, payload):
        n = seen[section, name] = seen.get((section, name), -1) + 1
        out[section, name, n] = kind, payload

    while k < len(lines):
        line = lines[k]
        k += 1
        if line.startswith("== "):
            section = line
        elif line.startswith("$ admlab"):
            # a CLI call: its stdout, then "stderr: ..." and "exit: N"
            start = k
            while not lines[k].startswith("exit: "):
                k += 1
            err = next(j for j in range(k - 1, start - 1, -1) if lines[j].startswith("stderr: "))
            payload = _payload("\n".join(lines[start:err]))
            payload[("stderr",)] = "\n".join(lines[err:k])
            payload[("exit",)] = lines[k]
            k += 1
            argv = line.split()
            add(line, f"cli {argv[2] if len(argv) > 2 else ''}".rstrip(), payload)
        elif line.strip():
            # an API report or a kernel LP, paired by its place among its kind:
            # labels, then a dict, a list or an LPResult, or an error's text;
            # an LP's kind is "lp" and the checker that solved it ("lp" alone
            # in a printout from before LPs were labelled)
            kind, _, rest = line.partition(" ")
            if kind == "lp" and not rest.startswith("LPResult("):
                checker, _, rest = rest.partition(" ")
                kind = f"lp {checker}"
            cut = min((i for i in map(rest.find, ("{", "[", "LPResult(")) if i >= 0), default=0)
            add(kind, kind, _payload(rest[cut:]))
    return out


def compare(old_path, new_path) -> int:
    """Print, per report kind and key path, how many payloads moved between two
    printouts, and how many reports paired; 1 if some did not, else 0."""
    old, new = (_records(Path(p).read_text(encoding="utf-8").splitlines())
                for p in (old_path, new_path))
    totals, moved = {}, {}
    for rid, (kind, before) in old.items():
        if rid not in new:
            continue
        after = new[rid][1]
        totals[kind] = totals.get(kind, 0) + 1
        for key in {_key_path(k) for k in before.keys() | after.keys()
                    if before.get(k) != after.get(k)}:
            moved[kind, key] = moved.get((kind, key), 0) + 1
    kinds = max((len(kind) for kind, _ in moved), default=4)
    width = max((len(key) for _, key in moved), default=0)
    print(f"{'kind':<{kinds}} {'key':<{width}} {'moved':>7} {'of':>7}")
    for (kind, key), n in sorted(moved.items()):
        print(f"{kind:<{kinds}} {key:<{width}} {n:>7} {totals[kind]:>7}")
    unpaired = 0
    for what, ids in (("only in old", old.keys() - new.keys()),
                      ("only in new", new.keys() - old.keys())):
        if ids:
            print(f"{what}: {len(ids)} reports, e.g. {min(ids)[1]}")
            unpaired += len(ids)
    print(f"paired: {sum(totals.values())} reports; unpaired: {unpaired}")
    if not moved:
        print("no payload moved" if not unpaired else "no paired payload moved")
    return 1 if unpaired else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Print every exact output of admlab.")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="count what moved between two printouts of this script; "
                             "exit 1 if some report is in only one of them")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    os.environ["COLUMNS"] = "80"
    parser_outputs()
    gd_outputs()
    problem_outputs()
    kernel_outputs()
    return 0


if __name__ == "__main__":
    sys.exit(main())
