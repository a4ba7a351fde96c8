"""Experiment runner: every audit as a subcommand with seeded
determinism, key=value config files, and CSV/JSON reports.

Exit codes: 0 on success (audit discrepancies are data, never an
error), 2 on configuration problems, 3 on exceeded budgets.
"""

import argparse
import os
import sys

import numpy as np

from .counting import BudgetExceeded, counting_audit_rows, enumerate_orbit, a_table
from .folner import (DEFAULT_BUDGET, PreconditionViolation, build_X,
                     folner_audit_rows)
from .reports import write_report

EXIT_CONFIG, EXIT_BUDGET = 2, 3
STOCHASTIC = {"wiener", "glue", "audit-all"}


def _load_config(path):
    cfg = {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"bad config line: {line!r}")
                key, val = line.split("=", 1)
                cfg[key.strip().replace("-", "_")] = val.strip()
        return cfg
    except OSError as exc:
        raise ValueError(str(exc))


def _coerce(raw):
    for caster in (int, float):
        try:
            return caster(raw)
        except ValueError:
            pass
    return raw


def _merge_config(args, argv):
    """key=value file values fill in flags not given on the command
    line; explicit flags win."""
    if not args.config:
        return
    explicit = {tok[2:].split("=", 1)[0].replace("-", "_")
                for tok in argv if tok.startswith("--")}
    for key, raw in _load_config(args.config).items():
        if not hasattr(args, key):
            raise ValueError(f"unknown config key {key!r}")
        if key in explicit:
            continue
        setattr(args, key, _coerce(raw))


def validate(args):
    """Range diagnostics, produced without running anything."""
    problems = []
    if args.command in STOCHASTIC and getattr(args, "seed", None) is None:
        problems.append(f"seed is mandatory for the stochastic "
                        f"subcommand {args.command!r}")
    delta = getattr(args, "delta", None)
    if delta is not None and not 0.0 < delta < 0.5:
        problems.append("delta must lie in (0, 1/2)")
    eps = getattr(args, "eps", None)
    if eps is not None and not 0.0 < eps < 1.0:
        problems.append("eps must lie in (0, 1)")
    for name, lo, hi in (("samples", 1, 10 ** 8), ("grid", 2, 2 ** 20),
                         ("budget", 1, 10 ** 9), ("nmax", 0, 200),
                         ("kmax", 1, 16), ("n", 0, 100), ("k", 1, 16),
                         ("l", 1, 16), ("m", 0, 8)):
        v = getattr(args, name, None)
        if v is not None and not lo <= v <= hi:
            problems.append(f"{name} must lie in [{lo}, {hi}]")
    grid = getattr(args, "grid", None)
    if grid is not None and grid & (grid - 1):
        problems.append("grid must be a power of 2")
    fmt = getattr(args, "format", "csv")
    if fmt not in ("csv", "json"):
        problems.append("format must be csv or json")
    return problems


def _outdir(args):
    out = args.out or "."
    if out.endswith(".csv") or out.endswith(".json"):
        return os.path.dirname(out) or ".", os.path.basename(out)
    os.makedirs(out, exist_ok=True)
    return out, None


def _emit(args, default_name, rows):
    outdir, explicit = _outdir(args)
    ext = "json" if args.format == "json" else "csv"
    name = explicit or f"{default_name}.{ext}"
    path = write_report(rows, os.path.join(outdir, name), args.format)
    print(f"wrote {path} ({len(rows)} rows)")


# -- subcommand bodies -----------------------------------------------------

def cmd_count(args):
    rows = counting_audit_rows(args.nmax, args.kmax)
    _emit(args, "counting_audit", rows)


def cmd_orbits(args):
    table = a_table(args.n, args.k + 1)
    orbit = enumerate_orbit(args.n, args.k, n_budget=args.n, k_budget=args.k)
    # the orbit under height cap k is counted by the table at k+1
    expected = table[args.n][args.k + 1]
    rows = [{"n": args.n, "k": args.k, "orbit_size": len(orbit),
             "a_recurrence": expected,
             "match": len(orbit) == expected}]
    _emit(args, "orbit_audit", rows)


def cmd_folner(args):
    pairs = ([(args.l, args.n)] if args.l is not None
             else [(l, n) for l in (2, 3, 4) for n in (0, 1, 2)])
    rows = folner_audit_rows(pairs, m=args.m or 0,
                             budget=args.budget or DEFAULT_BUDGET)
    _emit(args, "folner_ratios", rows)


def _smooth_objects(resolution):
    from .smoothing import PsiModel, build_g1, build_g2
    model = PsiModel(resolution=resolution)
    return model, build_g1(model), build_g2(model)


def cmd_smooth(args):
    from .smoothing import condition_b_scan, lemma6_audit_rows
    model, g1, g2 = _smooth_objects(max(args.grid or 2 ** 12, 2 ** 10))
    _emit(args, "lemma6_audit",
          lemma6_audit_rows(model, g1, g2, denom_exp_max=args.denom_exp))
    scan = condition_b_scan(g1, g2, max_len=args.max_len)
    _emit(args, "conditionB", scan["rows"])
    print(f"condition (b) min distance {scan['min_distance']} "
          f"over {scan['pairs']} pairs")


def cmd_wiener(args):
    from . import wiener as w
    which = args.experiment
    samples = args.samples or 20000
    M = args.grid or 1024
    if which in ("moments", "all"):
        rows = []
        for l in ([args.l] if args.l else [1, 2]):
            r = w.moment_test(l, samples, M, args.seed)
            rows.append(r)
        _emit(args, "wiener_moments", rows)
    if which in ("quasi", "all"):
        rows = []
        for g in (w.exponential_family(0.7), w.polynomial_family(0.4)):
            for tag in ("midpoint", "exp_l2", "deriv0"):
                rows.append(w.quasi_invariance_test(g, tag, samples,
                                                    M // 2, args.seed))
        _emit(args, "quasi_invariance", rows)
    if which in ("lemma2", "all"):
        n = args.n or 64
        eps = args.eps or 1.0 / 32.0
        xbar = np.arange(1, n) / n
        r = w.concentration_test(w.exponential_family(0.5), xbar, eps,
                                 min(samples, 2000), min(M, 256), args.seed)
        _emit(args, "lemma2", [r])
    if which in ("lemma3", "all"):
        rows = []
        for g in (w.identity_map(), w.polynomial_family(0.4)):
            study = w.telescoping_study(g, range(3, 13))
            for row in study["rows"]:
                rows.append({**row, "slope": study["slope"],
                             "seed": args.seed})
        _emit(args, "lemma3", rows)


def _realized_stages(budget):
    """Three Følner-set support stages, realized as float tuples."""
    stages = []
    for label, (m, l, n) in (("stage1", (0, 2, 0)), ("stage2", (0, 3, 0)),
                             ("stage3", (0, 4, 0))):
        s = build_X(m, l, n, budget)
        support = sorted(tuple(t.floats()) for t in s)
        stages.append((label, support))
    return stages


def cmd_glue(args):
    from .glue import EstimatorConfig, theorem3_experiment
    model, g1, g2 = _smooth_objects(2 ** 12)
    stages = _realized_stages(args.budget or DEFAULT_BUDGET)
    cfg = EstimatorConfig(args.delta, stages[0][1],
                          args.samples or 60, args.grid or 256, args.seed)
    rows = []
    for name, gen in (("g1", g1), ("g2", g2)):
        def deriv_fn(t, gen=gen, h=1e-4):
            t = np.clip(t, 2 * h, 1.0 - 2 * h)
            return (gen(t - 2 * h) - 8 * gen(t - h) + 8 * gen(t + h)
                    - gen(t + 2 * h)) / (12 * h)
        rows += theorem3_experiment(args.functional, name, gen, deriv_fn,
                                    stages, cfg)
    _emit(args, "theorem3_trend", rows)


def cmd_audit_all(args):
    """Every audit at reduced sizes; each stage runs on its own copy of
    args with that stage's settings, and args itself is left as given."""
    def stage(**settings):
        return argparse.Namespace(**{**vars(args), **settings})

    cmd_count(stage(nmax=20, kmax=4))
    cmd_folner(stage(m=0, l=None, n=None))
    cmd_smooth(stage())
    cmd_wiener(stage(experiment="all", l=None, n=None,
                     samples=args.samples or 5000))
    cmd_glue(stage(samples=30))


# -- parser ----------------------------------------------------------------

def _add_common(p):
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--config", default=None,
                   help="key=value file; explicit flags win")
    p.add_argument("--validate", action="store_true",
                   help="print range diagnostics and exit")


def build_parser():
    parser = argparse.ArgumentParser(prog="thompsonlab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="counting table vs series audit")
    p.add_argument("--nmax", type=int, default=40)
    p.add_argument("--kmax", type=int, default=8)
    _add_common(p)

    p = sub.add_parser("orbits", help="orbit enumeration vs counting")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--k", type=int, default=2)
    _add_common(p)

    p = sub.add_parser("folner", help="exact ratio reports")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("smooth", help="conjugation-exponent and "
                                      "separation audits")
    p.add_argument("--denom-exp", type=int, default=4, dest="denom_exp")
    p.add_argument("--max-len", type=int, default=2, dest="max_len")
    _add_common(p)

    p = sub.add_parser("wiener", help="path-measure Monte Carlo audits")
    p.add_argument("experiment", choices=("moments", "quasi", "lemma2",
                                          "lemma3", "all"))
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--eps", type=float, default=None)
    _add_common(p)

    p = sub.add_parser("glue", help="near-invariance trend experiment")
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument("--functional", default="midpoint",
                   choices=("midpoint", "exp_l2", "deriv0", "one"))
    _add_common(p)

    p = sub.add_parser("audit-all", help="run every audit with reduced "
                                         "sizes")
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument("--functional", default="midpoint")
    p.add_argument("--denom-exp", type=int, default=3, dest="denom_exp")
    p.add_argument("--max-len", type=int, default=2, dest="max_len")
    p.add_argument("--eps", type=float, default=None)
    _add_common(p)

    return parser


_BODIES = {"count": cmd_count, "orbits": cmd_orbits, "folner": cmd_folner,
           "smooth": cmd_smooth, "wiener": cmd_wiener, "glue": cmd_glue,
           "audit-all": cmd_audit_all}


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args, argv)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    problems = validate(args)
    if args.validate:
        for p in problems:
            print(p)
        return EXIT_CONFIG if problems else 0
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        return EXIT_CONFIG
    try:
        _BODIES[args.command](args)
    except (BudgetExceeded,) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except PreconditionViolation as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return 0


if __name__ == "__main__":
    sys.exit(main())
