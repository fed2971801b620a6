"""Command-line front end: analyze, sample, optimize, verify, oracle.

Every command is deterministic given its flags and seed, prints numbers with
12 significant digits, and writes files atomically.  Exit codes: 0 success,
1 verification failure, 2 usage or validation error.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys

from . import classify, entanglement, fusion, matrices, optimize, oracle, reports, verify


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command parser, built once per process; each parse returns a
    fresh namespace, so calls share no state."""
    parser = argparse.ArgumentParser(
        prog="fusionlab",
        description="Type-II fusion toolkit: outcome tables, entanglement "
        "classification, objective optimization, and state-vector cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full outcome/entanglement report for one matrix")
    p.add_argument("--matrix", required=True, help="builtin name or JSON file path")
    p.add_argument("--arity", type=int, default=1, choices=(1, 2))
    p.add_argument("--tol", type=float, default=classify.DEFAULT_TOL)
    p.add_argument("--nats", action="store_true", help="entropies in nats instead of bits")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("sample", help="Haar-random scatter data (CSV)")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("expectation", "threshold"), default="expectation")
    p.add_argument(
        "--s-target",
        type=float,
        action="append",
        help="threshold-mode target; repeat for several (default 0, 0.1, ..., 1)",
    )
    p.add_argument("--nats", action="store_true")
    p.add_argument("--out", default="scatter.csv")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("optimize", help="optimize one objective over fusion matrices")
    p.add_argument("mode", choices=("expectation", "threshold"))
    p.add_argument("--p-target", type=float, action="append", help="expectation-mode target; repeatable")
    p.add_argument("--s-target", type=float, action="append", help="threshold-mode target; repeatable")
    p.add_argument("--restarts", type=_positive_int, default=20)
    p.add_argument("--iterations", type=_positive_int, default=1000)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nats", action="store_true")
    p.add_argument("--out", default=".", help="output directory for CSV and best-matrix JSON")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("verify", help="run the randomized property suites")
    p.add_argument("--trials", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--suite", action="append", help="restrict to named suites; repeatable")
    p.add_argument(
        "--inject-fault",
        choices=("sign",),
        help="deliberately corrupt one computation (negative control)",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="cross-check a matrix on a concrete fusion scenario")
    p.add_argument("scenario", help="scenario file: left/right graph blocks plus a fuse line")
    p.add_argument("--matrix", required=True)
    p.add_argument("--tol", type=float, default=oracle.DEFAULT_TOL)
    p.add_argument("--out", help="write the comparison JSON here instead of stdout")
    p.set_defaults(func=_cmd_oracle)

    return parser


def _cmd_analyze(args) -> int:
    u = matrices.resolve_matrix(args.matrix)
    table = fusion.outcome_table(u)
    entropies = entanglement.entropies_from_matrix(u)
    verdicts = [
        classify.classify(o, arity=args.arity, tol=args.tol) for o in table.relevant
    ]
    report = reports.analyze_report(args.matrix, table, entropies, verdicts, nats=args.nats)
    if args.out:
        reports.write_json(args.out, report)
        print(f"wrote {args.out}")
    else:
        print(reports.json_text(report))
    return 0


def _cmd_sample(args) -> int:
    rows, summary = optimize.random_scatter(
        args.n, args.seed, args.mode, s_targets=args.s_target
    )
    reports.scatter_csv(args.out, rows, args.mode, nats=args.nats)
    scale, unit = reports.entropy_scale(args.nats)
    if args.mode == "expectation":
        print(
            f"n={args.n} S_exp mean={reports.fmt(summary['S_exp_mean'] * scale)} "
            f"std={reports.fmt(summary['S_exp_std'] * scale)} [{unit}] "
            f"p_total mean={reports.fmt(summary['p_total_mean'])} "
            f"std={reports.fmt(summary['p_total_std'])}"
        )
    else:
        for s, stats in summary["targets"].items():
            print(
                f"s={reports.fmt(s)} P mean={reports.fmt(stats['P_mean'])} "
                f"std={reports.fmt(stats['P_std'])} max={reports.fmt(stats['P_max'])}"
            )
    print(f"wrote {args.out}")
    return 0


def _cmd_optimize(args) -> int:
    if args.mode == "expectation":
        targets = args.p_target
        if not targets:
            raise ValueError("expectation mode needs at least one --p-target")
        if args.s_target:
            raise ValueError("--s-target is a threshold-mode flag")
    else:
        targets = args.s_target
        if not targets:
            raise ValueError("threshold mode needs at least one --s-target")
        if args.p_target:
            raise ValueError("--p-target is an expectation-mode flag")

    cfg = optimize.OptimizerConfig(
        restarts=args.restarts,
        iterations=args.iterations,
        step=args.step,
        master_seed=args.seed,
    )
    rows = optimize.sweep(args.mode, targets, cfg)

    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, f"sweep_{args.mode}.csv")
    reports.sweep_csv(csv_path, rows, args.mode, nats=args.nats)

    prefix = "p" if args.mode == "expectation" else "s"
    for row in rows:
        res = row["result"]
        best_path = os.path.join(
            args.out, f"best_{args.mode}_{prefix}{reports.fmt(row['target'])}.json"
        )
        doc = matrices.matrix_to_json(res.best_matrix)
        doc.update(
            {
                "objective": args.mode,
                "target": row["target"],
                "hard_value": res.hard_value,
                "states_used": res.states_used,
                "p_total": res.p_total,
                "seed": row["seed"],
                "from_builtin": res.from_builtin,
            }
        )
        reports.write_json(best_path, doc)
        print(
            f"{args.mode} target={reports.fmt(row['target'])} "
            f"best={reports.fmt(row['hard_value'])} "
            f"mean={reports.fmt(row['mean_value'])} "
            f"states_used={row['states_used']}"
        )
    print(f"wrote {csv_path}")
    return 0


def _cmd_verify(args) -> int:
    results = verify.run_suites(
        trials=args.trials,
        seed=args.seed,
        inject_fault=args.inject_fault,
        names=args.suite,
    )
    for r in results:
        line = f"{r.name}: passed={r.passed} failed={r.failed}"
        if r.note:
            line += f"  [{r.note}]"
        print(line)
    ok = all(r.ok for r in results)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_oracle(args) -> int:
    with open(args.scenario) as fh:
        scenario = oracle.parse_scenario(fh.read())
    u = matrices.resolve_matrix(args.matrix)
    report = oracle.compare_scenario(scenario, u, tol=args.tol)
    if args.out:
        reports.write_json(args.out, report)
        print(f"wrote {args.out}")
    else:
        print(reports.json_text(report))
    return 0 if report["pass"] else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (matrices.FusionlabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
