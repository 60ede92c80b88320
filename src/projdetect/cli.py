"""Command-line front end for tables, detection runs, and complexity reports.

Subcommands: chars, kstar, detect (zcsn | kron | lr | classical), kron, lr,
holo (roundtrip | cutoff-table | cost), report. Output defaults to text;
--json and --csv switch formats where a command supports them, and --out
writes to a file instead of stdout. JSON output is byte-identical for a fixed
(argv, seed) pair and always carries a top-level "schema": "1". Partitions
are written comma-joined ("3,2,1"), triples semicolon-joined
("3,1;2,2;2,1,1"). Exit codes: 0 success, 1 detection failure, 2 usage error.

The default seed is 0; the environment variable PROJDETECT_SEED overrides it
when --seed is not given explicitly, and a non-integer value of it is a usage
error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import centre, classical, detection, holographic, kron_lr
from .symgroup import (
    CharacterTable,
    format_partition,
    parse_partition,
    partitions,
)

SEED_ENV = "PROJDETECT_SEED"

# Largest size whose table a command builds: n for chars and kron, m + n for
# lr. At each cap the slowest build took at most 3.0 s on a 2-vCPU VM
# (chars --n 18, kron --n 12, lr --m 0 --n 17), and one size more took 6 s
# or longer. detect kron and detect lr build their size's table too.
TABLE_CAPS = {"chars": 18, "kron": 12, "lr": 17}


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            print(f"projdetect: error: cannot write --out {out}: {exc.strerror}", file=sys.stderr)
            raise SystemExit(2)
    else:
        try:
            print(text, flush=True)
        except OSError as exc:
            print(f"projdetect: error: cannot write stdout: {exc.strerror}", file=sys.stderr)
            # the exit flush of sys.stdout would fail again and print a report
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise SystemExit(2)


def _partition_arg(parser: argparse.ArgumentParser, text: str):
    try:
        return parse_partition(text)
    except ValueError as exc:
        parser.error(str(exc))


def _triple_arg(parser: argparse.ArgumentParser, text: str):
    parts = text.split(";")
    if len(parts) != 3:
        parser.error(f"expected three semicolon-joined partitions, got {text!r}")
    return tuple(_partition_arg(parser, p) for p in parts)


def _diagram_arg(args, parser: argparse.ArgumentParser):
    """--r, a diagram of --n boxes."""
    rep = _partition_arg(parser, args.r)
    if sum(rep) != args.n:
        parser.error(f"|{args.r}| = {sum(rep)} does not match --n {args.n}")
    return rep


def _kron_triple(args, parser: argparse.ArgumentParser):
    """--triple, three diagrams of --n boxes."""
    triple = _triple_arg(parser, args.triple)
    if any(sum(p) != args.n for p in triple):
        parser.error(f"every diagram in {args.triple!r} must have {args.n} boxes")
    return triple


def _lr_triple(args, parser: argparse.ArgumentParser):
    """--triple, diagrams (R; R1; R2) of m + n, m and n boxes."""
    triple = _triple_arg(parser, args.triple)
    rep, r1, r2 = triple
    if sum(r1) != args.m or sum(r2) != args.n or sum(rep) != args.m + args.n:
        parser.error(
            f"sizes of {args.triple!r} must be ({args.m + args.n}; {args.m}; {args.n})"
        )
    return triple


def _table_preflight(args, parser: argparse.ArgumentParser, kind: str) -> None:
    """Refuse, as a usage error, a table size past its cap in TABLE_CAPS."""
    size = args.n + (args.m if kind == "lr" else 0)
    if size > TABLE_CAPS[kind]:
        flags = "--m + --n" if kind == "lr" else "--n"
        parser.error(f"{flags} = {size} is past the {kind} table limit of {TABLE_CAPS[kind]}")


def _checked(kind, ok, need: str):
    """An argparse type: kind(text), refused as a usage error unless ok(value)."""

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its messages
    return parse


_COUNT = _checked(int, lambda v: v >= 0, "at least 0")
_POSITIVE = _checked(int, lambda v: v >= 1, "at least 1")
_GROUP_SIZE = _checked(int, lambda v: v >= 2, "at least 2")
_NONNEGATIVE = _checked(float, lambda v: 0 <= v < float("inf"), "finite and at least 0")
_POSITIVE_REAL = _checked(float, lambda v: 0 < v < float("inf"), "finite and above 0")
_PROBABILITY = _checked(float, lambda v: 0 < v < 1, "in (0, 1)")


def _resolve_seed(args, parser: argparse.ArgumentParser) -> int:
    if args.seed is not None:
        return args.seed
    raw = os.environ.get(SEED_ENV, "0")
    try:
        return int(raw)
    except ValueError:
        parser.error(f"{SEED_ENV} must be an integer, got {raw!r}")


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="rng seed (default 0, or $" + SEED_ENV + ")")


def _finish_leaf(p: argparse.ArgumentParser, handler, csv_too: bool = True) -> None:
    """Add a leaf command's output flags, and the handler and parser that run() uses."""
    p.add_argument("--json", action="store_true", help="emit JSON")
    if csv_too:
        p.add_argument("--csv", action="store_true", help="emit CSV")
    p.add_argument("--out", default=None, help="write output to this path")
    p.set_defaults(handler=handler, parser=p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projdetect",
        description="projector detection toolkit: tables, detection, reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chars", help="character table of S_n")
    p.add_argument("--n", type=_COUNT, required=True)
    _finish_leaf(p, _cmd_chars)

    p = sub.add_parser("kstar", help="signature cutoffs k*(n)")
    p.add_argument("--n-max", type=_GROUP_SIZE, required=True)
    p.add_argument(
        "--signatures-for",
        type=_GROUP_SIZE,
        default=None,
        metavar="N",
        help="emit the signature table CSV for this n instead",
    )
    _finish_leaf(p, _cmd_kstar)

    p = sub.add_parser("detect", help="run a detection pipeline")
    dsub = p.add_subparsers(dest="pipeline", required=True)

    d = dsub.add_parser("zcsn", help="centre signature detection")
    d.add_argument("--n", type=_GROUP_SIZE, required=True)
    d.add_argument("--r", required=True, help='projector label, e.g. "3,3"')
    _add_seed(d)
    _finish_leaf(d, _cmd_detect, csv_too=False)

    d = dsub.add_parser("kron", help="tensor-square detection")
    d.add_argument("--n", type=_GROUP_SIZE, required=True)
    d.add_argument("--triple", required=True, help='"R1;R2;R3"')
    _add_seed(d)
    _finish_leaf(d, _cmd_detect, csv_too=False)

    d = dsub.add_parser("lr", help="restriction detection")
    d.add_argument("--m", type=_COUNT, required=True)
    d.add_argument("--n", type=_COUNT, required=True)
    d.add_argument("--triple", required=True, help='"R;R1;R2"')
    _add_seed(d)
    _finish_leaf(d, _cmd_detect, csv_too=False)

    d = dsub.add_parser("classical", help="randomized sampling detection")
    d.add_argument("--n", type=_GROUP_SIZE, required=True)
    d.add_argument("--r", required=True)
    d.add_argument("--delta", type=_PROBABILITY, default=0.05)
    d.add_argument("--trials", type=_POSITIVE, default=1)
    _add_seed(d)
    _finish_leaf(d, _cmd_detect_classical, csv_too=False)

    p = sub.add_parser("kron", help="Kronecker coefficients and dimensions")
    p.add_argument("--n", type=_COUNT, required=True)
    p.add_argument("--triple", default=None, help='"R1;R2;R3"')
    p.add_argument("--table", action="store_true", help="list all nonzero triples")
    _finish_leaf(p, _cmd_algebra)

    p = sub.add_parser("lr", help="restriction coefficients and dimensions")
    p.add_argument("--m", type=_COUNT, required=True)
    p.add_argument("--n", type=_COUNT, required=True)
    p.add_argument("--triple", default=None, help='"R;R1;R2"')
    p.add_argument("--table", action="store_true", help="list all nonzero triples")
    _finish_leaf(p, _cmd_algebra)

    p = sub.add_parser("holo", help="geometry-profile pipeline")
    hsub = p.add_subparsers(dest="stage", required=True)

    h = hsub.add_parser("roundtrip", help="diagram -> profile -> diagram")
    h.add_argument("--n", type=_POSITIVE, required=True)
    h.add_argument("--capital-n", type=int, required=True)
    h.add_argument("--lambda", dest="lam", type=_COUNT, default=None)
    h.add_argument("--rho", type=_POSITIVE_REAL, default=1.0)
    h.add_argument("--r", default=None, help="run a single diagram")
    _finish_leaf(h, _cmd_holo_roundtrip)

    h = hsub.add_parser("cutoff-table", help="moment cutoff next to k*")
    h.add_argument("--n-max", type=_GROUP_SIZE, required=True)
    _finish_leaf(h, _cmd_holo_cutoffs)

    h = hsub.add_parser("cost", help="operation counts for one cutoff")
    h.add_argument("--lambda", dest="lam", type=_POSITIVE, required=True)
    h.add_argument("--beta", type=_NONNEGATIVE, required=True)
    _finish_leaf(h, _cmd_holo_cost, csv_too=False)

    p = sub.add_parser("report", help="complexity summary across pipelines")
    p.add_argument("--n-max", type=_GROUP_SIZE, default=12)
    _finish_leaf(p, _cmd_report, csv_too=False)

    return parser


def _cmd_chars(args, parser, out: str | None) -> int:
    _table_preflight(args, parser, "chars")
    table = CharacterTable(args.n)
    if args.json:
        _emit(table.to_json(), out)
    elif args.csv:
        _emit(table.to_csv(), out)
    else:
        lines = [
            f"{format_partition(r) or '-'}: " + " ".join(map(str, row))
            for r, row in zip(table.labels, table.matrix.tolist())
        ]
        _emit("\n".join(lines), out)
    return 0


def _cmd_kstar(args, parser, out: str | None) -> int:
    if args.signatures_for is not None:
        if args.json:
            parser.error("kstar --signatures-for emits CSV only; drop --json")
        _emit(centre.signature_table_csv(args.signatures_for), out)
        return 0
    rows = centre.k_star_growth_report(args.n_max)
    if args.json:
        _emit(
            _dump(
                {
                    "schema": "1",
                    "rows": [{"n": r["n"], "k_star": r["k_star"]} for r in rows],
                }
            ),
            out,
        )
    elif args.csv:
        lines = ["n,k_star,heuristic"]
        lines += [f"{r['n']},{r['k_star']},{r['heuristic']!r}" for r in rows]
        _emit("\n".join(lines) + "\n", out)
    else:
        _emit(
            "\n".join(
                f"n={r['n']} k*={r['k_star']} heuristic={r['heuristic']:.4f}"
                for r in rows
            ),
            out,
        )
    return 0


def _centre_found(rep, transcript):
    found = transcript.identified_label
    return found, f"true={format_partition(rep)} identified={format_partition(found)}"


def _triple_found(triple, transcript):
    found = transcript.detected
    return found, "detected=" + ";".join(format_partition(p) for p in found)


# Each detect pipeline: (label from argv, detector of a label and a seed,
# (found label, text line head) of a transcript). Library functions are
# looked up per call, so wrappers installed on their modules see the calls.
_PIPELINES = {
    "zcsn": (
        _diagram_arg,
        lambda rep, seed: detection.detect_projector(rep, seed=seed),
        _centre_found,
    ),
    "kron": (
        _kron_triple,
        lambda t, seed: kron_lr.kron_detect(
            kron_lr.pair_projector_state(*t), seed=seed
        ),
        _triple_found,
    ),
    "lr": (
        _lr_triple,
        lambda t, seed: kron_lr.lr_detect(kron_lr.lr_projector_state(*t), seed=seed),
        _triple_found,
    ),
}


def _cmd_detect(args, parser, out: str | None) -> int:
    label_arg, detect, describe = _PIPELINES[args.pipeline]
    label = label_arg(args, parser)
    if args.pipeline in TABLE_CAPS:
        _table_preflight(args, parser, args.pipeline)
    try:
        transcript = detect(label, _resolve_seed(args, parser))
    except ValueError as exc:
        print(f"detection failed: {exc}", file=sys.stderr)
        return 1
    found, head = describe(label, transcript)
    if args.json:
        _emit(transcript.to_json(), out)
    else:
        counters = transcript.counters
        _emit(f"{head} queries={counters.cu_queries} gates={counters.total_gates}", out)
    return 0 if found == label else 1


def _cmd_detect_classical(args, parser, out: str | None) -> int:
    rep = _diagram_arg(args, parser)
    seed = _resolve_seed(args, parser)
    failures = 0
    first = None
    total_queries = 0
    for i in range(args.trials):
        transcript = classical.classical_detect(rep, delta=args.delta, seed=seed + i)
        if first is None:
            first = transcript
        total_queries += transcript.queries
        if transcript.detected != rep:
            failures += 1
    report = {
        "schema": "1",
        "n": args.n,
        "true_label": format_partition(rep),
        "delta": args.delta,
        "trials": args.trials,
        "seed": seed,
        "failures": failures,
        "per_k": first.per_k,
        "totals": {"per_trial": first.queries, "all_trials": total_queries},
    }
    if args.json:
        _emit(_dump(report), out)
    else:
        lines = [
            f"true={format_partition(rep)} trials={args.trials} failures={failures}"
        ]
        lines += [
            f"k={row['k']} estimate={row['estimate']} truth={row['truth']} "
            f"queries={row['queries']}"
            for row in first.per_k
        ]
        lines.append(f"queries per trial: {first.queries}")
        _emit("\n".join(lines), out)
    return 0 if failures == 0 else 1


# kron and lr: (size flags, --triple parser, JSON key of a coefficient, and
# the kron_lr functions giving one coefficient, the coefficient table, the
# algebra's dimension and its referee count). The functions are named, and
# looked up per call, so that wrappers installed on kron_lr see the calls;
# the last two names are also their keys in the summary.
_ALGEBRAS = {
    "kron": (
        ("n",),
        _kron_triple,
        "kronecker",
        ("kronecker", "kron_labels", "dim_K", "ribbon_count"),
    ),
    "lr": (
        ("m", "n"),
        _lr_triple,
        "coefficient",
        ("lr_coefficient", "lr_labels", "dim_A", "necklace_count"),
    ),
}


def _cmd_algebra(args, parser, out: str | None) -> int:
    flags, triple_arg, key, names = _ALGEBRAS[args.command]
    coefficient, labels_of, dimension, referee = (getattr(kron_lr, f) for f in names)
    sizes = {flag: getattr(args, flag) for flag in flags}
    if args.triple:
        value = coefficient(*triple_arg(args, parser))
        if args.json:
            _emit(_dump({"schema": "1", "triple": args.triple, key: value}), out)
        else:
            _emit(str(value), out)
        return 0
    _table_preflight(args, parser, args.command)
    labels = labels_of(*sizes.values())
    if args.table:
        rows = [(";".join(format_partition(p) for p in t), v) for t, v in labels.items()]
        if args.json:
            table = [{"triple": t, key: v} for t, v in rows]
            _emit(_dump({"schema": "1", **sizes, "rows": table}), out)
        else:
            lines = [f"triple,{key}"]
            lines += [f'"{t}",{v}' for t, v in rows]
            _emit("\n".join(lines) + "\n", out)
        return 0
    summary = {
        **sizes,
        names[2]: dimension(*sizes.values()),
        names[3]: referee(*sizes.values()),
        "nonzero_triples": len(labels),
    }
    if args.json:
        _emit(_dump({"schema": "1", **summary}), out)
    else:
        _emit(" ".join(f"{k}={v}" for k, v in summary.items()), out)
    return 0


def _roundtrip_json(result: dict) -> dict:
    return {
        "rep": format_partition(result["rep"]),
        "recovered": format_partition(result["recovered"]),
        "match": result["match"],
        "lam": result["lam"],
        "rho": result["rho"],
        "residual_max": result["residual_max"],
        "moments": result["moments"],
        "ops": result["ops"],
    }


def _cmd_holo_roundtrip(args, parser, out: str | None) -> int:
    if args.capital_n <= args.n:
        parser.error("--capital-n must exceed --n")
    if args.r is not None:
        rep = _diagram_arg(args, parser)
        try:
            result = holographic.holographic_roundtrip(
                rep, args.capital_n, lam=args.lam, rho=args.rho
            )
        except (ValueError, ArithmeticError) as exc:
            print(f"roundtrip failed: {exc}", file=sys.stderr)
            return 1
        if args.csv:
            profile = holographic.u_profile(
                holographic.fermion_config(rep, args.capital_n), args.rho, result["lam"]
            )
            _emit(profile.samples_csv(), out)
        elif args.json:
            _emit(_dump({"schema": "1", **_roundtrip_json(result)}), out)
        else:
            _emit(
                f"rep={format_partition(rep)} recovered="
                f"{format_partition(result['recovered'])} match={result['match']} "
                f"residual={result['residual_max']:.3g}",
                out,
            )
        return 0 if result["match"] else 1
    results = []
    for rep in partitions(args.n):
        try:
            results.append(
                holographic.holographic_roundtrip(
                    rep, args.capital_n, lam=args.lam, rho=args.rho
                )
            )
        except (ValueError, ArithmeticError) as exc:
            print(f"roundtrip failed at {format_partition(rep)}: {exc}", file=sys.stderr)
            return 1
    ok = all(r["match"] for r in results)
    if args.json:
        _emit(
            _dump(
                {
                    "schema": "1",
                    "n": args.n,
                    "capital_n": args.capital_n,
                    "rho": args.rho,
                    "rows": [_roundtrip_json(r) for r in results],
                    "all_match": ok,
                }
            ),
            out,
        )
    elif args.csv:
        lines = ["rep,recovered,match,residual_max"]
        lines += [
            f'"{format_partition(r["rep"])}","{format_partition(r["recovered"])}",'
            f"{int(r['match'])},{r['residual_max']!r}"
            for r in results
        ]
        _emit("\n".join(lines) + "\n", out)
    else:
        _emit(
            "\n".join(
                f"rep={format_partition(r['rep'])} match={r['match']} "
                f"residual={r['residual_max']:.3g}"
                for r in results
            ),
            out,
        )
    return 0 if ok else 1


def _cmd_holo_cutoffs(args, parser, out: str | None) -> int:
    rows = holographic.cutoff_comparison_table(args.n_max)
    if args.json:
        _emit(_dump({"schema": "1", "rows": rows}), out)
    elif args.csv:
        lines = ["n,moment_cutoff,k_star"]
        lines += [f"{r['n']},{r['moment_cutoff']},{r['k_star']}" for r in rows]
        _emit("\n".join(lines) + "\n", out)
    else:
        _emit(
            "\n".join(
                f"n={r['n']} moment_cutoff={r['moment_cutoff']} k*={r['k_star']}"
                for r in rows
            ),
            out,
        )
    return 0


def _cmd_holo_cost(args, parser, out: str | None) -> int:
    report = holographic.holographic_complexity_report(args.lam, args.beta)
    if args.json:
        _emit(_dump({"schema": "1", **report}), out)
    else:
        _emit(
            f"lambda={report['lambda']} beta={report['beta']} case={report['case']} "
            f"dominant={report['dominant']} direct_mults={report['direct_mults']} "
            f"solve_mults={report['solve_mults']}",
            out,
        )
    return 0


def _cmd_report(args, parser, out: str | None) -> int:
    n_max = args.n_max
    quantum = detection.complexity_table(range(2, n_max + 1))
    sampling = classical.classical_complexity_report([6, 7, 8])
    holo = holographic.cutoff_comparison_table(min(n_max, 10))
    if args.json:
        _emit(
            _dump(
                {
                    "schema": "1",
                    "quantum": quantum,
                    "classical": sampling,
                    "holographic_cutoffs": holo,
                }
            ),
            out,
        )
    else:
        lines = ["signature detection (exact phase):"]
        lines += [
            f"  n={r['n']} k*={r['k_star']} queries={r['query_total']} "
            f"gates={r['gate_total']}"
            for r in quantum
        ]
        lines.append("sampling baseline (widest diagram):")
        lines += [
            f"  n={r['n']} queries={r['queries']} vs quantum {r['quantum_queries']}"
            for r in sampling
        ]
        lines.append("profile pipeline cutoffs:")
        lines += [
            f"  n={r['n']} moment_cutoff={r['moment_cutoff']} k*={r['k_star']}"
            for r in holo
        ]
        _emit("\n".join(lines), out)
    return 0


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args, args.parser, args.out)
    except SystemExit as exc:
        return int(exc.code or 0)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
