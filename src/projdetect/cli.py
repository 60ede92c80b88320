"""Command-line front end for tables, detection runs, and complexity reports.

Subcommands: chars, kstar, detect (zcsn | kron | lr | classical), kron, lr,
holo (roundtrip | cutoff-table | cost), report. Output defaults to text;
--json and --csv switch formats where a command supports them, and --out
writes to a file instead of stdout. JSON output is byte-identical for a fixed
(argv, seed) pair and always carries a top-level "schema": "1". Partitions
are written comma-joined ("3,2,1"), triples semicolon-joined
("3,1;2,2;2,1,1"). Exit codes: 0 success, 1 detection failure, 2 usage error.

The default seed is 0; the environment variable PROJDETECT_SEED overrides it
when --seed is not given explicitly. A negative seed, a non-integer or negative
PROJDETECT_SEED, a table past TABLE_CAPS, a size or trial count past SIZE_CAPS,
a holo --lambda past LAMBDA_CAP and a holo roundtrip --capital-n past
CAPITAL_N_CAP are usage errors. Each handler returns (exit code, output text
or None), and run() alone writes that text.

The parser is built on the first run() and shared by every later call in the
process (build_parser is cached), so building it is paid once, not per call.
Handlers and preflights must not mutate it or its subparsers; they read the
caps and PROJDETECT_SEED when they are called, and argparse reads COLUMNS
only when it prints.
"""

from __future__ import annotations

from functools import cache
import argparse
import json
import math
import os
import sys

from . import centre, classical, detection, holographic, kron_lr
from .symgroup import CharacterTable, format_partition, parse_partition, partitions

SEED_ENV = "PROJDETECT_SEED"

# Largest size whose table a command builds: n for chars and kron, m + n for
# lr. At each cap the slowest build took at most 3.0 s cold on a 2-vCPU VM,
# two or more runs per size. chars --n 25 took 1.8-2.3 s in each output
# format and 26 2.4-3.4 s; lr --m 0 --n 17 took 1.9-2.5 s and --m 0 --n 18
# 4.0-4.5 s, its object-array contraction now outweighing the character
# tables; kron --n 12 took 3.0 s and 13 6 s or longer. detect kron and
# detect lr build their size's table too.
TABLE_CAPS = {"chars": 25, "kron": 12, "lr": 17}

# Largest value of a flag that sets how many diagrams' content power sums,
# eigenvalue columns or samples a command computes, by (command, flag). Cold
# runs on the same VM, two or more per size: detect zcsn --n 53 took 2.4-2.7 s
# and 54 took 3.0-3.1 s; kstar --signatures-for 50 took 2.5-3.0 s and 51
# 3.1-3.4 s; kstar --n-max and report --n-max 47 took 2.4-2.6 s and 48
# 2.8-3.2 s; detect classical --n 8 --r 8, the slowest diagram of 8, took
# 2.5-2.7 s at 400 trials and 2.6-3.3 s at 500. One classical trial at
# --n 16, the slowest diagrams (16) and (1^16), took 0.4-0.5 s cold, but at
# --n 17 the one-row diagram's sample count passes 2^63 and numpy's
# multinomial draw raises, so --n stops at 16 before the clock does. A trial
# costs more at larger --n: about 6 ms at 8 and 0.1 s at 16, in process.
SIZE_CAPS = {
    ("detect zcsn", "--n"): 53,
    ("kstar", "--signatures-for"): 50,
    ("kstar", "--n-max"): 47,
    ("report", "--n-max"): 47,
    ("detect classical", "--n"): 16,
    ("detect classical", "--trials"): 400,
}

# Largest --lambda of the holo commands. holo cost --lambda 125 took 2.5 s on
# the same VM; at 126 a Casimir sum A_l overflows a float after as long, and
# holo roundtrip --lambda 600 took 6.8 s to fail.
LAMBDA_CAP = 125

# Largest holo roundtrip --capital-n. All diagrams of --n N-1 at --lambda 7
# --rho 2 took 2.2-3.1 s cold on that VM at N = 24 and 3.2-3.8 s at N = 25;
# --lambda 0 stays under 0.7 s up to N = 30.
CAPITAL_N_CAP = 24


def _json(obj: dict) -> str:
    """obj as JSON text, keys sorted, under the top-level "schema": "1"."""
    return json.dumps({"schema": "1", **obj}, sort_keys=True)


def _csv(header: str, lines) -> str:
    return "\n".join([header, *lines]) + "\n"


def _pick(args, text: str, data: dict, csv: str | None = None) -> str:
    """The rendering that args asks for: JSON of data, then csv, then text."""
    if args.json:
        return _json(data)
    return csv if csv is not None and args.csv else text


def _emit(text: str, out: str | None) -> None:
    """Write text, ending in exactly one newline, to --out or else stdout."""
    text = text if text.endswith("\n") else text + "\n"
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"projdetect: error: cannot write --out {out}: {exc.strerror}", file=sys.stderr)
            raise SystemExit(2)
    else:
        try:
            print(text, end="", flush=True)
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


def _size_preflight(parser: argparse.ArgumentParser, command: str, flag: str, value: int) -> None:
    """Refuse, as a usage error, a flag value past its cap in SIZE_CAPS."""
    cap = SIZE_CAPS[command, flag]
    if value > cap:
        parser.error(f"{flag} = {value} is past the {command} limit of {cap}")


def _lambda_preflight(args, parser: argparse.ArgumentParser) -> None:
    """Refuse, as a usage error, a --lambda past LAMBDA_CAP."""
    if args.lam is not None and args.lam > LAMBDA_CAP:
        parser.error(f"--lambda = {args.lam} is past the holo limit of {LAMBDA_CAP}")


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
        seed = int(raw)
    except ValueError:
        parser.error(f"{SEED_ENV} must be an integer, got {raw!r}")
    if seed < 0:
        parser.error(f"{SEED_ENV} must be at least 0, got {raw!r}")
    return seed


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--seed", type=_COUNT, default=None, help=f"rng seed (default 0, or ${SEED_ENV})"
    )


def _finish_leaf(p: argparse.ArgumentParser, handler, csv_too: bool = True) -> None:
    """Add a leaf command's output flags, and the handler and parser that run() uses."""
    p.add_argument("--json", action="store_true", help="emit JSON")
    if csv_too:
        p.add_argument("--csv", action="store_true", help="emit CSV")
    p.add_argument("--out", default=None, help="write output to this path")
    p.set_defaults(handler=handler, parser=p)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The projdetect parser, built on the first call and shared after it; do not mutate it."""
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


def _cmd_chars(args, parser):
    _table_preflight(args, parser, "chars")
    table = CharacterTable(args.n)
    if args.json:
        return 0, table.to_json()
    if args.csv:
        return 0, table.to_csv()
    rows = zip(table.labels, table.matrix.tolist())
    lines = [f"{format_partition(r) or '-'}: " + " ".join(map(str, row)) for r, row in rows]
    return 0, "\n".join(lines)


def _cmd_kstar(args, parser):
    if args.signatures_for is not None:
        if args.json:
            parser.error("kstar --signatures-for emits CSV only; drop --json")
        _size_preflight(parser, "kstar", "--signatures-for", args.signatures_for)
        return 0, centre.signature_table_csv(args.signatures_for)
    _size_preflight(parser, "kstar", "--n-max", args.n_max)
    rows = centre.k_star_growth_report(args.n_max)
    return 0, _pick(
        args,
        "\n".join(f"n={r['n']} k*={r['k_star']} heuristic={r['heuristic']:.4f}" for r in rows),
        {"rows": [{"n": r["n"], "k_star": r["k_star"]} for r in rows]},
        _csv("n,k_star,heuristic", (f"{r['n']},{r['k_star']},{r['heuristic']!r}" for r in rows)),
    )


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
        lambda t, seed: kron_lr.kron_detect(kron_lr.pair_projector_state(*t), seed=seed),
        _triple_found,
    ),
    "lr": (
        _lr_triple,
        lambda t, seed: kron_lr.lr_detect(kron_lr.lr_projector_state(*t), seed=seed),
        _triple_found,
    ),
}


def _cmd_detect(args, parser):
    label_arg, detect, describe = _PIPELINES[args.pipeline]
    label = label_arg(args, parser)
    if args.pipeline in TABLE_CAPS:
        _table_preflight(args, parser, args.pipeline)
    else:
        _size_preflight(parser, "detect zcsn", "--n", args.n)
    try:
        transcript = detect(label, _resolve_seed(args, parser))
    except ValueError as exc:
        print(f"detection failed: {exc}", file=sys.stderr)
        return 1, None
    found, head = describe(label, transcript)
    counters = transcript.counters
    text = f"{head} queries={counters.cu_queries} gates={counters.total_gates}"
    return 0 if found == label else 1, _pick(args, text, transcript.to_dict())


def _cmd_detect_classical(args, parser):
    rep = _diagram_arg(args, parser)
    _size_preflight(parser, "detect classical", "--n", args.n)
    _size_preflight(parser, "detect classical", "--trials", args.trials)
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
        "n": args.n,
        "true_label": format_partition(rep),
        "delta": args.delta,
        "trials": args.trials,
        "seed": seed,
        "failures": failures,
        "per_k": first.per_k,
        "totals": {"per_trial": first.queries, "all_trials": total_queries},
    }
    lines = [f"true={format_partition(rep)} trials={args.trials} failures={failures}"]
    lines += [
        f"k={r['k']} estimate={r['estimate']} truth={r['truth']} queries={r['queries']}"
        for r in first.per_k
    ]
    lines.append(f"queries per trial: {first.queries}")
    return 0 if failures == 0 else 1, _pick(args, "\n".join(lines), report)


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


def _cmd_algebra(args, parser):
    flags, triple_arg, key, names = _ALGEBRAS[args.command]
    coefficient, labels_of, dimension, referee = (getattr(kron_lr, f) for f in names)
    sizes = {flag: getattr(args, flag) for flag in flags}
    if args.triple:
        value = coefficient(*triple_arg(args, parser))
        return 0, _pick(args, str(value), {"triple": args.triple, key: value})
    _table_preflight(args, parser, args.command)
    labels = labels_of(*sizes.values())
    if args.table:
        rows = [(";".join(format_partition(p) for p in t), v) for t, v in labels.items()]
        if args.json:
            return 0, _json({**sizes, "rows": [{"triple": t, key: v} for t, v in rows]})
        return 0, _csv(f"triple,{key}", (f'"{t}",{v}' for t, v in rows))
    summary = {
        **sizes,
        names[2]: dimension(*sizes.values()),
        names[3]: referee(*sizes.values()),
        "nonzero_triples": len(labels),
    }
    return 0, _pick(args, " ".join(f"{k}={v}" for k, v in summary.items()), summary)


def _roundtrip_json(result: dict) -> dict:
    row = {k: result[k] for k in ("match", "lam", "rho", "residual_max", "moments", "ops")}
    row["rep"] = format_partition(result["rep"])
    row["recovered"] = format_partition(result["recovered"])
    return row


def _cmd_holo_roundtrip(args, parser):
    """All diagrams of --n, or the one diagram --r, whose CSV is its profile samples."""
    if args.capital_n <= args.n:
        parser.error("--capital-n must exceed --n")
    if args.capital_n > CAPITAL_N_CAP:
        parser.error(f"--capital-n = {args.capital_n} is past the holo limit of {CAPITAL_N_CAP}")
    _lambda_preflight(args, parser)
    single = args.r is not None
    results = []
    for rep in [_diagram_arg(args, parser)] if single else partitions(args.n):
        try:
            results.append(
                holographic.holographic_roundtrip(rep, args.capital_n, lam=args.lam, rho=args.rho)
            )
        except (ValueError, ArithmeticError) as exc:
            where = "" if single else f" at {format_partition(rep)}"
            print(f"roundtrip failed{where}: {exc}", file=sys.stderr)
            return 1, None
    rows = [_roundtrip_json(r) for r in results]
    ok = all(r["match"] for r in rows)
    code = 0 if ok else 1
    if single and args.csv:
        config = holographic.fermion_config(results[0]["rep"], args.capital_n)
        return code, holographic.u_profile(config, args.rho, results[0]["lam"]).samples_csv()
    if single:
        (row,) = rows
        text = (
            f"rep={row['rep']} recovered={row['recovered']} match={row['match']} "
            f"residual={row['residual_max']:.3g}"
        )
        return code, _pick(args, text, row)
    lines = [f"rep={r['rep']} match={r['match']} residual={r['residual_max']:.3g}" for r in rows]
    csv = _csv(
        "rep,recovered,match,residual_max",
        (f'"{r["rep"]}","{r["recovered"]}",{int(r["match"])},{r["residual_max"]!r}' for r in rows),
    )
    data = {"n": args.n, "capital_n": args.capital_n, "rho": args.rho, "rows": rows}
    data["all_match"] = ok
    return code, _pick(args, "\n".join(lines), data, csv)


def _cutoff_lines(rows) -> list[str]:
    return [f"n={r['n']} moment_cutoff={r['moment_cutoff']} k*={r['k_star']}" for r in rows]


def _cmd_holo_cutoffs(args, parser):
    rows = holographic.cutoff_comparison_table(args.n_max)
    lines = (f"{r['n']},{r['moment_cutoff']},{r['k_star']}" for r in rows)
    csv = _csv("n,moment_cutoff,k_star", lines)
    return 0, _pick(args, "\n".join(_cutoff_lines(rows)), {"rows": rows}, csv)


def _cmd_holo_cost(args, parser):
    _lambda_preflight(args, parser)
    try:
        float(args.lam) ** (1.0 + args.beta)
    except OverflowError:
        limit = math.log(sys.float_info.max, args.lam) - 1
        parser.error(
            f"--beta = {args.beta} is past the limit of {limit:.4g} at --lambda {args.lam}"
        )
    report = holographic.holographic_complexity_report(args.lam, args.beta)
    text = (
        f"lambda={report['lambda']} beta={report['beta']} case={report['case']} "
        f"dominant={report['dominant']} direct_mults={report['direct_mults']} "
        f"solve_mults={report['solve_mults']}"
    )
    return 0, _pick(args, text, report)


def _cmd_report(args, parser):
    _size_preflight(parser, "report", "--n-max", args.n_max)
    quantum = detection.complexity_table(range(2, args.n_max + 1))
    sampling = classical.classical_complexity_report([6, 7, 8])
    holo = holographic.cutoff_comparison_table(min(args.n_max, 10))
    lines = ["signature detection (exact phase):"]
    lines += [
        f"  n={r['n']} k*={r['k_star']} queries={r['query_total']} gates={r['gate_total']}"
        for r in quantum
    ]
    lines.append("sampling baseline (widest diagram):")
    lines += [
        f"  n={r['n']} queries={r['queries']} vs quantum {r['quantum_queries']}"
        for r in sampling
    ]
    lines.append("profile pipeline cutoffs:")
    lines += ["  " + line for line in _cutoff_lines(holo)]
    data = {"quantum": quantum, "classical": sampling, "holographic_cutoffs": holo}
    return 0, _pick(args, "\n".join(lines), data)


def run(argv=None) -> int:
    """Parse argv, run its handler and write the handler's output; return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code, text = args.handler(args, args.parser)
        if text is not None:
            _emit(text, args.out)
        return code
    except SystemExit as exc:
        return int(exc.code or 0)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
