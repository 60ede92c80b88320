"""Meaning checks on each operation's answer, run in the parent after timing.

A check reads only the fields it needs, so a later change that adds a field
to a JSON output is not a failure. Each check returns None when the answer
is right and a one-line reason when it is not. The expected values come from
`reference`, never from the library under test.
"""

import json

from reference import (
    KSTAR,
    centralizer,
    dimension,
    eigenvalue,
    fmt,
    induced_dimension,
    kronecker,
    lr,
    pair_identity_coefficient,
    parse,
    partitions,
    round_cost,
    t_bits,
)


def split_argv(argv: list[str]) -> tuple[tuple[str, ...], dict]:
    """Command words and --flag values of a CLI argv."""
    words, flags, i = [], {}, 0
    while i < len(argv):
        token = argv[i]
        if token.startswith("--"):
            if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
                flags[token[2:]] = argv[i + 1]
                i += 2
                continue
            flags[token[2:]] = True
        else:
            words.append(token)
        i += 1
    return tuple(words), flags


def _rounds(rounds: list, size: int, label) -> tuple[str | None, int, int]:
    """Check one signature family; returns (reason, queries, gates)."""
    ks = [r["k"] for r in rounds]
    if ks != list(range(2, KSTAR[size] + 1)):
        return f"rounds k={ks} for size {size}, want 2..{KSTAR[size]}", 0, 0
    queries = gates = 0
    for r in rounds:
        k = r["k"]
        t = t_bits(size, k)
        want = eigenvalue(label, k)
        if r["t"] != t:
            return f"k={k}: t={r['t']}, want {t}", 0, 0
        if r["eigenvalue"] != want:
            return f"k={k}: eigenvalue {r['eigenvalue']} for {fmt(label)}, want {want}", 0, 0
        if r["measured"] != want % (1 << t):
            return f"k={k}: measured {r['measured']} does not encode {want}", 0, 0
        q, g = round_cost(t)
        if (r["queries"], r["gates"]) != (q, g):
            return f"k={k}: counted ({r['queries']}, {r['gates']}), want ({q}, {g})", 0, 0
        queries, gates = queries + q, gates + g
    return None, queries, gates


def _centre_transcript(d: dict, n: int, label) -> str | None:
    reason, q, g = _rounds(d["rounds"], n, label)
    if reason:
        return reason
    if (d["query_total"], d["gate_total"]) != (q, g):
        return f"totals ({d['query_total']}, {d['gate_total']}), want ({q}, {g})"
    return None


def _families(d: dict, names_sizes, detected) -> str | None:
    families = {f["family"]: f for f in d["families"]}
    queries = gates = 0
    for slot, (name, size) in enumerate(names_sizes):
        family = families.get(name)
        if family is None:
            return f"family {name} missing"
        if len(partitions(size)) < 2:
            if family.get("rounds"):
                return f"family {name} ran rounds on a one-diagram group"
            continue
        reason, q, g = _rounds(family["rounds"], size, detected[slot])
        if reason:
            return f"{name}: {reason}"
        if family["signature"] != [r["eigenvalue"] for r in family["rounds"]]:
            return f"{name}: signature does not match its rounds"
        queries, gates = queries + q, gates + g
    if (d["cu_queries"], d["total_gates"]) != (queries, gates):
        return f"totals ({d['cu_queries']}, {d['total_gates']}), want ({queries}, {gates})"
    return None


def _json_out(out: dict, allowed=(0,)) -> tuple[str | None, dict | None]:
    if out["exit"] not in allowed:
        return f"exit {out['exit']}: {out['stderr'].strip()[:200]}", None
    try:
        return None, json.loads(out["stdout"])
    except ValueError as exc:
        return f"unparsable JSON: {exc}", None


def _triple(text: str):
    return tuple(parse(p) for p in text.split(";"))


def cli_zcsn(flags, d) -> str | None:
    n, rep = int(flags["n"]), parse(flags["r"])
    if d["true_label"] != fmt(rep) or d["identified_label"] != fmt(rep):
        return f"identified {d['identified_label']} for true {fmt(rep)}"
    return _centre_transcript(d, n, rep)


def cli_detect_kron(flags, d) -> str | None:
    n, triple = int(flags["n"]), _triple(flags["triple"])
    if [parse(p) for p in d["detected"]] != list(triple):
        return f"detected {d['detected']} for true {flags['triple']}"
    return _families(d, (("left", n), ("right", n), ("diag", n)), triple)


def cli_detect_lr(flags, d) -> str | None:
    m, n, triple = int(flags["m"]), int(flags["n"]), _triple(flags["triple"])
    if [parse(p) for p in d["detected"]] != list(triple):
        return f"detected {d['detected']} for true {flags['triple']}"
    return _families(d, (("whole", m + n), ("left", m), ("right", n)), triple)


def cli_classical(flags, d, exit_code) -> str | None:
    n, rep, trials = int(flags["n"]), parse(flags["r"]), int(flags["trials"])
    if (d["n"], d["true_label"], d["trials"]) != (n, fmt(rep), trials):
        return "echoed inputs differ"
    if not 0 <= d["failures"] <= trials or exit_code != (1 if d["failures"] else 0):
        return f"failures {d['failures']} with exit {exit_code}"
    rows = d["per_k"]
    if [r["k"] for r in rows] != list(range(2, KSTAR[n] + 1)):
        return "per_k rows do not cover 2..k*"
    for r in rows:
        if r["truth"] != eigenvalue(rep, r["k"]):
            return f"k={r['k']}: truth {r['truth']}, want {eigenvalue(rep, r['k'])}"
        if r["queries"] <= 0:
            return f"k={r['k']}: no queries counted"
    if d["totals"]["per_trial"] != sum(r["queries"] for r in rows):
        return "per-trial query total is not the sum of its rows"
    return None


def cli_chars(flags, d) -> str | None:
    n = int(flags["n"])
    labels = [fmt(p) for p in partitions(n)]
    if d["classes"] != labels or sorted(d["rows"]) != sorted(labels):
        return "table is not indexed by the partitions of n"
    identity = labels.index(fmt((1,) * n))
    for rep in partitions(n):
        if d["rows"][fmt(rep)][identity] != dimension(rep):
            return f"chi^{fmt(rep)}(e) is not dim {dimension(rep)}"
    for j, mu in enumerate(partitions(n)):
        if sum(d["rows"][r][j] ** 2 for r in labels) != centralizer(mu):
            return f"column {fmt(mu)} fails orthogonality"
    return None


def cli_kron_table(flags, d) -> str | None:
    n = int(flags["n"])
    acc = {}
    for row in d["rows"]:
        a, b, c = _triple(row["triple"])
        if row["kronecker"] <= 0:
            return f"non-positive row {row['triple']}"
        acc[(a, b)] = acc.get((a, b), 0) + row["kronecker"] * dimension(c)
    for a in partitions(n):
        for b in partitions(n):
            if acc.get((a, b), 0) != dimension(a) * dimension(b):
                return f"sum_c g({fmt(a)},{fmt(b)},c) d_c != d_a d_b"
    return None


def cli_lr_table(flags, d) -> str | None:
    m, n = int(flags["m"]), int(flags["n"])
    acc = {}
    for row in d["rows"]:
        rep, r1, r2 = _triple(row["triple"])
        if row["coefficient"] <= 0:
            return f"non-positive row {row['triple']}"
        acc[(r1, r2)] = acc.get((r1, r2), 0) + row["coefficient"] * dimension(rep)
    for r1 in partitions(m):
        for r2 in partitions(n):
            if acc.get((r1, r2), 0) != induced_dimension(m, n, r1, r2):
                return f"induced dimension of {fmt(r1)} x {fmt(r2)} is wrong"
    return None


def cli_holo(flags, d) -> str | None:
    n = int(flags["n"])
    if d["all_match"] is not True:
        return "not every roundtrip matched"
    reps = [row["rep"] for row in d["rows"]]
    if reps != [fmt(p) for p in partitions(n)]:
        return "rows do not cover the partitions of n"
    for row in d["rows"]:
        if row["recovered"] != row["rep"] or row["match"] is not True:
            return f"roundtrip of {row['rep']} gave {row['recovered']}"
    return None


def cli_report(flags, d) -> str | None:
    n_max = int(flags["n-max"])
    rows = d["quantum"]
    if [r["n"] for r in rows] != list(range(2, n_max + 1)):
        return "quantum rows do not cover 2..n-max"
    for r in rows:
        n = r["n"]
        bits = [t_bits(n, k) for k in range(2, KSTAR[n] + 1)]
        if r["k_star"] != KSTAR[n] or r["register_bits"] != bits:
            return f"n={n}: k*={r['k_star']} bits={r['register_bits']}"
        costs = [round_cost(t) for t in bits]
        if (r["query_total"], r["gate_total"]) != (sum(q for q, _ in costs), sum(g for _, g in costs)):
            return f"n={n}: totals differ from the round formula"
    for r in d["holographic_cutoffs"]:
        if r["k_star"] != KSTAR[r["n"]]:
            return f"holographic row n={r['n']}: k*={r['k_star']}"
    return None


def check_cli(args, out) -> str | None:
    words, flags = split_argv(args["argv"])
    if words == ("detect", "classical"):
        reason, d = _json_out(out, allowed=(0, 1))
        return reason or cli_classical(flags, d, out["exit"])
    reason, d = _json_out(out)
    if reason:
        return reason
    handler = {
        ("detect", "zcsn"): cli_zcsn,
        ("detect", "kron"): cli_detect_kron,
        ("detect", "lr"): cli_detect_lr,
        ("chars",): cli_chars,
        ("kron",): cli_kron_table,
        ("lr",): cli_lr_table,
        ("holo", "roundtrip"): cli_holo,
        ("report",): cli_report,
    }[words]
    return handler(flags, d)


def check_alice(args, d) -> str | None:
    n = args["n"]
    label = parse(d["identified_label"])
    if label not in set(partitions(n)):
        return f"identified {d['identified_label']} is not a diagram of {n}"
    return _centre_transcript(d, n, label)


def check_kron_identity(args, d) -> str | None:
    n = args["n"]
    detected = tuple(parse(p) for p in d["detected"])
    if any(sum(p) != n for p in detected) or not kronecker(*detected):
        return f"detected {d['detected']} has zero Kronecker coefficient"
    return _families(d, (("left", n), ("right", n), ("diag", n)), detected)


def check_lr_identity(args, d) -> str | None:
    m, n = args["m"], args["n"]
    detected = tuple(parse(p) for p in d["detected"])
    if [sum(p) for p in detected] != [m + n, m, n] or not lr(*detected):
        return f"detected {d['detected']} has zero restriction coefficient"
    return _families(d, (("whole", m + n), ("left", m), ("right", n)), detected)


def check_k_star(args, value) -> str | None:
    want = KSTAR[args["n"]]
    return None if value == want else f"k*({args['n']}) = {value}, want {want}"


def check_pair_build(args, d) -> str | None:
    want = str(pair_identity_coefficient(*(parse(p) for p in args["triple"])))
    got = d["identity_coefficient"]
    return None if got == want else f"delta(ptilde) = {got}, want {want}"


def check_pair_square(args, d) -> str | None:
    return None if d["idempotent"] is True else "e*e != e"


def check_pair_product(args, d) -> str | None:
    return None if d["zero"] is True else "off-diagonal product is not zero"


CHECKS = {
    "cli": check_cli,
    "alice": check_alice,
    "kron_identity": check_kron_identity,
    "lr_identity": check_lr_identity,
    "k_star": check_k_star,
    "pair_build": check_pair_build,
    "pair_square": check_pair_square,
    "pair_product": check_pair_product,
}


def check(op: dict, entry: dict) -> str | None:
    """None when the operation ran and its answer means the right thing."""
    if entry.get("error"):
        return entry["error"]
    try:
        return CHECKS[op["kind"]](op["args"], entry["out"])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed answer: {type(exc).__name__}: {exc}"

