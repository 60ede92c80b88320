"""Self-test of the benchmark's meaning checks.

    python3 bench/selftest.py

1. A small operation list runs through the real measured child; every
   answer must pass, and must still pass with an extra JSON field added.
2. Each answer is then corrupted the way a broken library could get it
   wrong, and each corrupted answer must be counted as a failure.
3. The child runs again with a fault injected into the library, and the
   benchmark must count the operations that fault breaks as failed.
4. A traced child runs with one tracer target missing and one readout hook
   failing. Their metrics must read null, not 0, and the run must not be
   correct.

Exits 0 when all of that holds. Takes a few seconds.
"""

import copy
import json
import sys
import time
from pathlib import Path

import run
from checks import split_argv
from reference import fmt, kron_triples, lr_triples, partitions


def _cli(*argv):
    return {"kind": "cli", "args": {"argv": [str(a) for a in argv]}}


def small_ops() -> list[dict]:
    triples3 = kron_triples(3)
    ops = [
        _cli("detect", "zcsn", "--n", 6, "--r", "3,2,1", "--seed", 3, "--json"),
        _cli("detect", "kron", "--n", 4, "--triple", ";".join(fmt(p) for p in kron_triples(4)[5]), "--json"),
        _cli("detect", "lr", "--m", 2, "--n", 2, "--triple", ";".join(fmt(p) for p in lr_triples(2, 2)[1]), "--json"),
        _cli("detect", "classical", "--n", 5, "--r", "3,2", "--trials", 2, "--json"),
        _cli("chars", "--n", 5, "--json"),
        _cli("kron", "--n", 4, "--table", "--json"),
        _cli("lr", "--m", 2, "--n", 3, "--table", "--json"),
        _cli("holo", "roundtrip", "--n", 4, "--capital-n", 5, "--json"),
        _cli("report", "--n-max", 8, "--json"),
        {"kind": "alice", "args": {"n": 6, "weights": [[fmt(p), i + 1] for i, p in enumerate(partitions(6))], "seed": 5}},
        {"kind": "kron_identity", "args": {"n": 3, "seed": 1}},
        {"kind": "lr_identity", "args": {"m": 2, "n": 2, "seed": 2}},
        {"kind": "k_star", "args": {"n": 10}},
    ]
    ops += [{"kind": "pair_build", "args": {"slot": i, "triple": [fmt(p) for p in t]}} for i, t in enumerate(triples3)]
    ops += [{"kind": "pair_square", "args": {"slot": 0}}, {"kind": "pair_product", "args": {"left": 0, "right": 1}}]
    return ops


def _edit_json(entry: dict, edit) -> dict:
    d = json.loads(entry["out"]["stdout"])
    edit(d)
    entry["out"]["stdout"] = json.dumps(d)
    return entry


def _other(label: str) -> str:
    """A different diagram of the same size."""
    n = sum(int(x) for x in label.split(","))
    return next(fmt(p) for p in partitions(n) if fmt(p) != label)


def _bump_first_round(d):
    d["rounds"][0]["eigenvalue"] += 1


# One corruption per answer shape, keyed by the command words or the kind.
CORRUPTIONS = {
    ("detect", "zcsn"): [
        lambda d: d.update(identified_label=_other(d["identified_label"])),
        lambda d: d.update(query_total=d["query_total"] + 1),
        _bump_first_round,
    ],
    ("detect", "kron"): [lambda d: d["detected"].__setitem__(0, _other(d["detected"][0]))],
    ("detect", "lr"): [lambda d: d.update(total_gates=d["total_gates"] + 1)],
    ("detect", "classical"): [lambda d: d["per_k"][0].update(truth=d["per_k"][0]["truth"] + 1)],
    ("chars",): [lambda d: d["rows"][d["classes"][1]].__setitem__(0, d["rows"][d["classes"][1]][0] + 1)],
    ("kron",): [lambda d: d["rows"].pop()],
    ("lr",): [lambda d: d["rows"][0].update(coefficient=d["rows"][0]["coefficient"] + 1)],
    ("holo", "roundtrip"): [lambda d: d["rows"][1].update(recovered=d["rows"][0]["rep"])],
    ("report",): [lambda d: d["quantum"][3].update(k_star=d["quantum"][3]["k_star"] + 1)],
    "alice": [_bump_first_round, lambda d: d.update(identified_label="99")],
    "kron_identity": [lambda d: d.update(total_gates=d["total_gates"] + 1)],
    "lr_identity": [lambda d: d["families"][0]["rounds"][0].update(t=d["families"][0]["rounds"][0]["t"] + 1)],
    "k_star": [lambda v: v + 1],
    "pair_build": [lambda d: d.update(identity_coefficient="0")],
    "pair_square": [lambda d: d.update(idempotent=False)],
    "pair_product": [lambda d: d.update(zero=False)],
}


def corrupted(op: dict, entry: dict):
    """Yield (description, corrupted entry) pairs for one answer."""
    if op["kind"] == "cli":
        key = split_argv(op["args"]["argv"])[0]
        for i, edit in enumerate(CORRUPTIONS[key]):
            yield f"{' '.join(key)} #{i}", _edit_json(copy.deepcopy(entry), edit)
        bad_exit = copy.deepcopy(entry)
        bad_exit["out"]["exit"] = 2
        yield f"{' '.join(key)} exit 2", bad_exit
    else:
        for i, edit in enumerate(CORRUPTIONS[op["kind"]]):
            bad = copy.deepcopy(entry)
            if isinstance(bad["out"], dict):
                edit(bad["out"])
            else:
                bad["out"] = edit(bad["out"])
            yield f"{op['kind']} #{i}", bad
    raised = copy.deepcopy(entry)
    raised["error"] = "ValueError: injected"
    yield f"{op['kind']} raised", raised


def with_extra_field(op: dict, entry: dict) -> dict:
    entry = copy.deepcopy(entry)
    if op["kind"] == "cli":
        return _edit_json(entry, lambda d: d.update(added_in_a_later_version=1))
    if isinstance(entry["out"], dict):
        entry["out"]["added_in_a_later_version"] = 1
    return entry


def _shift_t2(lib):
    original = lib.centre.normalized_character_exact
    lib.centre.normalized_character_exact = lambda rep, k: original(rep, k) + (k == 2)


def _kstar_plus_one(lib):
    import tracer

    original = lib.centre.k_star
    tracer.replace_everywhere(original, lambda n: original(n) + 1)


def _doubled_projector(lib):
    import tracer

    original = lib.kron_lr.kron_projector_brute
    tracer.replace_everywhere(original, lambda *labels: 2 * original(*labels))


# fault -> operation kinds or commands it must break
FAULTS = {
    "t2-shift": (_shift_t2, {"detect zcsn", "detect kron", "detect lr", "detect classical", "alice",
                             "kron_identity", "lr_identity"}),
    "kstar-plus-one": (_kstar_plus_one, {"detect zcsn", "report", "alice", "k_star"}),
    "doubled-projector": (_doubled_projector, {"pair_build", "pair_square"}),
}


def _raise(*_):
    raise RuntimeError("injected hook failure")


def _blind_tracer(lib):
    """Point one target at a missing name and make the qpe_run readout fail."""
    import tracer

    tracer.TARGETS[:] = [
        (span, module, "no_such_function" if span == "qpe.hadamard_layer" else path,
         _raise if span == "qpe.qpe_run" else hook)
        for span, module, path, hook in tracer.TARGETS
    ]


def blind_trace(ops, clean, script) -> list[str]:
    """Check that absent targets and failing hooks read null and fail the run."""
    spans = str(run.OUT_DIR / "spans-selftest.npz")
    run.OUT_DIR.mkdir(exist_ok=True)
    child = run.Child(time.monotonic(), argv=[sys.executable, script, "--blind-tracer"])
    rep = child.run({"ops": ops, "trace": True, "spans": spans})
    if "crash" in rep:
        return [f"blind tracer: child crashed: {rep['crash']}"]
    rep["traced"] = True
    rep["layers"], rep["consistency"] = run.span_layers(spans, rep["trace"])
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer"]]
    values, detail = run.per_layer([dict(clean, traced=False), rep], wanted, "selftest", [0.5] * len(ops))
    problems = []
    for metric in ("qpe.hadamard_layer.total_s", "qpe.cu_queries", "qpe.gates", "qpe.register_bytes_max"):
        if values[metric] is not None:
            problems.append(f"blind tracer: {metric} reads {values[metric]}, not null")
    for metric in ("qpe.qpe_run.calls", "qpe.inverse_qft.total_s", "symgroup.character.calls"):
        if not values[metric]:
            problems.append(f"blind tracer: {metric} reads {values[metric]} though its target ran")
    if run.trace_sound(detail):
        problems.append("blind tracer: a failing hook left the traced run sound")
    print(f"blind tracer: absent {detail['absent']}, hook errors {sorted(detail['hook_errors'])}, "
          f"{len(detail['blind'])} metrics null")
    return problems


def _failed_names(ops, rep) -> set[str]:
    names = set()
    for op, entry in zip(ops, rep["ops"]):
        if run.checks.check(op, entry):
            names.add(" ".join(split_argv(op["args"]["argv"])[0]) if op["kind"] == "cli" else op["kind"])
    return names


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--fault":
        import child

        child.main(prepare=FAULTS[sys.argv[2]][0])
        return 0
    if sys.argv[1:] == ["--blind-tracer"]:
        import child

        child.main(prepare=_blind_tracer)
        return 0
    ops = small_ops()
    problems = []
    clean = run.Child(time.monotonic()).run({"ops": ops, "trace": False, "spans": None})
    if "crash" in clean:
        print(f"clean child crashed: {clean['crash']}")
        return 1
    attempted, failed, reasons = run.judge(ops, [clean])
    if failed:
        problems += [f"clean answer failed: {r}" for r in reasons]
    counted = 0
    for op, entry in zip(ops, clean["ops"]):
        if run.checks.check(op, with_extra_field(op, entry)):
            problems.append(f"extra JSON field counted as failure for {op['kind']}")
        for what, bad in corrupted(op, entry):
            _, bad_failed, _ = run.judge([op], [{"ops": [bad]}])
            counted += bad_failed
            if bad_failed != 1:
                problems.append(f"corruption not counted: {what}")
    print(f"clean run: {attempted} answers, {failed} failed; corruptions counted: {counted}")
    script = str(Path(__file__).resolve())
    for fault, (_, must_break) in FAULTS.items():
        child = run.Child(time.monotonic(), argv=[sys.executable, script, "--fault", fault])
        rep = child.run({"ops": ops, "trace": False, "spans": None})
        if "crash" in rep:
            problems.append(f"fault {fault}: child crashed: {rep['crash']}")
            continue
        _, failed, _ = run.judge(ops, [rep])
        broken = _failed_names(ops, rep)
        missed = must_break - broken
        print(f"fault {fault}: {failed} of {len(ops)} answers counted as failed ({', '.join(sorted(broken))})")
        if missed:
            problems.append(f"fault {fault}: not counted for {sorted(missed)}")
    problems += blind_trace(ops, clean, script)
    for p in problems:
        print("PROBLEM:", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
