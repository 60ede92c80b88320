"""Workload inputs, generated from the workload seed in the parent process.

Each workload is a list of operations. An operation is a JSON-able dict with
a "kind" and its "args"; the measured child receives only this list, so no
generator call ever touches the library or warms its caches.
"""

import random

from reference import fmt, kron_triples, lr_triples, partitions

PAIR_DEGREE = 4
SMALL_DETECTIONS = 2


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


def _cli(*argv) -> dict:
    return {"kind": "cli", "args": {"argv": [str(a) for a in argv]}}


def _triple(labels) -> str:
    return ";".join(fmt(p) for p in labels)


def detect_narrow(rng: random.Random) -> list[dict]:
    """Long registers on a one-column system: projector states at n = 20..23."""
    ops = []
    for n in (20, 21, 22, 23):
        for rep in rng.sample(partitions(n), 3):
            ops.append(_cli("detect", "zcsn", "--n", n, "--r", fmt(rep), "--seed", _seed(rng), "--json"))
    for triple in rng.sample(kron_triples(6), SMALL_DETECTIONS):
        ops.append(_cli("detect", "kron", "--n", 6, "--triple", _triple(triple), "--seed", _seed(rng), "--json"))
    for triple in rng.sample(lr_triples(4, 4), SMALL_DETECTIONS):
        ops.append(
            _cli("detect", "lr", "--m", 4, "--n", 4, "--triple", _triple(triple), "--seed", _seed(rng), "--json")
        )
    return ops


def detect_wide(rng: random.Random) -> list[dict]:
    """Short registers on wide systems: weighted centre states and identity states."""
    ops = []
    # Six n = 14 states put the median latency inside one cluster of
    # like-sized operations instead of on the edge between two.
    for n in (14, 14, 14, 14, 14, 14, 15):
        weights = [[fmt(p), rng.randint(1, 9)] for p in partitions(n)]
        ops.append({"kind": "alice", "args": {"n": n, "weights": weights, "seed": rng.randrange(2**31)}})
    # The identity states collapse onto a random label, and the work after
    # each measurement depends on that label; a fixed detection seed keeps
    # their work the same for every workload seed.
    for n in (6, 7):
        ops.append({"kind": "kron_identity", "args": {"n": n, "seed": 0}})
    for m in (4, 5):
        ops.append({"kind": "lr_identity", "args": {"m": m, "n": m, "seed": 0}})
    return ops


def referee_tables(rng: random.Random) -> list[dict]:
    """Cold tables and the exact group-algebra referee; no phase estimation."""
    ops = [{"kind": "k_star", "args": {"n": n}} for n in (30, 34, 38)]
    ops += [
        _cli("chars", "--n", 14, "--json"),
        _cli("kron", "--n", 7, "--table", "--json"),
        _cli("lr", "--m", 5, "--n", 5, "--table", "--json"),
        _cli("detect", "classical", "--n", 8, "--r", fmt(rng.choice(partitions(8))), "--trials", 5,
             "--seed", _seed(rng), "--json"),
        _cli("holo", "roundtrip", "--n", 10, "--capital-n", 11, "--json"),
        _cli("report", "--n-max", 16, "--json"),
    ]
    labels = kron_triples(PAIR_DEGREE)
    ops += [
        {"kind": "pair_build", "args": {"slot": i, "triple": [fmt(p) for p in label]}}
        for i, label in enumerate(labels)
    ]
    # Every projector is squared and multiplied by its successor in label
    # order, so each seed does the same work; the seed only orders it.
    squares = list(range(len(labels)))
    rng.shuffle(squares)
    ops += [{"kind": "pair_square", "args": {"slot": i}} for i in squares]
    pairs = [(i, (i + 1) % len(labels)) for i in range(len(labels))]
    rng.shuffle(pairs)
    ops += [{"kind": "pair_product", "args": {"left": i, "right": j}} for i, j in pairs]
    return ops


WORKLOADS = {
    "detect-narrow": detect_narrow,
    "detect-wide": detect_wide,
    "referee-tables": referee_tables,
}

# Repetitions every run makes, even past --seconds. The tail percentile is
# fixed from len(ops) * MIN_REPS, so it is the same level on every run: p80
# on detect-narrow (16 ops) and detect-wide (11), p90 on referee-tables (138).
MIN_REPS = {
    "detect-narrow": 5,
    "detect-wide": 5,
    "referee-tables": 3,
}

# Weight of the speed kernel's interpreter half in the speed scale of each
# workload's operations and start-ups; the numpy half has the rest. These
# weights tracked the drift best in runs on a shared 2-vCPU VM: centre-state
# and zcsn detections follow the numpy half, the identity-state detections
# and referee-tables both halves equally. A change that moves an operation's
# work between interpreter and numpy code should re-check its weight.
KERNEL_WEIGHT = {
    "detect-narrow": 0.2,
    "detect-wide": 0.2,
    "referee-tables": 0.5,
}
KIND_KERNEL_WEIGHT = {
    "kron_identity": 0.5,
    "lr_identity": 0.5,
}


def kernel_weights(workload: str, ops: list[dict]) -> list[float]:
    """Each operation's kernel weight: its kind's, else its workload's."""
    return [KIND_KERNEL_WEIGHT.get(op["kind"], KERNEL_WEIGHT[workload]) for op in ops]


def generate(workload: str, seed: int) -> list[dict]:
    """The operation list of one workload; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
