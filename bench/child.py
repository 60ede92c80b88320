"""One measured repetition of a workload, run in a fresh interpreter.

The parent writes the request to stdin as JSON:
  {"ops": [...], "trace": bool, "spans": path or null, "setup_only": bool}
and reads one JSON object from stdout. Every operation goes through the
library's public surface: `projdetect.cli.run(argv)`, or the exported function
when no command exists. Names are looked up at call time, so the traced run's
wrappers are seen. Results are summarised after each operation's clock stops,
using no library call that touches a cache.

Between operations the child also times a fixed speed kernel, about
CALIBRATIONS times per repetition. The kernel calls no library code; its time
tracks how fast the shared host runs at that moment, so the parent can state
every time at one reference speed.
"""

import contextlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

# Speed-kernel runs per repetition, spread evenly over its operations.
CALIBRATIONS = 16
# Speed-kernel runs in a child that only sets up.
SETUP_CALIBRATIONS = 3


def monotonic_ns() -> int:
    """Clock shared with the parent process, for the set-up time."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class SpeedKernel:
    """Fixed interpreter-bound and numpy-bound work, a few ms each, timed apart.

    The halves react differently when the shared host slows, so the parent
    weighs them per workload. The kernel touches no projdetect code, so a
    change to the library never changes what it measures.
    """

    def __init__(self, numpy):
        self.vector = numpy.exp(1j * numpy.arange(1 << 15) * 1e-3)

    def __call__(self) -> tuple[int, int]:
        """Nanoseconds of the interpreter half and of the numpy half."""
        t0 = time.perf_counter_ns()
        counts = {}
        for i in range(10000):
            key = (i % 97, i % 13)
            counts[key] = counts.get(key, 0) + i * 3 // 7
        t1 = time.perf_counter_ns()
        x = self.vector
        for _ in range(32):
            x = (x * self.vector).conj() + 1.0
        return t1 - t0, time.perf_counter_ns() - t1


def _label(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",")) if text else ()


class Runner:
    """Executes operations by kind and keeps the pair projectors between them."""

    def __init__(self, lib):
        self.lib = lib
        self.elements = {}

    def run(self, kind: str, args: dict):
        return getattr(self, "_" + kind)(**args)

    def summarize(self, kind: str, args: dict, result):
        if kind == "cli":
            return result
        if kind in ("alice", "kron_identity", "lr_identity"):
            return result.to_dict()
        if kind == "k_star":
            return result
        if kind == "pair_build":
            return {"identity_coefficient": str(result.identity_coefficient())}
        if kind == "pair_square":
            return {"idempotent": result == self.elements[args["slot"]]}
        if kind == "pair_product":
            return {"zero": result.support_size() == 0}
        raise ValueError(f"unknown operation kind {kind!r}")

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.lib.cli.run(argv)
        return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def _alice(self, n, weights, seed):
        state = self.lib.centre.CentreState(n, {_label(t): w for t, w in weights})
        return self.lib.detection.alice_detect(state, n, seed=seed)

    def _kron_identity(self, n, seed):
        kron_lr = self.lib.kron_lr
        return kron_lr.kron_detect(kron_lr.identity_pair_state(n), seed=seed)

    def _lr_identity(self, m, n, seed):
        kron_lr = self.lib.kron_lr
        return kron_lr.lr_detect(kron_lr.identity_lr_state(m, n), seed=seed)

    def _k_star(self, n):
        return self.lib.centre.k_star(n)

    def _pair_build(self, slot, triple):
        element = self.lib.kron_lr.kron_projector_brute(*(_label(t) for t in triple))
        self.elements[slot] = element
        return element

    def _pair_square(self, slot):
        element = self.elements[slot]
        return element * element

    def _pair_product(self, left, right):
        return self.elements[left] * self.elements[right]


def main(prepare=None) -> None:
    """Run one request; `prepare(lib)` may patch the library first (self-test only)."""
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import numpy
    import projdetect
    import projdetect.centre
    import projdetect.cli
    import projdetect.detection
    import projdetect.kron_lr

    request = json.load(sys.stdin)
    ready_ns = monotonic_ns()
    report = {
        "ready_ns": ready_ns,
        "numpy": numpy.__version__,
        "projdetect": getattr(projdetect, "__version__", "unknown"),
    }
    kernel = SpeedKernel(numpy)
    if request.get("setup_only"):
        report["kernel_ns"] = [kernel() for _ in range(SETUP_CALIBRATIONS)]
        print(json.dumps(report))
        return
    if prepare is not None:
        prepare(projdetect)
    tracer = None
    if request["trace"]:
        import tracer as tracing

        tracer = tracing.install()
    runner = Runner(projdetect)
    stride = math.ceil(len(request["ops"]) / CALIBRATIONS)
    kernel_ns = []
    ops = []
    for i, op in enumerate(request["ops"]):
        if i % stride == 0:
            kernel_ns.append(kernel())
        kind, args = op["kind"], op["args"]
        root_span = tracer.open_op() if tracer else None
        t0 = time.perf_counter_ns()
        try:
            result = runner.run(kind, args)
            error = None
        except Exception as exc:  # an operation failure is data, not a crash
            result, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter_ns()
        if tracer:
            tracer.close_op(root_span)
        entry = {"ns": t1 - t0, "t0": t0, "t1": t1, "error": error}
        if error is None:
            try:
                entry["out"] = runner.summarize(kind, args, result)
            except Exception as exc:
                entry["error"] = f"summary {type(exc).__name__}: {exc}"
        ops.append(entry)
    kernel_ns.append(kernel())
    report["ops"] = ops
    report["kernel_ns"] = kernel_ns
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        report["trace"] = tracer.finish(request["spans"])
    print(json.dumps(report))


if __name__ == "__main__":
    main()
