"""Span recorder for the traced run, installed from outside the library.

Each public function the layer map names is wrapped, and the wrapper is put
wherever that function object is looked up: its own module, every projdetect
module that imported it by name, and the package namespace. A span is
(name, parent, start, end) in four flat arrays kept in memory; they are
written out once, at the end of the run. Counts are taken at the same
boundaries by hooks that read a call's arguments and return value. A hook
runs in its own "trace.hook" span, so its cost never lands in a library
layer's self time. A target missing from the library is reported as absent.
"""

import importlib
import sys
import time
from array import array
from fractions import Fraction
from math import floor

OP_SPAN = "bench.op"
HOOK_SPAN = "trace.hook"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counters: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.minima: dict[str, float] = {}
        self.absent: list[str] = []
        self.hook_errors: dict[str, str] = {}
        self.originals: dict[str, object] = {}
        self._op_id = self.name_id(OP_SPAN)
        self._hook_id = self.name_id(HOOK_SPAN)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def open_op(self) -> int:
        return self._open(self._op_id)

    def close_op(self, idx: int) -> None:
        self._close(idx)

    def add(self, key: str, value) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def high(self, key: str, value) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def low(self, key: str, value) -> None:
        self.minima[key] = min(self.minima.get(key, value), value)

    def wrap(self, name: str, fn, hook=None):
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                value = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                h = self._open(self._hook_id)
                try:
                    hook(self, args, kwargs, value)
                except Exception as exc:  # a readout must never fail the operation
                    self.hook_errors[name] = f"{type(exc).__name__}: {exc}"
                finally:
                    self._close(h)
            return value

        traced.__wrapped__ = fn
        return traced

    def finish(self, path: str | None) -> dict:
        """Write the spans to `path` (.npz) and return the counts and cache readouts."""
        if path:
            import numpy as np

            np.savez(
                path,
                names=np.array(self.names),
                name=np.frombuffer(self.name, dtype=np.int32),
                parent=np.frombuffer(self.parent, dtype=np.int32),
                start=np.frombuffer(self.start, dtype=np.int64),
                end=np.frombuffer(self.end, dtype=np.int64),
            )
        return {
            "spans": len(self.start),
            "counters": self.counters,
            "maxima": self.maxima,
            "minima": self.minima,
            "caches": cache_readouts(self),
            "absent": self.absent,
            "hook_errors": self.hook_errors,
        }


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _qpe_run(tr: Tracer, args, kwargs, value) -> None:
    import numpy as np

    unitary = _arg(args, kwargs, 0, "unitary")
    dim = len(_arg(args, kwargs, 1, "system_state"))
    t = _arg(args, kwargs, 2, "t")
    dist, counters = value[0], value[1]
    computed = (1 << t) * dim * 16  # complex128 register x system, not a measured footprint
    tr.add("qpe.register_bytes_sum", computed)
    tr.high("qpe.register_bytes_max", computed)
    tr.add("qpe.cu_queries", counters.cu_queries)
    tr.add("qpe.gates", counters.total_gates)
    size = 1 << t
    on_grid = sorted({round(p * size) % size for p in unitary.phases})
    dist = np.asarray(dist)
    tr.high("qpe.wrong_mass_max", abs(float(dist.sum() - dist[on_grid].sum())))


def _alice_detect(tr: Tracer, args, kwargs, value) -> None:
    tr.add("detection.rounds", len(value.rounds))


def _estimate_eigenvalue(tr: Tracer, args, kwargs, value) -> None:
    raw = Fraction(value.raw)
    tr.low("classical.min_rounding_margin", float(abs(raw - floor(raw) - Fraction(1, 2))))


def _l2_inner_product(tr: Tracer, args, kwargs, value) -> None:
    tr.add("classical.queries", value.queries)


def _classical_detect(tr: Tracer, args, kwargs, value) -> None:
    tr.add("classical.trials", 1)
    tr.add("classical.correct", int(value.detected == value.true_label))


def _dft_extract(tr: Tracer, args, kwargs, value) -> None:
    tr.add("holographic.direct_mults", value.direct_mults)
    tr.add("holographic.fft_butterflies", value.fft_butterflies or 0)


def _solve_u(tr: Tracer, args, kwargs, value) -> None:
    tr.add("holographic.solve_mults", value.mults)
    tr.high("holographic.residual_max", value.residual_max)


def _mul(tr: Tracer, args, kwargs, value) -> None:
    left, right = args[0], args[1]
    if hasattr(right, "data"):
        tr.add("groupalgebra.mul.terms", len(left.data) * len(right.data))


# (span name, module, attribute path, hook). Spans are named after the
# layer map, which calls the product "mul" and the table class by its name.
TARGETS = [
    ("cli.run", "cli", "run", None),
    ("detection.alice_detect", "detection", "alice_detect", _alice_detect),
    ("qpe.qpe_run", "qpe", "qpe_run", _qpe_run),
    ("qpe.hadamard_layer", "qpe", "hadamard_layer", None),
    ("qpe.controlled_power_u", "qpe", "controlled_power_u", None),
    ("qpe.inverse_qft", "qpe", "inverse_qft", None),
    ("qpe.measure_register", "qpe", "measure_register", None),
    ("centre.k_star", "centre", "k_star", None),
    ("centre.signature_table", "centre", "signature_table", None),
    ("centre.normalized_character", "centre", "normalized_character", None),
    ("symgroup.character", "symgroup", "character", None),
    ("symgroup.CharacterTable", "symgroup", "CharacterTable.__init__", None),
    ("groupalgebra.mul", "groupalgebra", "GroupAlgebraElement.__mul__", _mul),
    ("groupalgebra.projector_element", "groupalgebra", "projector_element", None),
    ("kron_lr.kronecker", "kron_lr", "kronecker", None),
    ("kron_lr.lr_coefficient", "kron_lr", "lr_coefficient", None),
    ("kron_lr.kron_labels", "kron_lr", "kron_labels", None),
    ("kron_lr.lr_labels", "kron_lr", "lr_labels", None),
    ("kron_lr.kron_detect", "kron_lr", "kron_detect", None),
    ("kron_lr.lr_detect", "kron_lr", "lr_detect", None),
    ("kron_lr.kron_projector_brute", "kron_lr", "kron_projector_brute", None),
    ("classical.classical_detect", "classical", "classical_detect", _classical_detect),
    ("classical.estimate_eigenvalue", "classical", "estimate_eigenvalue", _estimate_eigenvalue),
    ("classical.l2_inner_product", "classical", "l2_inner_product", _l2_inner_product),
    ("holographic.u_profile", "holographic", "u_profile", None),
    ("holographic.dft_extract", "holographic", "dft_extract", _dft_extract),
    ("holographic.solve_U", "holographic", "solve_U", _solve_u),
]

# Metrics a target's hook produces, and metrics computed from a target's spans
# beyond its own .calls/.total_s/.self_s.
HOOK_METRICS = {
    "detection.alice_detect": ("detection.rounds",),
    "qpe.qpe_run": ("qpe.register_bytes_sum", "qpe.register_bytes_max", "qpe.cu_queries", "qpe.gates",
                    "qpe.wrong_mass_max"),
    "classical.classical_detect": ("classical.correct_ratio",),
    "classical.estimate_eigenvalue": ("classical.min_rounding_margin",),
    "classical.l2_inner_product": ("classical.queries",),
    "holographic.dft_extract": ("holographic.direct_mults", "holographic.fft_butterflies"),
    "holographic.solve_U": ("holographic.solve_mults", "holographic.residual_max"),
    "groupalgebra.mul": ("groupalgebra.mul.terms",),
}
SPAN_METRICS = {"groupalgebra.mul": ("groupalgebra.first_mul_s",)}

# functools caches read at the end of the run: (readout name, module, attribute)
CACHES = [
    ("symgroup.character", "symgroup", "character"),
    ("symgroup.dimension", "symgroup", "dimension"),
    ("symgroup.partitions", "symgroup", "partitions"),
    ("symgroup._mn", "symgroup", "_mn"),
    ("centre.k_star", "centre", "k_star"),
    ("kron_lr.kron_labels", "kron_lr", "kron_labels"),
    ("kron_lr.lr_labels", "kron_lr", "lr_labels"),
]


def _module(name: str):
    try:
        return importlib.import_module(f"projdetect.{name}")
    except ImportError:
        return None


def replace_everywhere(original, replacement) -> None:
    """Rebind every projdetect module attribute that is `original`."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "projdetect" or modname.startswith("projdetect.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(targets=TARGETS) -> Tracer:
    tracer = Tracer()
    for span, module, path, hook in targets:
        owner = _module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            tracer.absent.append(span)
            continue
        tracer.originals[span] = original
        wrapped = tracer.wrap(span, original, hook)
        if outer:
            setattr(owner, attr, wrapped)
        else:
            replace_everywhere(original, wrapped)
    return tracer


def cache_readouts(tracer: Tracer) -> dict:
    out = {}
    for name, module, attr in CACHES:
        fn = tracer.originals.get(name) or getattr(_module(module), attr, None)
        info = getattr(fn, "cache_info", None)
        if info is None:
            tracer.absent.append(f"{name}.cache")
            continue
        stats = info()
        out[name] = {"size": stats.currsize, "hits": stats.hits, "misses": stats.misses}
    return out


def blind_metrics(absent, hook_errors) -> set[str]:
    """Metrics the run could not observe: their target is absent or their hook failed."""
    blind = set()
    for span in absent:
        if span.endswith(".cache"):
            cache = span[: -len(".cache")]
            blind |= {f"{cache}.cache_size", f"{cache}.hit_ratio"}
            continue
        blind |= {f"{span}.calls", f"{span}.total_s", f"{span}.self_s"}
        blind |= set(SPAN_METRICS.get(span, ())) | set(HOOK_METRICS.get(span, ()))
    for span in hook_errors:
        blind |= set(HOOK_METRICS.get(span, ()))
    return blind
