"""End-to-end signature detection and its exact cost accounting."""

import copy
import json
import tracemalloc
from fractions import Fraction
from math import log2

import numpy as np
import pytest

from projdetect import detection
from projdetect.centre import (
    CentreState,
    cycle_class_size,
    eigenvalue_column,
    k_star,
    normalized_character,
    projector_state,
    signature_table,
)
from projdetect.detection import (
    alice_detect,
    bob_prepare,
    complexity_report,
    complexity_table,
    detect_projector,
    round_values,
    t_bits,
)
from projdetect.qpe import (
    DiagonalUnitary,
    measure_register,
    phase_encode,
    qpe_outcomes,
    qpe_run,
    qpe_schedule,
    sample_outcome,
    schedule_counters,
)
from projdetect.symgroup import partitions


def test_t_bits_examples():
    assert t_bits(6, 2) == 5  # 2*15+1 = 31
    assert t_bits(6, 3) == 7  # 2*40+1 = 81
    assert t_bits(8, 3) == 8  # 2*112+1 = 225
    assert t_bits(7, 2) == 6  # 2*21+1 = 43


def test_roundtrip_all_reps_small_n():
    for n in range(2, 8):
        for rep in partitions(n):
            transcript = detect_projector(rep, seed=0)
            assert transcript.identified_label == rep
            assert transcript.true_label == rep


def test_roundtrip_n8_many_seeds():
    for rep in partitions(8):
        for seed in (0, 1, 17):
            assert detect_projector(rep, seed=seed).identified_label == rep


def test_rounds_decode_normalized_characters():
    rep = (4, 2)
    transcript = detect_projector(rep, seed=3)
    assert len(transcript.rounds) == k_star(6) - 1
    for row in transcript.rounds:
        assert row["eigenvalue"] == normalized_character(rep, row["k"])
        assert row["queries"] == row["t"]
        assert row["gates"] == 2 * row["t"] + row["t"] * (row["t"] - 1) // 2


def test_counter_totals_match_rounds():
    transcript = detect_projector((3, 2, 1), seed=0)
    assert transcript.query_total == sum(r["queries"] for r in transcript.rounds)
    assert transcript.gate_total == sum(r["gates"] for r in transcript.rounds)
    assert transcript.query_total == 12
    assert transcript.gate_total == 55


def test_superposition_collapses_to_component():
    """A two-label state must land on one of its own labels, both reachable."""
    n = 6
    state = CentreState(
        n, {(4, 1, 1): Fraction(1), (3, 3): Fraction(1)}
    ).normalized()
    seen = set()
    for seed in range(24):
        got = alice_detect(state, n, seed=seed).identified_label
        assert got in {(4, 1, 1), (3, 3)}
        seen.add(got)
    assert seen == {(4, 1, 1), (3, 3)}


def test_bob_prepare_unit_norm():
    state = bob_prepare((3, 3))
    assert state.g_norm_sq() == pytest.approx(1.0, abs=1e-12)
    assert set(state.coeffs) == {(3, 3)}


def test_transcript_json_deterministic():
    a = detect_projector((3, 3), seed=7).to_json()
    b = detect_projector((3, 3), seed=7).to_json()
    assert a == b
    data = json.loads(a)
    assert data["schema"] == "1"
    assert data["identified_label"] == "3,3"
    assert data["n"] == 6
    assert data["seed"] == 7


def test_complexity_report_frozen_rows():
    r6 = complexity_report(6)
    assert r6["k_star"] == 3
    assert r6["query_total"] == 12
    assert r6["gate_total"] == 55
    assert [row["t"] for row in r6["per_k"]] == [5, 7]
    r7 = complexity_report(7)
    assert r7["query_total"] == 6
    assert r7["gate_total"] == 27


def test_totals_not_monotone_in_n():
    # k*(7) = 2 < k*(6) = 3 drags the n = 7 cost below the n = 6 cost
    assert complexity_report(7)["query_total"] < complexity_report(6)["query_total"]


def test_complexity_table_growth_bound():
    rows = complexity_table(range(6, 27))
    for row in rows:
        n, ks = row["n"], row["k_star"]
        assert row["query_total"] <= 2 * ks * ks * log2(n)
        assert len(row["register_bits"]) == ks - 1


def test_rejects_mismatched_n():
    state = projector_state((3, 1))
    with pytest.raises(ValueError):
        alice_detect(state, 5, seed=0)


def test_seeded_runs_identical():
    t1 = detect_projector((2, 2, 2), seed=5)
    t2 = detect_projector((2, 2, 2), seed=5)
    assert t1.to_dict() == t2.to_dict()


@pytest.mark.parametrize("n", (6, 8, 10, 12))
def test_analytic_rounds_match_statevector(n):
    """Referee: on weighted centre states both routes read the same m, leave
    the generator in the same state and collapse to the same system vector."""
    labels = partitions(n)
    for seed in range(40):
        weights = np.random.default_rng(1000 + seed).integers(1, len(labels) + 1, len(labels))
        state = CentreState(n, {rep: int(w) for rep, w in zip(labels, weights)})
        amps = state.unit_amplitudes()
        rng = np.random.default_rng(seed)
        for k in range(2, k_star(n) + 1):
            t, values = round_values(labels, n, k)
            unitary = DiagonalUnitary(tuple(Fraction(int(v), 1 << t) for v in values))
            dense_rng = copy.deepcopy(rng)
            _, executed, qstate = qpe_run(unitary, amps, t)
            m_dense, post_dense = measure_register(qstate, dense_rng)
            outcomes = qpe_outcomes(values, amps, t)
            m, amps = sample_outcome(outcomes, rng)
            assert m == m_dense
            assert copy.deepcopy(rng).random() == dense_rng.random()
            assert np.max(np.abs(amps - post_dense)) < 1e-12
            assert outcomes.counters == executed


def test_round_values_are_phase_encode_numerators():
    """Referee: each register value is the encoded phase of its eigenvalue times 2^t."""
    for n in range(2, 15):
        labels = partitions(n)
        for k in range(2, k_star(n) + 1):
            t, values = round_values(labels, n, k)
            bound = cycle_class_size(n, k)
            expected = [phase_encode(normalized_character(rep, k), bound, t) * (1 << t) for rep in labels]
            assert values.tolist() == expected


def test_round_values_refuse_an_eigenvalue_past_its_bound(monkeypatch):
    n, k = 6, 3
    column = eigenvalue_column(n, k).copy()
    column[3] = -cycle_class_size(n, k) - 1
    monkeypatch.setattr(detection, "eigenvalue_column", lambda size, j: column)
    with pytest.raises(ValueError, match="exceeds"):
        round_values(partitions(n), n, k)


def test_schedule_walk_matches_complexity_report():
    """Every round row of complexity_report, n = 2..16, is the walked schedule."""
    for n in range(2, 17):
        for row in complexity_report(n)["per_k"]:
            walked = schedule_counters(qpe_schedule(row["t"]))
            assert (walked.cu_queries, walked.total_gates) == (row["queries"], row["gates"])


def test_detection_reaches_n30():
    """t = 10, 14, 19, 23: the last register would be 128 MiB on the statevector."""
    report = complexity_report(30)
    for rep in ((30,), (8, 7, 6, 5, 4), (1,) * 30):
        transcript = detect_projector(rep, seed=0)
        assert transcript.identified_label == rep
        assert [row["t"] for row in transcript.rounds] == [r["t"] for r in report["per_k"]]
        assert transcript.query_total == report["query_total"]
        assert transcript.gate_total == report["gate_total"]


def test_every_diagram_of_n24_on_one_table():
    """All p(24) = 1575 diagrams at k* = 5, resolved by one table build."""
    report = complexity_report(24)
    labels = partitions(24)
    assert (len(labels), report["k_star"]) == (1575, 5)
    signature_table.cache_clear()
    for rep in labels:
        transcript = detect_projector(rep, seed=0)
        assert transcript.identified_label == rep
        assert [row["t"] for row in transcript.rounds] == [r["t"] for r in report["per_k"]]
        assert transcript.query_total == report["query_total"]
        assert transcript.gate_total == report["gate_total"]
    info = signature_table.cache_info()
    assert (info.misses, info.hits) == (1, len(labels) - 1)


def test_equal_superposition_n20_builds_no_register():
    """All p(20) = 627 diagrams; the smallest round's register alone would be 5 MB."""
    labels = partitions(20)
    state = CentreState(20, {rep: 1 for rep in labels})
    smallest = min(1 << row["t"] for row in complexity_report(20)["per_k"]) * len(labels) * 16
    tracemalloc.start()
    try:
        transcript = alice_detect(state, 20, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < smallest / 4
    assert transcript.identified_label in labels
