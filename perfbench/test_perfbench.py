"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402

harness.require_program()

import inputs  # noqa: E402
import reference  # noqa: E402
import wl_serve  # noqa: E402


# -- seeded inputs ---------------------------------------------------------------

def _first_bursts(seed, cycles=2):
    docs = inputs.edit_documents(seed)
    script = inputs.edit_cycles(seed, docs)
    return docs, [burst for _ in range(cycles) for burst in next(script)]


def test_same_seed_reproduces_identical_inputs():
    assert inputs.batch_rounds(3) == inputs.batch_rounds(3)
    assert inputs.serve_requests(3) == inputs.serve_requests(3)
    assert _first_bursts(3) == _first_bursts(3)


def test_different_seed_changes_inputs():
    assert inputs.batch_rounds(3) != inputs.batch_rounds(4)
    assert ([s["text"] for s in inputs.serve_requests(3)]
            != [s["text"] for s in inputs.serve_requests(4)])
    assert _first_bursts(3) != _first_bursts(4)


def test_mix_is_fixed_across_seeds():
    for seed in (1, 2):
        specs = inputs.serve_requests(seed)
        assert sum(not s["valid"] for s in specs) == len(specs) // 10
        assert sum(s["tree"] for s in specs) == 3 * len(specs) // 10
        # A run cycles through the requests: the flagged boots must
        # hold in the second cycle too.
        cycles = specs * 2
        boots = inputs.lru_boots([s["grammar"] for s in cycles],
                                 inputs.serve_resident())
        assert boots == [i for i, s in enumerate(cycles) if s["boot"]]
        assert sorted(cycles[i]["grammar"] for i in boots) == sorted(
            inputs.SERVE_BOOTS * inputs.SERVE_BLOCKS * 2)
        per_round = len(inputs.GRAMMARS) * len(inputs.BATCH_SIZES)
        assert [len(r) for r in inputs.batch_rounds(seed)] == [
            per_round + (r in inputs.BATCH_LARGE)
            for r in range(inputs.BATCH_ROUNDS)]


def test_completed_bursts_restore_the_document():
    docs, bursts = _first_bursts(5)
    for burst in bursts:
        g = burst[0][0]
        text = docs[g]
        for _g, start, end, repl in burst:
            text = text[:start] + repl + text[end:]
        assert text == docs[g]


# -- percentiles and scaling ----------------------------------------------------

def test_percentile_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(ValueError):
        harness.percentile(list(range(100)), 99)
    with pytest.raises(ValueError):
        harness.percentile(list(range(999)), 99)
    assert harness.percentile(list(range(1000)), 99) == 989
    assert harness.percentile([3.0, 1.0, 2.0] * 10, 50) == 2.0


def test_scaling_divides_by_bracketing_calibration(monkeypatch):
    samples = iter([0.002, 0.004, 0.001, 0.003])
    monkeypatch.setattr(harness, "calibrate", lambda: next(samples))
    clock = harness.Clock()
    for raw in (0.5, 0.2, 0.1):
        clock.op_done(raw)
    ref = harness.REF_CALIB_S
    assert clock.finish() == [pytest.approx(0.5 * ref / 0.003),
                              pytest.approx(0.2 * ref / 0.0025),
                              pytest.approx(0.1 * ref / 0.002)]
    assert clock.calib_median == pytest.approx(0.0025)


def test_clock_sample_averages_its_loops(monkeypatch):
    samples = iter([0.001, 0.003, 0.002, 0.004])
    monkeypatch.setattr(harness, "calibrate", lambda: next(samples))
    clock = harness.Clock(loops=2)
    clock.op_done(0.6)
    assert clock.calib == [pytest.approx(0.002), pytest.approx(0.003)]
    assert clock.finish() == [pytest.approx(0.6 * harness.REF_CALIB_S
                                            / 0.0025)]


def test_timed_setup_scales_each_step(monkeypatch):
    samples = iter([0.001, 0.003, 0.001, 0.002, 0.002, 0.002])
    monkeypatch.setattr(harness, "calibrate", lambda: next(samples))
    ticks = iter([10.0, 10.5, 11.0, 11.5, 20.0, 21.0, 22.0, 23.0])
    monkeypatch.setattr(harness.time, "perf_counter", lambda: next(ticks))
    torn = []
    result, raw, scaled = harness.timed_setup(
        lambda: [lambda: "a", lambda: "b"], 2, teardown=torn.append)
    assert result == ["a", "b"] and torn == [["a", "b"]]
    assert raw == [1.0, 2.0]
    ref = harness.REF_CALIB_S
    assert scaled == [pytest.approx(0.5 * ref / 0.002 + 0.5 * ref / 0.002),
                      pytest.approx(1.0 * ref / 0.002 + 1.0 * ref / 0.002)]


# -- output checks ---------------------------------------------------------------

def _serve_samples(specs):
    samples = []
    for k, spec in enumerate(specs):
        doc = {"ok": spec["valid"], "tokens": 1,
               "tree": "(t)" if spec["tree"] and spec["valid"] else None}
        samples.append({"k": k, "status": 200, "doc": doc})
    return samples


def test_one_corrupted_output_raises_failed_share():
    specs = inputs.serve_requests(7)[:40]
    samples = _serve_samples(specs)
    clean = harness.Result("serve")
    wl_serve._check(samples, specs, None, clean)
    assert clean.failed == 0 and clean.failed_share == 0.0

    victim = next(s for s in samples if specs[s["k"]]["valid"])
    victim["doc"]["ok"] = False
    corrupted = harness.Result("serve")
    wl_serve._check(samples, specs, None, corrupted)
    assert corrupted.failed == 1
    assert corrupted.failed_share == pytest.approx(1 / 40)


def test_stored_reference_catches_a_wrong_tree(tmp_path, monkeypatch):
    specs = inputs.serve_requests(7)[:20]
    trees = [reference.text_digest("(t)") if s["tree"] else None
             for s in specs]
    digest = reference.digest_inputs([(s["id"], s["text"] + str(s["tree"]))
                                      for s in specs])
    (tmp_path / "serve.json").write_text(json.dumps(
        {"seeds": {"7": {"inputs": digest, "tokens": [1] * len(specs),
                         "trees": trees}}}))
    monkeypatch.setattr(reference, "REF_DIR", str(tmp_path))
    ref = reference.load("serve", 7, digest)
    samples = _serve_samples(specs)
    victim = next(s for s in samples
                  if specs[s["k"]]["tree"] and specs[s["k"]]["valid"])
    victim["doc"]["tree"] = "(u)"
    res = harness.Result("serve")
    wl_serve._check(samples, specs, ref, res)
    assert res.failed == 1
    with pytest.raises(reference.StaleReference):
        reference.load("serve", 7, "0" * 16)
