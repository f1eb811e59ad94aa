"""Tests of the benchmark itself (not of arithline).

    python3 -m pytest -q perfbench

Each workload runs at a tiny size; deliberately corrupted outputs must
count as failed ops; the printer must emit every metric of BENCHMARK.json
with its unit; and run.py must refuse to run where it cannot measure.
"""

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads as W  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def first_round(name, seed=0):
    wl = W.WORKLOADS[name]
    return wl, next(wl.rounds(seed))


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_workload_runs_clean_at_tiny_size(name):
    wl, inputs = first_round(name)
    runner = run.Runner(wl)
    stats = W.Stats()
    for inp in inputs[:12]:
        out, _, err = runner.timed(inp)
        assert runner.check(inp, out, err, stats) is not None, runner.first_failure
    assert runner.attempted == len(inputs[:12]) and runner.failed == 0


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(W.WORKLOADS)


def counts_as_failed(wl, inp, out):
    runner = run.Runner(wl)
    assert runner.check(inp, out, None, W.Stats()) is None
    return runner.failed == 1 and runner.attempted == 1


def test_perturbed_quotient_coefficient_fails():
    wl, (inp, *_) = first_round("local_division")
    Q, *rest = wl.op(inp)
    coeffs = dict(Q.coeffs)
    coeffs[0] += Fraction(1, 3)
    bad = type(Q)._raw(coeffs, Q.trunc_mod)
    assert counts_as_failed(wl, inp, (bad, *rest))


def test_flipped_certificate_flag_fails():
    wl, (inp,) = first_round("global_division")
    v, divisions = wl.op(inp)
    Q, R, cert = divisions[1]
    divisions[1] = (Q, R, dataclasses.replace(cert, q_bound_ok=not cert.q_bound_ok))
    assert counts_as_failed(wl, inp, (v, divisions))


def test_wrong_exit_code_fails():
    wl, inputs = first_round("cli_requests")
    ok = next(i for i in inputs if i[1] == 0)
    code, text = wl.op(ok)
    assert counts_as_failed(wl, ok, (2, text))
    reject = next(i for i in inputs if i[1] == 2)
    code, text = wl.op(reject)
    assert counts_as_failed(wl, reject, (1, text))


def test_raised_exception_fails():
    wl, (inp, *_) = first_round("local_division")
    bad = (inp[0] + 1,) + inp[1:]  # G's reduction has the wrong valuation
    runner = run.Runner(wl)
    out, _, err = runner.timed(bad)
    runner.check(bad, out, err, W.Stats())
    assert runner.failed == 1


def test_printer_emits_every_end_to_end_metric():
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert run.E2E_UNITS == want
    line = run.emit({k: 1.5 for k in want}, run.E2E_UNITS)
    assert {k: v["unit"] for k, v in line.items()} == want


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert run.LAYER_UNITS == want
    name = "local_division"
    wl = W.Workload(name, W.ld_round, W.ld_op, W.ld_check, 1, 1)
    runner = run.Runner(wl)
    _, metrics, extras = run.run_traced(wl, runner, wl.rounds(0), 0.0, W.Stats, Tracer(), tmp_path, "t")
    assert set(metrics) == set(want) and runner.failed == 0
    assert metrics["weierstrass.divide_local_series.busy_s"] > 0 and metrics["weierstrass.prepare.busy_s"] > 0
    assert metrics["weierstrass.busy_s"] >= metrics["weierstrass.self_s"] > 0
    # series construction and with_mod count in series_ring, not in their caller
    assert metrics["series_ring.LaurentPoly.with_mod.busy_s"] > 0
    assert metrics["series_ring.LaurentPoly.__init__.busy_s"] > 0
    assert metrics["series_ring.self_s"] >= metrics["series_ring.LaurentPoly.__init__.busy_s"]
    assert (tmp_path / "t-spans.jsonl").is_file()


def test_tracer_counts_calls_and_pauses_for_its_own_scan():
    from arithline import series_ring

    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        f = series_ring.LaurentPoly({0: Fraction(3, 7), 5: 1}, 8)
        series_ring.series_mul(f, f.with_mod(6))
        tracer.end_op()
    finally:
        tracer.uninstall()
    names = [s[0] for s in tracer.spans]
    assert names.count("series_ring.series_mul") == 1
    assert names.count("series_ring.LaurentPoly.with_mod") == 1
    assert "series_ring.LaurentPoly.__init__" in names
    assert tracer.max_coeff_bits == 6 and tracer.paused > 0  # 49, the denominator of (3/7)^2


def test_tracer_restores_library_functions():
    from arithline import series_ring, weierstrass

    from arithline.normvalue import NormValue
    from arithline.series_ring import LaurentPoly

    def current():
        return (weierstrass.series_mul, series_ring.series_mul, weierstrass.divide,
                vars(LaurentPoly)["with_mod"], vars(LaurentPoly)["__init__"], vars(LaurentPoly)["zero"],
                vars(NormValue)["__mul__"])

    before = current()
    tracer = Tracer()
    tracer.install()
    assert all(a is not b for a, b in zip(current(), before))
    tracer.uninstall()
    assert current() == before


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_recorded_digest_matches(name):
    wl = W.WORKLOADS[name]
    runner = run.Runner(wl)
    texts = []
    for inp in run.prefix_inputs(wl, wl.rounds(0)):
        out, _, err = runner.timed(inp)
        texts.append(runner.check(inp, out, err, W.Stats()))
    assert run.digest_of(texts) == run.load_digest(name, 0)


def test_digest_repeats_for_one_seed():
    wl = W.WORKLOADS["global_division"]

    def digest():
        runner = run.Runner(wl)
        gen = wl.rounds(5)
        texts = []
        for _ in range(5):
            (inp,) = next(gen)
            out, _, err = runner.timed(inp)
            texts.append(runner.check(inp, out, err, W.Stats()))
        return run.digest_of(texts)

    assert digest() == digest()


def test_refuses_when_arithline_bits_is_set(monkeypatch, capsys):
    monkeypatch.setenv("ARITHLINE_BITS", "64")
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", "local_division", "--seed", "0", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_refuses_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.delenv("ARITHLINE_BITS", raising=False)
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "local_division", "--seed", "0", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
