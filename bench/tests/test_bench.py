"""Tests of the benchmark itself: fixtures, known answers, tracer counts,
seeding, and the output contract of run.py.

    python3 -m pytest bench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import fixtures as fx  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402

sl = fx.sl
IN_PROCESS = ("map-analysis", "invariance", "classify")
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir():
    (BENCH / ".work").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=BENCH / ".work"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_fixtures_are_valid_with_their_step():
    for name, (_, step) in fx.GROUPS.items():
        group = fx.checked_group(name)
        assert sl.validate(group.algebra).valid
        assert group.step == step, name


def test_a_wrong_step_fails_the_fixture(monkeypatch):
    monkeypatch.setitem(fx.GROUPS, "engel", (fx.engel, 2))
    with pytest.raises(fx.FixtureError):
        fx.checked_group("engel")


def assert_known_answers(tasks):
    for task in tasks:
        ok, verdict = task.check(task.call())
        assert ok, (task.kind, task.desc, verdict)


@pytest.mark.parametrize("name", IN_PROCESS)
def test_every_known_answer_holds(name, workdir):
    assert_known_answers(workloads.WORKLOADS[name](5, workdir))


def test_every_cli_known_answer_holds(workdir):
    assert_known_answers(workloads.cli(5, workdir))


def test_checks_refuse_wrong_answers(workdir):
    inv = {t.kind: t for t in workloads.invariance(5)}
    assert not inv["right-translation"].check(0)[0]
    assert not inv["left-translation"].check(1)[0]

    maps = {t.kind: t for t in workloads.map_analysis(5)}
    dilation = maps["analyze/dilation"]
    rep = dilation.call()
    assert dilation.check(rep)[0]
    assert not dilation.check(dataclasses.replace(rep, lambda_sq=rep.lambda_sq + 1))[0]
    assert not maps["reject/shape"].check(rep)[0]
    assert not maps["verify/fails"].check(())[0]

    classify = {t.kind: t for t in workloads.classify(5, workdir)}
    frames = classify["frames/rotated"]
    dec = frames.call()
    flipped = tuple(tuple(-x for x in row) for row in dec.witness)
    assert frames.check(dec)[0]
    assert not frames.check(sl.FrameDecision(True, flipped))[0]
    corrupt = classify["frontend/validate/1"]
    assert corrupt.check(corrupt.call())[0]
    assert not corrupt.check((0, '{"verdict": "valid"}'))[0]


def test_tracer_counts_equal_hand_counts():
    heis1 = fx.heis(1)
    F = sl.dilation(heis1, 2)
    sl.sublaplacian(heis1)
    original = sl.analyze_commutation
    tracer = tr.Tracer()
    tracer.install()
    try:
        rep = sl.analyze_commutation(F, heis1, heis1, 2)
    finally:
        tracer.uninstall()
    assert rep.conformal
    assert sl.analyze_commutation is original
    assert sl.conformal.gradient is sl.gradient
    m = tr.layer_metrics(tracer.raw())
    # monomials of degree <= 2 in 3 variables: 1 + 3 + 6
    assert m["conformal.probes"] == 10
    assert m["conformal.commutation_residuals.calls"] == 1
    assert m["operators.gradient.calls"] == 10
    # Delta_G on u o F and Delta_H on u, for every probe
    assert m["operators.apply.calls"] == 20
    # the analysis, the pullback and the second differential each take DF
    assert m["calculus.lie_differential.calls"] == 3
    assert m["conformal.probe_decisive_ratio"] == 0.0
    assert m["operators.sublaplacian.hit_ratio"] == 1.0
    # the analysis is one span; everything it calls in other layers nests in it
    spans = [s for s in tracer.spans if s is not None]
    roots = [s for s in spans if s[1] is None]
    assert [r[3] for r in roots] == ["conformal.analyze_commutation"]
    assert all(s[2] == "setup" for s in spans)
    for span_id, parent, _, _, start, end in spans:
        if parent is not None:
            assert spans[parent][4] <= start <= end <= spans[parent][5]
    stats = tracer.stats["conformal.analyze_commutation"]
    assert 0 < stats[2] <= stats[1]


def test_merged_counters_add_up():
    a = {"stats": {"x.f": [1, 2.0, 1.0]}, "counts": {"c": 2}, "maxima": {"m": 3},
         "caches": {"calculus.g": [1, 1, 4]}, "import_s": 0.5}
    b = {"stats": {"x.f": [2, 1.0, 0.5]}, "counts": {"c": 1}, "maxima": {"m": 7},
         "caches": {"calculus.g": [3, 0, 2]}, "import_s": 0.25}
    merged = tr.merge_raw([a, b])
    assert merged["stats"]["x.f"] == [3, 3.0, 1.5]
    assert merged["counts"]["c"] == 3 and merged["maxima"]["m"] == 7
    assert merged["caches"]["calculus.g"] == [4, 1, 4]
    assert merged["import_s"] == 0.75


@pytest.mark.parametrize("name", IN_PROCESS)
def test_a_new_seed_changes_inputs_not_the_mix(name, workdir):
    first, second = (workloads.WORKLOADS[name](seed, workdir) for seed in (1, 2))
    assert Counter(t.kind for t in first) == Counter(t.kind for t in second)
    assert sorted(t.desc for t in first) != sorted(t.desc for t in second)
    again = workloads.WORKLOADS[name](1, workdir)
    assert [t.desc for t in again] == [t.desc for t in first]


def test_a_new_cli_seed_changes_files_not_the_mix(workdir):
    contents = []
    for seed in (1, 2):
        sub = workdir / str(seed)
        sub.mkdir()
        tasks = workloads.cli(seed, sub)
        contents.append({p.name: p.read_text() for p in sub.iterdir()})
        assert Counter(t.kind for t in tasks) == Counter(
            "cli/%s/%d" % (args[0], code) for args, _, code, _ in workloads.CLI_CALLS)
    assert contents[0] != contents[1]
    assert contents[0].keys() == contents[1].keys()


def run_bench(*args, cwd=BENCH.parent, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], capture_output=True, text=True,
                          cwd=cwd, timeout=170)


def test_untraced_run_prints_every_end_to_end_metric():
    proc = run_bench("--workload", "classify", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    header = json.loads(next(l for l in lines if l.startswith("header "))[len("header "):])
    assert {"python", "nproc", "backend", "numpy", "git_sha", "seed"} <= header.keys()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(l.split()[0] == "error_rate" for l in lines if l.startswith("  "))


def test_traced_run_prints_every_layer_metric_and_same_verdicts():
    proc = run_bench("--workload", "classify", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["linalg.calls"]["value"] > 0
    assert result["metrics"]["specfiles.load_s"]["value"] > 0
    assert result["metrics"]["cli.run_s"]["value"] > 0


def test_run_fails_without_the_program(workdir):
    shutil.copy(BENCH.parent / "BENCHMARK.json", workdir)
    shutil.copytree(BENCH, workdir / "bench", ignore=shutil.ignore_patterns(".work",
                                                                             "__pycache__"))
    proc = run_bench("--workload", "classify", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=workdir, script=workdir / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
