"""Tests of the benchmark itself: determinism, count stability, wrapping, checking.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import dataclasses
import sys

import numpy as np
import pytest

import checker
import corpus
import run
import tracer as tracing

import coneguard.cli  # noqa: F401  (the runner drives the imported CLI)


def _small(name):
    """A few cheap instances of a workload, first of each family."""
    wl = corpus.workload(name, seed=3)
    picked, seen = [], set()
    for inst in wl.instances:
        if inst.family not in seen and inst.family not in ("chain", "big"):
            picked.append(inst)
            seen.add(inst.family)
    return dataclasses.replace(wl, instances=tuple(picked))


def _runner(wl, tmp_path, tracer=None):
    for inst in wl.instances:
        (tmp_path / (inst.name + ".txt")).write_text(inst.text, encoding="utf-8")
    return run.Runner(wl, tmp_path, tracer)


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    yield t
    t.uninstall()


def test_same_seed_same_inputs_other_seed_other_inputs():
    for name in corpus.WORKLOADS:
        a, b, c = (corpus.workload(name, s) for s in (5, 5, 6))
        assert [i.text for i in a.instances] == [i.text for i in b.instances]
        assert [i.name for i in a.instances] == [i.name for i in c.instances]
        assert [i.text for i in a.instances if i.family not in ("chain", "defect", "cpld", "file")] != [
            i.text for i in c.instances if i.family not in ("chain", "defect", "cpld", "file")
        ]


@pytest.mark.parametrize("name", corpus.WORKLOADS)
def test_reports_repeat_byte_for_byte_with_and_without_tracing(name, tmp_path, tracer):
    wl = _small(name)
    runner = _runner(wl, tmp_path, tracer)
    runner.run_pass(wl.instances)
    runner.tracing = True
    runner.run_pass(wl.instances)
    runner.tracing = False
    runner.run_pass(wl.instances)
    assert runner.failures == []
    assert runner.attempted == 3 * len(runner.first_reports)


def test_layer_counts_repeat_exactly_between_traced_passes(tmp_path, tracer):
    wl = _small("conic-degenerate")
    runner = _runner(wl, tmp_path, tracer)
    runner.tracing = True
    runner.run_pass(wl.instances)
    first = tracing.count_metrics(tracer.take())
    runner.run_pass(wl.instances)
    second = tracing.count_metrics(tracer.take())
    assert first == second
    assert first["certificates.conic_dependence.calls.dependent"] > 0
    assert first["cqchecks.rcpld.queries"] > 0


def test_wrapping_replaces_every_imported_binding(tracer):
    import coneguard.certificates
    import coneguard.cones
    import coneguard.model

    wrapped = coneguard.cones.eig_sym
    assert wrapped.__wrapped__ is not wrapped
    # modules that imported the name hold the same wrapper
    assert coneguard.model.eig_sym is wrapped
    assert coneguard.certificates.eig_sym is wrapped
    assert sys.modules["coneguard"].eig_sym is wrapped
    tracer.uninstall()
    assert coneguard.model.eig_sym is wrapped.__wrapped__
    tracer.install()


def test_self_time_excludes_children():
    spans = [
        ["model.evaluate", 0.0, 10.0, -1, "a", None],
        ["expr.eval_grad", 1.0, 4.0, 0, "a", None],
        ["cones.eig_sym", 5.0, 7.0, 0, "a", None],
    ]
    times = tracing.time_metrics(spans)
    assert times["model.evaluate.self_s"] == pytest.approx(5.0)
    assert times["model.evaluate.per_call_s"] == pytest.approx(10.0)
    assert times["cones.eig_sym.self_s"] == pytest.approx(2.0)


@pytest.mark.parametrize("instances", [12, 28, 33])
def test_tail_percentile_is_the_highest_with_ten_samples_beyond(instances):
    means = np.arange(instances, dtype=float)
    pct = run.tail_percentile(instances)
    beyond = np.count_nonzero(means > np.percentile(means, pct))
    assert beyond * run.MIN_PASSES >= 10
    assert np.count_nonzero(means > np.percentile(means, pct + 1)) * run.MIN_PASSES < 10


def test_checker_rejects_a_tampered_witness(tmp_path):
    inst = [i for i in corpus.workload("conic-degenerate", 0).instances if i.name == "defect-0"][0]
    path = tmp_path / "p.txt"
    path.write_text(inst.text, encoding="utf-8")
    code, out, error = run._call(coneguard.cli, ["check", "--problem", str(path), "--point=0,0,0,0", "--cq", "all"])
    report = checker.rows(out)
    prog = coneguard.cli.loads(inst.text)
    assert checker.verdicts(report)["rcpld"] == "Fails"
    assert checker.review_check(prog, inst.point, code, report, {}, {}) == []
    tampered = [
        row[:4] + tuple(repr(2.0 * float(t) + 0.5) for t in row[4:]) if row[:3] == ("witness", "crsc", "mu") else row
        for row in report
    ]
    causes = checker.review_check(prog, inst.point, code, tampered, {}, {})
    assert any("crsc witness fails substitution" in c for c in causes)


def test_checker_rejects_a_fails_without_evidence(tmp_path):
    inst = [i for i in corpus.workload("conic-degenerate", 0).instances if i.name == "cpld-0"][0]
    path = tmp_path / "p.txt"
    path.write_text(inst.text, encoding="utf-8")
    code, out, error = run._call(coneguard.cli, ["check", "--problem", str(path), "--point=0,0", "--cq", "all"])
    report = checker.rows(out)
    prog = coneguard.cli.loads(inst.text)
    assert checker.review_check(prog, inst.point, code, report, inst.verdicts, inst.labels) == []
    # at the point itself the subset's gradients are dependent and the rank is unchanged
    at_point = [row[:3] + ("0.0", "0.0") if row[2:3] == ("sample-point",) else row for row in report]
    causes = checker.review_check(prog, inst.point, code, at_point, inst.verdicts, inst.labels)
    assert any("rcpld subset gradients are dependent" in c for c in causes)
    assert any("crsc rank at the sample point" in c for c in causes)
    bare = [row for row in report if row[:2] != ("witness", "rcpld") and row[2:3] != ("sample-point",)]
    causes = checker.review_check(prog, inst.point, code, bare, inst.verdicts, inst.labels)
    assert "rcpld Fails without a witness or a sample point" in causes
    # a Holds in place of a Fails is caught by the known verdicts
    holds = [row[:2] + ("Holds",) if row[:2] == ("verdict", "rcpld") else row for row in report]
    causes = checker.review_check(prog, inst.point, 1, holds, inst.verdicts, inst.labels)
    assert "rcpld is Holds, expected Fails" in causes
