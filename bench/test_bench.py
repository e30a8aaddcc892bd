"""Tests of the benchmark itself: seeding, failure accounting, self times and
the removal of traced wrappers.  Each test uses tiny tasks and runs in well
under a second."""

from __future__ import annotations

import dataclasses
import json
import sys
import time

import pytest

import run
from tracing import Tracer, self_times
from workloads import WORKLOADS

if str(run.SRC) not in sys.path:
    sys.path.append(str(run.SRC))
import quonalg  # noqa: E402

TINY_DET = [(1, 2), (2, 2)]


def _quonalg_modules():
    return {k: v for k, v in sys.modules.items() if k == "quonalg" or k.startswith("quonalg.")}


@pytest.fixture
def fresh_lib():
    """A separate import of quonalg; the shared one is restored afterwards."""
    saved = _quonalg_modules()
    try:
        yield run.fresh_import()
    finally:
        for name in _quonalg_modules():
            del sys.modules[name]
        sys.modules.update(saved)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_task_list(name):
    make = WORKLOADS[name].make_tasks
    assert make(7, quonalg) == make(7, quonalg)


@pytest.mark.parametrize("name", ["gram-3way", "certify-scan"])
def test_other_seed_changes_inputs(name):
    make = WORKLOADS[name].make_tasks
    assert sorted(make(1, quonalg)) != sorted(make(2, quonalg))


class _WrongOracle:
    """quonalg with an off-by-one closed-form determinant."""

    def __getattr__(self, attr):
        return getattr(quonalg, attr)

    @staticmethod
    def det_closed_form(m, n):
        return quonalg.det_closed_form(m, n) + 1


class _RaisingOracle(_WrongOracle):
    @staticmethod
    def det_closed_form(m, n):
        raise ArithmeticError("oracle broke")


def test_checks_pass_on_the_real_library():
    result = run.run_pass(WORKLOADS["det-oracle"], quonalg, TINY_DET)
    assert (result.attempted, result.failed) == (2, 0)


def test_time_between_tasks_is_not_pass_time():
    calls = []

    def between():
        calls.append(1)
        time.sleep(0.2)

    result = run.run_pass(WORKLOADS["det-oracle"], quonalg, TINY_DET, between=between)
    assert len(calls) == 2 and result.failed == 0
    assert result.wall < 0.2 and result.cpu < 0.2


@pytest.mark.parametrize("lib", [_WrongOracle(), _RaisingOracle()])
def test_wrong_oracle_is_counted_as_failure(lib):
    result = run.run_pass(WORKLOADS["det-oracle"], lib, TINY_DET)
    assert (result.attempted, result.failed) == (2, 2)
    task = (1, 4, quonalg.interval_of_definiteness(1)[1], "singular")
    result = run.run_pass(WORKLOADS["certify-scan"], lib, [task])
    assert (result.attempted, result.failed) == (1, 1)


def test_median_pass_takes_each_tasks_median():
    passes = [
        run.PassResult([1.0, 5.0], [0.0, 0.0], 2, 0, []),
        run.PassResult([9.0, 2.0], [0.0, 0.0], 2, 0, []),
        run.PassResult([2.0, 3.0], [0.0, 0.0], 2, 0, []),
    ]
    assert run.median_pass(passes, lambda r: r.walls) == 2.0 + 3.0
    assert run.median_pass(passes[:2], lambda r: r.walls) == 5.0 + 3.5


def test_self_times_on_synthetic_tree():
    spans = [
        ("task", 0.0, 10.0, -1, 0),
        ("a", 1.0, 6.0, 0, 0),
        ("b", 2.0, 3.0, 1, 0),
        ("b", 4.0, 5.0, 1, 0),
        ("a", 7.0, 9.0, 0, 0),
        ("task", 10.0, 12.0, -1, 1),
        ("b", 10.5, 11.0, 5, 1),
    ]
    assert self_times(spans) == {
        "task": (2, 3.0 + 1.5),
        "a": (2, 3.0 + 2.0),
        "b": (3, 2.5),
    }


def test_wrappers_are_removed_and_never_reach_an_untraced_pass(fresh_lib):
    modules = list(_quonalg_modules().values())
    before = [dict(vars(m)) for m in modules]
    workload = WORKLOADS["det-oracle"]
    tracer = Tracer(capture=workload.capture)
    with tracer.installed(fresh_lib):
        assert fresh_lib.formulas.ga_mul.__wrapped__ is fresh_lib.group_algebra.ga_mul.__wrapped__
        assert fresh_lib.gram.vacuum_expectation.__wrapped__.__name__ == "vacuum_expectation"
        assert not hasattr(fresh_lib.colored_perm.act, "__wrapped__")
        traced = run.run_pass(workload, fresh_lib, TINY_DET, tracer)
    assert [dict(vars(m)) for m in modules] == before
    assert traced.failed == 0
    stats = self_times(tracer.spans)
    assert stats["benchmark.task"][0] == 2
    assert stats["linalg.poly_det"][0] == 2
    assert [r.size for r in tracer.captured["group_algebra.rep_matrix"]] == [2, 8]
    count = len(tracer.spans)
    assert run.run_pass(workload, fresh_lib, TINY_DET).failed == 0
    assert len(tracer.spans) == count


def test_measure_reports_every_declared_metric(fresh_lib, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    tiny = dataclasses.replace(WORKLOADS["det-oracle"], make_tasks=lambda seed, lib: TINY_DET)
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = run.measure(tiny, seed=1, seconds=0.01, trace=trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared[key]
        }
    assert result["metrics"]["linalg.block_dim"]["value"] == 10
    assert (tmp_path / "det-oracle.spans.tsv.gz").exists()
    assert {w["name"] for w in declared["workloads"]} == set(WORKLOADS)
