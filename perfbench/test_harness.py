"""Tests of the benchmark harness's own logic.

    python3 -m pytest perfbench
"""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, outermost_total, self_times  # noqa: E402


def test_self_time_subtracts_children_once():
    spans = [
        Span(1, "root", 0.0, 10.0, None),
        Span(2, "a", 1.0, 4.0, 1),
        Span(3, "b", 3.0, 6.0, 1),      # overlaps a: together they cover 1..6
        Span(4, "c", 9.0, 12.0, 1),     # sticks out of root: only 9..10 counts
        Span(5, "inner", 1.5, 2.0, 2),
    ]
    st = self_times(spans)
    assert st[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert st[2] == pytest.approx(3.0 - 0.5)
    assert st[5] == pytest.approx(0.5)


def test_outermost_total_counts_nested_group_members_once():
    spans = [
        Span(1, "auto_grid", 0.0, 3.0, None),
        Span(2, "make_grid", 1.0, 2.0, 1),
        Span(3, "make_grid", 5.0, 6.5, None),
        Span(4, "other", 7.0, 9.0, None),
        Span(5, "make_grid", 7.5, 8.0, 4),
    ]
    assert outermost_total(spans, ["auto_grid", "make_grid"]) == pytest.approx(3.0 + 1.5 + 0.5)


def _fake_package():
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    user.inner = inner            # as after `from .core import inner`
    return pkg, mod, user


def test_patch_records_spans_counters_and_aliases_then_restores(monkeypatch):
    pkg, mod, user = _fake_package()
    for m in (pkg, mod, user):
        monkeypatch.setitem(sys.modules, m.__name__, m)
    originals = (mod.inner, mod.outer)
    tr = Tracer()
    tr.patch(mod, "inner", "inner", on_call=lambda t, a, k: t.count("inner.calls"),
             on_result=lambda t, r: (t.count("inner.sum", r), r)[1], aliases_in="fakepkg")
    tr.patch(mod, "outer", "outer", aliases_in="fakepkg")
    assert mod.outer(1) == 4
    assert user.inner(5) == 6
    assert tr.counters["inner.calls"] == 2
    assert tr.counters["inner.sum"] == 8
    by_name = {}
    for s in tr.spans:
        by_name.setdefault(s.name, []).append(s)
    (outer_span,) = by_name["outer"]
    assert [s.parent for s in by_name["inner"]] == [outer_span.id, None]
    tr.restore()
    assert (mod.inner, mod.outer) == originals
    assert user.inner is originals[0]


def test_span_is_closed_when_the_call_raises():
    tr = Tracer()
    mod = types.SimpleNamespace(f=lambda: 1 / 0)
    tr.patch(mod, "f", "f")
    with pytest.raises(ZeroDivisionError):
        mod.f()
    assert [s.name for s in tr.spans] == ["f"]
    assert tr._stack() == []


def test_foreign_spans_are_renumbered_under_the_parent():
    tr = Tracer()
    with tr.span("cli.process") as sp:
        pass
    tr.add_foreign([[1, "cli.import", 0.0, 1.0, None], [2, "tf.x", 1.0, 2.0, 1]],
                   {"tf.phi_calls": 3}, parent=sp.id)
    imp, x = tr.spans[1], tr.spans[2]
    assert imp.parent == sp.id and x.parent == imp.id
    assert len({s.id for s in tr.spans}) == 3
    assert tr.counters["tf.phi_calls"] == 3


def test_counting_lu_counts_solves_and_forwards_attributes():
    tr = Tracer()
    lu = types.SimpleNamespace(solve=lambda rhs, trans="N": rhs * 2, perm_r=[0, 1])
    wrapped = layers._CountingLU(lu, tr)
    assert wrapped.solve(3) == 6 and wrapped.solve(1) == 2
    assert wrapped.perm_r == [0, 1]
    assert tr.counters["pauli.arpack_solves"] == 2


def test_layer_metrics_per_pass_and_fallback_count():
    spans = [
        Span(1, "pauli.eigs_below", 0.0, 10.0, None),
        Span(2, "pauli.inertia_below", 0.0, 1.0, 1),
        Span(3, "pauli.splu", 1.0, 3.0, 1),
        Span(4, "pauli.inertia_below", 8.0, 9.0, 1),   # a bisection step
        Span(5, "pauli.eigs_below", 20.0, 21.0, None),
        Span(6, "pauli.inertia_below", 20.0, 21.0, 5),
    ]
    counters = {"pauli.nonempty_blocks": 1, "pauli.arpack_solves": 40}
    m = layers.metrics(spans, counters, passes=2, overhead_pct=1.5)
    assert [name for name, _, _ in layers.METRICS] == list(m)
    assert m["pauli.eigs_calls"]["value"] == 1.0
    assert m["pauli.fallback_lu"]["value"] == 0.5
    assert m["pauli.eigs_self_s"]["value"] == pytest.approx((10.0 - 4.0) / 2)
    assert m["pauli.arpack_solves"]["value"] == 20.0
    assert m["pauli.nonempty_block_ratio"]["value"] == 0.5
    assert m["radial_eig.nonempty_channel_ratio"]["value"] == 0.0
    assert m["trace.overhead_pct"] == {"value": 1.5, "unit": "%"}


class _FakeWorkload:
    def __init__(self, ops):
        self.ops = ops
        self.ended = 0

    def operations(self):
        return self.ops

    def end_pass(self):
        self.ended += 1


def test_failure_count_separates_failures_from_wrong_results(capsys):
    def boom(tr):
        raise RuntimeError("exit 5")

    ops = [
        workloads.Op("ok", lambda tr: 1, lambda r: None),
        workloads.Op("raises", boom, lambda r: None),
        workloads.Op("known", lambda tr: 2, lambda r: "off by 0.47", known_fault="pad"),
        workloads.Op("known_mended", lambda tr: 2, lambda r: None, known_fault="pad"),
        workloads.Op("bad_check", lambda tr: 3, lambda r: 1 / 0),
    ]
    wl = _FakeWorkload(ops)
    out = run.Outcome()
    elapsed = run.run_pass(wl, None, out)
    assert elapsed >= 0.0 and wl.ended == 1
    assert (out.attempted, out.failed) == (5, 2)
    assert not out.correct and len(out.wrong) == 1 and out.wrong[0].startswith("bad_check")

    wl.ops = ops[:4]
    again = run.Outcome()
    run.run_pass(wl, None, again)
    assert again.correct and again.failed / again.attempted == 2 / 4


def test_hydrogen_closed_sum():
    assert workloads.hydrogen_trace(1.0 / 400.0) == pytest.approx(-3.075, abs=1e-12)
    assert workloads.hydrogen_trace(0.3) == 0.0


def test_profile_weyl_quadrature_reproduces_the_coulomb_closed_form():
    # phi = 1 is the bare Coulomb potential V = 1/r
    b = workloads.TF_LENGTH
    t = np.geomspace(1e-6, 1e4, 4000)
    for mu in (1e-2, 2.5e-3):
        got = workloads.tf_weyl_from_profile(t, np.ones_like(t), 0.5, mu)
        assert t[-1] * b > 1.0 / mu
        assert got == pytest.approx(workloads.coulomb_weyl(mu) * 0.5 ** -3, rel=1e-4)
    assert workloads.coulomb_weyl(0.01) == pytest.approx(-1.0 / 0.6)


def test_empty_checkout_exits_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "cli-session", "--seconds", "1"]) == 2
    assert "{" not in capsys.readouterr().out
