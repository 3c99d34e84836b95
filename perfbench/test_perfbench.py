"""Tests of the benchmark itself: every output check rejects a wrong
element, the layer wrappers cover every binding, the exact counters
repeat across runs, and the command refuses to run without sources.

    python3 -m pytest perfbench
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import layers  # noqa: E402
from ffjac import (Divisor, FFElem, FunctionField, JacobianCtx, Poly,  # noqa: E402
                   finite_places_above, jacobian_order, random_class)
from ffjac.jacobian import JacElem  # noqa: E402
from ffjac.orders import ideal_one  # noqa: E402

RUN = HERE / "run.py"


@pytest.fixture(scope="module")
def q7():
    """The reduce-q7-g3 field (p = 7, n = 3, g = 3) and three classes."""
    stored = json.loads((HERE / "fields" / "reduce-q7-g3.json").read_text())
    ctx = JacobianCtx(FunctionField.from_dict(stored))
    rng = random.Random("perfbench-tests")
    xs = [random_class(ctx, rng) for _ in range(3)]
    return ctx, xs


def _shifted(x, r):
    return JacElem(x.fin, x.inf, x.vec, r)


def test_reduced_accepts_outputs(q7):
    ctx, xs = q7
    for x in xs + [ctx.zero()]:
        assert checks.check_reduced(ctx, x) == []


def test_reduced_rejects_wrong_degree(q7):
    ctx, xs = q7
    bad = checks.check_reduced(ctx, _shifted(xs[0], xs[0].r + 1))
    assert any("deg D~" in m for m in bad)


def test_reduced_rejects_r_above_genus(q7):
    ctx, xs = q7
    bad = checks.check_reduced(ctx, _shifted(xs[0], ctx.g + 1))
    assert any("outside 0..g" in m for m in bad)


def test_reduced_rejects_a_in_support(q7):
    ctx, _ = q7
    z = ctx.zero()
    vec = list(z.vec)
    vec[ctx.a_index] = 1
    bad = checks.check_reduced(ctx, JacElem(z.fin, ctx.A.prime, vec, 1))
    assert "reduced: A in the support of D~" in bad
    assert "reduced: l(D~ - A) != 0" in bad


def test_reduced_rejects_non_unique_representative(q7):
    # D~ = zeros of x - c: effective, degree n <= g, A outside the support,
    # but 1 and 1/(x - c) both lie in L(D~)
    ctx, _ = q7
    field = ctx.field
    fin = ideal_one(field.finite_order()).scale(Poly([-1, 1], field.p))
    x = JacElem(fin, ideal_one(field.infinite_order()), (0,) * ctx.t,
                field.n)
    bad = checks.check_reduced(ctx, x)
    assert bad == ["reduced: l(D~ - A) != 0", "reduced: l(D~) != 1"]


def test_chain_step(q7):
    ctx, (a, b, _) = q7
    c = ctx.add(a, b)
    assert checks.check_chain_step(ctx, a, b, c) == []
    assert a != b
    assert checks.check_chain_step(ctx, b, b, c) != []


def test_genus(q7):
    ctx, _ = q7
    field, g = ctx.field, ctx.g
    p = field.p
    places = [pl for c in range(p)
              for pl in finite_places_above(field, Poly([-c % p, 1], p))
              if pl.degree() == 1]
    d = Divisor.zero(field)
    for pl in (places * g)[:2 * g - 1]:
        d = d + Divisor.from_place(pl)
    assert checks.check_genus(field, g, d, g) == []
    assert checks.check_genus(field, g + 1, d) != []
    assert checks.check_genus(field, g, d, g + 1) != []
    assert checks.check_genus(field, g, Divisor.zero(field)) != []


def test_brute(q7):
    ctx, xs = q7
    x = xs[0]
    div = x.class_divisor(ctx.a_index)
    assert checks.check_brute(ctx, div, x) == []
    assert checks.check_brute(ctx, div, _shifted(x, x.r - 1)) != []


def test_class_invariance(q7):
    ctx, (x, y, _) = q7
    field = ctx.field
    h = FFElem(field, [Poly([1, 2, 3], field.p), Poly([0, 1], field.p),
                       Poly([4], field.p)], Poly([3, 1], field.p))
    div = x.class_divisor(ctx.a_index)
    assert checks.check_class_invariance(ctx, div, x, h) == []
    assert checks.check_class_invariance(ctx, div, y, h) != []


def test_class_number(q7):
    ctx, xs = q7
    h = jacobian_order(ctx.field)
    assert checks.check_class_number(ctx, h, xs) == []
    assert checks.check_class_number(ctx, h + 1, xs[:1]) == [
        "class number: h * x != 0"]
    assert any("Hasse-Weil" in m
               for m in checks.check_class_number(ctx, 1, []))


def test_tracer_wraps_every_binding_and_restores(q7):
    import ffjac.divisors
    import ffjac.jacobian
    import ffjac.orders
    import ffjac.riemann_roch
    bindings = (ffjac.orders, ffjac.jacobian, ffjac.divisors,
                ffjac.riemann_roch)
    original = ffjac.orders.ideal_mul
    one = ideal_one(q7[0].field.finite_order())
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        for mod in bindings:
            assert mod.ideal_mul is not original
        ffjac.jacobian.ideal_mul(one, one)
        assert tracer.stats["orders.ideal_mul"].calls == 1
        assert tracer.stats["polymat.hnf_square"].calls == 1
    finally:
        tracer.uninstall()
    for mod in bindings:
        assert mod.ideal_mul is original


def test_tracer_reports_absent_layer(monkeypatch):
    monkeypatch.setattr(layers, "LAYERS", layers.LAYERS + (
        ("orders", "no_such_entry_point", "orders.gone"),))
    tracer = layers.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["orders.gone"]
    metrics = tracer.per_op_metrics(1, 1)
    assert metrics["orders.gone.calls_per_op"] == (0.0, "call/op")


def test_meter_divides_by_machine_slowdown(monkeypatch):
    import calib
    import run
    monkeypatch.setattr(calib, "sample", lambda: 2 * calib.REFERENCE_S)
    meter = run.Meter(2)
    meter.add(0.004)
    for key, dt in enumerate((0.010, 0.020, 0.012, 0.060, 0.014, 0.020)):
        meter.add(dt, key % 2)
    meter.flush()
    assert meter.raw == [0.010, 0.020, 0.012, 0.060, 0.014, 0.020]
    assert meter.norm == pytest.approx([0.005, 0.010, 0.006, 0.030,
                                        0.007, 0.010])
    assert meter.norm_busy == pytest.approx(0.070)
    assert meter.slowdown() == pytest.approx(2.0)
    # the burst in the second round's second operation is voted down
    assert sorted(meter.typical()) == pytest.approx([0.006] * 3
                                                    + [0.010] * 3)


def _run(*args, cwd=None, script=RUN):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_exact_counters_repeat_across_runs():
    args = ("--workload", "reduce-q7-g3", "--seed", "3", "--seconds", "1",
            "--trace", "1")
    results = []
    for _ in range(2):
        proc = _run(*args)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    for res in results:
        assert res["correct"] and res["failed"] == 0
    exact = [{k: v for k, v in res["metrics"].items()
              if k.startswith("jacobian.") and not k.endswith(".s")}
             for res in results]
    assert exact[0] == exact[1]
    assert len(exact[0]) == 6


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "reduce-q7-g3", "--seed", "1", "--seconds",
                "1", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
