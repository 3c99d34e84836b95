import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ffjac
import ffjac.cli
from ffjac.cli import main
from ffjac.divisors import Divisor, finite_places_above
from ffjac.fieldgen import gen_structured, read_field
from ffjac.jacobian import JacobianCtx
from ffjac.polys import Poly

GENUS_HEADER = ("genus"
                " linear_no_caching_milliseconds_per_addition"
                " linear_caching_milliseconds_per_addition"
                " binary_no_caching_milliseconds_per_addition"
                " binary_caching_milliseconds_per_addition")


def gen_one(tmp_path, seed="7"):
    out = tmp_path / "fields"
    main(["gen", "--method", "tang", "--p", "32771", "--n", "3",
          "--cf", "2", "--count", "1", "--seed", seed,
          "--out", str(out)])
    return out / "field_tang_p32771_n3_cf2_0.json"


def test_gen_is_deterministic(tmp_path, capsys):
    p1 = gen_one(tmp_path / "a")
    p2 = gen_one(tmp_path / "b")
    assert json.load(open(p1)) == json.load(open(p2))
    d = json.load(open(p1))
    assert d["meta"]["genus"] == 4
    assert d["meta"]["genus_bound_attained"] is True
    capsys.readouterr()


def test_gen_adhoc_with_genus(tmp_path, capsys):
    rc = main(["gen", "--method", "adhoc", "--p", "32771", "--n", "2",
               "--cf-max", "4", "--genus", "2", "--out", str(tmp_path)])
    assert rc == 0
    path = tmp_path / "field_adhoc_p32771_n2_0.json"
    F, meta = read_field(path)
    assert F.genus() == 2 and meta["method"] == "adhoc"
    capsys.readouterr()


def test_bench_dat_format(tmp_path, capsys):
    field = gen_one(tmp_path)
    out = tmp_path / "run.dat"
    rc = main(["bench", "--fields", str(field), "--chains", "1",
               "--chain-length", "8", "--seed", "3", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    assert any("seed" in l for l in comments)
    assert any("sweep" in l for l in comments)
    assert any("artifact" in l for l in comments)
    header = next(l for l in lines if not l.startswith("#"))
    assert header.startswith(GENUS_HEADER)
    cols = header.split()
    assert cols[5:] == ["linear_no_caching_ssrr_calls_mean",
                        "linear_caching_ssrr_calls_mean",
                        "binary_no_caching_ssrr_calls_mean",
                        "binary_caching_ssrr_calls_mean"]
    row = lines[lines.index(header) + 1].split()
    assert len(row) == len(cols)
    assert int(row[0]) == 4
    for v in row[1:5]:
        assert float(v) > 0.0


def test_bench_counter_columns_reproduce(tmp_path, capsys):
    field = gen_one(tmp_path)
    rows = []
    for name in ("r1.dat", "r2.dat"):
        out = tmp_path / name
        main(["bench", "--fields", str(field), "--chains", "1",
              "--chain-length", "8", "--seed", "5", "--out", str(out)])
        rows.append(out.read_text().splitlines()[-1].split())
    capsys.readouterr()
    assert rows[0][0] == rows[1][0]
    assert rows[0][5:] == rows[1][5:]


def test_bench_requires_a_sweep(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--out", str(tmp_path / "x.dat")])
    assert exc.value.code == 2
    capsys.readouterr()


def test_selftest_quick_passes(capsys):
    rc = main(["selftest", "--level", "quick"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 4


def test_module_entry_point_runs_selftest(tmp_path):
    # a source checkout has no installed console script: python -m ffjac
    # with PYTHONPATH=src must give the same command line
    env = dict(os.environ, PYTHONPATH=str(Path(ffjac.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "ffjac", "selftest",
                           "--level", "quick"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "PASS" in proc.stdout and "FAIL" not in proc.stdout


def _run_optimized(code):
    """Run code in a fresh interpreter under python -O."""
    env = dict(os.environ, PYTHONPATH=str(Path(ffjac.__file__).parents[1]))
    return subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)


def test_selftest_fails_under_optimize():
    proc = _run_optimized(
        "import sys\n"
        "from ffjac.cli import main\n"
        "from ffjac.jacobian import JacobianCtx\n"
        "JacobianCtx.add = lambda self, x, y: self.zero()\n"
        "sys.exit(main(['selftest', '--level', 'quick']))\n")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAIL group_axioms" in proc.stdout


def test_reduction_checks_survive_optimize():
    proc = _run_optimized(
        "import ffjac.jacobian as jac\n"
        "from ffjac import (Divisor, JacobianCtx, Poly, finite_places_above,\n"
        "                   make_field)\n"
        "F = make_field(5, 2, [Poly([0, -1, 0, -1], 5), Poly([], 5)])\n"
        "ctx = JacobianCtx(F)\n"
        "pl = finite_places_above(F, Poly([0, 1], 5))[0]\n"
        "val = jac.infinite_valuations\n"
        "jac.infinite_valuations = lambda f, a: [v + 1 for v in val(f, a)]\n"
        "try:\n"
        "    ctx.reduce_divisor(Divisor.from_place(pl)\n"
        "                       - Divisor.from_place(ctx.A, pl.degree()))\n"
        "except ArithmeticError as exc:\n"
        "    print('ArithmeticError', exc)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ArithmeticError")


def test_bench_warm_up_keeps_power_memos_fixed(monkeypatch):
    # every timed loop must find the A-power memos already extended
    field = gen_structured(32771, 3, 6, seed="0:cf6:0")
    pa = JacobianCtx(field).pa
    seen = []
    clock = ffjac.cli.time.process_time

    def recording_clock():
        seen.append(len(pa._pows))
        return clock()

    monkeypatch.setattr(ffjac.cli.time, "process_time", recording_clock)
    ffjac.cli._bench_point(lambda i: field, 1, 2, "0|genus16")
    assert len(seen) == 8
    assert seen[0::2] == seen[1::2]


def test_reduce_zero_divisor(tmp_path, capsys, monkeypatch):
    import io
    field_path = gen_one(tmp_path)
    F, _ = read_field(field_path)
    zero = Divisor.zero(F)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(zero.to_dict())))
    rc = main(["reduce", "--field", str(field_path), "--divisor", "-"])
    rep = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert rc == 0
    assert rep["r"] == 0


def test_reduce_matches_library(tmp_path, capsys):
    field_path = gen_one(tmp_path)
    F, _ = read_field(field_path)
    ctx = JacobianCtx(F)
    pl = finite_places_above(F, Poly([3, 1], 32771))[0]
    D = Divisor.from_place(pl) - Divisor.from_place(ctx.A, pl.degree())
    dpath = tmp_path / "div.json"
    dpath.write_text(json.dumps(D.to_dict()))
    want = ctx.reduce_divisor(D)
    rc = main(["reduce", "--field", str(field_path),
               "--divisor", str(dpath), "--strategy", "binary"])
    rep = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert rc == 0
    assert rep["r"] == want.r
    assert Divisor.from_dict(F, rep["reduced_divisor"]) == \
        want.reduced_divisor()


def test_reduce_rejects_malformed_divisors(tmp_path, capsys, monkeypatch):
    import io
    field_path = gen_one(tmp_path)
    capsys.readouterr()
    F, _ = read_field(field_path)
    good = Divisor.zero(F).to_dict()
    assert len(good["infinite"]) == 2
    fin = good["finite"]
    rows = fin["rows"]
    cases = [
        (dict(good, infinite=[0]), "1 infinite valuations"),
        (dict(good, infinite=[0, 0, 0]), "3 infinite valuations"),
        ({"infinite": [0, 0]}, "needs finite.rows"),
        (dict(good, finite=dict(fin, rows=[rows[0][:2]] + rows[1:])),
         "3 x 3 matrix"),
        (dict(good, finite=dict(fin, den=[])), "nonzero monic"),
        (dict(good, finite=dict(fin, rows=[[[]] * 3] * 3)),
         "not a fractional ideal"),
        # degree zero, but a lattice that the order does not map into itself
        ({"finite": dict(fin, rows=rows[:2] + [[[], [], [0, 1]]]),
          "infinite": [-1, 0]}, "not closed under the order"),
    ]
    texts = [(json.dumps(d), why) for d, why in cases]
    texts.append(('{"finite": ', "Expecting value"))
    texts.append((None, "No such file"))
    missing = str(tmp_path / "missing.json")
    for text, why in texts:
        monkeypatch.setattr("sys.stdin", io.StringIO(text or ""))
        rc = main(["reduce", "--field", str(field_path),
                   "--divisor", missing if text is None else "-"])
        out = capsys.readouterr()
        assert rc == 1, text
        assert out.out == ""
        lines = out.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ffjac reduce: "), \
            (text, out.err)
        assert why in lines[0], (text, lines[0])


# Well-formed field files whose polynomial the field check rejects.
REJECTED_FIELDS = [
    ({"p": 2, "n": 2, "coeffs": [[0, 1], []]}, "not separable"),
    ({"p": 2, "n": 3, "coeffs": [[], [1, 1], [0, 1]]}, "reducible"),
    ({"p": 5, "n": 2, "coeffs": [[3], []]}, "constant field"),
]


def test_reduce_rejects_malformed_field_files(tmp_path, capsys, monkeypatch):
    import io
    field_path = gen_one(tmp_path)
    capsys.readouterr()
    good = json.load(open(field_path))
    zero = json.dumps(Divisor.zero(read_field(field_path)[0]).to_dict())
    cases = [
        ({k: v for k, v in good.items() if k != "n"}, "needs p, n and coeffs"),
        (dict(good, coeffs=[[1], "x", []]), "integer lists"),
        (dict(good, coeffs=[[1.5], [1], []]), "integer lists"),
        (dict(good, p=32771.0), "must be integers"),
        ([1, 2, 3], "needs p, n and coeffs"),
        (dict(good, coeffs=good["coeffs"][:2]), "coefficient count"),
        (dict(good, p=4), "p must be a prime"),
    ] + REJECTED_FIELDS
    paths = []
    for i, (d, why) in enumerate(cases):
        path = tmp_path / ("bad%d.json" % i)
        path.write_text(json.dumps(d))
        paths.append((path, why))
    broken = tmp_path / "broken.json"
    broken.write_text('{"p": ')
    paths.append((broken, "Expecting value"))
    paths.append((tmp_path / "missing.json", "No such file"))
    for path, why in paths:
        monkeypatch.setattr("sys.stdin", io.StringIO(zero))
        rc = main(["reduce", "--field", str(path), "--divisor", "-"])
        out = capsys.readouterr()
        assert rc == 1, path
        assert out.out == ""
        lines = out.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ffjac reduce: "), \
            (path, out.err)
        assert why in lines[0], (path, lines[0])


def test_bench_rejects_bad_field_files(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"p": 5}))
    cases = [(tmp_path / "missing.json", "No such file"),
             (bad, "needs p, n and coeffs")]
    for i, (d, why) in enumerate(REJECTED_FIELDS):
        path = tmp_path / ("rejected%d.json" % i)
        path.write_text(json.dumps(d))
        cases.append((path, why))
    for path, why in cases:
        rc = main(["bench", "--fields", str(path),
                   "--out", str(tmp_path / "out.dat")])
        out = capsys.readouterr()
        assert rc == 1, path
        assert out.out == ""
        lines = out.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ffjac bench: "), \
            (path, out.err)
        assert why in lines[0], (path, lines[0])
    assert not (tmp_path / "out.dat").exists()
