import json
import math
import os
import re
import shlex
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET

import numpy as np
import pytest
import scipy
from hypothesis import given, strategies as st

from hyperperc import _kernels, cli, tilinggraph
from hyperperc.cli import (
    MAX_GRID_POINTS,
    PC_CURVE_HEADER,
    ConfigError,
    atomic_write,
    build_parser,
    classify_phase,
    main,
    parse_config,
    parse_grid,
    parse_int_list,
    parse_pq,
    pc_upper_bound,
)
from hyperperc.hypvoronoi import Window
from hyperperc.percolation import (
    SweepRow,
    tiling_signature_sweep,
    voronoi_signature_sweep,
)
from hyperperc.tilinggraph import build_ball

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def _child_env(**extra):
    """Environment for a child Python that imports this checkout's package."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, **extra,
                PYTHONPATH=SRC + (os.pathsep + path if path else ""))


class TestGrids:
    def test_colon_grid_inclusive(self):
        g = parse_grid("0.1:0.5:0.1")
        assert g == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5])
        assert len(parse_grid(f"1:{MAX_GRID_POINTS}:1")) == MAX_GRID_POINTS

    def test_comma_list(self):
        assert parse_grid("3.5,4.5,5.5") == [3.5, 4.5, 5.5]

    def test_bad_grid(self):
        for s in ("0.5:0.1:0.1", "1:2", "a,b", "0.1:0.5:0",
                  "0:inf:1", "0:1:inf", "0:nan:1", "0.5,nan", "-inf,1",
                  ",", "", "0:1:1e-12", "-1e308:1e308:1e-300",
                  f"1:{MAX_GRID_POINTS + 1}:1"):
            with pytest.raises(ConfigError):
                parse_grid(s)

    def test_int_list_and_pq(self):
        assert parse_int_list("5,6,7") == [5, 6, 7]
        assert parse_pq("3,7") == (3, 7)
        # a flat {4,4} parses; build_ball refuses it (exit 2, see
        # test_invalid_input_exits_2_with_one_line)
        assert parse_pq("4,4") == (4, 4)
        with pytest.raises(ConfigError):
            parse_pq("3")
        with pytest.raises(ConfigError):
            parse_int_list(",")


_key = st.from_regex(r"[a-z][a-z0-9-]{0,10}", fullmatch=True)
_val = st.from_regex(r"[A-Za-z0-9.:,_-]{1,12}", fullmatch=True)


class TestConfig:
    @given(st.dictionaries(_key, _val, max_size=8))
    def test_round_trip(self, cfg):
        text = "".join(f"{k} = {v}\n" for k, v in sorted(cfg.items()))
        assert parse_config(text) == cfg

    def test_comments_and_blanks(self):
        text = "# header\n\nlambda = 1  # intensity\n  p = 0.5\n"
        assert parse_config(text) == {"lambda": "1", "p": "0.5"}

    def test_malformed(self):
        with pytest.raises(ConfigError):
            parse_config("just words\n")
        with pytest.raises(ConfigError):
            parse_config("= value\n")

    def test_cli_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("pq = 3,7\nL = 2\n")
        out = tmp_path / "t.txt"
        rc = main(["gen-tiling", "--config", str(cfg), "--L", "3",
                   "-o", str(out), "--json", str(tmp_path / "t.json")])
        assert rc == 0
        summary = json.loads((tmp_path / "t.json").read_text())
        assert summary["config"]["layers"] == 3


class TestClassify:
    def row(self, **kw):
        base = dict(model="voronoi", p=0.5, theta=0.0, theta_b=0.0,
                    unique_freq=0.0, unique_b=0.0, kw=0.0, kb=0.0)
        base.update(kw)
        return SweepRow(**base)

    def test_labels(self):
        assert classify_phase(
            self.row(theta=1.0, unique_freq=0.95, kw=1.0)) == "W-unique"
        assert classify_phase(
            self.row(theta_b=1.0, unique_b=0.95, kb=1.0)) == "B-unique"
        assert classify_phase(
            self.row(theta=0.8, theta_b=0.7, kw=2.5, kb=2.2)) == "both-many"
        assert classify_phase(self.row()) == "subcritical-ambiguous"

    def test_upper_bound_shape(self):
        # increases toward 1/2 as the intensity grows
        assert pc_upper_bound(0.25) < pc_upper_bound(1.0) < pc_upper_bound(8.0) < 0.5


def isoperimetric_h(p_gon, q_deg):
    """The edge-isoperimetric constant of the {p,q} tiling."""
    return (q_deg - 2) * math.sqrt(1 - 4 / ((p_gon - 2) * (q_deg - 2)))


def phase_bracket(p_gon, q_deg):
    """(p_c lower, p_c upper, p_u lower, p_u upper) of bond percolation on
    the {p,q} tiling: p_c in [1/(q - 1), 1/(1 + h)], and p_u = 1 - p_c of
    the dual tiling {q,p}."""
    def pc(p, q):
        return 1 / (q - 1), 1 / (1 + isoperimetric_h(p, q))

    pc_lo, pc_hi = pc(p_gon, q_deg)
    dual_lo, dual_hi = pc(q_deg, p_gon)
    return pc_lo, pc_hi, 1 - dual_hi, 1 - dual_lo


class TestProvenPhaseLabels:
    """phase-sweep's label, at the default thresholds, at points whose
    phase a theorem fixes.  The paper's three phases: in (0, p_c] no white
    cluster is unbounded and the black (dual) one is unique, B-unique; in
    (p_c, p_u) both colours have infinitely many, both-many; in [p_u, 1)
    the white one is unique, W-unique.

    Tilings, bond percolation on {p,q} (q-regular, p-gon faces), with
    recalled bounds, which test_recalled_bounds checks first:
    - p_c >= 1/(q - 1): a q-regular graph has at most q (q - 1)^(n - 1)
      self-avoiding paths of length n;
    - p_c <= 1/(1 + h), h the edge-isoperimetric constant (Benjamini &
      Schramm, "Percolation beyond Z^d, many questions and a few
      answers", Electron. Comm. Probab. 1, 1996);
    - h = (q - 2) sqrt(1 - 4/((p - 2)(q - 2))) (Haggstrom, Jonasson &
      Lyons, Ann. Probab. 30, 2002);
    - p_u = 1 - p_c of the dual tiling {q,p} (the paper).
    On {4,5} they give p_c in [0.2500, 0.3660] and p_u in [0.5359,
    0.6667]; on {5,4}, p_c in [0.3333, 0.4641] and p_u in [0.6340,
    0.7500].

    Voronoi at intensity lambda, from the paper: p_c(lambda) <=
    pi lambda/(1 + 2 pi lambda) (cli.pc_upper_bound) and p_u(lambda) =
    1 - p_c(lambda), so every p strictly between is in both-many."""

    @pytest.mark.parametrize("p_gon,q_deg", [(4, 5), (5, 4), (3, 7), (7, 3)])
    def test_recalled_bounds(self, p_gon, q_deg):
        h = isoperimetric_h(p_gon, q_deg)
        # every finite vertex set K has |boundary edges of K| >= h |K|;
        # the interior vertices of a ball have all their edges in it
        for layers in range(2, 7):
            ball = build_ball(p_gon, q_deg, layers)
            inside = ball.interior_vertex_mask
            cut = np.count_nonzero(inside[ball.edges[:, 0]]
                                   != inside[ball.edges[:, 1]])
            assert cut >= h * np.count_nonzero(inside)
        # the tree limit and the Euclidean edge
        assert isoperimetric_h(10**9, q_deg) == pytest.approx(q_deg - 2)
        assert isoperimetric_h(4, 4) == isoperimetric_h(3, 6) == 0.0
        pc_lo, pc_hi, pu_lo, pu_hi = phase_bracket(p_gon, q_deg)
        # on {3,7} and {7,3}, p_c's and p_u's brackets touch at 1/(1 + h)
        assert pc_lo < pc_hi < pu_lo + 1e-12 and pu_lo < pu_hi
        # p_u's bracket is the dual's p_c bracket, reflected
        assert (pu_lo, pu_hi) == pytest.approx(
            tuple(1 - b for b in phase_bracket(q_deg, p_gon)[1::-1]))

    @pytest.mark.parametrize("p_gon,q_deg,labels", [
        (4, 5, {0.2: "B-unique", 0.40: "both-many", 0.45: "both-many",
                0.50: "both-many", 0.75: "W-unique"}),
        (5, 4, {0.3: "B-unique", 0.50: "both-many", 0.55: "both-many",
                0.60: "both-many", 0.8: "W-unique"}),
    ])
    def test_tilings(self, p_gon, q_deg, labels):
        pc_lo, pc_hi, pu_lo, pu_hi = phase_bracket(p_gon, q_deg)
        for p, label in labels.items():
            proven = ("B-unique" if p < pc_lo else
                      "both-many" if pc_hi < p < pu_lo else
                      "W-unique" if p > pu_hi else None)
            assert proven == label
        sw = tiling_signature_sweep(p_gon, q_deg, 7, list(labels), 100, 42)
        assert [r.p for r in sw.rows] == list(labels)
        assert [classify_phase(r) for r in sw.rows] == list(labels.values())

    def test_voronoi(self):
        points = [0.4413, 0.5, 0.5587]
        bound = pc_upper_bound(1.0)
        assert all(bound < p < 1 - bound for p in points)
        sw = voronoi_signature_sweep(1.0, points, Window.with_margin(5.0), 50,
                                     42)
        assert [r.p for r in sw.rows] == points
        assert [classify_phase(r) for r in sw.rows] == ["both-many"] * 3


class TestExitCodes:
    def test_success(self, tmp_path):
        rc = main(["gen-tiling", "--pq", "3,7", "--L", "2",
                   "-o", str(tmp_path / "t.txt")])
        assert rc == 0
        assert (tmp_path / "t.txt").exists()

    def test_config_error(self, tmp_path):
        rc = main(["densities", "--lambda", "1", "--R", "3", "--Rw", "5",
                   "-o", str(tmp_path / "d.csv")])
        assert rc == 2

    def test_numeric_failure(self, tmp_path):
        # a deep-supercritical p-grid leaves the reach curves saturated,
        # so the crossing estimator cannot locate a critical level
        rc = main(["pc-estimate", "--pq", "3,7", "--ladder", "3,4,5",
                   "--p", "0.7:0.9:0.05", "--replicas", "60",
                   "--seed", "42", "--json", str(tmp_path / "pc.json")])
        assert rc == 3

    def test_one_inverse_area_sample_is_a_numeric_failure(self, tmp_path,
                                                          capsys):
        # two of the three origin cells are boundary-masked, and a single
        # inverse-area sample has no standard error to check DF against
        out = tmp_path / "d.csv"
        rc = main(["densities", "--lambda", "0.1", "--R", "3.5",
                   "--replicas", "3", "--seed", "5", "-o", str(out)])
        assert rc == 3
        assert capsys.readouterr().err.splitlines() == [
            "numeric failure: origin cell interior in 1 of 3 replicas; the "
            "inverse-area estimate needs 2"]
        assert not out.exists()

    def test_estimate_summary_reports_never_reached_and_bootstrap(
            self, tmp_path):
        for cmd in ("pc-estimate", "pu-estimate"):
            js = tmp_path / f"{cmd}.json"
            rc = main([cmd, "--pq", "3,7", "--ladder", "3,4,5",
                       "--p", "0.02:0.98:0.04", "--replicas", "60",
                       "--seed", "42", "--json", str(js)])
            assert rc == 0
            res = json.loads(js.read_text())["results"]
            assert res["never_reached"] == [0, 0, 0]
            assert 0.5 <= res["bootstrap_accepted"] <= 1.0
            assert res["bootstrap_accepted"] * 200 == round(
                res["bootstrap_accepted"] * 200)

    def test_curve_rows_report_never_reached_and_bootstrap(self, tmp_path):
        js = tmp_path / "curve.json"
        rc = main(["pc-estimate", "--lambda", "1,2", "--ladder", "3,3.5,4",
                   "--p", "0.04:0.72:0.04", "--replicas", "80",
                   "--seed", "42", "--json", str(js)])
        assert rc == 0
        rows = json.loads(js.read_text())["results"]["rows"]
        assert [r["lambda"] for r in rows] == [1.0, 2.0]
        for r in rows:
            assert r["never_reached"] == [0, 0, 0]
            assert 0.0 < r["bootstrap_accepted"] <= 1.0
            assert r["bootstrap_accepted"] * 200 == round(
                r["bootstrap_accepted"] * 200)

    def test_curve_writes_the_lambdas_that_cross(self, tmp_path, capsys):
        # at 40 replicas lambda=1's bootstrap is unstable while lambda=2
        # crosses: the run writes lambda=2's rows and still exits 3
        args = ["pc-estimate", "--ladder", "3,3.5,4", "--p", "0.04:0.72:0.04",
                "--replicas", "40", "--seed", "42"]
        out, js = tmp_path / "curve.csv", tmp_path / "curve.json"
        rc = main(args + ["--lambda", "1,2", "-o", str(out), "--json",
                          str(js)])
        assert rc == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert re.fullmatch(r"numeric failure: lambda=1: crossing unstable "
                            r"under bootstrap resampling: \d+ of 200 "
                            r"resamples cross", err[0])
        lines = out.read_text().splitlines()
        assert lines[0] == PC_CURVE_HEADER
        assert [line.split(",")[0] for line in lines[1:]] == ["2"]
        res = json.loads(js.read_text())["results"]
        assert [r["lambda"] for r in res["rows"]] == [2.0]
        assert res["rows"][0]["sandwich_ok"] is True
        assert res["failed"] == [err[0][len("numeric failure: "):]]
        # the row is the one lambda=2 gives alone
        alone = tmp_path / "alone.json"
        assert main(args + ["--lambda", "2", "--json", str(alone)]) == 0
        one = json.loads(alone.read_text())["results"]
        row = res["rows"][0]
        assert (row["pc"], row["ci_lo"], row["ci_hi"]) == (
            one["value"], one["ci_lo"], one["ci_hi"])


class TestDeterminism:
    ARGS = ["phase-sweep", "--lambda", "1", "--p", "0.2,0.8", "--R", "3.5",
            "--replicas", "12", "--seed", "9"]

    def run(self, d, extra=()):
        out, js = d / "out.csv", d / "out.json"
        rc = main(self.ARGS + ["-o", str(out), "--json", str(js), *extra])
        assert rc == 0
        return out.read_bytes(), js.read_bytes().replace(
            str(d).encode(), b"DIR")

    def test_rerun_byte_identical(self, tmp_path):
        a = self.run(tmp_path / "a")
        b = self.run(tmp_path / "b")
        assert a == b

    def test_thread_count_invariant(self, tmp_path):
        a = self.run(tmp_path / "a", ["--threads", "1"])
        b = self.run(tmp_path / "b", ["--threads", "4"])
        # the summary records the requested thread count; outputs must not
        assert a[0] == b[0]
        assert json.loads(a[1])["results"] == json.loads(b[1])["results"]

    @pytest.fixture(autouse=True)
    def _outdirs(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()

    def test_wall_time_null_without_timing(self, tmp_path):
        _, js = self.run(tmp_path / "a")
        doc = json.loads(js)
        assert set(doc) == {"backend", "config", "git_describe", "results",
                            "versions", "wall_time"}
        assert doc["wall_time"] is None

    def test_summary_records_backend_and_versions(self, tmp_path):
        _, js = self.run(tmp_path / "a")
        doc = json.loads(js)
        assert doc["backend"] == _kernels.BACKEND
        assert doc["versions"] == {"numpy": np.__version__,
                                   "scipy": scipy.__version__}


def test_crash_injection_leaves_no_partial_output(tmp_path):
    out = tmp_path / "t.txt"
    # the child dies between the temp write and the rename, so the final
    # path must never hold a partial file
    child = (
        "import os, sys\n"
        "from hyperperc import cli\n"
        "os.replace = lambda *a: os._exit(1)\n"
        "cli.main(sys.argv[1:])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child, "gen-tiling",
         "--pq", "3,7", "--L", "2", "-o", str(out)],
        env=_child_env(), capture_output=True,
    )
    # exit 1 with the temp file left behind: the child reached the rename
    assert proc.returncode == 1, proc.stderr
    assert len(list(tmp_path.glob("t.txt.*.tmp"))) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["pc-estimate", "--ladder", "0,1,2"],
    ["voronoi-sample", "--lambda", "1", "--R", "13"],
    ["densities", "--lambda", "-1"],
    ["gen-tiling", "--pq", "3,7", "--L", "0"],
    ["phase-sweep", "--p", "0.4,0.5", "--R", "0.5"],
    ["decay", "--pq", "3,7", "--L", "6", "--p", "0.15"],
    ["render", "--sample", "{tmp}/missing.txt"],
    ["render", "--sample", "{tmp}/not-a-sample.txt"],
    ["decay", "--pq", "3,7", "--L", "3", "--p", "2", "--d", "1:2:1"],
    ["densities", "--lambda", "1", "--R", "5", "--replicas", "1",
     "--json", "{tmp}/d.json"],
    ["phase-sweep", "--pq", "3,7", "--L", "3", "--p", "1.5"],
    ["phase-sweep", "--lambda", "1", "--p", "1.5"],
    ["decay", "--pq", "3,7", "--L", "3"],
    ["gen-tiling", "--pq", "3,7", "--L", "x"],
    ["no-such-command"],
    ["pu-estimate", "--pq", "3,7", "--mode", "site", "--ladder", "2,3,4",
     "--replicas", "5"],
    ["phase-sweep", "--pq", "3,7", "--L", "3", "--p", "0:inf:1"],
    ["pc-estimate", "--lambda", "1", "--ladder", "3,4,5", "--p", ","],
    ["phase-sweep", "--pq", "3,7", "--L", "3", "--p", ","],
    ["decay", "--pq", "3,7", "--L", "3", "--p", "0.1", "--d", "1:2:inf"],
    ["phase-sweep", "--pq", "3,7", "--L", "3", "--p", "0:1:1e-12"],
    ["phase-sweep", "--pq", "3,7", "--L", "3", "--p", "0.5",
     "--unique-threshold", "7"],
    ["phase-sweep", "--pq", "3,7", "--L", "3", "--p", "0.5",
     "--many-threshold", "-0.5"],
    ["render", "--sample", "{tmp}/empty-sample.txt", "--Rw", "-3"],
    ["pc-estimate", "--pq", "3,7", "--ladder", "2,3,4",
     "--p", "0.5:1.5:0.1", "--replicas", "5"],
    ["pu-estimate", "--pq", "3,7", "--ladder", "2,3,4",
     "--p", "0.5:1.5:0.1", "--replicas", "5"],
    ["densities", "--lambda", "0.01", "--R", "3", "--replicas", "2"],
    ["pc-estimate", "--lambda", "0.001", "--ladder", "1,2,3",
     "--replicas", "3"],
    ["voronoi-sample", "--lambda", "1", "--replica", "-1"],
    ["pc-estimate", "--lambda", "1", "--ladder", "5.5,4.5,3.5"],
    ["pc-estimate", "--pq", "3,7", "--ladder", "6,5,4"],
    ["decay", "--pq", "3,7", "--L", "6", "--p", "0.15", "--d", "0:3:0.5"],
    ["pc-estimate", "--pq", "3,7"],
    ["voronoi-sample", "--lambda", "1e9", "--R", "12"],
    ["voronoi-sample", "--lambda", "1e20"],
    ["voronoi-sample", "--lambda", "inf"],
    ["densities", "--lambda", "1e9"],
    ["phase-sweep", "--lambda", "1e9", "--p", "0.5"],
    ["pc-estimate", "--lambda", "1e9"],
    ["pc-estimate", "--lambda", "1,1e9", "--replicas", "3"],
    ["pu-estimate", "--lambda", "1e9"],
    ["phase-sweep", "--pq", "3,7", "--L", ",", "--p", "0.3"],
    ["gen-tiling", "--pq", "3,7", "--L", "2", "--threads", "0"],
    ["pc-estimate", "--pq", "3,7", "--ladder", "2,3,4", "--replicas", "5",
     "--p", "0.3,0.1,0.2"],
    ["pu-estimate", "--pq", "3,7", "--ladder", "2,3,4", "--replicas", "5",
     "--p", "0.1,0.2,0.2,0.3"],
    ["pc-estimate", "--lambda", "1,2", "--ladder", "3,3.5,4", "--replicas",
     "2", "--p", "0.6,0.4"],
    ["densities", "--lambda", "1", "--R", "6", "--Rw", "5.9", "--replicas",
     "2"],
    # a hand-written sample past the working radius, which voronoi-sample
    # refuses to write
    ["render", "--sample", "{tmp}/far-sample.txt"],
    # p or q below 3: build_ball's rule, not a traceback
    ["gen-tiling", "--pq", "1,-3", "--L", "2"],
    ["gen-tiling", "--pq", "-1,-1", "--L", "2"],
    ["decay", "--pq", "1,-3", "--L", "3", "--p", "0.1"],
    ["decay", "--pq", "-1,-1", "--L", "3", "--p", "0.1"],
    ["render", "--pq", "1,-3"],
    ["render", "--pq", "-1,-1"],
    ["phase-sweep", "--pq", "1,-3", "--L", "3", "--p", "0.3"],
    ["phase-sweep", "--pq", "-1,-1", "--L", "3", "--p", "0.3"],
    ["gen-tiling", "--pq", "4,4", "--L", "2"],
    # a one-layer ball has no core
    ["pc-estimate", "--pq", "3,7", "--ladder", "1,2,3", "--replicas", "5"],
    # all nuclei on one geodesic: Qhull cannot triangulate them
    ["render", "--sample", "{tmp}/flat-sample.txt"],
    # a top rung past the vertex budget, refused before the first rung runs
    ["pc-estimate", "--pq", "3,7", "--ladder", "5,6,40"],
    # refused before a pool exists: a pool this size would start a thread
    # per replica
    ["gen-tiling", "--pq", "3,7", "--L", "2", "--threads", "100000"],
    # refused before any work: the per-replica arrays would need terabytes
    ["pc-estimate", "--pq", "3,7", "--ladder", "5,6,7", "--replicas",
     "1000000000000"],
])
def test_invalid_input_exits_2_with_one_line(argv, tmp_path, capsys):
    (tmp_path / "not-a-sample.txt").write_text("hello\n")
    (tmp_path / "empty-sample.txt").write_text(
        "#hpp v1 lambda=1 p=0.5 R=6 seed=0\n")
    (tmp_path / "far-sample.txt").write_text(
        "#hpp v1 lambda=1 p=0.5 R=45 seed=0\n"
        "38 0.1 W\n39.5 2 B\n41 4 W\n40 5 B\n")
    (tmp_path / "flat-sample.txt").write_text(
        "#hpp v1 lambda=1 p=0.5 R=6 seed=0\n"
        "1 0 W\n2 0 B\n3 3.141592653589793 W\n")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert main(argv + ["-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_python_dash_m_runs_the_cli():
    # python -m hyperperc runs from a checkout with src on PYTHONPATH
    def run(*argv):
        return subprocess.run([sys.executable, "-m", "hyperperc", *argv],
                              env=_child_env(), capture_output=True,
                              text=True, timeout=300)

    proc = run("--help")
    assert proc.returncode == 0, proc.stderr
    assert "pc-estimate" in proc.stdout
    proc = run("pc-estimate", "--lambda", "1", "--replicas", "0")
    assert proc.returncode == 2
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("grid", ["-0.1,0.5", "-0.1:0.5:0.1"])
def test_negative_p_reaches_the_range_check(grid, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["phase-sweep", "--pq", "3,7", "--L", "3", "--p", grid,
                 "-o", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: --p must lie in [0, 1], got -0.1"]
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["densities", "--lambda", "0.01", "--R", "3", "--replicas", "2"],
     "error: need at least 3 nuclei, got 0 at lambda=0.01 in a ball of "
     "radius R=3"),
    (["pc-estimate", "--pq", "3,7"],
     "error: a tiling's --ladder takes integer layer counts, e.g. 5,6,7; "
     "got '3.5,4.5,5.5'"),
], ids=["too-few-nuclei", "tiling-ladder"])
def test_error_names_the_cause(argv, message, tmp_path, capsys):
    assert main(argv + ["-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [message]


def test_vertex_budget_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(tilinggraph, "MAX_VERTICES", 50)
    out = tmp_path / "out"
    assert main(["gen-tiling", "--pq", "3,7", "--L", "6", "-o", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: vertex budget 50 exceeded: round 2 of the {3,7} ball may "
        "need up to 60 vertices"]
    assert not out.exists()


def test_vertex_budget_is_checked_before_the_base_face(tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.setattr(tilinggraph, "MAX_VERTICES", 50)
    out = tmp_path / "out"
    assert main(["gen-tiling", "--pq", "60,3", "--L", "1", "-o",
                 str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: vertex budget 50 exceeded: the base face of the {60,3} ball "
        "has 60 vertices"]
    assert not out.exists()


@pytest.mark.parametrize("layers,message", [
    ("3,1", "layer count must be at least 2, got 1: the core, the complete "
            "vertices within 2 of the center, is empty"),
    ("3,0", "layer count must be at least 2, got 0: the core, the complete "
            "vertices within 2 of the center, is empty"),
], ids=["one-layer", "no-layer"])
def test_phase_sweep_checks_every_layer_count_before_the_first_sweep(
        layers, message, tmp_path, capsys, monkeypatch):
    sweeps = []
    monkeypatch.setattr(cli, "tiling_signature_sweep",
                        lambda *a, **k: sweeps.append(a))
    out = tmp_path / "out"
    assert main(["phase-sweep", "--pq", "3,7", "--L", layers, "--p", "0.3",
                 "-o", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: " + message]
    assert sweeps == []
    assert not out.exists()


def test_phase_sweep_checks_the_largest_ball_before_the_first_sweep(
        tmp_path, capsys, monkeypatch):
    # {3,7} balls of 3 and 6 layers have 48 and 960 vertices: under a
    # budget of 100 the list is refused before L=3's sweep, with
    # build_ball's own message for L=6
    monkeypatch.setattr(tilinggraph, "MAX_VERTICES", 100)
    sweeps = []
    monkeypatch.setattr(cli, "tiling_signature_sweep",
                        lambda *a, **k: sweeps.append(a))
    out = tmp_path / "out"
    assert main(["phase-sweep", "--pq", "3,7", "--L", "3,6", "--p", "0.3",
                 "-o", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: vertex budget 100 exceeded: round 3 of the {3,7} ball may "
        "need up to 168 vertices"]
    with pytest.raises(tilinggraph.TooLarge,
                       match=r"round 3 of the \{3,7\} ball may need up to 168 "):
        tilinggraph.build_ball(3, 7, 6)
    assert sweeps == []
    assert not out.exists()


def test_non_integer_thread_count_exits_2_with_one_line(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["gen-tiling", "--pq", "3,7", "--L", "3", "--threads", "two",
                 "-o", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: hyperperc gen-tiling: argument --threads: invalid int "
        "value: 'two'"]
    assert not out.exists()


def _readme_commands():
    with open(os.path.join(os.path.dirname(SRC), "README.md"),
              encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("hyperperc ")]


def test_readme_commands_parse():
    # a flag renamed or dropped in the CLI must not linger in README, and
    # every subcommand has its example there
    commands = _readme_commands()
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert args.fn.__name__ == "cmd_" + argv[0].replace("-", "_")
    sub = parser._subparsers._group_actions[0]
    assert {argv[0] for argv in commands} == set(sub.choices)


def test_concurrent_atomic_writes_both_complete(tmp_path):
    out = str(tmp_path / "out.txt")
    texts = ["a" * 2_000_000 + "\n", "b" * 2_000_000 + "\n"]
    errors = []
    for _ in range(5):
        barrier = threading.Barrier(2)

        def write(text):
            barrier.wait()
            try:
                atomic_write(out, text)
            except OSError as e:
                errors.append(e)

        threads = [threading.Thread(target=write, args=(t,)) for t in texts]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert not errors
        assert open(out, encoding="utf-8").read() in texts
    assert os.listdir(tmp_path) == ["out.txt"]


def test_runs_without_networkx_and_numba(tmp_path):
    code = (
        "import importlib, pkgutil, sys\n"
        "sys.modules['networkx'] = None\n"
        "sys.modules['numba'] = None\n"
        "import hyperperc\n"
        "for m in pkgutil.iter_modules(hyperperc.__path__):\n"
        "    importlib.import_module('hyperperc.' + m.name)\n"
        "from hyperperc import _kernels\n"
        "assert _kernels.BACKEND == 'numpy'\n"
        "from hyperperc.cli import main\n"
        "sys.exit(main(['gen-tiling', '--pq', '3,7', '--L', '3',\n"
        "               '-o', sys.argv[1]]))\n"
    )
    out = tmp_path / "t.txt"
    proc = subprocess.run([sys.executable, "-c", code, str(out)],
                          env=_child_env(), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().startswith("#pq v1 p=3 q=7 L=3")


class TestArtifacts:
    def test_densities_csv_header(self, tmp_path):
        out = tmp_path / "d.csv"
        rc = main(["densities", "--lambda", "1", "--R", "5",
                   "--replicas", "8", "--seed", "3", "-o", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("lambda,R,Rw,replicas,DV,DV_se,DE,DF_count,"
                            "DF_inv,euler,euler_se,seed")
        assert len(lines) == 2

    def test_phase_table_header_and_labels(self, tmp_path):
        out = tmp_path / "ph.csv"
        rc = main(["phase-sweep", "--lambda", "1", "--p", "0.05,0.95",
                   "--R", "4", "--replicas", "15", "--seed", "3",
                   "-o", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("model,p,lambda,")
        labels = [ln.split(",")[7] for ln in lines[1:]]
        assert labels == ["B-unique", "W-unique"]

    def test_phase_sweep_curves_csv(self, tmp_path):
        out = tmp_path / "g.csv"
        rc = main(["phase-sweep", "--pq", "3,7", "--L", "3,4",
                   "--p", "0.2,0.6", "--replicas", "10", "--seed", "3",
                   "-o", str(tmp_path / "ph.csv"), "--curves", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("model,p,lambda,pgon,qdeg,R,replicas,theta")
        assert len(lines) == 5

    def test_render_svg_well_formed(self, tmp_path):
        sample = tmp_path / "s.txt"
        out = tmp_path / "r.svg"
        assert main(["voronoi-sample", "--lambda", "1", "--p", "0.5",
                     "--R", "6", "--seed", "7", "-o", str(sample)]) == 0
        assert main(["render", "--sample", str(sample), "-o", str(out)]) == 0
        root = ET.fromstring(out.read_text())
        assert root.tag.endswith("svg")

    def test_decay_csv_and_fit(self, tmp_path):
        out, js = tmp_path / "dec.csv", tmp_path / "dec.json"
        rc = main(["decay", "--pq", "3,7", "--L", "5", "--p", "0.15",
                   "--d", "1:3:1", "--replicas", "400", "--seed", "11",
                   "-o", str(out), "--json", str(js)])
        assert rc == 0
        assert out.read_text().splitlines()[0] == "d,tau,count,trials"
        fit = json.loads(js.read_text())["results"]
        assert fit["slope"] < 0

    def test_pc_estimate_curve_csv(self, tmp_path):
        out = tmp_path / "pc.csv"
        rc = main(["pc-estimate", "--lambda", "1,2",
                   "--ladder", "3,3.5,4", "--p", "0.04:0.72:0.04",
                   "--replicas", "80", "--seed", "42", "-o", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("lambda,pc,ci_lo,ci_hi,upper_bound")
        assert len(lines) == 3


def test_pu_estimate_help_says_what_the_grid_searches(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pu-estimate", "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "grid on which p_c of the dual (or of the black cells) is searched" in out
    assert "p_u is 1 minus the p_c of the dual ball" in out
