from __future__ import annotations

import ast
import importlib
import json
import os
import platform
import subprocess
import sys
import time
import warnings
from pathlib import Path

import jsonschema
import pytest

from nilorbit import cli, hardy as H, orbits as O

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "instances"

TORUS = {
    "group": {"dim": 2},
    "generators": [["phi"]],
    "functions": ["t^{3/2}"],
    "base_point": [0],
    "tests": [{"type": "horizontal_character", "k": [1]}],
    "declared_closure": "full",
    "N_grid": [1000, 10000],
    "seed": 0,
}


@pytest.fixture
def torus_config(tmp_path):
    p = tmp_path / "torus.json"
    p.write_text(json.dumps(TORUS))
    return str(p)


class TestGridParsing:
    def test_decade(self):
        assert cli.parse_grid("1e3:1e6:decade") == (1000, 10000, 100000, 1000000)

    def test_comma_list(self):
        assert cli.parse_grid("1e3,1e4,1e5") == (1000, 10000, 100000)

    def test_single_value(self):
        assert cli.parse_grid("1000000") == (1000000,)

    def test_explicit_list(self):
        assert cli.parse_grid([10, 100]) == (10, 100)

    def test_bad_syntax(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_grid("1e3:1e6:linear")


class TestConfigHandling:
    def test_roundtrip(self, torus_config):
        doc = cli.load_config(torus_config)
        again = json.loads(cli.dump_config(doc))
        assert again == doc

    def test_unknown_keys_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({**TORUS, "surprise": 1}))
        with pytest.raises(cli.ConfigError, match="schema"):
            cli.load_config(str(p))

    def test_shipped_instances_validate(self):
        for name in ("torus_boshernitzan", "heisenberg_pair",
                     "pointwise_dependent", "floor_pair_a", "floor_pair_b"):
            doc = cli.load_config(str(INSTANCES / f"{name}.json"))
            cfg = cli.build_orbit_config(doc)
            assert cfg.coords_dim >= 1


class TestClassifyCommand:
    def test_rows(self, capsys):
        rc = cli.main(["classify", "t^{3/2}", "t^2 + log(t)", "5 + t^{-1}"])
        out = capsys.readouterr().out.strip().splitlines()
        assert rc == 0 and len(out) == 4
        assert "equidistributed" in out[1]
        assert "unusable" in out[2]
        assert "converges-zero-signed" in out[3]

    def test_parse_error_exit(self, capsys):
        assert cli.main(["classify", "t^{3/"]) == cli.EXIT_CONFIG


class TestWindowCommand:
    def test_worked_bounds(self, tmp_path):
        out = tmp_path / "w.csv"
        rc = cli.main(["window", str(INSTANCES / "heisenberg_pair.json"),
                       "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[1].startswith("t^{3/2},3,1/2,0,5/8,0,3/5,True")
        assert lines[2].startswith("t*log(t),2,1/2,0,2/3,0,3/5,True")


def _weyl_per_N(config, ms, grid, tmp_path) -> bytes:
    """The bytes `weyl` writes for the characters ``ms``, from one
    :func:`orbits.weyl_sum` pass per character and N."""
    cfg = cli.build_orbit_config(cli.load_config(config))
    rows = []
    for m in ms:
        label = "k" + "_".join(map(str, m))
        for N in grid:
            s = O.weyl_sum(cfg, m, N)
            rows += [[N, f"weyl_re_{label}", s.real], [N, f"weyl_im_{label}", s.imag],
                     [N, f"weyl_abs_{label}", abs(s)]]
    path = tmp_path / "per_N.csv"
    cli.write_csv(str(path), cli.LONG_HEADER, rows)
    return path.read_bytes()


class TestDrivers:
    def test_weyl_passthrough_matches_library(self, torus_config, tmp_path):
        out = tmp_path / "weyl.csv"
        rc = cli.main(["weyl", torus_config, "--N", "2000", "--out", str(out)])
        assert rc == 0
        doc = cli.load_config(torus_config)
        cfg = cli.build_orbit_config(doc)
        want = O.weyl_sum(cfg, [1], 2000)
        rows = {r.split(",")[1]: r.split(",")[2]
                for r in out.read_text().strip().splitlines()[1:]}
        assert float(rows["weyl_re_k1"]) == want.real
        assert float(rows["weyl_im_k1"]) == want.imag

    def test_weyl_walks_the_orbit_once_per_frequency(self, tmp_path, monkeypatch):
        """One walk for the whole grid and for every character of the config,
        with the bytes of one weyl_sum per character and N."""
        three = json.loads((INSTANCES / "torus_boshernitzan.json").read_text())
        three["tests"] = [{"type": "horizontal_character", "k": [k]} for k in (1, -2, 3)]
        (tmp_path / "three.json").write_text(json.dumps(three))
        for config, ms in ((str(INSTANCES / "torus_boshernitzan.json"), [[1]]),
                           (str(tmp_path / "three.json"), [[1], [-2], [3]])):
            engines, samples = [], []
            init, inner = O.OrbitEngine.__init__, O.OrbitEngine.samples

            def counting_init(self, cfg):
                engines.append(cfg)
                init(self, cfg)

            def counting_samples(self, n0, n1, *args, **kwargs):  # exponents= from the helpers
                samples.append(n1 - n0 + 1)
                return inner(self, n0, n1, *args, **kwargs)

            monkeypatch.setattr(O.OrbitEngine, "__init__", counting_init)
            monkeypatch.setattr(O.OrbitEngine, "samples", counting_samples)
            out = tmp_path / "weyl.csv"
            assert cli.main(["weyl", config, "--out", str(out)]) == 0
            assert (len(engines), sum(samples)) == (1, 10 ** 6)
            monkeypatch.undo()
            grid = (10 ** 4, 10 ** 5, 10 ** 6)
            assert out.read_bytes() == _weyl_per_N(config, ms, grid, tmp_path)

    def test_weyl_rows_follow_the_grid(self, torus_config, tmp_path):
        out = tmp_path / "weyl.csv"
        assert cli.main(["weyl", torus_config, "--N", "20000,10000,20000", "--out", str(out)]) == 0
        assert out.read_bytes() == _weyl_per_N(torus_config, [[1]], (20000, 10000, 20000), tmp_path)

    def test_orbit_dump_header(self, tmp_path):
        p = tmp_path / "heis.json"
        p.write_text(json.dumps({
            "group": {"dim": 3}, "generators": [["phi", "sqrt2", 0]],
            "functions": ["t^{3/2}"]}))
        out = tmp_path / "orbit.csv"
        rc = cli.main(["orbit", str(p), "--N", "64", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,coord_1,coord_2,coord_3,horiz_1,horiz_2"
        assert len(lines) == 65

    def test_average_csv_columns(self, tmp_path):
        rc = cli.main(["average", str(INSTANCES / "pointwise_dependent.json"),
                       "--grid", "1e3,1e4", "--out", str(tmp_path / "avg.csv")])
        assert rc == 0
        lines = (tmp_path / "avg.csv").read_text().strip().splitlines()
        assert lines[0] == "N,re(A_N),im(A_N),re(limit),im(limit),abs_err,cauchy_inc"
        first = lines[1].split(",")
        assert first[0] == "1000" and first[3] == "0.0" and first[6] == ""

    def test_discrepancy_rows(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(json.dumps(TORUS))
        out = tmp_path / "d.csv"
        rc = cli.main(["discrepancy", str(p), "--N", "1000", "--grid", "16",
                       "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[1].startswith("1000,box_discrepancy_g16,")

    def test_obstruction_rows(self, tmp_path):
        out = tmp_path / "o.csv"
        rc = cli.main(["obstruction", str(INSTANCES / "heisenberg_pair.json"),
                       "--N", "1000", "--Mmax", "2", "--out", str(out)])
        assert rc == 0
        assert "min_cinfty_norm" in (out.read_text())

    def test_non_commuting_single_block_runs(self, tmp_path):
        """Two generators of one group that do not commute: the orbit is
        b_1^(a_1(n)) b_2^(a_2(n)) x, with no commuting hypothesis."""
        p = tmp_path / "non_commuting.json"
        p.write_text(json.dumps({
            "group": {"dim": 3}, "generators": [["phi", "sqrt2", 0], ["pi", "e", "1/3"]],
            "functions": ["t^{3/2}", "t*log(t)"], "base_point": ["1/3", "2/5", "3/7"]}))
        out = tmp_path / "out.csv"
        for argv in (["orbit", "--N", "100"], ["weyl", "--N", "1e3,1e4", "--m", "1,0"],
                     ["obstruction", "--N", "1e3", "--Mmax", "2"]):
            assert cli.main([argv[0], str(p), *argv[1:], "--out", str(out)]) == 0, argv
            rows = out.read_text().strip().splitlines()
            assert len(rows) == {"orbit": 101, "weyl": 7, "obstruction": 4}[argv[0]]

    def test_emit_plot(self, torus_config, tmp_path):
        out = tmp_path / "weyl.csv"
        rc = cli.main(["weyl", torus_config, "--N", "1000,2000",
                       "--out", str(out), "--emit-plot"])
        assert rc == 0
        xy = tmp_path / "weyl.weyl_abs_k1.xy"
        assert xy.exists()
        lines = xy.read_text().strip().splitlines()
        assert len(lines) == 2 and lines[0].split()[0] == "1000"

    def test_emit_plot_discrepancy(self, tmp_path):
        out = tmp_path / "disc.csv"
        rc = cli.main(["discrepancy", str(INSTANCES / "heisenberg_pair.json"),
                       "--N", "1000,2000", "--grid", "4", "--out", str(out), "--emit-plot"])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [r[1] for r in rows] == ["box_discrepancy_g4"] * 2
        xy = tmp_path / "disc.box_discrepancy_g4.xy"
        assert [p.name for p in tmp_path.glob("disc.*.xy")] == [xy.name]
        assert xy.read_text() == "".join(f"{N} {v}\n" for N, _, v in rows)

    def test_emit_plot_wide_rows_keep_every_column(self, tmp_path):
        out = tmp_path / "avg.csv"
        cli.emit_plot_files(str(out), ["N", "a", "b"], [[10, 0.5, ""], [20, 0.25, ""]])
        assert (tmp_path / "avg.a.xy").read_text() == "10 0.5\n20 0.25\n"
        assert (tmp_path / "avg.b.xy").read_text() == "\n"


class TestDeterminism:
    def test_weyl_workers_byte_identical(self, torus_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["weyl", torus_config, "--N", "200000",
                         "--workers", "1", "--out", str(a)]) == 0
        assert cli.main(["weyl", torus_config, "--N", "200000",
                         "--workers", "4", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["discrepancy", "heisenberg_pair.json", "--N", "1e4,7e4,2e5", "--grid", "4"],
        ["orbit", "torus_boshernitzan.json", "--N", "132072"],
    ], ids=["discrepancy", "orbit"])
    def test_workers_byte_identical(self, argv, tmp_path):
        outs = []
        for workers in ("1", "2", "3"):
            outs.append(tmp_path / f"w{workers}.csv")
            assert cli.main([argv[0], str(INSTANCES / argv[1]), *argv[2:],
                             "--workers", workers, "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()

    @pytest.mark.parametrize("command", ["orbit", "weyl", "discrepancy", "average"])
    def test_default_workers_is_the_affinity_size(self, command):
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        assert cli.make_parser().parse_args([command, "c.json"]).workers == cpus

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or not hasattr(os, "fork"),
                        reason="the default reads the affinity mask; helpers are forked")
    @pytest.mark.parametrize("cpus,forked", [({0}, 0), ({0, 1}, 1)], ids=["one_cpu", "two_cpus"])
    def test_default_workers_follow_the_affinity_mask(self, cpus, forked, tmp_path, monkeypatch):
        fork, pids = os.fork, []

        def counting_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(os, "fork", counting_fork)
        assert cli.main(["discrepancy", str(INSTANCES / "heisenberg_pair.json"), "--N", "1e5",
                         "--grid", "4", "--out", str(tmp_path / "d.csv")]) == 0
        assert len(pids) == forked

    @pytest.mark.parametrize("argv", [
        ["discrepancy", "--grid", "8"],
        ["average"],
        ["weyl", "--m", "1,-2,3,1"],
        ["orbit", "--N", "2e4"],
    ], ids=["discrepancy", "average", "weyl", "orbit"])
    def test_default_workers_byte_identical(self, argv, tmp_path):
        """heisenberg_pair at its own N grid: the default worker count writes
        the bytes of a serial run."""
        outs = []
        for workers in ([], ["--workers", "1"]):
            outs.append(tmp_path / f"w{len(workers)}.csv")
            assert cli.main([argv[0], str(INSTANCES / "heisenberg_pair.json"), *argv[1:],
                             *workers, "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("doc,workers", [
        (json.loads((INSTANCES / "heisenberg_pair.json").read_text()), "1"),
        ({"group": {"dim": 4}, "generators": [["phi", "sqrt2", "e", "1/3", "pi", "sqrt5"]],
          "functions": ["t^{5/4}"], "base_point": ["1/2", "1/3", "1/5", "2/7", "3/11", "5/13"]},
         "2"),
    ], ids=["heisenberg_pair", "4x4"])
    def test_orbit_rows_repeat_the_superdiagonal_strings(self, doc, workers, tmp_path):
        """Each value is formatted once, its string reused for its horizontal
        column: the rows are those of repr over coords and over horiz."""
        p, out = tmp_path / "c.json", tmp_path / "o.csv"
        p.write_text(json.dumps(doc))
        assert cli.main(["orbit", str(p), "--N", "2e4", "--workers", workers,
                         "--out", str(out)]) == 0
        cfg = cli.build_orbit_config(doc)
        ns, coords, horiz = O.OrbitEngine(cfg).samples(1, 20000)
        header = (["n"] + [f"coord_{i + 1}" for i in range(cfg.coords_dim)]
                  + [f"horiz_{i + 1}" for i in range(cfg.horiz_dim)])
        assert out.read_text() == ",".join(header) + "\n" + "".join(
            f"{n},{','.join(map(repr, c))},{','.join(map(repr, h))}\n"
            for n, c, h in zip(ns.tolist(), coords.tolist(), horiz.tolist()))

    def test_beyond_cap_warns_once(self, tmp_path):
        p = tmp_path / "capped.json"
        p.write_text(json.dumps({**TORUS, "N_cap": 1000, "allow_beyond_cap": True}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["weyl", str(p), "--N", "300000",
                             "--out", str(tmp_path / "w.csv")]) == 0
        assert [w.category for w in caught] == [UserWarning]
        assert "beyond the precision cap" in str(caught[0].message)


BAD_ENTRIES = {"foo": "foo", "1/0": "1/0", "1e999": "1e999",
               "NaN": float("nan"), "Infinity": float("inf")}  # the last two as JSON literals
BAD_INPUTS = {
    **{f"generator {k}": ({"generators": [[v]]}, ["weyl"]) for k, v in BAD_ENTRIES.items()},
    **{f"base_point {k}": ({"base_point": [v]}, ["weyl"]) for k, v in BAD_ENTRIES.items()},
    "--N inf": ({}, ["weyl", "--N", "inf"]),
    "--N 1e3:inf:decade": ({}, ["weyl", "--N", "1e3:inf:decade"]),
    "--N abc:1:decade": ({}, ["weyl", "--N", "abc:1:decade"]),
    "orbit --N nan": ({}, ["orbit", "--N", "nan"]),
    "average --grid 1e3:inf:decade": ({}, ["average", "--grid", "1e3:inf:decade"]),
    "N_grid 1e3:inf:decade": ({"N_grid": "1e3:inf:decade"}, ["average"]),
    "N_grid abc": ({"N_grid": "abc"}, ["discrepancy"]),
    **{f"{c} N_grid []": ({"N_grid": []}, [c])
       for c in ("orbit", "weyl", "discrepancy", "obstruction", "average")},
    **{f"window gamma {k}": ({"window": {"gamma": v}}, ["obstruction", "--N", "1e3"])
       for k, v in BAD_ENTRIES.items() if k != "1e999"},  # "1e999" parses as a rational gamma
    # a bump on a repeated coordinate has no 2^-m integral
    "bump coords [0, 0]": ({"tests": [{"type": "bump", "coords": [0, 0]}]},
                           ["average", "--grid", "1e3"]),
    # frequencies beyond int64
    "average k 1e29": ({"tests": [{"type": "horizontal_character", "k": [10 ** 29]}]},
                       ["average", "--grid", "1e3"]),
    "weyl k 1e29": ({"tests": [{"type": "horizontal_character", "k": [10 ** 29]}]},
                    ["weyl", "--N", "100"]),
    "weyl --m 1e23": ({}, ["weyl", "--N", "100", "--m", str(10 ** 23)]),
    # frequencies whose float64 phase keeps no fractional bit
    "average k 2^60": ({"tests": [{"type": "horizontal_character", "k": [2 ** 60]}]},
                       ["average", "--grid", "1e3"]),
    "weyl --m 2^52": ({}, ["weyl", "--N", "100", "--m", str(2 ** 52)]),
}
# inputs that parse but are refused: a window exponent outside (0, 1) or one whose
# Taylor remainder overflows a float, and generator entries whose orbit entries or
# window polynomials are beyond the float range
GROUP3 = {"group": {"dim": 3}, "base_point": [0, 0, 0]}
REFUSED_INPUTS = {
    **{f"window gamma {g}": ({"window": {"gamma": g}}, ["obstruction", "--N", "1e3", "--Mmax", "1"],
                             cli.EXIT_PRECONDITION) for g in ("1e999", "3/2", "1", "99/100")},
    "generator 1e308, t^2": ({"generators": [[1e308]], "functions": ["t^2"]},
                             ["weyl", "--N", "100"], cli.EXIT_PRECISION),
    "3x3 generator 1e200": ({**GROUP3, "generators": [[1e200, 1e200, 0]], "functions": ["t"]},
                            ["weyl", "--N", "100", "--m", "1,0"], cli.EXIT_PRECISION),
    "obstruction 1e300": ({**GROUP3, "generators": [[1e300, 1e300, 0]],
                           "functions": ["100000*t^2"]},
                          ["obstruction", "--N", "100", "--Mmax", "1"], cli.EXIT_PRECISION),
    # a log term just below the dominant power: the eventual sign of the window
    # remainder's derivative sets in only past exp(5000)
    "obstruction t^{1499/1000} log^5": ({"generators": [["sqrt2"]],
                                          "functions": ["t^{3/2} + t^{1499/1000}*log(t)^5"]},
                                         ["obstruction", "--N", "1e4", "--Mmax", "1"],
                                         cli.EXIT_PRECONDITION),
}
EXIT_CASES = {**{k: (*v, cli.EXIT_CONFIG) for k, v in BAD_INPUTS.items()}, **REFUSED_INPUTS}
EXIT_PREFIX = {cli.EXIT_CONFIG: "config error: ", cli.EXIT_PRECONDITION: "precondition error: ",
               cli.EXIT_PRECISION: "precision cap: "}


class TestExitCodes:
    def test_config_schema_is_valid(self):
        jsonschema.validators.validator_for(cli.CONFIG_SCHEMA).check_schema(cli.CONFIG_SCHEMA)

    def test_schema_violation(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"nope": True}))
        assert cli.main(["weyl", str(p), "--N", "10"]) == cli.EXIT_CONFIG

    def test_precondition(self, tmp_path):
        p = tmp_path / "subfrac.json"
        p.write_text(json.dumps({
            "group": {"dim": 2}, "generators": [["phi"]], "functions": ["log(t)^2"]}))
        assert cli.main(["window", str(p)]) == cli.EXIT_PRECONDITION

    def test_precision_cap(self, torus_config):
        assert cli.main(["weyl", torus_config, "--N", "2e7"]) == cli.EXIT_PRECISION

    def test_weyl_product_config_needs_m(self, capsys):
        # the tests' k vectors are block-local; the product torus needs 4 entries
        rc = cli.main(["weyl", str(INSTANCES / "heisenberg_pair.json"), "--N", "10"])
        assert rc == cli.EXIT_CONFIG
        assert "--m" in capsys.readouterr().err
        rc = cli.main(["weyl", str(INSTANCES / "heisenberg_pair.json"), "--N", "10",
                       "--m", "1,0"])
        assert rc == cli.EXIT_CONFIG

    def test_missing_frequency(self, tmp_path):
        p = tmp_path / "no_tests.json"
        p.write_text(json.dumps({
            "group": {"dim": 2}, "generators": [["phi"]], "functions": ["t"]}))
        assert cli.main(["weyl", str(p), "--N", "10"]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("argv,message", [
        (["weyl", "--N", "0"], "N grid"),
        (["average", "--grid", "0"], "N grid"),
        (["average", "--grid", "100,10"], "N grid"),
        (["discrepancy", "--N", "100", "--grid", "1"], "grid resolution"),
        (["discrepancy", "--N", "100", "--grid", "0"], "grid resolution"),
    ])
    def test_degenerate_grids(self, torus_config, argv, message, capsys):
        assert cli.main([argv[0], torus_config, *argv[1:]]) == cli.EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("change,argv,code", list(EXIT_CASES.values()), ids=list(EXIT_CASES))
    def test_bad_entries_and_grids(self, tmp_path, change, argv, code):
        """Malformed or non-finite generator and base-point entries, and grids
        that are no finite numbers, exit 2; the refused inputs exit 3 or 4.
        Each runs in a child process with a timeout, so that a hang fails."""
        doc = json.loads((INSTANCES / "torus_boshernitzan.json").read_text())
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({**doc, **change}))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-m", "nilorbit.cli", argv[0], str(p), *argv[1:],
                               "--out", str(tmp_path / "out.csv")],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.startswith(EXIT_PREFIX[code]) and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("N", ["0", "-3"])
    def test_orbit_needs_positive_N(self, torus_config, tmp_path, N, capsys):
        out = tmp_path / "orbit.csv"
        assert cli.main(["orbit", torus_config, "--N", N, "--out", str(out)]) == \
            cli.EXIT_PRECONDITION
        assert not out.exists()
        assert "N >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("N,extra", [("2e7", {}),
                                         (str(2 ** 52), {"allow_beyond_cap": True})])
    def test_orbit_out_of_range_writes_nothing(self, tmp_path, N, extra):
        doc = json.loads((INSTANCES / "torus_boshernitzan.json").read_text())
        p = tmp_path / "torus.json"
        p.write_text(json.dumps({**doc, **extra}))
        out = tmp_path / "orbit.csv"
        assert cli.main(["orbit", str(p), "--N", N, "--out", str(out)]) == cli.EXIT_PRECISION
        assert not out.exists()

    def test_obstruction_needs_positive_N(self, torus_config, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["obstruction", torus_config, "--N", "0"]) == cli.EXIT_PRECONDITION
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "N >= 1" in capsys.readouterr().err

    def test_window_gamma_just_below_one(self, tmp_path, capsys):
        """gamma = 999/1000 needs a window of order 1500, whose coefficients
        overflow a float: one derivative per order makes the refusal quick,
        and it comes without numpy warnings."""
        p = tmp_path / "torus.json"
        p.write_text(json.dumps({**json.loads((INSTANCES / "torus_boshernitzan.json").read_text()),
                                 "window": {"gamma": "999/1000"}}))
        t0 = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["obstruction", str(p), "--N", "1e3", "--Mmax", "1"])
        assert rc == cli.EXIT_PRECONDITION and time.perf_counter() - t0 < 5.0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "overflows a float" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["orbit", "CONFIG", "--N", "10"],
                                      ["weyl", "CONFIG", "--N", "10"], ["classify", "t^{3/2}"]])
    def test_unwritable_out(self, torus_config, tmp_path, argv, capsys):
        out = tmp_path / "missing" / "x.csv"
        argv = [torus_config if a == "CONFIG" else a for a in argv]
        assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: cannot write {out}")

    def test_unwritable_plot_file(self, torus_config, tmp_path, capsys):
        (tmp_path / "w.weyl_abs_k1.xy").mkdir()  # a directory where a plot file goes
        argv = ["weyl", torus_config, "--N", "10", "--out", str(tmp_path / "w.csv"), "--emit-plot"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert "cannot write" in capsys.readouterr().err

    def test_decreasing_config_grid(self, tmp_path, capsys):
        p = tmp_path / "decreasing.json"
        p.write_text(json.dumps({**TORUS, "N_grid": [100, 10]}))
        assert cli.main(["average", str(p)]) == cli.EXIT_PRECONDITION
        assert "N grid" in capsys.readouterr().err

    def test_bad_test_spec(self, tmp_path, capsys):
        p = tmp_path / "bad_test.json"
        p.write_text(json.dumps({**TORUS, "tests": [{"type": "horizontal_character",
                                                     "k": [1, 0]}]}))
        assert cli.main(["average", str(p)]) == cli.EXIT_CONFIG
        assert "frequencies" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["orbit", "weyl", "discrepancy", "average"])
    @pytest.mark.parametrize("workers", ["0", "-1", "two"])
    def test_workers_must_be_positive(self, torus_config, command, workers, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main([command, torus_config, "--workers", workers])
        assert e.value.code == cli.EXIT_CONFIG
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["obstruction", "--N", "1000", "--workers", "2"],
                                      ["orbit", "--N", "10", "--emit-plot"]])
    def test_options_that_did_nothing_are_gone(self, torus_config, tmp_path, argv):
        with pytest.raises(SystemExit) as e:
            cli.main([argv[0], torus_config, *argv[1:], "--out", str(tmp_path / "x.csv")])
        assert e.value.code == cli.EXIT_CONFIG


def test_orbit_dump_matches_per_cell_formatter(tmp_path):
    """The chunk text built from tolist() equals formatting each cell on its own."""
    config = str(INSTANCES / "heisenberg_pair.json")
    out = tmp_path / "orbit.csv"
    assert cli.main(["orbit", config, "--N", "2e4", "--out", str(out)]) == 0
    cfg = cli.build_orbit_config(cli.load_config(config))
    lines = [",".join(["n"] + [f"coord_{i + 1}" for i in range(cfg.coords_dim)]
                      + [f"horiz_{i + 1}" for i in range(cfg.horiz_dim)])]
    for ns, coords, horiz in O.iter_sample_chunks(cfg, 1, 20000, lambda *c: c):
        for i in range(len(ns)):
            lines.append(",".join([str(int(ns[i]))] + [repr(float(x)) for x in coords[i]]
                                  + [repr(float(x)) for x in horiz[i]]))
    assert out.read_text() == "\n".join(lines) + "\n"


def test_traced_benchmark_names_resolve():
    """Every name the benchmark tracer wraps still exists on the package."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    names = {t.id: ast.literal_eval(node.value) for node in tree.body
             if isinstance(node, ast.Assign) for t in node.targets
             if isinstance(t, ast.Name) and t.id in ("SPANS", "GENERATORS", "DD_OPS")}
    assert set(names) == {"SPANS", "GENERATORS", "DD_OPS"}
    for table in (names["SPANS"], names["GENERATORS"]):
        for modname, attrs in table.items():
            mod = importlib.import_module(f"nilorbit.{modname}")
            for attr in attrs:
                obj = mod
                for part in attr.split("."):
                    obj = getattr(obj, part)
                assert callable(obj), f"{modname}.{attr}"
    from nilorbit.ddmath import DD
    for op in names["DD_OPS"]:
        assert callable(getattr(DD, op)), op


_DISCREPANCY = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import nilorbit.cli as cli
argv = ["discrepancy", "instances/pointwise_dependent.json", "--N", "1e4"]
rc = cli.main(argv + ["--out", sys.argv[1]])
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"rc": rc, "peak_kb": peak_kb, "rc_grid8": cli.main(argv + ["--grid", "8"])}))
"""


def test_default_discrepancy_grid_fits_the_cell_budget(tmp_path):
    """On 9 coordinates the default grid is 5 (5^9 cells, within 2^22), where
    8 boxes per axis took an 8^9-cell histogram and about 2.2 GB; an explicit
    --grid 8 exits 3.  The child's address space is capped at 1 GiB, so a
    regression fails at its first large allocation."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = tmp_path / "d.csv"
    proc = subprocess.run([sys.executable, "-c", _DISCREPANCY, str(out)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["rc"] == 0 and result["peak_kb"] < 300 * 1024, result
    assert out.read_text().splitlines()[1].startswith("10000,box_discrepancy_g5,")
    assert result["rc_grid8"] == cli.EXIT_PRECONDITION
    assert "above the budget" in proc.stderr and "Traceback" not in proc.stderr


_FAULTS = """
import json, resource, sys
import nilorbit.cli as cli
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
rc = cli.main(["average", "instances/heisenberg_pair.json", "--workers", "2", "--out", sys.argv[1]])
print(json.dumps({"rc": rc, "faults": resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before}))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap setting is glibc's mallopt")
def test_average_keeps_its_heap_pages(tmp_path):
    """cli.main keeps freed heap pages in the process, so the 256 KiB arrays
    of each chunk do not fault in afresh: about 30k minor faults without the
    setting, about 2k with it (the helper's own faults are not counted)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", _FAULTS, str(tmp_path / "a.csv")], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["rc"] == 0 and result["faults"] < 5000, result
