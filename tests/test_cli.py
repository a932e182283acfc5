"""CLI contract tests: config parsing, dispatch, exit codes, report shape."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qracah.cli as cli
from qracah.cli import (
    ConfigError,
    load_config,
    main,
    parse_config,
    run_bethe,
    run_racah_table,
    run_spectrum,
    run_verify,
)

from qracah.bethe import KINDS
from qracah.leonard import build, eigen_family
from qracah.model import spectrum
from qracah.transition import racah_from_scalar_products

from conftest import cli_env, draw_many

SHIPPED_CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "generic_two_s2.json")


def _base_config():
    b = 0.9 + 0.4j
    c = 1.2 - 0.3j
    b_star = 0.8 + 0.25j
    c_star = b * c / b_star
    return {
        "q": [1.18, 0.0],
        "two_s": 2,
        "b": [b.real, b.imag],
        "c": [c.real, c.imag],
        "b_star": [b_star.real, b_star.imag],
        "c_star": [c_star.real, c_star.imag],
        "zeta": [1.1, 0.2],
        "tolerances": {
            "identity_tol": 1e-8,
            "bethe_tol": 1e-10,
            "match_tol": 1e-6,
            "dedup_tol": 1e-6,
        },
        "output": {"format": "json"},
    }


def _write(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------------------
# parsing


def test_parse_roundtrip_defaults():
    data = _base_config()
    del data["tolerances"]
    del data["output"]
    cfg = parse_config(data)
    assert cfg.identity_tol == 1e-8
    assert cfg.solver.tol == 1e-10
    assert cfg.output_format == "json"
    assert cfg.params.two_s == 2


def test_parse_errors_name_the_path(tmp_path, capsys):
    data = _base_config()
    data["tolerances"]["identity_tol"] = -1.0
    with pytest.raises(ConfigError, match=r"tolerances\.identity_tol"):
        parse_config(data)

    data = _base_config()
    data["q"] = [1.18]
    with pytest.raises(ConfigError, match=r"\bq\b"):
        parse_config(data)

    data = _base_config()
    data["solver"] = {"starts": 400, "max_iter": 200, "seed": 42}
    with pytest.raises(ConfigError, match="unknown config key 'solver'"):
        parse_config(data)

    # the offset and scale keys of specs before 3.0 changed no number
    for key, value in (("m0", 0), ("chi", [1.0, 0.0])):
        data = _base_config()
        data[key] = value
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            parse_config(data)

    data = _base_config()
    data["two_s"] = 2.5
    with pytest.raises(ConfigError, match="two_s"):
        parse_config(data)

    data = _base_config()
    data["output"]["format"] = "xml"
    with pytest.raises(ConfigError, match="output.format"):
        parse_config(data)

    data = _base_config()
    data["bstar"] = [1.0, 0.0]
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config(data)

    # json reads NaN and Infinity, and an integer past binary64 stays an int;
    # none is a number the checks can use, so each is a config error (exit 2)
    nan, inf, huge = float("nan"), float("inf"), 10**400
    for path, value in (("q", [nan, 0.2]), ("zeta", [inf, 0.0]), ("b", [0.9, -inf]),
                        ("c", [huge, 0.0]), ("tolerances.bethe_tol", inf),
                        ("tolerances.identity_tol", nan), ("tolerances.match_tol", huge)):
        data = _base_config()
        block = data["tolerances"] if "." in path else data
        block[path.rpartition(".")[2]] = value
        with pytest.raises(ConfigError, match=rf"^{path} must be"):
            parse_config(data)
        for command in ("spectrum", "verify"):
            assert main([command, _write(tmp_path, data)]) == 2, (path, command)
            captured = capsys.readouterr()
            assert captured.out == "" and f"config error: {path}" in captured.err


def test_parse_rejects_violated_coupling_constraint():
    data = _base_config()
    data["c_star"] = [9.9, 0.0]
    with pytest.raises(ConfigError, match="coupling constraint"):
        parse_config(data)


def test_load_config_missing_file(tmp_path, capsys):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "nope.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))
    bad.write_bytes('{"q": "café"}'.encode("latin-1"))  # é is one byte, not UTF-8
    with pytest.raises(ConfigError, match="not valid UTF-8"):
        load_config(str(bad))
    assert main(["spectrum", str(bad)]) == 2
    assert "config error: config is not valid UTF-8" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit codes through main()


def test_main_exit_codes(tmp_path, capsys):
    good = _write(tmp_path, _base_config())
    assert main(["spectrum", good]) == 0
    capsys.readouterr()

    assert main(["bethe", good, "--kind", "hom_minus", "--level", "1"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["matched_index"] for r in rows] == [1]

    bad = _write(tmp_path, {"q": [1.18, 0.0]}, "bad.json")
    assert main(["spectrum", bad]) == 2
    err = capsys.readouterr().err
    assert "config error" in err

    # genericity refusal cites the violated condition
    data = _base_config()
    b = complex(*data["b"])
    data["c"] = data["b"]
    cs = b * b / complex(*data["b_star"])
    data["c_star"] = [cs.real, cs.imag]
    degen = _write(tmp_path, data, "degen.json")
    assert main(["spectrum", degen]) == 2
    err = capsys.readouterr().err
    assert "c - b*q^(2k) vanishes at k = 0" in err


def test_main_invalid_level_is_config_error(tmp_path, capsys):
    cfgfile = _write(tmp_path, _base_config())
    assert main(["bethe", cfgfile, "--kind", "inhom_plus", "--level", "1"]) == 2
    err = capsys.readouterr().err
    assert "level" in err


# ---------------------------------------------------------------------------
# report content


@pytest.fixture(scope="module")
def fast_cfg(tmp_path_factory):
    data = _base_config()
    path = tmp_path_factory.mktemp("cli") / "cfg.json"
    path.write_text(json.dumps(data))
    return load_config(str(path))


def test_verify_report_schema_and_pass(fast_cfg):
    rep = run_verify(fast_cfg)
    assert set(rep) == {"instance", "checks", "bethe", "racah", "pass", "versions"}
    assert rep["versions"] == {"spec": "3.0"}
    assert rep["pass"] is True
    names = [c["name"] for c in rep["checks"]]
    for expected in ("aw1", "aw2", "pinv_p_identity", "recurrence",
                     "bethe_coverage_hom_minus", "bethe_coverage_dual_inhom_minus"):
        assert expected in names
    for c in rep["checks"]:
        assert set(c) == {"name", "residual", "threshold", "pass"}
        assert c["pass"] is True
    # instance echoes every model parameter as [re, im]
    inst = rep["instance"]
    assert inst["two_s"] == 2
    assert inst["b"] == [0.9, 0.4]
    # bethe table covers all six kinds
    kinds = {row["kind"] for row in rep["bethe"]}
    assert len(kinds) == 6
    # racah table has one row per (M, N)
    assert len(rep["racah"]) == 9


def _draw_config(p):
    """Config of a parameter draw, with default tolerances."""
    data = {key: [complex(v).real, complex(v).imag] for key, v in (
        ("q", p.base.q), ("b", p.b), ("c", p.c), ("b_star", p.b_star),
        ("c_star", p.c_star), ("zeta", p.zeta))}
    data["two_s"] = p.two_s
    return data


@pytest.fixture(scope="module")
def refused_rac1_path(tmp_path_factory):
    """Config of draw_many(16, 12, 1016)[0], whose rac1 double ratios meet a
    vanishing scalar product while rac2 computes."""
    path = tmp_path_factory.mktemp("refused") / "cfg.json"
    path.write_text(json.dumps(_draw_config(draw_many(16, 12, 1016)[0])))
    return str(path)


def _assert_rac1_refusal_reported(rep):
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["racah_series_vs_rac1"] == {
        "name": "racah_series_vs_rac1", "residual": None, "threshold": 1e-8, "pass": False}
    assert by_name["racah_series_vs_rac2"]["residual"] is not None
    assert rep["pass"] is False
    assert len(rep["racah"]) == 17 * 17
    assert all(r["double_ratio"] is None and r["series"] is not None for r in rep["racah"])
    assert {r["kind"] for r in rep["bethe"]} == set(KINDS)


def test_verify_reports_a_refused_double_ratio_route(refused_rac1_path):
    cfg = load_config(refused_rac1_path)
    fam = eigen_family(build(cfg.params).A_mat, spectrum(cfg.params).theta)
    idx = np.arange(cfg.params.dim)
    with pytest.raises(ValueError, match="vanishing scalar product"):
        racah_from_scalar_products(fam, idx[:, None], idx[None, :], "rac1")
    _assert_rac1_refusal_reported(run_verify(cfg))


def test_main_emits_the_report_when_a_route_refuses(refused_rac1_path, capsys):
    assert main(["verify", refused_rac1_path]) == 1
    out = capsys.readouterr()
    assert "numerical failure" not in out.err
    _assert_rac1_refusal_reported(json.loads(out.out))


@pytest.fixture(scope="module")
def refused_family_path(tmp_path_factory):
    """Config of draw_many(8, 5, 85)[1], on which eigen_family refuses: a
    shifted system is not rank-deficient within its tolerance."""
    path = tmp_path_factory.mktemp("refused_family") / "cfg.json"
    path.write_text(json.dumps(_draw_config(draw_many(8, 5, 85)[1])))
    return str(path)


def _assert_family_refusal_reported(rep):
    by_name = {c["name"]: c for c in rep["checks"]}
    for name in ("eigenvector_residual_A", "racah_series_vs_rac1", "racah_series_vs_rac2"):
        assert by_name[name] == {"name": name, "residual": None, "threshold": 1e-8, "pass": False}
    assert rep["pass"] is False
    assert len(rep["racah"]) == 9 * 9
    assert all(r["double_ratio"] is None and r["series"] is not None for r in rep["racah"])
    assert {r["kind"] for r in rep["bethe"]} == set(KINDS)


def test_verify_reports_a_refused_eigen_family(refused_family_path):
    cfg = load_config(refused_family_path)
    with pytest.raises(ValueError, match="not rank-deficient"):
        eigen_family(build(cfg.params).A_mat, spectrum(cfg.params).theta)
    _assert_family_refusal_reported(run_verify(cfg))


def test_main_emits_the_report_when_the_eigen_family_refuses(refused_family_path, capsys):
    assert main(["verify", refused_family_path]) == 1
    out = capsys.readouterr()
    assert "numerical failure" not in out.err
    _assert_family_refusal_reported(json.loads(out.out))


def test_racah_double_ratio_refusal_names_the_entry(refused_rac1_path, capsys):
    # the first entry in row-major order whose rac1 denominator vanishes,
    # found by a scalar loop
    p = load_config(refused_rac1_path).params
    w = eigen_family(build(p).A_mat, spectrum(p).theta).left
    first = next((M, N) for M in range(len(w)) for N in range(len(w))
                 if abs(w[0, N] * w[M, 0]) <= 1e-14 * max(1.0, abs(w[M, N] * w[0, 0])))
    assert main(["racah", refused_rac1_path, "--route", "double-ratio"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "vanishing scalar product" in out.err
    assert f"at (M, N) = {first}, |den| = {abs(w[0, first[1]] * w[first[0], 0]):.3e}" in out.err


def test_racah_routes_agree(fast_cfg):
    series = run_racah_table(fast_cfg, "series")
    rec = run_racah_table(fast_cfg, "recurrence")
    dr = run_racah_table(fast_cfg, "double-ratio")
    for a, b, c in zip(series, rec, dr):
        va = complex(*a["value"])
        vb = complex(*b["value"])
        vc = complex(*c["value"])
        assert abs(va - vb) < 1e-8 * max(1, abs(va))
        assert abs(va - vc) < 1e-8 * max(1, abs(va))
    # first row is exactly one
    for row in series:
        if row["M"] == 0:
            assert row["value"] == [1.0, 0.0]


def test_racah_unknown_route_rejected(fast_cfg):
    with pytest.raises(ConfigError, match="route"):
        run_racah_table(fast_cfg, "bisection")


def test_bethe_rows_cover_spectrum(fast_cfg):
    rows = run_bethe(fast_cfg, "inhom_minus", 2)
    matched = sorted(r["matched_index"] for r in rows if r["matched_index"] is not None)
    assert matched == [0, 1, 2]
    for r in rows:
        assert r["residual"] < fast_cfg.solver.tol
        assert len(r["roots"]) == 2
        assert len(r["roots"][0]) == 2


def test_bethe_unknown_kind_rejected(fast_cfg):
    with pytest.raises(ConfigError, match="hom_minus"):
        run_bethe(fast_cfg, "mystery", 2)


def test_spectrum_values(fast_cfg):
    out = run_spectrum(fast_cfg)
    assert set(out) == {"theta", "theta_star"}
    assert len(out["theta"]) == 3
    p = fast_cfg.params
    q = p.base.q
    th0 = p.b + p.c
    assert abs(complex(*out["theta"][0]) - th0) < 1e-14 * max(1, abs(th0))


# ---------------------------------------------------------------------------
# subprocess-level checks: console script, CSV shape, byte determinism


def _run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "qracah", *args],
        capture_output=True, text=False, cwd=cwd, env=cli_env(), timeout=600,
    )


def test_csv_header_exact(tmp_path):
    data = _base_config()
    data["output"] = {"format": "csv"}
    cfgfile = _write(tmp_path, data)
    proc = _run_cli(["racah", cfgfile, "--route", "series"], tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    first = proc.stdout.decode().splitlines()[0]
    assert first == "M,N,re,im"


def test_verify_byte_identical_runs(tmp_path):
    cfgfile = _write(tmp_path, _base_config())
    p1 = _run_cli(["verify", cfgfile], tmp_path)
    p2 = _run_cli(["verify", cfgfile], tmp_path)
    assert p1.returncode == 0, p1.stderr.decode()
    assert p1.stdout == p2.stdout
    assert len(p1.stdout) > 1000


def test_output_path_writes_file(tmp_path):
    data = _base_config()
    out = tmp_path / "report.json"
    data["output"] = {"format": "json", "path": str(out)}
    cfgfile = _write(tmp_path, data)
    assert main(["spectrum", cfgfile]) == 0
    body = json.loads(out.read_text())
    assert "theta" in body


@pytest.mark.parametrize("args", [["spectrum"], ["racah", "--route", "series"],
                                  ["bethe", "--kind", "hom_minus", "--level", "1"], ["verify"]])
def test_unwritable_output_path_is_config_error(args, tmp_path, capsys):
    data = _base_config()
    data["output"] = {"format": "json", "path": str(tmp_path / "missing" / "out.json")}
    cfgfile = _write(tmp_path, data)
    assert main([args[0], cfgfile, *args[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: cannot write output.path: ")


def test_verify_builds_its_setup_once(tmp_path, monkeypatch, capsys):
    # counters on every qracah binding of each counted function; a cache that
    # lived across calls would give the second, equal config fewer calls
    import qracah.bethe as bethe
    import qracah.leonard as leonard
    import qracah.model as model
    import qracah.transition as transition

    calls = {}
    for fn in (model.spectrum, leonard._diagonals, leonard._realize, bethe._polish):
        def counted(*args, _fn=fn):
            calls[_fn.__name__].append(args)
            return _fn(*args)
        for mod in (model, leonard, transition, bethe, cli):
            for name in [n for n, v in vars(mod).items() if v is fn]:
                monkeypatch.setattr(mod, name, counted)
    copy = tmp_path / "shipped_copy.json"
    copy.write_text(Path(SHIPPED_CONFIG).read_text())
    counts = []
    for path in (SHIPPED_CONFIG, str(copy)):
        calls.update((name, []) for name in ("spectrum", "_diagonals", "_realize", "_polish"))
        assert main(["verify", path]) == 0
        capsys.readouterr()
        counts.append({name: len(args) for name, args in calls.items()})
        assert len(calls["spectrum"]) <= 3
        assert sorted(args[0] for args in calls["_diagonals"]) == ["A", "Astar"]
        assert [args[0] for args in calls["_realize"]] == [leonard.GAUGE_THETA_STAR,
                                                          leonard.GAUGE_THETA]
        assert len(calls["_polish"]) == 1
    assert counts[0] == counts[1]


def test_verify_frontier_floor_two_s_8():
    # draws that pass verify at two_s 8, measured at the first batched
    # solver; a change may only raise the count
    passed = sum(run_verify(parse_config(_draw_config(p)))["pass"]
                 for p in draw_many(8, 12, 1008))
    assert passed >= 8


# ---------------------------------------------------------------------------
# the column-by-column table writer: bytes equal json.dumps(indent=2)


def _main_recorded(monkeypatch, capsys, runner, argv):
    """main(argv) with cli.<runner> recorded: the exit code, stdout, and what
    the runner returned to main (None when it raised)."""
    returned = [None]
    run = getattr(cli, runner)

    def recorded(*args):
        returned[0] = run(*args)
        return returned[0]

    monkeypatch.setattr(cli, runner, recorded)
    rc = main(argv)
    return rc, capsys.readouterr().out, returned[0]


def _dumps(obj):
    return json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize("two_s", [1, 2, 8, 16, 32])
def test_racah_json_bytes_equal_json_dumps(two_s, tmp_path, monkeypatch, capsys):
    path = _write(tmp_path, _draw_config(draw_many(two_s, 1, 9100 + two_s)[0]))
    refused = 0
    for route in ("series", "recurrence", "double-ratio"):
        rc, out, rows = _main_recorded(
            monkeypatch, capsys, "run_racah_table", ["racah", path, "--route", route])
        if rows is None:  # the double ratios meet a vanishing scalar product
            assert (route, rc, out) == ("double-ratio", 1, "")
            refused += 1
            continue
        assert rc == 0
        assert len(rows) == (two_s + 1) ** 2
        assert out == _dumps(rows)
    # these draws refuse from two_s 16 on
    assert refused == (two_s >= 16)


# (two_s, count, seed, index) of draw_many draws; None is the shipped config.
# The last two are the draws on which eigen_family and the rac1 route refuse.
_VERIFY_DRAWS = ([None] + [(n, 3, 9000 + n, i) for n in (1, 2, 3, 4, 8) for i in range(3)]
                 + [(8, 5, 85, 1), (16, 12, 1016, 0)])


@pytest.mark.parametrize("draw", _VERIFY_DRAWS, ids=str)
def test_verify_json_bytes_equal_json_dumps(draw, tmp_path, monkeypatch, capsys):
    if draw is None:
        path = SHIPPED_CONFIG
    else:
        two_s, count, seed, index = draw
        path = _write(tmp_path, _draw_config(draw_many(two_s, count, seed)[index]))
    rc, out, report = _main_recorded(monkeypatch, capsys, "run_verify", ["verify", path])
    assert rc == (0 if report["pass"] else 1)
    assert out == _dumps(report)


# every float repr format switch: non-finite, signed zero, subnormal, the
# exponent form from 1e16 up and below 1e-4, and the fixed form between
_EDGE_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, -5e-324,
                1e16, -1e16, 9999999999999998.0, 1e-5, 1e-4, 0.1, 1.0, -1.5,
                123456.789, 1.7976931348623157e308, 2.2250738585072014e-308]


def _edge_table():
    vals = _EDGE_FLOATS
    return [{"M": k, "N": 1000 + k, "value": [vals[k], vals[-1 - k]]} for k in range(len(vals))]


def test_racah_json_of_edge_floats_equals_json_dumps():
    rows = _edge_table()
    assert cli._racah_json(rows) == _dumps(rows)
    assert cli._racah_json(rows[:1]) == _dumps(rows[:1])


@pytest.mark.parametrize("double_ratio", ["pairs", "null"])
def test_verify_json_of_edge_floats_equals_json_dumps(double_ratio):
    vals = _EDGE_FLOATS
    racah_rows = [{"M": k, "N": k // 2, "series": [vals[k], vals[-1 - k]],
                   "double_ratio": [vals[-1 - k], vals[k]] if double_ratio == "pairs" else None,
                   "recurrence_residual": vals[k]} for k in range(len(vals))]
    pairs = [[vals[k], vals[-1 - k]] for k in range(len(vals))]
    bethe_rows = [
        {"kind": "hom_minus", "roots": [[1e16, -0.0]], "match_error": None},
        # level 0: a hit without roots
        {"kind": "hom_plus", "index": 0, "hit": True, "roots": [], "symmetrized": [],
         "eigenvalue": [1.5, -0.0], "matched_index": 0, "residual": 0.0, "match_error": 5e-324},
        # a miss: every solution field is null
        {"kind": "inhom_minus", "index": 2, "hit": False, "roots": None, "symmetrized": None,
         "eigenvalue": None, "matched_index": None, "residual": None, "match_error": None},
    ] + [
        # every edge float in the roots, the residual and the match error
        {"kind": "dual_inhom_plus", "index": k, "hit": k % 2 == 0, "roots": pairs[k:k + 4],
         "symmetrized": pairs[-1 - k:], "eigenvalue": pairs[k], "matched_index": k,
         "residual": vals[k], "match_error": vals[-1 - k]} for k in range(len(vals))]
    report = {
        "instance": {"q": [1.1, 0.0], "two_s": 3, "tolerances": {"identity_tol": 1e-8}},
        "checks": [{"name": "racah", "residual": None, "threshold": 1e-8, "pass": False},
                   {"name": '100%s "quoted" \u00e9', "residual": vals[0], "threshold": 1,
                    "pass": True}],
        "bethe": bethe_rows,
        "racah": racah_rows,
        "pass": False,
        "versions": {"spec": "3.0"},
    }
    assert cli._verify_json(report) == _dumps(report)
    no_rows = {**report, "bethe": [], "instance": {}}
    assert cli._verify_json(no_rows) == _dumps(no_rows)
    numpy_row = {**bethe_rows[1], "residual": np.float64(0.5)}
    with pytest.raises(ValueError, match="not a Python number"):
        cli._verify_json({**report, "bethe": bethe_rows + [numpy_row]})


def test_table_writer_refuses_what_is_not_a_python_number():
    nested = [{"M": 0, "N": 0, "value": [[1.0, 2.0], 3.0]},
              {"M": 0, "N": 1, "value": [[1.0, 2.0], 3.0]}]
    with pytest.raises(ValueError, match="not a Python number"):
        cli._racah_json(nested)
    numpy_scalars = [{"M": 0, "N": 0, "value": [np.float64(0.5), np.float64(1.0)]}]
    if repr(np.float64(0.5)) != "0.5":  # numpy 2 prints np.float64(0.5)
        with pytest.raises(ValueError, match="not a Python number"):
            cli._racah_json(numpy_scalars)
    else:
        assert cli._racah_json(numpy_scalars) == _dumps(numpy_scalars)


def _racah_csv_by_rows(rows):
    """The CSV writer of specs up to 3.0: one f-string per row."""
    lines = ["M,N,re,im"]
    for r in rows:
        re_, im_ = r["value"]
        lines.append(f"{r['M']},{r['N']},{re_!r},{im_!r}")
    return "\n".join(lines) + "\n"


def test_racah_csv_equals_the_row_by_row_writer(fast_cfg):
    rows = _edge_table()
    assert cli._racah_csv(rows) == _racah_csv_by_rows(rows)
    assert "nan" in cli._racah_csv(rows) and "NaN" not in cli._racah_csv(rows)
    for route in ("series", "recurrence", "double-ratio"):
        rows = run_racah_table(fast_cfg, route)
        assert cli._racah_csv(rows) == _racah_csv_by_rows(rows)


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    cfgfile = _write(tmp_path, _base_config())
    commands = [["racah", cfgfile, "--route", "series"], ["spectrum", cfgfile],
                ["bethe", cfgfile, "--kind", "hom_minus", "--level", "1"],
                ["racah", cfgfile, "--route", "double-ratio"]]
    in_process = []
    for argv in commands:
        assert main(argv) == 0
        in_process.append(capsys.readouterr().out.encode())
    separate = [_run_cli(argv, tmp_path) for argv in commands]
    assert [p.returncode for p in separate] == [0] * len(commands)
    assert in_process == [p.stdout for p in separate]
    assert cli._build_parser() is cli._build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["racah", cfgfile, "--route", "bisection"])
    assert exc.value.code == 2
    assert main(["spectrum", cfgfile]) == 0
    assert capsys.readouterr().out.encode() == in_process[1]
