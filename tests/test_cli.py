"""CLI contract tests: config parsing, dispatch, exit codes, report shape."""

import json
import subprocess
import sys

import numpy as np
import pytest

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


def test_parse_errors_name_the_path():
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


def test_parse_rejects_violated_coupling_constraint():
    data = _base_config()
    data["c_star"] = [9.9, 0.0]
    with pytest.raises(ConfigError, match="coupling constraint"):
        parse_config(data)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "nope.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))


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


def test_verify_frontier_floor_two_s_8():
    # draws that pass verify at two_s 8, measured at the first batched
    # solver; a change may only raise the count
    passed = sum(run_verify(parse_config(_draw_config(p)))["pass"]
                 for p in draw_many(8, 12, 1008))
    assert passed >= 8
