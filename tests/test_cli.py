"""CLI contract tests: config parsing, dispatch, exit codes, report shape."""

import json
import subprocess
import sys
import warnings
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

from qracah import bethe, leonard, transition
from qracah.bethe import KINDS
from qracah.leonard import GAUGE_THETA, build, eigen_family, verify_cayley_hamilton
from qracah.model import _dual, spectrum
from qracah.transition import build_transition, racah_from_scalar_products, racah_matrix

from conftest import cli_env, draw_many, fuzz_config, fuzz_params

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
    data["two_s"] = 0
    with pytest.raises(ConfigError, match="^two_s must be >= 1$"):
        parse_config(data)

    data = _base_config()
    del data["b_star"]
    with pytest.raises(ConfigError, match="^b_star is required$"):
        parse_config(data)

    data = _base_config()
    data["tolerances"] = [1e-8]
    with pytest.raises(ConfigError, match="^tolerances must be a JSON object$"):
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
    # none is a number the checks can use, nor is a pair of finite parts whose
    # modulus is past binary64, so each is a config error (exit 2)
    nan, inf, huge, wide = float("nan"), float("inf"), 10**400, [1.7e308, 1.7e308]
    for path, value in (("q", [nan, 0.2]), ("zeta", [inf, 0.0]), ("b", [0.9, -inf]),
                        ("c", [huge, 0.0]), ("q", wide), ("c", wide),
                        ("tolerances.bethe_tol", inf), ("tolerances.identity_tol", nan),
                        ("tolerances.match_tol", huge)):
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


@pytest.mark.parametrize("warn", ["ignore", "error"])
@pytest.mark.parametrize("couplings", [{"b": [1.5e308, 0.0], "c_star": [1.0, 0.0]},
                                       {"b_star": [1.5e308, 0.0], "c_star": [1.2, 0.0]},
                                       {"b": [1e308, 1e308], "c": [1.0, 0.0], "b_star": [1.0, 0.0],
                                        "c_star": [-5e307, -5e307]}],
                         ids=["b*c", "b_star*c_star", "difference"])
def test_overflowed_coupling_product_is_config_error(couplings, warn, tmp_path, capsys):
    # a product past binary64's range cannot be compared: inf > 1e-10 * inf is False;
    # nor can finite products whose difference has a modulus past it
    path = _write(tmp_path, {**_base_config(), **couplings})
    with warnings.catch_warnings():
        warnings.simplefilter(warn)
        for args in (["spectrum"], ["verify"], ["racah", "--route", "series"]):
            assert main([args[0], path, *args[1:]]) == 2, args
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("config error: ModelParams: coupling constraint")


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


def test_config_nested_past_the_recursion_limit_is_config_error(tmp_path, capsys):
    # json.load raises RecursionError here, not JSONDecodeError
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    assert main(["spectrum", str(deep)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: config is nested too deeply to parse: ")


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


_ZETA_LINE = "zeta out of range: |zeta|^2 or its inverse exceeds 1e300"
_Q_LINE = "q out of range: |q|^132 or its inverse exceeds 1e300"


@pytest.mark.parametrize("key, value, two_s, line", [
    ("zeta", [1e-200, 0.0], 2, _ZETA_LINE),
    ("zeta", [1e200, 0.0], 2, _ZETA_LINE),
    ("q", [1e10, 0.0], 32, _Q_LINE),
    ("q", [1e-10, 0.0], 32, _Q_LINE),
    # b*q^(2k) is inf from k = 9 on; the screen once read that as c - b*q^(2k) vanishing
    ("b", [1e307, 0.0], 8, "b out of range: |b*q^(2k)| exceeds 1e300 for some k <= 16"),
    ("b_star", [1e307, 0.0], 8,
     "b_star out of range: |b_star*q^(2k)| exceeds 1e300 for some k <= 16"),
], ids=["zeta_tiny", "zeta_huge", "q_huge", "q_tiny", "b_rung", "b_star_rung"])
def test_out_of_range_parameter_is_refused(key, value, two_s, line, tmp_path, capsys):
    # powers past binary64's range: every command refuses with the one line
    # that names the parameter, and evaluates nothing that could warn or raise
    data = _base_config()
    data[key], data["two_s"] = value, two_s
    c_star = complex(*data["b"]) * complex(*data["c"]) / complex(*data["b_star"])
    data["c_star"] = [c_star.real, c_star.imag]
    path = _write(tmp_path, data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for args in (["spectrum"], ["verify"], ["bethe", "--kind", "hom_plus", "--level", "1"],
                     *(["racah", "--route", r] for r in ("series", "recurrence", "double-ratio"))):
            assert main([args[0], path, *args[1:]]) == 2, args
            assert capsys.readouterr() == ("", f"genericity refusal:\n  - {line}\n")


@pytest.mark.parametrize("zeta", [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                         ids=["1", "-1", "i", "-i"])
@pytest.mark.parametrize("two_s", [1, 2, 3, 4, 6])
def test_verify_passes_on_the_untwisted_and_imaginary_twists(zeta, two_s, tmp_path, capsys):
    # draw_params draws a random phase, so no other test reaches zeta = ±1 or ±i
    data = json.loads(Path(SHIPPED_CONFIG).read_text())
    data["zeta"], data["two_s"] = zeta, two_s
    path = _write(tmp_path, data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", path]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in rep["checks"] if not c["pass"]] == []
    assert all(r["hit"] for r in rep["bethe"])


# ---------------------------------------------------------------------------
# report content


# every check of a verify report, in report order (schema 4.0)
_CHECK_NAMES = [
    "aw1", "aw2", "eigenvector_residual_A", "pinv_p_identity", "p_pinv_identity",
    "pinv_columns_eigenvectors", "recurrence", "q_difference", "orthogonality_rows",
    "orthogonality_columns", "racah_first_row_col", "racah_series_vs_recurrence",
    "racah_series_vs_rac1", "racah_series_vs_rac2", *(f"bethe_coverage_{kind}" for kind in KINDS),
]


@pytest.fixture(scope="module")
def fast_cfg(tmp_path_factory):
    data = _base_config()
    path = tmp_path_factory.mktemp("cli") / "cfg.json"
    path.write_text(json.dumps(data))
    return load_config(str(path))


def test_verify_report_schema_and_pass(fast_cfg):
    rep = run_verify(fast_cfg)
    assert set(rep) == {"instance", "checks", "bethe", "racah", "pass", "versions"}
    assert rep["versions"] == {"spec": "4.0"}
    assert rep["pass"] is True
    assert [c["name"] for c in rep["checks"]] == _CHECK_NAMES
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
    """Config of the first E = 100 fuzz draw (two_s 4), on which eigen_family
    refuses: its couplings overflow, so A_mat holds a NaN and no shifted
    solve gives a finite vector."""
    path = tmp_path_factory.mktemp("refused_family") / "cfg.json"
    path.write_text(json.dumps(fuzz_config(np.random.default_rng(2300), 100)))
    return str(path)


def _assert_family_refusal_reported(rep):
    by_name = {c["name"]: c for c in rep["checks"]}
    for name in ("eigenvector_residual_A", "racah_series_vs_rac1", "racah_series_vs_rac2"):
        assert by_name[name] == {"name": name, "residual": None, "threshold": 1e-8, "pass": False}
    assert rep["pass"] is False
    assert len(rep["racah"]) == 5 * 5
    assert all(r["double_ratio"] is None and r["series"] is not None for r in rep["racah"])
    assert {r["kind"] for r in rep["bethe"]} == set(KINDS)


def test_verify_reports_a_refused_eigen_family(refused_family_path):
    cfg = load_config(refused_family_path)
    with warnings.catch_warnings():  # the overflowed couplings warn as they are built
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError, match="failed to produce a vector"):
            eigen_family(build(cfg.params).A_mat, spectrum(cfg.params).theta)
        rep = run_verify(cfg)
    _assert_family_refusal_reported(rep)


def test_main_emits_the_report_when_the_eigen_family_refuses(refused_family_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["verify", refused_family_path]) == 1
    out = capsys.readouterr()
    assert "numerical failure" not in out.err
    _assert_family_refusal_reported(json.loads(out.out))


def test_precision_limit_draw_has_an_eigen_family(tmp_path):
    # draw_many(8, 5, 85)[1]: its eigen family is accepted near rounding,
    # while the pinv identities still fail on the pair's conditioning
    # (kappa(P) ~ 5.7e12), a precision limit of binary64
    p = draw_many(8, 5, 85)[1]
    assert np.max(eigen_family(build(p).A_mat, spectrum(p).theta).residuals) <= 1e-14
    rep = run_verify(load_config(_write(tmp_path, _draw_config(p))))
    checks = {c["name"]: c for c in rep["checks"]}
    assert checks["eigenvector_residual_A"]["pass"]
    assert checks["eigenvector_residual_A"]["residual"] <= 1e-14
    for name in ("pinv_p_identity", "p_pinv_identity"):
        assert not checks[name]["pass"] and checks[name]["residual"] > 1e-4


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


def test_bethe_on_a_non_finite_fit_is_strict_json(tmp_path, capsys):
    # the 39th E = 100 fuzz draw (two_s 16): the scaled TQ fit of the level-2
    # target is not finite, so that target gets no root set; the SVD never
    # sees it
    rng = np.random.default_rng(2300)
    for _ in range(39):
        data = fuzz_config(rng, 100)
    path = _write(tmp_path, data)
    assert main(["bethe", path, "--kind", "hom_minus", "--level", "2"]) == 0
    out, err = capsys.readouterr()
    assert _strict_json(out) == [] and err == ""


def test_racah_routes_agree(fast_cfg):
    series = run_racah_table(fast_cfg, "series")
    rec = run_racah_table(fast_cfg, "recurrence")
    dr = run_racah_table(fast_cfg, "double-ratio")
    assert series.shape == rec.shape == dr.shape == (3, 3)
    scale = 1e-8 * np.maximum(1, np.abs(series))
    assert np.all(np.abs(series - rec) < scale)
    assert np.all(np.abs(series - dr) < scale)
    # first row is exactly one
    assert np.all(series[0] == 1.0)


def test_racah_unknown_route_rejected(fast_cfg):
    with pytest.raises(ConfigError, match="route"):
        run_racah_table(fast_cfg, "bisection")


def _overflow_config():
    # the shipped couplings with b at binary64's floor: the series table
    # leaves binary64's range, an eigenvector of the recurrence route has a
    # zero in row 0, and the double ratios meet a vanishing scalar product
    data = _base_config()
    c_star = 1e-300 * complex(*data["c"]) / complex(*data["b_star"])
    data["b"], data["c_star"] = [1e-300, 0.0], [c_star.real, c_star.imag]
    return data


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_racah_refuses_a_table_past_binary64(fmt, tmp_path, capsys):
    # the first non-finite entry in row-major order, found by a scalar loop
    data = _overflow_config()
    data["output"]["format"] = fmt
    path = _write(tmp_path, data)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        R = racah_matrix(load_config(path).params)
        first = next((M, N) for M in range(len(R)) for N in range(len(R))
                     if not np.isfinite(R[M, N]))
        assert main(["racah", path, "--route", "series"]) == 1
        assert capsys.readouterr() == (
            "", f"numerical failure: ValueError: racah series: non-finite table entry "
                f"at (M, N) = {first}\n")
        real = build(load_config(path).params, GAUGE_THETA)
        right = eigen_family(real.Astar_mat, real.spectrum.theta_star).right
        zero = next(N for N in range(len(right)) if right[0, N] == 0)
        assert main(["racah", path, "--route", "recurrence"]) == 1
        assert capsys.readouterr() == (
            "", f"numerical failure: ValueError: racah_by_recurrence: vanishing row-0 entry "
                f"at N = {zero}\n")
        # verify reads the same refusal as a null recurrence table
        assert main(["verify", path]) == 1
        out = capsys.readouterr().out
        rep = _strict_json(out)
        assert out == _dumps(rep)
        check = next(c for c in rep["checks"] if c["name"] == "racah_series_vs_recurrence")
        assert (check["residual"], check["pass"]) == (None, False)
        assert all(r["recurrence_residual"] is None for r in rep["racah"])
        assert main(["racah", path, "--route", "double-ratio"]) == 1
        out, err = capsys.readouterr()
    assert out == ""
    assert "vanishing scalar product in denominator at (M, N) = (0, 1)" in err


def _strict_json(text):
    """``json.loads`` that refuses NaN, Infinity and -Infinity."""
    def refuse(word):
        raise ValueError(f"not strict JSON: {word}")
    return json.loads(text, parse_constant=refuse)


def _past_binary64_config():
    # the shipped couplings at two_s 8 with b at 1e40: the series table and
    # its recurrence copy leave binary64's range
    data = _base_config()
    c_star = 1e40 * complex(*data["c"]) / complex(*data["b_star"])
    data["b"], data["c_star"], data["two_s"] = [1e40, 0.0], [c_star.real, c_star.imag], 8
    return data


def test_verify_writes_a_table_past_binary64_as_null(tmp_path, capsys):
    # the report holds null where the tables past binary64's range would
    # print.  Pinv leaves it too, so its eigenvector check is null and failed
    path = _write(tmp_path, _past_binary64_config())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        R = racah_matrix(load_config(path).params)
        assert main(["verify", path]) == 1
    assert not np.isfinite(R).all()
    out = capsys.readouterr().out
    rep = _strict_json(out)
    assert out == _dumps(rep)
    assert len(rep["racah"]) == 81
    assert all(r["series"] is None and r["recurrence_residual"] is None for r in rep["racah"])
    checks = {c["name"]: c for c in rep["checks"]}
    for name in ("racah_series_vs_recurrence", "racah_series_vs_rac1", "racah_series_vs_rac2",
                 "pinv_columns_eigenvectors"):
        assert checks[name]["residual"] is None and not checks[name]["pass"]
    assert len(rep["bethe"]) == 6 * 9


# each table run_verify reads: the checks and the racah report columns that read it
_SERIES_CHECKS = {"recurrence", "q_difference", "orthogonality_rows", "orthogonality_columns",
                  "racah_first_row_col", "racah_series_vs_recurrence", "racah_series_vs_rac1",
                  "racah_series_vs_rac2"}
_TABLE_READERS = {
    "eigen_family": ({"eigenvector_residual_A", "racah_series_vs_rac1", "racah_series_vs_rac2"},
                     {"double_ratio"}),
    "P": ({"pinv_p_identity", "p_pinv_identity"}, set()),
    "Pinv": ({"pinv_p_identity", "p_pinv_identity", "pinv_columns_eigenvectors"}, set()),
    "R": (_SERIES_CHECKS, {"series", "recurrence_residual"}),
    "_recurrence_table": ({"racah_series_vs_recurrence"}, {"recurrence_residual"}),
    "rac1": ({"racah_series_vs_rac1"}, {"double_ratio"}),
    "rac2": ({"racah_series_vs_rac2"}, set()),
}


@pytest.fixture(scope="module")
def shipped_report():
    return run_verify(load_config(SHIPPED_CONFIG))


def _with_entry(table, value):
    """A copy of ``table`` holding ``value`` at (0, 1), in the first row,
    which every check of the series table reads."""
    out = np.array(table, dtype=complex)
    out[0, 1] = value
    return out


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("table", list(_TABLE_READERS))
def test_verify_reads_a_non_finite_table_as_refused(table, value, shipped_report, monkeypatch):
    # one non-finite entry in one table fails every check that reads it with
    # a null residual and nulls its report columns; nothing else moves
    import dataclasses

    import qracah.leonard as leonard
    import qracah.transition as transition

    def patch(module, name, transform):  # transform(value returned, *call arguments)
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: transform(original(*args), *args))

    if table == "eigen_family":
        patch(leonard, table, lambda fam, *_: dataclasses.replace(
            fam, right=_with_entry(fam.right, value)))
    elif table in ("P", "Pinv", "R"):
        patch(transition, "build_transition", lambda td, _: dataclasses.replace(
            td, **{table: _with_entry(getattr(td, table), value)}))
    elif table == "_recurrence_table":
        patch(transition, table, lambda R, *_: _with_entry(R, value))
    else:
        patch(transition, "racah_from_scalar_products",
              lambda R, *args: _with_entry(R, value) if args[-1] == table else R)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = run_verify(load_config(SHIPPED_CONFIG))
    checks, columns = _TABLE_READERS[table]
    assert rep["pass"] is False
    for got, before in zip(rep["checks"], shipped_report["checks"], strict=True):
        name = got["name"]
        assert got == ({**before, "residual": None, "pass": False} if name in checks
                       else before), name
    for got, before in zip(rep["racah"], shipped_report["racah"], strict=True):
        assert got == {**before, **dict.fromkeys(columns)}
    assert rep["bethe"] == shipped_report["bethe"]


@pytest.mark.parametrize("route, name", [("series", "racah_matrix"),
                                         ("recurrence", "racah_by_recurrence"),
                                         ("double-ratio", "racah_from_scalar_products")])
def test_every_racah_route_refuses_a_non_finite_table(route, name, tmp_path, monkeypatch,
                                                      capsys):
    import qracah.transition as transition

    R = np.ones((3, 3), dtype=complex)
    R[1, 2], R[2, 0] = complex(np.inf, 0.0), complex(np.nan, 1.0)
    monkeypatch.setattr(transition, name, lambda *args: R)
    path = _write(tmp_path, _base_config())
    assert main(["racah", path, "--route", route]) == 1
    assert capsys.readouterr() == (
        "", f"numerical failure: ValueError: racah {route}: non-finite table entry "
            f"at (M, N) = (1, 2)\n")


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
    # a path in a missing directory, and an empty path
    data = _base_config()
    for path, message in ((str(tmp_path / "missing" / "out.json"), "cannot write output.path: "),
                          ("", "output.path must be a non-empty string")):
        data["output"] = {"format": "json", "path": path}
        cfgfile = _write(tmp_path, data)
        assert main([args[0], cfgfile, *args[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: {message}")


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
        # one call per side: A's couplings are those of the dual pair
        p = load_config(path).params
        assert sorted(calls["_diagonals"], key=repr) == sorted([(p,), (_dual(p),)], key=repr)
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
# the check-power map: which report checks catch one wrong statement


def _failing(rep):
    return {c["name"] for c in rep["checks"] if not c["pass"]}


@pytest.fixture(scope="module")
def map_draws():
    """draw_many(n, 4, 300 + n) at two_s 1-4 and 8: each draw, its config
    and the checks its unmutated report fails."""
    out = []
    for n in (1, 2, 3, 4, 8):
        for p in draw_many(n, 4, 300 + n):
            cfg = parse_config(_draw_config(p))
            out.append((p, cfg, _failing(run_verify(cfg))))
    return out


def _diagonals_mutant(side, entry):
    """Entry (M, M-1), (M, M) or (M-1, M) of A (side "A", the couplings of
    the dual pair in the theta_star gauge) or of A* (side "Astar", the theta
    gauge) at the middle M = (two_s + 1) // 2."""
    def transform(lists, e, draw, pair):
        if (pair == draw) == (side == "Astar"):
            lists[entry][(pair.two_s + 1) // 2] *= 1 + e
        return lists
    return leonard, "_diagonals", transform


def _tq_mutant(kind, coeff):
    """Coefficient A (0) or T (3) of one kind's _tq_table rows."""
    def transform(table, e, draw, kinds, *_):
        table = table.copy()
        table[coeff, np.asarray(kinds) == KINDS.index(kind)] *= 1 + e
        return table
    return bethe, "_tq_table", transform


def _last_times(k, e, *_):
    """The last entry of a normalization sequence, k_seq's and k_seq_dual's."""
    k = k.copy()
    k[-1] *= 1 + e
    return k


# statement -> (module, function, transform): transform(value, e, draw, *args)
# is the function's value on args with the statement times 1 + e
_MUTANTS = {
    **{f"diagonals_{side}_{name}": _diagonals_mutant(side, entry)
       for side in ("A", "Astar") for entry, name in enumerate(("sub", "diag", "sup"))},
    "k_sequence_last": (transition, "_k_sequence", _last_times),
    "series_row_M": (transition, "racah_matrix",
                     lambda R, e, draw, _: R * (1 + e * np.arange(draw.dim))[:, None]),
    "closed_form_eigenvalues": (bethe, "_closed_form_eigenvalues",
                                lambda lam, e, *_: lam * (1 + e)),
    **{f"tq_{kind}_{name}": _tq_mutant(kind, coeff)
       for kind in ("hom_minus", "inhom_plus") for coeff, name in ((0, "A"), (3, "T"))},
}

_EIG_A = {"eigenvector_residual_A", "pinv_columns_eigenvectors"}
_AW1 = {"aw1", "q_difference"}
_RAC = {"racah_series_vs_rac1", "racah_series_vs_rac2"}
_REC = {"recurrence", "racah_series_vs_recurrence"}
_INV = {"pinv_p_identity", "p_pinv_identity"}
_ORTH = {"orthogonality_rows", "orthogonality_columns"}
_SERIES = _RAC | _REC | _ORTH | {"racah_first_row_col"}
_INHOM = {f"bethe_coverage_{kind}" for kind in KINDS[2:]}
_A_OFF_DIAGONAL = {1: _EIG_A | _AW1 | _RAC, 2: _EIG_A | _AW1, 3: _EIG_A | _AW1 | _RAC,
                   4: _EIG_A | _RAC, 8: _EIG_A | _AW1 | _RAC}
_ASTAR = {1: _REC, 2: {"recurrence"}, 3: _REC, 8: _REC}
_HOM_MINUS = dict.fromkeys((1, 2, 3, 4, 8), {"bethe_coverage_hom_minus"})

# (statement, e) -> {two_s: the checks that catch it on every draw of that
# size}; a pair or size not listed has no check that catches it on every draw
_MAP = {
    ("diagonals_A_sub", 1e-6): _A_OFF_DIAGONAL,
    ("diagonals_A_diag", 1e-6): {1: _EIG_A | _AW1 | _RAC | {"aw2"}, 2: _EIG_A | _AW1,
                                 3: _EIG_A | _AW1 | _RAC | {"aw2"}, 4: _EIG_A | _AW1 | _RAC,
                                 8: _EIG_A | _AW1 | _RAC | {"aw2"}},
    ("diagonals_A_sup", 1e-6): _A_OFF_DIAGONAL,
    ("diagonals_Astar_sub", 1e-6): _ASTAR,
    ("diagonals_Astar_diag", 1e-6): _ASTAR,
    ("diagonals_Astar_sup", 1e-6): {1: _REC, 2: _REC, 3: {"recurrence"},
                                    4: {"racah_series_vs_recurrence"}, 8: _REC},
    ("k_sequence_last", 1e-6): {**dict.fromkeys((1, 2, 3, 4), _INV | _ORTH), 8: _ORTH},
    ("series_row_M", 1e-6): {**dict.fromkeys((1, 2, 3, 4), _SERIES | _INV), 8: _SERIES},
    ("closed_form_eigenvalues", 1e-6): {1: {"bethe_coverage_dual_inhom_plus"}, 3: _INHOM,
                                        4: _INHOM, 8: {"bethe_coverage_inhom_plus"}},
    ("tq_hom_minus_A", 1e-6): _HOM_MINUS,
    ("tq_hom_minus_T", 1e-6): _HOM_MINUS,
    ("tq_inhom_plus_A", 1e-6): {8: {"bethe_coverage_inhom_plus"}},
    ("tq_inhom_plus_T", 1e-6): {8: {"bethe_coverage_inhom_plus"}},
    ("series_row_M", 1e-9): {**dict.fromkeys((1, 2, 3, 4), {"racah_first_row_col"}),
                             8: _ORTH | {"racah_first_row_col"}},
}

# the inhomogeneous TQ rows decide no verdict below two_s 8 (ROADMAP item
# 31(c)): (statement, e) -> the draws, of 20, on which any check catches it
_UNGUARDED = {("tq_inhom_plus_A", 1e-6): 4, ("tq_inhom_plus_T", 1e-6): 4,
              ("tq_inhom_plus_A", 1e-9): 3, ("tq_inhom_plus_T", 1e-9): 3}


@pytest.mark.parametrize("e", [1e-6, 1e-9])
@pytest.mark.parametrize("statement", list(_MUTANTS))
def test_check_power_map(statement, e, map_draws, monkeypatch):
    # one statement times 1 + e in process, on each draw; the report checks
    # that newly fail are compared with the map.  Where a Cayley-Hamilton
    # product of the mutated pair reaches identity_tol (A in the theta_star
    # gauge, A* in the theta gauge, where each is tridiagonal), a report
    # check catches the mutant too: the evidence that verify needs neither
    # product.  A* in the theta_star gauge is diag(theta*), whose product is 0.
    module, name, transform = _MUTANTS[statement]
    original = getattr(module, name)
    caught, reached = {}, 0
    for p, cfg, before in map_draws:
        monkeypatch.setattr(module, name,
                            lambda *args, p=p: transform(original(*args), e, p, *args))
        new = _failing(run_verify(cfg)) - before
        product_A, product_Astar_diagonal = verify_cayley_hamilton(build(p))
        _, product_Astar = verify_cayley_hamilton(build(p, GAUGE_THETA))
        assert product_Astar_diagonal == 0.0
        if max(product_A, product_Astar) >= cfg.identity_tol:
            assert new, (p.two_s, product_A, product_Astar)
            reached += 1
        caught.setdefault(p.two_s, []).append(new)
    every = {n: set.intersection(*found) for n, found in caught.items()}
    assert {n: found for n, found in every.items() if found} == _MAP.get((statement, e), {})
    if statement.startswith("diagonals") and e == 1e-6:
        assert reached  # the products see these mutants on some draws
    if statement.startswith("tq_inhom"):
        assert sum(map(bool, sum(caught.values(), []))) == _UNGUARDED[statement, e]


# ---------------------------------------------------------------------------
# the report writers: bytes equal json.dumps(indent=2)


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


def _rows_of(R):
    """The rows of a racah table, one entry at a time, as the report lists them."""
    return [{"M": M, "N": N, "value": [float(R[M, N].real), float(R[M, N].imag)]}
            for M in range(R.shape[0]) for N in range(R.shape[1])]


@pytest.mark.parametrize("two_s", [None, 1, 2, 8, 16, 32])
def test_racah_json_bytes_equal_json_dumps(two_s, tmp_path, monkeypatch, capsys):
    if two_s is None:  # the shipped config
        path, two_s = SHIPPED_CONFIG, 2
    else:
        path = _write(tmp_path, _draw_config(draw_many(two_s, 1, 9100 + two_s)[0]))
    refused = 0
    for route in ("series", "recurrence", "double-ratio"):
        rc, out, R = _main_recorded(
            monkeypatch, capsys, "run_racah_table", ["racah", path, "--route", route])
        if R is None:  # the double ratios meet a vanishing scalar product
            assert (route, rc, out) == ("double-ratio", 1, "")
            refused += 1
            continue
        assert rc == 0
        assert R.shape == (two_s + 1, two_s + 1)
        assert out == _dumps(_rows_of(R))
        # the CSV writer fills the same columns into its own row layout
        assert cli._racah_csv(R) == _racah_csv_by_rows(_rows_of(R))
    # these draws refuse from two_s 16 on
    assert refused == (two_s >= 16)


# (two_s, count, seed, index) of draw_many draws; None is the shipped config.
# The last two are a draw whose pinv identities fail at binary64's precision
# limit, and the draw on which the rac1 route refuses.
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
    # bethe and spectrum go through the same writer
    level = str(report["instance"]["two_s"])
    for runner, argv in (*(("run_bethe", ["bethe", path, "--kind", kind, "--level", level])
                           for kind in ("hom_plus", "hom_minus")),
                         ("run_spectrum", ["spectrum", path])):
        rc, out, returned = _main_recorded(monkeypatch, capsys, runner, argv)
        assert rc == 0
        assert out == _dumps(returned)


# every finite float repr format switch: signed zero, subnormal, the exponent
# form from 1e16 up and below 1e-4, and the fixed form between
_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 9999999999999998.0, 1e-5, 1e-4,
                0.1, 1.0, -1.5, 123456.789, 1.7976931348623157e308, 2.2250738585072014e-308]
# strict JSON has no words for these, so every writer refuses them
_NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def _edge_table():
    """A 5 x 6 table that holds every edge float as a real and as an imaginary part."""
    vals = _EDGE_FLOATS + _EDGE_FLOATS[::-1]
    R = np.empty((5, 6), dtype=complex)
    R.real = np.reshape(vals, (5, 6))
    R.imag = np.reshape(vals[::-1], (5, 6))
    return R


def _with_non_finite_entries(R):
    """Copies of ``R`` with one entry's real or imaginary part NaN or infinite."""
    for x in _NON_FINITE:
        for entry in (complex(x, 0.0), complex(0.0, x)):
            bad = R.copy()
            bad[-1, 2] = entry
            yield bad


def test_racah_json_of_edge_floats_equals_json_dumps():
    R = _edge_table()
    assert cli._racah_json(R) == _dumps(_rows_of(R))
    assert cli._racah_json(R[:1, :1]) == _dumps(_rows_of(R[:1, :1]))
    for bad in _with_non_finite_entries(R):
        with pytest.raises(ValueError, match="non-finite"):
            cli._racah_json(bad)


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
        # a % in a key, as in a string value, is no format directive
        "100%s": 1.5,
        "a%": [1.0, "b%"],
    }
    assert cli._verify_json(report) == _dumps(report)
    no_rows = {**report, "bethe": [], "instance": {}}
    assert cli._verify_json(no_rows) == _dumps(no_rows)
    # the reports of bethe, without rows and with edge floats, and of spectrum
    bethe_report = [{"kind": "hom_plus", "level": k, "roots": pairs[k:k + 3],
                     "symmetrized": pairs[-1 - k:], "residual": vals[k],
                     "eigenvalue": pairs[k], "matched_index": k, "match_error": vals[-1 - k]}
                    for k in range(len(vals))]
    for other in ([], bethe_report, {"theta": pairs, "theta_star": pairs[::-1]}):
        assert cli._verify_json(other) == _dumps(other)
    numpy_row = {**bethe_rows[1], "residual": np.float64(0.5)}
    with pytest.raises(ValueError, match="not a Python number"):
        cli._verify_json({**report, "bethe": bethe_rows + [numpy_row]})
    for x in _NON_FINITE:
        for bad in ({**report, "racah": racah_rows + [{**racah_rows[0], "series": [0.5, x]}]},
                    {**report, "checks": report["checks"] + [{"name": "a", "residual": x}]},
                    bethe_report + [{**bethe_report[0], "match_error": x}],
                    {"theta": pairs + [[x, 0.0]], "theta_star": pairs}):
            with pytest.raises(ValueError, match="non-finite"):
                cli._verify_json(bad)


def _racah_csv_by_rows(rows):
    """The CSV writer of specs up to 3.0: one f-string per row."""
    lines = ["M,N,re,im"]
    for r in rows:
        re_, im_ = r["value"]
        lines.append(f"{r['M']},{r['N']},{re_!r},{im_!r}")
    return "\n".join(lines) + "\n"


def test_racah_csv_equals_the_row_by_row_writer(fast_cfg):
    R = _edge_table()
    assert cli._racah_csv(R) == _racah_csv_by_rows(_rows_of(R))
    for bad in _with_non_finite_entries(R):
        with pytest.raises(ValueError, match="non-finite"):
            cli._racah_csv(bad)
    for route in ("series", "recurrence", "double-ratio"):
        R = run_racah_table(fast_cfg, route)
        assert cli._racah_csv(R) == _racah_csv_by_rows(_rows_of(R))


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


# ---------------------------------------------------------------------------
# seeded fuzz: every run ends in strict JSON or a refusal


# 0-based draws whose up-couplings are small (|sup| 1.8e-40 to 4.1e-13) but
# not degenerate, each with the exit code of ``racah --route recurrence``: at
# two_s 32 (E = 100, draw 7) the eigen family refuses
_SMALL_UP_COUPLING = {(20, 3): 0, (20, 26): 0, (100, 2): 0, (100, 7): 1, (100, 19): 0,
                      (100, 26): 0, (100, 32): 0}


@pytest.mark.parametrize("E", [6, 20, 100])
def test_every_run_ends_in_strict_json_or_a_refusal(E, tmp_path, capsys):
    # a report, a numerical failure line, or a config or genericity refusal;
    # at E = 100 verify once printed NaN for a series table past binary64
    rng = np.random.default_rng(2200 + E)
    endings = set()
    for i in range(40):
        data = fuzz_config(rng, E)
        path = _write(tmp_path, data, f"fuzz{i}.json")
        commands = [["racah", path, "--route", r]
                    for r in ("series", "recurrence", "double-ratio")]
        commands += [["bethe", path, "--kind", "hom_minus", "--level", str(min(2, data["two_s"]))],
                     ["spectrum", path]]
        small = (E, i) in _SMALL_UP_COUPLING
        commands += [["verify", path]] if data["two_s"] <= 8 or small else []
        for argv in commands:
            # every command runs in one numpy error state, so the warning
            # filter is no input: both filters give the same exit code and output
            runs = []
            for action in ("ignore", "error"):
                with warnings.catch_warnings():
                    warnings.simplefilter(action)
                    runs.append((main(argv), *capsys.readouterr()))
            assert runs.count(runs[0]) == len(runs), (argv, data)
            rc, out, err = runs[0]
            if small and argv[0] == "verify":  # a report, with at least one check failed
                assert rc == 1 and out, (E, i, err)
            if small and argv[-1] == "recurrence":
                assert rc == _SMALL_UP_COUPLING[E, i] and bool(out) == (rc == 0), (E, i, err)
            if out:
                assert rc in (0, 1), (argv, data)
                report = _strict_json(out)
                endings.add("report")
                if argv[0] == "verify":  # a non-finite Pinv is no eigenvector check's pass
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        finite = np.isfinite(build_transition(load_config(path).params).Pinv).all()
                    check = next(c for c in report["checks"]
                                 if c["name"] == "pinv_columns_eigenvectors")
                    assert finite or (check["residual"], check["pass"]) == (None, False), data
            elif rc == 1:
                assert err.startswith("numerical failure: ") and err.count("\n") == 1, (argv, data)
                endings.add("failure")
            else:
                assert rc == 2, (argv, data, rc, err)
                endings.add("refusal")
    assert "report" in endings


def test_recurrence_refusal_at_two_s_32_warns_nothing(tmp_path):
    # E = 100, draw 7 (two_s 32): the family's sub*sup products overflow, and
    # with warnings as errors the route still exits 1 with the family's own
    # refusal, not with numpy's warning about the product.  The same holds
    # for the tables past binary64's range at b = 1e-300 and b = 1e40, whose
    # series products and recurrence quotients overflow.  At b = 1e40 entry
    # (8, 7) is finite (3.7e273 + 7.8e273j, as the mpmath reference has it),
    # and (8, 8), past binary64, is the first that is not
    rng = np.random.default_rng(2300)
    for _ in range(8):
        data = fuzz_config(rng, 100)
    runs = [(data, "recurrence", "eigen_family: shifted solve failed to produce a vector"),
            (_overflow_config(), "series",
             "racah series: non-finite table entry at (M, N) = (2, 2)"),
            (_past_binary64_config(), "series",
             "racah series: non-finite table entry at (M, N) = (8, 8)"),
            (_past_binary64_config(), "recurrence",
             "racah recurrence: non-finite table entry at (M, N) = (1, 8)")]
    for i, (data, route, refusal) in enumerate(runs):
        path = _write(tmp_path, data, f"cfg{i}.json")
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "qracah", "racah", path, "--route", route],
            capture_output=True, text=True, cwd=tmp_path, env=cli_env(), timeout=600)
        assert (proc.returncode, proc.stdout) == (1, ""), route
        assert proc.stderr == f"numerical failure: ValueError: {refusal}\n"


def test_verify_at_two_s_16_writes_the_same_report_with_warnings_as_errors(tmp_path):
    # two fuzz draws at two_s 16.  E = 20, draw 24: a Newton step's
    # finite-difference Jacobian takes inf - inf inside solve's error state.
    # E = 100, draw 38: verify_aw's right-hand side overflows inside
    # run_verify's.  Warnings as errors change neither the report nor the
    # exit code, and nothing is printed
    for E, draw in ((20, 24), (100, 38)):
        rng = np.random.default_rng(2200 + E)
        for _ in range(draw + 1):
            data = fuzz_config(rng, E)
        assert data["two_s"] == 16
        path = _write(tmp_path, data, f"fuzz_e{E}_draw{draw}.json")
        default, strict = (subprocess.run([sys.executable, *flags, "-m", "qracah", "verify", path],
                                          capture_output=True, cwd=tmp_path, env=cli_env(),
                                          timeout=600)
                           for flags in ([], ["-W", "error"]))
        assert default.returncode == 1 and default.stdout, E
        assert (strict.returncode, strict.stdout) == (default.returncode, default.stdout), E
        assert strict.stderr == default.stderr == b"", (E, default.stderr[:200])


# ---------------------------------------------------------------------------
# reference copy: the report layout as it was written before each object
# key's text was read from a per-key cache


def _ref_json_text(value, pad, put):
    t = type(value)
    if t is float or t is int:
        put(value)
        return "%s"
    if t is list or t is dict:
        ends, inner = "[]" if t is list else "{}", pad + "  "
        if not value:
            return ends
        pair, items = f"[\n{inner}  %s,\n{inner}  %s\n{inner}]", []
        for v in value if t is list else value.values():
            tv = type(v)
            if tv is float or tv is int:
                put(v)
                items.append("%s")
            elif tv is list and len(v) == 2 and type(v[0]) is float and type(v[1]) is float:
                put(v[0])
                put(v[1])
                items.append(pair)
            else:
                items.append(_ref_json_text(v, inner, put))
        if t is dict:
            items = [f"{json.encoder.encode_basestring_ascii(k).replace('%', '%%')}: {item}"
                     for k, item in zip(value, items)]
        return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{ends[1]}"
    if t is str:
        return json.encoder.encode_basestring_ascii(value).replace("%", "%%")
    if value is None or t is bool:
        return "null" if value is None else "true" if value else "false"
    raise ValueError(f"report holds a value that is not a Python number: {value!r}")


def _layout(writer, obj):
    numbers = []
    return writer(obj, "", numbers.append), numbers


def test_json_text_equals_its_reference_copy():
    # string equality of the layout and of the numbers it hands out, on the
    # verify reports of draws at two_s 1-12 and of the fuzz configs up to
    # two_s 8, and on keys that need escaping
    cfgs = [load_config(SHIPPED_CONFIG)]
    cfgs += [cli.RunConfig(p, cfgs[0].identity_tol, cfgs[0].solver, "json", None)
             for n in range(1, 13) for p in draw_many(n, 1, 9300 + n)]
    cfgs += [cli.RunConfig(p, cfgs[0].identity_tol, cfgs[0].solver, "json", None)
             for p in fuzz_params() if p.two_s <= 8]
    reports = [{"a%s": [1.0, 2.0], "\u00e9\"\\": {"": [], "%%": {}}, "n": [None, True, "x%"]}]
    with warnings.catch_warnings():  # the fuzz couplings overflow as they are built
        warnings.simplefilter("ignore")
        for cfg in cfgs:
            try:
                reports.append(run_verify(cfg))
            except ValueError:  # a genericity refusal or a numerical failure
                pass
    assert len(reports) > 60
    for report in reports:
        assert _layout(cli._json_text, report) == _layout(_ref_json_text, report)
