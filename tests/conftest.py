"""Shared helpers: seeded generic parameter draws used across the suite, the
benchmark's mpmath reference, and the environment for running the CLI in a
child process."""

import importlib.util
import os
from pathlib import Path

import numpy as np

import qracah
from qracah.model import ModelParams, validate_genericity
from qracah.qnum import QBase


def _unit_phase(rng):
    phi = rng.uniform(0.0, 2.0 * np.pi)
    return complex(np.cos(phi), np.sin(phi))


def draw_params(two_s, rng, margin=1e-2, qmod=(1.06, 1.22)):
    """One generic parameter draw; rejection-sampled against the genericity
    screen with a safety margin so downstream denominators stay bounded."""
    for _ in range(200):
        q = float(np.exp(rng.uniform(np.log(qmod[0]), np.log(qmod[1])))) * _unit_phase(rng)
        b = float(np.exp(rng.uniform(np.log(0.6), np.log(1.6)))) * _unit_phase(rng)
        c = float(np.exp(rng.uniform(np.log(0.6), np.log(1.6)))) * _unit_phase(rng)
        b_star = float(np.exp(rng.uniform(np.log(0.6), np.log(1.6)))) * _unit_phase(rng)
        zeta = float(np.exp(rng.uniform(np.log(0.7), np.log(1.4)))) * _unit_phase(rng)
        p = ModelParams(
            base=QBase(q),
            two_s=two_s,
            b=b,
            c=c,
            b_star=b_star,
            c_star=b * c / b_star,
            zeta=zeta,
        )
        if not validate_genericity(p, tol=margin):
            return p
    raise RuntimeError("draw_params: no generic draw found in 200 attempts")


def draw_many(two_s, n, seed, **kw):
    rng = np.random.default_rng(seed)
    return [draw_params(two_s, rng, **kw) for _ in range(n)]


def fuzz_config(rng, E):
    """Couplings log-uniform in [10^-E, 10^E], |q| in [1.02, 1.3], |zeta| in
    [0.01, 100], random phases, and c_star solving the coupling constraint:
    a config dict."""
    def draw(lo, hi):
        z = np.exp(rng.uniform(np.log(lo), np.log(hi)) + 1j * rng.uniform(0.0, 2.0 * np.pi))
        return complex(z)

    b, c, b_star = (draw(10.0 ** -E, 10.0 ** E) for _ in range(3))
    pairs = {"q": draw(1.02, 1.3), "b": b, "c": c, "b_star": b_star, "c_star": b * c / b_star,
             "zeta": draw(0.01, 100.0)}
    two_s = int(rng.choice([1, 2, 4, 8, 16, 32]))
    return {**{k: [z.real, z.imag] for k, z in pairs.items()}, "two_s": two_s}


def fuzz_params():
    """The parameter sets of the seeded fuzz configs, 40 each at E = 6, 20
    and 100 (seeds 2206, 2220 and 2300), that the config reader accepts."""
    from qracah.cli import ConfigError, parse_config

    out = []
    for E in (6, 20, 100):
        rng = np.random.default_rng(2200 + E)
        for _ in range(40):
            try:
                out.append(parse_config(fuzz_config(rng, E)).params)
            except ConfigError:
                pass
    return out


def bench_reference():
    """The benchmark's adaptive-precision mpmath table, imported by path."""
    path = Path(__file__).resolve().parent.parent / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("qracah_bench_reference", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def cli_env():
    """Environment for a `python -m qracah` child process.

    PYTHONPATH starts with the absolute directory holding the imported
    `qracah` package, so the child finds the same package from any working
    directory, installed or not; existing entries follow it."""
    env = dict(os.environ)
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(qracah.__file__)))
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = pkg_root + (os.pathsep + rest if rest else "")
    return env
