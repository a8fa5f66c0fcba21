"""The package's distribution tails against scipy and closed forms: its
Poisson `scipy.special` calls equal, bit for bit, the `scipy.stats` calls they
replace; its own Student-t, normal and chi-square tails match `scipy.stats`
within the tolerance stated in each test; its Lambert W0 matches
`scipy.special.lambertw`.  A CLI process loads scipy only when it computes a
Poisson tail (`fail-dist`), OpenSSL's `_hashlib` and the thread pool only when
it makes ensemble members, and builds the velocity writer's digit table only
when it writes velocities.

`scipy.stats` is the reference here only: each Poisson method below is a
wrapper over the ufunc the package calls directly.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import stats
from scipy.special import lambertw, pdtr, pdtrc

import stormrisk
from stormrisk import (
    County,
    CountySet,
    OutageObservation,
    default_n_max,
    save_county_fixture,
    save_observations,
)
from stormrisk import fitting
from stormrisk.cli import DEFAULT_CONFIG, config_hash
from stormrisk.fitting import LinearFit, chi2_sf, t_sf2
from stormrisk.wind import _lambert_w0

# Poisson means from 1e-9 to 1e4: log-uniform, plus hypothesis's own floats
# (which favour the ends of the range).
MU = st.one_of(
    st.floats(-9.0, 4.0).map(lambda e: 10.0**e),
    st.floats(1e-9, 1e4),
)
COUNT = st.integers(0, 20_000)
# |t|, |z| and the LR statistic are >= 0 and may be infinite.
NONNEG = st.floats(0.0, allow_infinity=True)


def same(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@given(COUNT, MU)
def test_poisson_sf(k, mu):
    assert same(pdtrc(k, mu), stats.poisson.sf(k, mu))


@given(COUNT, MU)
def test_poisson_cdf(k, mu):
    assert same(pdtr(k, mu), stats.poisson.cdf(k, mu))


@given(MU)
def test_default_n_max(mu):
    assert default_n_max(mu) == int(stats.poisson.ppf(1.0 - 1e-9, mu))


def close(got, ref, rtol) -> bool:
    """`got` within `rtol` relative of `ref`, where `ref` >= 1e-300; below
    that, both are below 1e-299 (a reference may round to 0 there)."""
    if ref >= 1e-300:
        return abs(got - ref) <= rtol * ref
    return got < 1e-299 and ref < 1e-299


# The tails' tolerance, relative: 1e-12.  At dof = 1 `scipy.stats.t` itself is
# off near t = 0 (by 3.0e-11 at t = 1.39e-6 and 4.7e-9 at t = 7.4e-9), so
# dof 1 and 2 are checked against their closed forms instead.
TAIL_RTOL = 1e-12


@given(NONNEG, st.integers(2, 10_000))
@example(np.inf, 3)
@example(2.0937252715636730, 10_000)  # where the Numerical Recipes 6.4 fraction missed by 1.05e-12
def test_t_sf(t, dof):
    assert close(t_sf2(t, dof), 2.0 * stats.t.sf(t, dof), TAIL_RTOL)


@given(NONNEG)
@example(1.39e-6)
@example(np.inf)
def test_t_sf_one_dof_is_cauchy(t):
    assert close(t_sf2(t, 1), 2.0 / math.pi * math.atan2(1.0, t), TAIL_RTOL)


@given(st.floats(0.0, 1e150))  # t * t stays finite in the closed form
@example(1.39e-6)
def test_t_sf_two_dof_closed_form(t):
    s = math.sqrt(2.0 + t * t)
    assert close(t_sf2(t, 2), 2.0 / (s * (s + t)), TAIL_RTOL)


def _t_sf2_per_call(t: float, dof: int) -> float:
    """`t_sf2` as it was when every call built 1/B(dof/2, 1/2) itself."""
    t2 = t * t
    if not t2 > 0.0:
        return math.nan if math.isnan(t2) else 1.0
    a, x, y = dof / 2.0, 1.0 / (1.0 + t2 / dof), 1.0 / (1.0 + dof / t2)
    log_x = -math.log1p(t2 / dof) if t2 < math.inf else math.log(dof) - 2.0 * math.log(abs(t))
    inv_beta = math.prod(((k + 1) / k for k in range(2 - dof % 2, dof - 1, 2)), start=1 / math.pi if dof % 2 else 0.5)
    front = math.exp(a * log_x - 0.5 * math.log1p(dof / t2)) * inv_beta
    if x < (a + 1.0) / (a + 2.5):
        return front / fitting._beta_fraction(a, 0.5, x, y)
    return 1.0 - front / fitting._beta_fraction(0.5, a, y, x)


@given(st.floats(allow_nan=True, allow_infinity=True), st.integers(1, 100_000))
@example(2.0937252715636730, 10_000)
@example(3.0, 1_000_000)
@example(-np.inf, 1)
def test_t_sf_given_beta_factor_is_bit_identical(t, dof):
    ref = _t_sf2_per_call(t, dof)
    assert same(t_sf2(t, dof), ref)
    assert same(t_sf2(t, dof, fitting._inv_beta_half(dof)), ref)


def test_p_values_build_the_beta_factor_once(monkeypatch):
    # Thirteen coefficients at dof 10^6: one O(dof) product, not thirteen.
    dofs = []
    inv_beta_half = fitting._inv_beta_half
    monkeypatch.setattr(fitting, "_inv_beta_half", lambda dof: dofs.append(dof) or inv_beta_half(dof))
    fit = LinearFit(beta=np.zeros(13), se=np.ones(13), t=np.linspace(0.5, 6.5, 13), dof=10**6, rms=0.0, cond=1.0)
    p = fit.p_values
    assert dofs == [10**6]
    assert all(same(got, _t_sf2_per_call(t, fit.dof)) for got, t in zip(p, fit.t.tolist()))


@given(NONNEG)
@example(np.inf)
@example(1.4e154)  # z * z overflows
def test_norm_sf(z):
    # The two-sided normal tail as `glm` computes its Wald p-values: P(|Z| > z) = P(chi2_1 > z^2).
    assert close(chi2_sf(z * z, 1), 2.0 * stats.norm.sf(z), TAIL_RTOL)


@given(NONNEG, st.integers(1, 50))
@example(0.0, 1)
@example(0.0, 2)
@example(5e-324, 2)  # h = x/2 underflows to 0
@example(np.inf, 3)
def test_chi2_sf(lr, df):
    assert close(chi2_sf(lr, df), stats.chi2.sf(lr, df), TAIL_RTOL)


# The lower end of the window bound's W0 arguments, -((1 - 1e-8) Vhot/Vm)^2 / e
# with Vhot <= Vm: 1e-8 from the branch point at -1/e.
W0_LOW = -((1.0 - 1e-8) ** 2) / math.e


@given(st.floats(W0_LOW, 0.0, exclude_max=True))
@example(W0_LOW)
@example(np.nextafter(W0_LOW, 0.0))
@example(-0.99 / math.e)
@example(-1e-300)
@example(-5e-324)
def test_lambert_w0(z):
    expected = lambertw(z).real
    assert abs(_lambert_w0(z) - expected) <= 1e-10 * abs(expected)


def _fresh_python(code: str, *args: str, cwd=None) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports this checkout's package:
    this test process has already imported scipy."""
    src = str(Path(stormrisk.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd, capture_output=True, text=True)


# The optional modules a command may load: the package's own `scipy.special`
# (the Poisson tails) and member pool `concurrent.futures` (with `logging`,
# `queue` and `traceback`), and the `scipy`, OpenSSL `_hashlib` and `numpy.ma`
# that `scipy.special` or `numpy.random` (through `secrets`, `hmac` and
# `hashlib`) may load in turn.
OWN = ("scipy.special", "concurrent.futures")
MODULES = OWN + ("scipy", "_hashlib", "numpy.ma")
_LOADED = f"print(*(m for m in {MODULES!r} if m in sys.modules))"


def test_cli_import_loads_no_scipy():
    # Nor OpenSSL, the pool or numpy.ma: the config hash is CPython's own SHA-256.
    result = _fresh_python("import sys, stormrisk.cli\n" + _LOADED)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=8,
)


@given(st.dictionaries(st.text(), JSON))
def test_config_hash_is_sha256_of_canonical_json(config):
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    assert config_hash(config) == hashlib.sha256(canon.encode()).hexdigest()


def test_config_hash_falls_back_to_hashlib():
    # An interpreter built without `_sha2` and `_sha256` hashes through hashlib (OpenSSL), to the same digest.
    code = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from stormrisk.cli import DEFAULT_CONFIG, config_hash, sha256\n"
        "print(config_hash(DEFAULT_CONFIG), sha256.__module__)"
    )
    result = _fresh_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == [config_hash(DEFAULT_CONFIG), "_hashlib"]


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    """A 10 x 10 grid of 6 steps, 3 members, a 12-storm sweep, two counties
    and their observations."""
    d = tmp_path_factory.mktemp("tiny")
    counties = CountySet([County(name="near", cells=set(range(40, 60)), households=5000),
                          County(name="far", cells={0, 1, 2}, households=5000)])
    save_county_fixture(counties, d / "counties.csv")
    obs = [OutageObservation(county=c, time_h=t, outages=n, households=5000)
           for t in (0.0, 2.0, 4.5) for c, n in (("near", int(50 * (t + 1))), ("far", 2))]
    save_observations(obs, d / "obs.csv")
    config = {
        "grid": {"nx": 10, "ny": 10, "cell_size_km": 6.0, "origin_km": [-30.0, -30.0]},
        "times": {"n_steps": 6, "dt_h": 1.0},
        "track": {"x0_km": [0.0, -30.0], "vtr_mps": [0.0, 3.0]},
        "holland": {"Vm_mps": 37.0, "Rm_km": 30.0},
        "ensemble": {"H": 3},
        "sweep": {"Vm_min": 25, "Vm_max": 46, "Vm_step": 7, "Rm_min": 20, "Rm_max": 50, "Rm_step": 10},
        "counties_csv": str(d / "counties.csv"),
        "output_dir": str(d / "out"),
    }
    (d / "cfg.json").write_text(json.dumps(config))
    return d


# Each command, and which of the package's own optional modules it loads.
MEMBERS = ("concurrent.futures",)  # by `ensemble.SyntheticEnsemble.fields`, which makes the members
COMMANDS = [
    (["windfield"], ()),
    (["ensemble"], MEMBERS),
    (["failure-rates", "--which", "fr1"], MEMBERS),
    (["failure-rates", "--which", "fr2"], MEMBERS),
    (["critzone"], ()),
    (["tables123"], ()),
    (["sweep-fit", "--target", "critzone"], ()),
    (["sweep-fit", "--target", "damage"], ()),  # Student-t p-values, from `fitting`
    (["sweep-fit", "--target", "loss"], ()),
    (["fail-dist", "--cells", "0,55"], ("scipy.special",) + MEMBERS),  # the Poisson truncation point and tail
    (["outage-fit", "--obs", "obs.csv"], MEMBERS),  # normal and chi-square p-values, from `fitting`
]


@pytest.mark.parametrize("argv, loads", COMMANDS, ids=[" ".join(a) for a, _ in COMMANDS])
def test_scipy_special_loaded_only_for_tails(tiny_inputs, argv, loads):
    # Only `fail-dist` loads scipy; only the commands that make members load the pool.  What numpy and
    # scipy load in turn is theirs, so the other modules are checked only where neither is reached.
    code = "import sys\nfrom stormrisk.cli import main\nprint(main(sys.argv[1:]))\n" + _LOADED
    result = _fresh_python(code, *argv, "--config", "cfg.json", cwd=tiny_inputs)
    assert result.returncode == 0, result.stderr
    rc, *loaded = result.stdout.split()
    assert rc == "0"
    assert [m for m in loaded if m in OWN] == list(loads)
    if "scipy.special" not in loads:
        assert "scipy" not in loaded
    if not loads:  # no `numpy.random` member and no scipy: nothing may load OpenSSL or numpy.ma
        assert loaded == []


def test_digit_table_built_only_for_velocity_tables(tiny_inputs):
    # Every other command first, in one process, then one that writes velocities.
    code = (
        "import sys\n"
        "from stormrisk import csvio\n"
        "from stormrisk.cli import main\n"
        "for argv in map(str.split, sys.argv[1:]):\n"
        "    rc = main(argv + ['--config', 'cfg.json'])\n"
        "    print(argv[0], rc, csvio._quads.cache_info().currsize)\n"
    )
    others = [argv for argv, _ in COMMANDS if argv[0] not in ("windfield", "ensemble")]
    result = _fresh_python(code, *map(" ".join, others), "windfield", cwd=tiny_inputs)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [f"{argv[0]} 0 0" for argv in others] + ["windfield 0 1"]
