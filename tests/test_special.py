"""The `scipy.special` calls the package makes equal, bit for bit, the
`scipy.stats` calls they replace; its own Lambert W0 matches
`scipy.special.lambertw`; and a CLI process loads `scipy.special` only when
it computes a Student-t, normal, chi-square or Poisson tail (and builds the
velocity writer's digit table only when it writes velocities).

`scipy.stats` is the reference here only: each distribution method below is
a wrapper over the ufunc the package calls directly.
"""

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
from scipy.special import chdtrc, lambertw, ndtr, pdtr, pdtrc, stdtr

import stormrisk
from stormrisk import (
    County,
    CountySet,
    OutageObservation,
    default_n_max,
    save_county_fixture,
    save_observations,
)
from stormrisk.critzone import _lambert_w0

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


@given(NONNEG, st.integers(1, 10_000))
@example(np.inf, 3)
def test_t_sf(t, dof):
    assert same(stdtr(dof, -abs(t)), stats.t.sf(abs(t), dof))


@given(NONNEG)
@example(np.inf)
def test_norm_sf(z):
    assert same(ndtr(-abs(z)), stats.norm.sf(abs(z)))


@given(NONNEG, st.integers(1, 50))
@example(0.0, 1)
@example(0.0, 2)
def test_chi2_sf(lr, df):
    assert same(chdtrc(df, lr), stats.chi2.sf(lr, df))


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


def test_cli_import_loads_no_scipy():
    code = "import stormrisk.cli, sys; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    result = _fresh_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


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


# Each command, and whether it computes a p-value or a Poisson tail.
COMMANDS = [
    (["windfield"], False),
    (["ensemble"], False),
    (["failure-rates", "--which", "fr1"], False),
    (["failure-rates", "--which", "fr2"], False),
    (["critzone"], False),
    (["tables123"], False),
    (["sweep-fit", "--target", "critzone"], False),
    (["sweep-fit", "--target", "damage"], True),  # coefficient p-values
    (["sweep-fit", "--target", "loss"], True),
    (["fail-dist", "--cells", "0,55"], True),  # the Poisson truncation point and tail
    (["outage-fit", "--obs", "obs.csv"], True),  # Wald and likelihood-ratio p-values
]


@pytest.mark.parametrize("argv, loads", COMMANDS, ids=[" ".join(a) for a, _ in COMMANDS])
def test_scipy_special_loaded_only_for_tails(tiny_inputs, argv, loads):
    code = (
        "import sys\n"
        "from stormrisk.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "print(rc, 'scipy.special' in sys.modules)"
    )
    result = _fresh_python(code, *argv, "--config", "cfg.json", cwd=tiny_inputs)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0", str(loads)]


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
