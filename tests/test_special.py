"""The `scipy.special` calls the package makes equal, bit for bit, the
`scipy.stats` calls they replace, and importing the CLI loads no `scipy.stats`.

`scipy.stats` is the reference here only: each distribution method below is
a wrapper over the ufunc the package calls directly.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import example, given, strategies as st
from scipy import stats
from scipy.special import chdtrc, ndtr, pdtr, pdtrc, stdtr

import stormrisk
from stormrisk import default_n_max

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


def test_cli_import_loads_no_scipy_stats():
    # A fresh interpreter: this test process has already imported scipy.stats.
    src = str(Path(stormrisk.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import stormrisk.cli, sys; sys.exit('scipy.stats' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr or "stormrisk.cli imports scipy.stats"
