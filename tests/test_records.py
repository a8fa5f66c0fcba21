"""Every parameter record refuses a non-finite number in any numeric field,
and every frozen dataclass of the package is either such a record or a
result type, so that a new record without checks fails here."""

import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import stormrisk
from stormrisk import (
    County,
    Ensemble,
    EnsemblePerturbationSpec,
    FailureDistribution,
    GlmFit,
    Grid,
    HollandParams,
    LinearFit,
    NhppParams,
    OutageObservation,
    RepairParams,
    SyntheticEnsemble,
    TimeAxis,
    Track,
    WindField,
)
from stormrisk.aggregate import DamageFitModel, LossFitModel
from stormrisk.critzone import CritAreaFit, CritRadiusFit

TRACK = Track(x0=(50.0, -150.0), Vtr=(0.0, 3.0))
HOLLAND = HollandParams(Vm=46.0, Rm=30.0)

# One valid value of each parameter record.
RECORDS = [
    HOLLAND,
    TRACK,
    Grid(origin=(0.0, 0.0), nx=4, ny=3, cell_size=1.0),
    TimeAxis(n_steps=5, dt=1.0),
    NhppParams(),
    RepairParams(),
    EnsemblePerturbationSpec(base_track=TRACK, base_params=HOLLAND, sigma_track=10.0, seed=3, H=2),
    County(name="a", cells={0, 1}, households=10, asset_density=0.5),
    OutageObservation(county="a", time_h=1.0, outages=2, households=10),
]
# What the package computes, built from checked records and arrays.
RESULT_TYPES = {WindField, Ensemble, SyntheticEnsemble, FailureDistribution, LinearFit, GlmFit, DamageFitModel,
                LossFitModel, CritRadiusFit, CritAreaFit}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _bad_values():
    """(record, field, bad value): each numeric field, and each entry of a
    numeric pair, set to NaN, +inf and -inf."""
    for record in RECORDS:
        for f in dataclasses.fields(record):
            value = getattr(record, f.name)
            if _is_number(value):
                variants = [(f.name, x) for x in (np.nan, np.inf, -np.inf)]
            elif isinstance(value, tuple) and value and all(map(_is_number, value)):
                variants = [
                    (f"{f.name}[{i}]", value[:i] + (x,) + value[i + 1 :])
                    for i in range(len(value))
                    for x in (np.nan, np.inf, -np.inf)
                ]
            else:
                continue
            for label, bad in variants:
                yield pytest.param(record, f.name, bad, id=f"{type(record).__name__}.{label}={bad!r}")


@pytest.mark.parametrize("record, field, bad", list(_bad_values()))
def test_non_finite_number_refused(record, field, bad):
    with pytest.raises(ValueError):
        dataclasses.replace(record, **{field: bad})


def test_every_frozen_dataclass_is_a_checked_record_or_a_result():
    found = set()
    for module in pkgutil.iter_modules(stormrisk.__path__):
        mod = importlib.import_module(f"stormrisk.{module.name}")
        found |= {
            cls
            for _, cls in inspect.getmembers(mod, inspect.isclass)
            if cls.__module__ == mod.__name__
            and dataclasses.is_dataclass(cls)
            and cls.__dataclass_params__.frozen
        }
    records = {type(record) for record in RECORDS}
    assert not records & RESULT_TYPES
    assert found == records | RESULT_TYPES
