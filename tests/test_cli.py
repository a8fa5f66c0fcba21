import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from stormrisk import (
    County,
    CountySet,
    OutageObservation,
    county_average,
    critical_zone_numeric,
    fit_binomial,
    generate_synthetic_ensemble,
    load_county_fixture,
    load_observations,
    nhpp,
    save_county_fixture,
    save_ensemble,
    save_observations,
)
from stormrisk import cli, critzone, csvio, ensemble, wind
from stormrisk.cli import (
    ConfigError,
    DEFAULT_CONFIG,
    apply_override,
    build_parser,
    config_hash,
    load_config,
    main,
    validate_config,
)

SUBCOMMANDS = [
    "windfield",
    "ensemble",
    "failure-rates",
    "fail-dist",
    "critzone",
    "sweep-fit",
    "outage-fit",
    "tables123",
]


def _write_config(tmp_path, **extra) -> str:
    cfg = {
        "grid": {"nx": 12, "ny": 12, "cell_size_km": 6.0, "origin_km": [-36.0, -36.0]},
        "times": {"n_steps": 6, "dt_h": 1.0},
        "track": {"x0_km": [0.0, -30.0], "vtr_mps": [0.0, 3.0]},
        "holland": {"Vm_mps": 37.0, "Rm_km": 30.0},
        "ensemble": {"H": 4},
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


# The exact stderr line of each config value that exits 2, one per field and
# fault: out of range, not finite, an unknown key, the sweep order and the
# sweep's storm cap.  `TestDomain` tries both ends of every range.
CONFIG_ERRORS = [
    ("grid.nx=0", "grid.nx: value 0 out of range (>= 1)"),
    ("grid.ny=0", "grid.ny: value 0 out of range (>= 1)"),
    ("times.n_steps=0", "times.n_steps: value 0 out of range (>= 1)"),
    ("ensemble.H=0", "ensemble.H: value 0 out of range (>= 1)"),
    ("seed=-1", "seed: value -1 out of range (>= 0)"),
    ("grid.cell_size_km=-1", "grid.cell_size_km: value -1 out of range (in (0, 100])"),
    ("grid.cell_size_km=NaN", "grid.cell_size_km: expected a finite number, got nan"),
    ("times.dt_h=-1", "times.dt_h: value -1 out of range (in (0, 24])"),
    ("times.dt_h=NaN", "times.dt_h: expected a finite number, got nan"),
    ("times.t0_h=NaN", "times.t0_h: expected a finite number, got nan"),
    ("holland.Vm_mps=-1", "holland.Vm_mps: value -1 out of range (in [1, 150])"),
    ("holland.Vm_mps=NaN", "holland.Vm_mps: expected a finite number, got nan"),
    ("holland.Rm_km=-1", "holland.Rm_km: value -1 out of range (in [1, 500])"),
    ("holland.Rm_km=NaN", "holland.Rm_km: expected a finite number, got nan"),
    ("holland.B=-1", "holland.B: value -1 out of range (in [0.5, 3])"),
    ("holland.B=NaN", "holland.B: expected a finite number, got nan"),
    ("nhpp.Vcrit_mps=-1", "nhpp.Vcrit_mps: value -1 out of range (in [1, 150])"),
    ("nhpp.Vcrit_mps=NaN", "nhpp.Vcrit_mps: expected a finite number, got nan"),
    ("nhpp.alpha=0.5", "nhpp.alpha: value 0.5 out of range (in [1, 1e6])"),
    ("nhpp.alpha=NaN", "nhpp.alpha: expected a finite number, got nan"),
    ("nhpp.lambda_norm=-1", "nhpp.lambda_norm: value -1 out of range (in [1e-12, 1])"),
    ("nhpp.lambda_norm=NaN", "nhpp.lambda_norm: expected a finite number, got nan"),
    ("ensemble.sigma_track_km=-1", "ensemble.sigma_track_km: value -1 out of range (in [0, 2e4])"),
    ("ensemble.sigma_track_km=NaN", "ensemble.sigma_track_km: expected a finite number, got nan"),
    ("ensemble.sigma_heading_deg=-1", "ensemble.sigma_heading_deg: value -1 out of range (in [0, 360])"),
    ("ensemble.sigma_heading_deg=NaN", "ensemble.sigma_heading_deg: expected a finite number, got nan"),
    ("ensemble.sigma_Vm_mps=-1", "ensemble.sigma_Vm_mps: value -1 out of range (in [0, 150])"),
    ("ensemble.sigma_Vm_mps=NaN", "ensemble.sigma_Vm_mps: expected a finite number, got nan"),
    ("ensemble.sigma_Rm_km=-1", "ensemble.sigma_Rm_km: value -1 out of range (in [0, 500])"),
    ("ensemble.sigma_Rm_km=NaN", "ensemble.sigma_Rm_km: expected a finite number, got nan"),
    ("repair.Lf=-1", "repair.Lf: value -1 out of range (in [0, 1e6])"),
    ("repair.Lf=NaN", "repair.Lf: expected a finite number, got nan"),
    ("repair.Y=-1", "repair.Y: value -1 out of range (in [1e-6, 1e6])"),
    ("repair.Y=NaN", "repair.Y: expected a finite number, got nan"),
    ("sweep.Vm_min=-1", "sweep.Vm_min: value -1 out of range (in [1, 150])"),
    ("sweep.Vm_min=NaN", "sweep.Vm_min: expected a finite number, got nan"),
    ("sweep.Vm_max=-1", "sweep.Vm_max: value -1 out of range (in [1, 150])"),
    ("sweep.Vm_max=NaN", "sweep.Vm_max: expected a finite number, got nan"),
    ("sweep.Vm_step=-1", "sweep.Vm_step: value -1 out of range (in (0, 150])"),
    ("sweep.Vm_step=NaN", "sweep.Vm_step: expected a finite number, got nan"),
    ("sweep.Rm_min=-1", "sweep.Rm_min: value -1 out of range (in [1, 500])"),
    ("sweep.Rm_min=NaN", "sweep.Rm_min: expected a finite number, got nan"),
    ("sweep.Rm_max=-1", "sweep.Rm_max: value -1 out of range (in [1, 500])"),
    ("sweep.Rm_max=NaN", "sweep.Rm_max: expected a finite number, got nan"),
    ("sweep.Rm_step=-1", "sweep.Rm_step: value -1 out of range (in (0, 500])"),
    ("sweep.Rm_step=NaN", "sweep.Rm_step: expected a finite number, got nan"),
    ("holland.Vm_mps=Infinity", "holland.Vm_mps: expected a finite number, got inf"),
    ("repair.Y=-Infinity", "repair.Y: expected a finite number, got -inf"),
    ("grid.origin_km=[1]", "grid.origin_km: value [1] out of range ([x, y])"),
    ("grid.origin_km=[1, NaN]", "grid.origin_km: entries must be finite numbers"),
    ("grid.origin_km=[1, true]", "grid.origin_km: entries must be finite numbers"),
    ("track.x0_km=[1]", "track.x0_km: value [1] out of range ([x, y])"),
    ("track.x0_km=[1, NaN]", "track.x0_km: entries must be finite numbers"),
    ("track.x0_km=[1, true]", "track.x0_km: entries must be finite numbers"),
    ("track.vtr_mps=[1]", "track.vtr_mps: value [1] out of range ([vx, vy])"),
    ("track.vtr_mps=[1, NaN]", "track.vtr_mps: entries must be finite numbers"),
    ("track.vtr_mps=[1, true]", "track.vtr_mps: entries must be finite numbers"),
    ("field.hemisphere=E", "field.hemisphere: value 'E' out of range (\"N\" or \"S\")"),
    ("grid.typo=1", "grid.typo: unknown config field"),
    ("times.typo=1", "times.typo: unknown config field"),
    ("track.typo=1", "track.typo: unknown config field"),
    ("holland.typo=1", "holland.typo: unknown config field"),
    ("nhpp.typo=1", "nhpp.typo: unknown config field"),
    ("field.typo=1", "field.typo: unknown config field"),
    ("ensemble.typo=1", "ensemble.typo: unknown config field"),
    ("repair.typo=1", "repair.typo: unknown config field"),
    ("sweep.typo=1", "sweep.typo: unknown config field"),
    ("typo=1", "typo: unknown config field"),
    ("sweep.Vm_max=20", "sweep.Vm_max: must be >= sweep.Vm_min"),
    ("sweep.Rm_max=19.5", "sweep.Rm_max: must be >= sweep.Rm_min"),
    ("sweep.Vm_step=5e-5", "sweep.Vm_max: 1.18e+06 Vm values at sweep.Vm_step; at most 1,000,000 storms"),
    ("sweep.Vm_step=1e-12", "sweep.Vm_max: 5.9e+13 Vm values at sweep.Vm_step; at most 1,000,000 storms"),
    ("sweep.Rm_step=1e-4", "sweep.Rm_max: 60 Vm by 3e+05 Rm values at sweep.Rm_step; at most 1,000,000 storms"),
    ("grid.nx=1000000000000000000000",
     "grid.nx: value 1000000000000000000000 out of range (grid.nx * grid.ny * times.n_steps at most 1,000,000,000)"),
    ("grid.ny=100000000",
     "grid.ny: value 100000000 out of range (grid.nx * grid.ny * times.n_steps at most 1,000,000,000)"),
    ("times.n_steps=100001",
     "times.n_steps: value 100001 out of range (grid.nx * grid.ny * times.n_steps at most 1,000,000,000)"),
]

# A value of the wrong JSON type.
TYPE_ERRORS = [
    ("grid.nx=7.0", "grid.nx: expected an integer, got float"),
    ("grid.nx=true", "grid.nx: expected an integer, got a boolean"),
    ("grid.ny=7.0", "grid.ny: expected an integer, got float"),
    ("grid.ny=true", "grid.ny: expected an integer, got a boolean"),
    ("times.n_steps=7.0", "times.n_steps: expected an integer, got float"),
    ("times.n_steps=true", "times.n_steps: expected an integer, got a boolean"),
    ("ensemble.H=7.0", "ensemble.H: expected an integer, got float"),
    ("ensemble.H=true", "ensemble.H: expected an integer, got a boolean"),
    ("seed=7.0", "seed: expected an integer, got float"),
    ("seed=true", "seed: expected an integer, got a boolean"),
    ('grid.cell_size_km="x"', "grid.cell_size_km: expected a number, got str"),
    ('times.dt_h="x"', "times.dt_h: expected a number, got str"),
    ('times.t0_h="x"', "times.t0_h: expected a number, got str"),
    ('holland.Vm_mps="x"', "holland.Vm_mps: expected a number, got str"),
    ('holland.Rm_km="x"', "holland.Rm_km: expected a number, got str"),
    ('holland.B="x"', "holland.B: expected a number, got str"),
    ('nhpp.Vcrit_mps="x"', "nhpp.Vcrit_mps: expected a number, got str"),
    ('nhpp.alpha="x"', "nhpp.alpha: expected a number, got str"),
    ('nhpp.lambda_norm="x"', "nhpp.lambda_norm: expected a number, got str"),
    ('ensemble.sigma_track_km="x"', "ensemble.sigma_track_km: expected a number, got str"),
    ('ensemble.sigma_heading_deg="x"', "ensemble.sigma_heading_deg: expected a number, got str"),
    ('ensemble.sigma_Vm_mps="x"', "ensemble.sigma_Vm_mps: expected a number, got str"),
    ('ensemble.sigma_Rm_km="x"', "ensemble.sigma_Rm_km: expected a number, got str"),
    ('repair.Lf="x"', "repair.Lf: expected a number, got str"),
    ('repair.Y="x"', "repair.Y: expected a number, got str"),
    ('sweep.Vm_min="x"', "sweep.Vm_min: expected a number, got str"),
    ('sweep.Vm_max="x"', "sweep.Vm_max: expected a number, got str"),
    ('sweep.Vm_step="x"', "sweep.Vm_step: expected a number, got str"),
    ('sweep.Rm_min="x"', "sweep.Rm_min: expected a number, got str"),
    ('sweep.Rm_max="x"', "sweep.Rm_max: expected a number, got str"),
    ('sweep.Rm_step="x"', "sweep.Rm_step: expected a number, got str"),
    ("holland.Vm_mps.x=1", "holland.Vm_mps: expected a number, got dict"),
    ("grid.cell_size_km=false", "grid.cell_size_km: expected a number, got a boolean"),
    ("grid.origin_km=3", "grid.origin_km: expected [x, y], got int"),
    ("track.x0_km=3", "track.x0_km: expected [x, y], got int"),
    ("track.vtr_mps=3", "track.vtr_mps: expected [vx, vy], got int"),
    ("field.asymmetric=1", "field.asymmetric: expected a boolean, got int"),
    ("ensemble.asymmetric=1", "ensemble.asymmetric: unknown config field"),
    ("scenario=3", "scenario: unknown config field"),
    ("field.hemisphere=1", "field.hemisphere: expected a string, got int"),
    ("counties_csv=3", "counties_csv: expected a path string or null, got int"),
    ("output_dir=3", "output_dir: expected a path string, got int"),
    ("output_dir=null", "output_dir: expected a path string, got NoneType"),
]


class TestConfig:
    def test_defaults_validate(self):
        validate_config(DEFAULT_CONFIG)

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError, match="grid.cellsize"):
            load_config(None, ["grid.cellsize=2"])

    def test_override_json_parsing(self):
        cfg = load_config(None, ["grid.nx=7", "field.hemisphere=S", "field.asymmetric=true"])
        assert cfg["grid"]["nx"] == 7
        assert cfg["field"]["hemisphere"] == "S"
        assert cfg["field"]["asymmetric"] is True

    def test_bad_override_shape(self):
        with pytest.raises(ConfigError):
            apply_override(dict(DEFAULT_CONFIG), "no_equals_sign")

    def test_dt_must_be_positive(self):
        with pytest.raises(ConfigError, match="times.dt_h"):
            load_config(None, ["times.dt_h=-1"])

    def test_default_config_hash_pinned(self):
        # A default whose value or JSON type drifted would move every output's hash line.
        digest = "45ec8158aeb14d40fcb10da5a36ff23748dad91db4ae58a2b35e961c4b3bcad4"
        assert config_hash(load_config(None, [])) == digest

    def test_readme_reference_matches_schema(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        lines = readme[readme.index("| Field | Default | Kind | Check |") :].split("\n\n")[0].splitlines()
        rows = [tuple(c.strip().strip("`") for c in line.strip("|").split("|")) for line in lines[2:]]
        schema = [
            (path, json.dumps(default), name, check or "")
            for path, default, (_, name, _), check in cli.CONFIG_SCHEMA
        ]
        assert rows == schema

    @pytest.mark.parametrize(
        "path, default, check", [(path, default, check) for path, default, _, check in cli.CONFIG_SCHEMA],
        ids=[row[0] for row in cli.CONFIG_SCHEMA],
    )
    def test_every_field_reaches_the_run(self, path, default, check):
        # Another valid value of each field changes what the commands read,
        # except for `times.t0_h`, which no command reads.
        if isinstance(default, bool):
            other = not default
        elif default is None:
            other = "counties.csv"
        elif isinstance(default, str):
            other = {"N": "S"}.get(default, default + "2")
        elif isinstance(default, list):
            other = [x + 1.0 for x in default]
        else:  # a number: one more, or half when that leaves its range
            other = default + 1 if check is None or csvio._test(check)(default + 1) else default / 2

        def run(overrides):
            built = cli._build(load_config(None, overrides))
            return built._replace(digest=None, sweep=[axis.tolist() for axis in built.sweep])

        changed = run([f"{path}={json.dumps(other)}"]) != run([])
        assert changed == (path != "times.t0_h")

    def test_hash_stable_and_sensitive(self):
        a = load_config(None, [])
        b = load_config(None, ["grid.nx=7"])
        assert config_hash(a) == config_hash(load_config(None, []))
        assert config_hash(a) != config_hash(b)


class TestConfigMessages:
    """Each bad config value exits 2 with exactly one line naming its field."""

    def _run(self, tmp_path, capsys, assignment):
        # output_dir first so a value wrongly accepted writes nothing here.
        rc = main(["windfield", "--set", f"output_dir={tmp_path / 'out'}", "--set", assignment])
        return rc, capsys.readouterr().err

    @pytest.mark.parametrize(
        "assignment, message", CONFIG_ERRORS + TYPE_ERRORS, ids=[a for a, _ in CONFIG_ERRORS + TYPE_ERRORS]
    )
    def test_exact_stderr_line(self, tmp_path, capsys, assignment, message):
        assert self._run(tmp_path, capsys, assignment) == (2, f"error: invalid config: {message}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "document, overrides, message",
        [
            ({}, ["grid=5"], "grid: expected an object, got int"),
            ({}, ["sweep=3"], "sweep: expected an object, got int"),
            ({}, ["times=[1]"], "times: expected an object, got list"),
            ({"grid": None}, [], "grid: expected an object, got NoneType"),
        ],
        ids=["grid=5", "sweep=3", "times=[1]", "grid-null-in-file"],
    )
    def test_non_object_section_exits_2(self, tmp_path, capsys, document, overrides, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output_dir": str(tmp_path / "out"), **document}))
        argv = ["windfield", "--config", str(cfg)] + [a for o in overrides for a in ("--set", o)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: invalid config: {message}\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "assignment, message",
        [
            (f"holland.Vm_mps=1{'0' * 400}", f"holland.Vm_mps: expected a finite number, got 1{'0' * 400}"),
            (f"grid.origin_km=[1{'0' * 400}, 0]", "grid.origin_km: entries must be finite numbers"),
            (f"holland.Vm_mps=1{'0' * 5000}", "holland.Vm_mps: expected a number, got str"),  # too long to parse
            (f"holland.Vm_mps={'[' * 10**5}{']' * 10**5}", "holland.Vm_mps: expected a number, got str"),
        ],
        ids=["float-overflow", "pair-float-overflow", "too-many-digits", "nested-too-deep"],
    )
    def test_oversized_value_exits_2(self, tmp_path, capsys, assignment, message):
        assert self._run(tmp_path, capsys, assignment) == (2, f"error: invalid config: {message}\n")

    @pytest.mark.parametrize(
        "document", [b'{"output_dir": "\xff"}', b'{"output_dir": ' + b"[" * 10**5 + b"]" * 10**5 + b"}"],
        ids=["not-utf8", "nested-too-deep"],
    )
    def test_undecodable_config_exits_2_naming_the_file(self, tmp_path, capsys, document):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(document)
        assert main(["windfield", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid config: {cfg}: invalid JSON: ") and err.count("\n") == 1

    def test_unreadable_config_exits_1(self, tmp_path, capsys):
        assert main(["windfield", "--config", str(tmp_path)]) == 1  # a directory
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err and err.count("\n") == 1


class TestEntryPoints:
    @pytest.mark.parametrize("cmd", SUBCOMMANDS)
    def test_help_exits_zero(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        assert cmd in capsys.readouterr().out

    def test_invalid_dt_exits_2_naming_field(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        rc = main(["windfield", "--config", cfg, "--set", "times.dt_h=-1"])
        assert rc == 2
        assert "times.dt_h" in capsys.readouterr().err

    def test_missing_config_file_exits_1(self, tmp_path):
        assert main(["windfield", "--config", str(tmp_path / "nope.json")]) == 1

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"grids": {}}')
        assert main(["windfield", "--config", str(cfg)]) == 2

    def test_zero_threads_exits_2(self, tmp_path):
        cfg = _write_config(tmp_path)
        assert main(["windfield", "--config", cfg, "--threads", "0"]) == 2

    def test_alpha_below_one_exits_2_naming_field(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        assert main(["critzone", "--config", cfg, "--set", "nhpp.alpha=0.5"]) == 2
        assert "nhpp.alpha" in capsys.readouterr().err

    def test_infinite_rm_exits_2_naming_field(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        assert main(["critzone", "--config", cfg, "--set", "holland.Rm_km=Infinity"]) == 2
        err = capsys.readouterr().err
        assert "holland.Rm_km" in err and "finite" in err

    def test_infinite_sweep_bound_exits_2_naming_field(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        argv = ["sweep-fit", "--config", cfg, "--target", "damage", "--set", "sweep.Vm_max=Infinity"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "sweep.Vm_max" in err and "finite" in err

    @pytest.mark.parametrize(
        "assignment, field",
        [
            ("sweep.Vm_step=5e-5", "sweep.Vm_max"),  # 1,180,001 Vm values
            ("sweep.Vm_step=1e-12", "sweep.Vm_max"),  # np.arange: a 429 TiB MemoryError
            ("sweep.Rm_step=1e-4", "sweep.Rm_max"),  # 60 x 300,001 storms
        ],
    )
    def test_huge_sweep_exits_2_naming_field(self, tmp_path, capsys, assignment, field):
        cfg = _write_config(tmp_path)
        assert main(["sweep-fit", "--config", cfg, "--target", "damage", "--set", assignment]) == 2
        err = capsys.readouterr().err
        assert field in err and "at most 1,000,000 storms" in err

    @pytest.mark.parametrize(
        "assignments, field",
        [
            (["grid.nx=1000000000000000000000"], "grid.nx"),  # numpy: "Maximum allowed size exceeded"
            (["grid.nx=100000", "grid.ny=100000"], "grid.ny"),  # a 74.5 GiB MemoryError
            (["grid.nx=1000", "grid.ny=1000", "times.n_steps=1001"], "times.n_steps"),
        ],
    )
    def test_huge_field_exits_2_naming_field(self, tmp_path, capsys, assignments, field):
        sets = [a for assignment in assignments for a in ("--set", assignment)]
        assert main(["windfield", "--set", f"output_dir={tmp_path / 'out'}"] + sets) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid config: {field}: ") and err.count("\n") == 1
        assert "at most 1,000,000,000)" in err
        assert not (tmp_path / "out").exists()

    def test_field_at_the_cap_is_valid(self):
        load_config(None, ["grid.nx=1000", "grid.ny=1000", "times.n_steps=1000"])

    @pytest.mark.parametrize(
        "assignment", ["times.t0_h=NaN", "repair.Lf=Infinity", "track.x0_km=[0, NaN]"]
    )
    def test_non_finite_numbers_rejected(self, assignment):
        with pytest.raises(ConfigError, match=assignment.split("=")[0]):
            load_config(None, [assignment])


class TestWindfieldCommand:
    def test_writes_csv_with_config_hash(self, tmp_path):
        cfg = _write_config(tmp_path)
        assert main(["windfield", "--config", cfg]) == 0
        out = tmp_path / "out" / "windfield.csv"
        text = out.read_text()
        assert text.startswith("# config_sha256=")
        assert "cell_id,time_index,velocity_mps" in text

    def test_reruns_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path)
        main(["windfield", "--config", cfg])
        first = (tmp_path / "out" / "windfield.csv").read_bytes()
        main(["windfield", "--config", cfg])
        assert (tmp_path / "out" / "windfield.csv").read_bytes() == first

    def test_config_change_changes_hash_line(self, tmp_path):
        cfg = _write_config(tmp_path)
        main(["windfield", "--config", cfg])
        line1 = (tmp_path / "out" / "windfield.csv").read_text().splitlines()[0]
        main(["windfield", "--config", cfg, "--set", "holland.Vm_mps=25"])
        line2 = (tmp_path / "out" / "windfield.csv").read_text().splitlines()[0]
        assert line1 != line2


class TestEnsembleCommands:
    def test_thread_count_does_not_change_output(self, tmp_path):
        cfg = _write_config(tmp_path)
        main(["ensemble", "--config", cfg, "--threads", "1"])
        serial = (tmp_path / "out" / "ensemble.csv").read_bytes()
        main(["ensemble", "--config", cfg, "--threads", "4"])
        assert (tmp_path / "out" / "ensemble.csv").read_bytes() == serial

    def test_failure_rates_fr2_ge_fr1(self, tmp_path):
        cfg = _write_config(tmp_path)
        assert main(["failure-rates", "--config", cfg, "--which", "fr1"]) == 0
        assert main(["failure-rates", "--config", cfg, "--which", "fr2"]) == 0

        def read(which):
            path = tmp_path / "out" / f"failure_rates_{which}.csv"
            rows = [l.split(",") for l in path.read_text().splitlines()[2:]]
            return np.array([float(r[1]) for r in rows])

        assert np.all(read("fr2") >= read("fr1") - 1e-12)

    @pytest.mark.parametrize(
        "argv",
        [
            ["ensemble"],
            ["failure-rates", "--which", "fr1"],
            ["failure-rates", "--which", "fr2"],
            ["fail-dist", "--kind", "fdb", "--cells", "0,77,143"],
            ["outage-fit"],
        ],
        ids=["ensemble", "fr1", "fr2", "fail-dist", "outage-fit"],
    )
    def test_each_member_is_made_once(self, tmp_path, monkeypatch, argv):
        # One pass over the one member source: a second, as a check drawing velocities to find
        # the members' Vm would make, makes each member twice.
        made = []
        velocities = wind._velocities

        def counted(*args):
            made.append(None)
            return velocities(*args)

        monkeypatch.setattr(wind, "_velocities", counted)
        monkeypatch.setattr(ensemble, "_velocities", counted)
        if argv == ["outage-fit"]:
            cfg, obs_csv = _outage_inputs(tmp_path)
            argv = argv + ["--obs", str(obs_csv)]
        else:
            cfg = _write_config(tmp_path)
        assert main(argv + ["--config", cfg, "--threads", "3"]) == 0
        assert len(made) == 4  # H

    def test_fail_dist_sums_to_one(self, tmp_path):
        cfg = _write_config(tmp_path)
        assert main(["fail-dist", "--config", cfg, "--cells", "0,77", "--kind", "fdb"]) == 0
        for cell in (0, 77):
            path = tmp_path / "out" / f"fail_dist_fdb_cell{cell}.csv"
            rows = [l.split(",") for l in path.read_text().splitlines()[2:]]
            total = sum(float(r[1]) for r in rows)
            # Exported at 9 significant digits; the in-memory 1e-12 invariant
            # is asserted in the distribution unit tests.
            assert total == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("threads", ["1", "3"])
    def test_streamed_outputs_match_the_in_memory_ensemble(self, tmp_path, threads):
        # The commands never hold the ensemble; the same statistics of an
        # `Ensemble` must give the same bytes.
        cfg = _write_config(tmp_path, ensemble={"H": 5}, field={"asymmetric": True})
        cells = [0, 77, 143, 77]
        for argv in (
            ["ensemble"],
            ["failure-rates", "--which", "fr1"],
            ["failure-rates", "--which", "fr2"],
            ["fail-dist", "--kind", "fda", "--cells", ",".join(map(str, cells))],
            ["fail-dist", "--kind", "fdb", "--cells", ",".join(map(str, cells))],
        ):
            assert main(argv + ["--config", cfg, "--threads", threads]) == 0
        config = load_config(cfg, [])
        tag = f"config_sha256={config_hash(config)}"
        built = cli._build(config)
        ens = generate_synthetic_ensemble(built.spec, built.grid, built.times)
        p = built.nhpp
        ref = tmp_path / "ref"
        ref.mkdir()
        save_ensemble(ens, ref / "ensemble.csv", header_comment=tag)
        nhpp.save_failure_rate_field(nhpp.fr1(p, ens), ref / "failure_rates_fr1.csv", tag)
        nhpp.save_failure_rate_field(nhpp.fr2(p, ens), ref / "failure_rates_fr2.csv", tag)
        for kind, make in (("fda", nhpp.fd_a), ("fdb", nhpp.fd_b)):
            for cell in cells:
                dist = make(p, ens, cell)
                nhpp.save_failure_distribution(dist, ref / f"fail_dist_{kind}_cell{cell}.csv", tag)
        names = sorted(path.name for path in ref.iterdir())
        assert names == sorted(path.name for path in (tmp_path / "out").iterdir())
        for name in names:
            assert (tmp_path / "out" / name).read_bytes() == (ref / name).read_bytes(), name

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["ensemble", "outage-fit"])
    def test_largest_sigmas_keep_members_in_range(self, tmp_path, command):
        # Draws past [1, 150] m/s and [1, 500] km are clipped to the ends, not refused.
        sets = ["ensemble.sigma_Vm_mps=150", "ensemble.sigma_Rm_km=500", "ensemble.H=10"]
        argv = [command] + [a for s in sets for a in ("--set", s)]
        if command == "outage-fit":
            cfg, obs_csv = _outage_inputs(tmp_path)
            argv += ["--obs", str(obs_csv)]
        else:
            cfg = _write_config(tmp_path)
        assert main(argv + ["--config", cfg]) == 0
        built = cli._build(load_config(cfg, sets))
        members = ensemble.SyntheticEnsemble(built.spec, built.grid, built.times).parameters
        Vm, Rm = np.array([(p.Vm, p.Rm) for _, p in members]).T
        assert np.all((Vm >= 1) & (Vm <= 150)) and np.all((Rm >= 1) & (Rm <= 500))
        assert {1.0, 150.0} & set(Vm.tolist()) and {1.0, 500.0} & set(Rm.tolist())

    def test_fail_dist_negative_n_max_exits_2(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        assert main(["fail-dist", "--config", cfg, "--n-max", "-1"]) == 2
        assert "--n-max" in capsys.readouterr().err

    def test_fail_dist_bad_cell_exits_2_before_writing(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        assert main(["fail-dist", "--config", cfg, "--cells", "0,99999"]) == 2
        assert "--cells" in capsys.readouterr().err
        out = tmp_path / "out"
        assert not out.exists() or not any(out.iterdir())


class TestCritzoneAndSweeps:
    def test_critzone_outputs(self, tmp_path):
        cfg = _write_config(tmp_path)
        assert main(["critzone", "--config", cfg]) == 0
        report = json.loads((tmp_path / "out" / "critzone_stats.json").read_text())
        assert "config_sha256" in report
        assert report["area_numeric_km2"] > 0
        cells = (tmp_path / "out" / "critzone_cells.csv").read_text().splitlines()
        assert len(cells) > 2

    @pytest.mark.parametrize("asymmetric", [False, True])
    def test_critzone_streams_without_a_dense_field(self, tmp_path, monkeypatch, asymmetric):
        from stormrisk import wind

        cfg = _write_config(tmp_path, field={"asymmetric": asymmetric, "hemisphere": "S"})
        config = load_config(cfg, [])
        b = cli._build(config)
        field = wind.wind_field(b.track, b.holland, b.grid, b.times, asymmetric=asymmetric, hemisphere="S")
        zone = critical_zone_numeric(field, b.nhpp.Vcrit, b.holland, b.track)

        def refuse(*args, **kwargs):
            raise AssertionError("critzone must not build a dense wind field")

        monkeypatch.setattr(cli, "wind_field", refuse)
        monkeypatch.setattr(wind, "wind_field", refuse)
        assert main(["critzone", "--config", cfg]) == 0
        lines = (tmp_path / "out" / "critzone_cells.csv").read_text().splitlines()
        assert [int(c) for c in lines[2:]] == np.flatnonzero(zone).tolist()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fail_dist_default_truncation_past_the_cap_exits_2(self, tmp_path, capsys):
        # Member rates of ~1e10, at the ends of the failure model's ranges, have no
        # default truncation point that fits in memory; every pmf would be built after the check.
        argv = ["fail-dist", "--config", _write_config(tmp_path), "--kind", "fdb", "--cells", "70"]
        sets = ["nhpp.Vcrit_mps=1", "nhpp.alpha=1e6", "nhpp.lambda_norm=1"]
        assert main(argv + [a for s in sets for a in ("--set", s)]) == 2
        assert capsys.readouterr().err == (
            "error: invalid input: --n-max: required: a failure rate of 8.54e+09 passes 1,000, above which"
            " the default truncation's masses may not total 1 within 1e-12\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv, message",
        [
            # Rates of ~1e5, where the summed log-space pmf misses 1 by 3.6e-11.
            (
                ["--kind", "fdb", "--cells", "70"],
                "required: a failure rate of 1.25e+05 passes 1,000, above which"
                " the default truncation's masses may not total 1 within 1e-12",
            ),
            (
                ["--kind", "fda", "--cells", "70"],
                "required: a failure rate of 1.16e+05 passes 1,000, above which"
                " the default truncation's masses may not total 1 within 1e-12",
            ),
            # Cell 50's masses total 1 within 1e-12, then cell 70's miss; nothing is written.
            (
                ["--kind", "fdb", "--cells", "50,70", "--n-max", "126000"],
                "at cell 70: masses total 1.000000000062076, expected 1 within 1e-12",
            ),
        ],
        ids=["fdb", "fda", "n-max"],
    )
    def test_fail_dist_masses_that_miss_1_exit_2(self, tmp_path, capsys, argv, message):
        sets = ["--set", "nhpp.Vcrit_mps=1", "--set", "nhpp.alpha=417560"]
        argv = ["fail-dist", "--config", _write_config(tmp_path)] + sets + argv
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: invalid input: --n-max: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "target, overrides, message",
        [
            ("loss", ["sweep.Vm_max=22", "sweep.Rm_max=20"], "2 storms; the loss fit needs at least 14"),
            ("damage", ["sweep.Vm_max=25", "sweep.Rm_max=20"], "5 storms; the damage fit needs at least 6"),
            (
                "critzone",
                ["sweep.Vm_max=22", "sweep.Rm_max=20"],
                "2 storms with Vm >= nhpp.Vcrit_mps; the critzone fit needs at least 3",
            ),
            (
                "critzone",
                ["sweep.Vm_min=10", "sweep.Vm_max=20"],
                "0 storms with Vm >= nhpp.Vcrit_mps; the critzone fit needs at least 3",
            ),
        ],
        ids=["loss", "damage", "critzone", "critzone-below-vcrit"],
    )
    def test_sweep_too_small_to_fit_exits_2(self, tmp_path, capsys, target, overrides, message):
        argv = ["sweep-fit", "--config", _write_config(tmp_path), "--target", target]
        assert main(argv + [a for o in overrides for a in ("--set", o)]) == 2
        assert capsys.readouterr().err == f"error: invalid input: sweep.Vm_max: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "assignment",
        [
            "repair.Lf=0",  # every loss is 0
            "repair.Lf=1e-120",  # the least loss is 2.3e-123
        ],
        ids=["loss-Lf", "loss-tiny-Lf"],
    )
    def test_responses_near_zero_name_their_field(self, tmp_path, capsys, assignment):
        # Weights 1 / y^2 past the least response's name repair.Lf; a damage
        # is at least lambda_norm 24 h, far above the least response.
        cfg = _write_config(tmp_path, sweep=dict(_CRITZONE_SWEEP, Rm_step=5))  # 4 Vm by 7 Rm values
        assert main(["sweep-fit", "--config", cfg, "--target", "loss", "--set", assignment]) == 2
        assert capsys.readouterr().err == (
            "error: invalid input: repair.Lf: a response is too close to 0 for the fit's relative weights 1 / y^2\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("step, warns", [("10", True), ("7.5", False)], ids=["4-radii", "5-radii"])
    def test_singular_loss_design_warns(self, tmp_path, capsys, step, warns):
        # 1, Rm, ..., Rm^4 are linearly dependent over four radii (20, 30, 40, 50)
        # and independent over five; the fit still runs and writes its outputs.
        argv = ["sweep-fit", "--config", _write_config(tmp_path), "--target", "loss", "--set", f"sweep.Rm_step={step}"]
        assert main(argv) == 0
        assert capsys.readouterr().err == (
            "warning: sweep.Rm_step: 4 radii make the loss design singular;"
            " its p-values and term pruning rest on a singular fit\n" if warns else ""
        )
        assert sorted(path.name for path in (tmp_path / "out").iterdir()) == ["loss_fit.json", "loss_sweep.csv"]

    @pytest.mark.parametrize(
        "B, storm, radius", [("1", "Vm=41, Rm=50", "2.28e+05"), ("0.5", "Vm=21, Rm=20", "2.87e+07")]
    )
    def test_sweep_fit_critzone_oversize_swath_exits_2(self, tmp_path, capsys, monkeypatch, B, storm, radius):
        # At the least threshold, a radius whose swath grid passes the cap is
        # refused before any storm is run, under one field.
        monkeypatch.setattr(critzone, "storm_swath", None)  # never reached
        cfg = _write_config(
            tmp_path,
            sweep={"Vm_min": 21, "Vm_max": 80, "Vm_step": 20, "Rm_min": 20, "Rm_max": 50, "Rm_step": 15},
        )
        sets = ["--set", "nhpp.Vcrit_mps=1", "--set", f"holland.B={B}"]
        assert main(["sweep-fit", "--config", cfg, "--target", "critzone"] + sets) == 2
        assert capsys.readouterr().err == (
            f"error: invalid input: sweep.Vm_max: storm ({storm}) has critical radius {radius} km;"
            " its swath grid passes 1,000,000,000 cell-steps\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "n_steps, message",
        [
            (6, "times.n_steps: storm (Vm=1, Rm=1) has critical radius 1 km"),
            (1, "sweep.Vm_max: storm (Vm=54, Rm=50) has critical radius 3.96e+05 km"),
        ],
    )
    def test_sweep_fit_critzone_swath_cap_names_the_track_or_vm(self, tmp_path, capsys, n_steps, message):
        # `TestDomain`'s corner: 1 km cells over a 21,600 km run pass the cap
        # at the first storm, though its Vm is the least; without a run, the
        # largest radii at 25 km cells do.
        cfg = _write_config(tmp_path)
        sets = {
            "nhpp.Vcrit_mps": 1, "sweep.Vm_min": math.nextafter(1.0, 2.0), "sweep.Rm_min": 1,
            "times.dt_h": 24, "track.vtr_mps": [50, 50], "times.n_steps": n_steps,
        }
        argv = ["sweep-fit", "--config", cfg, "--target", "critzone"]
        assert main(argv + [a for k, v in sets.items() for a in ("--set", f"{k}={json.dumps(v)}")]) == 2
        assert capsys.readouterr().err == (
            f"error: invalid input: {message}; its swath grid passes 1,000,000,000 cell-steps\n"
        )
        assert not (tmp_path / "out").exists()

    def test_sweep_fit_critzone(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            sweep={"Vm_min": 25, "Vm_max": 46, "Vm_step": 7, "Rm_min": 20, "Rm_max": 50, "Rm_step": 10},
        )
        assert main(["sweep-fit", "--config", cfg, "--target", "critzone"]) == 0
        report = json.loads((tmp_path / "out" / "critzone_fit.json").read_text())
        assert report["radius_fit"]["a1"] > 0
        assert (tmp_path / "out" / "critzone_sweep.csv").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x0", [[-2e4, -2e4], [2e4, 2e4]], ids=["lower", "upper"])
    def test_sweep_fit_critzone_at_the_position_bounds(self, tmp_path, capsys, x0):
        # The swath grids reach past the config's positions by a critical radius.
        cfg = _write_config(tmp_path, sweep=_CRITZONE_SWEEP)
        assert main(["sweep-fit", "--config", cfg, "--target", "critzone", "--set", f"track.x0_km={x0}"]) == 0
        assert capsys.readouterr().err == ""
        numbers = [x for path in (tmp_path / "out").iterdir() for x in _numbers(path)]
        assert numbers and all(map(math.isfinite, numbers))

    def test_sweep_fit_critzone_bisects_no_storm_alone(self, tmp_path, monkeypatch):
        # Each storm's radius comes from the one vectorised sweep bisection.
        def refuse(*args, **kwargs):
            raise AssertionError("critical_radius called for a sweep storm")

        monkeypatch.setattr(critzone, "critical_radius", refuse)
        cfg = _write_config(
            tmp_path,
            sweep={"Vm_min": 15, "Vm_max": 46, "Vm_step": 7, "Rm_min": 20, "Rm_max": 50, "Rm_step": 10},
        )
        assert main(["sweep-fit", "--config", cfg, "--target", "critzone"]) == 0
        assert (tmp_path / "out" / "critzone_sweep.csv").read_text().count("\n") == 1 + 1 + 4 * 4

    def test_sweep_fit_damage(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            sweep={"Vm_min": 22, "Vm_max": 80, "Vm_step": 6, "Rm_min": 20, "Rm_max": 50, "Rm_step": 10},
        )
        assert main(["sweep-fit", "--config", cfg, "--target", "damage"]) == 0
        report = json.loads((tmp_path / "out" / "damage_fit.json").read_text())
        assert 1.0 <= report["p1"] <= 1.5


    def test_damage_sweep_reaching_vcrit_exits_2_naming_vm_min(self, tmp_path, capsys, monkeypatch):
        # g = 0 at Vm <= Vcrit would make the p2 < 0 terms infinite.
        monkeypatch.setattr(cli.aggregate, "damage_loss_sweep", None)  # refused before the sweep
        cfg = _write_config(tmp_path)
        assert main(["sweep-fit", "--config", cfg, "--target", "damage", "--set", "sweep.Vm_min=20.6"]) == 2
        assert capsys.readouterr().err == (
            "error: invalid input: sweep.Vm_min: must be > nhpp.Vcrit_mps (20.6) for --target damage\n"
        )
        assert not (tmp_path / "out").exists()

    def test_loss_sweep_reaching_vcrit_still_fits(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            sweep={"Vm_min": 20.6, "Vm_max": 80, "Vm_step": 6, "Rm_min": 20, "Rm_max": 50, "Rm_step": 10},
        )
        assert main(["sweep-fit", "--config", cfg, "--target", "loss"]) == 0
        report = json.loads((tmp_path / "out" / "loss_fit.json").read_text())
        assert 1.2 <= report["p"] <= 2.0

    def test_sweep_fit_damage_honours_holland_b(self, tmp_path):
        from stormrisk import NhppParams, damage_loss_sweep, save_agg_sweep

        sweep = {"Vm_min": 22, "Vm_max": 80, "Vm_step": 6, "Rm_min": 20, "Rm_max": 50, "Rm_step": 15}
        Vm, Rm = np.arange(22.0, 80.0 + 1e-9, 6.0), np.arange(20.0, 50.0 + 1e-9, 15.0)

        def sweep_rows(B):
            cfg = _write_config(tmp_path, sweep=sweep, holland={"Vm_mps": 37.0, "Rm_km": 30.0, "B": B})
            assert main(["sweep-fit", "--config", cfg, "--target", "damage"]) == 0
            return (tmp_path / "out" / "damage_sweep.csv").read_text().splitlines()[1:]

        got = sweep_rows(1.5)
        expected = tmp_path / "expected.csv"
        save_agg_sweep(*damage_loss_sweep(Vm, Rm, nhpp=NhppParams(), B=1.5), expected)
        assert got == expected.read_text().splitlines()
        assert got != sweep_rows(1.0)


def _just_outside(check) -> list:
    """The values just outside each end of a schema row's `check`."""
    if check in (">= 0", ">= 1"):
        return [int(check[-1]) - 1]
    lo, hi = csvio._interval(check)
    return [lo if check[3] == "(" else math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)]


# Each bound of every checked number of the config, just outside it: (path,
# value, check), a pair's entries one at a time.
_BOUNDS = [
    (path, value, check)
    for path, _, (_, name, _), check in cli.CONFIG_SCHEMA
    if check is not None and name != "a string"
    for v in _just_outside(check)
    for value in ([[v, 0.0], [0.0, v]] if name.startswith("[") else [v])
]

_CHECK_OF = {path: check for path, _, _, check in cli.CONFIG_SCHEMA}


def _end(path, upper=True):
    lo, hi = csvio._interval(_CHECK_OF[path])
    return hi if upper else lo


# The worst corners of the ranges.  `large`: every range at the end that makes
# the results largest (B, Vcrit and Y at their lower ends, the rest at their
# upper ends; pairs at the upper end in both entries) with an asymmetric storm,
# and the sweep spanning its ranges from one ulp above Vcrit in 5 x 5 storms.
# `small`: lambda_norm at its lower end, Y at its upper end and Lf at 1e-6 (at
# its lower end, 0, every loss is 0: `test_responses_near_zero_name_their_field`).
# Each also with B at its upper end.
_LOWER_ENDS = ("holland.B", "nhpp.Vcrit_mps", "repair.Y")
_LARGE = {
    **{
        path: [end, end] if path in ("grid.origin_km", "track.x0_km", "track.vtr_mps") else end
        for path, check in _CHECK_OF.items()
        if check and check.startswith("in") and not path.startswith("sweep.")
        for end in [_end(path, upper=path not in _LOWER_ENDS)]
    },
    "field.asymmetric": True,
    "sweep.Vm_min": math.nextafter(_end("nhpp.Vcrit_mps", upper=False), math.inf),
    "sweep.Vm_max": _end("sweep.Vm_max"),
    "sweep.Vm_step": (_end("sweep.Vm_max") - _end("sweep.Vm_min", upper=False)) / 4,
    "sweep.Rm_min": _end("sweep.Rm_min", upper=False),
    "sweep.Rm_max": _end("sweep.Rm_max"),
    "sweep.Rm_step": (_end("sweep.Rm_max") - _end("sweep.Rm_min", upper=False)) / 4,
}
_SMALL = {
    **_LARGE, "nhpp.lambda_norm": _end("nhpp.lambda_norm", upper=False), "repair.Lf": 1e-6, "repair.Y": _end("repair.Y")
}
_CORNERS = {
    "large": _LARGE,
    "large-B3": {**_LARGE, "holland.B": _end("holland.B")},
    "small": _SMALL,
    "small-B3": {**_SMALL, "holland.B": _end("holland.B")},
}
_CORNER_COMMANDS = [
    "windfield",
    "ensemble",
    "failure-rates --which fr1",
    "failure-rates --which fr2",
    "fail-dist --kind fda --cells 0,77,143",
    "fail-dist --kind fdb --cells 0,77,143",
    "fail-dist --kind fdb --cells 0,77,143 --n-max 10",
    "critzone",
    "sweep-fit --target critzone",
    "sweep-fit --target damage",
    "sweep-fit --target loss",
    "outage-fit --predictor failure_rate",
    "outage-fit --predictor cumulative_velocity",
    "tables123",
]
# The size and truncation caps a corner may meet instead.
_CAPS = {
    "--n-max": r"--n-max: required: a failure rate of \S+ passes 1,000, above which"
    r" the default truncation's masses may not total 1 within 1e-12",
    "swath": r"times\.n_steps: storm \(Vm=\S+, Rm=\S+\) has critical radius \S+ km;"
    r" its swath grid passes 1,000,000,000 cell-steps",
}


def _numbers(path) -> list[float]:
    """Every number in an output file: each field of a CSV row, each number of a JSON document."""
    text = path.read_text()
    if path.suffix == ".json":
        found = []
        number = found.append
        json.loads(text, parse_float=lambda x: number(float(x)), parse_int=lambda x: number(float(x)),
                   parse_constant=lambda x: number(float(x)))
        return found
    found = []
    for line in text.splitlines()[1:]:
        for field in line.split(","):
            try:
                found.append(float(field))
            except ValueError:  # the header, or fail-dist's "tail" key
                pass
    return found


class TestDomain:
    """The config's ranges, generated from `CONFIG_SCHEMA`: each bound refuses
    the value just outside it, and every command gives finite numbers at the
    ranges' worst corners."""

    @pytest.mark.parametrize(
        "command, path, value, check",
        [("windfield", *bound) for bound in _BOUNDS]
        # The velocity that, before it had a range, overflowed the kernel's
        # distances (windfield, failure-rates) and the obround area (critzone).
        + [(c, "track.vtr_mps", [9e306, 9e306], "in [-50, 50]") for c in ("windfield", "failure-rates", "critzone")],
        ids=lambda x: str(x).replace(" ", ""),
    )
    def test_each_bound_just_outside_exits_2(self, tmp_path, capsys, command, path, value, check):
        cfg = _write_config(tmp_path)
        assert main([command, "--config", cfg, "--set", f"{path}={json.dumps(value)}"]) == 2
        assert capsys.readouterr().err == f"error: invalid config: {path}: value {value!r} out of range ({check})\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "corner, command",
        # tables123 reads only nhpp.*, the same at either B.
        [(c, command) for c in _CORNERS for command in _CORNER_COMMANDS if not (command == "tables123" and "B3" in c)],
        ids=lambda x: x.replace(" ", ""),
    )
    def test_worst_corner_gives_finite_numbers(self, tmp_path, capsys, corner, command):
        sets = [f"{path}={json.dumps(value)}" for path, value in _CORNERS[corner].items()]
        argv = command.split() + [a for assignment in sets for a in ("--set", assignment)]
        if command.startswith("outage-fit"):
            cfg, obs_csv = _outage_inputs(tmp_path)
            argv += ["--obs", str(obs_csv)]
        else:
            cfg = _write_config(tmp_path)
        rc = main(argv + ["--config", cfg])
        err = capsys.readouterr().err
        cap = "swath" if command == "sweep-fit --target critzone" else None
        if command.startswith("fail-dist") and "--n-max" not in command and corner.startswith("large"):
            cap = "--n-max"  # rates of about 1e12
        if cap is None:
            assert (rc, err) == (0, "")
            numbers = [x for path in (tmp_path / "out").iterdir() for x in _numbers(path)]
            assert numbers and all(map(math.isfinite, numbers))
        else:
            assert rc == 2 and re.fullmatch(f"error: invalid input: {_CAPS[cap]}\n", err), err
            assert not (tmp_path / "out").exists()


def outage_fit_reference(cfg, obs_csv, predictor, path):
    """Reference `outage-fit`: the command as it was before it built its own
    design, with per-county exposure closures, `glm._outage_design` and
    `glm.fit_outages`.  Writes the report to `path`."""
    config = load_config(cfg, [])
    counties = load_county_fixture(config["counties_csv"])
    observations = load_observations(obs_csv)
    built = cli._build(config)
    ens = generate_synthetic_ensemble(built.spec, built.grid, built.times, threads=1)
    nparams = built.nhpp
    dt = ens.times.dt
    v = ens.velocities()
    if predictor == "failure_rate":
        per_cell = np.cumsum(nhpp.poisson_intensity(nparams, v) * dt, axis=-1).mean(axis=0)
    else:
        per_cell = np.cumsum(v, axis=-1).mean(axis=0)

    def county_exposure(name):
        county = counties[name]

        def at(time_h: float) -> float:
            k = int(np.clip(np.floor(time_h / dt), 0, ens.times.n_steps - 1))
            return county_average(per_cell[:, k], county)

        return at

    exposure_by_county = {name: county_exposure(name) for name in counties.names()}
    xs, ys, ns = [], [], []
    for obs in observations:
        xs.append(float(exposure_by_county[obs.county](obs.time_h)))
        ys.append(obs.outages)
        ns.append(obs.households)
    x = np.array(xs)
    X = np.column_stack([np.ones_like(x), x])
    fit = fit_binomial(X, np.array(ys, dtype=float), np.array(ns, dtype=float))
    report = {
        "config_sha256": config_hash(config),
        "predictor": predictor,
        "beta": [float(b) for b in fit.beta],
        "se": [float(s) for s in fit.se],
        "wald_p_values": [float(p) for p in fit.p_values],
        "deviance": fit.deviance,
        "null_deviance": fit.null_deviance,
        "lr_p_value": fit.lr_p_value,
        "n_iterations": fit.n_iter,
        "converged": fit.converged,
        "separated": fit.separated,
        "significant_at_0p05": bool(fit.p_values[1] < 0.05),
    }
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _outage_inputs(tmp_path, extra_obs=()):
    counties = CountySet(
        [
            County(name="near", cells=set(range(60, 84)), households=5000),
            County(name="far", cells={0, 1, 2}, households=5000),
        ]
    )
    counties_csv = tmp_path / "counties.csv"
    save_county_fixture(counties, counties_csv)
    obs = []
    # Times off the step grid and past both ends of the 6-step horizon.
    for t in (-1.0, 0.0, 1.5, 2.0, 3.99, 5.0, 7.5):
        obs.append(OutageObservation(county="near", time_h=t, outages=int(40 * (t + 2)), households=5000))
        obs.append(OutageObservation(county="far", time_h=t, outages=2, households=5000))
    obs_csv = tmp_path / "obs.csv"
    save_observations(obs + list(extra_obs), obs_csv)
    return _write_config(tmp_path, counties_csv=str(counties_csv)), obs_csv


class TestOutageFit:
    @pytest.mark.parametrize("predictor", ["failure_rate", "cumulative_velocity"])
    def test_report_matches_reference_pipeline(self, tmp_path, predictor):
        cfg, obs_csv = _outage_inputs(tmp_path)
        assert main(["outage-fit", "--config", cfg, "--obs", str(obs_csv), "--predictor", predictor]) == 0
        outage_fit_reference(cfg, obs_csv, predictor, tmp_path / "reference.json")
        got = (tmp_path / "out" / "outage_fit.json").read_bytes()
        assert got == (tmp_path / "reference.json").read_bytes()

    def test_unknown_county_exits_2_before_the_ensemble(self, tmp_path, capsys, monkeypatch):
        stray = OutageObservation(county="zz", time_h=1.0, outages=1, households=10)
        cfg, obs_csv = _outage_inputs(tmp_path, [stray])

        def refuse(*args, **kwargs):
            raise AssertionError("ensemble generated for a bad --obs file")

        monkeypatch.setattr(ensemble.SyntheticEnsemble, "fields", refuse)
        assert main(["outage-fit", "--config", cfg, "--obs", str(obs_csv)]) == 2
        err = capsys.readouterr().err
        assert "--obs" in err and "'zz'" in err
        assert not (tmp_path / "out" / "outage_fit.json").exists()

    def test_nan_time_row_named_by_line_before_the_ensemble(self, tmp_path, capsys, monkeypatch):
        cfg, obs_csv = _outage_inputs(tmp_path)
        lines = obs_csv.read_text().splitlines(keepends=True)
        header = 1 + lines[0].startswith("#")
        lines.insert(header, "near,nan,1,100\n")
        obs_csv.write_text("".join(lines))
        monkeypatch.setattr(ensemble.SyntheticEnsemble, "fields", None)  # never reached
        assert main(["outage-fit", "--config", cfg, "--obs", str(obs_csv)]) == 2
        err = capsys.readouterr().err
        assert f"{obs_csv}:{header + 1}: time_h must be finite, got nan" in err
        assert "Traceback" not in err and "cannot convert" not in err

    def test_bad_counties_file_exits_2_naming_the_line_before_the_ensemble(
        self, tmp_path, capsys, monkeypatch
    ):
        self._check_bad_county_row(tmp_path, capsys, monkeypatch, "near,many,5000,1.0", "malformed row")

    @pytest.mark.parametrize(
        "row, message",
        [
            ("west,100,-5,0.0", "households must be finite and in [0, 1e9], got -5"),
            ("west,100,10,-1.0", "asset_density must be finite and >= 0, got -1.0"),
            ("west,0,10,0.0", "cell 0 assigned to both 'far' and 'west'"),  # after far's row for cell 0
            ("a,0,10,nan", "asset_density must be finite and >= 0, got nan"),
            ("b,1,10,inf", "asset_density must be finite and >= 0, got inf"),
        ],
        ids=["households", "asset-density", "cell-in-two-counties", "asset-density-nan", "asset-density-inf"],
    )
    def test_bad_county_value_exits_2_naming_the_line_before_the_ensemble(
        self, tmp_path, capsys, monkeypatch, row, message
    ):
        self._check_bad_county_row(tmp_path, capsys, monkeypatch, row, message)

    @staticmethod
    def _check_bad_county_row(tmp_path, capsys, monkeypatch, row, message):
        cfg, obs_csv = _outage_inputs(tmp_path)
        counties_csv = tmp_path / "counties.csv"
        lines = counties_csv.read_text().splitlines(keepends=True)
        header = 1 + lines[0].startswith("#")
        lines.insert(header + 1, f"{row}\n")
        counties_csv.write_text("".join(lines))
        monkeypatch.setattr(ensemble.SyntheticEnsemble, "fields", None)  # never reached
        assert main(["outage-fit", "--config", cfg, "--obs", str(obs_csv)]) == 2
        err = capsys.readouterr().err
        assert f"error: invalid input: counties_csv: {counties_csv}:{header + 2}: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("cell", [999, -3])  # past the end, and one that numpy would wrap to cell 141
    def test_county_cell_outside_the_grid_exits_2_before_the_ensemble(self, tmp_path, capsys, monkeypatch, cell):
        cfg, obs_csv = _outage_inputs(tmp_path)
        counties_csv = tmp_path / "counties.csv"
        counties_csv.write_text(counties_csv.read_text() + f"far,{cell},5000,0.0\n")
        monkeypatch.setattr(ensemble.SyntheticEnsemble, "fields", None)  # never reached
        assert main(["outage-fit", "--config", cfg, "--obs", str(obs_csv)]) == 2
        assert capsys.readouterr().err == (
            f"error: invalid input: counties_csv: county 'far': cell {cell} outside [0, 144)\n"
        )

    @pytest.mark.parametrize("which", ["--obs", "counties_csv"])
    def test_file_not_utf8_exits_2_naming_the_line(self, tmp_path, capsys, monkeypatch, which):
        cfg, obs_csv = _outage_inputs(tmp_path)
        path = obs_csv if which == "--obs" else tmp_path / "counties.csv"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[3] = b"\xff" + lines[3]
        path.write_bytes(b"".join(lines))
        monkeypatch.setattr(ensemble.SyntheticEnsemble, "fields", None)  # never reached
        assert main(["outage-fit", "--config", cfg, "--obs", str(obs_csv)]) == 2
        assert capsys.readouterr().err == f"error: invalid input: {which}: {path}:4: byte 0xff is not UTF-8\n"

    def test_end_to_end(self, tmp_path):
        counties = CountySet(
            [
                County(name="near", cells=set(range(60, 84)), households=5000),
                County(name="far", cells={0, 1, 2}, households=5000),
            ]
        )
        counties_csv = tmp_path / "counties.csv"
        save_county_fixture(counties, counties_csv)
        obs = []
        for t in range(6):
            obs.append(OutageObservation(county="near", time_h=float(t), outages=40 * (t + 1), households=5000))
            obs.append(OutageObservation(county="far", time_h=float(t), outages=2, households=5000))
        obs_csv = tmp_path / "obs.csv"
        save_observations(obs, obs_csv)
        cfg = _write_config(tmp_path, counties_csv=str(counties_csv))
        for predictor in ("failure_rate", "cumulative_velocity"):
            rc = main(["outage-fit", "--config", cfg, "--obs", str(obs_csv), "--predictor", predictor])
            assert rc == 0
            report = json.loads((tmp_path / "out" / "outage_fit.json").read_text())
            assert report["predictor"] == predictor
            assert len(report["beta"]) == 2
            assert np.all(np.isfinite(report["beta"])) and np.all(np.isfinite(report["se"]))

    def test_requires_counties(self, tmp_path, capsys):
        obs_csv = tmp_path / "obs.csv"
        save_observations(
            [OutageObservation(county="a", time_h=0.0, outages=1, households=10)], obs_csv
        )
        cfg = _write_config(tmp_path)
        assert main(["outage-fit", "--config", cfg, "--obs", str(obs_csv)]) == 2
        assert "counties_csv" in capsys.readouterr().err


def _golden_digest(path) -> str:
    """SHA-256 of an output file without the lines that carry the config
    hash: a CSV's `# config_sha256=` line, a report's `config_sha256` key
    and the sidecar's `comment`.  The hash moves with the output directory."""
    lines = path.read_bytes().splitlines(keepends=True)
    return hashlib.sha256(b"".join(line for line in lines if b"config_sha256" not in line)).hexdigest()


_CRITZONE_SWEEP = {"Vm_min": 25, "Vm_max": 46, "Vm_step": 7, "Rm_min": 20, "Rm_max": 50, "Rm_step": 10}
_AGGREGATE_SWEEP = {"Vm_min": 22, "Vm_max": 80, "Vm_step": 6, "Rm_min": 20, "Rm_max": 50, "Rm_step": 10}
_SOUTH = {"asymmetric": True, "hemisphere": "S"}
_NORTH = {"asymmetric": True, "hemisphere": "N"}

# One row per invocation: (argv after the command's config, config fields,
# the digest of each file it writes).  The config is `_write_config`'s
# 12 x 12 cells, 6 steps and 4 members.
GOLDEN = {
    "windfield": (
        ["windfield"], {},
        {
            "windfield.csv": "880fef07d17dc1229505ff4aba8e45ee2360b9a7e5e61ef61424b1a2ce44085a",
        },
    ),
    "windfield-south": (
        ["windfield"], {"field": _SOUTH},
        {
            "windfield.csv": "f8358042f90f70de973d14e7469680ac79425b29d175f55de937b0b4e6f1c6a9",
        },
    ),
    "windfield-north": (
        ["windfield"], {"field": _NORTH},
        {
            "windfield.csv": "acfdfaef4b97caa02d51b1a8cf5c1f5b1042217bcbe7639920be5215869b37d8",
        },
    ),
    "ensemble": (
        ["ensemble"], {},
        {
            "ensemble.csv": "6c4bee746c8505db8ec986480dcc613a5929ec5ca76d6a7e8ff8bbe36eddf2f7",
            "ensemble.csv.json": "63f45820051699cf24033d0bc7b320120a111ad2ca106780daa6f1b7c4ad8688",
        },
    ),
    "ensemble-asymmetric": (
        ["ensemble"], {"field": _NORTH},
        {
            "ensemble.csv": "68e391d095336d740d2e7e5eeb594205787917c6e35a90b8ec819320c5ed956f",
            "ensemble.csv.json": "63f45820051699cf24033d0bc7b320120a111ad2ca106780daa6f1b7c4ad8688",
        },
    ),
    "fr1": (
        ["failure-rates", "--which", "fr1"], {},
        {
            "failure_rates_fr1.csv": "3040b2cbabe37763ffcaea940f9a89d7b611b11106bc03c4d96336791716d03e",
        },
    ),
    "fr2": (
        ["failure-rates", "--which", "fr2"], {},
        {
            "failure_rates_fr2.csv": "a5fec2bf5764c5a42660b326b35e13f94990a7999f7016bc6befebc26c280a50",
        },
    ),
    "fda": (
        ["fail-dist", "--kind", "fda", "--cells", "0,77,143"], {},
        {
            "fail_dist_fda_cell0.csv": "9c08287242dda0f66fb07057ad4c5de13e10ecddb2e8259246183fb9ada8d931",
            "fail_dist_fda_cell143.csv": "09c2b4d1cbc75d6d62d701c8ff84b9f115a90a514d38846f8dce8a5fff7752b5",
            "fail_dist_fda_cell77.csv": "f8a722b8dd072290cc39466e90bd098edc36d7c99b88b43ea9f5a6fd5048818c",
        },
    ),
    "fdb": (
        ["fail-dist", "--kind", "fdb", "--cells", "0,77,143"], {},
        {
            "fail_dist_fdb_cell0.csv": "3a5393ba721a64d591031cae3f6728f739071c9cb65095e306660046fb95245f",
            "fail_dist_fdb_cell143.csv": "5b7c3cc03a7b85c58373bb2b70b8b17b892090849c998933ff2f714a32ff8b77",
            "fail_dist_fdb_cell77.csv": "743b3e40bd7e7db9dd6d215320b72228cbc80a24baa914d19a05c66ca52d0be5",
        },
    ),
    "critzone": (
        ["critzone"], {},
        {
            "critzone_cells.csv": "4a057074a8a8fc1775a42f08d6a4181c1c01afad0de0c8b887ed1a06819dc7a6",
            "critzone_stats.json": "0708df6fa25c6689d5f7f76ee8e4888b58e3906711114ba94ae2754800c85741",
        },
    ),
    "critzone-south": (
        ["critzone"], {"field": _SOUTH},
        {
            "critzone_cells.csv": "4a057074a8a8fc1775a42f08d6a4181c1c01afad0de0c8b887ed1a06819dc7a6",
            "critzone_stats.json": "91a4498d8c86c7989ccf15fe6ea8ea794c721e3d97817eab2f7376b20bf24b32",
        },
    ),
    "sweep-critzone": (
        ["sweep-fit", "--target", "critzone"], {"sweep": _CRITZONE_SWEEP},
        {
            "critzone_fit.json": "7589e7fd94140004518c59e332c70d4f328f9f362034c4e3aad98de3700f145e",
            "critzone_sweep.csv": "e45555044f0d812256e79c5edd77402e4ab2fa228d5b984aa069921c40d9f1ec",
        },
    ),
    "sweep-damage": (
        ["sweep-fit", "--target", "damage"], {"sweep": _AGGREGATE_SWEEP},
        {
            "damage_fit.json": "59f684b6f1145b1dd375d017ccf2b57a7a2077ab6974f4d6c7d9665b2a762c7c",
            "damage_sweep.csv": "bbe56e7ecc01e51bd6acbdb84cb9e5e89b2aec4bc51d5e3b8af78a499e3cfe10",
        },
    ),
    "sweep-loss": (
        ["sweep-fit", "--target", "loss"], {"sweep": _AGGREGATE_SWEEP},
        {
            "loss_fit.json": "332e3a0acbd3983e938351f3814da29d256225f7bf4ab4133d53603d00674abf",
            "loss_sweep.csv": "bbe56e7ecc01e51bd6acbdb84cb9e5e89b2aec4bc51d5e3b8af78a499e3cfe10",
        },
    ),
    "outage-rate": (
        ["outage-fit", "--predictor", "failure_rate"], {},
        {
            "outage_fit.json": "f996358c8f33ada98605b53141efd490e0d376e2e497f90672c9158fbd9f1dad",
        },
    ),
    "outage-speed": (
        ["outage-fit", "--predictor", "cumulative_velocity"], {},
        {
            "outage_fit.json": "f4d211c94e462a8d6fc85242717f6034a41e9bd35a66bea1262e30297796f0f2",
        },
    ),
    "tables123": (
        ["tables123"], {},
        {
            "tables123.csv": "d044166dd1d4b36175b31f28598bbcfe1f598cf5ffca2e33513fff87252bf34e",
        },
    ),
}


class TestGoldenOutputs:
    """Every command's output files, pinned byte for byte."""

    @pytest.mark.parametrize("name", GOLDEN)
    def test_output_bytes(self, tmp_path, name):
        argv, fields, digests = GOLDEN[name]
        if argv[0] == "outage-fit":
            cfg, obs_csv = _outage_inputs(tmp_path)
            argv = argv + ["--obs", str(obs_csv)]
        else:
            cfg = _write_config(tmp_path, **fields)
        assert main(argv + ["--config", cfg]) == 0
        out = tmp_path / "out"
        assert {path.name: _golden_digest(path) for path in out.iterdir()} == digests
