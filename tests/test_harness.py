"""Experiment-harness and CLI tests."""

import argparse
import concurrent.futures
import dataclasses
import itertools
import json
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mcms.cli as cli
import mcms.harness as harness
from mcms import (
    ChannelParams,
    EnumerationBudgetError,
    ExperimentConfig,
    InstanceError,
    StreamSpec,
    SweepResult,
    generate_scenario,
    instance_from_dict,
    load_instance,
    run_sweep,
    sample_rates,
    derive_instance,
    served,
    solve_greedy,
    solve_sc_baseline,
    write_csv,
    write_meta,
    write_raw_csv,
)
from mcms.cli import main

from conftest import (assert_same_sweep, coverage_sets, random_instance,
                      run_subframe)

TINY = ExperimentConfig(trials=2, subframes=4, users_per_cell=20, seed=3)

GAP_DOC = {
    "M": 7, "C": 2, "N": 2,
    "collections": [[[0, 1, 2, 3], [4, 5]], [[0, 1, 2, 3, 4], [4, 5, 6]]],
    "primary": [0, 0, 0, 0, 0, 0, 0],
}


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(num_cells=5)
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(radius_m=-10.0)
    with pytest.raises(ValueError):
        ExperimentConfig(stream_rate_bps=0.0)
    # Sub-frame indices 0 to 2**32 - 1 each take one seed word.
    assert ExperimentConfig(subframes=2**32).subframes == 2**32


@pytest.mark.parametrize("field, value", [
    ("num_cells", 7.0), ("trials", True), ("subframes", 2.5), ("seed", "1"),
    ("radius_m", float("nan")), ("radius_m", float("inf")),
    ("radius_m", "300"), ("stream_rate_bps", float("inf")), ("seed", -1),
    ("stream_rate_bps", 1e300), ("subframes", 2**32 + 1),
    pytest.param("radius_m", 10**400, id="radius_m-int-beyond-floats"),
    pytest.param("stream_rate_bps", -10**400,
                 id="stream_rate_bps-int-beyond-floats"),
])
def test_config_rejects_non_numbers_and_unreachable_values(field, value):
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("seed", np.int64(3)), ("users_per_cell", np.int32(5)),
    ("radius_m", np.float32(300.0)),
    ("stream_rate_bps", np.float32(1.4e6)),
])
def test_config_stores_numpy_scalars_as_plain_numbers(tmp_path, field,
                                                      value):
    # json writes plain ints and floats only: the .meta.json of a config
    # given numpy scalars is written, with the same numbers.
    config = ExperimentConfig(**{"trials": 1, "subframes": 2,
                                 "users_per_cell": 5, field: value})
    assert type(getattr(config, field)) is type(value.item())
    result = run_sweep(config, "users", values=(5,))
    write_meta(result, tmp_path / "m.csv")
    meta = json.loads((tmp_path / "m.csv.meta.json").read_text())
    assert meta["config"][field] == value.item()


@pytest.mark.parametrize("field, value", [
    ("tx_power_dbm", np.float32(30.0)), ("bandwidth_hz", np.float64(180e3)),
    ("min_distance_m", np.int64(10)), ("pathloss_slope_db", np.float16(37.5)),
])
def test_channel_params_store_numpy_scalars_as_plain_floats(tmp_path, field,
                                                            value):
    # The .meta.json of a channel given numpy scalars is written, byte for
    # byte the one of the same channel given plain floats.
    plain = dataclasses.replace(TINY, trials=1, subframes=2,
                                channel=ChannelParams(**{field: float(value)}))
    given = dataclasses.replace(plain, channel=ChannelParams(**{field: value}))
    assert type(getattr(given.channel, field)) is float
    for config, name in ((plain, "plain"), (given, "given")):
        write_meta(run_sweep(config, "users", values=(20,)),
                   tmp_path / f"{name}.csv")
    assert ((tmp_path / "given.csv.meta.json").read_bytes()
            == (tmp_path / "plain.csv.meta.json").read_bytes())


def test_run_sweep_progress_lines_report_samples_per_second():
    lines = []
    result = run_sweep(TINY, "users", values=(20, 30), progress=lines.append)
    assert len(lines) == 2
    for line, value, point in zip(lines, result.values, result.counts):
        m = re.fullmatch(r"users=(\d+): SC=(\d+\.\d{3}) MC=(\d+\.\d{3}) "
                         r"\((\d+) samples/s\)", line)
        assert m, line
        assert float(m[1]) == value
        assert m[2] == f"{point[0].mean():.3f}"
        assert m[3] == f"{point[1].mean():.3f}"
        assert int(m[4]) > 0


def test_run_subframe_extremes():
    scenario = generate_scenario(7, 300.0, 10, 5)
    params = ChannelParams()
    m = scenario.num_users
    mc, sc = run_subframe(scenario, params, StreamSpec(rate_bps=1e15), 5)
    assert (mc, sc) == (m, m)
    mc, sc = run_subframe(scenario, params, StreamSpec(rate_bps=1e-9), 5)
    assert (mc, sc) == (0, 0)


def test_run_subframe_matches_solver_objectives():
    # harness counts must agree with the coverage-core objective of each
    # solver's own allocation
    scenario = generate_scenario(7, 300.0, 15, 9)
    params = ChannelParams()
    stream = StreamSpec()
    rng = np.random.default_rng(9)
    rates = sample_rates(scenario, params, rng, num_prbs=4)
    inst = derive_instance(scenario, rates, stream)
    mc, sc = run_subframe(scenario, params, stream,
                          np.random.default_rng(9))
    m = inst.num_users
    g = solve_greedy(inst)
    b = solve_sc_baseline(inst)
    assert mc == m - served(inst, g.alloc)[0].sum() == m - g.objective
    assert sc == m - served(inst, b.alloc)[1].sum() == m - b.objective


def test_run_sweep_deterministic_and_equal():
    a = run_sweep(TINY, "users", values=(20, 30))
    b = run_sweep(TINY, "users", values=(20, 30))
    assert_same_sweep(a, b)
    assert a.values == (20.0, 30.0)
    # [points, columns SC and MC, trials, sub-frames]
    assert a.counts.shape == (2, 2, TINY.trials, TINY.subframes)
    assert a.counts.dtype == np.int64
    with pytest.raises(ValueError, match="read-only"):
        a.counts[0, 0, 0, 0] = 1


def test_run_sweep_point_isolation():
    # dropping later values must not change earlier points
    full = run_sweep(TINY, "users", values=(20, 30))
    head = run_sweep(TINY, "users", values=(20,))
    assert np.array_equal(full.counts[:1], head.counts)


def test_run_sweep_rejects_bad_values():
    with pytest.raises(ValueError, match="axis"):
        run_sweep(TINY, "prbs", values=(1, 2))
    with pytest.raises(ValueError, match="increasing"):
        run_sweep(TINY, "users", values=(30, 20))
    with pytest.raises(ValueError, match="increasing"):
        run_sweep(TINY, "radius", values=(200, 200))
    with pytest.raises(ValueError, match="at least one"):
        run_sweep(TINY, "users", values=())


def test_run_sweep_rejects_fractional_users_before_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking the values")

    monkeypatch.setattr(harness, "unserved_counts", no_sampling)
    config = ExperimentConfig(trials=1, subframes=2)
    with pytest.raises(ValueError, match="users_per_cell.*20.7"):
        run_sweep(config, "users", values=[20.7, 30])


def test_run_sweep_radius_axis():
    res = run_sweep(TINY, "radius", values=(250, 350))
    assert res.axis == "radius"
    assert res.values == (250.0, 350.0)


def test_sweep_means_match_raw_samples(tmp_path):
    # The written per-sample dump gives back, exactly, the CSV's means
    # and the .meta.json's means and standard deviations.
    res = run_sweep(TINY, "users", values=(20, 35))
    out, raw = tmp_path / "u.csv", tmp_path / "u.raw.csv"
    write_csv(res, out)
    write_meta(res, out)
    write_raw_csv(res, raw)
    rows = [line.split(",") for line in raw.read_text().splitlines()[1:]]
    assert len(rows) == 2 * TINY.trials * TINY.subframes
    means = [line.split(",") for line in out.read_text().splitlines()[1:]]
    stats = json.loads((tmp_path / "u.csv.meta.json").read_text())["points"]
    for (value, *mean), point in zip(means, stats):
        # One column of samples per scheduler, in the dump's row order.
        samples = [np.array([int(r[i]) for r in rows if r[0] == value])
                   for i in (3, 4)]
        assert [len(column) for column in samples] == [point["samples"]] * 2
        for name, written, column in zip(("sc", "mc"), mean, samples):
            assert float(written) == float(column.mean())
            assert point[f"mean_{name}"] == float(column.mean())
            assert point[f"std_{name}"] == float(column.std())


def test_sweep_with_exact_column(tmp_path):
    config = ExperimentConfig(trials=1, subframes=3, users_per_cell=8,
                              num_prbs=2, seed=1)
    res = run_sweep(config, "users", values=(8, 12), with_exact=True)
    sc, mc, exact = np.moveaxis(res.counts, 1, 0)
    assert (exact <= sc).all() and (exact <= mc).all()
    out = tmp_path / "exact.csv"
    write_csv(res, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "users,SC,MC,EXACT"


@pytest.mark.parametrize("exact", [False, True])
def test_every_writer_names_the_same_columns(tmp_path, exact):
    out, raw = tmp_path / "c.csv", tmp_path / "c.raw.csv"
    assert main(["sweep-users", "--out", str(out), "--dump-raw", str(raw),
                 "--values", "10,20", "--trials", "2", "--subframes", "2",
                 "--prbs", "2"] + ["--exact"] * exact) == 0
    columns = out.read_text().splitlines()[0].split(",")[1:]
    assert columns == ["SC", "MC", "EXACT"][:2 + exact]
    assert raw.read_text().splitlines()[0].split(",")[3:] == columns
    # The sidecar's keys are sorted: the same names in sorted order.
    meta = json.loads((tmp_path / "c.csv.meta.json").read_text())
    assert list(meta["columns"]) == sorted(columns)
    for point in meta["points"]:
        for stat in ("mean_", "std_"):
            assert [key[len(stat):] for key in point
                    if key.startswith(stat)] == sorted(map(str.lower,
                                                           columns))


def test_write_csv_headers_and_rows(tmp_path):
    res = run_sweep(TINY, "users", values=(20, 30))
    out = tmp_path / "users.csv"
    write_csv(res, out)
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == "users,SC,MC"
    assert len(lines) == 3
    assert text.endswith("\n")
    assert lines[1].split(",")[0] == "20"

    rres = run_sweep(TINY, "radius", values=(250, 300))
    rout = tmp_path / "radius.csv"
    write_csv(rres, rout)
    assert rout.read_text().splitlines()[0] == "radius,SC,MC"


def test_write_csv_rejects_empty_result(tmp_path):
    empty = SweepResult(axis="users", config=TINY, values=(),
                        columns=("SC", "MC"),
                        counts=np.empty((0, 2, TINY.trials, TINY.subframes),
                                        dtype=np.int64))
    target = tmp_path / "nope.csv"
    with pytest.raises(ValueError):
        write_csv(empty, target)
    assert not target.exists()


def test_csv_numbers_stay_plain_decimal(tmp_path):
    # tiny means must not fall into exponent notation: one SC miss in
    # 20,000 samples
    config = dataclasses.replace(TINY, trials=1, subframes=20_000)
    counts = np.zeros((1, 2, 1, 20_000), dtype=np.int64)
    counts[0, 0, 0, 0] = 1
    res = SweepResult(axis="users", config=config, values=(100.0,),
                      columns=("SC", "MC"), counts=counts)
    out = tmp_path / "small.csv"
    write_csv(res, out)
    assert out.read_text().splitlines()[1] == "100,0.00005,0.0"


def test_write_raw_csv(tmp_path):
    res = run_sweep(TINY, "users", values=(20,))
    out = tmp_path / "raw.csv"
    write_raw_csv(res, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "users,trial,subframe,SC,MC"
    assert len(lines) == 1 + TINY.trials * TINY.subframes
    # Rows run over trials, then sub-frames, and hold SC then MC.
    for line, (trial, t) in zip(lines[1:], np.ndindex(TINY.trials,
                                                      TINY.subframes)):
        sc, mc = res.counts[0, :, trial, t]
        assert line == f"20,{trial},{t},{sc},{mc}"


def test_write_meta_sidecar(tmp_path):
    res = run_sweep(TINY, "users", values=(20,))
    csv_path = tmp_path / "m.csv"
    write_csv(res, csv_path)
    write_meta(res, csv_path)
    meta = json.loads((tmp_path / "m.csv.meta.json").read_text())
    assert meta["axis"] == "users"
    assert "averaging" in meta
    assert meta["config"]["trials"] == 2
    assert meta["points"][0]["samples"] == 8
    assert "std_sc" in meta["points"][0]


def test_instance_json_round_trip(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(GAP_DOC))
    loaded = load_instance(path)
    assert (loaded.num_users, loaded.num_cells, loaded.prbs_per_cell) == (
        7, 2, 2)
    assert [[sorted(s) for s in cell] for cell in coverage_sets(loaded)] == (
        GAP_DOC["collections"])
    assert loaded.primary_cell.tolist() == GAP_DOC["primary"]


def test_instance_from_dict_rejects_inconsistent_docs():
    good = {"M": 2, "C": 1, "N": 2, "collections": [[[0], [1]]],
            "primary": [0, 0]}
    instance_from_dict(good)
    with pytest.raises(InstanceError):
        instance_from_dict({**good, "C": 2})
    with pytest.raises(InstanceError):
        instance_from_dict({**good, "N": 3})
    with pytest.raises(InstanceError, match="bad instance"):
        instance_from_dict({"M": 1})


def test_random_instance_shape(rng):
    inst = random_instance(rng, num_users=10, num_cells=3, num_prbs=2,
                           density=1.0)
    assert inst.num_users == 10
    assert inst.num_cells == 3
    assert inst.prbs_per_cell == 2
    assert all(s == frozenset(range(10))
               for cell in coverage_sets(inst) for s in cell)


# CLI


def _write_gap(tmp_path):
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(GAP_DOC))
    return str(path)


def test_cli_solve_prints_all_three_solvers(tmp_path, capsys):
    rc = main(["solve", _write_gap(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "greedy=6" in out
    assert "exact=7" in out
    assert "sc=4" in out


def test_cli_solve_skip_exact(tmp_path, capsys):
    # --budget 0 skips the exact solver; there is no --skip-exact.
    path = _write_gap(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        main(["solve", path, "--skip-exact"])
    assert exit_.value.code == 2
    assert "--skip-exact" in capsys.readouterr().err
    assert main(["solve", path, "--budget", "0"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "greedy=6 alloc=1,0", "sc=4 alloc=0,0",
        "exact=skipped (needs 4 evaluations, budget 0)"]


def test_cli_solve_respects_budget(tmp_path, capsys):
    rc = main(["solve", _write_gap(tmp_path), "--budget", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "exact=skipped" in out
    assert "needs 4 evaluations" in out


@pytest.mark.parametrize("change", [
    {"collections": [[[1.7]]]},
    {"primary": [0, 0.5]},
    {"collections": [[[True]]]},
    {"primary": [0, False]},
    {"collections": [[["1"]]]},
    {"M": 2.5},
    {"N": "1"},
    {"collections": [[1]]},
], ids=["fractional_user", "fractional_primary", "bool_user",
        "bool_primary", "string_user", "fractional_M", "string_N",
        "set_not_a_list"])
def test_cli_solve_rejects_non_integer_ids(tmp_path, capsys, change):
    doc = {"M": 2, "C": 1, "N": 1, "collections": [[[1]]],
           "primary": [0, 0], **change}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc = main(["solve", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_cli_solve_checks_primary_cells_before_allocating(tmp_path, capsys):
    # 10^12 users would need a terabyte tensor; the one primary cell
    # listed is the error, found before anything is allocated
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"M": 10 ** 12, "C": 1, "N": 1,
                                "collections": [[[]]], "primary": [0]}))
    rc = main(["solve", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: primary_cell must assign every")


@pytest.mark.parametrize("command, name", [
    (["solve", "GAP", "--budget", "-1"], "--budget"),
    (["sweep-users", "--seed", "-1", "--out", "OUT"], "seed"),
])
def test_cli_rejects_negative_budget_and_seed(tmp_path, capsys, command,
                                              name):
    paths = {"GAP": _write_gap(tmp_path), "OUT": str(tmp_path / "x.csv")}
    rc = main([paths.get(a, a) for a in command])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: {name} must be >= 0, got -1\n"
    assert not (tmp_path / "x.csv").exists()


def test_cli_solve_accepts_integral_floats(tmp_path, capsys):
    path = tmp_path / "float.json"
    path.write_text(json.dumps({"M": 2.0, "C": 1, "N": 1,
                                "collections": [[[1.0]]],
                                "primary": [0, 0.0]}))
    assert main(["solve", str(path)]) == 0
    assert "exact=1 alloc=0" in capsys.readouterr().out


def test_cli_solve_missing_file_fails(tmp_path, capsys):
    rc = main(["solve", str(tmp_path / "absent.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b'{"seed": }', b"\xff{}"])
@pytest.mark.parametrize("kind", ["instance file"])
def test_cli_malformed_json_names_its_file(tmp_path, capsys, kind, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {kind} {path} is not valid JSON")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_cli_sweep_users_writes_csv_and_meta(tmp_path, capsys):
    out = tmp_path / "u.csv"
    rc = main(["sweep-users", "--out", str(out), "--values", "20,30",
               "--trials", "1", "--subframes", "2", "--seed", "5"])
    assert rc == 0
    assert out.read_text().splitlines()[0] == "users,SC,MC"
    assert (tmp_path / "u.csv.meta.json").exists()


def test_cli_sweep_byte_identical_reruns(tmp_path):
    args = ["sweep-users", "--seed", "1", "--values", "20,25",
            "--trials", "1", "--subframes", "2"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_sweep_radius_header(tmp_path):
    out = tmp_path / "r.csv"
    rc = main(["sweep-radius", "--out", str(out), "--values", "250,300",
               "--trials", "1", "--subframes", "2", "--users-per-cell", "15"])
    assert rc == 0
    assert out.read_text().splitlines()[0] == "radius,SC,MC"


def test_cli_dump_raw_consistent_with_csv(tmp_path):
    out = tmp_path / "u.csv"
    raw = tmp_path / "u.raw.csv"
    rc = main(["sweep-users", "--out", str(out), "--dump-raw", str(raw),
               "--values", "20", "--trials", "2", "--subframes", "3",
               "--seed", "2"])
    assert rc == 0
    mean_sc, mean_mc = out.read_text().splitlines()[1].split(",")[1:3]
    rows = [line.split(",") for line in raw.read_text().splitlines()[1:]]
    assert float(mean_sc) == np.mean([int(r[3]) for r in rows])
    assert float(mean_mc) == np.mean([int(r[4]) for r in rows])


def test_cli_seed_precedence(tmp_path):
    # The seed comes from --seed, or else is ExperimentConfig's 0.
    base = ["sweep-users", "--values", "20", "--trials", "1", "--subframes",
            "2", "--out"]
    default, zero, seven = (tmp_path / f"{name}.csv"
                            for name in ("default", "zero", "seven"))
    assert main(base + [str(default)]) == 0
    assert main(base + [str(zero), "--seed", "0"]) == 0
    assert main(base + [str(seven), "--seed", "7"]) == 0
    for suffix in ("", ".meta.json"):
        assert (Path(str(default) + suffix).read_bytes()
                == Path(str(zero) + suffix).read_bytes())
    assert seven.read_bytes() != default.read_bytes()
    meta = json.loads(Path(str(seven) + ".meta.json").read_text())
    assert meta["config"]["seed"] == 7


@pytest.mark.parametrize("command, knob", [("sweep-users", "radius"),
                                           ("sweep-radius", "users_per_cell")])
def test_cli_sweep_config_keys_are_its_own_knob_flags(command, knob):
    # A sweep command's knob flags are its seven knobs: the swept knob has
    # no flag.
    (commands,) = [action for action in cli._build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    flags = {flag for action in commands.choices[command]._actions
             for flag in action.option_strings}
    knobs = {"seed", "trials", "subframes", "prbs", "rate", "cells", knob}
    assert set(cli._knobs(command.removeprefix("sweep-"))) == knobs
    assert flags - {"-h", "--help", "--out", "--values", "--exact",
                    "--deterministic-fading", "--dump-raw"} == {
        "--" + key.replace("_", "-") for key in knobs}


@pytest.mark.parametrize("command, key, value, field", [
    ("sweep-users", "seed", 9, "seed"),
    ("sweep-users", "trials", 2, "trials"),
    ("sweep-users", "subframes", 3, "subframes"),
    ("sweep-users", "prbs", 3, "num_prbs"),
    ("sweep-users", "rate", 1.1e6, "stream_rate_bps"),
    ("sweep-users", "cells", 1, "num_cells"),
    ("sweep-users", "radius", 250.0, "radius_m"),
    ("sweep-radius", "users_per_cell", 15, "users_per_cell"),
])
def test_cli_every_config_knob_does_what_its_flag_does(tmp_path, command,
                                                       key, value, field):
    # The flag sets its own ExperimentConfig field: the CLI writes the same
    # CSV and .meta.json bytes as run_sweep given that field.
    assert cli._FIELDS[key][0] == field
    assert getattr(ExperimentConfig(), field) != value
    axis = command.removeprefix("sweep-")
    point = 20 if axis == "users" else 250
    fields = {"trials": 1, "subframes": 2, field: value}
    flag_out = tmp_path / "flag.csv"
    argv = [command, "--values", str(point), "--out", str(flag_out),
            "--" + key.replace("_", "-"), str(value)]
    for name in ("trials", "subframes"):
        if name != key:
            argv += [f"--{name}", str(fields[name])]
    assert main(argv) == 0
    config_out = tmp_path / "config.csv"
    result = run_sweep(ExperimentConfig(**fields), axis, values=[point])
    write_csv(result, config_out)
    write_meta(result, config_out)
    for suffix in ("", ".meta.json"):
        assert (Path(str(config_out) + suffix).read_bytes()
                == Path(str(flag_out) + suffix).read_bytes())
    meta = json.loads(Path(str(flag_out) + ".meta.json").read_text())
    assert meta["config"][field] == value


@pytest.mark.parametrize("axis, values, flag", [
    ("users", [20, 30], "20,30"),
    ("users", [20.0, 30], "20,30"),
    ("users", [20, 30], "20.0,30"),
    ("radius", [250, 300.5], "250,300.5"),
])
def test_cli_config_values_list_matches_the_flag(tmp_path, axis, values,
                                                 flag):
    # run_sweep given the values list writes the bytes that --values does.
    fields = {"users_per_cell": 10} if axis == "radius" else {}
    config = ExperimentConfig(trials=1, subframes=2, seed=5, **fields)
    from_list = tmp_path / "from_list.csv"
    result = run_sweep(config, axis, values=values)
    write_csv(result, from_list)
    write_meta(result, from_list)
    direct = tmp_path / "direct.csv"
    extra = ["--users-per-cell", "10"] if axis == "radius" else []
    assert main([f"sweep-{axis}", "--trials", "1", "--subframes", "2",
                 "--seed", "5", *extra, "--out", str(direct),
                 "--values", flag]) == 0
    for suffix in ("", ".meta.json"):
        assert (Path(str(from_list) + suffix).read_bytes()
                == Path(str(direct) + suffix).read_bytes())


def test_cli_values_flag_overrides_config_values(tmp_path):
    # --values replaces the axis's default values.
    assert 20 not in harness.SWEEP_AXES["users"][1]
    out = tmp_path / "x.csv"
    assert main(["sweep-users", "--out", str(out), "--values", "20",
                 "--trials", "1", "--subframes", "1"]) == 0
    assert [line.split(",")[0]
            for line in out.read_text().splitlines()[1:]] == ["20"]


def test_cli_rejects_unknown_config_keys(tmp_path, capsys):
    # A knob that is not one of the command's is an unknown flag, the
    # swept knob too: it takes its values only from --values.
    for command, flag in (("sweep-users", "--sded"),
                          ("sweep-users", "--users-per-cell"),
                          ("sweep-radius", "--radius")):
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", str(tmp_path / "x.csv"), "--trials",
                  "1", "--subframes", "1", flag, "5"])
        assert exc.value.code == 2
        assert (f"unrecognized arguments: {flag} 5"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["sweep-users", "sweep-radius"])
def test_cli_knobs_come_only_from_their_flags(tmp_path, capsys, monkeypatch,
                                              command):
    base = [command, "--values", "20" if command == "sweep-users" else "250",
            "--trials", "1", "--subframes", "2"]
    # No config file: --config is an unknown flag and nothing is written.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7}))
    out = tmp_path / "cfg" / "x.csv"
    out.parent.mkdir()
    with pytest.raises(SystemExit) as exc:
        main(base + ["--out", str(out), "--config", str(cfg)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert list(out.parent.iterdir()) == []

    # No seed from the environment: MCMS_SEED changes no byte.
    monkeypatch.setenv("MCMS_SEED", "7")
    assert main(base + ["--out", str(tmp_path / "env.csv")]) == 0
    monkeypatch.delenv("MCMS_SEED")
    assert main(base + ["--out", str(tmp_path / "plain.csv")]) == 0
    for suffix in ("", ".meta.json"):
        assert ((tmp_path / f"env.csv{suffix}").read_bytes()
                == (tmp_path / f"plain.csv{suffix}").read_bytes())
    meta = json.loads((tmp_path / "plain.csv.meta.json").read_text())
    assert meta["config"]["seed"] == 0


@pytest.mark.parametrize("flags, message", [
    (["--radius", "nan"], "radius_m must be a finite number"),
    (["--radius", "inf"], "radius_m must be a finite number"),
    (["--radius", "0"], "radius_m must be a finite number"),
    (["--rate", "inf"], "stream_rate_bps must be a finite number"),
    (["--rate", "nan"], "stream_rate_bps must be a finite number"),
    # No finite SNR reaches 1024 x the 180 kHz PRB bandwidth.
    (["--rate", "1e300"], "no finite SNR reaches it"),
    (["--rate", "1.8432e8"], "no finite SNR reaches it"),
    (["--subframes", str(2**32 + 1)], "subframes must be <= 2**32"),
    # Coordinates or station-user distances beyond the float range.
    (["--radius", "1e308"], "radius 1e+308 is too large for a 7-cell"),
    (["--radius", "5e307"], "radius 5e+307 is too large for a 7-cell"),
    (["--radius", "5e307", "--cells", "19"],
     "radius 5e+307 is too large for a 19-cell"),
    (["--radius", "1e308", "--cells", "1"],
     "radius 1e+308 is too large for a 1-cell"),
    (["sweep-radius", "--values", "1e308"],
     "radius 1e+308 is too large for a 7-cell"),
])
def test_cli_rejects_bad_flag_values(tmp_path, capsys, flags, message):
    out = tmp_path / "x.csv"
    command = ["sweep-users", "--values", "20"]
    if flags[0] == "sweep-radius":  # a command and values of its own
        command, flags = flags[:3], flags[3:]
    rc = main(command + ["--out", str(out), "--trials", "1", "--subframes",
                         "1"] + flags)
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("axis, values, message", [
    ("users", " , ", "values is empty"),
    ("users", "", "values is empty"),
    ("users", [20.5, 30], "values on the users axis must be whole numbers"),
    # A value beyond the float range.
    ("radius", [250, 10 ** 400], "values must be finite numbers"),
    ("users", "20,inf", "values must be finite numbers"),
    ("users", "20,x", "values must be comma-separated numbers"),
    ("users", [30, 20], "sweep values must be strictly increasing"),
])
def test_cli_rejects_bad_config_values_lists(tmp_path, capsys, axis, values,
                                             message):
    # A list of sweep values goes to --values comma-joined, text as it is.
    if not isinstance(values, str):
        values = ",".join(str(value) for value in values)
    rc = main([f"sweep-{axis}", "--trials", "1", "--subframes", "1",
               "--out", str(tmp_path / "x.csv"), "--values", values])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err
    assert not (tmp_path / "x.csv").exists()


# The fading seeds are numpy's SeedSequence algorithm computed in bulk:
# they must equal SeedSequence's states on every numpy allowed.
@pytest.mark.numpy_contract
def test_fading_seeds_are_bounded_to_the_placement():
    seeds = harness._FadingSeeds(7, 1, 2, 3)
    # Iteration stops at the first IndexError; islice bounds the check.
    listed = list(itertools.islice(seeds, 4))
    assert [s.generate_state(4, np.uint64).tolist() for s in listed] == [
        np.random.SeedSequence(7, spawn_key=(1, 2, 1, t)).generate_state(
            4, np.uint64).tolist() for t in range(3)]
    for t in (3, -1, 100):
        with pytest.raises(IndexError):
            seeds[t]
    assert len(seeds[1:100]) == 2 and seeds[3:100] == []


# The fading seeds are numpy's SeedSequence algorithm computed in bulk:
# they must equal SeedSequence's states on every numpy allowed.
@pytest.mark.numpy_contract
@settings(max_examples=100, deadline=None)
@given(
    # Seeds of 5 words outgrow the pool, keys from 2**32 take two words.
    seed=st.integers(0, 2**130) | st.integers(2**128, 2**130),
    point=st.integers(0, 2**40) | st.integers(2**32, 2**40),
    trial=st.integers(0, 2**40) | st.integers(2**32, 2**40),
    # At 2**32 sub-frames the last index fills its uint32 word.
    subframes=(st.integers(1, harness.MAX_SUBFRAMES)
               | st.just(harness.MAX_SUBFRAMES)),
    data=st.data(),
)
def test_fading_seeds_equal_numpy_seed_sequences(seed, point, trial,
                                                 subframes, data):
    seeds = harness._FadingSeeds(seed, point, trial, subframes)
    length = data.draw(st.integers(1, min(5, subframes)))
    anywhere = data.draw(st.integers(0, subframes - 1))
    # A slice that ends at the last sub-frame, and one anywhere.
    for first, stop in ((subframes - length, subframes),
                        (anywhere, min(anywhere + length, subframes))):
        got = seeds[first:stop]
        assert len(got) == stop - first
        for t, seed_t in zip(range(first, stop), got):
            want = np.random.SeedSequence(seed, spawn_key=(point, trial, 1,
                                                           t))
            assert np.array_equal(seed_t.generate_state(4, np.uint64),
                                  want.generate_state(4, np.uint64))
            assert np.array_equal(seed_t.generate_state(8),
                                  want.generate_state(8))
            assert (np.random.default_rng(seed_t).standard_exponential(8)
                    .tobytes() == np.random.default_rng(want)
                    .standard_exponential(8).tobytes())
    # One sub-frame read alone is the same seed.
    assert np.array_equal(seeds[anywhere].generate_state(4, np.uint64),
                          seeds[anywhere:anywhere + 1][0].generate_state(
                              4, np.uint64))


def test_fading_seeds_take_numpy_integers():
    words = [s.generate_state(8).tolist()
             for s in harness._FadingSeeds(7, 1, 2, 3)]
    seeds = harness._FadingSeeds(np.uint64(7), np.int64(1), np.int32(2), 3)
    assert [s.generate_state(8).tolist() for s in seeds] == words
    config = dataclasses.replace(TINY, seed=np.int64(TINY.seed))
    assert np.array_equal(run_sweep(config, "users", values=(20,)).counts,
                          run_sweep(TINY, "users", values=(20,)).counts)


def test_reading_every_fading_seed_holds_one_block():
    # The state words of all 50,000 sub-frames take 1.6 MB, and building
    # them in one pass peaks at some 5 MB.  Read a slice at a time, as
    # the kernel reads a batch's segments, the seeds keep nothing of the
    # slices before.
    seeds = harness._FadingSeeds(7, 1, 2, 50_000)
    tracemalloc.start()
    try:
        for first in range(0, len(seeds), 500):
            seeds[first:first + 500]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50_000 * 32 // 4, peak


@pytest.mark.parametrize("flags, message", [
    (["--out", "{missing}/x.csv"], "--out"),
    (["--out", "{tmp}"], "--out"),
    (["--out", "{tmp}/x.csv", "--dump-raw", "{missing}/raw.csv"],
     "--dump-raw"),
    (["--out", "{tmp}/x.csv", "--dump-raw", "{tmp}"], "--dump-raw"),
    # --dump-raw must not overwrite the CSV or its sidecar.
    (["--out", "{tmp}/x.csv", "--dump-raw", "{tmp}/./x.csv"], "--dump-raw"),
    (["--out", "{tmp}/x.csv", "--dump-raw", "{tmp}/x.csv.meta.json"],
     "--dump-raw"),
    # The CSV's .meta.json sidecar must be writable too.
    (["--out", "{taken}/x.csv"], "--out"),
], ids=[  # the names the cases had when the table held --config cases
    "flags0-None---out", "flags1-None---out", "flags2-None---dump-raw",
    "flags3-None---dump-raw", "flags5-None---dump-raw",
    "flags6-None---dump-raw", "flags8-None---out"])
def test_cli_rejects_unwritable_outputs_before_sampling(
        tmp_path, capsys, monkeypatch, flags, message):
    def no_sampling(*args, **kwargs):
        raise AssertionError("the kernel was entered")

    monkeypatch.setattr(harness, "unserved_counts", no_sampling)
    # {taken}/x.csv.meta.json is a directory.
    taken = tmp_path / "taken"
    (taken / "x.csv.meta.json").mkdir(parents=True)
    paths = {"tmp": str(tmp_path), "missing": str(tmp_path / "no" / "dir"),
             "taken": str(taken)}
    argv = ["sweep-users", "--trials", "2", "--subframes", "50"]
    argv += [flag.format(**paths) for flag in flags]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message} ")
    # Neither the CSV nor any sidecar.
    assert set(tmp_path.rglob("*")) <= {taken, taken / "x.csv.meta.json"}


def test_cli_requires_out(capsys):
    rc = main(["sweep-users", "--values", "20", "--trials", "1",
               "--subframes", "1"])
    assert rc == 2
    assert "--out" in capsys.readouterr().err


def test_cli_rejects_bad_values(tmp_path, capsys):
    rc = main(["sweep-users", "--out", str(tmp_path / "x.csv"),
               "--values", "20,oops"])
    assert rc == 2
    rc = main(["sweep-users", "--out", str(tmp_path / "x.csv"),
               "--values", "30,20", "--trials", "1", "--subframes", "1"])
    assert rc == 2


def test_cli_rejects_fractional_users_values(tmp_path, capsys):
    # 100.2 and 100.7 must not be truncated to 100,100
    rc = main(["sweep-users", "--out", str(tmp_path / "x.csv"),
               "--values", "100.2,100.7", "--trials", "1", "--subframes", "1"])
    assert rc == 2
    assert "whole numbers" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()
    rc = main(["sweep-users", "--out", str(tmp_path / "x.csv"),
               "--values", "100,inf", "--trials", "1", "--subframes", "1"])
    assert rc == 2
    assert "finite" in capsys.readouterr().err
    # whole numbers written as floats are fine on the users axis, and
    # fractions are fine on the radius axis
    assert main(["sweep-users", "--out", str(tmp_path / "u.csv"),
                 "--values", "20.0", "--trials", "1", "--subframes", "1"]) == 0
    assert main(["sweep-radius", "--out", str(tmp_path / "r.csv"),
                 "--values", "250.5", "--users-per-cell", "10",
                 "--trials", "1", "--subframes", "1"]) == 0
    assert (tmp_path / "r.csv").read_text().splitlines()[1].startswith("250.5,")


def test_cli_exact_infeasible_exits_before_sampling(tmp_path, capsys,
                                                    monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(harness, "generate_scenario", no_sampling)
    out = tmp_path / "x.csv"
    rc = main(["sweep-users", "--cells", "19", "--exact", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--exact cannot run with 19 cells and 4 PRBs" in err
    assert "274877906944" in err
    assert not out.exists()
    with pytest.raises(EnumerationBudgetError):
        run_sweep(ExperimentConfig(num_cells=19), "users", with_exact=True)


def test_cli_deterministic_fading_flag(tmp_path):
    out = tmp_path / "det.csv"
    rc = main(["sweep-users", "--out", str(out), "--values", "20",
               "--trials", "1", "--subframes", "2",
               "--deterministic-fading"])
    assert rc == 0
    meta = json.loads((tmp_path / "det.csv.meta.json").read_text())
    assert meta["config"]["channel"]["fading"] == "none"


def test_cli_has_three_commands_and_no_oracle_check(capsys):
    # The greedy's approximation audit lives in the tests
    # (test_greedy_approximation_bound_holds_everywhere), not the CLI.
    with pytest.raises(SystemExit) as exc:
        main(["oracle-check"])
    assert exc.value.code == 2
    assert "invalid choice: 'oracle-check'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    commands = re.search(r"\{(.*?)\}", capsys.readouterr().out).group(1)
    assert commands.split(",") == ["sweep-users", "sweep-radius", "solve"]


@pytest.mark.parametrize("argv, message", [
    # 10^16 users ask for some 900 PiB, beyond any 57-bit address space,
    # so the first allocation fails at once on every machine.
    (["--values", "10000000000000000", "--trials", "1"],
     "Unable to allocate "),
    # 10^20 trials exceed numpy's largest array dimension, 2**63 - 1.
    (["--values", "20", "--trials", "100000000000000000000"],
     "Maximum allowed dimension exceeded"),
], ids=["argv0", "argv1"])
def test_cli_reports_an_allocation_failure(tmp_path, capsys, argv, message):
    assert main(["sweep-users", *argv, "--subframes", "1",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert list(tmp_path.iterdir()) == []


def test_cli_exact_flag_adds_column(tmp_path):
    out = tmp_path / "e.csv"
    rc = main(["sweep-users", "--out", str(out), "--values", "10",
               "--trials", "1", "--subframes", "2", "--prbs", "2"])
    assert rc == 0
    assert out.read_text().splitlines()[0] == "users,SC,MC"
    rc = main(["sweep-users", "--out", str(out), "--values", "10",
               "--trials", "1", "--subframes", "2", "--prbs", "2",
               "--exact"])
    assert rc == 0
    assert out.read_text().splitlines()[0] == "users,SC,MC,EXACT"


def test_module_entry_point(tmp_path):
    # python -m mcms must work as installed
    gap = _write_gap(tmp_path)
    r = subprocess.run([sys.executable, "-m", "mcms", "solve", gap],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert "greedy=6" in r.stdout
    assert "exact=7" in r.stdout
