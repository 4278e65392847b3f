"""Experiment-harness and CLI tests."""

import dataclasses
import itertools
import json
import re
import subprocess
import sys

import numpy as np
import pytest

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
from mcms.harness import random_instance

from conftest import assert_same_sweep, coverage_sets, run_subframe

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


@pytest.mark.parametrize("field, value", [
    ("num_cells", 7.0), ("trials", True), ("subframes", 2.5), ("seed", "1"),
    ("radius_m", float("nan")), ("radius_m", float("inf")),
    ("radius_m", "300"), ("stream_rate_bps", float("inf")), ("seed", -1),
    ("stream_rate_bps", 1e300),
])
def test_config_rejects_non_numbers_and_unreachable_values(field, value):
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(**{field: value})


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
                      counts=counts)
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
    rc = main(["solve", _write_gap(tmp_path), "--skip-exact"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "greedy=6" in out
    assert "exact" not in out


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


@pytest.mark.parametrize("command, flag", [
    (["solve", "GAP", "--budget", "-1"], "--budget"),
    (["oracle-check", "--trials", "1", "--seed", "-1"], "--seed"),
])
def test_cli_rejects_negative_budget_and_seed(tmp_path, capsys, command,
                                              flag):
    argv = [_write_gap(tmp_path) if a == "GAP" else a for a in command]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be >= 0, got -1\n"


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


def test_cli_seed_precedence(tmp_path, monkeypatch):
    base = ["sweep-users", "--values", "20", "--trials", "1",
            "--subframes", "2"]
    env_csv = tmp_path / "env.csv"
    monkeypatch.setenv("MCMS_SEED", "7")
    assert main(base + ["--out", str(env_csv)]) == 0
    seed7_csv = tmp_path / "seed7.csv"
    monkeypatch.delenv("MCMS_SEED")
    assert main(base + ["--out", str(seed7_csv), "--seed", "7"]) == 0
    # env seed took effect
    assert env_csv.read_bytes() == seed7_csv.read_bytes()

    # flag beats both config file and environment
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3}))
    monkeypatch.setenv("MCMS_SEED", "4")
    flag_csv = tmp_path / "flag.csv"
    assert main(base + ["--out", str(flag_csv), "--seed", "7",
                        "--config", str(cfg)]) == 0
    assert flag_csv.read_bytes() == seed7_csv.read_bytes()

    # config file beats environment
    cfg_csv = tmp_path / "cfg.csv"
    cfg7 = tmp_path / "cfg7.json"
    cfg7.write_text(json.dumps({"seed": 7}))
    assert main(base + ["--out", str(cfg_csv), "--config", str(cfg7)]) == 0
    assert cfg_csv.read_bytes() == seed7_csv.read_bytes()


def test_cli_config_file_supplies_knobs(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "seed": 5, "trials": 1, "subframes": 2, "values": "20,30",
        "out": str(tmp_path / "from_cfg.csv"),
    }))
    rc = main(["sweep-users", "--config", str(cfg)])
    assert rc == 0
    direct = tmp_path / "direct.csv"
    assert main(["sweep-users", "--out", str(direct), "--values", "20,30",
                 "--trials", "1", "--subframes", "2", "--seed", "5"]) == 0
    assert (tmp_path / "from_cfg.csv").read_bytes() == direct.read_bytes()


@pytest.mark.parametrize("axis, values, flag", [
    ("users", [20, 30], "20,30"),
    ("users", [20.0, 30], "20,30"),
    ("users", "20,30", "20,30"),
    ("radius", [250, 300.5], "250,300.5"),
])
def test_cli_config_values_list_matches_the_flag(tmp_path, axis, values,
                                                 flag):
    extra = (["--users-per-cell", "10"] if axis == "radius" else [])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"values": values,
                               "out": str(tmp_path / "from_cfg.csv")}))
    base = [f"sweep-{axis}", "--trials", "1", "--subframes", "2", "--seed",
            "5", *extra]
    assert main(base + ["--config", str(cfg)]) == 0
    direct = tmp_path / "direct.csv"
    assert main(base + ["--out", str(direct), "--values", flag]) == 0
    assert (tmp_path / "from_cfg.csv").read_bytes() == direct.read_bytes()


@pytest.mark.parametrize("axis, values, message", [
    ("users", [], "values is empty"),
    ("users", "", "values is empty"),
    ("users", [20.5, 30], "values on the users axis must be whole numbers"),
    ("users", [20, True], "values must be a list of numbers"),
    ("users", [20, "30"], "values must be a list of numbers"),
    ("users", [20, None], "values must be a list of numbers"),
    ("users", [20, [30]], "values must be a list of numbers"),
    ("radius", [250, 1e400], "values must be finite numbers"),
    ("users", [20, 10 ** 400], "values must be finite numbers"),
    ("users", 20, "values must be a list of numbers or a comma-separated"),
    ("users", {"a": 20}, "values must be a list of numbers or a comma-sep"),
    ("users", "20,x", "values must be comma-separated numbers"),
    ("users", [30, 20], "sweep values must be strictly increasing"),
])
def test_cli_rejects_bad_config_values_lists(tmp_path, capsys, axis, values,
                                             message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"values": values,
                               "out": str(tmp_path / "x.csv")}))
    rc = main([f"sweep-{axis}", "--trials", "1", "--subframes", "1",
               "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err
    assert "--values" not in err  # the flag was not given
    assert "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


def test_cli_values_flag_overrides_config_values(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"values": ["not", "used"]}))
    out = tmp_path / "x.csv"
    assert main(["sweep-users", "--out", str(out), "--values", "20",
                 "--trials", "1", "--subframes", "1",
                 "--config", str(cfg)]) == 0
    assert out.read_text().splitlines()[1].startswith("20,")


def test_cli_rejects_unknown_config_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sded": 1}))
    rc = main(["sweep-users", "--out", str(tmp_path / "x.csv"),
               "--config", str(cfg)])
    assert rc == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("doc, message", [
    ({"cells": 7.5}, "cells must be a whole number"),
    ({"seed": 1.5}, "seed must be a whole number"),
    ({"seed": -1}, "seed must be >= 0"),
    ({"trials": True}, "trials must be a whole number"),
    ({"trials": "1"}, "trials must be a whole number"),
    ({"trials": 1.5}, "trials must be a whole number"),
    ({"prbs": False}, "prbs must be a whole number"),
    ({"rate": "fast"}, "stream_rate_bps must be a finite number"),
    ({"radius": True}, "radius_m must be a finite number"),
    ({"deterministic_fading": "false"}, "deterministic_fading must be true"),
    ({"deterministic_fading": 0}, "deterministic_fading must be true"),
    ({"out": 5}, "out must be a path string"),
])
def test_cli_rejects_bad_config_values(tmp_path, capsys, doc, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"values": "20", "out": str(tmp_path / "x.csv"),
                               **doc}))
    rc = main(["sweep-users", "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


def test_cli_config_accepts_integral_floats_and_json_booleans(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cells": 7.0, "trials": 1.0, "subframes": 2,
                               "deterministic_fading": True}))
    out = tmp_path / "x.csv"
    assert main(["sweep-users", "--out", str(out), "--values", "20",
                 "--config", str(cfg)]) == 0
    meta = json.loads((tmp_path / "x.csv.meta.json").read_text())
    assert meta["config"]["num_cells"] == 7
    assert meta["config"]["trials"] == 1
    assert meta["config"]["channel"]["fading"] == "none"


@pytest.mark.parametrize("flags, message", [
    (["--radius", "nan"], "radius_m must be a finite number"),
    (["--radius", "inf"], "radius_m must be a finite number"),
    (["--radius", "0"], "radius_m must be a finite number"),
    (["--rate", "inf"], "stream_rate_bps must be a finite number"),
    (["--rate", "nan"], "stream_rate_bps must be a finite number"),
    # No finite SNR reaches 1024 x the 180 kHz PRB bandwidth.
    (["--rate", "1e300"], "no finite SNR reaches it"),
    (["--rate", "1.8432e8"], "no finite SNR reaches it"),
])
def test_cli_rejects_bad_flag_values(tmp_path, capsys, flags, message):
    out = tmp_path / "x.csv"
    rc = main(["sweep-users", "--out", str(out), "--values", "20",
               "--trials", "1", "--subframes", "1"] + flags)
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_fading_seeds_are_bounded_to_the_placement():
    seeds = harness._FadingSeeds(7, 1, 2, 3)
    # Iteration stops at the first IndexError; islice bounds the check.
    listed = list(itertools.islice(seeds, 4))
    assert [s.spawn_key for s in listed] == [(1, 2, 1, t) for t in range(3)]
    for t in (3, -1, 100):
        with pytest.raises(IndexError):
            seeds[t]


@pytest.mark.parametrize("flags, config, message", [
    (["--out", "{missing}/x.csv"], None, "--out"),
    (["--out", "{tmp}"], None, "--out"),
    (["--out", "{tmp}/x.csv", "--dump-raw", "{missing}/raw.csv"], None,
     "--dump-raw"),
    (["--out", "{tmp}/x.csv", "--dump-raw", "{tmp}"], None, "--dump-raw"),
    ([], {"out": "{missing}/x.csv"}, "--out"),
    # --dump-raw must not overwrite the CSV or its sidecar.
    (["--out", "{tmp}/x.csv", "--dump-raw", "{tmp}/./x.csv"], None,
     "--dump-raw"),
    (["--out", "{tmp}/x.csv", "--dump-raw", "{tmp}/x.csv.meta.json"], None,
     "--dump-raw"),
    (["--dump-raw", "{tmp}/x.csv"], {"out": "{tmp}/x.csv"}, "--dump-raw"),
    # The CSV's .meta.json sidecar must be writable too.
    (["--out", "{taken}/x.csv"], None, "--out"),
])
def test_cli_rejects_unwritable_outputs_before_sampling(
        tmp_path, capsys, monkeypatch, flags, config, message):
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
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {k: v.format(**paths) for k, v in config.items()}))
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message} ")
    # No file but the config: neither the CSV nor any sidecar.
    assert set(tmp_path.rglob("*")) <= {tmp_path / "cfg.json", taken,
                                        taken / "x.csv.meta.json"}


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


def test_cli_oracle_check_reports_ratio(capsys):
    rc = main(["oracle-check", "--trials", "25", "--seed", "11"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "violations=0" in out
    assert "min_ratio=" in out


def test_cli_oracle_check_holds_greedy_to_half_of_optimum(capsys):
    # These random instances include greedy = opt / 2 cases, which the
    # (1 - 1/e) bound wrongly reported as violations.
    rc = main(["oracle-check", "--trials", "2000", "--users", "6",
               "--cells", "3", "--prbs", "2", "--density", "0.3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "violations=0 min_ratio=0.5000" in out


@pytest.mark.parametrize("flags, message", [
    (["--trials", "0"], "--trials must be >= 1"),
    (["--users", "-1"], "--users must be >= 0"),
    (["--cells", "0"], "--cells must be >= 1"),
    (["--prbs", "0"], "--prbs must be >= 1"),
    (["--density", "1.5"], "--density must be a number in [0, 1]"),
    (["--density", "-0.1"], "--density must be a number in [0, 1]"),
    (["--density", "nan"], "--density must be a number in [0, 1]"),
    (["--cells", "12", "--prbs", "4"],
     "oracle-check cannot run with 12 cells and 4 PRBs"),
])
def test_cli_oracle_check_rejects_bad_arguments(capsys, flags, message):
    rc = main(["oracle-check"] + flags)
    assert rc == 2
    assert message in capsys.readouterr().err


def test_cli_oracle_check_accepts_edge_arguments(capsys):
    rc = main(["oracle-check", "--trials", "1", "--users", "0",
               "--density", "1"])
    assert rc == 0
    assert "violations=0" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["sweep-users", "--values", "10000000000000000", "--trials", "1",
     "--subframes", "1", "--out", "{tmp}/x.csv"],
    ["oracle-check", "--users", "10000000000000000", "--trials", "1"],
])
def test_cli_reports_an_allocation_failure(tmp_path, capsys, argv):
    # 10^16 users ask for some 900 PiB, beyond any 57-bit address space,
    # so the first allocation fails at once on every machine.
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith("error: Unable to allocate ")
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
