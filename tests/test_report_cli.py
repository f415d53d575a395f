"""Config parsing, experiment reports, comparisons, CLI commands."""

import argparse
import concurrent.futures
import dataclasses
import enum
import json
import math
import os
import struct

import numpy as np
import pytest
from test_golden import BASE, RUNS

from asymreplay import metrics as M
from asymreplay.cli import (EXIT_CONFIG, EXIT_OK, EXIT_RUN, _overrides,
                            build_parser, main)
from asymreplay.losses import Method
from asymreplay.report import (FIELD_KINDS, ComparisonError, ConfigError,
                               ExperimentConfig, compare, load_report,
                               parse_config, run_experiment, run_experiments,
                               write_json)
from asymreplay.stream import (DATASET_MAGIC, DatasetParseError,
                               calibrate_variance_scale, load_dataset,
                               make_synthetic, save_dataset)

SMALL = {
    "input_dim": 4, "num_classes": 4, "samples_per_class": 20,
    "noise_sigma": 0.3, "classes_per_task": 2, "batch_size": 5,
    "rehearsal_batch_size": 5, "eval_every": 4, "buffer_capacity": 8,
    "hidden_sizes": [8, 4], "seeds": [0, 1],
}


def small_cfg(**kw):
    d = dict(SMALL)
    d.update(kw)
    return parse_config(overrides=d)


# config parsing -------------------------------------------------------

def test_parse_config_file_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"method": "er-aml", "gamma": 2.0,
                                "hidden_sizes": [16, 8], "seeds": [3, 4]}))
    cfg = parse_config(str(path))
    assert cfg.method is Method.ER_AML_SUPCON and cfg.gamma == 2.0
    assert cfg.hidden_sizes == (16, 8) and cfg.seeds == (3, 4)
    # untouched keys keep their defaults
    assert cfg.lr == 0.05 and cfg.buffer_capacity == 20


def test_overrides_win_over_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"lr": 0.5, "method": "er"}))
    cfg = parse_config(str(path), {"lr": 0.01})
    assert cfg.lr == 0.01 and cfg.method is Method.ER


def test_unknown_key_rejected_by_name():
    with pytest.raises(ConfigError, match="learning_rate"):
        parse_config(overrides={"learning_rate": 0.1})


def test_type_mismatch_rejected_by_name():
    with pytest.raises(ConfigError, match="buffer_capacity"):
        parse_config(overrides={"buffer_capacity": "big"})
    with pytest.raises(ConfigError, match="hidden_sizes"):
        parse_config(overrides={"hidden_sizes": [8, 0]})
    with pytest.raises(ConfigError, match="seeds"):
        parse_config(overrides={"seeds": [1, True]})


NUMERIC_FIELDS = [f for f in dataclasses.fields(ExperimentConfig)
                  if FIELD_KINDS[f.name][0] in (int, float, tuple)]


@pytest.mark.parametrize("f", NUMERIC_FIELDS, ids=lambda f: f.name)
def test_every_numeric_field_refuses_a_value_below_its_declared_floor(f):
    """The floor on each field's declaration is the one that is checked:
    the value just below it (the floor itself, where that is refused)
    fails by name with the range message."""
    floor, strict = f.metadata["floor"], f.metadata.get("strict", False)
    value = floor if strict else floor - 1
    if FIELD_KINDS[f.name][0] is tuple:
        value = (value,)
    bound = f"{'>' if strict else '>='} {floor}"
    with pytest.raises(ConfigError,
                       match=rf"^{f.name} must be finite and {bound}, got"):
        ExperimentConfig(**{f.name: value})


def test_a_config_built_in_python_is_checked_and_stored_as_a_parsed_one():
    with pytest.raises(ConfigError,
                       match="^dataset_path must be a string or null, got 0$"):
        ExperimentConfig(dataset_path=0)
    built, parsed = ExperimentConfig(gamma=2), parse_config(
        overrides={"gamma": 2})
    assert type(built.gamma) is float
    assert json.dumps(built.to_dict()) == json.dumps(parsed.to_dict())
    listed = ExperimentConfig(hidden_sizes=[8, 4], seeds=[1, 2])
    assert listed.hidden_sizes == (8, 4) and listed.seeds == (1, 2)
    assert hash(listed) == hash(ExperimentConfig(hidden_sizes=(8, 4),
                                                 seeds=(1, 2)))


def _wrong_kinds(f):
    """Values of the wrong kind for field ``f``: a bool, a string where it
    takes no string, a list for a scalar (a scalar for a list), and null
    where it is not optional."""
    kind, optional = FIELD_KINDS[f.name]
    return [True, *(["1"] if kind is not str else []),
            1 if kind is tuple else [1], *([] if optional else [None])]


WRONG_KINDS = [(f.name, v) for f in dataclasses.fields(ExperimentConfig)
               for v in _wrong_kinds(f)]


@pytest.mark.parametrize("key,value", WRONG_KINDS, ids=[
    f"{k}={json.dumps(v)}" for k, v in WRONG_KINDS])
def test_a_config_built_in_python_is_refused_as_a_parsed_one(key, value,
                                                             tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: value}))
    with pytest.raises(ConfigError) as built:
        ExperimentConfig(**{key: value})
    with pytest.raises(ConfigError) as parsed:
        parse_config(str(path))
    assert str(built.value) == str(parsed.value)


@pytest.mark.parametrize("key,value", [("batch_size", -10**5000),
                                       ("seeds", (10**5000, 10**5000))],
                         ids=["batch_size", "seeds"])
def test_a_value_too_long_to_print_is_refused_by_its_key(key, value):
    with pytest.raises(ConfigError, match=f"^{key} must be .*an integer of "
                                          "16610 bits"):
        ExperimentConfig(**{key: value})


def test_missing_config_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(str(tmp_path / "nope.json"))


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        parse_config(str(path))
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="must hold a JSON object"):
        parse_config(str(path))
    path.write_bytes(b'{"lr": "\xff"}')
    with pytest.raises(ConfigError):   # not UTF-8
        parse_config(str(path))


def test_null_config_value_only_for_optional_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"variance_scale": None}))
    assert parse_config(str(path)).variance_scale is None
    path.write_text(json.dumps({"lr": None}))
    with pytest.raises(ConfigError, match="lr must be a number, got None"):
        parse_config(str(path))


def test_null_override_is_read_as_a_files_null(tmp_path):
    """An override of None is a value, as a file's null is: refused where
    the key is not optional, and winning over the file's value where it
    is."""
    with pytest.raises(ConfigError, match="lr must be a number, got None"):
        parse_config(overrides={"lr": None})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"variance_scale": 0.5}))
    assert parse_config(str(path)).variance_scale == 0.5
    assert parse_config(str(path), {"variance_scale": None}).variance_scale \
        is None


def test_empty_seeds_rejected():
    with pytest.raises(ConfigError):
        parse_config(overrides={"seeds": []})


# the CLI flags: flag -> (type name, choices, default)
_CONFIG_FLAGS = {
    "--config": (None, None, None), "--dataset-path": (None, None, None),
    **{f"--{name}": ("int", None, None) for name in (
        "input-dim", "num-classes", "samples-per-class", "dataset-seed",
        "classes-per-task", "batch-size", "rehearsal-batch-size",
        "eval-every", "buffer-capacity")},
    **{f"--{name}": ("float", None, None) for name in (
        "noise-sigma", "gamma", "tau", "lr", "target-unique-labels",
        "variance-scale")},
    "--stream-mode": (None, ["split", "blurry"], None),
    "--method": (None, ["er", "er-ace", "er-aml", "er-aml-triplet",
                        "ssil-nodistill"], None),
    "--negative-policy": (None, ["incoming-only", "all-classes"], None),
    "--hidden-sizes": ("_int_list", None, None),
    "--seeds": ("_int_list", None, None),
}
FLAG_TABLE = {
    "run": {**_CONFIG_FLAGS, "--out": (None, None, None),
            "--timestamp": (None, None, None)},
    "sweep": {**_CONFIG_FLAGS, "--methods": ("<lambda>", None, None),
              "--buffer-capacities": ("_int_list", None, None),
              "--out": (None, None, None), "--timestamp": (None, None, None)},
    "gen-dataset": {
        "--input-dim": ("int", None, 16), "--num-classes": ("int", None, 10),
        "--samples-per-class": ("int", None, 1000),
        "--noise-sigma": ("float", None, 0.5),
        "--dataset-seed": ("int", None, 0), "--out": (None, None, None)},
}


def subcommand(name) -> argparse.ArgumentParser:
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices[name]


@pytest.mark.parametrize("command", sorted(FLAG_TABLE))
def test_flag_table_unchanged(command):
    """Names, types, choices and defaults of every flag, as recorded from
    the hand-written flag lists the derived ones replaced."""
    table = {a.option_strings[0]: (getattr(a.type, "__name__", None),
                                   a.choices and list(a.choices), a.default)
             for a in subcommand(command)._actions
             if a.option_strings and a.dest != "help"}
    assert table == FLAG_TABLE[command]


def other_value(f):
    """A valid value of config field ``f`` other than its default."""
    kind = FIELD_KINDS[f.name][0]
    if isinstance(kind, enum.EnumMeta):
        return [m.value for m in kind][-1]
    if f.name == "dataset_path":
        return "ds.bin"
    if isinstance(f.default, tuple):
        return (3, 4)
    if isinstance(f.default, int):
        return f.default + 1
    return (f.default or 0.0) + 0.5


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_every_config_field_has_one_flag_and_round_trips(command):
    parser = subcommand(command)
    fields = dataclasses.fields(ExperimentConfig)
    for f in fields:
        flags = [a.option_strings for a in parser._actions if a.dest == f.name]
        assert flags == [["--" + f.name.replace("_", "-")]], f.name
    want = {f.name: other_value(f) for f in fields}
    assert all(want[f.name] != f.default for f in fields)
    argv = [command] + (["--out", "o"] if command == "sweep" else [])
    for f in fields:
        v = want[f.name]
        argv += ["--" + f.name.replace("_", "-"),
                 ",".join(map(str, v)) if isinstance(v, tuple) else str(v)]
    args = build_parser().parse_args(argv)
    assert parse_config(overrides=_overrides(args)) == ExperimentConfig(**want)


# experiments ----------------------------------------------------------

@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("rep")
    report = run_experiment(small_cfg(), out_dir=str(out), now="T0")
    return report, out


def test_report_schema_and_aggregates(small_report):
    report, _ = small_report
    assert report["schema_version"] == 2
    assert report["timestamp"] == "T0"
    assert len(report["seeds"]) == 2
    for key in ("final_accuracy", "aaa", "forgetting", "train_flops"):
        assert set(report["aggregates"][key]) == {"mean", "stderr"}


def test_aggregates_recomputable_from_per_seed(small_report):
    """Means and standard errors in the report reproduce from the stored
    per-seed values to within 1e-10."""
    report, _ = small_report
    for key in ("final_accuracy", "aaa", "train_flops"):
        vals = [e[key] for e in report["seeds"] if e["error"] is None]
        agg = report["aggregates"][key]
        assert agg["mean"] == pytest.approx(np.mean(vals), abs=1e-10)
        want_se = (np.std(vals, ddof=1) / math.sqrt(len(vals))
                   if len(vals) > 1 else 0.0)
        assert agg["stderr"] == pytest.approx(want_se, abs=1e-10)


def test_report_files_written(small_report):
    report, out = small_report
    assert sorted(os.listdir(out)) == ["report.json"]
    loaded = load_report(str(out / "report.json"))
    assert loaded == json.loads(json.dumps(report))  # JSON round trip


@pytest.mark.parametrize("name", RUNS)
def test_report_accuracy_keys_read_off_one_record(name, tmp_path):
    """Every accuracy number of a golden run's seed entry is read off its
    accuracy matrix, one row per evaluation, exactly."""
    assert main(["run", *BASE, *RUNS[name], "--out", str(tmp_path)]) == 0
    for e in load_report(str(tmp_path / "report.json"))["seeds"]:
        rows, aa = e["accuracy_matrix"], e["aa_trace"]
        assert e["error"] is None
        assert len(e["eval_steps"]) == len(aa) == len(rows) == \
            len(e["current_task_accuracy"])
        assert e["final_accuracy"] == aa[-1]
        assert e["aaa"] == np.mean(aa)
        for aa_i, cur, row in zip(aa, e["current_task_accuracy"], rows):
            assert aa_i == np.mean([v for v in row if v is not None])
            assert cur is not None and cur in row
        assert e["final_task_accuracy"] == dict(zip(map(str, e["tasks"]),
                                                    rows[-1]))
        forgetting = M.forgetting(np.array(rows, dtype=float))
        assert e["forgetting"] == (None if np.isnan(forgetting)
                                   else forgetting)


def test_one_stream_built_per_seed(monkeypatch):
    """One stream per seed, and one dataset digest per experiment."""
    from asymreplay import report as RP
    from asymreplay import stream as S
    from asymreplay import trainer as TR
    built = []
    make_stream = S.make_stream
    digests = []
    sha256 = S.Dataset.sha256
    monkeypatch.setattr(S.Dataset, "sha256",
                        lambda ds: digests.append(1) or sha256(ds))

    def counting_make_stream(dataset, cfg, seed):
        built.append(seed)
        return make_stream(dataset, cfg, seed)

    # every module that could build a stream during a run
    for module in (S, TR, RP):
        monkeypatch.setattr(module, "make_stream", counting_make_stream,
                            raising=False)
    report = run_experiment(small_cfg(seeds=[0, 1, 2]), now="T0")
    assert built == [0, 1, 2]
    assert len(digests) == 1
    assert report["stream_metadata"] == make_stream(
        small_cfg().dataset(), small_cfg(), 0).metadata()


def test_report_byte_identical_with_fixed_timestamp(tmp_path):
    a = run_experiment(small_cfg(), out_dir=str(tmp_path / "a"), now="T0")
    b = run_experiment(small_cfg(), out_dir=str(tmp_path / "b"), now="T0")
    assert ((tmp_path / "a" / "report.json").read_bytes()
            == (tmp_path / "b" / "report.json").read_bytes())
    assert a == b


def test_load_report_rejects_wrong_schema(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"schema_version": 99}))
    with pytest.raises(ValueError):
        load_report(str(path))


@pytest.mark.parametrize("edit,named", [
    (lambda r: r.update(config={}, aggregates={}), "'method'"),
    (lambda r: r["config"].pop("buffer_capacity"), "'buffer_capacity'"),
    (lambda r: r["aggregates"]["aaa"].pop("stderr"), "'aaa'"),
    (lambda r: r["aggregates"].pop("train_flops"), "'train_flops'"),
    (lambda r: r.pop("seeds"), "'seeds'"),
    (lambda r: r["seeds"][0].pop("error"), "'seeds'"),
], ids=["empty", "no-config-key", "no-stderr", "no-aggregate", "no-seeds",
        "seed-without-error"])
def test_cli_compare_refuses_incomplete_report_by_name(edit, named,
                                                       small_report, tmp_path,
                                                       capsys):
    """A report lacking a config key or an aggregate's mean or stderr is
    refused by name (exit 1), not with a KeyError traceback."""
    report, out = small_report
    report = json.loads(json.dumps(report))
    edit(report)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    assert main(["compare", str(out / "report.json"), str(bad)]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read report {bad}:") and named in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("edit,named", [
    (lambda r: r["aggregates"]["aaa"].update(mean="x"), "'aaa'"),
    (lambda r: r["aggregates"]["aaa"].update(mean=None), "'aaa'"),
    (lambda r: r["aggregates"]["final_accuracy"].update(stderr=None),
     "'final_accuracy'"),
    (lambda r: r["config"].update(method=None), "'method'"),
    (lambda r: r["config"].update(method="bogus"), "'method'"),
    (lambda r: r["config"].update(buffer_capacity=None), "'buffer_capacity'"),
    (lambda r: r.update(stream_metadata={}), "'dataset_sha256'"),
    (lambda r: r["stream_metadata"].update(dataset_sha256=None),
     "'dataset_sha256'"),
], ids=["string-mean", "null-mean", "null-stderr", "null-method",
        "unknown-method", "null-capacity", "empty-stream-metadata",
        "null-digest"])
def test_cli_compare_refuses_mistyped_report_by_name(edit, named,
                                                     small_report, tmp_path,
                                                     capsys):
    """A report value of the wrong type, or a method that does not exist,
    is refused by name (exit 1), not tabulated or met with a TypeError
    traceback from the comparison table."""
    report, out = small_report
    report = json.loads(json.dumps(report))
    edit(report)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    with pytest.raises(ValueError, match=named):
        load_report(str(bad))
    assert main(["compare", str(out / "report.json"), str(bad)]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read report {bad}:") and named in err
    assert err.count("\n") == 1


def test_experiment_from_dataset_file(tmp_path):
    ds_path = tmp_path / "ds.bin"
    assert main(["gen-dataset", "--input-dim", "4", "--num-classes", "4",
                 "--samples-per-class", "20", "--noise-sigma", "0.3",
                 "--out", str(ds_path)]) == EXIT_OK
    ds = load_dataset(str(ds_path))
    assert ds.num_classes == 4
    cfg = small_cfg(dataset_path=str(ds_path))
    report = run_experiment(cfg, now="T0")
    assert report["seeds"][0]["error"] is None


# compare --------------------------------------------------------------

def test_compare_stars_and_rows(small_report):
    report, _ = small_report
    other = run_experiment(small_cfg(method="er"), now="T0")
    table, rows = compare([report, other])
    assert {r["method"] for r in rows} == {"er-ace", "er"}
    assert any(r["aaa_best"] for r in rows)
    assert "er-ace" in table and "*" in table
    # each buffer size has its own best: the smaller buffer's leader is
    # starred though a row of the larger buffer beats it
    graded = []
    for method, cap, mean in (("er", 8, 0.9), ("er-ace", 8, 0.8),
                              ("er", 100, 0.5), ("er-ace", 100, 0.6)):
        rep = json.loads(json.dumps(report))
        rep["config"].update(method=method, buffer_capacity=cap)
        for key in ("aaa", "final_accuracy"):
            rep["aggregates"][key] = {"mean": mean, "stderr": 0.0}
        graded.append(rep)
    _, rows = compare(graded)
    for key in ("aaa", "final_accuracy"):
        assert [r[f"{key}_best"] for r in rows] == [True, False, False, True]


def test_compare_refuses_different_streams(small_report):
    report, _ = small_report
    other = run_experiment(small_cfg(num_classes=2), now="T0")
    with pytest.raises(ComparisonError, match="task_of_class"):
        compare([report, other])


@pytest.mark.parametrize("key,values,extra", [
    ("target_unique_labels", (1.0, 2.5), {"stream_mode": "blurry"}),
    ("dataset_seed", (0, 1), {}),
    # 40 rows per task cut into 4 steps either way
    ("batch_size", (10, 13), {}),
])
def test_compare_refuses_stream_keys_beyond_the_dataset_shape(key, values,
                                                               extra):
    """Blurriness level, dataset seed and batch size change the stream
    too: the schedule's scale, the dataset's digest or the batch size
    differ even where the step count does not."""
    a, b = (run_experiment(small_cfg(seeds=[0], **extra, **{key: v}), now="T0")
            for v in values)
    named = {"target_unique_labels": "variance_scale",
             "dataset_seed": "dataset_sha256",
             "batch_size": "batch_size"}[key]
    with pytest.raises(ComparisonError, match=rf"\(keys differ: {named}\)"):
        compare([a, b])


def test_compare_ignores_schedule_keys_of_split_streams(small_report):
    report, _ = small_report
    other = json.loads(json.dumps(report))
    other["config"]["target_unique_labels"] = 3.0
    _, rows = compare([report, other])
    assert len(rows) == 2


def test_compare_of_one_report(small_report):
    """One report is a table of one starred row: mean ± stderr over the
    seeds it covers, which leave out an aborted seed."""
    report, _ = small_report
    table, (row,) = compare([report])
    assert row["seeds"] == 2 and row["aaa_best"] and row["final_accuracy_best"]
    agg = report["aggregates"]["final_accuracy"]
    assert f" {agg['mean']:.4f}±{agg['stderr']:.4f}* " in table
    report = json.loads(json.dumps(report))
    report["seeds"][0]["error"] = "non-finite loss"
    assert compare([report])[1][0]["seeds"] == 1


# CLI ------------------------------------------------------------------

def cli_small_args():
    return ["--input-dim", "4", "--num-classes", "4",
            "--samples-per-class", "20", "--noise-sigma", "0.3",
            "--classes-per-task", "2", "--batch-size", "5",
            "--rehearsal-batch-size", "5", "--eval-every", "4",
            "--buffer-capacity", "8", "--hidden-sizes", "8,4",
            "--seeds", "0", "--timestamp", "T0"]


def test_cli_run_writes_report(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["run", *cli_small_args(), "--out", str(out)])
    assert code == EXIT_OK
    table, _ = compare([load_report(str(out / "report.json"))])
    assert capsys.readouterr().out == (
        f"{table}report written to {out / 'report.json'}\n")


def test_cli_run_config_file_plus_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    payload = dict(SMALL)
    payload["seeds"] = [0]
    cfg_path.write_text(json.dumps(payload))
    out = tmp_path / "o"
    code = main(["run", "--config", str(cfg_path), "--method", "er",
                 "--timestamp", "T0", "--out", str(out)])
    assert code == EXIT_OK
    report = load_report(str(out / "report.json"))
    assert report["config"]["method"] == "er"
    assert report["config"]["eval_every"] == 4


def test_cli_exit_code_on_bad_config(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.json")]) \
        == EXIT_CONFIG
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"nonsense_key": 1}))
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    assert "nonsense_key" in capsys.readouterr().err
    assert main(["run", "--hidden-sizes", "a,b"]) == EXIT_CONFIG
    assert main(["run", "--no-such-flag"]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("config error: argument --hidden-sizes")
    assert err[1] == "config error: unrecognized arguments: --no-such-flag"


def test_a_float_key_too_large_for_a_float_exits_1_before_the_dataset(
        tmp_path, monkeypatch, capsys):
    from asymreplay import report as RP
    built = []
    monkeypatch.setattr(RP, "make_synthetic", lambda *a: built.append(a))
    cfg = tmp_path / "big.json"
    cfg.write_text('{"lr": 1' + "0" * 400 + "}")
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "config error: lr must be finite and >= 0, got 1000")
    # past 4300 digits Python's JSON parser may refuse the integer itself
    cfg.write_text('{"lr": 1' + "0" * 5000 + "}")
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")
    assert built == []


def test_a_blurriness_level_the_streams_cannot_reach_exits_2(capsys):
    assert main(["run", *cli_small_args(), "--stream-mode", "blurry",
                 "--target-unique-labels", "3"]) == EXIT_RUN
    assert capsys.readouterr().err == (
        "run failed: unattainable blurriness level 3.0: these streams reach "
        "1.00 to 2.81 unique labels per batch\n")


def test_cli_exit_code_on_missing_or_truncated_dataset(tmp_path, capsys):
    """A dataset file that cannot be read is a run failure, not a config
    error, whether it is missing or truncated."""
    ds_path = tmp_path / "ds.bin"
    assert main(["run", "--dataset-path", str(ds_path)]) == EXIT_RUN
    assert main(["gen-dataset", "--input-dim", "4", "--num-classes", "4",
                 "--samples-per-class", "20", "--out", str(ds_path)]) == EXIT_OK
    ds_path.write_bytes(ds_path.read_bytes()[:-10])
    capsys.readouterr()
    assert main(["run", "--dataset-path", str(ds_path)]) == EXIT_RUN
    assert "run failed: truncated payload" in capsys.readouterr().err


def gen_dataset(path, num_classes, samples_per_class, *extra):
    assert main(["gen-dataset", "--input-dim", "4",
                 "--num-classes", str(num_classes),
                 "--samples-per-class", str(samples_per_class),
                 *extra, "--out", str(path)]) == EXIT_OK


def test_dataset_file_sets_the_class_count(tmp_path, monkeypatch):
    """A 10-class file run with --num-classes 4 streams every training
    row of the file exactly once, over 5 tasks."""
    from asymreplay import trainer as TR
    streams = []
    make_stream = TR.make_stream

    def recording_make_stream(dataset, cfg, seed):
        streams.append(make_stream(dataset, cfg, seed))
        return streams[-1]

    monkeypatch.setattr(TR, "make_stream", recording_make_stream)
    ds_path = tmp_path / "ds10.bin"
    gen_dataset(ds_path, 10, 20)
    assert main(["run", "--dataset-path", str(ds_path), "--num-classes", "4",
                 "--hidden-sizes", "8", "--timestamp", "T0"]) == EXIT_OK
    (stream,) = streams
    n_train = len(load_dataset(str(ds_path)).train_y)
    assert n_train == 200
    assert sorted(stream.order.tolist()) == list(range(n_train))
    assert stream.task_ids.tolist() == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]


def test_synthetic_keys_are_checked_with_a_dataset_file(tmp_path, capsys):
    """The report records every config key, so a synthetic dataset key is
    refused out of range even when a file supplies the data, before the
    run and with no report written."""
    ds_path = tmp_path / "ds4.bin"
    gen_dataset(ds_path, 4, 20)
    out = tmp_path / "out"
    assert main(["run", "--dataset-path", str(ds_path), "--hidden-sizes", "8",
                 "--noise-sigma", "nan", "--out", str(out)]) == EXIT_CONFIG
    assert "noise_sigma must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_dataset_file_stream_metadata_ignores_num_classes(tmp_path):
    """A 4-class file at the default num_classes of 10 streams 2 tasks, and
    writes the metadata that --num-classes 4 writes."""
    ds_path = tmp_path / "ds4.bin"
    gen_dataset(ds_path, 4, 50)
    written = []
    for extra in ([], ["--num-classes", "4"]):
        out = tmp_path / f"run{len(written)}"
        assert main(["run", "--dataset-path", str(ds_path), *extra,
                     "--timestamp", "T0", "--out", str(out)]) == EXIT_OK
        assert sorted(os.listdir(out)) == ["report.json"]
        written.append(load_report(str(out / "report.json"))["stream_metadata"])
    meta = written[0]
    assert meta["task_of_class"] == {"0": 0, "1": 0, "2": 1, "3": 1}
    assert meta["boundaries"] == [0, 10]
    assert written[0] == written[1]


@pytest.mark.parametrize("key,value,mode", [
    ("classes_per_task", "0", "split"),
    ("classes_per_task", "3", "split"),
    ("rehearsal_batch_size", "-1", "split"),
    ("buffer_capacity", "0", "split"),
    ("input_dim", "0", "split"),
    ("num_classes", "0", "split"),
    ("samples_per_class", "0", "split"),
    ("seeds", "-1", "split"),
    ("dataset_seed", "-1", "split"),
    ("target_unique_labels", "0.5", "blurry"),
    ("target_unique_labels", "11", "blurry"),
    ("seeds", "1,1", "split"),
    ("lr", "abc", "split"),
    ("method", "bogus", "split"),
    ("lr", "nan", "split"),
    ("lr", "inf", "split"),
    ("noise_sigma", "nan", "split"),
    ("batch_size", "0", "split"),
    ("variance_scale", "-1", "blurry"),
])
def test_bad_config_value_exits_1_before_the_dataset(key, value, mode,
                                                     monkeypatch, capsys):
    from asymreplay import report as RP
    from asymreplay import stream as S
    built = []
    for module in (S, RP):
        monkeypatch.setattr(module, "make_synthetic",
                            lambda *a: built.append(a), raising=False)
    code = main(["run", "--samples-per-class", "20", "--hidden-sizes", "8",
                 "--stream-mode", mode, f"--{key.replace('_', '-')}={value}"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert built == []


def test_fault_during_the_run_exits_2(monkeypatch, capsys):
    from asymreplay import trainer as TR

    def faulty_step(*args):
        raise ValueError("fault inside train_step")

    monkeypatch.setattr(TR, "train_step", faulty_step)
    assert main(["run", *cli_small_args()]) == EXIT_RUN
    assert "run failed: fault inside train_step" in capsys.readouterr().err


@pytest.mark.parametrize("constant", [float("nan"), float("inf")])
def test_cli_compare_refuses_a_report_that_is_not_strict_json(
        constant, small_report, tmp_path, capsys):
    """The writer emits strict JSON, so a NaN or Infinity in a report is
    refused, not printed as a mean."""
    report, out = small_report
    report = json.loads(json.dumps(report))
    report["aggregates"]["aaa"]["mean"] = constant
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    assert main(["compare", str(bad), str(out / "report.json")]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read report {bad}:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"])
def test_cli_compare_unreadable_report_exits_1(content, small_report,
                                               tmp_path, capsys):
    """A missing, non-JSON or non-report file gives one line naming it."""
    _, out = small_report
    bad = tmp_path / "bad.json"
    if content is not None:
        bad.write_text(content)
    assert main(["compare", str(out / "report.json"), str(bad)]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read report {bad}:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("missing", ["config", "stream_metadata",
                                     "aggregates"])
def test_cli_compare_report_without_section_exits_1(missing, small_report,
                                                    tmp_path, capsys):
    """A report of the right schema but without a section compare reads
    is refused by name, not with a traceback."""
    report, out = small_report
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({k: v for k, v in report.items() if k != missing}))
    with pytest.raises(ValueError, match=f"no '{missing}' object"):
        load_report(str(bad))
    assert main(["compare", str(out / "report.json"), str(bad)]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read report {bad}:") and missing in err


def test_cli_compare_accepts_runs_of_one_dataset_file(tmp_path, capsys):
    """The synthetic dataset keys a file run ignores do not make two runs
    of the same file incomparable."""
    ds_path = tmp_path / "ds4.bin"
    gen_dataset(ds_path, 4, 20)
    outs = [tmp_path / "run0", tmp_path / "run1"]
    for out, extra in zip(outs, ([], ["--num-classes", "4"])):
        assert main(["run", "--dataset-path", str(ds_path), *extra,
                     "--hidden-sizes", "8", "--timestamp", "T0",
                     "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["compare", *(str(o / "report.json") for o in outs)]) \
        == EXIT_OK
    assert capsys.readouterr().out.count("er-ace") == 2


def run_small(out, *extra):
    """``run`` of the small CLI config plus ``extra``; its report's path."""
    assert main(["run", *cli_small_args(), *extra, "--out", str(out)]) \
        == EXIT_OK
    return out / "report.json"


def test_cli_compare_refuses_a_dataset_file_rewritten_in_place(tmp_path,
                                                               capsys):
    """A file regenerated from another seed at the same path holds other
    data, so runs before and after are of different streams."""
    ds_path = tmp_path / "ds.bin"
    reports = []
    for seed in ("0", "1"):
        gen_dataset(ds_path, 4, 20, "--dataset-seed", seed)
        reports.append(run_small(tmp_path / f"run{seed}",
                                 "--dataset-path", str(ds_path)))
    capsys.readouterr()
    assert main(["compare", *map(str, reports)]) == EXIT_CONFIG
    assert capsys.readouterr().err == ("cannot compare: reports use different "
                                       "streams (keys differ: dataset_sha256)\n")


@pytest.mark.parametrize("route", ["copied-file", "synthetic-and-its-file",
                                   "calibrated-scale"])
def test_cli_compare_accepts_one_stream_named_two_ways(route, tmp_path,
                                                       capsys):
    """Runs of one stream compare however the stream was named: a file and
    its copy at another path, a synthetic dataset and the file
    ``gen-dataset`` wrote of it, a blurry level and the scale it
    calibrates to."""
    ds_path, copy = tmp_path / "ds.bin", tmp_path / "copy.bin"
    gen_dataset(ds_path, 4, 20, "--noise-sigma", "0.3")
    copy.write_bytes(ds_path.read_bytes())
    first = {"copied-file": ["--dataset-path", str(ds_path)],
             "synthetic-and-its-file": [],
             "calibrated-scale": ["--stream-mode", "blurry"]}[route]
    a = run_small(tmp_path / "a", *first)
    scale = calibrate_variance_scale([20] * 4, 5, 2.0)   # the small stream's
    second = {"copied-file": ["--dataset-path", str(copy)],
              "synthetic-and-its-file": ["--dataset-path", str(ds_path)],
              "calibrated-scale": ["--stream-mode", "blurry",
                                   "--variance-scale", repr(scale)]}[route]
    b = run_small(tmp_path / "b", *second)
    capsys.readouterr()
    assert main(["compare", str(a), str(b)]) == EXIT_OK
    assert capsys.readouterr().out.count("er-ace") == 2


def test_cli_compare_of_different_streams_is_not_a_config_error(
        small_report, tmp_path, capsys):
    """Reports of different streams are refused under their own prefix,
    with exit code 1: no config was given, so it is no config error."""
    report, out = small_report
    other = tmp_path / "other.json"
    report = json.loads(json.dumps(report))
    report["stream_metadata"]["num_steps"] += 2
    other.write_text(json.dumps(report))
    assert main(["compare", str(out / "report.json"), str(other)]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("cannot compare: reports use different streams")
    assert "num_steps" in err and err.count("\n") == 1


def test_cli_sweep_and_compare(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep", *cli_small_args(), "--methods", "er,er-ace",
                 "--buffer-capacities", "8", "--out", str(out)])
    assert code == EXIT_OK
    dirs = [str(out / "er-M8"), str(out / "er-ace-M8")]   # grid order
    for d in dirs:
        assert sorted(os.listdir(d)) == ["report.json"]
    table, rows = compare([load_report(os.path.join(d, "report.json"))
                           for d in dirs])
    assert capsys.readouterr().out == table
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary == [dict(row, report_dir=d) for d, row in zip(dirs, rows)]
    cmp_out = tmp_path / "cmp.json"
    code = main(["compare", str(out / "er-M8" / "report.json"),
                 str(out / "er-ace-M8" / "report.json"),
                 "--out", str(cmp_out)])
    assert code == EXIT_OK
    assert capsys.readouterr().out == table
    assert json.loads(cmp_out.read_text()) == rows


def test_cli_compare_rejects_mismatched_streams(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["run", *cli_small_args(), "--out", str(a)]) == EXIT_OK
    args_b = cli_small_args()
    args_b[args_b.index("--input-dim") + 1] = "6"
    assert main(["run", *args_b, "--out", str(b)]) == EXIT_OK
    code = main(["compare", str(a / "report.json"), str(b / "report.json")])
    assert code == EXIT_CONFIG
    assert "different streams" in capsys.readouterr().err


def test_cli_compare_unwritable_out_exits_2(small_report, tmp_path, capsys):
    """The table is printed, then the unwritable ``--out`` is named."""
    _, out = small_report
    target = tmp_path / "missing_dir" / "x.json"
    report = str(out / "report.json")
    assert main(["compare", report, report, "--out", str(target)]) == EXIT_RUN
    captured = capsys.readouterr()
    assert "er-ace" in captured.out
    assert captured.err.startswith(f"cannot write {target}:")
    assert captured.err.count("\n") == 1


def test_cli_sweep_unwritable_out_exits_2_before_any_job(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "sweep"
    assert main(["sweep", *cli_small_args(), "--out", str(out)]) == EXIT_RUN
    err = capsys.readouterr().err
    assert err.startswith(f"cannot write {out}:") and err.count("\n") == 1


def test_cli_run_unwritable_out_exits_2_before_the_dataset(
        tmp_path, monkeypatch, capsys):
    from asymreplay import report as RP
    built = []
    monkeypatch.setattr(RP, "make_synthetic", lambda *a: built.append(a))
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "run"
    assert main(["run", *cli_small_args(), "--out", str(out)]) == EXIT_RUN
    err = capsys.readouterr().err
    assert err.startswith(f"cannot write {out}:") and err.count("\n") == 1
    assert built == []


def test_cli_sweep_refuses_empty_buffer_capacities(monkeypatch, tmp_path,
                                                   capsys):
    """An empty list names no buffer size; it does not fall back to the
    base config's, and is refused as any empty list item is."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(InlinePool, "sizes", [])
    out = tmp_path / "sweep"
    assert main(["sweep", *cli_small_args(), "--buffer-capacities", "",
                 "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: argument --buffer-capacities: expected "
        "comma-separated integers, got ''\n")
    assert InlinePool.sizes == [] and not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--hidden-sizes", "8,"), ("--seeds", "1,,2"), ("--seeds", ",0")])
def test_cli_refuses_an_empty_list_item(flag, value, monkeypatch, capsys):
    """An empty item is refused, not dropped: ``8,`` is no one-layer
    network and ``1,,2`` no two seeds."""
    from asymreplay import report as RP
    built = []
    monkeypatch.setattr(RP, "make_synthetic", lambda *a: built.append(a))
    assert main(["run", *cli_small_args(), flag, value]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: argument {flag}: expected comma-separated "
        f"integers, got {value!r}\n")
    assert built == []


@pytest.mark.parametrize("grid,job", [
    (["--methods", "er,er"], "er-M8"),
    (["--buffer-capacities", "8,8"], "er-ace-M8"),
])
def test_cli_sweep_refuses_a_repeated_job(grid, job, tmp_path, capsys):
    """Two jobs of one grid cell would write one directory at once."""
    out = tmp_path / "sweep"
    assert main(["sweep", *cli_small_args(), *grid, "--out", str(out)]) \
        == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: sweep job {out / job} is listed twice\n")
    assert not out.exists()


class InlinePool:
    """Stands in for the sweep's process pool: runs each job in-process,
    keeping what it raises on its future as a pool does, and notes its size,
    the start method and the BLAS thread variable at submit time."""
    submitted = []
    sizes = []

    def __init__(self, max_workers=None, mp_context=None):
        self.sizes.append(max_workers)
        self.method = mp_context.get_start_method() if mp_context else None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.submitted.append((self.method,
                               os.environ.get("OPENBLAS_NUM_THREADS")))
        fut = concurrent.futures.Future()
        try:
            fut.set_result(fn(*args))
        except Exception as exc:
            fut.set_exception(exc)
        return fut


@pytest.mark.parametrize("preset", [None, "3"])
def test_sweep_workers_are_spawned_with_one_blas_thread(preset, monkeypatch,
                                                        tmp_path, capsys):
    """Workers start from a spawn context with OPENBLAS_NUM_THREADS=1 unless
    the caller set it, and the caller's environment is left as it was."""
    if preset is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(InlinePool, "submitted", [])
    before = dict(os.environ)
    assert main(["sweep", *cli_small_args(), "--methods", "er,er-ace",
                 "--out", str(tmp_path / "sweep")]) == EXIT_OK
    assert InlinePool.submitted == [("spawn", preset or "1")] * 2
    assert dict(os.environ) == before


@pytest.mark.parametrize("cores", [1, 4])
def test_sweep_pool_has_at_most_one_worker_per_core_and_job(
        cores, monkeypatch, tmp_path, capsys):
    """A 2-job grid asks for min(2, usable cores) workers; no process is
    started."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                        raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(InlinePool, "sizes", [])
    assert main(["sweep", *cli_small_args(), "--methods", "er,er-ace",
                 "--out", str(tmp_path / "sweep")]) == EXIT_OK
    assert InlinePool.sizes == [min(2, cores)]


@pytest.mark.parametrize("cores", [1, 2])
def test_run_experiments_equals_in_process_runs_in_input_order(cores,
                                                               monkeypatch):
    """One worker runs both jobs in turn, two run one each."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                        raising=False)
    cfgs = [small_cfg(method=m) for m in ("er-aml", "er")]
    want = [run_experiment(cfg, now="T0") for cfg in cfgs]
    assert run_experiments(cfgs, now="T0") == want


@pytest.mark.parametrize("n_dirs", [1, 3])
def test_run_experiments_refuses_out_dirs_of_another_length(
        n_dirs, monkeypatch, tmp_path):
    """Each config needs its own output directory: a job is never dropped
    and the pool never starts."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(InlinePool, "sizes", [])
    dirs = [str(tmp_path / str(i)) for i in range(n_dirs)]
    with pytest.raises(ValueError,
                       match=f"^2 configs but {n_dirs} output directories$"):
        run_experiments([small_cfg(), small_cfg(method="er")], dirs)
    assert InlinePool.sizes == [] and list(tmp_path.iterdir()) == []


def test_run_experiments_returns_a_failed_jobs_exception(tmp_path):
    """A job whose dataset file is missing comes back as its OSError, one
    whose file is cut inside the header as its parse error and byte
    offset, and the other jobs still finish."""
    good = small_cfg()
    missing = small_cfg(dataset_path=str(tmp_path / "missing.bin"))
    cut = tmp_path / "cut.bin"
    cut.write_bytes(DATASET_MAGIC + b"\0" * 4)
    truncated = small_cfg(dataset_path=str(cut))
    failed, parse, done = run_experiments([missing, truncated, good],
                                          now="T0")
    assert isinstance(failed, OSError) and "missing.bin" in str(failed)
    assert isinstance(parse, DatasetParseError) and parse.offset == 8
    assert str(parse) == "truncated header (at byte offset 8)"
    assert done == run_experiment(good, now="T0")


def test_sweep_job_whose_seeds_all_abort_fails(monkeypatch, tmp_path, capsys):
    """A job whose every seed aborts is a failed job, as in ``run``: it is
    named, gets no summary row and writes no report, and the sweep exits 2;
    ``run`` with the same flags exits 2 and leaves no ``--out``."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    out = tmp_path / "sweep"
    assert main(["sweep", *cli_small_args(), "--lr", "1e38",
                 "--methods", "er,er-ace", "--out", str(out)]) == EXIT_RUN
    err = capsys.readouterr().err
    for job in ("er-M8", "er-ace-M8"):
        assert f"sweep job {out / job} failed: all seeds failed" in err
        assert not (out / job / "report.json").exists()
    assert err.count("non-finite loss") == 2   # each job says why
    assert json.loads((out / "sweep_summary.json").read_text()) == []
    run_out = tmp_path / "run"
    assert main(["run", *cli_small_args(), "--lr", "1e38",
                 "--out", str(run_out)]) == EXIT_RUN
    assert "run failed: all seeds failed" in capsys.readouterr().err
    assert not run_out.exists()


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_one_task_report_is_strict_json(tmp_path, capsys):
    """A one-task run has no forgetting: its mean is null, not NaN, so the
    file parses as strict JSON, loads, and compares."""
    out = tmp_path / "one"
    args = [*cli_small_args(), "--num-classes", "2", "--out", str(out)]
    assert main(["run", *args]) == EXIT_OK
    path = out / "report.json"
    strict = json.loads(path.read_text(), parse_constant=_refuse_constant)
    assert strict["aggregates"]["forgetting"] == {"mean": None, "stderr": 0.0}
    assert strict["seeds"][0]["forgetting"] is None
    assert load_report(str(path)) == strict
    capsys.readouterr()
    assert main(["compare", str(path), str(path)]) == EXIT_OK
    assert "er-ace" in capsys.readouterr().out


def test_write_json_refuses_non_finite(tmp_path):
    """A dump that fails leaves no file, and leaves a file already at the
    path with its bytes."""
    path = tmp_path / "x.json"
    with pytest.raises(ValueError):
        write_json(str(path), {"v": float("nan")})
    assert not path.exists()
    write_json(str(path), {"v": 1.0})
    before = path.read_bytes()
    with pytest.raises(ValueError):
        write_json(str(path), {"v": float("nan")})
    assert path.read_bytes() == before


@pytest.mark.parametrize("dim,num_classes,counts,message", [
    (4, 0, (0, 0, 0), "num_classes must be finite and >= 1, got 0"),
    (0, 4, (8, 4, 4), "input_dim must be finite and >= 1, got 0"),
    (4, 4, (0, 4, 4), "dataset has no training rows"),
], ids=["no-classes", "no-inputs", "no-training-rows"])
def test_unusable_dataset_file_is_refused(dim, num_classes, counts, message,
                                          tmp_path, capsys):
    """A file the run cannot use is refused by name, before training.  It
    is written field by field, since ``Dataset`` refuses to save it; each
    split's labels cycle through every class."""
    rows = np.zeros(sum(counts), [("x", "<f4", (dim,)), ("y", "<i4")])
    rows["y"] = np.resize(np.arange(num_classes), len(rows))
    ds_path = tmp_path / "ds.bin"
    ds_path.write_bytes(DATASET_MAGIC
                        + struct.pack("<IIIIII", 1, dim, num_classes, *counts)
                        + rows.tobytes())
    out = tmp_path / "run"
    assert main(["run", *cli_small_args(), "--dataset-path", str(ds_path),
                 "--out", str(out)]) == EXIT_RUN
    err = capsys.readouterr().err
    assert f"run failed: {message}" in err and "Traceback" not in err
    assert not out.exists()


def test_task_without_test_rows_is_refused(tmp_path, capsys):
    """A file whose last task has no test rows gives that task no accuracy,
    so the run is refused before training and writes no report."""
    ds = make_synthetic(ExperimentConfig(input_dim=4, num_classes=4,
                                         samples_per_class=20), 0)
    keep = ds.test_y < 2
    ds_path = tmp_path / "ds.bin"
    save_dataset(dataclasses.replace(ds, test_x=ds.test_x[keep],
                                     test_y=ds.test_y[keep]), str(ds_path))
    out = tmp_path / "run"
    assert main(["run", *cli_small_args(), "--dataset-path", str(ds_path),
                 "--out", str(out)]) == EXIT_RUN
    assert "run failed: task 1 has no test rows" in capsys.readouterr().err
    assert not out.exists()
