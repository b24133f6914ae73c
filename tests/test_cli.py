import csv
import dataclasses
import json
import os
import stat

import pytest

from meanpoint import central, cli, geometry, harness, hull, local


@pytest.fixture
def universe_file(tmp_path):
    path = tmp_path / "thresholds6.csv"
    path.write_text(geometry.universe_to_csv(harness.gen_thresholds(6)))
    return str(path)


def test_bench_writes_header_and_one_row_per_cell(universe_file, tmp_path):
    out = tmp_path / "bench.csv"
    code = cli.main(["bench", "--universe", universe_file,
                     "--mechanisms", "chaining,lcm", "--n-grid", "40,80",
                     "--rho", "0.5", "--epsilon", "1.0", "--alpha", "0.5",
                     "--trials", "2", "--out", str(out)])
    assert code == cli.EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == cli.BENCH_HEADER
    cells = [tuple(row.split(",")[1:3]) for row in lines[1:]]
    assert cells == [("chaining", "40"), ("chaining", "80"),
                     ("lcm", "40"), ("lcm", "80")]
    width = len(cli.BENCH_HEADER.split(","))
    assert all(len(row.split(",")) == width for row in lines[1:])


@pytest.mark.parametrize("argv", [
    ["run", "--mechanism", "chaining", "--rho", "0.5", "--n", "20"],
    ["bench", "--mechanisms", "chaining", "--n-grid", "20", "--rho", "0.5"],
])
def test_missing_alpha_is_a_config_error(universe_file, argv, capsys):
    code = cli.main(argv + ["--universe", universe_file])
    assert code == cli.EXIT_CONFIG
    assert "needs --alpha" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--mechanism", "projection", "--rho", "0.5", "--n", "20",
     "--out"],
    ["local", "--protocol", "lpm", "--epsilon", "1.0", "--n", "20",
     "--transcript"],
    ["bench", "--mechanisms", "chaining", "--n-grid", "20", "--rho", "0.5",
     "--alpha", "0.5", "--out"],
])
def test_unwritable_output_path_is_a_config_error(universe_file, tmp_path,
                                                  argv, capsys, monkeypatch):
    def no_trials(*args, **kwargs):
        pytest.fail("measured before the output path was checked")

    monkeypatch.setattr(harness, "measure_error", no_trials)
    code = cli.main(argv + [str(tmp_path / "missing" / "file"), "--universe",
                            universe_file, "--trials", "1"])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["--mechanisms", "chaining,lcm", "--rho", "0.5", "--alpha", "0.3"],
    ["--mechanisms", "projection,nope", "--rho", "0.5"],
    ["--mechanisms", "projection,chaining", "--rho", "0.5"],
    ["--mechanisms", "projection", "--rho", "0.5", "--n-grid", "50,-3"],
    ["--mechanisms", "projection,chaining", "--rho", "0.5", "--alpha", "1.5"],
    ["--mechanisms", "lpm,projection", "--rho", "0", "--epsilon", "1"],
    ["--mechanisms", "projection,pmw", "--rho", "0.5", "--alpha", "nan"],
    ["--mechanisms", "projection,lpm", "--rho", "0.5", "--epsilon", "5"],
    ["--mechanisms", "projection,lpm", "--rho", "0.5", "--epsilon", "1",
     "--n-grid", "20,5000000000"],
])
def test_bench_refuses_before_any_cell_runs(universe_file, argv, capsys,
                                            monkeypatch, tmp_path):
    def no_cells(*args, **kwargs):
        pytest.fail("a cell ran before the configuration was refused")

    monkeypatch.setattr(harness, "measure_error", no_cells)
    grid = [] if "--n-grid" in argv else ["--n-grid", "20,40"]
    out = tmp_path / "bench.csv"
    code = cli.main(["bench", "--universe", universe_file, *argv, *grid,
                     "--trials", "1", "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_run_exits_3_on_an_uncertified_projection(universe_file, tmp_path,
                                                   monkeypatch):
    real = hull.project_onto_hull

    def uncertified(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), certified=False)

    monkeypatch.setattr(hull, "project_onto_hull", uncertified)
    code = cli.main(["run", "--universe", universe_file, "--mechanism",
                     "projection", "--rho", "0.5", "--n", "20", "--trials",
                     "2", "--out", str(tmp_path / "run.json")])
    assert code == cli.EXIT_NONCONVERGENCE


def test_run_exits_0_when_every_projection_certifies(universe_file, tmp_path):
    code = cli.main(["run", "--universe", universe_file, "--mechanism",
                     "projection", "--rho", "0.5", "--n", "20", "--trials",
                     "2", "--out", str(tmp_path / "run.json")])
    assert code == cli.EXIT_OK


@pytest.mark.parametrize("argv, code", [
    (["run", "--mechanism", "chaining", "--rho", "0.5", "--alpha", "0.25"],
     cli.EXIT_OK),
    (["run", "--mechanism", "chaining_linf", "--rho", "0.5", "--alpha",
      "0.25"], cli.EXIT_OK),
    (["local", "--protocol", "lpm", "--epsilon", "1"], cli.EXIT_CONFIG),
])
def test_a_trillion_rows_run_centrally_and_are_refused_locally(
        universe_file, tmp_path, argv, code):
    assert cli.main(argv + ["--universe", universe_file, "--n",
                            "1000000000000", "--trials", "1", "--out",
                            str(tmp_path / "run.json")]) == code


def test_flags_a_subcommand_ignores_are_refused(universe_file, capsys):
    code = cli.main(["run", "--universe", universe_file, "--mechanism",
                     "projection", "--rho", "0.5", "--n", "20",
                     "--format", "csv"])
    assert code == cli.EXIT_CONFIG
    assert "--format" in capsys.readouterr().err


def test_pack_writes_the_profile_table_as_csv(universe_file, tmp_path):
    out = tmp_path / "pack.csv"
    code = cli.main(["pack", "--universe", universe_file, "--alpha", "0.2",
                     "--format", "csv", "--out", str(out)])
    assert code == cli.EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "t,packing,log_packing"
    assert len(lines) > 1
    assert all(len(row.split(",")) == 3 for row in lines[1:])


@pytest.mark.parametrize("argv, label", [([], "l2"),
                                         (["--metric", "linf"], "linf")])
def test_pack_labels_the_profile_with_the_metric_token(universe_file, argv,
                                                        label, capsys):
    code = cli.main(["pack", "--universe", universe_file, "--alpha", "0.2",
                     *argv])
    assert code == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["metric"] == label


def test_bench_quotes_a_comma_in_the_universe_label(tmp_path):
    universe = tmp_path / "a,b.csv"
    universe.write_text(geometry.universe_to_csv(harness.gen_thresholds(6)))
    out = tmp_path / "bench.csv"
    code = cli.main(["bench", "--universe", str(universe), "--mechanisms",
                     "projection", "--n-grid", "20", "--rho", "0.5",
                     "--trials", "1", "--out", str(out)])
    assert code == cli.EXIT_OK
    header, row = csv.reader(out.read_text().splitlines())
    assert header == cli.BENCH_HEADER.split(",")
    assert len(row) == len(header) and row[:2] == ["a,b", "projection"]


@pytest.mark.parametrize("flag", [["--alpha", "0"], ["--alpha", "nan"]])
def test_invalid_pmw_rates_are_config_errors(universe_file, flag, capsys):
    code = cli.main(["run", "--universe", universe_file, "--mechanism",
                     "pmw", "--rho", "0.5", "--n", "20", "--trials", "1",
                     *flag])
    assert code == cli.EXIT_CONFIG
    assert "finite and positive" in capsys.readouterr().err


def test_pmw_flags_are_refused_for_other_mechanisms(universe_file, capsys):
    code = cli.main(["run", "--universe", universe_file, "--mechanism",
                     "chaining_linf", "--rho", "0.5", "--alpha", "0.5",
                     "--n", "20", "--trials", "1", "--pmw-rounds", "3"])
    assert code == cli.EXIT_CONFIG
    assert "--pmw-" in capsys.readouterr().err


def test_pmw_needs_alpha(universe_file, capsys):
    code = cli.main(["run", "--universe", universe_file, "--mechanism",
                     "pmw", "--rho", "0.5", "--n", "20", "--trials", "1"])
    assert code == cli.EXIT_CONFIG
    assert "pmw needs --alpha" in capsys.readouterr().err


def test_underflowing_alpha_still_reports(universe_file):
    # 1e-200 ** 2 underflows to 0 in the bound estimators' closed forms.
    code = cli.main(["run", "--universe", universe_file, "--mechanism",
                     "projection", "--rho", "0.5", "--alpha", "1e-200",
                     "--n", "20", "--trials", "1"])
    assert code == cli.EXIT_OK


def test_out_and_transcript_naming_one_file_is_a_config_error(
        universe_file, tmp_path, capsys, monkeypatch):
    def no_trials(*args, **kwargs):
        pytest.fail("measured before the output paths were checked")

    monkeypatch.setattr(harness, "measure_error", no_trials)
    monkeypatch.chdir(tmp_path)
    code = cli.main(["local", "--universe", universe_file, "--protocol",
                     "lpm", "--epsilon", "1.0", "--n", "20", "--trials", "1",
                     "--transcript", "same.json",
                     "--out", str(tmp_path / "same.json")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "same.json").exists()


@pytest.mark.parametrize("spec", [
    {"mechanism": "chaining", "rho": 0.5, "alpha": 0.3},
    {"mechanism": "lcm", "epsilon": 1.0, "alpha": 0.3},
    {"mechanism": "projection", "rho": 0.5},
])
def test_run_report_survives_a_json_round_trip(spec):
    d = harness.gen_dataset(harness.gen_thresholds(8), 30, seed=0)
    report = harness.measure_error(d, spec, trials=2, seed=1)
    back = harness.RunReport.from_json(json.loads(json.dumps(report.to_json())))
    assert back == report
    assert back.determinism_hash() == report.determinism_hash()
    assert (back.bounds == {}) == ("alpha" not in spec)


def test_transcript_at_the_reports_temporary_name_survives(universe_file,
                                                          tmp_path):
    report, transcript = tmp_path / "r.json", tmp_path / "r.json.tmp"
    code = cli.main(["local", "--universe", universe_file, "--protocol",
                     "lpm", "--epsilon", "1.0", "--n", "20", "--trials", "1",
                     "--out", str(report), "--transcript", str(transcript)])
    assert code == cli.EXIT_OK
    assert json.loads(report.read_text())["n"] == 20
    assert len(transcript.read_text().splitlines()) == 20
    assert sorted(os.listdir(tmp_path)) == ["r.json", "r.json.tmp",
                                            "thresholds6.csv"]


def test_output_keeps_a_users_file_and_the_umask_mode(universe_file,
                                                      tmp_path):
    mine = tmp_path / "w.json.tmp"
    mine.write_text("mine")
    old = os.umask(0o022)
    try:
        code = cli.main(["width", "--universe", universe_file, "--samples",
                         "10", "--out", str(tmp_path / "w.json")])
    finally:
        os.umask(old)
    assert code == cli.EXIT_OK
    assert mine.read_text() == "mine"
    assert stat.S_IMODE((tmp_path / "w.json").stat().st_mode) == 0o644
    assert sorted(os.listdir(tmp_path)) == ["thresholds6.csv", "w.json",
                                            "w.json.tmp"]


def test_failed_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        cli._emit("{}", str(tmp_path / "out.json"))
    assert os.listdir(tmp_path) == []


def test_write_failing_part_way_leaves_no_file(tmp_path):
    # A transcript is written block by block inside the atomic file.
    with pytest.raises(RuntimeError):
        with cli._atomic_file(str(tmp_path / "t.ndjson")) as fh:
            fh.write("{}\n")
            raise RuntimeError("the channel failed")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("protocol", harness.LOCAL_PROTOCOLS)
@pytest.mark.parametrize("trials", [1, 3])
def test_transcript_runs_the_protocol_once_per_trial(universe_file, tmp_path,
                                                     monkeypatch, protocol,
                                                     trials):
    # The transcript is trial 0's messages, streamed by the reported run.
    real, runs = local.simulate_protocol, []

    def counting(level_protocol, seed=None, sink=None):
        runs.append(sink is not None)
        return real(level_protocol, seed, sink)

    monkeypatch.setattr(local, "simulate_protocol", counting)
    transcript = tmp_path / "t.ndjson"
    code = cli.main(["local", "--universe", universe_file, "--protocol",
                     protocol, "--epsilon", "1.0", "--alpha", "0.3",
                     "--n", "30", "--trials", str(trials), "--transcript",
                     str(transcript), "--out", str(tmp_path / "r.json")])
    assert code == cli.EXIT_OK
    assert runs == [True] + [False] * (trials - 1)
    assert len(transcript.read_text().splitlines()) == 30


def test_a_sink_on_a_central_row_is_refused_before_any_trial(monkeypatch):
    def no_release(*args, **kwargs):
        pytest.fail("a trial ran before the sink was refused")

    monkeypatch.setattr(central, "decompose_and_run", no_release)
    d = harness.gen_dataset(harness.gen_thresholds(8), 30, seed=0)
    with pytest.raises(ValueError, match="no messages"):
        harness.measure_error(d, {"mechanism": "chaining", "rho": 0.5,
                                  "alpha": 0.3}, trials=2, seed=0,
                              sink=lambda first, releases: None)
