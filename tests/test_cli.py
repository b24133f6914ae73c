import dataclasses

import pytest

from meanpoint import cli, geometry, harness, hull


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
