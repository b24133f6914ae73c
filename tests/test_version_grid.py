"""``tests/version_grid.py`` prints one report line per case, and
compares two runs case by case."""

import importlib.util
import itertools
import sys
from pathlib import Path


def _version_grid():
    path = Path(__file__).with_name("version_grid.py")
    spec = importlib.util.spec_from_file_location("version_grid", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_four_case_grid_prints_one_line_per_case(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    grid = _version_grid()
    assert grid.main(["--limit", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("\t")[0] for line in lines] == \
        list(itertools.islice(grid.cases(), 4))
    for line in lines:
        _, digest, err2, errinf = line.split("\t")
        assert len(digest) == 64 and float(err2) > 0 and float(errinf) > 0
    assert lines == list(grid.grid(4))
    assert not grid.moved(lines, lines)
    case, digest, err2, errinf = lines[2].split("\t")
    other = lines[:2] + ["\t".join([case, "0" + digest[1:],
                                     repr(2 * float(err2)), errinf])] \
        + lines[3:]
    case = case.split("/")
    assert dict(grid.moved(lines, other)) == {
        tuple(case[:3]): [(" ".join(case[3:]), 0.5)]}
