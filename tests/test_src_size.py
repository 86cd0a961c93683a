"""`scripts/src_size.py`, the line counter of `src/irsma`."""

import importlib.util
from pathlib import Path

import irsma

PACKAGE = Path(irsma.__file__).resolve().parent


def _src_size():
    path = Path(__file__).resolve().parents[1] / "scripts" / "src_size.py"
    spec = importlib.util.spec_from_file_location("src_size", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_totals_are_the_line_counts_of_the_package():
    sizes = _src_size().package_size(PACKAGE)
    files = sorted(PACKAGE.glob("*.py"))
    assert sorted(sizes) == sorted([p.name for p in files] + ["total"])
    for path in files:
        counts = sizes[path.name]
        assert counts["total"] == path.read_bytes().count(b"\n"), path.name
        assert counts["total"] == sum(v for k, v in counts.items() if k != "total")
    assert sizes["total"]["total"] == sum(sizes[p.name]["total"] for p in files)


def test_each_kind_of_line(tmp_path, capsys):
    (tmp_path / "m.py").write_text(
        '"""Module docstring,\n'
        "\n"
        'over three lines."""\n'
        "# a comment\n"
        "x = 1  # code with a comment\n"
        "\n"
        "\n"
        "def f():\n"
        '    """One-line docstring."""\n'
        '    s = """not a\n'
        '    docstring"""\n'
        "    return s\n")
    src_size = _src_size()
    assert src_size.count_lines(tmp_path / "m.py") == {
        "total": 12, "code": 5, "docstring": 3, "comment": 1, "blank": 3}
    assert src_size.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["module", *src_size.COLUMNS]
    assert lines[1].split() == ["m.py", "12", "5", "3", "1", "3"]
    assert lines[2].split() == ["total", "12", "5", "3", "1", "3"]
