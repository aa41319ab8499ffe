"""The unrun-line map of tools/linecov.py."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location("linecov", Path(__file__).parent.parent / "tools" / "linecov.py")
linecov = importlib.util.module_from_spec(spec)
spec.loader.exec_module(linecov)

MODULE = '''"""Two functions, one never called."""


def used(x):
    if x < 0:
        raise ValueError("negative")
    return x + 1


def unused(x):
    y = x * 2
    return y
'''


def test_a_function_never_called_and_a_raise_never_reached_are_reported(tmp_path, capsys):
    path = tmp_path / "two.py"
    path.write_text(MODULE)

    def run():  # import the module and call one of its functions, on its normal path
        spec = importlib.util.spec_from_file_location("two", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.used(1) == 2

    hits = linecov.traced(run, tmp_path)
    lines, errors = linecov.executable_lines(path)
    assert lines == {1, 4, 5, 6, 7, 10, 11, 12} and errors == {6}
    assert lines - {line for _, line in hits} == {6, 11, 12}
    assert linecov.report([path], hits, tmp_path) == (8, 3, 1)
    out = capsys.readouterr().out
    assert out.startswith("two.py: 3 of 8 not run\n  code: [11, 12]\n  raise/except: [6]\n")
    assert out.endswith("total: 3 of 8 executable lines not run, 1 of them raise/except\n")
