import os
import signal
import subprocess
import sys
import types

import pytest

import fermatkit


def test_every_export_resolves_and_none_is_a_module():
    for name in fermatkit.__all__:
        export = getattr(fermatkit, name)
        assert not isinstance(export, types.ModuleType), name
        # A stdlib name imported into the package is not an export.
        assert export.__module__.startswith("fermatkit."), name
    assert len(set(fermatkit.__all__)) == len(fermatkit.__all__)


def test_cli_import_leaves_heavy_modules_unloaded():
    # Every CLI run pays for what importing the CLI loads: the records need
    # no dataclasses (which pulls in inspect), and json loads only for --json.
    src = os.path.dirname(os.path.dirname(fermatkit.__file__))
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import fermatkit.cli; "
        "print(sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[]\n"


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no SIGALRM")
def test_a_test_that_hangs_fails_at_its_time_limit(tmp_path):
    # This suite's conftest, with a 1 s limit, around a loop that never
    # ends: the run reports one failure instead of hanging.
    limit = "\nTIME_LIMIT = 60\n"
    with open(os.path.join(os.path.dirname(__file__), "conftest.py")) as f:
        text = f.read()
    assert limit in text
    (tmp_path / "conftest.py").write_text(text.replace(limit, "\nTIME_LIMIT = 1\n"))
    (tmp_path / "test_hang.py").write_text(
        "def test_hang():\n    while True:\n        pass\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "."],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode == 1, proc.stdout
    assert "1 failed" in proc.stdout
    assert "test ran past its 1 s limit" in proc.stdout
