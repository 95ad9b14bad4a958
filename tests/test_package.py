import os
import subprocess
import sys
import types

import fermatkit


def test_every_export_resolves_and_none_is_a_module():
    for name in fermatkit.__all__:
        assert not isinstance(getattr(fermatkit, name), types.ModuleType), name
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
