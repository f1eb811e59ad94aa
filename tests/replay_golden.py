"""Replay every case of ``cli_golden.json`` through a given command.

    python tests/replay_golden.py arithline
    PYTHONPATH=src python tests/replay_golden.py python -m arithline.cli

Each case runs as a subprocess of the command with COLUMNS=80, without
ARITHLINE_BITS and with the case's own ``env``.  Its stdout and exit code,
and its stderr where the case records one, must match byte for byte.  Every
case must also keep the refusal rule: no "Traceback" on stderr, and a
nonzero exit prints one versioned JSON error line (on stdout or stderr) or
argparse's usage text, and nothing else.  The script prints each case that
fails either check and exits 1 if any does.  Pytest does not collect it:
``test_cli_golden.py`` replays the same cases in process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

CASES = Path(__file__).parent / "cli_golden.json"


def refusal_ok(code, out, err) -> bool:
    """No traceback, and a nonzero exit prints one {"v": 1, "error": ...} line or usage text."""
    if "Traceback" in err:
        return False
    if code == 0 or not out and err.startswith("usage: "):
        return True
    line, rest = (out, err) if out else (err, out)
    try:
        obj = json.loads(line)
    except ValueError:
        return False
    return not rest and line.count("\n") == 1 and isinstance(obj, dict) and obj.get("v") == 1 and "error" in obj


def replay(command) -> int:
    cases = json.loads(CASES.read_text())
    base = {k: v for k, v in os.environ.items() if k != "ARITHLINE_BITS"}
    failed = 0
    for i, case in enumerate(cases):
        env = {**base, "COLUMNS": "80", **case.get("env", {})}
        proc = subprocess.run([*command, *case["argv"]], capture_output=True, text=True, env=env)
        got = (proc.returncode, proc.stdout, proc.stderr if "stderr" in case else None)
        want = (case["exit"], case["stdout"], case.get("stderr"))
        if got != want:
            failed += 1
            print(f"case {i:02d} {case['argv'][0]}: got {got!r}, want {want!r}")
        elif not refusal_ok(proc.returncode, proc.stdout, proc.stderr):
            failed += 1
            print(f"case {i:02d} {case['argv'][0]}: breaks the refusal rule: {proc.stderr!r}")
    print(f"{len(cases) - failed} of {len(cases)} golden cases match")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: replay_golden.py COMMAND [ARG ...]")
    sys.exit(replay(sys.argv[1:]))
