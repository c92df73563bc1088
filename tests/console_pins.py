"""Run every pinned console line of tests/data/console.txt.

    python tests/console_pins.py [command ...]

runs each manifest line's argv through the command (default: supercolor),
with SUPERCOLOR_CAPS removed from the environment, and exits 1 naming each
line whose exit code or stdout differs.  It does not import supercolor, so
it checks the console script as installed; tier-1 runs the same lines in
process."""
import os
import pathlib
import subprocess
import sys

DATA = pathlib.Path(__file__).resolve().parent / "data"


def pins(lines=None) -> list[tuple[str, int, pathlib.Path | None, list[str]]]:
    """(line, exit code, expected stdout file or None, argv) per manifest line;
    lines defaults to the manifest's own."""
    if lines is None:
        lines = (DATA / "console.txt").read_text(encoding="utf-8").splitlines()
    result = []
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if line:
            code, stdout, *argv = line.split()
            argv = [str(DATA / a[1:]) if a.startswith("@") else a for a in argv]
            result.append((line, int(code), None if stdout == "-" else DATA / stdout, argv))
    return result


def main(command, lines=None) -> int:
    env = {k: v for k, v in os.environ.items() if k != "SUPERCOLOR_CAPS"}
    failed = 0
    for line, code, stdout, argv in pins(lines):
        proc = subprocess.run([*command, *argv], stdout=subprocess.PIPE, env=env)
        if proc.returncode != code:
            problem = f"exit {proc.returncode} instead of {code}"
        elif stdout is not None and proc.stdout != stdout.read_bytes():
            problem = "stdout differs"
        else:
            continue
        print(f"{problem}: {line}", file=sys.stderr)
        failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["supercolor"]))
