"""Run `quadembed.cli.main` in this interpreter with tracing or profiling on.

    python3 bench/cli_child.py --trace-out PATH -- verify --suite all ...
    python3 bench/cli_child.py --profile-out PATH [--profile-top N] -- verify ...

Standard output is the CLI's own, byte for byte; the trace (spans plus their
per-name aggregate) or the profile table goes to PATH.
"""

from __future__ import annotations

import argparse
import cProfile
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from tracer import Tracer, profile_table  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--trace-out")
    mode.add_argument("--profile-out")
    parser.add_argument("--profile-top", type=int, default=30)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    argv = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args

    import quadembed.cli as cli

    if opts.trace_out:
        tracer = Tracer()
        tracer.install()
        try:
            rc = cli.main(argv)
        finally:
            tracer.uninstall()
        tracer.dump(opts.trace_out, aggregate=tracer.aggregate())
        return rc

    prof = cProfile.Profile()
    rc = prof.runcall(cli.main, argv)
    Path(opts.profile_out).write_text(profile_table(prof, opts.profile_top), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main())
