#!/usr/bin/env python3
"""Run one liequad CLI command in this fresh interpreter, as a user would.

    python3 perfbench/worker.py [--trace-out FILE] <liequad arguments>

With --trace-out the command runs under the tracer and its spans and counts
are written to FILE as JSON.  The exit code is the command's.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


def main(argv) -> int:
    import liequad.cli as cli

    if argv[:1] != ["--trace-out"]:
        return cli.main(argv)
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv[2:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    Path(argv[1]).write_text(json.dumps(tracer.dump()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
