"""Run ``repro`` CLI arguments with the per-layer wrappers installed.

    python perfbench/traced_cli.py DUMP_DIR typecheck --query ... [...]

Writes this process's totals to ``DUMP_DIR/main.json`` on exit; forked
pool workers write ``DUMP_DIR/worker-<pid>.json`` after every range.
The benchmark puts the checkout's ``src`` on ``PYTHONPATH``.
"""

import json
import os
import sys

from layers import Tracer


def main() -> int:
    dump_dir, argv = sys.argv[1], sys.argv[2:]
    import repro.cli

    tracer = Tracer(dump_dir=dump_dir)
    tracer.install()
    try:
        code = repro.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(os.path.join(dump_dir, "main.json"), "w", encoding="utf-8") as handle:
            json.dump(tracer.snapshot(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
