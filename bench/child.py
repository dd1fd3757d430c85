"""Run one ``veronese`` command under the tracer, for traced ``paper_cli`` jobs.

    python3 bench/child.py SPANS.json ARG...

Behaves like ``python -m veronese.cli ARG...`` and also writes the spans,
counts and the import time of ``veronese.cli`` to SPANS.json.
"""

import json
import sys
from time import perf_counter

from tracer import Tracer


def main() -> int:
    dump_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import veronese.cli as cli

    import_s = perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        dump = tracer.dump()
        dump["import_s"] = import_s
        with open(dump_path, "w", encoding="utf-8") as fh:
            json.dump(dump, fh)


if __name__ == "__main__":
    raise SystemExit(main())
