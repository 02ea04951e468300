"""Run one readmitlab CLI command in this process with every layer traced.

    python3 bench/traced.py SPANS_JSON -- <readmitlab arguments>

Imports `readmitlab.cli` (timed), wraps the package's layer boundaries
(see spans.py), calls `readmitlab.cli.main` and writes the recorded spans to
SPANS_JSON. Exits with the command's own exit code. `src/` must be on
PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import spans


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    start = perf_counter()
    import readmitlab.cli
    import_s = perf_counter() - start

    tracer = spans.Tracer()
    spans.install(tracer)
    code = readmitlab.cli.main(cli_args)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, "import_s": import_s,
                   "fields": ["id", "name", "start", "end", "parent", "thread", "n"],
                   "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
