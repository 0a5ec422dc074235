"""Run one scottlab CLI command in this fresh interpreter, as a user would.

    python3 cli_child.py RESULT_JSON TRACE(0|1) <scottlab arguments...>

Exits with the CLI's exit code.  RESULT_JSON receives the peak resident
memory and, with TRACE = 1, the spans (the package import among them) and
counters of the traced package functions.
"""

import json
import resource
import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tr = Tracer()
    with tr.span("cli.import"):
        import scottlab.cli
    if trace:
        import layers
        layers.install(tr)
    code = scottlab.cli.main(argv)
    tr.restore()
    Path(result_path).write_text(json.dumps({
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": [list(s) for s in tr.spans] if trace else [],
        "counters": dict(tr.counters) if trace else {},
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
