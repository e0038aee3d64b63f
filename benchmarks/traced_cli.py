"""Run one hybrid-teleport command in this process with layer spans recorded.

    python3 benchmarks/traced_cli.py TRACE_OUT CLI_ARGS...

The traced cold request of the oneshot-cold workload: it imports the CLI
(recorded as the span "import"), wraps the layers, calls ``cli.main`` and
writes the spans to TRACE_OUT as JSON. The source tree must be on PYTHONPATH.
"""

import sys
import time
from pathlib import Path

import tracing


def main(argv: list[str]) -> int:
    out, cli_args = Path(argv[0]), argv[1:]
    tracer = tracing.Tracer()
    start = time.perf_counter()
    import hybrid_teleport.cli as cli
    tracer.record("import", start, time.perf_counter())
    tracing.install(tracer)
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
