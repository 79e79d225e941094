"""The rosenau CLI in a fresh process, with the benchmark's layer wrappers.

Usage: python3 perfbench/tracecli.py <rosenau arguments>, with
PERFBENCH_SPANS naming the file that receives the spans at exit.
"""

import os
import sys

import tracing


def main() -> int:
    from rosenau import cli

    tracer = tracing.Tracer(run_id=os.environ.get("PERFBENCH_RUN_ID", "cli"))
    tracing.install(tracer)
    try:
        return cli.main(sys.argv[1:])
    finally:
        tracer.dump(os.environ["PERFBENCH_SPANS"])


if __name__ == "__main__":
    sys.exit(main())
