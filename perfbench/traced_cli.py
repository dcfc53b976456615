"""`python -m allee_lab` with the benchmark's tracer installed.

    python3 perfbench/traced_cli.py SPANS_PATH CLI_ARGS...

Runs one CLI command in this fresh interpreter and writes its spans, one
JSON list per line, to SPANS_PATH when the command ends.
"""
import sys

import allee_lab.cli
import tracing

if __name__ == "__main__":
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = allee_lab.cli.main(sys.argv[2:])
    finally:
        tracing.write_spans(sys.argv[1], tracer.spans)
    sys.exit(code)
