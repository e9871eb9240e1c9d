"""The blockgd CLI with the benchmark's span wrappers installed.

    python3 bench/cli_trace.py SPANS_OUT <blockgd arguments...>

Behaves like ``python -m blockgd <arguments>`` (same ``main``, same exit
code) and writes the spans it recorded to SPANS_OUT (gzipped JSON) on exit.
The import of the package is timed on its own as ``cli.import_s``.
"""

import sys
import time

start = time.perf_counter()
import blockgd.cli  # noqa: E402

import_s = time.perf_counter() - start

import spans  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.count("cli.import_s", import_s)
    spans.install(tracer)
    tracer.root("cli.sweep" if "--sweep" in argv else "cli.main")
    try:
        return blockgd.cli.main(argv)
    finally:
        tracer.end_root()
        tracer.write(out)


if __name__ == "__main__":
    sys.exit(main())
