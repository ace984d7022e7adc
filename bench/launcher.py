"""Run the segrekit command line from a source checkout.

Usage: python3 bench/launcher.py [segrekit arguments...]

Applies the import shim from ``shim.py`` and calls ``segrekit.cli.main``,
exactly as the installed ``segrekit`` console script would.  With
``BENCH_TRACE=1`` in the environment the public functions are wrapped with
spans (see ``tracing.py``) and a one-line trace summary is written to stderr
after the command, prefixed with ``BENCH_TRACE ``.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from shim import ImportFailed, import_segrekit  # noqa: E402


def main() -> int:
    try:
        import_segrekit(ROOT)
    except ImportFailed as exc:
        print(f"launcher: {exc}", file=sys.stderr)
        return 2
    from segrekit import cli

    if os.environ.get("BENCH_TRACE") != "1":
        return cli.main(sys.argv[1:])

    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    sys.stdout.flush()
    print("BENCH_TRACE " + json.dumps(summary, sort_keys=True), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
