"""Traced CLI child: import krallops.cli, install the span wrappers, call main.

    python3 perfbench/launcher.py SPANS_JSON <krallops cli arguments>

The parent benchmark process starts it with PYTHONPATH pointing at src/.
The child's spans are written to SPANS_JSON when main returns.
"""

import json
import sys
import time

t0 = time.perf_counter()
import krallops.cli  # noqa: E402

t1 = time.perf_counter()

from tracer import Tracer, install  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    subcommand = next(a for a in argv if not a.startswith("-"))
    tracer = Tracer()
    install(tracer)
    tracer.add("cli.import", t0, t1)
    tracer.enabled = True
    root = tracer.open(f"cli.{subcommand}")
    try:
        return krallops.cli.main(argv)
    finally:
        tracer.close(root)
        tracer.enabled = False
        with open(spans_path, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
