"""``python -m repro.serve serve`` with the layer entry points traced.

    python3 perfbench/traced_server.py SPANS.json

Runs the evaluation server exactly as its command line does, on a free port,
and writes the recorded spans to ``SPANS.json`` when it receives SIGTERM.
"""

from __future__ import annotations

import os
import signal
import sys

from common import require_source


def main() -> int:
    require_source()
    from layers import install
    from tracer import Tracer

    spans_path = sys.argv[1]
    tracer = Tracer()
    install(tracer)

    def dump_and_exit(signum, frame) -> None:
        tracer.dump(spans_path)
        os._exit(0)

    signal.signal(signal.SIGTERM, dump_and_exit)
    from repro.serve.__main__ import main as serve_main

    return serve_main(["serve", "--port", "0"])


if __name__ == "__main__":
    sys.exit(main())
