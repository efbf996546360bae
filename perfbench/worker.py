"""One fresh-process sample of the ``paper`` or ``campaign`` workload.

Started by ``run.py`` with the monotonic time at which it spawned the process,
so the sample's set-up time covers interpreter start and imports.  Prints one
JSON line: operations attempted, failed checks, end-to-end values and, with
``--trace``, the per-layer metrics of its spans.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import peak_rss_mb, require_source


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=("paper", "campaign"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--first", action="store_true", help="run the once-per-run gates")
    parser.add_argument("--extras", action="store_true", help="campaign in-run A/B pairs")
    parser.add_argument("--corrupt", default="")
    args = parser.parse_args()
    require_source()

    tracer = None
    if args.trace:
        from layers import install
        from tracer import Tracer

        tracer = Tracer()
        install(tracer)
    if args.workload == "paper":
        import paper as workload
    else:
        import campaign as workload
    out = workload.sample(args, tracer)
    out["values"]["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
