"""Regenerate the pinned outputs the correctness gates compare against.

    python3 perfbench/pin.py [paper] [campaign]

Run it only on a commit whose outputs are known good: ``pins/paper.json``
holds every experiment's report (E5's speedup column masked) and
``pins/campaign.json`` the canonical-JSON digest of every campaign shape set.
"""

from __future__ import annotations

import json
import os
import sys

from common import PINS_DIR, require_source


def pin_paper() -> None:
    from repro.api import Workbench
    from repro.eval.harness import EXPERIMENTS, run_experiment

    from paper import mask

    workbench = Workbench()
    pins = {name: mask(name, run_experiment(name, workbench=workbench).text) for name in EXPERIMENTS}
    _write("paper.json", pins)


def pin_campaign() -> None:
    from repro.api import Workbench

    from campaign import SHAPE_SETS, digest, make_spec, pin_key

    workbench = Workbench()
    pins = {}
    for tiny in (True, False):
        for seed in range(SHAPE_SETS):
            pins[pin_key(seed, tiny)] = digest(workbench.run(make_spec(seed, tiny)).to_json())
            print(pin_key(seed, tiny), flush=True)
    _write("campaign.json", pins)


def _write(name: str, pins) -> None:
    os.makedirs(PINS_DIR, exist_ok=True)
    with open(os.path.join(PINS_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    require_source()
    targets = sys.argv[1:] or ["paper", "campaign"]
    if "paper" in targets:
        pin_paper()
    if "campaign" in targets:
        pin_campaign()
