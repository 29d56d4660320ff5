"""Time one CLI-style set-up of coveralg in a fresh interpreter.

Usage: python3 bench/setup_probe.py INPUTS_JSON

INPUTS_JSON holds a list of [parser name, text] pairs.  The probe
imports coveralg with every module the CLI loads (numpy included),
parses each input through the package's public parsers and prints the
seconds both took on its last line.
"""
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from workloads import PARSERS  # noqa: E402  (stdlib only, outside the timing)


def main():
    inputs = json.loads(Path(sys.argv[1]).read_text())
    t0 = time.perf_counter()
    import coveralg.cli  # noqa: F401  (loads every module the CLI uses)

    parsers = {
        name: getattr(sys.modules[f"coveralg.{module}"], fn)
        for name, (module, fn) in PARSERS.items()
    }
    for name, text in inputs:
        parsers[name](text)
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()
