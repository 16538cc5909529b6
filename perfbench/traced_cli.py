"""Run the steklov-rect command with per-layer spans installed.

Usage: python traced_cli.py DUMP.json <steklov-rect arguments...>

The aggregated spans of this one call are written to DUMP.json, whatever
the exit code; the exit code is that of the command.
"""

import json
import sys

from spans import Tracer


def main() -> int:
    dump, argv = sys.argv[1], sys.argv[2:]
    import steklov_rect.cli

    tracer = Tracer()
    tracer.install()
    try:
        return steklov_rect.cli.main(argv)
    finally:
        with open(dump, "w") as fh:
            json.dump(tracer.to_dict(), fh)


if __name__ == "__main__":
    sys.exit(main())
