"""Recompute pinned.json from the CLI of the checkout it sits in.

    python3 perfbench/pin.py

Run it only at a commit whose artifacts are known to be right: every later
benchmark run is held to these pins byte for byte.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

#: cdf query points the seed chooses from: exact decimals in [1.25, 4],
#: including the abundancy ties 2 and 3.
CDF_POOL = ("1.2500", "1.3333", "1.4142", "1.5000", "1.6180", "1.7321", "1.8000",
            "1.9375", "2.0000", "2.1000", "2.2361", "2.3750", "2.5000", "2.6458",
            "2.7183", "2.8284", "3.0000", "3.1416", "3.2500", "3.3333", "3.5000",
            "3.6056", "3.7500", "4.0000")


def artifact(args: list[str]) -> bytes:
    from withinperfect import cli

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "artifact"
        if cli.main(args + ["--out", str(out)]) != 0:
            raise SystemExit(f"CLI failed: {args}")
        return out.read_bytes()


def main() -> None:
    import checks
    from run import COMMANDS

    digests = {c.name: checks.sha256(artifact(c.args([])))
               for c in COMMANDS.values() if not c.cached}
    cdf = COMMANDS["cdf-warm-2e7"].args(list(CDF_POOL))
    rows = artifact(cdf).decode().splitlines()[1:]
    values = dict(row.split(",") for row in rows)
    pinned = {"digests": digests, "cdf_values": values}
    text = json.dumps(pinned, indent=2) + "\n"
    (HERE / "pinned.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
