"""One fresh process per measured invocation of the withinperfect CLI.

    python3 worker.py REPORT MODE [SPANS] [-- CLI_ARGS...]

MODE is ``import`` (import ``withinperfect.cli`` and stop), ``cli`` (run
``cli.main(CLI_ARGS)``; with SPANS, traced) or ``probe`` (the sieve-only
thread-scaling pass).  REPORT receives one JSON object with
``time.perf_counter`` readings, which on Linux come from the system-wide
monotonic clock, so the parent can subtract its own spawn time from them.
"""

import json
import sys
import time

#: Range of the sieve-only thread-scaling pass.
PROBE_LIMIT = 20_000_000


def _probe() -> dict:
    from withinperfect.sieve import SigmaSource

    seconds = {1: 0.0, 2: 0.0}
    for threads in (1, 2, 2, 1):  # ABBA, so drift in the machine's load cancels
        start = time.perf_counter()
        for _ in SigmaSource(threads=threads).segments(PROBE_LIMIT):
            pass
        seconds[threads] += time.perf_counter() - start
    return {"t1_s": seconds[1] / 2, "t2_s": seconds[2] / 2}


def _peak_rss_kib() -> int:
    """VmHWM, the high-water mark of this process's own address space.

    ru_maxrss is not used: when the parent spawns with vfork, exec records the
    parent's high-water mark into the child's, so a large parent would hide a
    small worker.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    report_path, mode, *rest = argv
    cli_args = rest[rest.index("--") + 1:] if "--" in rest else []
    spans_path = rest[0] if rest and rest[0] != "--" else None

    import withinperfect
    import withinperfect.cli as cli

    report = {"t_imported": time.perf_counter(), "package": withinperfect.__file__}
    if mode == "cli":
        tracer = None
        if spans_path:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
            root = tracer.begin("cli.main")
        report["rc"] = cli.main(cli_args)
        report["t_done"] = time.perf_counter()
        if tracer:
            tracer.end(root)
            tracer.dump(spans_path)
    elif mode == "probe":
        report.update(_probe())
    elif mode != "import":
        raise SystemExit(f"unknown mode {mode!r}")
    report["peak_rss_kib"] = _peak_rss_kib()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
