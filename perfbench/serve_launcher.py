"""Run ``phonocmap serve --socket PATH`` in this interpreter.

Usage::

    python3 perfbench/serve_launcher.py SOCKET [--cpus 1] [--spans PATH]

``--cpus`` pins the daemon (every thread it will start) to those CPUs
before the program is imported. With ``--spans`` the launcher installs
span recording before handing control to ``repro.cli.main``; after
SIGTERM drains the daemon it writes the spans, the import cost and the
peak RSS to that path.
"""

from __future__ import annotations

import argparse
import os
import sys
import time


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("socket")
    parser.add_argument("--cpus", type=lambda text: [int(cpu) for cpu in text.split(",")])
    parser.add_argument("--spans", metavar="PATH")
    args = parser.parse_args(argv)
    if args.cpus:
        os.sched_setaffinity(0, args.cpus)
    modules = len(sys.modules)
    start = time.perf_counter()
    import repro.cli

    import_ms = (time.perf_counter() - start) * 1000.0
    modules = len(sys.modules) - modules
    recorder = None
    if args.spans:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder, service=True)
    code = repro.cli.main(["serve", "--socket", args.socket])
    if recorder is not None:
        recorder.dump(
            args.spans,
            import_ms=import_ms,
            import_modules=modules,
            peak_rss_mb=spans.vmhwm_mb(),
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
