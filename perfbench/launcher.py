"""Benchmark-owned launcher for one CLI request in a fresh process.

    python3 perfbench/launcher.py [--trace] -- <partizeta CLI arguments>
    python3 perfbench/launcher.py --import-only

It times ``import partizeta``, calls ``partizeta.cli.main(argv)`` (under the
span tracer with ``--trace``) and exits with the CLI's exit code. The CLI
report goes to stdout unchanged; the last stderr line is a marker followed by
the launcher's own record (peak RSS, import time, spans).
"""

from __future__ import annotations

import json
import resource
import sys
import time

MARKER = "@@perfbench "


def main(argv) -> int:
    trace = "--trace" in argv
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        root = tracer.begin("bench.process")
        imp = tracer.begin("bench.import")
    t0 = time.perf_counter()
    import partizeta.cli

    import_s = time.perf_counter() - t0
    if "--import-only" in argv:
        return 0
    if tracer:
        tracer.end(imp)
        tracer.install()
    cli_argv = argv[argv.index("--") + 1:]
    code = partizeta.cli.main(cli_argv)
    record = {"import_s": import_s,
              "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        tracer.end(root)
        record["spans"] = tracer.dump()
    sys.stdout.flush()
    sys.stderr.write("\n" + MARKER + json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
