"""Run one rmaws server in its own process for the benchmark.

    python3 perfbench/launcher.py --config-json '{"services": [...]}' [--trace] [--break-dedup]

Builds ``RmawsServer`` from the config (the same ``ServerConfig`` that
``rmaws serve`` reads), prints ``READY <port>`` on stdout, then answers
one JSON line per command line read from stdin:

- ``stats``: CPU seconds this process has used (all threads, ended ones
  included) and its peak RSS;
- ``dump <path>``: write the recorded spans and counters (``--trace``
  only) to ``path``;
- ``quit``, or end of input: stop the server and exit.

``--break-dedup`` passes the same flag ``rmaws serve --break-dedup``
passes, which turns deduplication off so the benchmark's checks can be
shown to fail.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from rmaws.server.http import RmawsServer, ServerConfig  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config-json", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--break-dedup", action="store_true")
    args = parser.parse_args()
    logging.basicConfig(level=logging.WARNING)

    tracer = None
    if args.trace:
        import layers
        import spans

        tracer = spans.Tracer()
        layers.install(tracer)

    server = RmawsServer(ServerConfig.from_dict(json.loads(args.config_json)),
                         break_dedup=args.break_dedup).start()
    print(f"READY {server.port}", flush=True)
    try:
        for line in sys.stdin:
            command, _, arg = line.strip().partition(" ")
            if command == "stats":
                reply = {"cpu_s": time.process_time(),
                         "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
            elif command == "dump" and tracer is not None:
                layers.add_holdings(tracer, server.core)
                tracer.dump(arg)
                reply = {"ok": True}
            elif command == "quit":
                break
            else:
                reply = {"error": f"unknown command {line.strip()!r}"}
            print(json.dumps(reply), flush=True)
    finally:
        server.stop(drain_timeout_s=5.0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
