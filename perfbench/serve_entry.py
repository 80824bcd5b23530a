"""The benchmark's entry point for ``repro serve``.

Runs the real CLI ``serve`` path in this process, so the traced and
untraced wire runs share one composition; with ``--trace 1`` the
per-layer timers are installed here first.  On exit it writes a report
(exit code, peak RSS, timer totals) to ``--report``::

    python3 perfbench/serve_entry.py --report R.json --trace 0|1 -- \
        serve Drain DATA_DIR --protocol v2 --isolation thread ...
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import peak_rss_mb, use_source_tree, write_json  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args
    if cli_args and cli_args[0] == "--":
        cli_args = cli_args[1:]
    use_source_tree()
    ledger = None
    if args.trace:
        from layers import Ledger, install_server

        ledger = Ledger()
        install_server(ledger)
    from repro.cli import main as cli_main

    code = cli_main(cli_args)
    # Only the serve process gets here: workers end inside their own
    # bootstrap, so the report describes the parent alone.
    write_json(
        args.report,
        {
            "code": code,
            "rss_mb": peak_rss_mb(),
            "ledger": ledger.dump() if ledger is not None else None,
        },
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
