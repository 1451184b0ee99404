"""Run ``scedex`` under the span tracer: ``python bench/traced_cli.py <args>``.

Behaves like ``python -m scedex.cli <args>`` and writes the spans to the file
named by ``SCEDEX_BENCH_SPANS`` when the command ends, however it ends.
"""

import os
import sys

from spans import Recorder, install


def main() -> None:
    rec = Recorder()
    install(rec)
    from scedex.cli import main as cli_main
    try:
        cli_main(args=sys.argv[1:], prog_name="scedex")
    finally:
        rec.dump(os.environ["SCEDEX_BENCH_SPANS"])


if __name__ == "__main__":
    main()
