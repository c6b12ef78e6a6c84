"""Server process entry: ``repro`` CLI, with layer wrappers when traced.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/server_entry.py [--trace-dir DIR] serve --http ...

With ``--trace-dir`` the layer wrappers are installed before the CLI
starts, and the process's spans are written to ``DIR`` when the CLI
returns (``repro serve --http`` returns after its SIGTERM drain).
Without it the program runs unmodified.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    tracer = None
    if argv[:1] == ["--trace-dir"]:
        from layers import install
        from spans import Tracer

        tracer = Tracer(argv[1])
        install(tracer)
        argv = argv[2:]
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        if tracer is not None:
            tracer.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
