"""Start ``repro serve`` for the benchmark, optionally traced.

Usage: ``python3 perfbench/serve_host.py [--trace] -- serve ARGS...``
(with ``src`` on ``PYTHONPATH``).  With ``--trace`` the layer shims of
``layers.py`` are installed before the server starts; the shard worker
processes fork from this one and inherit them, and their records ride
back to the server's ``/metrics`` with every job.
"""

import sys


def main(argv):
    separator = argv.index("--")
    if "--trace" in argv[:separator]:
        from layers import LayerTracer
        LayerTracer().install()
    from repro.cli import main as repro_main
    return repro_main(argv[separator + 1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
