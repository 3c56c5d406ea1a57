"""One benchmark repetition, run in a fresh interpreter.

    python3 child.py --ini W.ini --subcommand sweep-nr --out r.csv --result r.json [--trace]
    python3 child.py --ini W.ini --subcommand sweep-nr --result r.json --setup-only

Times `import airelm` plus `parse_config` of the INI (set-up), then one
`airelm.cli.main` call (the run), and writes both times, the exit code and,
with --trace, every recorded span to the result file as JSON.  The parent
puts the program's `src` directory on PYTHONPATH and sends stdout, where
the CLI prints its summary table, to /dev/null.
"""

import argparse
import json
import os
import threading
import time

import spans


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--ini", required=True)
    parser.add_argument("--subcommand", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import airelm
    from airelm.cli import main as airelm_main
    from airelm.config import parse_config
    parse_config(args.ini, kind=args.subcommand.replace("-", "_"))
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "airelm": os.path.abspath(airelm.__file__)}

    if not args.setup_only:
        argv = [args.subcommand, "--config", args.ini, "--out", args.out]
        tracer = spans.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        t1 = time.perf_counter()
        code = (airelm_main(argv) if tracer is None
                else tracer.call(spans.ROOT, airelm_main, (argv,), {}))
        result.update(code=code, run_s=time.perf_counter() - t1)
        if tracer is not None:
            tracer.uninstall()
            result.update(root_thread=threading.get_ident(),
                          spans=tracer.spans())

    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
