#!/usr/bin/env python3
"""Wall time per op of `cedar serve --rounds 1` as the client count grows.

Usage (from the repository root, after `dune build bin/cedar.exe`):

    python3 scripts/serve_scale.py [--cedar PATH] [--dir DIR]

For each client count in CLIENTS (64, 256, 1024 and 4096) it times one
whole `cedar serve --clients N --rounds 1 --json` process twice: on 8
fresh in-memory volumes (`--volumes 8`), and on one `mkfs`'d t300
image (made once in DIR, default _build/serve-scale; serve never saves
it). It prints one line per run: the wall seconds, the ops the JSON
report counts and the wall microseconds per op. Exits 1 if a run fails
or reports an error or an aborted session.
"""

import argparse
import json
import os
import subprocess
import sys
import time

CLIENTS = (64, 256, 1024, 4096)


def serve(cedar, args):
    t0 = time.monotonic()
    out = subprocess.run(
        [cedar, "serve"] + args + ["--rounds", "1", "--json"],
        check=True,
        stdout=subprocess.PIPE,
    ).stdout
    wall = time.monotonic() - t0
    report = json.loads(out)
    if report["errors"] != 0 or report["aborted"] != 0:
        raise RuntimeError("%s: %d errors, %d aborted"
                           % (" ".join(args), report["errors"], report["aborted"]))
    return wall, report["total_ops"]


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--cedar", default="_build/default/bin/cedar.exe")
    p.add_argument("--dir", default="_build/serve-scale")
    a = p.parse_args()
    os.makedirs(a.dir, exist_ok=True)
    img = os.path.join(a.dir, "t300.img")
    subprocess.run([a.cedar, "mkfs", img], check=True, stdout=subprocess.DEVNULL)
    for where, extra in (("8 volumes", ["--volumes", "8"]), ("t300 image", [img])):
        for n in CLIENTS:
            try:
                wall, ops = serve(a.cedar, extra + ["--clients", str(n)])
            except (subprocess.CalledProcessError, RuntimeError) as e:
                print("serve-scale: %s, %d clients: %s" % (where, n, e), file=sys.stderr)
                return 1
            print("%-10s clients %5d  wall %7.2f s  ops %7d  %6.1f us/op"
                  % (where, n, wall, ops, wall * 1e6 / max(1, ops)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
