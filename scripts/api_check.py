#!/usr/bin/env python3
"""Fail on any value a lib/**/*.mli exports that no other source file uses.

Run from the repository root after `dune build @check`, which leaves a
.cmt for every library module, executable, test and example:

    dune build @check && python3 scripts/api_check.py

For each .cmt, `ocamlcmt -annot` lists every identifier reference with
the location of its definition; a value exported by an interface is
defined at its `val` line in that .mli. A `val` that no source file
other than its own .ml/.mli refers to is reported, and the script exits
1. References from lib/, bin/, bench/, perfbench/, test/ and examples/
all count. Members of `module type ... = sig ... end` blocks are
signatures for functor arguments, not values, and are skipped.
"""

import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

BUILD = os.path.join("_build", "default")
REF = re.compile(r'^\s*(?:int|ext)_ref \S+ "(lib/[^"]+\.mli)" (\d+) ')
LOC = re.compile(r'^"([^"]+)" \d+ ')
VAL = re.compile(r"^\s*(?:val|external)\s+(\(.*?\)|[a-z_][\w']*)")
MODULE_TYPE = re.compile(r"^\s*module type \w+ = sig\b")


def cmt_files():
    cmts, dirs = [], set()
    for root, _, files in os.walk(BUILD):
        for f in files:
            if f.endswith(".cmt"):
                cmts.append(os.path.join(root, f))
                dirs.add(root)
    return sorted(cmts), sorted(dirs)


def references(cmt, includes):
    """(source file, [(mli, line)]) for one .cmt, or None if its source is gone."""
    out = subprocess.run(
        ["ocamlcmt", "-annot", *includes, "-o", "-", cmt],
        check=True, capture_output=True, text=True,
    ).stdout
    source, refs = None, []
    for line in out.splitlines():
        if source is None:
            m = LOC.match(line)
            if m:
                source = m.group(1)
        m = REF.match(line)
        if m:
            refs.append((m.group(1), int(m.group(2))))
    if source is None or not os.path.exists(source):
        return None
    return source, refs


def code_lines(text):
    """The lines of [text] with (possibly nested, multi-line) comments blanked."""
    out, depth, i = [], 0, 0
    while i < len(text):
        two = text[i:i + 2]
        if two == "(*":
            depth, i = depth + 1, i + 2
        elif two == "*)" and depth > 0:
            depth, i = depth - 1, i + 2
        else:
            c = text[i]
            out.append(c if depth == 0 or c == "\n" else " ")
            i += 1
    return "".join(out).split("\n")


def exported_values():
    """[(mli, line, name)] for every `val` outside module type blocks."""
    vals = []
    for root, _, files in os.walk("lib"):
        for f in sorted(files):
            if not f.endswith(".mli"):
                continue
            mli = os.path.join(root, f)
            depth = 0
            with open(mli) as h:
                for n, code in enumerate(code_lines(h.read()), 1):
                    if depth == 0 and MODULE_TYPE.match(code):
                        depth = 1
                        continue
                    if depth > 0:
                        words = re.findall(r"\b(sig|struct|object|end)\b", code)
                        for w in words:
                            depth += -1 if w == "end" else 1
                        continue
                    m = VAL.match(code)
                    if m:
                        vals.append((mli, n, m.group(1)))
    return vals


def main():
    cmts, dirs = cmt_files()
    if not cmts:
        sys.exit("api-check: no .cmt files under %s; run `dune build @check` first" % BUILD)
    includes = [a for d in dirs for a in ("-I", d)]
    users = {}
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        for r in pool.map(lambda c: references(c, includes), cmts):
            if r is None:
                continue
            source, refs = r
            for key in refs:
                users.setdefault(key, set()).add(source)
    dead = []
    for mli, line, name in exported_values():
        own = {mli, mli[:-1]}
        if not users.get((mli, line), set()) - own:
            dead.append("%s:%d: val %s" % (mli, line, name))
    for d in dead:
        print(d)
    if dead:
        print("api-check: %d exported values that no other source file references" % len(dead))
        sys.exit(1)
    print("api-check: every exported value has a user outside its module (%d .cmt files)" % len(cmts))


if __name__ == "__main__":
    main()
