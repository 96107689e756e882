"""Cold CLI probes: wall time, peak memory and a pinned digest per command.

    python3 tools/probes.py [--work]

Runs each command of PROBES once, in order, as a fresh `python3 -m
lieram.cli` child of this checkout's src/, with PYTHONDONTWRITEBYTECODE=1
and without LIERAM_BOUND.  Per command it prints one JSON line: the
command, its wall time in seconds, the child's peak resident set size
(ru_maxrss from os.wait4) in MB, its exit status, and the sha256 of its
stdout followed by "exit <status>\\n", with "pinned" true when that digest
is the one PROBES holds.  The stdout is hashed in chunks as it is read, so
this process holds none of it and its own peak stays small.  The digests
were taken at commit fb2acc8 (the six fast E6-E8 answers at 4a97618, the
E7 and E8 quantum blocks at 8728c9f, the regular E6 quantum cell at
1c5205b, the E7 cell of Phi' = A1 at 30135ed), so a probe checks the bytes
it answers as well as its cost.
Exits 1 when any digest differs from its pin.  `tools/bench_pairs.py
PARENT CHANGE --probes` runs the same commands in alternating pairs of two
commits.

With --work each row also carries the exact work of the command's answer,
"bytecodes" and "calls", as tools/work.py counts them in a child of its
own: in process, after a warm-up answer of the same command on another
input (or, for a command without a value flag, on itself).  Counts do not
depend on the host's speed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import shlex
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

# the digest of a refusal: no stdout, exit status 1
REFUSED = "0c6868c2c44f053619cef1cc383e1d530743b574ca192ace9168a9ccf46a86e3"

# (command after `lieram`, sha256 of its stdout and exit status)
PROBES = (
    # value counts refused on A120, and the trace-form hypothesis (121 = 11^2)
    # refused before the count
    ("modular poincare --type A120 --p 1000003 --weight 0", REFUSED),
    ("modular unramified --type A120 --p 1000003 --weight 0", REFUSED),
    ("modular finite-type --type A120 --p 1000003 --weight 0", REFUSED),
    ("modular blocks --type A120 --p 1000003 --chi-s 1", REFUSED),
    ("quantum unramified --type A120 --ell 7 --torus 0", REFUSED),
    ("quantum blocks --type A120 --ell 7 --chi-s 1", REFUSED),
    ("modular poincare --type A120 --p 11 --weight 0", REFUSED),
    # one refusal per check of errors.BOUNDS the command line reaches: the
    # type (|Phi+| x rank = 1 008 126), the field (p above 10^9) and the
    # points (7^8 = 5 764 801)
    ("quantum exceptional --type A126", REFUSED),
    ("modular blocks --type A1 --p 1000000007", REFUSED),
    ("modular blocks --type E8 --p 7", REFUSED),
    # the rank-6 and rank-7 block walks
    ("modular blocks --type E6 --p 7",
     "444a40332666c4fc5b7f8c0838800d9a3f13d5a270f6f44aac9a4f53c32a92ca"),
    ("quantum blocks --type E6 --ell 7",
     "9b5447f2a30ebf1f41258080ede78d4c13f487b0f669a8b545c5b6a05c2bb163"),
    ("modular blocks --type E7 --p 7",
     "ffff67ca6be4e3a1269ed4c8a3ed58196d74ebe5050116da5f33adea9c8cb6f3"),
    ("quantum structure --type E7 --ell 7",
     "a27d1986616c3d3f96c87a803ce7de35ccab206bcf68bd0ac26bfd08982723da"),
    # one block answer per process, so no report kind is met twice
    ("quantum blocks --type E7 --ell 7",
     "09e54adcec1edade7a6f0be22b77fe1d2c59d8856a4218526e700f67c8fbe3d1"),
    ("quantum blocks --type E8 --ell 5",
     "51fd3ecc12604953e49179cab684610251c61928b3d89e81c6da3452f5653f74"),
    # a regular chi (Phi' empty): 117 649 blocks of one point each, no walk
    ('quantum blocks --type E6 --ell 7 --chi-s 1/2,1/3,1/5,1/11,1/13,1/17 --support ""',
     "03fa11e17f12b7fabb70f87d9d9331c23b762be88c76f50bffe4e4be7f0153ed"),
    # Phi' = A1 on 7^7 points: 470 596 blocks, 154 759 557 bytes of stdout
    ('quantum blocks --type E7 --ell 7 --chi-s 1/2,1/3,1/5,1/11,1/13,1/17,1/19 --support ""',
     "0edffa41c0bba5de20ab17f92ab9518975b03caeaa3e6c9976dcb5e6dcc098da"),
    # fast answers on E6-E8, whose cold time is mostly start-up and import
    ("modular poincare --type E8 --p 7 --weight 0,0,0,0,0,0,0,0",
     "dc8b680f007e08a1197de87e45311afee0ada890f423b6db8648b7376c017b0c"),
    ("modular unramified --type E7 --p 7 --weight 1,2,3,4,5,6,0",
     "648113fa902e0e3896b18cb1c63d6b2d5567dc364b02118f4495b6af4e95a63e"),
    ("modular finite-type --type E6 --p 7 --weight 1,2,3,4,5,6",
     "528560f89d9687db7babf635aff6ebca18f3db8be044721c9b75ec29fa93e48f"),
    ("quantum unramified --type E8 --ell 7 --torus 1/2,1/3,0,0,0,0,0,1/5",
     "e6da350ea944e438900b6a8573e0bf68eba365f4bc841afc5798a23b67edd955"),
    ("quantum exceptional --type E8",
     "da7f22976ec3431cace7a535c3334b8faf5ea75de6ff6ba27a191f00512f66cf"),
    ("verify appendix --type E8",
     "fbdb3aefe9022a92daf83f60f25fd4d39644d33c153f6c67e58dcd077154a954"),
)


def run(argv, root=ROOT):
    """(wall seconds, peak RSS in MB, digest, exit status) of one cold CLI
    child of the checkout at `root`; stderr is discarded."""
    env = {k: v for k, v in os.environ.items() if k != "LIERAM_BOUND"}
    env.update(PYTHONPATH=str(pathlib.Path(root) / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    sha, code, usage = hashed_child([sys.executable, "-m", "lieram.cli", *argv], env, root)
    # ru_maxrss is in KB on Linux
    return time.perf_counter() - start, usage.ru_maxrss / 1024, sha, code


def hashed_child(args, env, cwd=ROOT):
    """(digest, exit status, resource usage) of a child run from `cwd` (by
    default the root of this checkout), its stdout hashed in chunks of 64 KB
    as it is read."""
    sha = hashlib.sha256()
    with subprocess.Popen(args, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL) as proc:
        for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
            sha.update(chunk)
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    sha.update(b"exit %d\n" % proc.returncode)
    return sha.hexdigest(), proc.returncode, usage


def work(argv):
    """(bytecodes, calls) of one answer of argv, from the first line
    `python3 tools/work.py --top 0 ARGV` prints in a child, without
    LIERAM_BOUND."""
    env = {k: v for k, v in os.environ.items() if k != "LIERAM_BOUND"}
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "work.py"), "--top", "0", *argv],
                          cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    row = json.loads(done.stdout.splitlines()[0])
    return row["bytecodes"], row["calls"]


def measure(probes, runner=run, counter=None):
    """One row per (command, pinned digest) of `probes`, yielded as each
    command is run once by `runner`, in order; with a `counter`, each row
    also holds the bytecodes and calls counter(argv) gives."""
    for command, pinned in probes:
        argv = shlex.split(command)
        seconds, rss, sha, code = runner(argv)
        row = {"command": command, "seconds": round(seconds, 3),
               "peak_rss_mb": round(rss, 1), "exit": code, "sha256": sha,
               "pinned": sha == pinned}
        if counter is not None:
            row["bytecodes"], row["calls"] = counter(argv)
        yield row


def main(probes=PROBES, runner=run, argv=(), counter=work) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--work", action="store_true",
                    help="count each answer's bytecodes and calls (tools/work.py)")
    args = ap.parse_args(argv)
    ok = True
    for row in measure(probes, runner, counter if args.work else None):
        print(json.dumps(row, sort_keys=True), flush=True)
        ok = ok and row["pinned"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
