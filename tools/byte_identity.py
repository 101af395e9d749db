"""Hash every output of a fixed list of CLI commands, to show a refactor is byte-identical.

usage: python tools/byte_identity.py SRC_DIR WORK_DIR > manifest.txt

SRC_DIR is the ``src`` directory of the checkout to test; WORK_DIR must not
exist yet.  The script generates ``synth`` scraping and wifi data (n=1000,
seed 0), fits every method with ``--metric l2`` and ``--metric l1``, plus
popularity with ``--sparsify 0.5``, ``--sparsify 0.9``,
``--metric l1 --sparsify 0.5`` and ``--start rff`` and shortest_path with
``--k 1``, ``--k 10``, ``--metric l1 --k 10``, ``--gamma 0.1``, ``--q 0.1``
and ``--q 0.9`` (each fit
with ``--train-scores`` and ``--dump-graph``), then runs ``score`` (with and
without ``--neg-log-display``), ``ecdf``, ``explain`` (``--p-normal`` 0.5 and
0.95) and ``grid`` on every model, and ``compare`` on each data file.  It
prints ``<sha256>  <name>`` for every output file and for every command's
exit code, stdout and stderr.  Run it on two checkouts and diff the
manifests.  Commands that fail are listed on stderr; a failure is hashed like
any other output.
"""

import contextlib
import hashlib
import io
import os
import sys
import warnings

src, work = sys.argv[1], sys.argv[2]
sys.path.insert(0, os.path.abspath(src))
from relanom.cli import main  # noqa: E402

os.makedirs(work)
os.chdir(work)
warnings.simplefilter("always")
# A warning's source location names the checkout path and the calling line;
# hash only its category and message.
warnings.formatwarning = lambda msg, cat, *_: f"{cat.__name__}: {msg}\n"
hashes = []


def run(tag, *argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    blob = f"exit={code}\n--stdout--\n{out.getvalue()}--stderr--\n{err.getvalue()}"
    hashes.append((hashlib.sha256(blob.encode()).hexdigest(), f"{tag}.stdout"))
    if code:
        print(f"{tag}: exit {code}: {err.getvalue().strip()[:150]}", file=sys.stderr)


FITS = [
    ("pop_l2", ["--method", "popularity", "--metric", "l2"]),
    ("pop_l1", ["--method", "popularity", "--metric", "l1"]),
    ("vd_l2", ["--method", "vertex_degree", "--metric", "l2"]),
    ("vd_l1", ["--method", "vertex_degree", "--metric", "l1"]),
    ("sp_l2", ["--method", "shortest_path", "--metric", "l2"]),
    ("sp_l1", ["--method", "shortest_path", "--metric", "l1"]),
    ("pop_sparse", ["--method", "popularity", "--sparsify", "0.5"]),
    ("pop_rff", ["--method", "popularity", "--start", "rff"]),
    ("sp_k10", ["--method", "shortest_path", "--k", "10"]),
    ("sp_k1", ["--method", "shortest_path", "--k", "1"]),
    ("sp_l1_k10", ["--method", "shortest_path", "--metric", "l1", "--k", "10"]),
    ("pop_sparse09", ["--method", "popularity", "--sparsify", "0.9"]),
    ("sp_g01", ["--method", "shortest_path", "--gamma", "0.1"]),
    ("pop_l1_sparse", ["--method", "popularity", "--metric", "l1", "--sparsify", "0.5"]),
    ("sp_q01", ["--method", "shortest_path", "--q", "0.1"]),
    ("sp_q09", ["--method", "shortest_path", "--q", "0.9"]),
]
for ds in ("scraping", "wifi"):
    data = f"{ds}.csv"
    run(f"{ds}.synth", "synth", "--dataset", ds, "--n", "1000", "--seed", "0", "--output", data)
    run(f"{ds}.compare", "compare", "--input", data, "--output", f"{ds}.compare.csv")
    for name, flags in FITS:
        tag = f"{ds}.{name}"
        model = f"{tag}.model.json"
        run(f"{tag}.fit", "fit", *flags, "--input", data, "--output", model,
            "--train-scores", f"{tag}.train.csv", "--dump-graph", f"{tag}.graph.csv")
        run(f"{tag}.score", "score", "--model", model, "--input", data,
            "--output", f"{tag}.score.csv")
        run(f"{tag}.scoreneg", "score", "--model", model, "--input", data,
            "--output", f"{tag}.scoreneg.csv", "--neg-log-display")
        run(f"{tag}.ecdf", "ecdf", "--model", model, "--output", f"{tag}.ecdf.csv")
        for p in ("0.5", "0.95"):
            run(f"{tag}.explain{p}", "explain", "--model", model, "--input", data,
                "--row", "0", "--p-normal", p, "--output", f"{tag}.explain{p}.csv")
        run(f"{tag}.grid", "grid", "--model", model, "--output", f"{tag}.grid.csv",
            "--resolution", "20")

for name in sorted(os.listdir(".")):
    with open(name, "rb") as fh:
        hashes.append((hashlib.sha256(fh.read()).hexdigest(), name))
for digest, name in sorted(hashes, key=lambda t: t[1]):
    print(f"{digest}  {name}")
