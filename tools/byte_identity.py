"""Hash every output of a fixed list of CLI commands, to show a refactor is byte-identical.

usage: python tools/byte_identity.py SRC_DIR WORK_DIR > manifest.txt

SRC_DIR is the ``src`` directory of the checkout to test; WORK_DIR must not
exist yet.  The script generates ``synth`` scraping and wifi data (n=1000,
seed 0), fits every method with ``--metric l2`` and ``--metric l1``, plus
popularity with ``--sparsify 0.5``, ``--sparsify 0.9``,
``--metric l1 --sparsify 0.5`` and ``--start rff`` and shortest_path with
``--k 1``, ``--k 10``, ``--metric l1 --k 10``, ``--gamma 0.1``, ``--q 0.1``
and ``--q 0.9``, and every method with ``--preprocess standardize`` (each fit
with ``--train-scores`` and ``--dump-graph``), then runs ``score`` (with and
without ``--neg-log-display``), ``ecdf``, ``explain`` (``--p-normal`` 0.5 and
0.95) and ``grid`` on every model, and ``compare`` on each data file.  A
copy of each data file with a quoted header and CRLF line ends is fitted by
every method under both preprocessors and scored, and a copy with the two
feature column names swapped is scored by the same default models fitted on
the data file, which must refuse it.  A duplicated integer grid (40 rows, 20
distinct points, 4 and 5 values per column), whose pairs tie at the cut's
threshold, is fitted with ``--preprocess standardize`` (with ``--train-scores``
and ``--dump-graph``) by popularity plain, with ``--sparsify 0.5``, with
``--metric l1 --sparsify 0.5``, with ``--start random`` and with ``--start rff``,
by vertex_degree and by dense shortest_path, and each model is scored; these
fits run on its distinct rows, and the cut's outputs change whenever its tie
rule does.  It prints ``<sha256>  <name>`` for every output file and for every
command's exit code, stdout and stderr, and for ``--help`` of the program and of
every command, formatted at 80 columns.  Its first line names the CPU cores the
process may run on and ``OPENBLAS_NUM_THREADS``: the popularity fits' BLAS
product ``dsymv`` sums in an order that depends on the BLAS thread count, so
two manifests compare only at one thread count.  Run it on two checkouts and
diff the manifests.  Commands that fail are listed on stderr; a failure is
hashed like any other output.  Every model file a fit writes is loaded and
saved again, and one whose second save differs from it by a byte is listed on
stderr too.
"""

import contextlib
import hashlib
import io
import os
import sys
import warnings

src, work = sys.argv[1], sys.argv[2]
os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal's width
sys.path.insert(0, os.path.abspath(src))
from relanom.cli import main  # noqa: E402
from relanom.model_io import load_model, save_model  # noqa: E402

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
    elif argv[0] == "fit" and "--help" not in argv:
        model = argv[argv.index("--output") + 1]
        save_model("resaved.json", load_model(model))
        with open(model, "rb") as fitted, open("resaved.json", "rb") as resaved:
            if fitted.read() != resaved.read():
                print(f"{tag}: model file changes when loaded and saved again", file=sys.stderr)
        os.remove("resaved.json")


print(f"# cores {len(os.sched_getaffinity(0))}, "
      f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
run("help", "--help")
for command in ("fit", "score", "explain", "synth", "compare", "grid", "ecdf"):
    run(f"{command}.help", command, "--help")

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
    ("pop_std", ["--method", "popularity", "--preprocess", "standardize"]),
    ("vd_std", ["--method", "vertex_degree", "--preprocess", "standardize"]),
    ("sp_std", ["--method", "shortest_path", "--preprocess", "standardize"]),
]
QUOTED = ("pop_l2", "vd_l2", "sp_l2", "pop_std", "vd_std", "sp_std")
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
    with open(data, newline="") as fh:
        header, *body = fh.read().splitlines()
    quoted = f"{ds}_quoted.csv"
    with open(quoted, "w", newline="") as fh:
        fh.write("\r\n".join([",".join(f'"{h}"' for h in header.split(",")), *body]) + "\r\n")
    swapped = f"{ds}_swapped.csv"
    first, second, *rest = header.split(",")
    with open(swapped, "w", newline="") as fh:
        fh.write("\n".join([",".join([second, first, *rest]), *body]) + "\n")
    for name, flags in FITS:
        if name in QUOTED:
            tag, model = f"{ds}_quoted.{name}", f"{ds}_quoted.{name}.model.json"
            run(f"{tag}.fit", "fit", *flags, "--input", quoted, "--output", model)
            run(f"{tag}.score", "score", "--model", model, "--input", quoted,
                "--output", f"{tag}.score.csv")
            tag = f"{ds}_swapped.{name}"
            run(f"{tag}.score", "score", "--model", f"{ds}.{name}.model.json",
                "--input", swapped, "--output", f"{tag}.score.csv")

with open("ties.csv", "w", newline="") as fh:
    fh.write("x1,x2\n" + "".join(f"{i % 4},{i * 3 % 5}\n" for i in range(40)))
TIES = [
    ("pop_std", ["--method", "popularity"]),
    ("pop_std_sparse", ["--method", "popularity", "--sparsify", "0.5"]),
    ("pop_std_l1_sparse", ["--method", "popularity", "--metric", "l1", "--sparsify", "0.5"]),
    ("pop_std_random", ["--method", "popularity", "--start", "random"]),
    ("pop_std_rff", ["--method", "popularity", "--start", "rff"]),
    ("vd_std", ["--method", "vertex_degree"]),
    ("sp_std", ["--method", "shortest_path"]),
]
for name, flags in TIES:
    tag = f"ties.{name}"
    run(f"{tag}.fit", "fit", *flags, "--preprocess", "standardize", "--input", "ties.csv",
        "--output", f"{tag}.model.json", "--train-scores", f"{tag}.train.csv",
        "--dump-graph", f"{tag}.graph.csv")
    run(f"{tag}.score", "score", "--model", f"{tag}.model.json", "--input", "ties.csv",
        "--output", f"{tag}.score.csv")

for name in sorted(os.listdir(".")):
    with open(name, "rb") as fh:
        hashes.append((hashlib.sha256(fh.read()).hexdigest(), name))
for digest, name in sorted(hashes, key=lambda t: t[1]):
    print(f"{digest}  {name}")
