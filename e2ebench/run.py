"""Run one workload of the end-to-end benchmark and print its metrics.

    python3 e2ebench/run.py --workload paper-eval --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ``src/`` of
the same checkout; without it the script exits with status 2.  Every
metric is printed with its unit, then the last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the ``end_to_end`` metrics of ``BENCHMARK.json`` with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``).
"""

import argparse
import importlib
import json
import os
import resource
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: workload name -> module with its measure() and trace()
WORKLOADS = {
    "paper-eval": "paper_eval",
    "lane-sweep": "lane_sweep",
    "serve-open": "serve_open",
}


class Context:
    """Where a run may read and write, and how it starts subprocesses."""

    def __init__(self, root):
        self.root = root
        self.src = os.path.join(root, "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [self.src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        #: scratch space inside the checkout, removed when the run ends
        self.workdir = os.path.join(root, ".bench_work", str(os.getpid()))

    @staticmethod
    def own_peak_rss_mb():
        """Peak resident set of this process in MiB (Linux reports KiB)."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _import_checkout():
    """Import ``repro`` from this checkout's ``src/``; False when absent."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return False
    sys.path.insert(0, SRC)
    import repro

    return os.path.abspath(repro.__file__).startswith(SRC + os.sep)


def _metrics(declared, values, tally):
    """The declared metrics, in declaration order, with their units."""
    metrics = {}
    for spec in declared:
        name = spec["name"]
        if name == "ok_share":
            value = 1.0 - tally.fail_share
        else:
            # a layer this workload never enters did no work: 0
            value = values.get(name, 0)
        metrics[name] = {"value": value, "unit": spec["unit"]}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not _import_checkout():
        print("run.py: no importable repro package under %s" % SRC,
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)

    module = importlib.import_module(WORKLOADS[args.workload])
    run = module.trace if args.trace else module.measure
    ctx = Context(ROOT)
    try:
        tally, values, notes = run(ctx, args.seed, args.seconds)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(ctx.workdir))
        except OSError:
            pass

    if args.trace:
        # a layer table that misses part of the traced wall fails the run
        tally.check(notes.pop("coverage_ok"),
                    "layers cover less than 95% of traced time")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = _metrics(declared, values, tally)
    correct = tally.failed == 0 and notes.get("valid", True)
    for name, metric in metrics.items():
        print("%-36s %16.6g %s" % (name, metric["value"], metric["unit"]))
    print("attempted %d, failed %d %s; notes %s"
          % (tally.attempted, tally.failed, tally.reasons or "",
             json.dumps(notes, sort_keys=True)))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
