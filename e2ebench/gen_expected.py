"""Regenerate the committed expected results under ``expected/``.

Every result comes from the ``interp`` reference simulator, never from
the backends the benchmark times.  Run from the repository root:

    PYTHONPATH=src python3 e2ebench/gen_expected.py [paper-eval|lane-sweep|serve]

Before writing, the paper-eval results are cross-checked against the
golden cycle table in ``tests/evaluation/test_golden_cycles.py`` and the
rounded Figure 7/8 and Table 3 values in ``EXPERIMENTS.md``.  A golden
mismatch aborts without writing; EXPERIMENTS.md rows that differ are
listed.
"""

import ast
import json
import os
import re
import sys

import pools

ROOT = os.path.dirname(pools.HERE)


def _write(name, data):
    os.makedirs(pools.EXPECTED_DIR, exist_ok=True)
    path = os.path.join(pools.EXPECTED_DIR, name + ".json")
    with open(path, "w") as handle:
        json.dump(data, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
    print("wrote", os.path.relpath(path, ROOT))


# ----------------------------------------------------------------------
def paper_expected():
    from repro.evaluation import figure7, figure8, table3

    results = {}
    for name, call in (("figure7", figure7), ("figure8", figure8),
                       ("table3", table3)):
        outcome = call(backend="interp", verify=True)
        results[name] = {
            workload: {
                strategy.name: [m.cycles, m.cost.total]
                for strategy, m in evaluation.measurements.items()
            }
            for workload, evaluation in outcome.evaluations.items()
        }
        if name == "table3":
            rounded = {
                app: {label: "%.2f / %.2f / %.2f" % (c.pg, c.ci, c.pcr)
                      for label, c in cells.items()}
                for app, cells in outcome.rows.items()
            }
        else:
            rounded = {
                label: {w: "%+.1f%%" % g for w, g in gains.items()}
                for label, gains in outcome.gains.items()
            }
        results[name + "_rounded"] = rounded
    _check_golden(results)
    _check_experiments(results)
    return results


def _check_golden(results):
    path = os.path.join(ROOT, "tests", "evaluation", "test_golden_cycles.py")
    tree = ast.parse(open(path).read())
    golden = None
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "GOLDEN"):
            golden = ast.literal_eval(node.value)
    measured = {}
    for figure in ("figure7", "figure8"):
        for workload, cells in results[figure].items():
            measured[workload] = (cells["SINGLE_BANK"][0], cells["CB"][0],
                                  cells["IDEAL"][0])
    for workload, triple in measured.items():
        if golden.get(workload) != triple:
            raise SystemExit("golden mismatch for %s: %r vs %r"
                             % (workload, triple, golden.get(workload)))
    print("golden cycles agree for %d workloads" % len(measured))


def _check_experiments(results):
    text = open(os.path.join(ROOT, "EXPERIMENTS.md")).read()
    rows = {}
    for line in text.splitlines():
        cells = [c.strip().strip("*") for c in line.strip("|").split("|")]
        if len(cells) >= 3 and line.startswith("|"):
            rows.setdefault(cells[0], []).append(cells[1:])
    checked, mismatches = 0, []
    fig7 = results["figure7_rounded"]
    for workload in fig7["CB"]:
        want = [fig7["CB"][workload], fig7["Ideal"][workload]]
        if want not in [r[:2] for r in rows[workload]]:
            mismatches.append(("Figure 7", workload, want))
        checked += 1
    fig8 = results["figure8_rounded"]
    for workload in fig8["CB"]:
        want = [fig8[label][workload] for label in ("CB", "Pr", "Dup", "Ideal")]
        if want not in [r[:4] for r in rows[workload]]:
            mismatches.append(("Figure 8", workload, want))
        checked += 1
    table = results["table3_rounded"]
    for workload, cells in table.items():
        want = [cells[label] for label in ("FullDup", "Dup", "CB", "Ideal")]
        found = [[re.sub(r"\*", "", c) for c in r[:4]] for r in rows[workload]]
        if want not in found:
            mismatches.append(("Table 3", workload, want))
        checked += 1
    print("EXPERIMENTS.md agrees on %d of %d rows"
          % (checked - len(mismatches), checked))
    for where, workload, want in mismatches:
        print("  EXPERIMENTS.md %s row %s differs; measured %r"
              % (where, workload, want))


# ----------------------------------------------------------------------
def _has_cond(statements):
    for statement in statements:
        if statement[0] == "cond":
            return True
        for part in statement[1:]:
            if isinstance(part, list) and part and isinstance(part[0], list):
                if _has_cond(part):
                    return True
    return False


def lane_expected():
    from repro.compiler import compile_module
    from repro.evaluation.parallel import batch_map
    from repro.fuzz.generator import build_module, generate_recipe
    from repro.partition.strategies import Strategy
    from repro.serve.jobs import state_digest
    from repro.workloads.registry import get_workload

    strategy = Strategy[pools.LANE_STRATEGY]
    instances = {}

    def run(program, writes_list, keys):
        names = tuple(sorted(s.name for s in program.module.globals))
        tasks = [(program, writes, names) for writes in writes_list]
        for key, outcome in zip(keys, batch_map(tasks, backend="interp")):
            if outcome.error is not None:
                raise SystemExit("%s faulted: %s" % (key, outcome.error))
            instances[key] = [outcome.result.cycles,
                              state_digest(outcome.outputs)[:16]]

    for program_name, array in pools.UNIFORM_PROGRAMS:
        program = compile_module(get_workload(program_name).build(),
                                 strategy=strategy).program
        size = {s.name: s.size for s in program.module.globals}[array]
        indices = range(pools.UNIFORM_POOL)
        run(program,
            [pools.uniform_writes(program_name, array, size, i)
             for i in indices],
            [pools.uniform_key(program_name, i) for i in indices])
        print("lane pool:", program_name)

    # re-derive the divergent recipe list from its definition in pools.py
    seeds = []
    seed = 0
    while len(seeds) < len(pools.DIVERGENT_RECIPE_SEEDS):
        recipe = generate_recipe(seed)
        seed += 1
        if not _has_cond(recipe.body):
            continue
        program = compile_module(build_module(recipe),
                                 strategy=strategy).program
        sizes = {s.name: s.size for s in program.module.globals}
        indices = range(pools.DIVERGENT_POOL)
        keys = [pools.divergent_key(recipe.seed, i) for i in indices]
        run(program,
            [pools.divergent_writes(recipe.seed, sizes, i) for i in indices],
            keys)
        if max(instances[key][0] for key in keys) > pools.DIVERGENT_MAX_CYCLES:
            for key in keys:
                del instances[key]
            continue
        seeds.append(recipe.seed)
    if tuple(seeds) != pools.DIVERGENT_RECIPE_SEEDS:
        raise SystemExit("divergent recipes are %r, pools.py lists %r"
                         % (seeds, pools.DIVERGENT_RECIPE_SEEDS))
    print("lane pool: %d divergent recipes" % len(seeds))
    return {"instances": instances}


# ----------------------------------------------------------------------
def serve_expected():
    from repro.serve.jobs import execute_job
    from repro.serve.protocol import validate_job

    cache = {}
    expected = {}
    for key, job in sorted(pools.serve_pool().items()):
        result = execute_job(validate_job(dict(job)), cache=cache)
        if not result["ok"]:
            raise SystemExit("%s failed: %r" % (key, result["fault"]))
        expected[key] = {"cycles": result["cycles"],
                         "digest": result["digest"]}
    print("serve pool: %d jobs" % len(expected))
    return expected


def main(argv):
    which = argv or ["paper-eval", "lane-sweep", "serve"]
    makers = {"paper-eval": ("paper_eval", paper_expected),
              "lane-sweep": ("lane_sweep", lane_expected),
              "serve": ("serve_open", serve_expected)}
    for name in which:
        filename, make = makers[name]
        _write(filename, make())


if __name__ == "__main__":
    main(sys.argv[1:])
