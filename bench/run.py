"""End-to-end benchmark of the ``stringy-det`` command line tool.

One run of one workload:

    python3 bench/run.py --workload orbit-sums --seed 1 --seconds 30 --trace 0

Every operation is one invocation of the ``stringydet.cli`` module (run as
``__main__``, as ``python -m`` does) against the ``src/`` next to this
directory, in a fresh process, so the program's caches start cold as they do
for a user.  The load is a closed loop: one client, one
operation at a time.  A run repeats whole rounds of the workload's operations
until ``--seconds`` have passed; the seed sets the order of the operations in
each round and the inputs of the kernel microbenchmarks.  Every output is
checked by ``checks.py``, which shares no code with the program.  The
end-to-end times are scaled to a reference speed measured in the same run
(see ``REFERENCE``).

``--trace 0`` reports the end-to-end metrics of the workload.  ``--trace 1``
reports the per-layer metrics: it replays the operations of every workload
through ``tracer.py`` (one fresh, traced process per operation), pairs
untraced and traced rounds of the workload for ``--seconds`` to measure the
tracing overhead, and runs the single-layer probes of ``layers.py``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every workload, with a results file ``bench/BENCH_<label>.json``:

    python3 bench/run.py --label seed

The reference table of single calls from the roadmap, one fresh process per row:

    python3 bench/run.py --baseline
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CLI_FILE = ROOT / "src" / "stringydet" / "cli.py"
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
PYTHON = sys.executable

SETUP_STARTS = 15   # least interpreter starts per run; setup_s is their median
SUITE_REPEATS = 10  # untraced runs per workload in a results file
OP_TIMEOUT = 150    # seconds before a hung invocation is killed

# Sized so that a round fits several times into a run: the CLI inputs are
# fixed, because a different input would be different work.
WORKLOADS = {
    # Orbit subset sums over 2^(k-1) index subsets, the zeta expansion, and the
    # verify grid: many small and large dense products, and the gcd.
    "orbit-sums": [
        ("compute", "--r", "7", "--k", "6", "--variety", "affine", "--format", "json"),
        ("compute", "--r", "7", "--k", "6", "--variety", "projective", "--format", "json"),
        ("zeta", "--r", "7", "--order", "10", "--format", "json"),
        ("verify", "--suite", "identities", "--rmax", "6"),
        ("verify", "--suite", "orbits", "--rmax", "4"),
    ],
    # Closed forms only: ladder products and exact division by cyclotomic
    # products, then JSON rendering of a large table.  No orbit sum runs.
    "closed-table": [
        ("table", "--rmax", "13", "--variety", "both", "--format", "json"),
    ],
    # Exhaustive rank censuses on the odd-p path and the p = 2 bitmask path;
    # polynomials play almost no part.
    "census": [
        ("oracle", "--p", "3", "--rmax", "3"),
        ("oracle", "--p", "2", "--rmax", "4"),
    ],
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

SETUP = "import stringydet.cli"

# The speed of this kind of machine drifts by up to 1.6x over tens of seconds
# and affects every Python process alike.  A fixed computation that shares no
# code with the program is timed in a fresh interpreter before every round,
# and the run's times are scaled as if its median had been REFERENCE_SECONDS.
REFERENCE = """\
from fractions import Fraction
a = [Fraction((-1) ** i * (7919 * i % 1009 + 1), i % 5 + 1) for i in range(100)]
out = {}
for i, x in enumerate(a):
    for j, y in enumerate(a):
        out[i + j] = out.get(i + j, 0) + x * y
"""
REFERENCE_SECONDS = 0.15

SUBSET_SUMS = [(8, 3), (8, 5), (8, 7)]
CENSUS_RATES = [(5, 2, 3), (2, 4, 5), (3, 3, 3)]
MICRO = ["mul_d16_us", "mul_d128_us", "mul_d512_us", "divide_exact_d256_us", "gcd_d128_us"]
ROUTES = ["orbit_sum", "zeta_closed", "recursion", "resolution", "truncated",
          "tail_bound", "closed", "hodge_euler"]
SUBCOMMANDS = ["compute", "zeta", "verify", "table", "oracle"]
SELF_LAYERS = ["exactalg", "groth", "stringy", "oracle", "cli"]


# Runs ``python -m stringydet.cli`` and, on the way out, writes the peak
# resident set size of the process image to standard error.  ``ru_maxrss``
# from ``wait4`` is no use here: exec records the high-water mark of the
# address space it replaces, which under vfork is the parent's, so every child
# would report at least the benchmark's own peak.
CLI_SHIM = """\
import runpy, sys
try:
    runpy.run_module("stringydet.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status:
        sys.stderr.write(next(l for l in status if l.startswith("VmHWM:")))
"""


class Invocation:
    """One finished child process."""

    def __init__(self, argv):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=ENV, cwd=ROOT, text=True) as proc:
            try:
                self.stdout, stderr = proc.communicate(timeout=OP_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                self.stdout, stderr = proc.communicate()
        self.seconds = time.perf_counter() - start
        self.code = proc.returncode
        lines = stderr.splitlines()
        self.peak_rss_mb = 0.0
        if lines and lines[-1].startswith("VmHWM:"):
            self.peak_rss_mb = int(lines.pop().split()[1]) / 1024  # kB
        self.stderr = "\n".join(lines)

    def report(self, what: str) -> None:
        tail = self.stderr.strip().splitlines()[-3:]
        print(f"{what}: exit {self.code}; " + " | ".join(tail), file=sys.stderr)


class Run:
    """Counts and verdicts of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.peak_rss_mb = 0.0

    def operation(self, prefix, op, traced=False):
        """Run and check one CLI operation; return (invocation, tracer aggregates or None)."""
        self.attempted += 1
        argv = [PYTHON, str(BENCH / "tracer.py"), *op] if traced else \
            [PYTHON, "-c", CLI_SHIM, *op]
        inv = Invocation(argv)
        self.peak_rss_mb = max(self.peak_rss_mb, inv.peak_rss_mb)
        trace, code, stdout = None, inv.code, inv.stdout
        if traced and code == 0:
            trace = json.loads(stdout.splitlines()[-1])
            code, stdout = trace["exit"], trace["stdout"]
        if code != 0:
            self.failed += 1
            inv.report(f"{prefix} {' '.join(op)}")
            return inv, None
        try:
            checks.check(op, code, stdout)
        except checks.CheckFailed as exc:
            self.correct = False
            print(f"{prefix} {' '.join(op)}: wrong output: {exc}", file=sys.stderr)
        return inv, trace

    def probe(self, *args) -> dict:
        inv = Invocation([PYTHON, str(BENCH / "layers.py"), *map(str, args)])
        if inv.code != 0:
            self.correct = False
            inv.report(f"probe {' '.join(map(str, args))}")
            return {}
        return json.loads(inv.stdout.splitlines()[-1])

    def round(self, workload: str, rng: random.Random) -> float:
        """One untraced round in seeded order; the sum of the invocations' wall times."""
        ops = WORKLOADS[workload]
        return sum(self.operation(workload, op)[0].seconds for op in rng.sample(ops, len(ops)))

    def result(self, metrics: dict) -> dict:
        return {"correct": self.correct, "attempted": self.attempted, "failed": self.failed,
                "metrics": metrics}


def check_checkout() -> None:
    """Exit non-zero unless the program's source is beside this directory."""
    if not CLI_FILE.is_file():
        sys.exit(f"error: {CLI_FILE} not found; run from a checkout of the repository")
    probe = Invocation([PYTHON, "-c", "import stringydet.cli as c, sys; sys.stdout.write(c.__file__)"])
    if probe.code != 0 or Path(probe.stdout).resolve() != CLI_FILE.resolve():
        sys.exit(f"error: stringydet.cli does not import from {CLI_FILE}")


def start_seconds(code: str) -> float:
    """Wall time of a fresh interpreter running ``code``."""
    inv = Invocation([PYTHON, "-c", code])
    if inv.code != 0:
        inv.report(code.splitlines()[0])
        sys.exit(f"error: {code.splitlines()[0]!r} failed")
    return inv.seconds


def measure(workload: str, seed: int, seconds: float) -> tuple:
    """End-to-end metrics of whole rounds repeated for ``seconds``.

    Each round is preceded by one set-up start and one reference start.  The
    times are scaled by REFERENCE_SECONDS / (median reference time); the raw
    medians are returned beside the result.
    """
    check_checkout()
    run = Run()
    rng = random.Random(seed)
    setups, references, walls = [], [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        setups.append(start_seconds(SETUP))
        references.append(start_seconds(REFERENCE))
        walls.append(run.round(workload, rng))
    while len(setups) < SETUP_STARTS:
        setups.append(start_seconds(SETUP))
        references.append(start_seconds(REFERENCE))
    raw = {"setup_s": statistics.median(setups), "wall_s": statistics.median(walls),
           "reference_s": statistics.median(references)}
    scale = REFERENCE_SECONDS / raw["reference_s"]
    metrics = {"setup_s": raw["setup_s"] * scale, "wall_s": raw["wall_s"] * scale,
               "peak_rss_mb": run.peak_rss_mb}
    return run.result({name: {"value": metrics[name], "unit": unit}
                       for name, unit in END_TO_END.items()}), raw


def _sum_traces(traces: list) -> dict:
    """Merge the per-process aggregates of tracer.py."""
    total = {"main_s": 0.0, "layers": {}, "names": {}, "routes": {}, "caches": {},
             "verify_checks": 0, "mul": {"term_pairs": 0, "max_degree": 0, "max_coeff_bits": 0}}
    for t in traces:
        total["main_s"] += t["main_s"]
        total["verify_checks"] += t["verify_checks"]
        for k, v in t["layers"].items():
            total["layers"][k] = total["layers"].get(k, 0.0) + v
        for key in ("names", "routes", "caches"):
            for k, pair in t[key].items():
                acc = total[key].setdefault(k, [0, 0])
                acc[0] += pair[0]
                acc[1] += pair[1]
        total["mul"]["term_pairs"] += t["mul"]["term_pairs"]
        for k in ("max_degree", "max_coeff_bits"):
            total["mul"][k] = max(total["mul"][k], t["mul"][k])
    return total


def _traced_round(run: Run, workload: str, rng: random.Random) -> tuple:
    """One round through tracer.py: (sum of wall times, subcommand -> main_s, merged trace)."""
    ops = WORKLOADS[workload]
    wall, by_sub, traces = 0.0, {}, []
    for op in rng.sample(ops, len(ops)):
        inv, t = run.operation(f"{workload} (traced)", op, traced=True)
        wall += inv.seconds
        if t is not None:
            traces.append(t)
            by_sub[op[0]] = by_sub.get(op[0], 0.0) + t["main_s"]
    return wall, by_sub, _sum_traces(traces)


def trace(workload: str, seed: int, seconds: float) -> tuple:
    """Per-layer metrics; also returns the per-workload trace details.

    The layer metrics come from one traced replay of every workload, so each
    layer is seen on the workload that exercises it.  ``trace.overhead_s``
    pairs untraced and traced rounds of ``workload`` for ``seconds``.
    """
    check_checkout()
    run = Run()
    rng = random.Random(seed)
    per_workload, by_sub = {}, {}
    for name in WORKLOADS:
        _, subs, per_workload[name] = _traced_round(run, name, rng)
        for sub, value in subs.items():
            by_sub[sub] = by_sub.get(sub, 0.0) + value
    for name, t in per_workload.items():
        layer_sum = sum(v for k, v in t["layers"].items() if k != "trace")
        if abs(layer_sum - t["main_s"]) > 0.1 * t["main_s"]:
            run.correct = False
            print(f"{name}: layer self times {layer_sum:.3f} s do not account for "
                  f"{t['main_s']:.3f} s in process", file=sys.stderr)
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while not untraced or time.perf_counter() < deadline:
        untraced.append(run.round(workload, rng))
        traced.append(_traced_round(run, workload, rng)[0])
    t = _sum_traces(list(per_workload.values()))
    names, routes, layers = t["names"], t["routes"], t["layers"]

    def calls(name):
        return names.get(name, [0, 0.0])[0]

    def own(name):
        return names.get(name, [0, 0.0])[1]

    hits, misses = t["caches"].get("groth.gauss_binomial", [0, 0])
    m = {
        "exactalg.mul.calls": (calls("exactalg.mul"), "count"),
        "exactalg.mul.self_s": (own("exactalg.mul"), "s"),
        "exactalg.mul.term_pairs": (t["mul"]["term_pairs"], "count"),
        "exactalg.mul.max_degree": (t["mul"]["max_degree"], "degree"),
        "exactalg.mul.max_coeff_bits": (t["mul"]["max_coeff_bits"], "bits"),
        "exactalg.add.self_s": (own("exactalg.add"), "s"),
        "exactalg.gcd.calls": (calls("exactalg.laurent_gcd"), "count"),
        "exactalg.gcd.self_s": (own("exactalg.laurent_gcd"), "s"),
        "exactalg.divide_exact.calls": (calls("exactalg.divide_exact"), "count"),
        "exactalg.divide_exact.self_s": (own("exactalg.divide_exact"), "s"),
    }
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = (layers.get(layer, 0.0), "s")
    micro = run.probe("micro", seed)
    for name in MICRO:
        m[f"exactalg.bench.{name}"] = (micro.get(name, 0.0), "us")
    m["groth.gauss_binomial.calls"] = (calls("groth.gauss_binomial"), "count")
    m["groth.gauss_binomial.hit_ratio"] = (hits / max(hits + misses, 1), "ratio")
    m["groth.cold_build_s"] = (run.probe("cold-build").get("seconds", 0.0), "s")
    for route in ROUTES:
        m[f"stringy.{route}.s"] = (routes.get(route, [0.0, 0])[0], "s")
    for route in ("orbit_sum", "zeta_closed"):
        m[f"stringy.{route}.mul_calls"] = (routes.get(route, [0.0, 0])[1], "count")
    for r, k in SUBSET_SUMS:
        seconds_rk = run.probe("subset-sum", r, k).get("seconds", 0.0)
        m[f"stringy.subset_sum.r{r}_k{k}_s"] = (seconds_rk, "s")
    m["oracle.census.self_s"] = (own("oracle.rank_census"), "s")
    m["oracle.verify_classes.self_s"] = (own("oracle.verify_classes"), "s")
    m["oracle.verify_classes.checks"] = (t["verify_checks"], "count")
    for p, r, s in CENSUS_RATES:
        rate = run.probe("census", p, r, s).get("matrices_per_s", 0.0)
        m[f"oracle.census.p{p}_r{r}_s{s}.matrices_per_s"] = (rate, "1/s")
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}.s"] = (by_sub.get(sub, 0.0), "s")
    m["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    details = {name: {"in_process_s": w["main_s"], "layer_self_s": w["layers"]}
               for name, w in per_workload.items()}
    details[workload].update(untraced_wall_s=statistics.median(untraced),
                             traced_wall_s=statistics.median(traced), pairs=len(traced))
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}
    return run.result(metrics), details


# -- suite mode -------------------------------------------------------------------

def _summary(values: list) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "values": values}


def _commit() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def suite(label: str, seconds: float) -> int:
    doc = {"label": label, "python": platform.python_version(), "nproc": os.cpu_count(),
           "commit": _commit(), "run_seconds": seconds, "repeats": SUITE_REPEATS,
           "workloads": {}, "per_layer": {}}
    layer_values, layer_units = {}, {}
    ok = True
    for workload in WORKLOADS:
        runs, raws = zip(*(measure(workload, seed, seconds)
                           for seed in range(1, SUITE_REPEATS + 1)))
        traced, details = trace(workload, 1, seconds)
        for name, metric in traced["metrics"].items():
            layer_values.setdefault(name, []).append(metric["value"])
            layer_units[name] = metric["unit"]
        overhead = traced["metrics"]["trace.overhead_s"]
        doc["workloads"][workload] = {
            "operations": [" ".join(op) for op in WORKLOADS[workload]],
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {name: {"unit": unit, **_summary([r["metrics"][name]["value"]
                                                             for r in runs])}
                           for name, unit in END_TO_END.items()},
            "unscaled": {name: {"unit": "s", **_summary([raw[name] for raw in raws])}
                         for name in raws[0]},
            "trace.overhead_s": {"unit": "s", **_summary([overhead["value"]])},
            "trace": details,
        }
        ok = ok and doc["workloads"][workload]["correct"]
    doc["per_layer"] = {name: {"unit": layer_units[name], **_summary(values)}
                        for name, values in layer_values.items() if name != "trace.overhead_s"}
    path = BENCH / f"BENCH_{label}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    for workload, w in doc["workloads"].items():
        cells = "  ".join(f"{name} {m['median']:.4g} {m['unit']} (q1 {m['q1']:.4g}, "
                          f"q3 {m['q3']:.4g}, spread {(m['q3'] - m['q1']) / m['median']:.3f}, "
                          f"n {m['n']})"
                          for name, m in w["end_to_end"].items())
        print(f"{workload}: attempted {w['attempted']} failed {w['failed']} "
              f"correct {w['correct']}  {cells}")
    print(f"wrote {path}")
    return 0 if ok else 1


def baseline() -> int:
    check_checkout()
    row, rows = 0, 1
    while row < rows:
        inv = Invocation([PYTHON, str(BENCH / "layers.py"), "baseline", str(row)])
        if inv.code != 0:
            inv.report(f"baseline row {row}")
            return 1
        out = json.loads(inv.stdout)
        print(f"| `{out['label']}` | {out['seconds']:.2f} s |")
        row, rows = row + 1, out["rows"]
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--label", help="run every workload and write BENCH_<label>.json")
    parser.add_argument("--baseline", action="store_true", help="print the reference table")
    args = parser.parse_args(argv)
    if args.baseline:
        return baseline()
    if args.label:
        return suite(args.label, args.seconds)
    if args.workload is None:
        parser.error("--workload, --label or --baseline is required")
    if args.trace:
        result, _ = trace(args.workload, args.seed, args.seconds)
    else:
        result, _ = measure(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
