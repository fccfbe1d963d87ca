"""Benchmark of bollobas_lab: end-to-end metrics per workload, or a traced
run with per-layer metrics.

    python3 perfbench/run.py --workload diag-probe --seed 1 --seconds 20 \
        --trace 0

Run it from the root of a source checkout; the library is imported from
``src/``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it give
the run environment, every metric by name with its unit, and the output
digest.  Run records, span files and the per-layer table go to
``.perfbench_out/`` in the checkout.

``--trace 0`` builds the inputs, warms up, then runs whole passes over the
item list for as long as the next pass fits in ``--seconds``; there is always
at least one.  The first pass's outputs are checked in full and hashed; later
passes compare each item's output with its first-pass output.  ``--trace 1``
runs two untraced passes and one traced pass of the same items, whatever
``--seconds`` says, and reports per-layer metrics; ``trace.overhead_frac``
compares the traced pass with the second untraced one, since the first pass
in a process also pays for lazy imports and for growing the heap.  The
library's functools caches are emptied before every pass, so each pass does
the same work, untraced or traced.  The items run in one process with one
thread; set-up is also timed in fresh processes, one at a time.  Timing
metrics are scaled to a nominal host speed by a reference computation timed
in the same process (see REF_NOMINAL_S); the info line keeps the raw
wall-clock values.

Metric names and units come from ``BENCHMARK.json`` at the checkout root;
the traced run refuses to start if its ``per_layer`` list differs from the
metrics that ``spans.py`` measures.
"""

from __future__ import annotations

import os

# Pin the BLAS pools before numpy is imported; BOLLOBAS_LAB_THREADS keeps
# the library default.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)
os.environ.pop("BOLLOBAS_LAB_THREADS", None)

import argparse                                              # noqa: E402
import gc                                                    # noqa: E402
import hashlib                                               # noqa: E402
import json                                                  # noqa: E402
import platform                                              # noqa: E402
import resource                                              # noqa: E402
import statistics                                            # noqa: E402
import subprocess                                            # noqa: E402
import sys                                                   # noqa: E402
import time                                                  # noqa: E402
from pathlib import Path                                     # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CONFIG = json.loads((HERE / "workloads.json").read_text())
MANIFEST = ROOT / "BENCHMARK.json"
SETUP_TIMEOUT_S = 150

# On a shared host the speed of this process swings by up to a third from
# one minute to the next, which moves every timing far more than the
# program does.  Timing metrics are therefore reported at a nominal host
# speed: scaled by REF_NOMINAL_S over the median time of a fixed reference
# computation measured in the same process, about once per REF_EVERY_S
# of the run.  The raw wall-clock values are printed beside them.
REF_NOMINAL_S = 0.02
REF_EVERY_S = 1.0


def fail(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def manifest_metrics(key):
    """[(name, unit)] of one metric list in BENCHMARK.json."""
    if not MANIFEST.is_file():
        fail(f"no {MANIFEST.name} at {ROOT}")
    return [(m["name"], m["unit"])
            for m in json.loads(MANIFEST.read_text())[key]]


def import_library():
    """Import bollobas_lab from this checkout's src/, never from elsewhere."""
    if not (SRC / "bollobas_lab" / "__init__.py").is_file():
        fail(f"no bollobas_lab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bollobas_lab
    if Path(bollobas_lab.__file__).resolve().parent != SRC / "bollobas_lab":
        fail(f"imported bollobas_lab from {bollobas_lab.__file__}")
    return bollobas_lab


class Tally:
    """Checks attempted and failed, with the first few failures named."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first = []

    def add(self, label, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.first) < 10:
                self.first.append(label)


def reference_s():
    """Seconds taken by a fixed computation shaped like the library's
    scalar path (Python-level loops over small arrays); it never calls the
    library, so a change to the library cannot move it."""
    import numpy as np
    b = np.linspace(0.1, 1.0, 24)
    total = 0.0
    t0 = time.perf_counter()
    for i in range(2400):
        a = np.abs(b * (1 + i % 5))
        m = float(a.max())
        total += m * float(((a / m) ** 1.5).sum()) ** (1 / 1.5) + (i * i) % 7
    return time.perf_counter() - t0


def clear_caches():
    """Empty every functools cache of the library, so that no pass finds
    results that the warm-up or an earlier pass left behind."""
    for name, mod in list(sys.modules.items()):
        if name == "bollobas_lab" or name.startswith("bollobas_lab."):
            for val in list(vars(mod).values()):
                clear = getattr(val, "cache_clear", None)
                if callable(clear):
                    clear()


def route_share(items, times):
    """Share of item time per route."""
    per = {}
    for item, dt in zip(items, times):
        per[item.route] = per.get(item.route, 0.0) + dt
    total = sum(per.values())
    return {r: round(t / total, 4) for r, t in per.items()}


def run_item(item):
    """(seconds, output, error) of one timed call."""
    t0 = time.perf_counter()
    try:
        out = item.call()
        err = None
    except Exception as exc:              # a raising call is a failed check
        out, err = None, exc
    return time.perf_counter() - t0, out, err


def digest_text(item, out, err):
    return f"error:{type(err).__name__}" if err is not None \
        else item.digest(out)


def new_record():
    return {"search": [], "eta_hat": [], "heur": [], "errors": []}


def first_pass_record(item, out, err, tally, rec):
    """Full checks on an item's first output; returns its digest text."""
    tally.add(f"{item.kind}: call", err is None)
    if err is not None:
        rec["errors"].append(f"{item.kind}: {err!r}")
    else:
        outcome = item.verify(out)
        for name, ok in outcome.checks:
            tally.add(f"{item.kind}: {name}", ok)
        rec["search"].extend(outcome.search)
        rec["eta_hat"].extend(outcome.eta_hat)
        rec["heur"].extend(outcome.heur)
    return digest_text(item, out, err)


def setup(workload, seed):
    """Import, build the inputs and run the warm-up items; returns
    (library, items, seconds, reference seconds measured right after)."""
    t0 = time.perf_counter()
    import_library()
    import workloads
    OUT.mkdir(exist_ok=True)
    items = workloads.build(workload, CONFIG["workloads"][workload], seed, OUT)
    for item in items[:int(CONFIG["warmup_items"])]:
        item.call()
    secs = time.perf_counter() - t0
    return workloads, items, secs, reference_s()


def setup_in_fresh_processes(args, count):
    times = []
    for _ in range(count):
        res = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=str(ROOT), capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S)
        if res.returncode != 0:
            fail(f"set-up process failed: {res.stderr.strip()[-500:]}")
        last = json.loads(res.stdout.strip().splitlines()[-1])
        times.append((last["setup_s"], last["ref_s"]))
    return times


def environment():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            **{k: os.environ.get(k) for k in PINNED},
            "BOLLOBAS_LAB_THREADS": os.environ.get("BOLLOBAS_LAB_THREADS",
                                                   "unset (default 1)")}


def measure(items, seconds, tally):
    """Whole passes over the items while the next one still fits in the
    window; the first pass always runs.  Whole passes keep every item's
    share of the samples fixed, so the percentiles compare across runs."""
    n = len(items)
    rec = new_record()
    first_digests = [None] * n
    # set-up objects live for the whole run; keep them out of the
    # collector's way so a collection costs what the items allocated
    gc.collect()
    gc.freeze()
    samples = []
    mismatches = 0
    refs = [reference_s()]
    last_ref = start = time.perf_counter()
    passes = 0
    while True:
        clear_caches()
        for idx in range(n):
            if time.perf_counter() - last_ref >= REF_EVERY_S:
                refs.append(reference_s())
                last_ref = time.perf_counter()
            dt, out, err = run_item(items[idx])
            samples.append(dt)
            if passes == 0:
                first_digests[idx] = first_pass_record(items[idx], out, err,
                                                       tally, rec)
            else:
                ok = digest_text(items[idx], out, err) == first_digests[idx]
                tally.add(f"{items[idx].kind}: repeat digest", ok)
                mismatches += not ok
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            break
    refs.append(reference_s())
    rec["samples"] = samples
    rec["route_share"] = route_share(items * passes, samples)
    rec["refs"] = refs
    rec["passes"] = passes
    rec["digests"] = first_digests
    rec["mismatches"] = mismatches
    return rec


def mean(values):
    return sum(values) / len(values) if values else None


def output_digest(digests):
    h = hashlib.sha256()
    for d in digests:
        h.update(d.encode())
        h.update(b"\n")
    return h.hexdigest()


def end_to_end(args):
    e2e = manifest_metrics("end_to_end")
    _wl, items, setup_parent, ref_parent = setup(args.workload, args.seed)
    setups = [(setup_parent, ref_parent)] + setup_in_fresh_processes(
        args, int(CONFIG["setup_repeats"]) - 1)
    tally = Tally()
    rec = measure(items, args.seconds, tally)
    samples = rec["samples"]
    p90 = statistics.quantiles(samples, n=10)[8]
    raw = {"items_per_s": len(samples) / sum(samples),
           "item_p50_s": statistics.median(samples), "item_p90_s": p90,
           "setup_s": statistics.median(t for t, _r in setups)}
    scale = REF_NOMINAL_S / statistics.median(rec["refs"])
    metrics = {
        "items_per_s": raw["items_per_s"] / scale,
        "item_p50_s": raw["item_p50_s"] * scale,
        "item_p90_s": raw["item_p90_s"] * scale,
        "setup_s": statistics.median(t * REF_NOMINAL_S / r
                                     for t, r in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "search_value_mean": mean(rec["search"]),
        "check_pass_frac": (tally.attempted - tally.failed) / tally.attempted,
    }
    digest = output_digest(rec["digests"])
    env = environment()
    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "items_per_pass": len(items),
        "items_run": len(samples), "passes": rec["passes"],
        "samples_beyond_p90": sum(s > p90 for s in samples),
        "raw_wall_clock": raw, "host_scale": scale,
        "reference_samples": len(rec["refs"]),
        "setup_samples_s": setups,
        "fail_frac": tally.failed / tally.attempted,
        "eta_hat_mean": mean(rec["eta_hat"]),
        "eta_hat_count": len(rec["eta_hat"]),
        "heur_value_mean": mean(rec["heur"]),
        "heur_value_count": len(rec["heur"]),
        "search_value_count": len(rec["search"]),
        "repeat_mismatches": rec["mismatches"],
        "route_share": rec["route_share"],
        "first_failures": tally.first, "errors": rec["errors"][:10],
        "output_digest": digest, "environment": env,
    }
    print(f"env {json.dumps(env, sort_keys=True)}")
    for name, unit in e2e:
        print(f"metric {args.workload} {name} = {metrics[name]!r} {unit}")
    for name, unit in (("fail_frac", "ratio"), ("eta_hat_mean", "value"),
                       ("heur_value_mean", "value")):
        val = info[name]
        shown = "n/a" if val is None else repr(val)
        print(f"metric {args.workload} {name} = {shown} {unit}")
    shown = {k: v for k, v in info.items() if k != "environment"}
    print(f"info {json.dumps(shown, sort_keys=True)}")
    (OUT / f"{args.workload}.result.json").write_text(
        json.dumps({"metrics": metrics, **info}, indent=2, sort_keys=True))
    return tally, {name: {"value": metrics[name], "unit": unit}
                   for name, unit in e2e}


def traced(args):
    import spans as tr
    if manifest_metrics("per_layer") != [(n, tr.metric_unit(n))
                                         for n in tr.metric_names()]:
        fail(f"per_layer in {MANIFEST.name} differs from spans.metric_names()")
    wl, items, _setup_s, _ref = setup(args.workload, args.seed)
    tally = Tally()
    for _pass in range(2):
        clear_caches()
        plain, plain_item_s = [], 0.0
        for idx in range(len(items)):
            dt, out, err = run_item(items[idx])
            plain_item_s += dt
            plain.append(digest_text(items[idx], out, err))
    tracer = tr.Tracer()
    tracer.install()
    try:
        items = wl.build(args.workload, CONFIG["workloads"][args.workload],
                         args.seed, OUT)
        clear_caches()
        rec = new_record()
        times = []
        for idx in range(len(items)):
            tracer.item_id = idx
            dt, out, err = run_item(items[idx])
            times.append(dt)
            tracer.item_id = -1
            got = first_pass_record(items[idx], out, err, tally, rec)
            tally.add(f"{items[idx].kind}: traced digest", got == plain[idx])
    finally:
        tracer.uninstall()
    layers = tracer.aggregate()
    layers["trace.overhead_frac"] = sum(times) / plain_item_s - 1.0
    tracer.write_spans(OUT / f"{args.workload}.spans.jsonl.gz",
                       [it.kind for it in items])
    table = [{"metric": k, "value": layers[k], "unit": tr.metric_unit(k)}
             for k in tr.metric_names()]
    (OUT / f"{args.workload}.layers.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed,
                    "spans": len(tracer.start), "items": len(items),
                    "route_share": route_share(items, times),
                    "environment": environment(), "layers": table,
                    "inclusive_s": tracer.inclusive_s},
                   indent=2))
    print(f"env {json.dumps(environment(), sort_keys=True)}")
    for row in table:
        print(f"layer {args.workload} {row['metric']} = {row['value']!r} "
              f"{row['unit']}")
    return tally, {row["metric"]: {"value": row["value"], "unit": row["unit"]}
                   for row in table}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(CONFIG["workloads"]))
    ap.add_argument("--seed", type=int, default=CONFIG["default_seed"])
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up in this process and print it")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.setup_only:
        _wl, _items, secs, ref = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": secs, "ref_s": ref}))
        return 0
    tally, metrics = traced(args) if args.trace else end_to_end(args)
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
