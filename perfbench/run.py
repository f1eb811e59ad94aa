"""arithline benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``).  One process, one client, closed loop: each op waits for the
previous certified answer.  Every output is checked by an oracle in
``oracles.py``; the outputs of the first ``digest_rounds`` rounds are
hashed and compared with ``digests.json``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` interposes the
span tracer and prints the per-layer metrics.  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  A record of
the run is also written to ``.perfbench-out/``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from refclock import CLOCK, reference_ns, scale
from spans import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
OUT_DIR = ".perfbench-out"
SETUP_RUNS = 7  # timed fresh-interpreter imports; one more runs first, untimed
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
# Seed reserved for checking a claimed gain: do not use it while writing the
# change, then confirm the claim on it (its digest is recorded too).
HELD_OUT_SEED = 9973
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = ['src', {here!r}]\n"
    "from refclock import CLOCK, reference_ns\n"
    "before = reference_ns()\n"
    "t = CLOCK()\n"
    "import arithline, arithline.cli\n"
    "t = CLOCK() - t\n"
    "print(t, before, reference_ns())\n"
)

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "enclosure_bits_min": "bits",
}
LAYER_UNITS = {}
for _layer in LAYERS:
    LAYER_UNITS.update({f"{_layer}.calls": "count", f"{_layer}.busy_s": "s", f"{_layer}.self_s": "s"})
FUNCTION_BUSY = (
    "series_ring.series_mul",
    "series_ring.norm_annulus",
    "weierstrass.divide_local_series",
    "weierstrass.prepare",
    "weierstrass.global_threshold",
    "weierstrass.divide",
    "cousin_cartan.cartan_factorize",
    "covers_galois.binomial_root_series",
    "series_ring.LaurentPoly.__init__",
    "series_ring.LaurentPoly.with_mod",
)
LAYER_UNITS.update({f"{fn}.busy_s": "s" for fn in FUNCTION_BUSY})
LAYER_UNITS.update({
    "series_ring.coeff_bits_max": "bits",
    "weierstrass.local_iterations": "count",
    "weierstrass.radius_scan_steps": "count",
    "weierstrass.hensel_steps": "count",
    "normvalue.interval_ratio": "ratio",
    "normvalue.interval_results": "count",
    "normvalue.values_checked": "count",
    "cousin_cartan.cartan_iterations": "count",
    "cousin_cartan.cartan_accept_ratio": "ratio",
    "cousin_cartan.cartan_accepted": "count",
    "cousin_cartan.cartan_attempted": "count",
    "cli.stdout_bytes": "bytes",
    "cli.nonzero_exits": "count",
    "trace.overhead_s": "s",
})


class Refused(Exception):
    """The benchmark cannot measure the program in this environment."""


def measure_setup(root: Path):
    """Import times of arithline and arithline.cli in fresh interpreters:
    (normalised seconds, CPU seconds) per interpreter."""
    probe = IMPORT_PROBE.format(here=str(HERE))
    samples = []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", probe], cwd=root, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            raise Refused("importing arithline failed:\n" + proc.stderr)
        if i:  # the first import also writes bytecode caches
            t, before, after = (int(x) for x in proc.stdout.split()[-3:])
            samples.append((t / 1e9 * scale([before, after]), t / 1e9))
    return samples


def git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_record(root, args, bits):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(root),
        "loadavg_start": list(os.getloadavg()),
        "bits": bits,
    }


class Runner:
    """Executes ops, checks them and keeps the failure bookkeeping."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.first_failure = None

    def timed(self, inp):
        """(output, seconds, traceback text or None) for one op."""
        t0 = CLOCK()
        try:
            out = self.wl.op(inp)
        except Exception:  # the run must go on: record it as a failed op
            dt = (CLOCK() - t0) / 1e9
            return None, dt, traceback.format_exc()
        return out, (CLOCK() - t0) / 1e9, None

    def check(self, inp, out, error, stats):
        """Canonical text of a checked output, or None when the op failed."""
        self.attempted += 1
        if error is None:
            try:
                return self.wl.check(inp, out, stats)
            except Exception:  # a false answer or a malformed output
                error = traceback.format_exc()
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = f"input {inp!r}\n{error}"
        return None


def load_digest(workload, seed):
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


def prefix_inputs(wl, gen):
    return [inp for _ in range(wl.digest_rounds) for inp in next(gen)]


def digest_of(texts):
    h = hashlib.sha256()
    for t in texts:
        h.update(("FAILED" if t is None else t).encode())
        h.update(b"\n")
    return h.hexdigest()


def run_pass(runner, inputs, stats, first, samples, deadline=None):
    """One closed-loop pass over ``inputs``.

    Returns the op times of the pass, each normalised by the reference loops
    timed just before and after it (see refclock), and those loop times.
    Outputs are checked; on the first pass (``first`` empty) their canonical
    texts are kept, on later passes they must repeat exactly.  ``samples``
    collects each input's successful times, as (normalised, CPU) pairs.  Past ``deadline`` the pass
    stops early (every input then already has a time from an earlier pass).
    """
    times = []
    refs = [reference_ns()]
    for i, inp in enumerate(inputs):
        out, cpu, err = runner.timed(inp)
        refs.append(reference_ns())
        dt = cpu * scale(refs[-2:])
        times.append(dt)
        text = runner.check(inp, out, err, stats)
        if len(first) < len(inputs):
            first.append(text)
        elif text is not None and text != first[i]:
            runner.failed += 1  # same input, different output
        if text is not None:
            samples[i].append((dt, cpu))
        if deadline is not None and time.perf_counter() > deadline:
            break
    return times, refs


def run_e2e(wl, runner, gen, seconds, stats):
    """Untraced closed loop over a fixed pool of inputs, pass after pass.

    Returns the canonical texts of the digest prefix and, per input, the
    median of its times over the passes, normalised and in CPU seconds.  Repeating the same inputs spreads
    each one over the whole run, so a stall or a slow phase of a shared
    machine moves one of an input's samples, not its median.
    """
    rounds = [next(gen) for _ in range(wl.pool_rounds)]
    pool = [inp for r in rounds for inp in r]
    prefix = sum(len(r) for r in rounds[: wl.digest_rounds])
    first, samples = [], [[] for _ in pool]
    deadline = time.perf_counter() + seconds
    _, refs = run_pass(runner, pool, stats, first, samples)
    passes = 1
    while time.perf_counter() < deadline:
        refs += run_pass(runner, pool, stats, first, samples, deadline)[1]
        passes += 1
    lat = [statistics.median(t for t, _ in s) for s in samples if s]
    cpu = [statistics.median(c for _, c in s) for s in samples if s]
    return first[:prefix], lat, cpu, passes, statistics.median(refs) / 1e6


def tail(lat):
    """(value, percentile, samples beyond) at the highest percentile that
    still has TAIL_BEYOND samples above it."""
    s = sorted(lat)
    n = len(s)
    k = max(0, n - TAIL_BEYOND - 1)
    return s[k], 100.0 * (k + 1) / n, n - k - 1


def run_traced(wl, runner, gen, seconds, stats_cls, tracer, out_dir, tag):
    """Alternate untraced and traced passes over the digest prefix.

    Times are medians over passes, as in the untraced run; counts come from
    the first traced pass (they repeat exactly).
    """
    inputs = prefix_inputs(wl, gen)
    first, samples = [], [[] for _ in inputs]
    run_pass(runner, inputs, stats_cls(), first, samples)  # warm-up
    plain, traced, summaries, counts = [], [], [], None
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(sum(run_pass(runner, inputs, stats_cls(), first, samples)[0]))
        pass_stats = stats_cls()
        refs = [reference_ns()]
        tracer.reset()
        tracer.install()
        try:
            outs = []
            for i, inp in enumerate(inputs):
                tracer.begin_op(i)
                outs.append(runner.timed(inp))
                tracer.end_op()
                refs.append(reference_ns())
        finally:
            tracer.uninstall()
        k = scale(refs)
        traced.append(sum(dt for _, dt, _ in outs) * k)
        summaries.append({key: [n, busy * k, own * k] for key, (n, busy, own) in tracer.summary().items()})
        for inp, (out, _, err), want in zip(inputs, outs, first):
            text = runner.check(inp, out, err, pass_stats)
            if text is not None and text != want:
                runner.failed += 1  # tracing changed an output
        if counts is None:
            counts = pass_stats
    tracer.write(out_dir / f"{tag}-spans.jsonl")
    metrics = {}
    columns = {"calls": 0, "busy_s": 1, "self_s": 2}
    for key in LAYER_UNITS:
        name, field = key.rsplit(".", 1)
        if field in columns:
            vals = [s.get(name, [0, 0, 0])[columns[field]] for s in summaries]
            metrics[key] = vals[0] if field == "calls" else statistics.median(vals) / 1e9
    metrics.update(counts.counts)
    c = counts.counts
    metrics["series_ring.coeff_bits_max"] = tracer.max_coeff_bits
    metrics["normvalue.interval_results"] = counts.nv_interval
    metrics["normvalue.values_checked"] = counts.nv_checked
    metrics["normvalue.interval_ratio"] = counts.nv_interval / counts.nv_checked if counts.nv_checked else 0.0
    metrics["cousin_cartan.cartan_accept_ratio"] = (
        c["cousin_cartan.cartan_accepted"] / c["cousin_cartan.cartan_attempted"]
        if c["cousin_cartan.cartan_attempted"] else 0.0
    )
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    extras = {
        "passes": len(traced),
        "ops_per_pass": len(inputs),
        "untraced_pass_s": statistics.median(plain),
        "traced_pass_s": statistics.median(traced),
    }
    return first, metrics, extras


def emit(metrics, units):
    """The result line's metrics: every name with its value and unit."""
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description="arithline benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    try:
        if os.environ.get("ARITHLINE_BITS") is not None:
            raise Refused("ARITHLINE_BITS is set; it changes the program being measured")
        if not (root / "src" / "arithline" / "__init__.py").is_file():
            raise Refused("no src/arithline here; run from the root of a source checkout")
        setup = measure_setup(root)
    except (Refused, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import workloads  # imports arithline
    from arithline.normvalue import default_bits

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    record = run_record(root, args, default_bits())
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runner = Runner(wl)
    gen = wl.rounds(args.seed)
    lines = [f"run: {tag} seconds={args.seconds:g}", "record: " + json.dumps(record)]

    if args.trace:
        texts, metrics, extras = run_traced(
            wl, runner, gen, args.seconds, workloads.Stats, Tracer(), out_dir, tag
        )
        units = LAYER_UNITS
        lines.append(f"traced passes: {extras['passes']} over {extras['ops_per_pass']} ops; "
                     f"spans in {OUT_DIR}/{tag}-spans.jsonl")
    else:
        stats = workloads.Stats()
        texts, lat, cpu, passes, ref_ms = run_e2e(wl, runner, gen, args.seconds, stats)
        if not lat:
            print("perfbench: no op succeeded", file=sys.stderr)
            return 1
        tail_v, tail_pct, beyond = tail(lat)
        setup_cpu = statistics.median(c for _, c in setup)
        metrics = {
            "setup_s": statistics.median(t for t, _ in setup),
            "ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_tail_ms": tail_v * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "enclosure_bits_min": stats.min_bits if stats.min_bits is not None else float(default_bits()),
        }
        units = E2E_UNITS
        extras = {
            "pool_ops": len(lat),
            "passes": passes,
            "reference_loop_cpu_ms": ref_ms,
            "tail_percentile": tail_pct,
            "tail_samples_beyond": beyond,
            "setup_samples_s": [t for t, _ in setup],
            "setup_cpu_samples_s": [c for _, c in setup],
            "cpu_ops_per_s": len(cpu) / sum(cpu),
            "cpu_op_p50_ms": statistics.median(cpu) * 1e3,
            "cpu_op_tail_ms": tail(cpu)[0] * 1e3,
            "fail_frac": runner.failed / runner.attempted,
            "nv_checked": stats.nv_checked,
            "nv_interval": stats.nv_interval,
        }
        lines += [
            f"times in reference-loop units (1 loop = 1 ms; median loop CPU time here {ref_ms:.3f} ms); "
            "CPU time in brackets",
            f"setup_s {metrics['setup_s']!r} s (median of {len(setup)} fresh imports) [{setup_cpu:.4f} s]",
            f"ops_per_s {metrics['ops_per_s']!r} ops/s ({len(lat)} inputs, median of {passes} passes each) "
            f"[{extras['cpu_ops_per_s']:.2f} ops/s]",
            f"op_p50_ms {metrics['op_p50_ms']!r} ms [{extras['cpu_op_p50_ms']:.3f} ms]",
            f"op_tail_ms {metrics['op_tail_ms']!r} ms (p{tail_pct:.2f}, {beyond} of {len(lat)} input medians beyond) "
            f"[{extras['cpu_op_tail_ms']:.3f} ms]",
            f"fail_frac {extras['fail_frac']!r} ratio ({runner.failed} failed / {runner.attempted} attempted)",
            f"peak_rss_mb {metrics['peak_rss_mb']!r} MB",
            f"enclosure_bits_min {metrics['enclosure_bits_min']!r} bits "
            f"({stats.nv_interval} intervals of {stats.nv_checked} NormValues checked)",
        ]

    digest = digest_of(texts)
    recorded = load_digest(args.workload, args.seed)
    digest_ok = recorded is None or recorded == digest
    if recorded is None:
        # the oracles still check every op; only the comparison with a
        # recorded output digest is missing
        print(f"perfbench: seed {args.seed} has no recorded digest: outputs NOT compared with a record "
              f"(recorded seeds: 0-99 and {HELD_OUT_SEED})", file=sys.stderr)
    lines.append(f"digest: {digest} " + (
        "(NOT CHECKED: no recorded digest for this seed)" if recorded is None
        else "(matches record)" if digest_ok else f"(MISMATCH, recorded {recorded})"
    ))
    if runner.first_failure:
        print(f"perfbench: first failure:\n{runner.first_failure}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0 and digest_ok,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": emit(metrics, units),
    }
    with open(out_dir / f"{tag}.json", "w") as fh:
        json.dump({"record": record, "digest": digest, "digest_recorded": recorded,
                   "digest_checked": recorded is not None,
                   "extras": extras, **result}, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
