"""finposet benchmark: the real CLI, driven in-process, on generated inputs.

Run from the repository root:

    python3 bench/run.py --workload dim-exact --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --all            # every workload, one table

Each request is one ``finposet.cli.dispatch(argv)`` call with stdout
captured, so interpreter start-up stays out of the numbers.  Load is a
closed loop: one client, one thread, one process per workload.  The
timed phase sends whole passes over the workload's fixed request list
and starts another pass only while it is expected to end within
--seconds, so every run measures the same mix of requests.  A request
of a few ms is repeated back to back within a pass, and its latency is
the median of its samples.  Every timing is scaled to a fixed machine
speed (clock.py).  Outputs are checked after the timed phase
(checks.py).  The last line of stdout is one JSON object: the
end-to-end metrics with --trace 0, the per-layer metrics from a traced
pass (tracing.py) with --trace 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from clock import Clock  # noqa: E402
import workloads  # noqa: E402
from tracing import FAILED, FINPOSET_MODULES, SUCCEEDED, Recorder  # noqa: E402

SETUP_REPS = 5
TAIL_BEYOND = 10
# A request is sent again, back to back, until its samples in this pass
# add up to SHORT_S or number REPEATS: a single sample of a request of a
# few ms is too noisy to place it against the others.
SHORT_S = 0.1
REPEATS = 9
# A pass that runs this many times over --seconds is cut short.
OVERRUN = 4

END_TO_END = {
    "req_p50_ms": "ms",
    "req_tail_ms": "ms",
    "req_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "dimension.exists_embedding.calls": "count",
    "dimension.exists_embedding.self_s": "s",
    "dimension.exists_embedding.fail_s": "s",
    "dimension.exists_embedding.succeed_s": "s",
    "dimension.exists_embedding.fail_share": "ratio",
    "dimension.two_dimension.calls": "count",
    "core.structure_stats.calls": "count",
    "core.structure_stats.per_exists_embedding": "ratio",
    "dimension.verify_embedding.calls": "count",
    "dimension.verify_embedding.self_s": "s",
    "dimension.extend_embedding_at_beat_point.self_s": "s",
    "dimension.contractible_embedding.self_s": "s",
    "homotopy.core.calls": "count",
    "homotopy.core.self_s": "s",
    "homotopy.core.calls_per_req": "ratio",
    "homotopy.beat_points.calls": "count",
    "homotopy.beat_points.self_s": "s",
    "core.induced_subposet.calls": "count",
    "core.induced_subposet.self_s": "s",
    "census.enumerate_posets.self_s": "s",
    "core.is_isomorphic.calls": "count",
    "core.is_isomorphic.self_s": "s",
    "core.topology_census.self_s": "s",
    **{f"census.check.{c}.self_s": "s" for c in workloads.CHECK_NAMES},
    "census.dim.distinct_rows_ratio": "ratio",
    "io.parse_poset.self_s": "s",
    "io.format.self_s": "s",
    "core.build_poset.self_s": "s",
    "cli.dispatch.self_s": "s",
    "constructions.suspension.self_s": "s",
    "family.realize.self_s": "s",
    **{f"{m}.self_s": "s" for m in FINPOSET_MODULES},
    "trace.requests": "count",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}


def _fresh_import():
    """Import finposet.cli from the checkout, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "finposet" or m.startswith("finposet.")]:
        del sys.modules[name]
    return importlib.import_module("finposet.cli")


def setup(clock: Clock, workload: str, seed: int, workdir: Path, tiny: bool):
    """Import plus input generation and file writing, SETUP_REPS times.

    Returns the median set-up time, the CLI module of the last import
    and its request list.
    """
    def once():
        return _fresh_import(), workloads.build(workload, seed, workdir, tiny)

    times = []
    for _ in range(SETUP_REPS):
        (cli, reqs), took = clock.time(once)
        times.append(took)
    return statistics.median(times), cli, reqs


def send(cli, argv: list[str]) -> tuple[int, str, str]:
    """One request: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.dispatch(argv)
        except Exception as e:  # the loop must go on; the request counts as failed
            rc = -1
            err.write(repr(e))
    return rc, out.getvalue(), err.getvalue()


class Pass:
    """Latencies and outputs of the requests sent so far, keyed by label."""

    def __init__(self, clock: Clock, reqs, repeat: bool = True) -> None:
        self.clock = clock
        self.reqs = reqs
        self.repeat = repeat
        self.latency: dict[str, list[float]] = {r.label: [] for r in reqs}
        self.first: dict[str, tuple[int, str, str]] = {}
        self.changed: set[str] = set()
        self.passes = 0
        self.elapsed = 0.0

    def run(self, call, seconds: float, once: bool = False) -> None:
        """Whole passes while the next one is expected to end within seconds."""
        start = time.perf_counter()
        while True:
            cut = False
            for req in self.reqs:
                tries = (SHORT_S, REPEATS) if self.repeat else (0.0, 1)
                for result, took in self.clock.repeat(lambda: call(req), *tries):
                    self.latency[req.label].append(took)
                    if req.label not in self.first:
                        self.first[req.label] = result
                    elif result[:2] != self.first[req.label][:2]:
                        self.changed.add(req.label)
                if time.perf_counter() - start > OVERRUN * seconds:
                    cut = True
                    break
            else:
                self.passes += 1
            self.elapsed = time.perf_counter() - start
            if cut or once or self.elapsed * (self.passes + 1) / self.passes > seconds:
                return

    def failures(self) -> dict[str, str]:
        """Reason per failing label: wrong output, or output changed between passes."""
        bad = {}
        for req in self.reqs:
            if req.label in self.first:
                rc, out, err = self.first[req.label]
                why = checks.check(req, rc, out)
                if why:
                    bad[req.label] = f"{why}; stderr: {err.strip()[:200]}" if err.strip() else why
        bad.update(checks.cross_check({k: v[1] for k, v in self.first.items()}))
        for label in self.changed:
            bad.setdefault(label, "output changed between passes")
        return bad

    def per_request(self) -> dict[str, float]:
        """Each request's median latency, in seconds at the nominal speed."""
        return {label: statistics.median(v) for label, v in self.latency.items() if v}

    def busy(self) -> float:
        """Seconds one pass takes when each request takes its median latency."""
        return sum(self.per_request().values())

    def counts(self, bad: dict[str, str]) -> tuple[int, int]:
        attempted = sum(len(v) for v in self.latency.values())
        failed = sum(len(self.latency[label]) for label in bad)
        return attempted, failed


def end_to_end(p: Pass, bad: dict[str, str], setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics and the details that go next to them."""
    per_req = p.per_request()
    ordered = sorted(per_req.values())
    n = len(ordered)
    rank = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    attempted, failed = p.counts(bad)
    metrics = {
        "req_p50_ms": statistics.median(ordered) * 1e3,
        "req_tail_ms": ordered[rank] * 1e3,
        "req_per_s": sum(1 for label in per_req if label not in bad) / p.busy(),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "tail_percentile": 100 * (rank + 1) / n,
        "tail_samples": n,
        "passes": p.passes,
        "timed_s": p.elapsed,
        "error_rate": failed / attempted,
        "request_ms": {label: v * 1e3 for label, v in sorted(per_req.items())},
        "failures": bad,
    }
    return metrics, details


def per_layer(rec: Recorder, traced_s: float, untraced_s: float, requests: int) -> tuple[dict, int]:
    """The per-layer metrics, and how many requests break the self-time sum."""
    own = rec.self_times()
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    tagged = {FAILED: 0.0, SUCCEEDED: 0.0}
    layer_sum: dict[int, float] = {}
    request_span: dict[int, float] = {}
    for sid, nid in enumerate(rec.name):
        name = rec.names[nid]
        rid = rec.request[sid]
        if name == "request":
            request_span[rid] = rec.end[sid] - rec.start[sid]
            continue
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[sid]
        layer_sum[rid] = layer_sum.get(rid, 0.0) + own[sid]
        if rec.tag[sid]:
            tagged[rec.tag[sid]] += own[sid]
    broken = sum(1 for rid, s in layer_sum.items() if s > request_span.get(rid, 0.0) + 1e-9)

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    ee = "dimension.exists_embedding"
    m = {
        f"{ee}.calls": c(ee),
        f"{ee}.self_s": s(ee),
        f"{ee}.fail_s": tagged[FAILED],
        f"{ee}.succeed_s": tagged[SUCCEEDED],
        f"{ee}.fail_share": ratio(tagged[FAILED], s(ee)),
        "core.structure_stats.per_exists_embedding": ratio(c("core.structure_stats"), c(ee)),
        "homotopy.core.calls_per_req": ratio(c("homotopy.core"), requests),
        "census.dim.distinct_rows_ratio": ratio(len(rec.census_dim_rows), rec.census_dim_calls),
        "io.format.self_s": sum((v for k, v in self_s.items() if k.startswith("io.format_")), 0.0),
        "trace.requests": requests,
        "trace.spans": len(rec.start),
        "trace.overhead_ratio": traced_s / untraced_s,
    }
    for mod in FINPOSET_MODULES:
        m[f"{mod}.self_s"] = sum((v for k, v in self_s.items() if k.split(".")[0] == mod), 0.0)
    for name in PER_LAYER:
        if name not in m:
            base, _, stat = name.rpartition(".")
            m[name] = c(base) if stat == "calls" else s(base)
    return m, broken


def _emit(result_metrics: dict, units: dict, attempted: int, failed: int) -> None:
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": result_metrics[k], "unit": units[k]} for k in units},
    }))


def run_workload(args) -> int:
    workdir = HERE / "_work" / args.workload
    with Clock() as clock:
        setup_s, cli, reqs = setup(clock, args.workload, args.seed, workdir, args.tiny)
        gc.collect()
        gc.freeze()  # keep the benchmark's own objects out of the requests' collections

        def call(req):
            return send(cli, req.argv)

        # Requests run inside the work directory, so that any file the CLI
        # writes (census counterexamples) stays there.
        os.chdir(workdir)
        plain = Pass(clock, reqs)
        plain.run(call, args.seconds, once=bool(args.trace))
        if args.trace:
            # untraced, traced, untraced again: the overhead ratio compares
            # the traced pass with the mean of the passes around it.
            rec = Recorder()
            originals = rec.install()
            traced = Pass(clock, reqs, repeat=False)  # one span tree per request
            ids = {req.label: i for i, req in enumerate(reqs)}
            traced.run(lambda req: rec.request_span(ids[req.label], send, cli, req.argv), args.seconds, once=True)
            rec.uninstall(originals)
            after = Pass(clock, reqs)
            after.run(call, args.seconds, once=True)
        os.chdir(ROOT)
    bad = plain.failures()
    print(f"workload {args.workload} seed {args.seed}: {len(reqs)} requests x {plain.passes} passes in {plain.elapsed:.2f} s")
    for label, why in sorted(bad.items()):
        print(f"FAILED {label}: {why}")
    attempted, failed = plain.counts(bad)
    if not args.trace:
        metrics, details = end_to_end(plain, bad, setup_s)
        for k, unit in END_TO_END.items():
            note = f" (p{details['tail_percentile']:.1f} of {details['tail_samples']} requests)" if k == "req_tail_ms" else ""
            print(f"{k} {metrics[k]:.6g} {unit}{note}")
        print(f"error_rate {details['error_rate']:.6g} ratio")
        if args.out:
            Path(args.out).write_text(json.dumps({"workload": args.workload, "seed": args.seed, "metrics": metrics, **details}, indent=1) + "\n")
        _emit(metrics, END_TO_END, attempted, failed)
        return 0 if failed == 0 else 1
    rec.dump(workdir / "spans")
    for p in (traced, after):
        p_bad = p.failures()
        for label, why in sorted(p_bad.items()):
            print(f"FAILED (traced run) {label}: {why}")
        a, f = p.counts(p_bad)
        attempted, failed = attempted + a, failed + f
    metrics, broken = per_layer(rec, traced.busy(), (plain.busy() + after.busy()) / 2, len(reqs))
    if broken:
        print(f"FAILED trace: on {broken} requests the layer self times exceed the request span")
    for k, unit in PER_LAYER.items():
        print(f"{k} {metrics[k]:.6g} {unit}")
    failed += broken
    _emit(metrics, PER_LAYER, attempted, failed)
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process; one table of every end-to-end metric."""
    results = {}
    status = 0
    for w in workloads.WORKLOADS:
        out = HERE / "_work" / f"result-{w}.json"
        cmd = [sys.executable, str(Path(__file__)), "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0", "--out", str(out)]
        if args.tiny:
            cmd.append("--tiny")
        out.unlink(missing_ok=True)
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            status = 1
        if out.exists():
            results[w] = json.loads(out.read_text())
    print(f"{'workload':<10} " + " ".join(f"{k + ' [' + u + ']':>18}" for k, u in {**END_TO_END, "error_rate": "ratio"}.items()))
    for w, r in results.items():
        vals = {**r["metrics"], "error_rate": r["error_rate"]}
        print(f"{w:<10} " + " ".join(f"{vals[k]:>18.6g}" for k in vals))
        print(f"{'':<10} req_tail_ms is p{r['tail_percentile']:.1f} of {r['tail_samples']} requests; {r['passes']} passes in {r['timed_s']:.1f} s")
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload and print one table")
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="a few small requests per workload (smoke test)")
    ap.add_argument("--out", help="also write the full result, with per-request times, as JSON")
    args = ap.parse_args()
    if not (SRC / "finposet" / "cli.py").is_file():
        print(f"error: no finposet sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.all:
        return run_all(args)
    if not args.workload:
        ap.error("give --workload or --all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
