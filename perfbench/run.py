"""The tarski benchmark: one seeded workload per run, answers checked.

    python3 perfbench/run.py --workload qe-param --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: tarski is imported from ./src.  The
harness starts one worker process (worker.py) and feeds it one round of
cases at a time, closed loop, checking every answer against a reference
that does not come from the code path under test (workloads.py).  After
the workload's minimum number of rounds, it starts another round only
while one more round still fits in --seconds.  The last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"};
the line before it holds the details behind those numbers.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 every round runs twice on the same inputs, untraced and
then under tracer.py, and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402

WORKLOADS = ("qe-param", "decide-ground", "roots-signdet")


class Worker:
    """The worker process, speaking JSON lines over its stdin and stdout."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(ROOT)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self._read() != {"ready": True}:
            raise RuntimeError("the worker did not start")

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError(f"the worker exited with code {self.proc.returncode}")
        return json.loads(line)

    def request(self, **req) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(json.dumps({"quit": True}) + "\n")
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def start_worker(starts: int) -> tuple[Worker, float]:
    """Start the worker `starts` times after one untimed start (which may
    compile bytecode); returns the last worker and the median start time."""
    times = []
    worker = None
    for i in range(starts + 1):
        if worker is not None:
            worker.close()
        t0 = time.perf_counter()
        worker = Worker()
        if i:
            times.append(time.perf_counter() - t0)
    return worker, statistics.median(times)


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by Lentz's continued
    fraction (Numerical Recipes, betacf)."""
    if x <= 0:
        return 0.0
    if x >= 1:
        return 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)) / a
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    f = d
    for m in range(1, 10000):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            f *= c * d
        if abs(c * d - 1.0) < 1e-12:
            break
    return front * f


def percentile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile: a Beta-weighted mean
    of all order statistics.  It moves smoothly where a structured
    workload's case times form clusters with gaps between them, where the
    plain sample percentile jumps between neighbouring clusters."""
    xs = sorted(values)
    n = len(xs)
    a, b = p / 100 * (n + 1), (1 - p / 100) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum(x * (hi - lo) for x, lo, hi in zip(xs, cdf, cdf[1:]))


# -- rounds and checks ---------------------------------------------------------------


def make_round(workload: str, cfg: dict, seed: int, round_no: int) -> list[dict]:
    if workload == "qe-param":
        return W.qe_round(seed, round_no, cfg["points_per_case"])
    if workload == "decide-ground":
        return W.decide_round(seed, round_no, cfg["round_cases"])
    return W.roots_signdet_round(seed, round_no, cfg["round_mix"], cfg["eps"])


class Checker:
    """Checks answers and tallies outcomes; qe-param's ground-decision
    reference imports tarski into the harness only when it is needed."""

    def __init__(self):
        self.outcomes = {"ok": 0, "timeout": 0, "wrong": 0, "error": 0, "crash": 0}
        self.references: dict[str, int] = {}
        self.problems: list[str] = []
        self._decide = None

    def _reference(self, case: dict, point: dict) -> tuple[bool, str]:
        value = W.closed_form(case, point)
        if value is not None:
            return value, "closed-form"
        if self._decide is None:
            sys.path.insert(0, str(ROOT / "src"))
            from tarski.qelim import decide
            from tarski.syntax import parse_formula

            self._decide = lambda text: decide(parse_formula(text)[0])
        return self._decide(W.instantiate(case["text"], point)), "decide"

    def check(self, case: dict, reply: dict):
        """Record the outcome; returns the output's FormulaStats for a
        checked QE answer, else None."""
        status, stats, problem = reply["status"], None, reply.get("detail")
        if status == "ok":
            result = reply["result"]
            op = case["op"]
            if op == "qelim":
                try:
                    problem, stats, kinds = W.check_qe(case, result, self._reference)
                except ValueError as exc:
                    problem, kinds = f"unreadable output: {exc}", []
                for kind in kinds:
                    self.references[kind] = self.references.get(kind, 0) + 1
            elif op == "roots":
                problem = W.check_roots(case, result)
            elif op == "signdet":
                problem = W.check_signdet(case, result)
            elif result != case["expected"]:
                problem = f"answer {result}, expected {case['expected']}"
            if op != "qelim":
                kind = "known-roots"
                self.references[kind] = self.references.get(kind, 0) + 1
            if problem:
                status = "wrong"
        self.outcomes[status] += 1
        if status in ("wrong", "error", "crash") and len(self.problems) < 10:
            self.problems.append(f"{status}: {case.get('template') or case['op']}: {problem}: {case.get('text', '')[:200]}")
        return stats


def run_round(worker: Worker, cfg: dict, cases: list, trace: bool) -> dict:
    reply = worker.request(
        cases=[W.payload(c) for c in cases], limit=cfg["case_limit_s"],
        per_case=cfg["per_case_fork"], trace=trace,
    )
    batches = reply["batches"]
    return {
        "replies": [r for b in batches for r in b["cases"]],
        "rss_kb": max(b["rss_kb"] for b in batches),
        "traces": [b["trace"] for b in batches if b["trace"]],
        "norm_misses": sum(b["norm_misses"] for b in batches),
    }


def output_sizes(cases: list, stats: list, sized: list[str]) -> tuple[int, int]:
    nodes = atoms = 0
    for case, st in zip(cases, stats):
        if case.get("template") in sized:
            if st is None:
                raise RuntimeError(f"no checked output for the sized template {case['template']}")
            nodes += st.nodes
            atoms += len(st.atoms)
    return nodes, atoms


# -- per-layer metrics ---------------------------------------------------------------


def trace_totals(traced: list[dict]) -> tuple[dict, dict]:
    """Calls and self seconds per traced function, summed over rounds."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for rnd in traced:
        for trace in rnd["traces"]:
            for key, (n, _total, own) in trace.items():
                calls[key] = calls.get(key, 0) + n
                self_s[key] = self_s.get(key, 0.0) + own
    return calls, self_s


def layer_metrics(names: list[str], traced: list[dict], overheads: list[float]) -> dict:
    """Per-layer metrics, each a mean per round over the traced rounds."""
    calls, self_s = trace_totals(traced)
    rounds = len(traced)
    entries = [r["cache_entries"] for rnd in traced for r in rnd["replies"] if "cache_entries" in r]
    norm_calls = calls.get("lift.norm_term", 0)
    misses = sum(rnd["norm_misses"] for rnd in traced)
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            value, unit = statistics.mean(overheads), "s"
        elif name == "lift.norm_term.hit_ratio":
            value, unit = (norm_calls - misses) / norm_calls if norm_calls else 0.0, "frac"
        elif name == "lift.cache_entries":
            value, unit = statistics.mean(entries) if entries else 0.0, "count"
        elif name.endswith(".calls"):
            value, unit = calls.get(name[: -len(".calls")], 0) / rounds, "count"
        elif name.endswith(".self_s"):
            key = name[: -len(".self_s")]
            if "." in key:
                value = self_s.get(key, 0.0)
            else:
                value = sum(v for k, v in self_s.items() if k.split(".")[0] == key)
            value, unit = value / rounds, "s"
        else:
            raise ValueError(f"unknown per-layer metric {name}")
        out[name] = {"value": value, "unit": unit}
    return out


# -- main --------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # QE outputs nest as deep as the case splits that built them, and the
    # checks read them by recursive descent.
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 100000))

    if not (ROOT / "src" / "tarski" / "__init__.py").is_file():
        print(f"perfbench: no tarski sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((HERE / "spec.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    cfg = spec["workloads"][args.workload]
    checker = Checker()

    worker, setup_s = start_worker(spec["setup_starts"])
    try:
        untraced, traced, overheads = [], [], []
        size_source = None
        start = time.perf_counter()
        round_no = 0
        while True:
            cases = make_round(args.workload, cfg, args.seed, round_no)
            rnd = run_round(worker, cfg, cases, trace=False)
            stats = [checker.check(c, r) for c, r in zip(cases, rnd["replies"])]
            rnd["wall_s"] = sum(r["ms"] for r in rnd["replies"]) / 1000
            untraced.append(rnd)
            if round_no == 0 and args.workload == "qe-param":
                size_source = (cases, stats)
            if args.trace:
                trnd = run_round(worker, cfg, cases, trace=True)
                for c, r in zip(cases, trnd["replies"]):
                    checker.check(c, r)
                trnd["wall_s"] = sum(r["ms"] for r in trnd["replies"]) / 1000
                traced.append(trnd)
                overheads.append(trnd["wall_s"] - rnd["wall_s"])
            round_no += 1
            elapsed = time.perf_counter() - start
            if (args.trace or round_no >= cfg["min_rounds"]) and elapsed + elapsed / round_no > args.seconds:
                break
        if size_source is None and not args.trace:
            # Output size is measured on the sized qe-param templates of
            # the seed's first round, outside the measured rounds.
            qcfg = spec["workloads"]["qe-param"]
            cases = [c for c in W.qe_round(args.seed, 0, qcfg["points_per_case"])
                     if c["template"] in spec["sized_templates"]]
            reply = worker.request(cases=[W.payload(c) for c in cases], limit=qcfg["case_limit_s"],
                                   per_case=True, trace=False)
            replies = [r for b in reply["batches"] for r in b["cases"]]
            size_source = (cases, [checker.check(c, r) for c, r in zip(cases, replies)])
    finally:
        worker.close()

    attempted = sum(checker.outcomes.values())
    failed = checker.outcomes["wrong"] + checker.outcomes["error"] + checker.outcomes["crash"]
    case_ms = [r["ms"] for rnd in untraced for r in rnd["replies"]]
    p = cfg["tail_percentile"]
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(untraced), "cases": len(case_ms),
        "outcomes": checker.outcomes,
        "failed_frac": (attempted - checker.outcomes["ok"]) / attempted,
        "references": checker.references,
        "tail_percentile": p, "cases_beyond_tail": sum(1 for v in case_ms if v > percentile(case_ms, p)),
        "problems": checker.problems,
    }
    if args.trace:
        metrics = layer_metrics([m["name"] for m in bench["per_layer"]], traced, overheads)
        calls, _ = trace_totals(traced)
        missed = [key for key in spec["must_call"][args.workload] if not calls.get(key)]
        if missed:
            print(f"perfbench: traced functions never called on {args.workload}: {missed}", file=sys.stderr)
            return 1
    else:
        nodes, atoms = output_sizes(*size_source, spec["sized_templates"])
        solved = sum(1 for rnd in untraced for r in rnd["replies"] if r["status"] == "ok")
        values = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(r["wall_s"] for r in untraced), "s"),
            "case_ms_p50": (percentile(case_ms, 50), "ms"),
            "case_ms_tail": (percentile(case_ms, p), "ms"),
            "solved_frac": (solved / len(case_ms), "frac"),
            "output_nodes": (nodes, "count"),
            "output_atoms": (atoms, "count"),
            "peak_rss_mb": (statistics.median(r["rss_kb"] for r in untraced) / 1024, "MB"),
        }
        metrics = {m["name"]: {"value": values[m["name"]][0], "unit": values[m["name"]][1]}
                   for m in bench["end_to_end"]}
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
