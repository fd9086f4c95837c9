"""The benchmark's worker process.

Started by run.py as `python3 perfbench/worker.py <checkout root>`, it
imports tarski from <root>/src and then serves batches of cases, one JSON
request per line on stdin and one JSON reply per line on stdout.  Each
batch runs in a forked child, in the child's main thread (the lifted
decision nests one Python frame per case split and relies on a raised
recursion limit, which a worker thread's smaller C stack would not
survive), so every batch starts from the same freshly imported state with
empty module caches.

A case that runs past its limit gets a timer signal that raises inside
the child; the child reports the timeout and moves on.  If the child does
not answer within the limit plus a grace period, it is killed and the case
is reported as a timeout too.  A signal death is reported as a crash and
an exception as an error: neither ever takes the worker down.
"""

from __future__ import annotations

import json
import os
import resource
import select
import signal
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

GRACE_S = 2.0


class CaseTimeout(BaseException):
    """Raised by the timer signal; a BaseException so that library code
    catching Exception cannot swallow it."""


def _on_alarm(signum, frame):
    raise CaseTimeout()


# -- the operations, each as the corresponding CLI command performs it --------
#
# Functions are looked up on their modules at call time, so that a traced
# child calls the wrapped bindings.


def _poly(coeffs):
    from tarski import poly

    return poly.Poly([Fraction(c) for c in coeffs])


def op_qelim(case):
    from tarski import qelim, syntax

    f, names = syntax.parse_formula(case["text"])
    return syntax.formula_to_str(qelim.q_elim(f), names)


def op_decide(case):
    from tarski import formula, qelim, syntax

    f, _ = syntax.parse_formula(case["text"])
    if formula.free_vars(f):
        raise ValueError("formula is not closed")
    return qelim.decide(f)


def op_roots(case):
    from tarski import isolate

    p = _poly(case["p"])
    eps = Fraction(case["eps"])
    out = []
    for root in isolate.isolate_roots(p):
        iso = isolate.refine(p, root.interval, eps)
        lo, hi = iso.lo, iso.hi
        out.append([
            None if lo.value is None else str(lo.value), lo.closed,
            None if hi.value is None else str(hi.value), hi.closed,
            root.multiplicity,
        ])
    return out


def op_taq(case):
    from tarski import sturm

    return sturm.tarski_query(_poly(case["p"]), _poly(case["q"]))


def op_signdet(case):
    from tarski import signdet

    p = _poly(case["p"])
    qs = [_poly(q) for q in case["qs"]]
    return [[list(sv), signdet.count_with_signs(p, qs, sv)] for sv in signdet.sign_vectors(len(qs))]


OPS = {"qelim": op_qelim, "decide": op_decide, "roots": op_roots, "taq": op_taq, "signdet": op_signdet}


def run_op(case):
    return OPS[case["op"]](case)


# -- batches in forked children -------------------------------------------------


def _peak_rss_kb(pid: int) -> int:
    """VmHWM of a live process, read just before it is killed."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _child(write_fd: int, cases: list, limit: float, trace: bool, runner) -> None:
    out = os.fdopen(write_fd, "w")
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        norm_before = tracing.norm_cache_size()
    signal.signal(signal.SIGALRM, _on_alarm)
    for i, case in enumerate(cases):
        reply = {"i": i}
        start = time.perf_counter()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, limit)
                reply["result"] = runner(case)
                reply["status"] = "ok"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except CaseTimeout:
            reply["status"] = "timeout"
        except RecursionError:
            reply.update(status="error", detail="RecursionError")
        except Exception as exc:
            reply.update(status="error", detail="".join(traceback.format_exception_only(exc)).strip())
        reply["ms"] = (time.perf_counter() - start) * 1000
        if tracer is not None:
            reply["cache_entries"] = tracing.lift_cache_entries()
        out.write(json.dumps(reply) + "\n")
        out.flush()
    final = {"done": True, "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        final["trace"] = tracer.stats
        final["norm_misses"] = tracing.norm_cache_size() - norm_before
    out.write(json.dumps(final) + "\n")
    out.flush()


def run_batch(cases: list, limit: float, trace: bool = False, runner=run_op, grace: float = GRACE_S) -> dict:
    """Run the cases one after another in a forked child; returns
    {"cases": [one reply per case], "rss_kb": peak RSS, "trace": ...}."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            os.close(read_fd)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            _child(write_fd, cases, limit, trace, runner)
        except BaseException:
            code = 70
        finally:
            os._exit(code)
    os.close(write_fd)
    replies: dict[int, dict] = {}
    final: dict = {}
    buf = b""
    deadline = time.monotonic() + limit + grace
    killed = False
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                final["rss_kb"] = _peak_rss_kb(pid)
                os.kill(pid, signal.SIGKILL)
                killed = True
                break
            ready, _, _ = select.select([read_fd], [], [], left)
            if not ready:
                continue
            chunk = os.read(read_fd, 1 << 16)
            if not chunk:
                break
            buf += chunk
            *lines, buf = buf.split(b"\n")
            for line in lines:
                msg = json.loads(line)
                if msg.get("done"):
                    final.update(msg)
                else:
                    replies[msg["i"]] = msg
                    deadline = time.monotonic() + limit + grace
    finally:
        os.close(read_fd)
        _, status = os.waitpid(pid, 0)
    missing = [i for i in range(len(cases)) if i not in replies]
    if missing:
        first = missing[0]
        if killed:
            replies[first] = {"i": first, "status": "timeout", "ms": limit * 1000, "detail": "killed"}
        elif os.WIFSIGNALED(status):
            sig = signal.Signals(os.WTERMSIG(status)).name
            replies[first] = {"i": first, "status": "crash", "ms": 0.0, "detail": f"killed by {sig}"}
        for i in missing:
            replies.setdefault(i, {"i": i, "status": "error", "ms": 0.0, "detail": "not run: the child ended"})
    for reply in replies.values():
        if reply["status"] == "timeout":
            reply["ms"] = limit * 1000
    final.setdefault("rss_kb", 0)
    return {"cases": [replies[i] for i in range(len(cases))], "rss_kb": final["rss_kb"],
            "trace": final.get("trace"), "norm_misses": final.get("norm_misses", 0)}


# -- the request loop -------------------------------------------------------------


def main(argv: list[str]) -> int:
    root = Path(argv[1]).resolve()
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import tarski

    if not Path(tarski.__file__).resolve().is_relative_to(root / "src"):
        print(f"tarski was imported from {tarski.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        req = json.loads(line)
        if req.get("quit"):
            break
        limit, trace = req["limit"], req["trace"]
        if req["per_case"]:
            batches = [run_batch([case], limit, trace) for case in req["cases"]]
        else:
            batches = [run_batch(req["cases"], limit, trace)]
        print(json.dumps({"batches": batches}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
