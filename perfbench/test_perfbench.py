"""Tests of the benchmark itself:  python3 -m pytest perfbench"""

import faulthandler
import os
import signal
import sys
import time
from fractions import Fraction as Q
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads as W  # noqa: E402
from exact import FormulaStats, KnownPoly, Root  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import run_batch, run_op  # noqa: E402

MIX = {"roots": 2, "taq": 2, "signdet": [1, 1, 0]}


def _texts(cases):
    return [W.payload(c) for c in cases]


def test_generators_are_deterministic_per_seed():
    assert _texts(W.qe_round(7, 2, 4)) == _texts(W.qe_round(7, 2, 4))
    assert [c["points"] for c in W.qe_round(7, 2, 4)] == [c["points"] for c in W.qe_round(7, 2, 4)]
    assert _texts(W.decide_round(7, 2, 20)) == _texts(W.decide_round(7, 2, 20))
    assert _texts(W.roots_signdet_round(7, 2, MIX, "1/1000")) == _texts(W.roots_signdet_round(7, 2, MIX, "1/1000"))
    assert _texts(W.decide_round(7, 2, 20)) != _texts(W.decide_round(8, 2, 20))
    assert _texts(W.decide_round(7, 2, 20)) != _texts(W.decide_round(7, 3, 20))


def test_qe_templates_keep_their_structure_across_seeds():
    def shape(text):
        return "".join(ch for ch in text if not (ch.isdigit() or ch in "()-/"))

    for a, b in zip(W.qe_round(1, 0, 1), W.qe_round(2, 5, 1)):
        assert shape(a["text"]) == shape(b["text"])


def test_surd_signs_are_exact():
    r = Root(s=1, k=Q(2))
    assert r.cmp_q(Q(141, 100)) == 1 and r.cmp_q(Q(142, 100)) == -1
    assert r.sign_of([Q(-2), Q(0), Q(1)]) == 0  # x^2 - 2
    assert r.sign_of([Q(-141, 100), Q(1)]) == 1  # x - 1.41
    assert Root(s=-1, k=Q(2)).sign_of([Q(3, 2), Q(1)]) == 1  # x + 1.5 at -sqrt 2
    kp = KnownPoly(Q(-1), {Q(1): 2}, [Q(3)])  # -(x-1)^2 (x^2-3)
    assert [repr(root) for root, _ in kp.real_roots()] == ["-sqrt(3)", "1", "sqrt(3)"]
    roots = [root for root, _ in kp.real_roots()]
    assert kp.sign_between(None, roots[0]) == -1
    assert kp.sign_between(roots[0], roots[1]) == 1
    assert kp.sign_between(roots[1], roots[2]) == 1


def test_formula_stats_evaluates_counts_nodes_and_distinct_atoms():
    text = "c + (-1/4) * (b * b) = 0 \\/ 0 < (-1) * c + (1/4) * (b * b) /\\ ~(b = 0) \\/ c + (-1/4) * (b * b) = 0"
    st = FormulaStats(text, [{"b": Q(2), "c": Q(1)}, {"b": Q(1), "c": Q(1)}])
    assert st.values == (True, False)
    assert st.nodes == 8 and len(st.atoms) == 3


def test_checker_rejects_a_wrong_decision():
    case = W.decide_round(3, 0, 1)[0]
    checker = run.Checker()
    checker.check(case, {"status": "ok", "result": case["expected"], "ms": 1.0})
    checker.check(case, {"status": "ok", "result": not case["expected"], "ms": 1.0})
    assert checker.outcomes["ok"] == 1 and checker.outcomes["wrong"] == 1


def test_checker_rejects_an_interval_that_misses_its_root():
    kp = KnownPoly(Q(1), {Q(1, 2): 1}, [Q(2)])  # roots -sqrt 2, 1/2, sqrt 2
    case = {"op": "roots", "known": kp, "eps": "1/10"}
    good = [["-1415/1000", False, "-1410/1000", False, 1], ["49/100", False, "51/100", False, 1],
            ["1410/1000", False, "1415/1000", False, 1]]
    assert W.check_roots(case, good) is None
    missing = [good[0], ["51/100", False, "52/100", False, 1], good[2]]
    assert "misses" in W.check_roots(case, missing)
    too_wide = [good[0], ["0", False, "1", False, 1], good[2]]
    assert "narrower" in W.check_roots(case, too_wide)
    assert "multiplicity" in W.check_roots(case, [good[0], good[1][:4] + [2], good[2]])


def test_checker_rejects_a_wrong_qe_output():
    case = {"op": "qelim", "template": "quad", "text": "exists x. x^2 + b*x + c = 0", "consts": {"k": Q(1)},
            "points": [{"b": Q(3), "c": Q(1)}, {"b": Q(0), "c": Q(1)}]}
    checker = run.Checker()
    checker.check(case, {"status": "ok", "result": "true", "ms": 1.0})
    assert checker.outcomes["wrong"] == 1
    checker.check(case, {"status": "ok", "result": "0 <= b^2 - 4*c", "ms": 1.0})
    assert checker.outcomes["ok"] == 1
    assert checker.references["closed-form"] == 4  # the wrong answer fails at its second point


def test_qe_answers_from_tarski_pass_the_checks():
    cases = [c for c in W.qe_round(9, 0, 2) if c["template"] in ("quad", "quad_gt", "between")]
    checker = run.Checker()
    for case in cases:
        checker.check(case, {"status": "ok", "result": run_op(W.payload(case)), "ms": 1.0})
    assert checker.outcomes["ok"] == len(cases)
    assert checker.references["decide"] > 0 and checker.references["closed-form"] > 0


def test_a_case_past_its_limit_is_a_timeout():
    out = run_batch([{"n": 1}, {"n": 2}], limit=0.2, runner=lambda case: time.sleep(5) or case["n"])
    assert [r["status"] for r in out["cases"]] == ["timeout", "timeout"]
    assert [r["ms"] for r in out["cases"]] == [200.0, 200.0]
    assert out["rss_kb"] > 0


def test_a_child_that_ignores_the_timer_is_killed_and_counted_as_a_timeout():
    def stubborn(case):
        signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGALRM])
        time.sleep(30)

    t0 = time.monotonic()
    out = run_batch([{}], limit=0.2, runner=stubborn, grace=0.3)
    assert time.monotonic() - t0 < 10
    assert out["cases"][0]["status"] == "timeout" and out["cases"][0]["detail"] == "killed"


def test_crashes_and_recursion_errors_are_failed_cases_not_harness_errors():
    def deep(n):
        return deep(n + 1)

    def segfault(case):
        faulthandler.disable()
        os.kill(os.getpid(), signal.SIGSEGV)

    out = run_batch([{"f": 1}], limit=5, runner=lambda case: deep(0))
    assert out["cases"][0]["status"] == "error" and out["cases"][0]["detail"] == "RecursionError"
    out = run_batch([{}, {}], limit=5, runner=segfault)
    assert out["cases"][0]["status"] == "crash" and "SIGSEGV" in out["cases"][0]["detail"]
    assert out["cases"][1]["status"] == "error"


def test_tracer_self_time_subtracts_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("m.inner", lambda: None)
    leaf = tracer.wrap("m.leaf", lambda: None)

    def outer_body():
        inner()  # 1.0 .. 3.0
        leaf()  # 4.0 .. 4.5

    tracer.wrap("m.outer", outer_body)()  # 0.0 .. 10.0
    assert tracer.stats["m.inner"] == [1, 2.0, 2.0]
    assert tracer.stats["m.leaf"] == [1, 0.5, 0.5]
    assert tracer.stats["m.outer"] == [1, 10.0, 7.5]
    assert tracer.stack == []


def test_tracer_folds_direct_recursion_into_one_span():
    ticks = iter([0.0, 5.0])
    tracer = Tracer(clock=lambda: next(ticks))
    fact = None

    def body(n):
        return 1 if n == 0 else n * fact(n - 1)

    fact = tracer.wrap("m.fact", body)
    assert fact(5) == 120
    assert tracer.stats["m.fact"] == [1, 5.0, 5.0]


def test_traced_batch_reaches_from_import_bindings_and_poly_methods():
    case = W.payload(W.decide_round(1, 0, 2)[1])
    assert "= 0 /\\" in case["text"]
    out = run_batch([case], limit=30, trace=True)
    assert out["cases"][0]["status"] == "ok"
    calls = {key: n for key, (n, _, _) in out["trace"].items()}
    # qelim binds fold_formula, decF and elim_inv by from-import; lift binds
    # isolate_roots and sign_at_root; Poly's methods are patched on the class.
    for key in ("qelim.decide", "lift.fold_formula", "lift.decF", "formula.elim_inv",
                "isolate.isolate_roots", "isolate.sign_at_root", "poly.divmod", "syntax.parse_formula"):
        assert calls[key] > 0, key
    assert out["cases"][0]["cache_entries"] > 0
    assert out["norm_misses"] > 0


def test_percentile_is_a_smooth_estimate():
    assert run.percentile([1, 2, 3, 4, 5], 50) == pytest.approx(3)
    values = [i / 1000 for i in range(1001)]
    for p in (50, 75, 95):
        assert run.percentile(values, p) == pytest.approx(p / 100, abs=0.005)
    # Two clusters with a gap: the estimate sits between them, not on an edge.
    assert 1 < run.percentile([1] * 10 + [100] * 10, 50) < 100
