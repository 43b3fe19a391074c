"""Spans recorded by the benchmark around calls into quadpair's layers.

Spans are taken from outside the package: either around a call the
benchmark makes itself, or by replacing a public function in the module
namespace where a composite entry point looks it up (singular_constant
finds sigma_p in quadpair.densities, S_of_B finds enumerate_zeros in
quadpair.counting).  Spans stay in memory and leave the repetition in its
result.  A disabled tracer records nothing and wraps nothing, so untraced
repetitions run the package exactly as a user would.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self, enabled: bool, run_id: str) -> None:
        self.enabled = enabled
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def _record(self, name: str, tags: dict):
        span = {"id": len(self.spans), "name": name, "run": self.run_id,
                "parent": self._open[-1] if self._open else None,
                "start": time.perf_counter(), "end": None, **tags}
        self.spans.append(span)
        self._open.append(span["id"])
        try:
            yield span
        except BaseException:
            span["error"] = True
            raise
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    def span(self, name: str, **tags):
        """Context manager yielding the span's dict (or None when disabled),
        so the caller can add counts taken from the call's return value."""
        if not self.enabled:
            return nullcontext()
        return self._record(name, tags)

    def wrap(self, module, attr: str, name: str, tags=None) -> None:
        """Replace module.attr by a traced version; tags(args, kwargs, out)
        gives the counts to attach to each span."""
        if not self.enabled:
            return
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self._record(name, {}) as span:
                out = fn(*args, **kwargs)
                if tags is not None:
                    span.update(tags(args, kwargs, out))
            return out

        setattr(module, attr, traced)


# --------------------------------------------------------------------------
# per-layer metrics from the spans of one traced repetition
# --------------------------------------------------------------------------


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _union(spans, lo: float, hi: float) -> float:
    """Length of the union of the spans' intervals clipped to [lo, hi]."""
    cuts = sorted((max(s["start"], lo), min(s["end"], hi)) for s in spans)
    total, reach = 0.0, lo
    for a, b in cuts:
        a = max(a, reach)
        if b > a:
            total += b - a
            reach = b
    return total


SHARE_GROUPS = {
    "densities_share": ("densities.",),
    "counting_share": ("counting.",),
    "expsums_share": ("expsums.", "padic.", "lincong.", "cli."),
}

SUITES = ("gauss", "multiplicativity", "vanishing", "bounds", "densities")


def layer_metrics(spans: list[dict], window: tuple[float, float], n: int) -> dict:
    """Per-layer figures of one traced repetition, keyed by metric name."""
    by = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)

    def total(name, keep=lambda s: True):
        return sum(_dur(s) for s in by.get(name, []) if keep(s))

    out = {}
    sp = by.get("densities.sigma_p", [])
    good_s = total("densities.sigma_p", lambda s: not s.get("bad"))
    good_points = sum(s["p"] ** n for s in sp if not s.get("bad"))
    out["densities.sigma_p.s"] = total("densities.sigma_p")
    out["densities.sigma_p.good_s"] = good_s
    out["densities.sigma_p.bad_s"] = total("densities.sigma_p", lambda s: s.get("bad"))
    out["densities.sigma_p.max_s"] = (_dur(max(sp, key=lambda s: s["p"])) if sp else 0.0)
    out["densities.sigma_p.k_used_sum"] = sum(s.get("k_used", 0) for s in sp)
    out["densities.sigma_p.unconverged"] = sum(1 for s in sp if not s.get("converged"))
    # computed, not observed: residues swept per second at the good primes
    out["densities.sigma_p.points_per_s"] = good_points / good_s if good_s > 0 else 0.0

    s2 = by.get("densities.sigma_2", [])
    out["densities.sigma_2.s"] = total("densities.sigma_2")
    out["densities.sigma_2.k_used"] = max((s.get("k_used", 0) for s in s2), default=0)
    out["densities.sigma_2.stabilized"] = sum(1 for s in s2 if s.get("stabilized"))

    tau = by.get("densities.tau_infinity", [])
    out["densities.tau_infinity.s"] = total("densities.tau_infinity")
    out["densities.tau_infinity.axis_points"] = max((s.get("axis_points", 0) for s in tau), default=0)
    out["densities.tau_infinity.spread"] = max((s.get("spread", 0.0) for s in tau), default=0.0)

    sb = by.get("counting.S_of_B", [])
    out["counting.S_of_B.s"] = total("counting.S_of_B")
    out["counting.S_of_B.max_s"] = _dur(max(sb, key=lambda s: s["B"])) if sb else 0.0
    out["counting.N_d.s"] = total("counting.N_d")
    ez = by.get("counting.enumerate_zeros", [])
    mitm = total("counting.enumerate_zeros", lambda s: s.get("route") == "mitm")
    scan = total("counting.enumerate_zeros", lambda s: s.get("route") == "scan")
    rows = sum(s.get("rows", 0) for s in ez)
    out["counting.enumerate_zeros.mitm_s"] = mitm
    out["counting.enumerate_zeros.scan_s"] = scan
    out["counting.enumerate_zeros.rows"] = rows
    out["counting.enumerate_zeros.rows_per_s"] = rows / (mitm + scan) if mitm + scan > 0 else 0.0
    out["counting.weight_search.s"] = total("counting.weight_search")
    out["quadforms.load_pair.s"] = total("quadforms.load_pair")

    out["expsums.S_dq.direct_s"] = total("expsums.S_dq", lambda s: s.get("method") == "direct")
    out["expsums.S_dq.ramanujan_s"] = total("expsums.S_dq", lambda s: s.get("method") == "ramanujan")
    out["expsums.Q_q_explicit.s"] = total("expsums.Q_q_explicit")
    out["expsums.D_p2_layered.s"] = total("expsums.D_p2_layered")
    out["expsums.M_mixed.s"] = total("expsums.M_mixed")
    out["expsums.calls"] = sum(len(v) for k, v in by.items() if k.startswith("expsums."))
    out["padic.count_divisibility.s"] = total("padic.count_divisibility")
    out["padic.count_divisibility.calls"] = len(by.get("padic.count_divisibility", []))
    lc = by.get("lincong.count_lincong", [])
    out["lincong.count_lincong.s"] = total("lincong.count_lincong")
    out["lincong.count_lincong.calls"] = len(lc)
    out["lincong.count_lincong.over_limit"] = sum(1 for s in lc if s.get("over_limit"))
    out["cli.verify.s"] = sum(total(f"cli.verify.{suite}") for suite in SUITES)
    for suite in SUITES:
        out[f"cli.verify.{suite}_s"] = total(f"cli.verify.{suite}")

    lo, hi = window
    wall = hi - lo
    top = [s for s in spans if s["parent"] is None]
    out["trace.wall_s"] = wall
    out["trace.coverage"] = _union(top, lo, hi) / wall
    for key, prefixes in SHARE_GROUPS.items():
        group = [s for s in spans if s["name"].startswith(prefixes)]
        out[f"trace.{key}"] = _union(group, lo, hi) / wall
    return out
