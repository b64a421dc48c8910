"""Spans around the package's layer boundaries, recorded from outside it.

The tracer replaces each traced function at the module attribute its
caller looks up (``rook.solve_linear``, ``sim.mat_mul``, ...) with a wrapper
that records a span: name, start, end, parent span, the op it belongs to,
and the change in the OpCounter the call was given. Spans stay in memory
until the run ends. Nothing inside the package changes, and uninstalling
puts every original attribute back.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

from rookbench import baselines, exponents, rook, sim
from rookbench.field import FieldMatrix, OpCounter

# (module, attribute the caller looks up, span name)
POINTS = (
    (baselines, "poly_code_exponents", "exponents.gen"),
    (baselines, "base3_exponents", "exponents.gen"),
    (baselines, "behrend_exponents", "exponents.gen"),
    (exponents, "behrend_exponents", "exponents.gen"),
    (baselines, "sum_support", "exponents.support"),
    (rook, "sum_support", "exponents.support"),
    (exponents, "sum_support", "exponents.support"),
    (rook, "is_decodable", "exponents.check"),
    (exponents, "is_decodable", "exponents.check"),
    (exponents, "is_3ap_free", "exponents.check"),
    (rook, "make_rook_scheme", "rook.bind"),
    (baselines, "make_lcc_scheme", "baselines.bind"),
    (baselines, "make_csa_scheme", "baselines.bind"),
    (rook, "rook_encode_share", "rook.encode"),
    (baselines, "lcc_encode", "baselines.encode"),
    (baselines, "csa_encode", "baselines.encode"),
    (rook, "rook_worker", "rook.worker"),
    (rook, "mat_mul", "field.matmul"),
    (sim, "mat_mul", "field.matmul"),
    (rook, "rook_decode", "rook.decode"),
    (baselines, "lcc_decode", "baselines.decode"),
    (baselines, "csa_decode", "baselines.decode"),
    (rook, "solve_linear", "field.solve"),
    (baselines, "solve_linear", "field.solve"),
    (sim, "mat_random", "sim.inputs"),
    (sim, "run_simulation", "sim.run"),
)

# Who called sim.mat_mul: the master's oracle, or a replication worker.
_MATMUL_ROLE = {"run_simulation": "oracle", "_run_replication": "replica"}


def _caller_name(depth: int) -> str:
    # Name of the nearest calling function, skipping comprehension frames.
    frame = sys._getframe(depth)
    while frame.f_code.co_name.startswith("<"):
        frame = frame.f_back
    return frame.f_code.co_name


class Span:
    __slots__ = ("name", "role", "op", "parent", "start", "end", "muls", "invs", "value", "child_s")

    def __init__(self, name, role, op, parent):
        self.name = name
        self.role = role
        self.op = op
        self.parent = parent
        self.muls = 0
        self.invs = 0
        self.value = None
        self.child_s = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self.t0 = perf_counter()
        self._stack: list[Span] = []
        self._saved = []

    def install(self):
        for module, attr, name in POINTS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, module is sim and attr == "mat_mul"))
        original_eq = FieldMatrix.__eq__
        self._saved.append((FieldMatrix, "__eq__", original_eq))
        FieldMatrix.__eq__ = self._wrap_compare(original_eq)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _open(self, name, role):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, role, self.op, parent)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.end - span.start

    def _wrap(self, fn, name, role_by_caller):
        tracer = self

        def traced(*args, **kwargs):
            role = _MATMUL_ROLE.get(_caller_name(2)) if role_by_caller else None
            counter = kwargs.get("counter")
            if counter is None:
                counter = next((a for a in args if type(a) is OpCounter), None)
            muls0, invs0 = (counter.mul_count, counter.inv_count) if counter else (0, 0)
            span = tracer._open(name, role)
            ok = False
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                span.end = perf_counter()
                tracer._close(span)
                if counter is not None:
                    span.muls = counter.mul_count - muls0
                    span.invs = counter.inv_count - invs0
                if name == "field.matmul":
                    a, b = args[1], args[2]
                    span.muls = a.rows * a.cols * b.cols
                elif name == "rook.decode":
                    span.value = int(ok)
                elif name == "exponents.support" and ok:
                    span.value = result.L
            return result

        return traced

    def _wrap_compare(self, eq):
        # The master's final `decoded == oracle` check: a span only when the
        # simulator compares, not when anything else tests matrix equality.
        tracer = self

        def traced_eq(a, b):
            if _caller_name(2) not in _MATMUL_ROLE:
                return eq(a, b)
            span = tracer._open("sim.compare", None)
            span.start = perf_counter()
            try:
                return eq(a, b)
            finally:
                span.end = perf_counter()
                tracer._close(span)

        return traced_eq

    def write(self, path, header: dict):
        """One JSON line of `header`, then one per span, times from tracer start."""
        t0 = self.t0
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": s.name,
                            "role": s.role,
                            "op": s.op,
                            "parent": index[id(s.parent)] if s.parent is not None else None,
                            "start_s": round(s.start - t0, 9),
                            "end_s": round(s.end - t0, 9),
                            "muls": s.muls,
                            "invs": s.invs,
                        }
                    )
                    + "\n"
                )


def cross_check(spans: list[Span], report) -> list[str]:
    """Op counts read at the spans against the SimReport's counters.

    Returns a description of every counter that disagrees.
    """
    encode = [s for s in spans if s.name in ("rook.encode", "baselines.encode")]
    decode = [s for s in spans if s.name in ("rook.decode", "baselines.decode")]
    workers = [s for s in spans if s.name == "field.matmul" and s.role != "oracle"]
    received = [s for s in spans if s.name == "rook.worker" or s.role == "replica"]
    at_spans = {
        "encode_muls": sum(s.muls for s in encode),
        "encode_invs": sum(s.invs for s in encode),
        "worker_muls": sum(s.muls for s in workers),
        "decode_muls": sum(s.muls for s in decode),
        "decode_invs": sum(s.invs for s in decode),
        "responses_received": len(received),
    }
    return [
        f"{key}: spans {value}, report {getattr(report, key)}"
        for key, value in at_spans.items()
        if value != getattr(report, key)
    ]


def layer_metrics(spans: list[Span], reports: list, ops: int) -> dict:
    """Per-op layer numbers from the spans of `ops` traced ops.

    Times ending in _s are seconds per op: inclusive for the exponents
    layer, encode, worker, solve and matmul spans; self time (minus traced
    callees) for bind, decode and the simulator's own loop.
    """
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def incl(name, role=None):
        return sum(s.seconds for s in by[name] if role is None or s.role == role)

    def own(name):
        return sum(s.self_s for s in by[name])

    def count(name, field="muls"):
        return sum(getattr(s, field) for s in by[name])

    def rate(num, den):
        return num / den if den else 0.0

    decodes = by["rook.decode"]
    supports = [s.value for s in by["exponents.support"] if s.value is not None]
    totals = {
        "exponents.gen_s": incl("exponents.gen"),
        "exponents.gen_calls": len(by["exponents.gen"]),
        "exponents.support_s": incl("exponents.support"),
        "exponents.check_s": incl("exponents.check"),
        "rook.bind_s": own("rook.bind"),
        "baselines.bind_s": own("baselines.bind"),
        "rook.encode_s": incl("rook.encode"),
        "rook.encode_muls": count("rook.encode"),
        "rook.encode_invs": count("rook.encode", "invs"),
        "baselines.encode_s": incl("baselines.encode"),
        "baselines.encode_invs": count("baselines.encode", "invs"),
        "rook.worker_s": incl("rook.worker"),
        "rook.decode_s": own("rook.decode"),
        "rook.decode_calls": len(decodes),
        "baselines.decode_s": own("baselines.decode"),
        "field.solve_s": incl("field.solve"),
        "field.solve_calls": len(by["field.solve"]),
        "field.solve_muls": count("field.solve"),
        "field.matmul_s": incl("field.matmul"),
        "field.matmul_muls": count("field.matmul"),
        "sim.inputs_s": incl("sim.inputs"),
        "sim.verify_s": incl("field.matmul", "oracle") + incl("sim.compare"),
        "sim.self_s": own("sim.run"),
        "sim.responses_used": sum(r.responses_used for r in reports),
        "sim.responses_received": sum(r.responses_received for r in reports),
    }
    out = {key: value / ops for key, value in totals.items()}
    out["exponents.L"] = statistics.fmean(supports) if supports else 0.0
    out["rook.decode_ok_ratio"] = rate(sum(s.value for s in decodes), len(decodes))
    out["field.solve_muls_per_s"] = rate(totals["field.solve_muls"], totals["field.solve_s"])
    out["field.matmul_muls_per_s"] = rate(totals["field.matmul_muls"], totals["field.matmul_s"])
    return out
