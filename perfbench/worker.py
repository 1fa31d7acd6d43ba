"""One benchmark run in a fresh process; started by run.py.

    worker.py WORKLOAD SEED SECONDS TRACE SPAWN_MONOTONIC

Set-up is timed from SPAWN_MONOTONIC (taken by run.py just before the
process started) to the first timed call: interpreter start, ``import
sst`` and building the workload's inputs.  The last line of standard
output is the result as JSON.
"""

import os
import sys
import time

T_SPAWN = float(sys.argv[5])
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

t0 = time.monotonic()
import sst  # noqa: E402  (timed: the import a user of the package and the CLI pays)
import sst.cli  # noqa: E402

T_IMPORT = time.monotonic() - t0

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import calib  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# Rounds per phase of a traced run: the untraced and the traced phase run
# the same rounds, so counts repeat exactly and their difference is the
# tracing overhead.  About 5 s per phase on the README's host.
TRACE_ROUNDS = {"perturb_map": 8, "relaxed_step": 10, "anneal": 3}
LAYERS = ("utilities", "argmax", "relax", "grad", "verify", "cli")


def per_layer_names():
    names = []
    for fn in ("draw", "draw_block"):
        names += [f"utilities.{fn}.calls", f"utilities.{fn}.self_s"]
    names += ["argmax.solve_map.calls", "argmax.solve_map.self_s"]
    for fn in ("topk_select", "kruskal_max_tree", "cle_max_arborescence", "hungarian_match",
               "sample_tree_categorical", "sample_arborescence_categorical",
               "sample_topk_without_replacement"):
        names.append(f"argmax.{fn}.self_s")
    names += ["relax.relax.calls", "relax.relax.self_s"]
    for fn in ("expfam_marginals", "matrix_tree_marginals", "directed_matrix_tree_marginals"):
        names.append(f"relax.{fn}.self_s")
    names += ["relax.sinkhorn_relax.calls", "relax.sinkhorn_relax.self_s",
              "relax.sinkhorn_relax.failed"]
    for fn in ("euclidean_project", "binary_entropy_relax", "categorical_entropy_relax"):
        names.append(f"relax.{fn}.self_s")
    names += ["grad.fd_vjp.calls", "grad.fd_vjp.self_s", "grad.relax_calls_per_vjp",
              "grad.analytic_jacobian.calls", "grad.analytic_jacobian.self_s",
              "grad.relax_calls_per_jacobian",
              "verify.mc_frequencies.calls", "verify.mc_frequencies.self_s",
              "cli.run.calls", "cli.run.self_s"]
    names += [f"perturb_map.{k}.draw_us" for k in workloads.PERTURB_MAP_KINDS]
    names += ["setup.import_s", "setup.inputs_s", "calib.ref_ms", "timed.wall_s",
              "trace.overhead_s"]
    return names


def unit_of(name):
    last = name.rsplit(".", 1)[1]
    if last in ("calls", "failed"):
        return "count"
    if last.startswith("relax_calls_per"):
        return "calls/call"
    return {"draw_us": "us", "ref_ms": "ms"}.get(last, "s")


def run_rounds(wl, timed, rounds=None, seconds=None):
    """Whole rounds: ``rounds`` of them, or until ``seconds`` of wall time have passed."""
    attempted = failed = r = 0
    start = time.perf_counter()
    while True:
        a, f = wl.run_round(r, timed)
        attempted += a
        failed += f
        r += 1
        if rounds is not None and r >= rounds:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    return attempted, failed


def main():
    name, seed, seconds, trace = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), int(sys.argv[4])
    if not os.path.abspath(sst.__file__).startswith(os.path.abspath(SRC) + os.sep):
        sys.stderr.write(f"perfbench: imported sst from {sst.__file__}, not {SRC}\n")
        return 2
    workdir = os.path.join(HERE, "out", "work", f"{name}-seed{seed}")
    os.makedirs(workdir, exist_ok=True)
    make = workloads.WORKLOADS[name]
    t1 = time.monotonic()
    wl = make(seed, workdir)
    t_inputs = time.monotonic() - t1
    setup_end = time.monotonic()
    factor0 = calib.window_factor()
    setup_s = (setup_end - T_SPAWN) * factor0

    meter = calib.Meter()
    if not trace:
        attempted, failed = run_rounds(wl, meter.timed, seconds=seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures = wl.finish()
        metrics = {
            "ops_per_s": ((attempted - failed) / meter.norm_s, "ops/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        extra = {"raw": {"ops_per_s": (attempted - failed) / meter.raw_s,
                         "setup_s": setup_end - T_SPAWN,
                         "timed_s": meter.raw_s, "timed_norm_s": meter.norm_s,
                         "ref_ms": meter.ref_ms(), "calls": meter.calls,
                         "setup_factor": factor0}}
    else:
        rounds = TRACE_ROUNDS[name]
        attempted, failed = run_rounds(wl, meter.timed, rounds=rounds)
        failures = wl.finish()
        per_draw = getattr(wl, "per_draw", {})
        tracer = Tracer()
        tracer.install(sorted({k.rsplit(".", 1)[0] for k in per_layer_names()
                               if k.count(".") == 2 and k.split(".")[0] in LAYERS}))
        traced_meter = calib.Meter()
        factors = []

        def traced(fn):
            tracer.call_index = len(factors)

            def run():
                tracer.active = True
                try:
                    return fn()
                finally:
                    tracer.active = False

            res = traced_meter.timed(run)
            factors.append(res[2])
            return res

        wl2 = make(seed, workdir)
        a2, f2 = run_rounds(wl2, traced, rounds=rounds)
        attempted, failed = attempted + a2, failed + f2
        failures = failures + wl2.finish()
        tracer.write(os.path.join(HERE, "out", f"trace-{name}-seed{seed}.jsonl.gz"))
        metrics = layer_metrics(tracer, factors, per_draw, factor0, t_inputs, meter, traced_meter)
        extra = {}

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "failures": failures,
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        **extra,
    }
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, factors, per_draw, factor0, t_inputs, meter, traced_meter):
    calls, failed, self_s, children = tracer.summary(factors)

    def per(parent, child):
        n = calls.get(parent, 0)
        return children.get((parent, child), 0) / n if n else 0.0

    fixed = {
        "grad.relax_calls_per_vjp": per("grad.fd_vjp", "relax.relax"),
        "grad.relax_calls_per_jacobian": per("grad.analytic_jacobian", "relax.relax"),
        "setup.import_s": T_IMPORT * factor0,
        "setup.inputs_s": t_inputs * factor0,
        "calib.ref_ms": statistics.median(meter.refs + traced_meter.refs) * 1e3,
        "timed.wall_s": meter.raw_s,
        "trace.overhead_s": traced_meter.norm_s - meter.norm_s,
    }
    out = {}
    for key in per_layer_names():
        span, what = key.rsplit(".", 1)
        if key in fixed:
            value = fixed[key]
        elif what == "calls":
            value = calls.get(span, 0)
        elif what == "failed":
            value = failed.get(span, 0)
        elif what == "self_s":
            value = self_s.get(span, 0.0)
        else:  # perturb_map.<kind>.draw_us: median normalized time per draw
            kind = span.split(".")[1]
            samples = [1e6 * raw * f / d for raw, f, d in per_draw.get(kind, [])]
            value = statistics.median(samples) if samples else 0.0
        out[key] = (value, unit_of(key))
    return out


if __name__ == "__main__":
    raise SystemExit(main())
