"""One benchmark child process doing a workload's fixed work once.

    python3 perfbench/child.py zsweep|idchecks --inputs INPUTS.json --part K --out OUT.json [--trace SPANS.npz]
    python3 perfbench/child.py report --out OUT.json [--trace SPANS.npz]

`src` must be on PYTHONPATH.  zsweep/idchecks run the warm-up round of
the inputs file untimed, then each measured round of part K of the
inputs once, timing every op and every round.  `report` runs `besselid verify all --stable` inside
this interpreter, timing every report row.  Before an op the speed
probe runs if its interval has passed (speed.py); OUT lists the probe
times and, with each op, the index of the latest probe.  With --trace
the layer wrappers are installed (after the warm-up round) and the span
table is summarised into OUT and saved to SPANS.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import time

from speed import Prober

_perf = time.perf_counter


def _run_rounds(args, tracer, prober) -> dict:
    from workloads import OPS

    with open(args.inputs) as fh:
        inputs = json.load(fh)
    build = OPS[args.workload]
    for label, op in build(inputs["warmup"]):
        _run_op(op, None, label, [])
    if tracer is not None:
        from tracer import install
        install(tracer)

    rounds, ops, errors = [], [], []
    for k, rnd in enumerate(inputs["children"][args.part]):
        batch = build(rnd)
        t_round = _perf()
        for label, op in batch:
            j = prober.tick()
            t0 = _perf()
            outcome = _run_op(op, tracer, label, errors)
            ops.append([k, label, _perf() - t0, outcome, j])
        rounds.append([len(batch), _perf() - t_round])
    return {"rounds": rounds, "ops": ops, "errors": errors[:20]}


def _run_op(op, tracer, label: str, errors: list) -> str:
    try:
        return op() if tracer is None else tracer.run_op(label, op)
    except Exception as exc:  # an exception is a failed op, not a crash
        errors.append(f"{label}: {type(exc).__name__}: {exc}")
        return "error"


def _run_report(args, tracer, prober) -> dict:
    """`verify all --stable` in-process, timing every row."""
    from besselid import cli

    ops = []
    run_tasks = cli._run_tasks

    def timed(check_id, fn):
        def task():
            # inside the `cli` span: a span of its own keeps the probe
            # out of cli.self_s
            j = prober.tick() if tracer is None \
                else tracer.span("probe", prober.tick)
            t0 = _perf()
            try:
                row = fn() if tracer is None else tracer.run_op(check_id, fn)
            finally:
                ops.append([0, check_id, _perf() - t0, None, j])
            return row
        return task

    def run_timed(tasks, cfg):
        rows = run_tasks([(cid, timed(cid, fn)) for cid, fn in tasks], cfg)
        verdicts = {r["id"]: r["verdict"] for r in rows}
        for op in ops:
            op[3] = verdicts.get(op[1], "error")
        return rows

    cli._run_tasks = run_timed
    if tracer is not None:
        from tracer import install
        install(tracer)
    buf = io.StringIO()

    def main():
        try:
            cli.main(["verify", "all", "--stable"], standalone_mode=False)
        except SystemExit as exc:
            return exc.code
        return 0

    with contextlib.redirect_stdout(buf):
        code = main() if tracer is None else tracer.span("cli", main)
    text = buf.getvalue()
    return {"ops": ops, "exit_code": code,
            "digest": hashlib.sha256(text.encode()).hexdigest(),
            "summary": json.loads(text)["summary"]}


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("workload", choices=["report", "zsweep", "idchecks"])
    p.add_argument("--inputs")
    p.add_argument("--part", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--trace")
    args = p.parse_args(argv)

    import besselid
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    run = _run_report if args.workload == "report" else _run_rounds
    prober = Prober()
    out = run(args, tracer, prober)
    out["probes"] = prober.times
    out["besselid"] = besselid.__file__
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        out["layers"] = tracer.summary()
        tracer.save(args.trace)
    with open(args.out, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
