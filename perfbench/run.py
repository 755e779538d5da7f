#!/usr/bin/env python3
"""Link-sign prediction benchmark for the ``sgcn`` package.

    python3 perfbench/run.py --workload alpha-sgcn2 --seed 1 --seconds 20 --trace 0

The checkout is the parent of this file's directory; it must hold
``src/sgcn`` and ``data/``. Each round runs in fresh processes, one at a
time, with the BLAS thread count fixed per workload below. Rounds repeat
until ``--seconds`` have passed (at least one). The first round checks its
outputs (see ``checks.py``) and later rounds must repeat its report. The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``. See
``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path

from tracing import clock, layer_metrics, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".perfbench-runs"

# Extra set-up-only processes per untraced run, so setup_s is a median.
SETUP_PROBES = 3
# Training length of the CLI workload: enough that its fit is a real share of run_s.
CLI_EPOCHS = 100
# A child that runs longer than this is killed; its unfinished operations count failed.
CHILD_TIMEOUT_S = 150

# BLAS threads per workload, at most the reference machine's two cores. On
# it, two threads made the small matrices of a fit no faster and its wall
# time swing far more between identical runs, while the dense eigensolver of
# otc-sse ran twice as fast and steadier with two; see README.md.
WORKLOADS = {
    "alpha-sgcn2": {"dataset": "data/bitcoin_alpha.csv", "method": "sgcn-2", "cli": False, "blas_threads": 1},
    "otc-sse": {"dataset": "data/soc-sign-bitcoinotc.csv", "method": "sse", "cli": False, "blas_threads": 2},
    "alpha-cli-sgcn1plus": {"dataset": "data/bitcoin_alpha.csv", "method": "sgcn-1+", "cli": True, "blas_threads": 1},
}


def reported(metrics: dict, section: str) -> dict:
    """The metrics that BENCHMARK.json lists in ``section``, with its units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec[section]}


class Bench:
    def __init__(self, workload: str, seed: int, run_dir: Path):
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.dir = run_dir
        self.attempted = 0
        self.failed = 0
        self.check_errors: list[str] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(min(self.spec["blas_threads"], len(os.sched_getaffinity(0))))
        self._count = 0
        # The first finished round's (auc, f1); later rounds must repeat it.
        self.first_report: tuple[float, float] | None = None

    def _name(self, stem: str) -> Path:
        self._count += 1
        return self.dir / f"{stem}-{self._count}"

    def spawn(self, cmd: list[str]) -> dict:
        """Run ``cmd`` to its end; wall-clock span, exit code and peak RSS."""
        log = self._name("log")
        with open(log, "wb") as fh:
            start = clock()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=fh, stderr=subprocess.STDOUT)
            # A blocking wait, not a polling loop, so the parent takes no CPU from the child.
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end = clock()
        code = proc.returncode = os.waitstatus_to_exitcode(status)
        if code != 0:
            print(f"[perfbench] {' '.join(cmd[1:])} exited {code}:\n{log.read_text()[-4000:]}", file=sys.stderr)
        return {"code": code, "start": start, "end": end, "rss_mb": usage.ru_maxrss / 1024.0}

    def worker(self, mode: str, **spec) -> tuple[dict, dict]:
        result = self._name("result")
        path = self._name("spec")
        path.write_text(json.dumps({**spec, "result": str(result)}))
        proc = self.spawn([sys.executable, str(BENCH / "worker.py"), mode, str(path)])
        return (json.loads(result.read_text()) if result.exists() else {}), proc

    # One round of an in-process workload: set-up, then run_experiment unless
    # ``setup_only``. Returns its figures, or None. Every round attempts all of
    # its operations; one that did not finish counts failed.
    def experiment_round(self, traced: bool, setup_only: bool = False) -> dict | None:
        operations = 1 if setup_only else 2
        check = not setup_only and self.first_report is None
        outputs = str(self._name("outputs").with_suffix(".npz")) if check else None
        out, _ = self.worker(
            "experiment",
            dataset=self.spec["dataset"],
            method=self.spec["method"],
            seed=self.seed,
            trace=traced,
            setup_only=setup_only,
            outputs=outputs,
        )
        self.attempted += operations
        self.failed += out["failed"] if out else operations
        if not out or out["failed"]:
            print(f"[perfbench] operation failed:\n{out.get('error', 'the worker left no result')}", file=sys.stderr)
            return None
        if check:
            checked, _ = self.worker(
                "check-experiment", outputs=outputs, dataset=self.spec["dataset"], method=self.spec["method"]
            )
            error = checked.get("check_error", "the output checks did not finish")
            if error is not None:
                self.check_errors.append(error)
        if not setup_only:
            root = next(s for s in out["spans"] if s["name"] == "run")
            out["run_roots"] = [root["id"]]
        return out

    # One round of the CLI workload, each command its own process.
    def cli_round(self, traced: bool, setup_only: bool = False) -> dict | None:
        out_dir = self._name("cli")
        common = ["--dataset", self.spec["dataset"], "--out", str(out_dir.relative_to(ROOT)), "--seed", str(self.seed)]
        steps = [("ingest", [])]
        if not setup_only:
            method = ["--method", self.spec["method"]]
            steps += [("triangles", []), ("train", method + ["--epochs", str(CLI_EPOCHS)]), ("eval", method)]
        spans, walls, rss, ok = [], {}, [], True
        self.attempted += len(steps)
        for done, (command, extra) in enumerate(steps):
            argv = [command] + common + extra
            if traced:
                child, proc = self.worker("cli", argv=argv)
            else:
                child, proc = {}, self.spawn([sys.executable, "-m", "sgcn.cli"] + argv)
            if proc["code"] != 0:
                # This step and the ones after it did not finish.
                self.failed += len(steps) - done
                ok = False
                break
            root = len(spans)
            spans.append({"id": root, "name": f"cli.{command}", "parent": None,
                          "start": proc["start"], "end": proc["end"], "counts": {}})
            _adopt(spans, child.get("spans", []), root)
            walls[command] = proc["end"] - proc["start"]
            rss.append(proc["rss_mb"])
        if not ok:
            return None
        out = {"setup_s": walls["ingest"], "spans": spans}
        if setup_only:
            return out
        if self.first_report is None:
            checked, _ = self.worker(
                "check-cli", out=str(out_dir.relative_to(ROOT)), dataset=self.spec["dataset"],
                seed=self.seed, epochs=CLI_EPOCHS,
            )
            error = checked.get("check_error", "the CLI output checks did not finish")
            if error is not None:
                self.check_errors.append(error)
        report = (out_dir / "report.csv").read_text().splitlines()
        header, row = report[0].split(","), report[1].split(",")
        values = dict(zip(header, row))
        shutil.rmtree(out_dir, ignore_errors=True)
        out.update(
            run_s=sum(walls[c] for c in ("triangles", "train", "eval")),
            peak_rss_mb=max(rss),
            auc=float(values["auc"]),
            f1=float(values["f1"]),
            run_roots=[s["id"] for s in spans if s["name"] in ("cli.triangles", "cli.train", "cli.eval")],
        )
        return out

    def round(self, traced: bool, setup_only: bool = False) -> dict | None:
        """One round; the first full one is checked, later ones must repeat its report."""
        if self.spec["cli"]:
            out = self.cli_round(traced, setup_only)
        else:
            out = self.experiment_round(traced, setup_only)
        if out and not setup_only:
            report = (out["auc"], out["f1"])
            if self.first_report is None:
                self.first_report = report
            elif report != self.first_report:
                self.check_errors.append(f"report {report} differs from the first round's {self.first_report}")
        return out


def _adopt(spans: list[dict], child: list[dict], parent: int) -> None:
    """Append a child process's spans, hanging its top spans under ``parent``."""
    offset = len(spans)
    for s in child:
        spans.append({**s, "id": s["id"] + offset,
                      "parent": parent if s["parent"] is None else s["parent"] + offset})


def run_figures(out: dict) -> dict:
    """Traced round: per-layer metrics plus the run-phase total and residue."""
    spans = out["spans"]
    own = self_times(spans)
    figures = layer_metrics(spans)
    figures["trace.run_s"] = sum(spans[i]["end"] - spans[i]["start"] for i in out["run_roots"])
    figures["trace.unattributed_s"] = sum(own[i] for i in out["run_roots"])
    return figures


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[dict, list[dict]]:
    setups: list[float] = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probe = bench.round(traced=False, setup_only=True)
            if probe:
                setups.append(probe["setup_s"])
    plain, traced = [], []
    started = clock()
    while not (plain or traced) or clock() - started < seconds:
        out = bench.round(traced=False)
        if out:
            plain.append(out)
            setups.append(out["setup_s"])
            print(f"[perfbench] round: setup {out['setup_s']:.3f} s, run {out['run_s']:.3f} s, "
                  f"auc {out['auc']:.4f}", file=sys.stderr)
        if trace:
            out = bench.round(traced=True)
            if out:
                traced.append(out)
                print(f"[perfbench] traced round: run {out['run_s']:.3f} s", file=sys.stderr)
        if not (plain or traced):
            break
    if not plain or (trace and not traced):
        return {}, []
    if not trace:
        metrics = {"setup_s": statistics.median(setups)}
        for name in ("run_s", "peak_rss_mb", "auc", "f1"):
            metrics[name] = statistics.median(o[name] for o in plain)
        return reported(metrics, "end_to_end"), []
    figures = [run_figures(o) for o in traced]
    metrics = {k: statistics.median(f[k] for f in figures) for k in figures[0]}
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - statistics.median(o["run_s"] for o in plain)
    spans = []
    for number, out in enumerate(traced):
        own = self_times(out["spans"])
        spans += [{**s, "round": number, "self": t} for s, t in zip(out["spans"], own)]
    return reported(metrics, "per_layer"), spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "sgcn" / "__init__.py", ROOT / WORKLOADS[args.workload]["dataset"]]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not in an sgcn checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir = RUNS / name
    run_dir.mkdir(parents=True, exist_ok=True)
    bench = Bench(args.workload, args.seed, run_dir)
    try:
        metrics, spans = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if not metrics:
        print("perfbench: no round finished; see the errors above", file=sys.stderr)
        return 1
    if spans:
        trace_file = RUNS / f"{name}.trace.jsonl"
        trace_file.write_text("".join(json.dumps(s, sort_keys=True) + "\n" for s in spans))
        print(f"[perfbench] spans written to {trace_file.relative_to(ROOT)}", file=sys.stderr)
    for error in bench.check_errors:
        print(f"[perfbench] check failed: {error}", file=sys.stderr)
    correct = not bench.check_errors
    for key, metric in metrics.items():
        print(f"{key:28s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
