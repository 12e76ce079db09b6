#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of flower-lab's `solve` and `train`.

    python3 perfbench/run.py --workload bundled --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program runs as its users run it: one
`python3 -m flower_lab solve|train` child process at a time, on src/ of the
checkout, each pinned to one CPU.  Every output is checked against
perfbench/reference.py, which computes the exact posterior apart from the
program.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; with `--trace 0` the metrics
are the end-to-end ones, with `--trace 1` the per-layer ones from
perfbench/tracer.py.  See README.md.
"""

import os

# Pinned before numpy loads, here and in every child, and only one program
# process runs at a time.  One BLAS thread: on a shared 2-vCPU VM the
# two-thread OpenBLAS timings spread about twice as wide.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "FLOWER_LAB_THREADS": "1",
}
os.environ.update(PINNED_ENV)
# On a shared VM the vCPUs drift in speed for seconds to minutes, at times
# one apart from the other.  Each child is pinned to one CPU, and successive
# samples of a measurement alternate between the CPUs, so a run's samples cover
# both of them.
CPUS = sorted(os.sched_getaffinity(0))

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import inputs  # noqa: E402
import reference  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
BUNDLED = ("toy1", "toy2", "inpaint16", "blur32")
WORKLOADS = ("bundled", "blur128", "train")

RUN_LIMIT_S = 170.0
# A run makes --seconds / ROUND_S rounds, ROUND_S being a round's length on
# the reference machine: every run then holds the same samples, however
# fast the host is, since a run's slowest sample depends on how many it has.
ROUND_S = {"bundled": 19.5, "blur128": 10.5, "train": 21.0}

# `train` trains at toy1's shipped batch; the other workloads carry a small
# probe of both couplings as their control.  One exact assignment at batch
# 2048 takes 3.0-4.2 s depending on the minibatch, so `train` runs its
# one-step exact-OT run on TRAIN_OT_SEEDS trainer seeds and so on as many
# minibatches.
TRAIN_BATCH, TRAIN_STEPS, TRAIN_OT_STEPS, TRAIN_OT_SEEDS = 2048, 100, 1, 2
PROBE_BATCH, PROBE_STEPS, PROBE_OT_STEPS = 256, 200, 60
TRAIN_SOLVE_SAMPLES = 1000

SETUP_SNIPPET = (
    "import sys; from flower_lab.cli import load_config; load_config(sys.argv[1])"
)

END_TO_END = {
    "solve_s": "s",
    "train_steps_per_s": "1/s",
    "ot_train_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "flow.field_eval_s": "s",
    "flow.field_eval_calls": "count",
    "operators.gram_apply_calls": "count",
    "operators.gram_apply_s": "s",
    "operators.adjoint_calls": "count",
    "operators.adjoint_s": "s",
    "operators.cg_matvecs_per_solve": "count",
    "flower.run_batch_s": "s",
    "flower.self_s": "s",
    "flower.refine_mean_s": "s",
    "flower.sample_kappa_s": "s",
    "flower.time_progress_s": "s",
    "gmm.posterior_s": "s",
    "metrics.sliced_w2_s": "s",
    "cli.samples_csv_s": "s",
    "cli.samples_csv_bytes": "bytes",
    "config.load_s": "s",
    "flow.train_sample_ms": "ms",
    "flow.coupling_ms": "ms",
    "mlp.loss_and_grad_ms": "ms",
    "flow.adam_ms": "ms",
}
OPERATOR_ACTIONS = tuple(
    f"operators.{a}"
    for a in ("apply", "apply_adjoint", "gram_apply", "gram_matrix", "dense_matrix")
)


def log(message):
    print(message, file=sys.stderr, flush=True)


@dataclass(frozen=True)
class Op:
    """One program process: a set-up probe, a solve or a training run."""

    kind: str  # setup | solve | train
    label: str
    config: Path
    seed: int  # passed as --seed
    steps: int = 0
    coupling: str = ""


def workload_ops(name: str, seed: int, work: Path) -> list[Op]:
    """The operations of one round; every round repeats the same list."""
    toy1 = CONFIGS / "toy1.cfg"
    if name == "bundled":
        solves = [Op("solve", c, CONFIGS / f"{c}.cfg", seed) for c in BUNDLED]
    elif name == "blur128":
        cfg = inputs.blur128_config(seed, work / "blur128.cfg")
        solves = [Op("solve", "blur128", cfg, seed)]
    else:
        cfg = inputs.solver_config(toy1, work / "toy1_small.cfg", TRAIN_SOLVE_SAMPLES)
        solves = [Op("solve", "toy1_small", cfg, seed)]

    def train(coupling, steps, batch, label, run_seed):
        cfg = inputs.train_config(toy1, work / f"train_{coupling}.cfg", coupling, steps, batch)
        return Op("train", label, cfg, run_seed, steps, coupling)

    if name == "train":
        ot = [train("minibatch_ot", TRAIN_OT_STEPS, TRAIN_BATCH, f"minibatch_ot-{k}",
                    seed * TRAIN_OT_SEEDS + k) for k in range(TRAIN_OT_SEEDS)]
        # set-up first, then each exact-OT run followed by the other two
        others = [train("independent", TRAIN_STEPS, TRAIN_BATCH, "independent", seed)]
        others += solves
        runs = [Op("setup", "setup", toy1, seed)]
        for op in ot:
            runs += [op] + others
        return runs
    # a set-up probe, then solves and training runs alternating
    trains = [
        train("independent", PROBE_STEPS, PROBE_BATCH, "independent", seed),
        train("minibatch_ot", PROBE_OT_STEPS, PROBE_BATCH, "minibatch_ot", seed),
    ]
    runs = [op for pair in zip(solves, trains) for op in pair]
    runs += solves[len(trains):] + trains[len(solves):]
    return [Op("setup", "setup", solves[0].config, seed)] + runs


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Bench:
    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, **PINNED_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )
        self.attempted = 0
        self.failed = 0
        self.problems = {}
        self.failures = []
        # output digest per operation: every repeat within this run must match
        self.digests = {}
        self.checked = set()
        self.max_rss_mb = 0.0

    # -- child processes -------------------------------------------------
    def run_child(self, argv, name, cpu=CPUS[0]):
        """Run one child on `cpu` to its end; returns (exit code, wall s, peak RSS MB)."""
        # the child inherits the affinity of this (the main) thread
        os.sched_setaffinity(0, {cpu})
        with open(self.work / f"{name}.log", "wb") as logfile:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.work, env=self.env, stdout=logfile,
                stderr=subprocess.STDOUT,
            )
            timer = threading.Timer(max(self.deadline - time.monotonic(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        rss_mb = usage.ru_maxrss / 1024.0
        if proc.returncode != 0:
            tail = (self.work / f"{name}.log").read_text(errors="replace")[-2000:]
            log(f"{name}: exit code {proc.returncode}\n{tail}")
        return proc.returncode, wall, rss_mb

    def command(self, op: Op, out: Path, spans: Path | None = None):
        head = [sys.executable, "-m", "flower_lab"]
        if spans is not None:
            head = [sys.executable, str(BENCH / "tracer.py"), str(spans)]
        return head + [
            op.kind, "--config", str(op.config), "--seed", str(op.seed),
            "--out", str(out), "--quiet",
        ]

    def attempt(self, op: Op, name: str, argv, cpu=CPUS[0]):
        """One operation: returns its wall time, or None when it failed."""
        self.attempted += 1
        code, wall, rss_mb = self.run_child(argv, name, cpu)
        if code != 0:
            self.failed += 1
            return None
        self.max_rss_mb = max(self.max_rss_mb, rss_mb)
        return wall

    # -- checks ------------------------------------------------------------
    def fail(self, message):
        log(f"CHECK FAILED: {message}")
        self.failures.append(message)

    def check_output(self, op: Op, out: Path):
        """Reference checks, then the bytes compared with every repeat."""
        product = out / ("flower_samples.csv" if op.kind == "solve" else "checkpoint.flw")
        if not product.is_file():
            self.fail(f"{op.label}: no {product.name} written")
            return
        key = digest(product)
        if self.digests.setdefault(op.label, key) != key:
            self.fail(f"{op.label}: {product.name} differs between repeats")
        if key in self.checked:
            return
        self.checked.add(key)
        if op.kind == "solve":
            problem = self.problems.setdefault(op.config, reference.read_problem(op.config))
            index = [o.label for o in self.ops].index(op.label)
            figures, failures = reference.check_solve(
                problem, reference.read_samples(product), [self.seed, index]
            )
            log(f"{op.label}: {figures}")
        else:
            failures = reference.check_losses(out / "loss.csv", op.steps)
        for message in failures:
            self.fail(f"{op.label}: {message}")

    # -- rounds ------------------------------------------------------------
    def round(self, r: int, walls: defaultdict):
        """Adds each operation's sample to `walls`, keyed by what it measures."""
        for i, op in enumerate(self.ops):
            # a sample's CPU alternates from round to round and along the round
            cpu = CPUS[(r + i) % len(CPUS)]
            if op.kind == "setup":
                argv = [sys.executable, "-c", SETUP_SNIPPET, str(op.config)]
                wall = self.attempt(op, f"r{r}-{op.label}", argv, cpu)
                if wall is not None:
                    log(f"round {r} {op.label} cpu {cpu}: {wall:.3f} s")
                    walls["setup"].append(wall)
                continue
            out = self.work / f"r{r}-{op.label}"
            wall = self.attempt(op, out.name, self.command(op, out), cpu)
            if wall is None:
                continue
            log(f"round {r} {op.label} cpu {cpu}: {wall:.3f} s")
            if op.kind == "solve":
                walls[f"solve:{op.label}"].append(wall)
            else:
                walls[op.coupling].append(op.steps / wall)
            self.check_output(op, out)
            shutil.rmtree(out)

    def traced_round(self) -> dict:
        """Each operation untraced, then traced; per-layer figures from the spans."""
        spans, checks = [], defaultdict(int)
        untraced_s = traced_s = replay_s = 0.0
        # each distinct operation once
        ops = list({op.label: op for op in self.ops if op.kind != "setup"}.values())
        for op in ops:
            plain, traced = self.work / f"u-{op.label}", self.work / f"t-{op.label}"
            span_file = self.work / f"spans-{op.label}.json"
            wall = self.attempt(op, plain.name, self.command(op, plain))
            if wall is None:
                continue
            self.check_output(op, plain)
            traced_wall = self.attempt(op, traced.name, self.command(op, traced, span_file))
            if traced_wall is None:
                continue
            product = "flower_samples.csv" if op.kind == "solve" else "checkpoint.flw"
            if digest(plain / product) != digest(traced / product):
                self.fail(f"{op.label}: traced run wrote a different {product}")
            doc = json.loads(span_file.read_text())
            for name, value in doc["checks"].items():
                checks[name] += value
            op_replay = sum(e - s for n, s, e, _ in doc["spans"] if n == "bench.replay")
            untraced_s += wall
            traced_s += traced_wall - op_replay
            replay_s += op_replay
            spans.append(doc["spans"])
            shutil.rmtree(plain)
            shutil.rmtree(traced)
        if checks["replay_mismatches"]:
            self.fail("public-step replay differs from run_batch")
        if checks["ot_pair_failures"]:
            self.fail(f"{checks['ot_pair_failures']} OT pairings are not improving permutations")
        if checks["ot_pairs"] != sum(op.steps for op in ops if op.coupling == "minibatch_ot"):
            self.fail(f"{checks['ot_pairs']} OT pairings checked")
        log(
            f"tracing overhead: traced {traced_s:.3f} s - untraced {untraced_s:.3f} s "
            f"= {traced_s - untraced_s:.3f} s (replay {replay_s:.3f} s not included)"
        )
        return layer_metrics(spans, checks)

    def run(self, seconds: float, trace: bool) -> dict:
        self.ops = workload_ops(self.workload, self.seed, self.work)
        # compile and cache the program's bytecode before anything is timed
        code, _, _ = self.run_child([sys.executable, "-c", "import flower_lab.cli"], "warmup")
        if code != 0:
            raise SystemExit("flower_lab does not import")
        if trace:
            return self.traced_round()
        walls = defaultdict(list)
        start = time.monotonic()
        for r in range(max(1, round(seconds / ROUND_S[self.workload]))):
            self.round(r, walls)
            # stop early, still after a whole round, rather than pass the time limit
            if time.monotonic() + (time.monotonic() - start) / (r + 1) > self.deadline:
                break
        log(f"{r + 1} rounds in {time.monotonic() - start:.1f} s")
        solves = list(dict.fromkeys(f"solve:{op.label}" for op in self.ops if op.kind == "solve"))
        # Each timing is the run's slowest sample.  The host's speed changes
        # are mostly speed-ups of 20-30 % that last seconds to minutes, so
        # the slowest sample reads the host's usual speed, where a median
        # follows a speed-up that covers half of the run (see README.md).
        metrics = {}
        for name, unit in END_TO_END.items():
            if name == "solve_s":
                # one solve of each of the workload's configs
                value = (sum(max(walls[s]) for s in solves)
                         if all(walls[s] for s in solves) else None)
            elif name == "peak_rss_mb":
                value = self.max_rss_mb or None
            else:
                key, slowest = {"train_steps_per_s": ("independent", min),
                                "ot_train_steps_per_s": ("minibatch_ot", min),
                                "setup_s": ("setup", max)}[name]
                value = slowest(walls[key]) if walls[key] else None
            if value is None:
                self.fail(f"{name}: no operation it measures succeeded")
            else:
                metrics[name] = {"value": value, "unit": unit}
        return metrics


def layer_metrics(span_sets, checks):
    """Totals per span name, self times, and the per-step trainer split."""
    total = defaultdict(float)
    calls = defaultdict(int)
    self_time = defaultdict(float)
    for spans in span_sets:
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), inner in zip(spans, child):
            total[name] += end - start
            calls[name] += 1
            self_time[name] += end - start - inner
    steps = max(checks["train_steps"], 1)
    # prox solves made by run_batch itself; the replay's solves are not counted
    solves = 0
    for spans in span_sets:
        in_batch = []
        for name, _, _, parent in spans:
            in_batch.append(name == "flower.run_batch" or (parent >= 0 and in_batch[parent]))
            solves += name == "operators.solve_spd" and in_batch[-1]
    values = {
        "flow.field_eval_s": total["flow.field_eval"],
        "flow.field_eval_calls": calls["flow.field_eval"],
        "operators.gram_apply_calls": calls["operators.gram_apply"],
        "operators.gram_apply_s": total["operators.gram_apply"],
        "operators.adjoint_calls": calls["operators.apply_adjoint"],
        "operators.adjoint_s": total["operators.apply_adjoint"],
        "operators.cg_matvecs_per_solve": (
            calls["operators.gram_apply"] / solves if solves else 0.0
        ),
        "flower.run_batch_s": total["flower.run_batch"],
        "flower.self_s": total["flower.run_batch"] - total["flow.field_eval"]
        - sum(total[a] for a in OPERATOR_ACTIONS),
        "flower.refine_mean_s": total["flower.refine_mean"],
        "flower.sample_kappa_s": total["flower.sample_kappa"],
        "flower.time_progress_s": total["flower.time_progress"],
        "gmm.posterior_s": total["gmm.posterior"],
        "metrics.sliced_w2_s": total["metrics.sliced_w2"],
        "cli.samples_csv_s": total["cli.write_samples_csv"],
        "cli.samples_csv_bytes": checks["samples_csv_bytes"],
        "config.load_s": total["config.load_config"],
        "flow.train_sample_ms": 1e3 * total["flow.train_sample"] / steps,
        "flow.coupling_ms": 1e3 * total["flow.coupling"] / steps,
        "mlp.loss_and_grad_ms": 1e3 * total["mlp.loss_and_grad"] / steps,
        "flow.adam_ms": 1e3 * self_time["flow.train_cfm"] / steps,
    }
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    missing = [
        p for p in [SRC / "flower_lab" / "cli.py"] + [CONFIGS / f"{c}.cfg" for c in BUNDLED]
        if not p.is_file()
    ]
    if missing:
        log(f"not a flower-lab checkout, missing: {', '.join(map(str, missing))}")
        return 2

    # a terminated run still stops its child (see Bench.run_child)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + RUN_LIMIT_S
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, work, deadline)
        metrics = bench.run(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
