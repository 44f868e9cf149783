"""The four workloads, their timed rounds, checks and metrics.

Each workload times whole rounds of the same operations until the run's
seconds are spent, the corpora at least MIN_ROUNDS of them.  Every
output of the first round is checked against the oracles; every later
round must reproduce the first round's output exactly.

Every timed operation is scaled by a reference computation timed beside
it (see reference.py), so that the swings of a shared host's speed
cancel.  An operation's time is the median of its scaled times over the
untraced rounds of a run.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import adaptcoord as ac

import inputs
import oracles
import reference
from oracles import CheckFailed, require
from reference import Scaler
from tracer import Tracer

# an operation's time is the median over its rounds, which drops a
# round that a burst on the machine hit
MIN_ROUNDS = 3
# cli-cold's decay metric needs its 3 decay runs from at least 2 rounds
CLI_MIN_ROUNDS = 2
SETUP_REPEATS = 3
# the reference probes take turns, one step after every round and within
# the run's seconds, so their steps sample different stretches of the
# run; steps are added at the end until each probe has PROBE_SAMPLES
# samples.  A step times PROBE_REPEATS[metric] calls.
PROBE_SAMPLES = {"deep_adapt_s": 15, "cli_analyze_ms": 9, "cli_decay_s": 6}
PROBE_REPEATS = {"deep_adapt_s": 5, "cli_analyze_ms": 3, "cli_decay_s": 2}


def trimmed_mean(values: list[float]) -> float:
    """Mean of the values left after dropping the lowest and the highest
    quarter (rounded down)."""
    xs = sorted(values)
    k = len(xs) // 4
    return statistics.fmean(xs[k : len(xs) - k])


# a cold decay run's time, even scaled, scatters by about 10% from one
# process to the next, in clusters, with a stray slow run now and then:
# the median of a few samples jumps between the clusters, the mean
# follows the stray run, the trimmed mean does neither
PROBE_SUMMARY = {
    "deep_adapt_s": statistics.median,
    "cli_analyze_ms": statistics.median,
    "cli_decay_s": trimmed_mean,
}
# the highest of p50, p90, p99 and p99.9 with at least ten operations
# beyond it; the median below forty operations
TAIL_PERCENTILE = {
    "corpus-random": 99.0,  # 1000 inputs
    "corpus-sheared": 99.0,  # 2000 inputs
    "deep-jet": 50.0,  # 4 per round
    "cli-cold": 50.0,  # 15 per round
}
# the reference probes stand in for the metrics that belong to another
# workload (see README)
PROBE_DEEP = "(x2*(1 + x1) - x1^2)^2"
PROBE_ANALYZE = "(x2 - x1^2)^2 + x1^5"
# short in-process operations are scaled in batches of about this much
# raw time, one warm reference per batch
BATCH_S = 0.05


class Deadline(Exception):
    pass


@dataclass
class Run:
    name: str
    seed: int
    seconds: float
    root: Path
    attempted: int = 0
    failed: int = 0
    # per operation of a round: its time in each untraced round
    op_times: dict[int, list[float]] = field(default_factory=dict)
    round_walls: list[float] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    extra: dict[str, float] = field(default_factory=dict)
    probes: list[str] = field(default_factory=list)
    probe_steps: int = 0
    probe_values: dict[str, list[float]] = field(default_factory=dict)
    warm: Scaler = field(default_factory=reference.warm_scaler)
    loop: Scaler = field(default_factory=reference.loop_scaler)
    cold: Scaler = field(init=False)
    pending: list[tuple[int, float]] = field(default_factory=list)
    pending_s: float = 0.0

    def __post_init__(self) -> None:
        self.cold = reference.cold_scaler(self.env(), self.root)

    @property
    def src(self) -> Path:
        return self.root / "src"

    def env(self) -> dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src)
        return env

    def record(self, op: int, seconds: float) -> None:
        """Keep an operation's scaled time."""
        self.op_times.setdefault(op, []).append(seconds)

    def add(self, op: int, raw: float) -> None:
        """Queue a short in-process operation's raw time for scaling."""
        self.pending.append((op, raw))
        self.pending_s += raw
        if self.pending_s >= BATCH_S:
            self.flush()

    def flush(self) -> None:
        if self.pending:
            ops, raw = zip(*self.pending)
            for op, t in zip(ops, self.warm.scale(list(raw))):
                self.record(op, t)
        self.pending, self.pending_s = [], 0.0

    def pooled(self, ops=None) -> list[float]:
        """Untraced times of the given operations (all by default)."""
        keys = sorted(self.op_times) if ops is None else ops
        return [t for op in keys for t in self.op_times[op]]

    def per_op(self) -> list[float]:
        """Each operation's median time over the untraced rounds."""
        return [statistics.median(self.op_times[op]) for op in sorted(self.op_times)]

    def round_sums(self) -> list[float]:
        """Per untraced round, the summed time of its operations."""
        return [sum(r) for r in zip(*self.op_times.values())]

    def temp_dir(self) -> Path:
        base = self.root / ".bench_build"
        base.mkdir(exist_ok=True)
        return Path(tempfile.mkdtemp(prefix="adaptcoord-bench-", dir=base))


def note(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    rank = max(1, -(-len(xs) * p // 100))
    return xs[int(rank) - 1]


def cold_import_s(run: Run) -> float:
    t = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import adaptcoord"],
        env=run.env(), cwd=run.root, check=True,
    )
    return time.perf_counter() - t


def timed_setup(run: Run, build):
    """Median over SETUP_REPEATS of a cold import plus building the
    inputs, each part scaled by its reference; returns (inputs of the
    last repeat, setup_s)."""
    run.warm.prime()
    run.cold.prime()
    times = []
    for _ in range(SETUP_REPEATS):
        t_import = run.cold.scale_one(cold_import_s(run))
        t = time.perf_counter()
        built = build()
        times.append(t_import + run.warm.scale_one(time.perf_counter() - t))
    return built, statistics.median(times)


def settle() -> None:
    """Collect, then freeze what survives: the benchmark's inputs and
    expected outputs stay out of every later collection, so the size of
    its own data does not change the program's collection pauses."""
    gc.collect()
    gc.freeze()


def rounds(run: Run, do_round, tracer: Tracer | None, min_rounds: int) -> None:
    """Run whole rounds until the seconds are spent.  A traced run
    alternates untraced and traced rounds; only the traced ones record
    spans.  do_round(i, traced) returns the round's operation time."""
    deadline = time.perf_counter() + run.seconds
    i = 0
    while i < min_rounds or time.perf_counter() < deadline or (
        tracer is not None and not run.traced_walls
    ):
        traced = tracer is not None and i % 2 == 1
        settle()
        if traced:
            tracer.paused = False
        wall = do_round(i, traced)
        if tracer is not None:
            tracer.paused = True
        (run.traced_walls if traced else run.round_walls).append(wall)
        if run.probes:
            settle()
            probe_step(run, run.probes[run.probe_steps % len(run.probes)])
        i += 1


# --- corpus-random -----------------------------------------------------------


def corpus_random(run: Run, tracer: Tracer | None) -> dict[str, float]:
    polys, setup_s = timed_setup(run, lambda: inputs.corpus_random(run.seed))
    brute = [oracles.brute_distance(f.support) for f in polys]
    first: list[tuple[str, str]] = []

    def one(f):
        rep = ac.build_report(f)
        text = rep.to_json()
        second = None
        if rep.adapted_poly is not None and (rep.jet or rep.adapt_axis_swapped):
            second = ac.parse(rep.adapted_poly)
        return rep, text, ac.render_svg(f, second)

    def do_round(i: int, traced: bool) -> float:
        wall = 0.0
        for n, f in enumerate(polys):
            t = time.perf_counter()
            rep, text, svg = one(f)
            dt = time.perf_counter() - t
            wall += dt
            run.attempted += 1
            if not traced:
                run.add(n, dt)
            if i == 0:
                where = f"corpus-random[{n}] {f}"
                oracles.check_report_geometry(rep, brute[n], where)
                require(
                    ac.distance(ac.newton_polyhedron(f)) == brute[n],
                    f"{where}: distance() disagrees with the brute force",
                )
                oracles.check_round_trip(rep, text, ac.report_from_dict, where)
                oracles.check_svg(svg, where)
                first.append((text, svg))
            else:
                require((text, svg) == first[n], f"corpus-random[{n}]: output changed")
        run.flush()
        return wall

    rounds(run, do_round, tracer, MIN_ROUNDS)
    run.extra["nonadapted_inputs"] = sum(
        not json.loads(t)["adapted_input"] for t, _ in first
    )
    return {"setup_s": setup_s}


# --- corpus-sheared ----------------------------------------------------------


def corpus_sheared(run: Run, tracer: Tracer | None) -> dict[str, float]:
    (triples, left_out), setup_s = timed_setup(
        run, lambda: inputs.sheared_workload(run.seed)
    )
    cap = inputs.SHEARED_MAX_STEPS
    brute = []
    base_heights = []
    for n, (f, shears, g) in enumerate(triples):
        ref = f.terms()
        for s in shears:
            ref = oracles.reference_shear(
                ref, s.axis is ac.ShearAxis.X2, s.coefficient, s.exponent
            )
        require(ref == g.terms(), f"corpus-sheared[{n}]: apply_shear != reference shear")
        brute.append(oracles.brute_distance(g.support))
        base_heights.append(ac.adapt(f, max_steps=cap).height)
    first: list = []

    def do_round(i: int, traced: bool) -> float:
        wall = 0.0
        for n, (f, shears, g) in enumerate(triples):
            t = time.perf_counter()
            rep = ac.build_report(g, max_steps=cap)
            dt = time.perf_counter() - t
            wall += dt
            run.attempted += 1
            if not traced:
                run.add(n, dt)
            if i == 0:
                where = f"corpus-sheared[{n}] {f} under {shears}"
                oracles.check_report_geometry(rep, brute[n], where)
                require(
                    ac.distance(ac.newton_polyhedron(g)) == brute[n],
                    f"{where}: distance() disagrees with the brute force",
                )
                require(
                    rep.height == base_heights[n],
                    f"{where}: height {rep.height} != base height {base_heights[n]}",
                )
                oracles.check_round_trip(rep, rep.to_json(), ac.report_from_dict, where)
                first.append(rep)
            else:
                require(rep == first[n], f"corpus-sheared[{n}]: output changed")
        run.flush()
        return wall

    rounds(run, do_round, tracer, MIN_ROUNDS)
    run.extra["left_out"] = left_out
    run.extra["nonadapted_inputs"] = sum(not r.adapted_input for r in first)
    run.extra["x1_shears"] = sum(
        s.axis is ac.ShearAxis.X1 for _, shears, _ in triples for s in shears
    )
    return {"setup_s": setup_s}


# --- deep-jet ----------------------------------------------------------------


def _alarm(signum, frame):
    raise Deadline()


def run_deadline(fn, seconds: float):
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def check_deep(name: str, res, cap: int, want: Fraction) -> None:
    require(res.height == want, f"{name}: height {res.height} != {want}")
    if name.startswith("jet-"):
        require(
            res.status is ac.AdaptStatus.NONTERMINATING_CERTIFIED,
            f"{name}: status {res.status}",
        )
        oracles.check_deep_jet(name, res, cap)


def deep_jet(run: Run, tracer: Tracer | None) -> dict[str, float]:
    def build():
        cases = []
        for name, expr, shears, cap, want, ref in inputs.rotated(inputs.DEEP_CASES, run.seed):
            f = ac.parse(expr)
            for s in shears:
                f = ac.apply_shear(f, s)
            cases.append((name, f, cap, want, run.loop if ref == "loop" else run.warm))
        return cases, ac.parse(inputs.DEEP_FAILING[1])

    (cases, failing), setup_s = timed_setup(run, build)

    def do_round(i: int, traced: bool) -> float:
        wall = 0.0
        for n, (name, f, cap, want, scaler) in enumerate(cases):
            scaler.prime()
            t = time.perf_counter()
            res = ac.adapt(f, max_steps=cap)
            dt = time.perf_counter() - t
            wall += dt
            run.attempted += 1
            if not traced:
                run.record(n, scaler.scale_one(dt))
            check_deep(name, res, cap, want)
        # the failing case runs last, untraced and outside every metric
        if tracer is not None:
            tracer.paused = True
        run.attempted += 1
        try:
            res = run_deadline(lambda: ac.adapt(failing), inputs.DEEP_DEADLINE_S)
            require(res.height == 1, f"{inputs.DEEP_FAILING[0]}: height {res.height}")
        except Deadline:
            run.failed += 1
        finally:
            if tracer is not None:
                tracer.paused = not traced
        return wall

    rounds(run, do_round, tracer, 1)
    return {"setup_s": setup_s, "deep_adapt_s": statistics.median(run.round_sums())}


# --- cli-cold ----------------------------------------------------------------


def cli_argvs(run: Run, svg_dir: Path) -> list[tuple[str, list[str], Fraction]]:
    ops = []
    for k, (expr, h) in enumerate(inputs.CLI_CASES):
        for form in inputs.CLI_FORMS:
            argv = ["analyze", expr]
            if form == "json":
                argv.append("--json")
            elif form == "svg":
                argv += ["--svg", str(svg_dir / f"case{k}.svg")]
            ops.append((form, argv, h))
    ops = inputs.rotated(tuple(ops), run.seed)
    # DECAY_PER_ROUND decay runs, spread evenly over the round
    decay = ("decay", ["decay", inputs.DECAY_EXPR, *inputs.DECAY_ARGS], inputs.DECAY_HEIGHT)
    step = len(ops) // inputs.DECAY_PER_ROUND
    for k in reversed(range(inputs.DECAY_PER_ROUND)):
        ops.insert((k + 1) * step, decay)
    return ops


def check_cli(form: str, argv: list[str], out: str, h: Fraction) -> None:
    where = " ".join(argv)
    if form == "decay":
        oracles.check_decay(out, h)
        return
    if form == "json":
        got = Fraction(json.loads(out)["height"])
    else:
        got = Fraction(oracles.text_field(out, "height"))
    require(got == h, f"{where}: height {got} != {h}")
    if form == "svg":
        oracles.check_svg(Path(argv[-1]).read_text(encoding="utf-8"), where)


def cold_cli(run: Run, argv: list[str]) -> tuple[float, str]:
    t = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "adaptcoord", *argv],
        env=run.env(), cwd=run.root, capture_output=True, text=True,
    )
    dt = time.perf_counter() - t
    if proc.returncode != 0:
        raise CheckFailed(f"adaptcoord {' '.join(argv)}: exit {proc.returncode}: {proc.stderr}")
    return dt, proc.stdout


def inproc_cli(argv: list[str]) -> tuple[float, str]:
    buf = io.StringIO()
    t = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = sys.modules["adaptcoord.cli"].main(argv)
    dt = time.perf_counter() - t
    require(code == 0, f"adaptcoord {' '.join(argv)}: exit {code}")
    return dt, buf.getvalue()


_IMPORTTIME = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)")


def import_times_ms(run: Run) -> dict[str, float]:
    """Cumulative import times of adaptcoord and numpy, from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import adaptcoord"],
        env=run.env(), cwd=run.root, capture_output=True, text=True, check=True,
    )
    got = {}
    for line in proc.stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m and m.group(2) in ("adaptcoord", "numpy"):
            got[m.group(2)] = int(m.group(1)) / 1000.0
    return got


def cli_cold(run: Run, tracer: Tracer | None) -> dict[str, float]:
    svg_dir = run.temp_dir()
    try:
        ops, setup_s = timed_setup(run, lambda: cli_argvs(run, svg_dir))
        imports: list[dict[str, float]] = []

        # a traced run calls cli.main in process, in its untraced rounds
        # too, so the overhead compares like with like
        in_process = tracer is not None

        def do_round(i: int, traced: bool) -> float:
            wall = 0.0
            for n, (form, argv, h) in enumerate(ops):
                dt, out = inproc_cli(argv) if in_process else cold_cli(run, argv)
                wall += dt
                run.attempted += 1
                if not traced:
                    run.record(n, (run.warm if in_process else run.cold).scale_one(dt))
                check_cli(form, argv, out, h)
            if traced:
                imports.append(import_times_ms(run))
            return wall

        rounds(run, do_round, tracer, CLI_MIN_ROUNDS)
        if imports:
            run.extra["cli.import_ms"] = statistics.median(d["adaptcoord"] for d in imports)
            run.extra["cli.numpy_import_ms"] = statistics.median(d["numpy"] for d in imports)
        decays = [n for n, (form, _, _) in enumerate(ops) if form == "decay"]
        analyzes = [n for n in range(len(ops)) if n not in decays]
        return {
            "setup_s": setup_s,
            "cli_analyze_ms": statistics.median(run.pooled(analyzes)) * 1000.0,
            "cli_decay_s": trimmed_mean(run.pooled(decays)),
        }
    finally:
        shutil.rmtree(svg_dir, ignore_errors=True)


WORKLOADS = {
    "corpus-random": corpus_random,
    "corpus-sheared": corpus_sheared,
    "deep-jet": deep_jet,
    "cli-cold": cli_cold,
}


# --- reference probes ----------------------------------------------------------


def probe_deep(run: Run) -> float:
    f = ac.parse(PROBE_DEEP)
    t = time.perf_counter()
    res = ac.adapt(f)
    dt = time.perf_counter() - t
    check_deep("jet-1+x1", res, ac.DEFAULT_MAX_STEPS, Fraction(2))
    return dt


def probe_analyze(run: Run) -> float:
    dt, out = cold_cli(run, ["analyze", PROBE_ANALYZE])
    check_cli("text", ["analyze", PROBE_ANALYZE], out, Fraction(10, 7))
    return dt * 1000.0


def probe_decay(run: Run) -> float:
    argv = ["decay", inputs.DECAY_EXPR, *inputs.PROBE_DECAY_ARGS]
    dt, out = cold_cli(run, argv)
    check_cli("decay", argv, out, inputs.DECAY_HEIGHT)
    return dt


PROBES = {
    "deep_adapt_s": probe_deep,
    "cli_analyze_ms": probe_analyze,
    "cli_decay_s": probe_decay,
}
OWNED = {"deep-jet": ("deep_adapt_s",), "cli-cold": ("cli_analyze_ms", "cli_decay_s")}


def plan_probes(run: Run) -> None:
    run.probes = [m for m in PROBES if m not in OWNED.get(run.name, ())]


def probe_step(run: Run, metric: str) -> None:
    run.probe_steps += 1
    values = run.probe_values.setdefault(metric, [])
    # the deep probe runs in process, the others in a fresh interpreter;
    # a step starts with a fresh reference of its kind
    scaler = run.warm if metric == "deep_adapt_s" else run.cold
    scaler.prime()
    for _ in range(PROBE_REPEATS[metric]):
        values.append(scaler.scale_one(PROBES[metric](run)))


# --- metrics -------------------------------------------------------------------


def end_to_end(run: Run, own: dict[str, float]) -> dict[str, tuple[float, str]]:
    lat = run.per_op()
    m = {
        "setup_s": (own["setup_s"], "s"),
        "reports_per_s": (len(lat) / sum(lat), "1/s"),
        "report_p50_ms": (percentile(lat, 50.0) * 1000.0, "ms"),
        "report_tail_ms": (percentile(lat, TAIL_PERCENTILE[run.name]) * 1000.0, "ms"),
    }
    settle()
    for metric in run.probes:
        want = PROBE_SAMPLES[metric]
        while len(run.probe_values.get(metric, ())) < want:
            probe_step(run, metric)
    for name, unit in (("deep_adapt_s", "s"), ("cli_analyze_ms", "ms"), ("cli_decay_s", "s")):
        m[name] = (
            own[name] if name in own else PROBE_SUMMARY[name](run.probe_values[name]),
            unit,
        )
    who = resource.RUSAGE_CHILDREN if run.name == "cli-cold" else resource.RUSAGE_SELF
    m["peak_rss_mb"] = (resource.getrusage(who).ru_maxrss / 1024.0, "MB")
    return m


PER_LAYER = (
    # (metric, unit): span counts and self times per traced round
    ("unipoly.split_rational_roots.calls", "count"),
    ("unipoly.split_rational_roots.self_ms", "ms"),
    ("unipoly.split_rational_roots.max_coeff_bits", "bits"),
    ("unipoly.squarefree_decompose.self_ms", "ms"),
    ("unipoly.isolate_real_roots.self_ms", "ms"),
    ("bipoly.apply_shear.calls", "count"),
    ("bipoly.apply_shear.self_ms", "ms"),
    ("bipoly.apply_shear.terms_out", "count"),
    ("bipoly.squarefree_part_x2.self_ms", "ms"),
    ("bipoly.swap_axes.calls", "count"),
    ("newton.build_polyhedron.calls", "count"),
    ("newton.build_polyhedron.self_ms", "ms"),
    ("newton.distance.calls", "count"),
    ("newton.principal_face.calls", "count"),
    ("newton.principal_part.calls", "count"),
    ("report.hull_builds_per_report", "ratio"),
    ("adapt.check_adapted.calls", "count"),
    ("adapt.check_adapted.self_ms", "ms"),
    ("report.check_adapted_per_report", "ratio"),
    ("adapt.adapt.self_ms", "ms"),
    ("adapt.shear_steps", "count"),
    ("adapt.shear_step.calls", "count"),
    ("quasihomog.analyze.calls", "count"),
    ("quasihomog.analyze.self_ms", "ms"),
    ("clusters.top_clusters.calls", "count"),
    ("clusters.top_clusters.self_ms", "ms"),
    ("report.build_report.self_ms", "ms"),
    ("svgdiagram.render_svg.self_ms", "ms"),
    ("parsing.parse.self_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.numpy_import_ms", "ms"),
    ("oscillatory.estimate_integral.calls", "count"),
    ("oscillatory.estimate_integral.self_ms", "ms"),
    ("oscillatory.estimate_integral.cells", "count"),
    ("oscillatory.fit_decay.self_ms", "ms"),
    ("trace.overhead_s", "s"),
    ("bench.warm_ref_ms", "ms"),
    ("bench.cold_ref_ms", "ms"),
)


def per_layer(run: Run, tracer: Tracer) -> dict[str, tuple[float, str]]:
    n = len(run.traced_walls)
    totals = tracer.layer_totals()
    values: dict[str, float] = {}
    for name, row in totals.items():
        values[f"{name}.calls"] = row["calls"] / n
        values[f"{name}.self_ms"] = row["self_ns"] / n / 1e6
    for key, v in tracer.counters.items():
        values[key] = v if key.endswith("max_coeff_bits") else v / n
    reports = totals.get("report.build_report", {}).get("calls", 0)
    for metric, span in (
        ("report.hull_builds_per_report", "newton.build_polyhedron"),
        ("report.check_adapted_per_report", "adapt.check_adapted"),
    ):
        values[metric] = totals[span]["calls"] / reports if reports else 0.0
    values.update({k: v for k, v in run.extra.items() if k.startswith("cli.")})
    # the first round warms up and runs the checks; it is no baseline
    untraced = run.round_walls[1:] or run.round_walls
    values["trace.overhead_s"] = statistics.median(run.traced_walls) - statistics.median(
        untraced
    )
    # raw reference times: how fast the machine ran during this run
    values["bench.warm_ref_ms"] = statistics.median(run.warm.samples) * 1000.0
    values["bench.cold_ref_ms"] = statistics.median(run.cold.samples) * 1000.0
    return {name: (float(values.get(name, 0.0)), unit) for name, unit in PER_LAYER}


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    run = Run(name, seed, seconds, root)
    tracer = None
    if not trace:
        plan_probes(run)
    else:
        tracer = Tracer()
        tracer.install()
        tracer.paused = True
    correct = True
    try:
        own = WORKLOADS[name](run, tracer)
        if tracer is not None:
            tracer.uninstall()
            metrics = per_layer(run, tracer)
            tracer.write(root / ".bench_build" / "traces" / f"{name}-seed{seed}.tsv")
        else:
            metrics = end_to_end(run, own)
    except CheckFailed as e:
        note(f"check failed: {e}")
        correct = False
        metrics = {}
    finally:
        if tracer is not None:
            tracer.uninstall()
    for key, v in sorted(run.extra.items()):
        note(f"{name}: {key} = {v}")
    return {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
