#!/usr/bin/env python3
"""Repository benchmark of the RowPress reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload acmin-cold --seed 1 --seconds 30 --trace 0

It builds the released `rowpress-campaign` binary and the in-process probe
(`perfbench/probe`) from source, prepares the workload's inputs from the
seed, then runs operations (ops) back to back for about `--seconds` seconds
and checks every op's output. An op is one `rowpress-campaign run`.

With `--trace 0` it reports the end-to-end metrics of BENCHMARK.json; with
`--trace 1` it runs traced ops plus the probe's in-process passes and
reports the per-layer metrics (on quick-warm, also one timed pass over the
30 fig/table target binaries, which it then builds too). The last line of
standard output is the result object; the line before it records the host,
the source tree and the sample count behind every metric. See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
PROBE_MANIFEST = os.path.join(BENCH_DIR, "probe", "Cargo.toml")
DIGESTS_FILE = os.path.join(BENCH_DIR, "figure_digests.json")

WORKLOADS = ("acmin-cold", "sweep-warm", "quick-warm")

# The workload whose traced pass also times the fig/table targets and the
# engine-free studies (no timed workload runs them; see README.md).
FIGURES_TRACED_ON = "quick-warm"

# Set-ups per run; setup_s is their median.
SETUP_REPEATS = 5

# The golden quick-ACmin stream (tests/golden.rs): checksum and length.
GOLDEN_CHECKSUM = 0xAFD9_38D1_B694_2477
GOLDEN_BYTES = 52_397

# acmin-cold menus: (menu, picks). Within a menu, a module's paper-scale
# ACmin trials at these tAggON points cost the same single-threaded CPU time
# to within ~3%, so the seed changes the module set but not the work.
ACMIN_MODULES = [
    (["H0", "H2", "H5", "S0", "S1", "S7"], 3),
    (["S3", "S4", "S5"], 1),
    (["M1", "M2"], 1),
    (["M4", "M5"], 1),
]
ACMIN_ROWS = 16
# Fixed, not drawn per seed: a trial's cost depends on the point, and drawing
# 5 of these 10 moved the op's CPU time by up to 12% between seeds.
ACMIN_T_AGGON_NS = [36.0, 96.0, 186.0, 336.0, 636.0, 1536.0, 7800.0, 70200.0, 1e6, 3e7]

# sweep-warm menus: (menu, picks). The dies whose ac_max and retention
# records carry the most bitflips; within a menu a module's records total
# the same bytes to within ~2% (~0.30 MB and ~0.33 MB), so every op replays
# and merges a stream of one size.
SWEEP_MODULES = [
    (["M4", "S3", "S4"], 2),
    (["M5", "M6", "S5"], 2),
]
SWEEP_ROWS = 2

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("trials_per_s", "1/s"),
]

LAYER_METRICS = [
    ("dram.profile_store_hit_rate", "ratio"),
    ("dram.word_skip_rate", "ratio"),
    ("dram.profile_store_entries", "count"),
    ("kernel.trial_us_p50", "us"),
    ("kernel.trial_us_p90", "us"),
    ("engine.busy_s", "s"),
    ("engine.idle_s", "s"),
    ("engine.queue_peak", "count"),
    ("engine.cache_hits", "count"),
    ("engine.cache_misses", "count"),
    ("cache.preload_s", "s"),
    ("cache.preload_mb_per_s", "MB/s"),
    ("cache.preload_lines_per_s", "1/s"),
    ("cache.flush_s", "s"),
    ("cache.bytes_written", "bytes"),
    ("merge.parse_s", "s"),
    ("merge.interleave_s", "s"),
    ("merge.write_s", "s"),
    ("merge.mb", "MB"),
    ("campaign.spec_parse_ms", "ms"),
    ("campaign.plan_ms", "ms"),
    ("campaign.shard_s", "s"),
    ("transport.first_frame_ms", "ms"),
    ("transport.done_to_exit_ms", "ms"),
    ("transport.frames_per_record", "ratio"),
    ("attack.run_attack_ms_p50", "ms"),
    ("attack.total_s", "s"),
    ("memctrl.total_s", "s"),
    ("mitigations.total_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.unaccounted_s", "s"),
]

FRAME_MARKER = "##rowpress-shard "


class BenchError(Exception):
    """A set-up or build step failed; the run prints no result."""


def load_digests():
    with open(DIGESTS_FILE, encoding="utf-8") as f:
        return json.load(f)


def per_layer_metrics():
    """Every per-layer metric name and unit, figure targets included."""
    figures = [(f"figure.{target}_s", "s") for target in sorted(load_digests())]
    return LAYER_METRICS + figures


# ----------------------------------------------------------------- inputs


def draw_modules(rng, menus):
    modules = []
    for menu, picks in menus:
        modules += rng.sample(menu, picks)
    return sorted(modules)


def acmin_spec(seed):
    modules = draw_modules(random.Random(f"acmin-cold/{seed}"), ACMIN_MODULES)
    return "\n".join(
        [
            'name = "acmin-cold"',
            "[config]",
            'preset = "paper"',
            f"rows_per_module = {ACMIN_ROWS}",
            "[grid]",
            "modules = [" + ", ".join(f'"{m}"' for m in modules) + "]",
            "[[measurement]]",
            'kind = "ac_min"',
            "t_aggon_ns = [" + ", ".join(repr(t) for t in ACMIN_T_AGGON_NS) + "]",
            "[orchestration]",
            "shards = 2",
            "",
        ]
    )


def sweep_spec(seed):
    modules = draw_modules(random.Random(f"sweep-warm/{seed}"), SWEEP_MODULES)
    return "\n".join(
        [
            'name = "sweep-warm"',
            "[config]",
            'preset = "quick"',
            f"rows_per_module = {SWEEP_ROWS}",
            "[grid]",
            "modules = [" + ", ".join(f'"{m}"' for m in modules) + "]",
            "temperatures = [50.0, 80.0]",
            "[[measurement]]",
            'kind = "ac_min"',
            "t_aggon_ns = [36.0, 7800.0, 30000000.0]",
            "[[measurement]]",
            'kind = "ac_max"',
            "t_aggon_ns = [36.0, 7800.0, 30000000.0]",
            "[[measurement]]",
            'kind = "t_aggon_min"',
            "ac = [1, 10, 100]",
            "[[measurement]]",
            'kind = "retention"',
            "duration_ms = [64.0, 1000.0, 4000.0]",
            "[orchestration]",
            "shards = 2",
            "",
        ]
    )


def quick_spec(root):
    with open(os.path.join(root, "examples", "quick_acmin.toml"), encoding="utf-8") as f:
        return f.read()


def spec_modules(spec_text):
    """The module list of a generated spec's `modules = [...]` line."""
    for line in spec_text.splitlines():
        if line.startswith("modules = "):
            return [m.strip().strip('"') for m in line[len("modules = [") : -1].split(",")]
    return []


def make_spec(workload, seed, root):
    if workload == "acmin-cold":
        return acmin_spec(seed)
    if workload == "sweep-warm":
        return sweep_spec(seed)
    return quick_spec(root)


# ----------------------------------------------------------------- checks


def splitmix64(x):
    mask = (1 << 64) - 1
    x = (x + 0x9E37_79B9_7F4A_7C15) & mask
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58_476D_1CE4_E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D0_49BB_1331_11EB) & mask
    return z ^ (z >> 31)


def golden_checksum(data):
    """The order-dependent stream checksum of tests/golden.rs."""
    mask = (1 << 64) - 1
    acc = 0x51_7C_C1_B7_27_22_0A_95
    padded = data + b"\0" * (-len(data) % 8)
    words = [int.from_bytes(padded[i : i + 8], "little") for i in range(0, len(padded), 8)]
    for word in words + [len(data)]:
        acc = splitmix64(acc ^ ((word * 0x9E37_79B9_7F4A_7C15) & mask))
    return splitmix64(acc)


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def campaign_output_ok(code, merged_path, reference_digest, golden=False):
    """An op succeeds when it exits 0 and its merged stream equals the
    single-process reference (and, for the golden grid, the pinned stream)."""
    if code != 0 or not os.path.isfile(merged_path):
        return False
    if file_digest(merged_path) != reference_digest:
        return False
    if golden:
        with open(merged_path, "rb") as f:
            data = f.read()
        return len(data) == GOLDEN_BYTES and golden_checksum(data) == GOLDEN_CHECKSUM
    return True


# ---------------------------------------------------------------- running


class Sample:
    """One process (or one op of several processes): exit code, wall time,
    user+sys CPU summed over the process tree, and the largest resident set
    of any process in it."""

    def __init__(self, code=0, wall=0.0, cpu=0.0, rss_mb=0.0):
        self.code, self.wall, self.cpu, self.rss_mb = code, wall, cpu, rss_mb


def spawn(argv, cwd, stdout=subprocess.DEVNULL):
    """Runs `argv` to completion. wait4 reports the child's usage together
    with every descendant it reaped (the shard processes), and the largest
    resident set among them."""
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL, stdout=stdout)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def run_checked(argv, cwd, what):
    """Runs a set-up step, returning its standard output; raises on failure."""
    result = subprocess.run(argv, cwd=cwd, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stderr)
        raise BenchError(f"{what} failed with exit code {result.returncode}")
    return result.stdout


def last_json(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise BenchError("a probe pass printed nothing")
    return json.loads(lines[-1])


def cargo(args, root, what):
    result = subprocess.run(
        ["cargo"] + args, cwd=root, stdin=subprocess.DEVNULL, capture_output=True, text=True
    )
    if result.returncode != 0:
        sys.stderr.write(result.stderr)
        raise BenchError(f"cargo build of {what} failed")
    return result.stdout


class Tools:
    """Builds the binaries the workloads run, into CARGO_TARGET_DIR
    (default `.bench_build` under the checkout)."""

    def __init__(self, root):
        self.root = root
        self.target_dir = os.path.abspath(
            os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        )
        os.environ["CARGO_TARGET_DIR"] = self.target_dir
        self.release = os.path.join(self.target_dir, "release")

    def build_probe(self):
        cargo(["build", "--release", "--offline", "--manifest-path", PROBE_MANIFEST], self.root, "the probe")
        self.probe = os.path.join(self.release, "perfbench-probe")

    def build_campaign(self):
        cargo(["build", "--release", "--offline", "-p", "rowpress-cli"], self.root, "rowpress-campaign")
        self.campaign = os.path.join(self.release, "rowpress-campaign")

    def build_figures(self):
        out = cargo(
            ["bench", "--no-run", "--offline", "-p", "rowpress-bench", "--message-format=json"],
            self.root,
            "the fig/table targets",
        )
        self.figures = {}
        for line in out.splitlines():
            try:
                msg = json.loads(line)
            except ValueError:
                continue
            if msg.get("reason") != "compiler-artifact" or not msg.get("executable"):
                continue
            name = msg["target"]["name"]
            if name.startswith(("fig", "table")):
                self.figures[name] = msg["executable"]


# -------------------------------------------------------------- workloads


class CampaignWorkload:
    """acmin-cold, sweep-warm and quick-warm: `rowpress-campaign run` ops."""

    def __init__(self, name, seed, root, tools, work):
        self.name, self.seed, self.root, self.tools, self.work = name, seed, root, tools, work
        self.cold = name == "acmin-cold"
        self.golden = name == "quick-warm"

    def setup(self, index):
        """Writes the spec, computes the single-process reference stream
        and, for warm workloads, populates the out-dir with one cold run."""
        base = os.path.join(self.work, f"setup-{index}")
        os.makedirs(base)
        self.spec = os.path.join(base, "spec.toml")
        with open(self.spec, "w", encoding="utf-8") as f:
            f.write(make_spec(self.name, self.seed, self.root))
        reference = os.path.join(base, "reference.jsonl")
        probe = last_json(run_checked([self.tools.probe, "reference", self.spec, reference], self.root, "reference"))
        self.trials = int(probe["trials"])
        self.reference_digest = file_digest(reference)
        if self.golden:
            with open(reference, "rb") as f:
                data = f.read()
            if len(data) != GOLDEN_BYTES or golden_checksum(data) != GOLDEN_CHECKSUM:
                raise BenchError("the single-process quick grid no longer matches the golden stream")
        self.out = os.path.join(base, "out")
        if not self.cold:
            sample = self.run_op()
            if not campaign_output_ok(sample.code, self.merged(), self.reference_digest, self.golden):
                raise BenchError("the cold run that populates the out-dir failed its check")

    def merged(self):
        return os.path.join(self.out, "merged.jsonl")

    def run_op(self):
        return spawn([self.tools.campaign, "run", self.spec, "--out-dir", self.out], self.root)

    def op(self):
        if self.cold:
            shutil.rmtree(self.out, ignore_errors=True)
        sample = self.run_op()
        return sample, campaign_output_ok(sample.code, self.merged(), self.reference_digest, self.golden)

    def traced_op(self):
        """One op through the probe's `op` pass; returns its spans, its wall
        time and the protocol frames the transport relayed, or None when it
        failed."""
        if self.cold:
            shutil.rmtree(self.out, ignore_errors=True)
        relay = os.path.join(self.work, "trace-op.log")
        with open(relay, "w", encoding="utf-8") as log:
            sample = spawn([self.tools.probe, "op", self.tools.campaign, self.spec, self.out], self.root, log)
        if not campaign_output_ok(sample.code, self.merged(), self.reference_digest, self.golden):
            return None
        with open(relay, encoding="utf-8") as log:
            text = log.read()
        op = last_json(text)
        op["frames"] = sum(1 for line in text.splitlines() if FRAME_MARKER in line)
        # Timed from outside, as the untraced ops are, so the two compare.
        op["wall_s"] = sample.wall
        op["unaccounted_s"] = sample.wall - op["covered_s"]
        return op

    def trace(self, seconds):
        """Traced ops for `seconds` (medians of their spans), then one
        in-process pass per layer."""
        ops, started = [], time.perf_counter()
        while another_op([o["wall_s"] for o in ops], started, seconds):
            op = self.traced_op()
            if op is None:
                return {}, False, len(ops) + 1
            ops.append(op)
        op = {key: statistics.median(o[key] for o in ops) for key in ops[0]}
        shards = int(op["shards"])

        probe = self.tools.probe
        engine, shard_s = [], []
        for index in range(shards):
            for kind in ("engine", "shard"):
                layer = os.path.join(self.work, f"layer-{kind}-{index}")
                os.makedirs(layer)
                cache = os.path.join(layer, "cache.jsonl")
                source = os.path.join(self.out, f"shard-{index:04}.cache.jsonl")
                if not self.cold:
                    shutil.copyfile(source, cache)
                result = last_json(
                    run_checked(
                        [probe, kind, self.spec, cache, os.path.join(layer, "out.jsonl"), str(index), str(shards)],
                        self.root,
                        f"probe {kind} pass",
                    )
                )
                if kind == "engine":
                    engine.append(result)
                else:
                    shard_s.append(result["shard_s"])

        def total(key):
            return sum(e[key] for e in engine)

        preload_s = total("preload_s")
        metrics = {
            "engine.busy_s": total("busy_s"),
            "engine.idle_s": total("idle_s"),
            "engine.queue_peak": max(e["queue_peak"] for e in engine),
            "engine.cache_hits": total("cache_hits"),
            "engine.cache_misses": total("cache_misses"),
            "cache.preload_s": preload_s,
            "cache.preload_mb_per_s": total("preload_bytes") / 1e6 / preload_s if preload_s else 0.0,
            "cache.preload_lines_per_s": total("preload_lines") / preload_s if preload_s else 0.0,
            "cache.flush_s": total("flush_s"),
            "cache.bytes_written": total("bytes_written"),
            "merge.parse_s": op["parse_s"],
            "merge.interleave_s": op["interleave_s"],
            "merge.write_s": op["write_s"],
            "merge.mb": op["mb"],
            "campaign.spec_parse_ms": op["spec_parse_ms"],
            "campaign.plan_ms": op["plan_ms"],
            "campaign.shard_s": max(shard_s),
            "transport.first_frame_ms": op["first_frame_ms"],
            "transport.done_to_exit_ms": op["done_to_exit_ms"],
            "transport.frames_per_record": op["frames"] / max(1, op["records"]),
            "trace.wall_s": op["wall_s"],
            "trace.unaccounted_s": op["unaccounted_s"],
        }
        # The trial kernel and the device model only work when the op
        # computes trials; a warm op replays every one from the cache.
        if metrics["engine.cache_misses"] > 0:
            kernel = last_json(run_checked([probe, "kernel", self.spec], self.root, "probe kernel pass"))
            metrics.update(
                {
                    "kernel.trial_us_p50": kernel["trial_us_p50"],
                    "kernel.trial_us_p90": kernel["trial_us_p90"],
                    "dram.profile_store_hit_rate": kernel["profile_store_hit_rate"],
                    "dram.profile_store_entries": kernel["profile_store_entries"],
                    "dram.word_skip_rate": kernel["word_skip_rate"],
                }
            )
        return metrics, True, len(ops)


def figures_trace(root, tools, work):
    """One pass over every fig/table target binary, one process each, timed
    per target and checked against its pinned output digest; then the
    probe's studies pass. Returns the metrics and whether every target
    passed its check."""
    digests = load_digests()
    missing = sorted(set(digests) - set(tools.figures))
    if missing:
        raise BenchError(f"fig/table targets not built: {', '.join(missing)}")
    metrics, ok = {}, True
    out = os.path.join(work, "figure.out")
    for target in sorted(digests):
        with open(out, "wb") as f:
            sample = spawn([tools.figures[target], "--bench"], os.path.join(root, "crates", "bench"), f)
        ok = ok and sample.code == 0 and file_digest(out) == digests[target]
        metrics[f"figure.{target}_s"] = sample.wall
    studies = last_json(run_checked([tools.probe, "studies"], root, "probe studies pass"))
    metrics.update(
        {
            "attack.run_attack_ms_p50": studies["attack_run_attack_ms_p50"],
            "attack.total_s": studies["attack_total_s"],
            "memctrl.total_s": studies["memctrl_total_s"],
            "mitigations.total_s": studies["mitigations_total_s"],
        }
    )
    return metrics, ok


# ----------------------------------------------------------------- report


def host_facts(root):
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            models = [line.split(":", 1)[1].strip() for line in f if line.startswith("model name")]
    except OSError:
        models = []
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": models[0] if models else "unknown",
        "commit": commit,
        "source_digest": source_digest(root),
    }


def source_digest(root):
    """sha256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    paths = ["Cargo.toml", "Cargo.lock"]
    for top in ("crates", "src", "vendor"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            paths += [os.path.relpath(os.path.join(dirpath, n), root) for n in sorted(filenames)]
    for rel in paths:
        full = os.path.join(root, rel)
        if os.path.isfile(full):
            h.update(rel.encode() + b"\0" + file_digest(full).encode())
    return h.hexdigest()[:16]


def metric(value, unit):
    return {"value": value, "unit": unit}


def run(args, root):
    tools = Tools(root)
    tools.build_probe()
    tools.build_campaign()
    figures = args.trace and args.workload == FIGURES_TRACED_ON
    if figures:
        tools.build_figures()
    work = os.path.join(root, ".bench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        workload = CampaignWorkload(args.workload, args.seed, root, tools, work)
        facts = {"host": host_facts(root), "workload": args.workload, "seed": args.seed}
        if args.trace:
            return trace_run(workload, facts, args.seconds, figures)
        return timed_run(workload, facts, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


def another_op(walls, started, seconds):
    """Ops run back to back while the next one, at the median op time so
    far, is expected to end within `seconds` of `started`; the first op
    always runs. A run thus measures for about `seconds`, never much more."""
    if not walls:
        return True
    return time.perf_counter() - started + statistics.median(walls) <= seconds


def timed_run(workload, facts, seconds):
    setups = []
    for index in range(SETUP_REPEATS):
        started = time.perf_counter()
        workload.setup(index)
        setups.append(time.perf_counter() - started)
    # One checked but untimed warm-up op.
    _, ok = workload.op()
    failed = 0 if ok else 1
    samples = []
    started = time.perf_counter()
    while another_op([s.wall for s in samples], started, seconds):
        sample, ok = workload.op()
        samples.append(sample)
        failed += 0 if ok else 1
    attempted = len(samples) + 1
    wall = statistics.median(s.wall for s in samples)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(wall, "s"),
        "cpu_s": metric(statistics.median(s.cpu for s in samples), "s"),
        "peak_rss_mb": metric(statistics.median(s.rss_mb for s in samples), "MB"),
        "trials_per_s": metric(workload.trials / wall, "1/s"),
    }
    facts["samples"] = {"setup_s": len(setups), **{name: len(samples) for name, _ in END_TO_END[1:]}}
    facts["error_rate"] = failed / attempted
    facts["op_wall_s"] = [round(s.wall, 4) for s in samples]
    facts["op_cpu_s"] = [round(s.cpu, 4) for s in samples]
    return facts, {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def trace_run(workload, facts, seconds, figures):
    """The traced pass; with `figures`, also one timed pass over the
    fig/table targets and the studies pass. A layer the run does not
    exercise reports 0."""
    workload.setup(0)
    measured, ok, attempted = workload.trace(seconds)
    if ok and figures:
        figure_metrics, ok = figures_trace(workload.root, workload.tools, workload.work)
        measured.update(figure_metrics)
        attempted += 1
    metrics = {name: metric(float(measured.get(name, 0.0)), unit) for name, unit in per_layer_metrics()}
    failed = 0 if ok else 1
    facts["samples"] = {"traced_ops": attempted}
    facts["error_rate"] = failed / attempted
    facts["layers_without_work"] = sorted(name for name in metrics if name not in measured)
    return facts, {"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "Cargo.toml")) and os.path.isdir(os.path.join(root, "crates"))):
        print("run.py: run from the repository root (no Cargo.toml and crates/ here)", file=sys.stderr)
        return 2
    try:
        facts, result = run(args, root)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    print(json.dumps(facts, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
