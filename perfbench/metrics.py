"""Arithmetic of the serving benchmark: raw perfbench_drive and
perfbench_trace output in, named metrics out. Kept free of I/O so
test_metrics.py can pin it."""

import statistics

# Sample layout written by perfbench_drive (see Sample in drive.cpp).
SPEC, SCHED, SEND, RECV, ERROR, FP, SERVER_MS, SIM_MS, ROUND = range(9)
PHASES = ("warm", "ramp", "window", "closed")


def percentile(values, p):
    """Linear interpolation between closest ranks (numpy's default)."""
    v = sorted(values)
    if not v:
        raise ValueError("percentile of no samples")
    rank = p / 100.0 * (len(v) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (rank - lo)


def beyond(values, p):
    """How many samples lie strictly above the p-th percentile."""
    cut = percentile(values, p)
    return sum(1 for x in values if x > cut)


def trimmed_rate(times_ms):
    """Completions per second between the first and the last tenth of the
    completions, so the closed loop's fill and drain do not count."""
    t = sorted(times_ms)
    lo = len(t) // 10
    hi = len(t) - 1 - len(t) // 10
    if hi <= lo or t[hi] <= t[lo]:
        raise ValueError("too few completions for a trimmed window")
    return (hi - lo) / ((t[hi] - t[lo]) / 1000.0)


def cpu_steal_total(line):
    """(steal, total) jiffies from the aggregate `cpu` line of /proc/stat.
    Total is user..steal; guest time is already inside user."""
    fields = line.split()
    if not fields or fields[0] != "cpu":
        raise ValueError("not an aggregate /proc/stat cpu line: %r" % line)
    ticks = [int(x) for x in fields[1:9]]
    return ticks[7], sum(ticks)


def steal_pct(readings):
    """Share of host CPU time stolen over [before, after] /proc/stat pairs,
    the stretches of one phase taken together."""
    steal = total = 0
    for before, after in readings:
        s0, t0 = cpu_steal_total(before)
        s1, t1 = cpu_steal_total(after)
        steal += s1 - s0
        total += t1 - t0
    return 100.0 * steal / total if total > 0 else 0.0


def process_cpu_ticks(stat_line):
    """utime + stime of /proc/<pid>/stat (all threads of the process)."""
    rest = stat_line[stat_line.rindex(")") + 2:].split()
    return int(rest[11]) + int(rest[12])  # fields 14 and 15


def parse_stats(text):
    """The wire STATS_REPLY `key=value ...` line as floats."""
    out = {}
    for tok in text.split():
        key, _, value = tok.partition("=")
        out[key] = float(value)
    return out


def outcome(sample, refs):
    """ok | error | mismatch | unanswered for one perfbench_drive sample."""
    if sample[ERROR] < 0:
        return "unanswered"
    if sample[ERROR] > 0:
        return "error"
    return "ok" if sample[FP] == refs[sample[SPEC]]["fp"] else "mismatch"


def failures(raw):
    """(failed, attempted, mismatches) over every phase: ERROR frames,
    fingerprint mismatches and requests never answered all fail."""
    failed = attempted = mismatches = 0
    for phase in PHASES:
        for s in raw[phase]:
            attempted += 1
            o = outcome(s, raw["refs"])
            failed += o != "ok"
            mismatches += o == "mismatch"
    return failed, attempted, mismatches


def references_ok(raw, tolerance=1e-4):
    return all(r["max_abs_diff"] < tolerance for r in raw["refs"])


def kept(raw):
    """Attempt ids whose samples count: one per round, the calmest."""
    return [i for i, (_, _, keep) in enumerate(raw["attempts"]) if keep]


def by_round(samples, attempts):
    """Samples grouped by attempt, for the kept attempts only."""
    rounds = {a: [] for a in attempts}
    for s in samples:
        if s[ROUND] in rounds:
            rounds[s[ROUND]].append(s)
    return [rounds[a] for a in attempts]


def completed(samples):
    return [s for s in samples if s[ERROR] == 0]


def kept_window(raw):
    return [s for part in by_round(completed(raw["window"]), kept(raw)) for s in part]


def end_to_end(raw):
    """The user-facing metrics over the kept rounds. Latency p50 and p95,
    throughput and CPU per request are medians over rounds; a round of at
    least 200 requests has ten samples beyond its p95. p99 pools the
    rounds, since one round is too short to give it ten samples beyond.
    Failures count over every phase and every attempt."""
    rounds = by_round(completed(raw["window"]), kept(raw))
    latency = [[s[RECV] - s[SCHED] for s in part] for part in rounds]
    cpu_ms = []
    for part, a in zip(rounds, kept(raw)):
        before, after = raw["server_cpu"][a]
        ticks = process_cpu_ticks(after) - process_cpu_ticks(before)
        cpu_ms.append(ticks * 1000.0 / raw["clk_tck"] / len(part))
    failed, attempted, _ = failures(raw)
    return {
        "latency_p50_ms": statistics.median(percentile(v, 50) for v in latency),
        "latency_p95_ms": statistics.median(percentile(v, 95) for v in latency),
        "latency_p99_ms": percentile([x for v in latency for x in v], 99),
        "throughput_rps": statistics.median(
            trimmed_rate([s[RECV] for s in part])
            for part in by_round(completed(raw["closed"]), kept(raw))),
        "cpu_ms_per_req": statistics.median(cpu_ms),
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": int(raw["vm_hwm"].split()[0]) / 1024.0,  # VmHWM is in kB
        "sim_latency_ms": statistics.fmean(s[SIM_MS] for part in rounds for s in part),
        "error_rate": failed / attempted,
    }


def _stats_delta(raw):
    before, after = parse_stats(raw["stats_before"]), parse_stats(raw["stats_after"])
    return {k: after[k] - before.get(k, 0.0) for k in after}, after


def server_layers(raw, e2e):
    """Per-layer metrics the untraced server run gives: the client-side
    split of latency, STATS changes over the timed rounds, host steal."""
    window = kept_window(raw)
    overhead = [s[RECV] - s[SEND] - s[SERVER_MS] for s in window]
    late = [s[SEND] - s[SCHED] for s in window]
    server = [s[SERVER_MS] for s in window]
    delta, after = _stats_delta(raw)
    batches = delta["batches_formed"]
    requests = delta["batched_requests"]
    out = {
        "net.overhead_p50_ms": percentile(overhead, 50),
        "net.overhead_p99_ms": percentile(overhead, 99),
        "gen.late_p99_ms": percentile(late, 99),
        "service.server_ms_p50": percentile(server, 50),
        "service.server_ms_p99": percentile(server, 99),
        "cache.compile_misses": delta["cache_misses"],
        "batch.occupancy": requests / batches if batches else 0.0,
        "batch.fused_kernels_per_req": delta["fused_kernels"] / requests if requests else 0.0,
        "pool.bytes_mb": after["pool_bytes"] / 2**20,
        "pool.shared_refs": after["pool_shared_refs"],
        "budget.high_water_mb": after["budget_high_water"] / 2**20,
        "host.load_share": raw["rate"] * raw["unit_size"] / e2e["throughput_rps"],
    }
    for phase in PHASES:
        out["host.steal_pct_" + phase] = steal_pct(raw["steal"][phase])
    return out


def run_record(raw, e2e):
    """What each run records beside its metrics."""
    window = kept_window(raw)
    late = [s[SEND] - s[SCHED] for s in window]
    delta, _ = _stats_delta(raw)
    record = dict(raw["record"])
    record.update({
        "workload": raw["workload"],
        "seed": raw["seed"],
        "steal_pct": {p: round(steal_pct(raw["steal"][p]), 3) for p in PHASES},
        "late_p50_ms": round(percentile(late, 50), 3),
        "late_p99_ms": round(percentile(late, 99), 3),
        "load_share": round(raw["rate"] * raw["unit_size"] / e2e["throughput_rps"], 4),
        "window_completions": len(window),
        "window_beyond_p99": beyond([s[RECV] - s[SCHED] for s in window], 99),
        "round_beyond_p95_min": min(
            beyond([s[RECV] - s[SCHED] for s in part], 95)
            for part in by_round(completed(raw["window"]), kept(raw))),
        "window_compile_misses": delta["cache_misses"],
        "setup_s_each": raw["setup_s"],
        "round_attempts": len(raw["attempts"]),
        "round_steal_pct": [round(a[1], 2) for a in raw["attempts"]],
    })
    return record


# Span layout written by perfbench_trace.
NAME, START, END, PARENT, REQUEST, PASS = range(6)
LAYERS = ("net", "service", "compiler", "runtime")


def self_times(spans):
    """Each span's duration minus the time its child spans cover. The
    replay is single-threaded, so a span's children never overlap."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - covered[i] for i, s in enumerate(spans)]


def layer_of(name):
    """`net.decode` -> net; the replay's own request/sweep spans -> None."""
    head, dot, _ = name.partition(".")
    return head if dot else None


def _mean(values, default=0.0):
    values = list(values)
    return statistics.fmean(values) if values else default


def _pct(values, p):
    return percentile(values, p) if values else 0.0


def trace_layers(summary, spans):
    """Per-layer metrics of the traced replay: self time and calls per
    request for each layer over the timed pass, per-call timings, per
    content costs of the first appearance, and the report counts."""
    n = summary["requests"]
    own = self_times(spans)
    self_ms = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    durations = {}
    timed = 0
    for i, s in enumerate(spans):
        if s[PASS] != 1:
            continue
        timed += 1
        durations.setdefault(s[NAME], []).append(s[END] - s[START])
        layer = layer_of(s[NAME])
        if layer:
            self_ms[layer] += own[i]
            calls[layer] += 1
    contents = summary["contents"]
    per = summary["per_request"]
    lookups = summary["memo_hits"] + summary["memo_misses"]
    out = {
        "net.materialize_ms": _mean(c["materialize_ms"] for c in contents),
        "net.codec_ms": (sum(durations.get("net.decode", [])) +
                         sum(durations.get("net.encode", []))) / n,
        "net.report_copy_ms": _mean(durations.get("net.report_copy", [])),
        "net.fingerprint_ms": _mean(durations.get("net.fingerprint", [])),
        "cache.result_hit_ratio": summary["memo_hits"] / lookups if lookups else 0.0,
        "sig.compile_key_p50_ms": _pct(durations.get("compiler.compile_key", []), 50),
        "sig.compile_key_p99_ms": _pct(durations.get("compiler.compile_key", []), 99),
        "sig.model_ms": _mean(c["model_sig_ms"] for c in contents),
        "sig.dataset_ms": _mean(c["dataset_sig_ms"] for c in contents),
        "compile.total_ms": _mean(c["ir_ms"] + c["partition_ms"] + c["sparsity_ms"]
                                  for c in contents),
        "compile.ir_ms": _mean(c["ir_ms"] for c in contents),
        "compile.partition_ms": _mean(c["partition_ms"] for c in contents),
        "compile.sparsity_ms": _mean(c["sparsity_ms"] for c in contents),
        "plan.seeded": summary["plan_seeded"],
        "runtime.execute_p50_ms": _pct(durations.get("runtime.execute", []), 50),
        "runtime.execute_p99_ms": _pct(durations.get("runtime.execute", []), 99),
        "runtime.execute_batch_ms": _mean(durations.get("runtime.execute_batch", [])),
        "runtime.tasks": per["tasks"],
        "runtime.pairs_gemm": per["pairs_gemm"],
        "runtime.pairs_spdmm": per["pairs_spdmm"],
        "runtime.pairs_spmm": per["pairs_spmm"],
        "runtime.pairs_skipped": per["pairs_skipped"],
        "sim.exec_cycles": per["exec_cycles"],
        "trace.spans": timed,
        "trace.overhead_pct":
            100.0 * (summary["traced_ms"] - summary["untraced_ms"]) / summary["untraced_ms"],
    }
    for layer in LAYERS:
        out["self.%s_ms" % layer] = self_ms[layer] / n
        out["calls.%s" % layer] = calls[layer] / n
    return out
