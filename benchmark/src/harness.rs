//! Repetitions, the end-to-end run and the traced run.
//!
//! A wall-clock number is made in three steps (see `README.md`): every op
//! of every repetition is timed on its own; each time is rescaled by the
//! calibration kernel timed just before its ~10 ms slice; and op `i`'s
//! time is the median over the repetitions, which all execute the same
//! deterministic sequence. Exact metrics are counts or simulated-clock
//! values and must come out bit-identical in every repetition.

use crate::alloc::AllocCount;
use crate::cal;
use crate::stats::{self, to_reference_speed};
use crate::trace::{Call, Off, Recorder, Trace};
use crate::workloads::Workload;
use crate::{probes, Metric};
use dosgi_telemetry::Telemetry;
use std::path::Path;
use std::time::{Duration, Instant};

/// The run length `Workload::OPS` is sized for, and `BENCHMARK.json`'s
/// `run_seconds`. Another `--seconds` scales the op count in proportion,
/// so a run is always a fixed, repeatable amount of work.
pub const RUN_SECONDS: u32 = 10;
/// Ops between two calibration readings take about this long.
const SLICE: Duration = Duration::from_millis(10);

/// Ops in the timed window of a run of `seconds`.
pub fn window_ops<W: Workload>(seconds: u32) -> u32 {
    let ops = u64::from(W::OPS) * u64::from(seconds) / u64::from(RUN_SECONDS);
    (ops as u32).max(10)
}

/// The program's own counters, read at the window's boundaries. Every one
/// is exact: the same seed gives the same value in every repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Count {
    /// Heap allocation requests (calibration excluded).
    Allocs,
    /// Heap bytes requested.
    AllocBytes,
    /// Median modeled latency, simulated µs.
    SimP50,
    /// 90th percentile of the modeled latency, simulated µs.
    SimP90,
    /// Ops that failed.
    FailedOps,
    /// Instances in the wrong state at the final check.
    WrongState,
    /// `StoreStats::reads`
    SanReads,
    /// `StoreStats::writes`
    SanWrites,
    /// `StoreStats::bytes_read`
    SanBytesRead,
    /// `StoreStats::bytes_written`
    SanBytesWritten,
    /// `StoreStats::bytes_skipped`
    SanBytesSkipped,
    /// `NetStats::sent`
    NetSent,
    /// `NetStats::delivered`
    NetDelivered,
    /// `NetStats::timers_fired`
    NetTimers,
    /// `IpvsStats::queued`
    IpvsQueued,
    /// `IpvsStats::shed`
    IpvsShed,
    /// `IpvsStats::deadline_missed`
    IpvsDeadlineMissed,
    /// `core.registry.ops`
    RegistryOps,
    /// `core.migration.completed`
    Migrations,
    /// `core.failover.adoptions`
    FailoverAdoptions,
    /// `gcs.order.sent`
    GcsOrderSent,
    /// `gcs.order.delivered`
    GcsOrderDelivered,
    /// `gcs.fifo.sent`
    GcsFifoSent,
    /// `gcs.view.installed`
    GcsViewInstalled,
    /// `gcs.antientropy.nacks`
    GcsNacks,
    /// `persist.rows_written`
    RowsWritten,
    /// `vosgi.lifecycle.adopted`
    VosgiAdopted,
    /// `vosgi.lifecycle.started`
    VosgiStarted,
}

const COUNTS: usize = Count::VosgiStarted as usize + 1;

/// Telemetry counters in the ledger, by [`Count`].
const TELEMETRY_COUNTERS: [(Count, &str); 11] = [
    (Count::RegistryOps, "core.registry.ops"),
    (Count::Migrations, "core.migration.completed"),
    (Count::FailoverAdoptions, "core.failover.adoptions"),
    (Count::GcsOrderSent, "gcs.order.sent"),
    (Count::GcsOrderDelivered, "gcs.order.delivered"),
    (Count::GcsFifoSent, "gcs.fifo.sent"),
    (Count::GcsViewInstalled, "gcs.view.installed"),
    (Count::GcsNacks, "gcs.antientropy.nacks"),
    (Count::RowsWritten, "persist.rows_written"),
    (Count::VosgiAdopted, "vosgi.lifecycle.adopted"),
    (Count::VosgiStarted, "vosgi.lifecycle.started"),
];

/// One value per [`Count`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ledger([u64; COUNTS]);

impl Ledger {
    /// The value of one counter.
    pub fn get(&self, c: Count) -> u64 {
        self.0[c as usize]
    }

    fn set(&mut self, c: Count, v: u64) {
        self.0[c as usize] = v;
    }

    /// `get(c) / ops`.
    pub fn per_op(&self, c: Count, ops: u32) -> f64 {
        self.get(c) as f64 / f64::from(ops)
    }

    /// The program's cumulative counters right now.
    fn read<W: Workload>(w: &mut W) -> Ledger {
        let mut l = Ledger([0; COUNTS]);
        let ipvs = w.ipvs();
        let cluster = w.cluster();
        let san = cluster.store().stats();
        let net = cluster.net_mut().stats();
        l.set(Count::SanReads, san.reads);
        l.set(Count::SanWrites, san.writes);
        l.set(Count::SanBytesRead, san.bytes_read);
        l.set(Count::SanBytesWritten, san.bytes_written);
        l.set(Count::SanBytesSkipped, san.bytes_skipped);
        l.set(Count::NetSent, net.sent);
        l.set(Count::NetDelivered, net.delivered);
        l.set(Count::NetTimers, net.timers_fired);
        l.set(Count::IpvsQueued, ipvs.queued);
        l.set(Count::IpvsShed, ipvs.shed);
        l.set(Count::IpvsDeadlineMissed, ipvs.deadline_missed);
        for (c, name) in TELEMETRY_COUNTERS {
            l.set(c, cluster.telemetry().counter(name));
        }
        l
    }

    fn since(mut self, earlier: &Ledger) -> Ledger {
        for (now, then) in self.0.iter_mut().zip(&earlier.0) {
            *now -= then;
        }
        self
    }
}

/// What one repetition measured.
pub struct Repetition {
    /// Timed pieces as measured, ns: the build, each warm-up op, each
    /// window op.
    pub raw_ns: Vec<f64>,
    /// The same pieces at reference speed.
    pub scaled_ns: Vec<f64>,
    /// How many leading pieces are set-up (the build plus the warm-up).
    pub setup_pieces: usize,
    /// Every calibration reading taken, µs.
    pub kernel_us: Vec<f64>,
    /// The exact side: counters over the timed window.
    pub ledger: Ledger,
    /// The cluster's telemetry registry as the repetition left it.
    pub telemetry: Telemetry,
    /// The simulated clock at the end, µs.
    pub ended_at_us: u64,
}

/// The wall-clock numbers of one list of timed pieces.
struct Summary {
    setup_s: f64,
    window_ns: f64,
    ops_per_s: f64,
    op_p50_us: f64,
    op_p90_us: f64,
}

fn summarize(pieces_ns: &[f64], setup_pieces: usize) -> Summary {
    let (setup, window) = pieces_ns.split_at(setup_pieces);
    let window_ns: f64 = window.iter().sum();
    Summary {
        setup_s: setup.iter().sum::<f64>() / 1e9,
        window_ns,
        ops_per_s: window.len() as f64 / window_ns * 1e9,
        op_p50_us: stats::percentile_of(window, 50) / 1e3,
        op_p90_us: stats::percentile_of(window, 90) / 1e3,
    }
}

/// Runs one repetition on a fresh cluster: the build, the warm-up (a tenth
/// as many ops as the window, untraced), then `ops` window ops.
pub fn repetition<W: Workload>(
    seed: u64,
    ops: u32,
    telemetry: Telemetry,
    tr: &mut impl Trace,
) -> Repetition {
    let warmup = ops / 10;
    let pieces = 1 + (warmup + ops) as usize;
    let mut kernel_us = Vec::new();
    let mut raw_ns = Vec::with_capacity(pieces);
    let mut scaled_ns = Vec::with_capacity(pieces);

    let mut reading = cal::read();
    kernel_us.push(reading);
    let started = Instant::now();
    let mut w = W::build(seed, telemetry);
    let build_ns = started.elapsed().as_nanos() as f64;
    raw_ns.push(build_ns);
    scaled_ns.push(to_reference_speed(build_ns, reading, W::CAL_EXPONENT));

    let mut failed_ops = 0u64;
    let mut ledger_before = Ledger::read(&mut w);
    let mut allocs_before = AllocCount::now();
    let mut calibration = AllocCount::default();
    let mut slice_started = started;
    for i in 0..warmup + ops {
        if i == warmup {
            w.modeled_latencies_us().clear();
            ledger_before = Ledger::read(&mut w);
            allocs_before = AllocCount::now();
            calibration = AllocCount::default();
        }
        let mut op_started = Instant::now();
        // The build may have been long: the first op takes a fresh reading.
        if i == 0 || op_started.duration_since(slice_started) >= SLICE {
            // Calibration is the harness's, not the program's: whatever it
            // allocates is kept out of the program's counts.
            let before = AllocCount::now();
            reading = cal::read();
            kernel_us.push(reading);
            let used = AllocCount::now().since(before);
            calibration.allocs += used.allocs;
            calibration.bytes += used.bytes;
            op_started = Instant::now();
            slice_started = op_started;
        }
        let ok = if i < warmup {
            w.op(&mut Off)
        } else {
            tr.op_begin();
            let ok = w.op(tr);
            tr.op_end();
            ok
        };
        let ns = op_started.elapsed().as_nanos() as f64;
        failed_ops += u64::from(!ok);
        raw_ns.push(ns);
        scaled_ns.push(to_reference_speed(ns, reading, W::CAL_EXPONENT));
    }
    let used = AllocCount::now().since(allocs_before);
    let mut ledger = Ledger::read(&mut w).since(&ledger_before);
    ledger.set(Count::Allocs, used.allocs - calibration.allocs);
    ledger.set(Count::AllocBytes, used.bytes - calibration.bytes);

    let latencies = w.modeled_latencies_us();
    let (p50, p90) = (latencies.percentile(50), latencies.percentile(90));
    ledger.set(Count::SimP50, p50);
    ledger.set(Count::SimP90, p90);
    ledger.set(Count::FailedOps, failed_ops);
    ledger.set(Count::WrongState, w.verify());

    Repetition {
        raw_ns,
        scaled_ns,
        setup_pieces: 1 + warmup as usize,
        kernel_us,
        ledger,
        telemetry: w.cluster().telemetry().clone(),
        ended_at_us: w.cluster().now().as_micros(),
    }
}

/// The result of a run, in the form the driver's contract asks for.
pub struct Outcome {
    /// Every state check passed and every exact metric repeated.
    pub correct: bool,
    /// Ops attempted in timed windows.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// The metrics this mode reports, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<f64>().ok())
        .unwrap_or(0.0);
    kib / 1024.0
}

/// The end-to-end run: `W::REPS` repetitions of `ops` ops, tracing off.
pub fn end_to_end<W: Workload>(seed: u64, ops: u32) -> Outcome {
    let reps: Vec<Repetition> = (0..W::REPS)
        .map(|_| repetition::<W>(seed, ops, Telemetry::new(), &mut Off))
        .collect();
    let first = &reps[0];
    let mut notes = Vec::new();
    let mut repeatable = true;
    for (i, r) in reps.iter().enumerate().skip(1) {
        if r.ledger != first.ledger {
            repeatable = false;
            notes.push(format!(
                "exact metrics differ between repetition 0 and {i}:\n  {:?}\n  {:?}",
                first.ledger, r.ledger
            ));
        }
    }
    let failed: u64 = reps.iter().map(|r| r.ledger.get(Count::FailedOps)).sum();
    let wrong: u64 = reps.iter().map(|r| r.ledger.get(Count::WrongState)).sum();
    if wrong > 0 {
        notes.push(format!("{wrong} instances failed the final state check"));
    }

    let pieces = |f: fn(&Repetition) -> &[f64]| {
        let all: Vec<&[f64]> = reps.iter().map(f).collect();
        summarize(&stats::over_reps(&all), first.setup_pieces)
    };
    let (at_reference, unscaled) = (pieces(|r| &r.scaled_ns), pieces(|r| &r.raw_ns));
    let mut kernel: Vec<f64> = reps.iter().flat_map(|r| r.kernel_us.clone()).collect();
    stats::sort(&mut kernel);
    let l = &first.ledger;
    let metrics = vec![
        Metric::new("setup_s", at_reference.setup_s, "s"),
        Metric::new("ops_per_s", at_reference.ops_per_s, "1/s"),
        Metric::new("op_p50_us", at_reference.op_p50_us, "us"),
        Metric::new("sim_op_p50_us", l.get(Count::SimP50) as f64, "sim_us"),
        Metric::new("sim_op_p90_us", l.get(Count::SimP90) as f64, "sim_us"),
        Metric::new("allocs_per_op", l.per_op(Count::Allocs, ops), "count"),
        Metric::new(
            "alloc_kib_per_op",
            l.per_op(Count::AllocBytes, ops) / 1024.0,
            "KiB",
        ),
        Metric::new("peak_rss_mib", peak_rss_mib(), "MiB"),
    ];
    notes.push(format!(
        "{}: seed {seed}, {ops} ops x {} repetitions; calibration kernel min {:.2} us, p50 {:.2} us (reference {} us)",
        W::NAME,
        W::REPS,
        kernel[0],
        stats::percentile(&kernel, 50),
        stats::CAL_REF_US,
    ));
    // What the calibration exponent is fitted on (`noise.sh` does the
    // regression): each repetition's raw time against its mean reading.
    for (i, r) in reps.iter().enumerate() {
        let log_mean = r.kernel_us.iter().map(|k| k.ln()).sum::<f64>() / r.kernel_us.len() as f64;
        notes.push(format!(
            "rep {i}: raw_ms {} kernel_us {}",
            r.raw_ns.iter().sum::<f64>() / 1e6,
            log_mean.exp()
        ));
    }
    // The same numbers without the rescaling, so that it can be audited.
    notes.push(format!(
        "unscaled: setup_s {} ops_per_s {} op_p50_us {} op_p90_us {}",
        unscaled.setup_s, unscaled.ops_per_s, unscaled.op_p50_us, unscaled.op_p90_us
    ));
    Outcome {
        correct: repeatable && wrong == 0 && failed == 0,
        attempted: u64::from(ops) * W::REPS as u64,
        failed,
        metrics,
        notes,
    }
}

/// The traced run: one repetition with tracing off (the reference), one
/// traced, one with telemetry disabled, then the probes. Writes the span
/// file to `out_dir/trace_<workload>.json`.
pub fn layers<W: Workload>(seed: u64, ops: u32, out_dir: &Path) -> std::io::Result<Outcome> {
    let plain = repetition::<W>(seed, ops, Telemetry::new(), &mut Off);
    let mut recorder = Recorder::new();
    let traced = repetition::<W>(seed, ops, Telemetry::new(), &mut recorder);
    let quiet = repetition::<W>(seed, ops, Telemetry::disabled(), &mut Off);
    std::fs::create_dir_all(out_dir)?;
    let file = out_dir.join(format!("trace_{}.json", W::NAME));
    std::fs::write(&file, recorder.to_json(W::NAME, seed))?;

    let mut notes = vec![format!("span file: {}", file.display())];
    // Tracing and telemetry are passive: neither may change what the
    // program does. (Allocation counts do change without telemetry, which
    // allocates its metric names.)
    let mut repeatable = plain.ledger == traced.ledger;
    if !repeatable {
        notes.push(format!(
            "tracing changed the exact metrics:\n  {:?}\n  {:?}",
            plain.ledger, traced.ledger
        ));
    }
    for c in [
        Count::SimP50,
        Count::SimP90,
        Count::SanBytesWritten,
        Count::NetSent,
    ] {
        if plain.ledger.get(c) != quiet.ledger.get(c) {
            repeatable = false;
            notes.push(format!("disabling telemetry changed {c:?}"));
        }
    }
    let all = [&plain, &traced, &quiet];
    let failed: u64 = all.iter().map(|r| r.ledger.get(Count::FailedOps)).sum();
    let wrong: u64 = all.iter().map(|r| r.ledger.get(Count::WrongState)).sum();
    let l = &plain.ledger;
    let at_reference = |r: &Repetition| summarize(&r.scaled_ns, r.setup_pieces);
    let (reference, unscaled) = (
        at_reference(&plain),
        summarize(&plain.raw_ns, plain.setup_pieces),
    );
    let mut kernel: Vec<f64> = all.iter().flat_map(|r| r.kernel_us.clone()).collect();
    stats::sort(&mut kernel);

    let metrics_live = plain
        .telemetry
        .read(|c, g, h| c.len() + g.len() + h.len())
        .unwrap_or(0);
    let n = f64::from(ops);
    let total = |c: Call| recorder.total(c);
    let mean_ns = |c: Call| match total(c) {
        t if t.count > 0 => t.ns as f64 / t.count as f64,
        _ => 0.0,
    };
    let mean_allocs = |c: Call| match total(c) {
        t if t.count > 0 => t.allocs as f64 / t.count as f64,
        _ => 0.0,
    };
    let control_ns: u64 = [
        Call::Migrate,
        Call::CrashNode,
        Call::RestartNode,
        Call::TakeEvents,
    ]
    .iter()
    .map(|c| total(*c).ns)
    .sum();
    let per_op = |c: Count| l.per_op(c, ops);
    let kib_per_op = |c: Count| l.per_op(c, ops) / 1024.0;
    let mut metrics = vec![
        Metric::new(
            "core.step_us_per_op",
            total(Call::Step).ns as f64 / n / 1e3,
            "us",
        ),
        Metric::new(
            "core.steps_per_op",
            total(Call::Step).count as f64 / n,
            "count",
        ),
        Metric::new("core.step_ns", mean_ns(Call::Step), "ns"),
        Metric::new("core.step_allocs", mean_allocs(Call::Step), "count"),
        Metric::new("core.call_ns", mean_ns(Call::Invoke), "ns"),
        Metric::new("core.call_allocs", mean_allocs(Call::Invoke), "count"),
        Metric::new("core.control_us_per_op", control_ns as f64 / n / 1e3, "us"),
        Metric::new(
            "core.registry_ops_per_op",
            per_op(Count::RegistryOps),
            "count",
        ),
        Metric::new("core.migrations_per_op", per_op(Count::Migrations), "count"),
        Metric::new(
            "core.adoptions_per_op",
            per_op(Count::FailoverAdoptions),
            "count",
        ),
        Metric::new(
            "core.op_drift_ratio",
            stats::drift_ratio(&plain.scaled_ns[plain.setup_pieces..]),
            "ratio",
        ),
        Metric::new("ipvs.admit_ns", mean_ns(Call::Admit), "ns"),
        Metric::new("ipvs.drain_ns", mean_ns(Call::Drain), "ns"),
        Metric::new("ipvs.admit_allocs", mean_allocs(Call::Admit), "count"),
        Metric::new("ipvs.queued_per_op", per_op(Count::IpvsQueued), "count"),
        Metric::new("ipvs.shed_per_op", per_op(Count::IpvsShed), "count"),
        Metric::new(
            "ipvs.deadline_missed_per_op",
            per_op(Count::IpvsDeadlineMissed),
            "count",
        ),
        Metric::new("net.sent_per_op", per_op(Count::NetSent), "count"),
        Metric::new("net.delivered_per_op", per_op(Count::NetDelivered), "count"),
        Metric::new("net.timers_per_op", per_op(Count::NetTimers), "count"),
        Metric::new(
            "gcs.order_sent_per_op",
            per_op(Count::GcsOrderSent),
            "count",
        ),
        Metric::new(
            "gcs.order_delivered_per_op",
            per_op(Count::GcsOrderDelivered),
            "count",
        ),
        Metric::new("gcs.fifo_sent_per_op", per_op(Count::GcsFifoSent), "count"),
        Metric::new(
            "gcs.view_installed_per_op",
            per_op(Count::GcsViewInstalled),
            "count",
        ),
        Metric::new("gcs.nacks_per_op", per_op(Count::GcsNacks), "count"),
        Metric::new("san.reads_per_op", per_op(Count::SanReads), "count"),
        Metric::new("san.writes_per_op", per_op(Count::SanWrites), "count"),
        Metric::new(
            "san.kib_read_per_op",
            kib_per_op(Count::SanBytesRead),
            "KiB",
        ),
        Metric::new(
            "san.kib_written_per_op",
            kib_per_op(Count::SanBytesWritten),
            "KiB",
        ),
        Metric::new(
            "san.kib_skipped_per_op",
            kib_per_op(Count::SanBytesSkipped),
            "KiB",
        ),
        Metric::new(
            "osgi.rows_written_per_op",
            per_op(Count::RowsWritten),
            "count",
        ),
        Metric::new("vosgi.adopted_per_op", per_op(Count::VosgiAdopted), "count"),
        Metric::new("vosgi.started_per_op", per_op(Count::VosgiStarted), "count"),
        Metric::new(
            "telemetry.on_off_ratio",
            reference.window_ns / at_reference(&quiet).window_ns,
            "ratio",
        ),
        Metric::new(
            "telemetry.scrape_us",
            probes::scrape_us(&plain.telemetry, plain.ended_at_us),
            "us",
        ),
        Metric::new("telemetry.metrics_live", metrics_live as f64, "count"),
        Metric::new("raw.setup_s", unscaled.setup_s, "s"),
        Metric::new("raw.ops_per_s", unscaled.ops_per_s, "1/s"),
        Metric::new("raw.op_p50_us", unscaled.op_p50_us, "us"),
        Metric::new("raw.op_p90_us", unscaled.op_p90_us, "us"),
        Metric::new("cal.kernel_us_min", kernel[0], "us"),
        Metric::new("cal.kernel_us_p50", stats::percentile(&kernel, 50), "us"),
        Metric::new(
            "trace.overhead_ratio",
            at_reference(&traced).window_ns / reference.window_ns,
            "ratio",
        ),
    ];
    metrics.extend(probes::run());
    notes.push(format!(
        "{}: seed {seed}, {ops} ops; harness self time {:.1} % of traced op time",
        W::NAME,
        100.0 * recorder.ops_self_ns() as f64 / recorder.ops_ns().max(1) as f64
    ));
    Ok(Outcome {
        correct: repeatable && wrong == 0 && failed == 0,
        attempted: u64::from(ops) * 3,
        failed,
        metrics,
        notes,
    })
}
