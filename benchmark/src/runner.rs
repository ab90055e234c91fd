//! Runs one workload in this process: the timed run that yields the
//! end-to-end metrics, or the traced run that yields the per-layer ones.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use crate::layers;
use crate::report::{Metric, Outcome, PER_LAYER};
use crate::spans::{chrome_trace, SelfTimes};
use crate::stats::{geomean, mean, median, percentile, window_throughputs};
use crate::workload::{Counts, LayerSamples, Output, Sinks, World};

/// What to run.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced run writes `trace-<workload>.json`.
    pub out_dir: PathBuf,
}

/// Warm-up before the measured phase of the timed run.
const WARMUP_S: f64 = 3.0;
/// The measured phase is cut into this many throughput windows (5 s
/// windows at the design length of 30 s).
const WINDOWS: f64 = 6.0;
/// Set-up is repeated at least this often, and until it has taken this
/// long in total, so its median is steady for a short set-up too.
const SETUP_REPS: usize = 3;
const SETUP_MIN_TOTAL_S: f64 = 3.0;
const SETUP_MAX_REPS: usize = 20;
/// The traced run keeps the spans of this many traced passes for the
/// chrome-trace file; the self-time table covers every traced pass.
const TRACE_FILE_PASSES: usize = 3;

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    if cfg.trace {
        run_traced(cfg)
    } else {
        run_timed(cfg)
    }
}

/// Ops attempted and failed, with the first few reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    /// Count one executed op; true when it succeeded and its answer is
    /// the reference answer.
    fn check(&mut self, world: &World, i: usize, result: Result<Output, String>) -> bool {
        self.attempted += 1;
        let reason = match result {
            Ok(output) => {
                let answer = output.answer();
                if answer == world.ops[i].reference {
                    return true;
                }
                format!(
                    "answered {answer:?}, reference {:?}",
                    world.ops[i].reference
                )
            }
            Err(e) => e,
        };
        self.failed += 1;
        if self.reasons.len() < 5 {
            self.reasons
                .push(format!("{}: {reason}", world.describe(i)));
        }
        false
    }
}

/// Peak resident set of this process (VmHWM), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn header(cfg: &Config, world: &World) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut text = format!(
        "== {}  seed={} run_s={} trace={} cores={}\n  cells={} ops_per_pass={} op_list_hash={:016x}\n",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cores,
        world.cells.len(),
        world.ops.len(),
        world.op_list_hash()
    );
    if cfg.workload == "serve-mixed" && cores < 2 {
        text.push_str(
            "  unresolved: client, server and writer share one core, so these numbers say \
             nothing about contention\n",
        );
    }
    text
}

/// Samples per cell, µs.
pub type CellSamples = Vec<Vec<f64>>;

/// One whole pass over the op list with plain [`World::exec`]; returns
/// (verified ops, seconds). `samples` gets each verified op's latency.
pub fn plain_pass(
    world: &mut World,
    seq: &mut u64,
    tally: &mut Tally,
    mut samples: Option<&mut CellSamples>,
    epoch_lag_max: &mut u64,
) -> Result<(u64, f64), String> {
    world.before_pass()?;
    let serving = world.name == "serve-mixed";
    let pass = Instant::now();
    let mut ok = 0;
    for i in 0..world.ops.len() {
        *seq += 1;
        let request_id = seq.to_string();
        let started = Instant::now();
        let result = world.exec(i, &request_id);
        let us = started.elapsed().as_secs_f64() * 1e6;
        if serving {
            *epoch_lag_max = (*epoch_lag_max).max(layers::epoch_lag());
        }
        if tally.check(world, i, result) {
            ok += 1;
            if let Some(samples) = samples.as_deref_mut() {
                samples[world.ops[i].cell].push(us);
            }
        }
    }
    Ok((ok, pass.elapsed().as_secs_f64()))
}

fn run_timed(cfg: &Config) -> Result<Outcome, String> {
    // Set-up, several times over; the last world built is the one used.
    let mut setups = Vec::new();
    let mut world = loop {
        let started = Instant::now();
        let world = World::build(&cfg.workload, cfg.seed, None)?;
        setups.push(started.elapsed().as_secs_f64());
        let enough = setups.len() >= SETUP_REPS && setups.iter().sum::<f64>() >= SETUP_MIN_TOTAL_S;
        if enough || setups.len() >= SETUP_MAX_REPS {
            break world;
        }
        world.finish();
    };
    let mut text = header(cfg, &world);

    let mut seq = 0u64;
    let mut lag = 0u64;
    let mut warm = Tally::default();
    let warmup_s = WARMUP_S.min(cfg.seconds);
    let warming = Instant::now();
    while warming.elapsed().as_secs_f64() < warmup_s {
        plain_pass(&mut world, &mut seq, &mut warm, None, &mut lag)?;
    }

    let mut tally = Tally::default();
    let mut samples: CellSamples = vec![Vec::new(); world.cells.len()];
    let mut passes = Vec::new();
    let measuring = Instant::now();
    while measuring.elapsed().as_secs_f64() < cfg.seconds {
        passes.push(plain_pass(
            &mut world,
            &mut seq,
            &mut tally,
            Some(&mut samples),
            &mut lag,
        )?);
    }
    let measured_s = measuring.elapsed().as_secs_f64();
    let world = world.finish();

    let windows = window_throughputs(&passes, cfg.seconds / WINDOWS);
    let throughput = median(&windows);
    let cell_medians: Vec<f64> = samples
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| median(s))
        .collect();
    let latency_geomean = geomean(&cell_medians);
    let setup_s = median(&setups);

    let _ = writeln!(
        text,
        "  {:<22} {:>14.3} ops/s  (median of {} windows of whole passes >= {:.2} s; {} passes in {:.2} s)\n    windows: {}",
        "throughput_ops_s",
        throughput,
        windows.len(),
        cfg.seconds / WINDOWS,
        passes.len(),
        measured_s,
        windows
            .iter()
            .map(|w| format!("{w:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let _ = writeln!(
        text,
        "  {:<22} {:>14.1} us     (geometric mean of {} cell medians)",
        "latency_geomean_us",
        latency_geomean,
        cell_medians.len()
    );
    let _ = writeln!(
        text,
        "  {:<22} {:>14.4} s      (median of {} set-ups)",
        "setup_s",
        setup_s,
        setups.len()
    );
    let _ = writeln!(
        text,
        "  failed_ops/attempted_ops  {}/{}  (warm-up: {}/{})",
        tally.failed, tally.attempted, warm.failed, warm.attempted
    );
    for reason in warm.reasons.iter().chain(&tally.reasons) {
        let _ = writeln!(text, "    failed: {reason}");
    }
    let mut all: Vec<f64> = samples.iter().flatten().copied().collect();
    all.sort_by(f64::total_cmp);
    for (name, p) in [
        ("latency_p50_us", 50.0),
        ("latency_p90_us", 90.0),
        ("latency_p99_us", 99.0),
    ] {
        match percentile(&all, p) {
            Some(v) => {
                let _ = writeln!(
                    text,
                    "  {name:<22} {v:>14.1} us     (n={}, not gated)",
                    all.len()
                );
            }
            None => {
                let _ = writeln!(
                    text,
                    "  {name:<22} {:>14} us     (n={}: fewer than ten samples beyond it)",
                    "-",
                    all.len()
                );
            }
        }
    }
    if let Some(mb) = peak_rss_mb() {
        let _ = writeln!(
            text,
            "  {:<22} {mb:>14.1} MB     (VmHWM, not gated)",
            "peak_rss_mb"
        );
    }
    if let Some(w) = &world.writer {
        let _ = writeln!(
            text,
            "  writer: {:.1} load+remove pairs/s, write_p50_us {:.1}, {} errors; reads saw epoch_lag_max {}; clean drain: {}",
            w.pair_us.len() as f64 / w.seconds.max(1e-9),
            median(&w.pair_us),
            w.errors,
            lag,
            world.clean_drain
        );
    }
    text.push_str("  cell medians (us):\n");
    for (cell, s) in world.cells.iter().zip(&samples) {
        let _ = writeln!(text, "    {cell:<34} {:>12.1}  n={}", median(s), s.len());
    }

    let failed = tally.failed + warm.failed;
    Ok(Outcome {
        correct: failed == 0 && world.background_ok() && tally.attempted > 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            Metric::new("throughput_ops_s", throughput),
            Metric::new("latency_geomean_us", latency_geomean),
            Metric::new("setup_s", setup_s),
        ],
        text,
    })
}

/// Mean over cells of each cell's median, for one per-layer timing; 0
/// when the workload never calls the layer.
fn layer_value(rec: &LayerSamples, metric: &str) -> f64 {
    rec.samples.get(metric).map_or(0.0, |cells| {
        mean(&cells.values().map(|s| median(s)).collect::<Vec<f64>>())
    })
}

/// Sum over cells of each cell's median.
fn cell_median_sum(cells: &BTreeMap<usize, Vec<f64>>) -> f64 {
    cells.values().map(|s| median(s)).sum()
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

fn run_traced(cfg: &Config) -> Result<Outcome, String> {
    let sinks = Sinks {
        client: layers::trace_sink(),
        server: layers::trace_sink(),
    };
    let mut world = World::build(&cfg.workload, cfg.seed, Some(&sinks))?;
    let mut text = header(cfg, &world);
    let serving = world.name == "serve-mixed";
    // Spans whose subtrees are one request's statements: the end-to-end
    // query call in process; on serve-mixed everything the server records.
    let counted = match world.name {
        "load-roundtrip" => None,
        _ => Some("bench.publish"),
    };

    let mut seq = 0u64;
    let mut tally = Tally::default();
    let mut plain: CellSamples = vec![Vec::new(); world.cells.len()];
    let mut rec = LayerSamples::default();
    let mut times = SelfTimes::default();
    let mut served = SelfTimes::default();
    let mut kept: (Vec<layers::Event>, Vec<layers::Event>) = (Vec::new(), Vec::new());
    let mut dropped = 0u64;
    let mut lag = 0u64;
    let (mut lock_wait_us, mut plain_requests) = (0u64, 0u64);
    // Counts that repeat exactly, taken over the first traced pass: it
    // always follows one reference pass and one plain pass.
    let mut exact: Option<(u64, Counts)> = None;
    let mut traced_passes = 0usize;

    let started = Instant::now();
    while traced_passes < TRACE_FILE_PASSES || started.elapsed().as_secs_f64() < cfg.seconds {
        // A plain pass, then a traced one: the pair gives the tracing
        // overhead under the same conditions.
        let wait = layers::db_lock_wait_us();
        let (ok, _) = plain_pass(&mut world, &mut seq, &mut tally, Some(&mut plain), &mut lag)?;
        lock_wait_us += layers::db_lock_wait_us() - wait;
        plain_requests += ok;
        // The server traces every request it serves; only the traced
        // pass's are accounted.
        layers::drain(&sinks.server);

        world.before_pass()?;
        let wal = layers::counter("wal_bytes_total");
        {
            let _installed = layers::install(&sinks.client);
            for i in 0..world.ops.len() {
                seq += 1;
                let result = world.exec_traced(i, &seq.to_string(), &mut rec);
                if serving {
                    lag = lag.max(layers::epoch_lag());
                }
                tally.check(&world, i, result);
                let (events, lost) = layers::drain(&sinks.client);
                times.add(&events, counted);
                dropped += lost;
                let (served_events, lost) = layers::drain(&sinks.server);
                served.add(&served_events, None);
                dropped += lost;
                if traced_passes < TRACE_FILE_PASSES {
                    kept.0.extend(events);
                    kept.1.extend(served_events);
                }
            }
        }
        traced_passes += 1;
        if exact.is_none() {
            exact = Some((layers::counter("wal_bytes_total") - wal, rec.counts));
        }
    }
    let world = world.finish();

    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("creating {}: {e}", cfg.out_dir.display()))?;
    let trace_path = cfg.out_dir.join(format!("trace-{}.json", cfg.workload));
    std::fs::write(&trace_path, chrome_trace(&[&kept.0, &kept.1], dropped))
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;

    let (wal_bytes, first) = exact.unwrap_or_default();
    let plain_sum: f64 = plain
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| median(s))
        .sum();
    let traced_sum = rec.samples.get("e2e_us").map_or(0.0, cell_median_sum);
    let publish = layer_value(&rec, "publish_us");
    let ops = times.ops.max(1) as f64;
    // Whose spans are a request's: the server's on serve-mixed.
    let request_spans = if serving { &served } else { &times };
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|(name, _)| {
            let value = match *name {
                "stored_bytes_per_user_byte" => {
                    ratio(first.stored_bytes as f64, first.user_bytes as f64)
                }
                "btree_splits_per_doc" => ratio(first.btree_splits as f64, first.docs as f64),
                "wal_bytes_per_user_byte" => ratio(wal_bytes as f64, first.user_bytes as f64),
                "publish_share" => ratio(publish, layer_value(&rec, "e2e_us")),
                "lock_wait_us_per_request" => ratio(lock_wait_us as f64, plain_requests as f64),
                "epoch_lag_max" => lag as f64,
                "write_p50_us" => world.writer.as_ref().map_or(0.0, |w| median(&w.pair_us)),
                "shed_share" => ratio(world.shed as f64, tally.attempted as f64),
                "plan_us" => request_spans.plan_us as f64 / ops,
                "statements_per_request" => request_spans.statements as f64 / ops,
                "rows_examined_per_item" => {
                    ratio(rec.counts.rows_examined as f64, rec.counts.items as f64)
                }
                "span_cover_share" => times.cover(),
                "trace_overhead_pct" => 100.0 * (ratio(traced_sum, plain_sum) - 1.0),
                "trace_dropped" => dropped as f64,
                // The rest are timings of one layer call.
                timing => layer_value(&rec, timing),
            };
            Metric::new(name, value)
        })
        .collect();

    let _ = writeln!(
        text,
        "  {traced_passes} traced passes alternating with plain ones in {:.2} s; spans of the first {} written to {}",
        started.elapsed().as_secs_f64(),
        TRACE_FILE_PASSES.min(traced_passes),
        trace_path.display()
    );
    let _ = writeln!(
        text,
        "  failed_ops/attempted_ops  {}/{}",
        tally.failed, tally.attempted
    );
    for reason in &tally.reasons {
        let _ = writeln!(text, "    failed: {reason}");
    }
    text.push_str("  per-layer metrics (mean over cells of the cell median; 0 = the workload does not call the layer):\n");
    for m in &metrics {
        let _ = writeln!(text, "    {:<28} {:>16.4} {}", m.name, m.value, m.unit());
    }
    if let Some(cover) = times.min_cover {
        let _ = writeln!(
            text,
            "  layer-call spans cover {:.1}% of the op spans' time (smallest single op: {:.1}%)",
            100.0 * times.cover(),
            100.0 * cover
        );
    }
    // Per scheme: what share of the end-to-end call is publishing.
    if let (Some(publish), Some(e2e)) = (rec.samples.get("publish_us"), rec.samples.get("e2e_us")) {
        let mut by_scheme: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
        for (cell, samples) in publish {
            let scheme = world.cells[*cell].split('/').next().unwrap_or("");
            let entry = by_scheme.entry(scheme).or_default();
            entry.0 += median(samples);
            entry.1 += e2e.get(cell).map_or(0.0, |s| median(s));
        }
        text.push_str("  publish share of run() by scheme (sum of cell medians):\n");
        for (scheme, (p, total)) in by_scheme {
            let _ = writeln!(
                text,
                "    {scheme:<12} {:>6.3}  ({p:.0} of {total:.0} us)",
                ratio(p, total)
            );
        }
    }
    text.push_str("  self time by span on the benchmark's thread, per op:\n");
    text.push_str(&times.render(times.ops, times.op_us));
    if let Some(requests) = served.by_name.get("store.query") {
        text.push_str(
            "  self time by span on the server's connection threads, per served request:\n",
        );
        text.push_str(&served.render(requests.count, requests.total_us));
    }

    Ok(Outcome {
        correct: tally.failed == 0 && world.background_ok() && dropped == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        text,
    })
}
