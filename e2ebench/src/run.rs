//! The measured loop, the correctness checks, and the report.

use crate::calib;
use crate::layers::{Counts, Layers, Snap};
use crate::workload::{Kind, Op, Workload, CHECKPOINT_EVERY, DBLP_POOL_FRAMES};
use crate::Args;
use std::path::{Path, PathBuf};
use std::time::Instant;
use xmlup_core::XmlRepository;
use xmlup_shred::loader::unshred;
use xmlup_xml::Document;
use xmlup_xquery::Store;

/// Setups per run at least; `setup_s` is their median.
const MIN_SETUPS: usize = 9;
/// Consecutive measured operations per window. Each window's times are
/// scaled by the host-speed calibration taken around it (see `calib`);
/// the gated metrics are medians over windows. 200 operations leave 20
/// samples beyond a window's p90.
const WINDOW: usize = 200;
/// Full windows per run at least.
const MIN_WINDOWS: usize = 10;

/// One measured operation.
#[derive(Debug, Clone, Copy)]
struct Sample {
    kind: Kind,
    ms: f64,
    /// Inline checkpoint that ran right after the operation.
    checkpoint_ms: f64,
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// `(name, value, unit)` in the order printed.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!(r#""{n}": {{"value": {}, "unit": "{u}"}}"#, json_num(*v)))
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Everything a run accumulates across rounds.
#[derive(Default)]
struct Acc {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    setup_s: Vec<f64>,
    load_s: Vec<f64>,
    /// Untraced operations in the order they ran.
    samples: Vec<Sample>,
    /// Calibration kernel times: one before the first measured operation,
    /// then one after each full window.
    kernel_ms: Vec<f64>,
    /// Set-up times scaled to the reference host.
    setup_ref_s: Vec<f64>,
    /// Measured-phase seconds and operations of untraced rounds.
    plain_s: f64,
    plain_ops: u64,
    /// Same for traced rounds.
    traced_s: f64,
    traced_ops: u64,
    /// WAL + checkpoint bytes written and updates, untraced rounds.
    write_bytes: u64,
    updates: u64,
    disk_bytes: u64,
    layers: Layers,
}

impl Acc {
    fn problem(&mut self, p: String) {
        if self.problems.len() < 20 {
            self.problems.push(p);
        }
    }
}

/// A store for one round, plus its directory when durable.
struct Repo {
    repo: XmlRepository,
    dir: Option<PathBuf>,
}

fn data_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".data")
        .join(std::process::id().to_string())
}

fn setup(w: &Workload, acc: &mut Acc) -> Result<Repo, String> {
    let dir = w.name.durable().then(|| data_dir().join("store"));
    if let Some(d) = &dir {
        let _ = std::fs::remove_dir_all(d);
        std::fs::create_dir_all(d).map_err(|e| format!("create {}: {e}", d.display()))?;
    }
    let kernel_ms = calib::measure();
    let t = Instant::now();
    let mut repo = match &dir {
        Some(d) => XmlRepository::open_durable(d, w.mapping.clone(), w.config),
        None => XmlRepository::with_mapping(w.mapping.clone(), w.config),
    }
    .map_err(|e| format!("create repository: {e}"))?;
    let tl = Instant::now();
    repo.load(&w.doc).map_err(|e| format!("load: {e}"))?;
    acc.load_s.push(tl.elapsed().as_secs_f64());
    if dir.is_some() {
        repo.checkpoint()
            .map_err(|e| format!("first checkpoint: {e}"))?;
    }
    let secs = t.elapsed().as_secs_f64();
    acc.setup_s.push(secs);
    acc.setup_ref_s.push(secs * calib::scale(kernel_ms));
    Ok(Repo { repo, dir })
}

/// Run one round's operations as a closed loop; the measured time covers
/// the operations and the inline checkpoints.
fn run_round(w: &Workload, st: &mut Repo, ops: &[Op], traced: Option<&mut Layers>, acc: &mut Acc) {
    let mut layers = traced;
    let before = Snap::take(&st.repo);
    let mut since_checkpoint = 0;
    let mut updates = 0u64;
    if layers.is_none() && acc.kernel_ms.is_empty() {
        acc.kernel_ms.push(calib::measure());
    }
    let start = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let t = Instant::now();
        let got = match layers.as_deref_mut() {
            Some(l) => l.traced_op(&mut st.repo, op.kind, &op.text),
            None if op.kind == Kind::Query => st
                .repo
                .query_xml(&op.text)
                .map(|(_, roots)| roots.len())
                .map_err(|e| e.to_string()),
            None => st.repo.execute_xquery(&op.text).map_err(|e| e.to_string()),
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        acc.attempted += 1;
        let mut sample = Sample {
            kind: op.kind,
            ms,
            checkpoint_ms: 0.0,
        };
        match got {
            Ok(n) if n == op.expect => {}
            Ok(n) => acc.problem(format!(
                "op {i} ({}) returned {n}, model expects {}: {}",
                op.kind.label(),
                op.expect,
                op.text
            )),
            Err(e) => {
                acc.failed += 1;
                acc.problem(format!(
                    "op {i} ({}) failed: {e}: {}",
                    op.kind.label(),
                    op.text
                ));
            }
        }
        if op.kind.is_update() {
            updates += 1;
            since_checkpoint += 1;
        }
        if w.name.durable() && since_checkpoint == CHECKPOINT_EVERY {
            since_checkpoint = 0;
            let t = Instant::now();
            let r = match layers.as_deref_mut() {
                Some(l) => l.traced_checkpoint(&mut st.repo),
                None => st.repo.checkpoint().map_err(|e| e.to_string()),
            };
            if let Err(e) = r {
                acc.failed += 1;
                acc.problem(format!("checkpoint after op {i} failed: {e}"));
            }
            sample.checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
        }
        if layers.is_none() {
            acc.samples.push(sample);
            if acc.samples.len().is_multiple_of(WINDOW) {
                acc.kernel_ms.push(calib::measure());
            }
        }
    }
    let secs = start.elapsed().as_secs_f64();
    if layers.is_some() {
        acc.traced_s += secs;
        acc.traced_ops += ops.len() as u64;
    } else {
        let d = before.delta(&Snap::take(&st.repo));
        acc.plain_s += secs;
        acc.plain_ops += ops.len() as u64;
        acc.write_bytes += d.wal_bytes + d.checkpoint_bytes;
        acc.updates += updates;
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The end-of-run checks, outside the measured phase: for the durable
/// workload, drop the store without closing it, reopen it and require the
/// same contents; then require that the store equals the in-memory XQuery
/// evaluator run over the round's statement sequence.
fn check_round(w: &Workload, st: Repo, ops: &[Op], acc: &mut Acc) -> Result<(), String> {
    let Repo { mut repo, dir } = st;
    let mut stored = unshred(&mut repo.db, &repo.mapping).map_err(|e| format!("unshred: {e}"))?;
    if let Some(d) = &dir {
        acc.disk_bytes = dir_bytes(d);
        drop(repo);
        let mut reopened = XmlRepository::open_durable(d, w.mapping.clone(), w.config)
            .map_err(|e| format!("reopen after drop: {e}"))?;
        let recovered =
            unshred(&mut reopened.db, &reopened.mapping).map_err(|e| format!("unshred: {e}"))?;
        if !same(&stored, &recovered) {
            acc.problem("durability: reopened store differs from the state before the drop".into());
        }
        stored = recovered;
        reopened
            .close_durable()
            .map_err(|e| format!("close after reopen: {e}"))?;
        let _ = std::fs::remove_dir_all(d);
    }
    let mut oracle = Store::new();
    oracle.add_document(w.doc_name, w.doc.clone());
    for op in ops.iter().filter(|o| o.kind.is_update()) {
        if let Err(e) = oracle.execute_str(&op.text) {
            acc.problem(format!("oracle rejected {}: {e}", op.text));
        }
    }
    let expected = oracle
        .document(w.doc_name)
        .expect("oracle holds the document");
    if !same(expected, &stored) {
        acc.problem("oracle: store differs from the in-memory evaluator".into());
    }
    Ok(())
}

fn same(a: &Document, b: &Document) -> bool {
    a.subtree_eq(a.root(), b, b.root())
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile.
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let w = Workload::generate(args.workload, args.seed);
    eprintln!(
        "workload {:?}: seed {}, {} tuples, {} document bytes, {} ops per round",
        w.name,
        args.seed,
        w.tuples(),
        w.doc_bytes,
        w.name.ops_per_round()
    );
    let mut acc = Acc::default();
    let result = if args.trace {
        traced_run(&w, args, &mut acc)
    } else {
        plain_run(&w, args, &mut acc)
    };
    let _ = std::fs::remove_dir_all(data_dir());
    if let Some(parent) = data_dir().parent() {
        let _ = std::fs::remove_dir(parent);
    }
    result?;
    let metrics = if args.trace {
        layer_metrics(&w, &acc)
    } else {
        end_to_end_metrics(&w, &acc)
    };
    if w.name.durable() {
        println!(
            "flush policy: one WAL fsync per commit (engine default), checkpoint every {CHECKPOINT_EVERY} updates, pool {DBLP_POOL_FRAMES} frames"
        );
    }
    Ok(Report {
        correct: acc.problems.is_empty(),
        attempted: acc.attempted,
        failed: acc.failed,
        problems: acc.problems,
        metrics,
    })
}

/// Rounds of untraced operations until `--seconds` of measured time;
/// then extra setups until `MIN_SETUPS` were timed.
fn plain_run(w: &Workload, args: &Args, acc: &mut Acc) -> Result<(), String> {
    let mut round = 0;
    loop {
        let ops = w.round_ops(round);
        let mut st = setup(w, acc)?;
        run_round(w, &mut st, &ops, None, acc);
        let more = acc.plain_s < args.seconds || acc.samples.len() < MIN_WINDOWS * WINDOW;
        // The oracle and durability checks cost about as much as a round:
        // they run at the end, on the last round; every round gets the
        // per-operation checks.
        if !more {
            check_round(w, st, &ops, acc)?;
        } else {
            discard(st)?;
        }
        round += 1;
        if !more {
            break;
        }
    }
    while acc.setup_s.len() < MIN_SETUPS {
        let st = setup(w, acc)?;
        discard(st)?;
    }
    eprintln!("{round} round(s), {} ops", acc.plain_ops);
    Ok(())
}

fn discard(st: Repo) -> Result<(), String> {
    if let Some(d) = &st.dir {
        st.repo.close_durable().map_err(|e| format!("close: {e}"))?;
        let _ = std::fs::remove_dir_all(d);
    }
    Ok(())
}

/// Untraced and traced rounds in pairs over the same operation sequence,
/// until `--seconds` of measured time. Round 0 runs traced twice, both
/// times with the oracle and durability checks; its counts must repeat
/// exactly, and the count metrics come from it.
fn traced_run(w: &Workload, args: &Args, acc: &mut Acc) -> Result<(), String> {
    let mut round0: Option<Layers> = None;
    let mut round = 0;
    while round == 0 || acc.plain_s + acc.traced_s < args.seconds {
        let ops = w.round_ops(round);
        let mut st = setup(w, acc)?;
        run_round(w, &mut st, &ops, None, acc);
        discard(st)?;
        let mut layers = Layers::default();
        let mut st = setup(w, acc)?;
        run_round(w, &mut st, &ops, Some(&mut layers), acc);
        if round == 0 {
            check_round(w, st, &ops, acc)?;
        } else {
            discard(st)?;
        }
        acc.layers.add(&layers);
        if round == 0 {
            round0 = Some(layers);
        }
        round += 1;
    }
    let round0 = round0.expect("round 0 ran");
    let ops = w.round_ops(0);
    let mut replay = Layers::default();
    let mut st = setup(w, acc)?;
    run_round(w, &mut st, &ops, Some(&mut replay), acc);
    check_round(w, st, &ops, acc)?;
    if replay.all_counts() != round0.all_counts() {
        acc.problem(format!(
            "per-layer counts differ between two traced runs of round 0:\n{:?}\n{:?}",
            round0.all_counts(),
            replay.all_counts()
        ));
    }
    // Count metrics come from round 0 alone, so they repeat exactly.
    let times = std::mem::take(&mut acc.layers);
    acc.layers = Layers {
        counts: round0.counts,
        checkpoints: round0.checkpoints,
        times: times.times,
        checkpoint_ns: times.checkpoint_ns,
        checkpoint_runs: times.checkpoint_runs,
    };
    let digest = round0
        .all_counts()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, c| {
            format!("{c:?}")
                .bytes()
                .fold(h, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
        });
    println!("round-0 count digest: {digest:016x}");
    eprintln!("{round} traced round(s) plus the round-0 replay");
    Ok(())
}

fn end_to_end_metrics(w: &Workload, acc: &Acc) -> Vec<(String, f64, &'static str)> {
    let of = |pick: &dyn Fn(Kind) -> bool| -> Vec<f64> {
        acc.samples
            .iter()
            .filter(|s| pick(s.kind))
            .map(|s| s.ms)
            .collect()
    };
    let upd = of(&|k| k.is_update());
    let query = of(&|k| k == Kind::Query);
    // (window, factor scaling its times to the reference host)
    let windows: Vec<(&[Sample], f64)> = acc
        .samples
        .chunks_exact(WINDOW)
        .enumerate()
        .map(|(i, w)| {
            (
                w,
                calib::scale((acc.kernel_ms[i] + acc.kernel_ms[i + 1]) / 2.0),
            )
        })
        .collect();
    let latency = |pick: &dyn Fn(Kind) -> bool, q: f64| -> f64 {
        let per_window: Vec<f64> = windows
            .iter()
            .filter_map(|(w, f)| {
                let v: Vec<f64> = w.iter().filter(|s| pick(s.kind)).map(|s| s.ms).collect();
                (!v.is_empty()).then(|| quantile(&v, q) * f)
            })
            .collect();
        median(&per_window)
    };
    let ops_per_s = median(
        &windows
            .iter()
            .map(|(w, f)| {
                w.len() as f64 * 1e3 / (w.iter().map(|s| s.ms + s.checkpoint_ms).sum::<f64>() * f)
            })
            .collect::<Vec<_>>(),
    );
    // Printed for reading; the JSON carries the metrics that apply to
    // every workload. These are unscaled, and their percentiles are
    // nearest-rank over all samples of the run.
    println!(
        "samples: {} updates, {} queries, {} windows of {WINDOW} operations",
        upd.len(),
        query.len(),
        windows.len()
    );
    let mut extra = vec![
        ("error_rate", ratio(acc.failed, acc.attempted), "ratio"),
        ("calibration_kernel_ms", median(&acc.kernel_ms), "ms"),
        (
            "unscaled.ops_per_s",
            acc.plain_ops as f64 / acc.plain_s,
            "1/s",
        ),
        ("unscaled.op_p50_ms", quantile(&of(&|_| true), 0.5), "ms"),
        ("unscaled.setup_s", median(&acc.setup_s), "s"),
        ("update_p99_ms", quantile(&upd, 0.99), "ms"),
        ("op_p99_ms", quantile(&of(&|_| true), 0.99), "ms"),
        ("shred.load_s", median(&acc.load_s), "s"),
    ];
    if !query.is_empty() {
        extra.push(("query_p50_ms", quantile(&query, 0.5), "ms"));
        extra.push(("query_p99_ms", quantile(&query, 0.99), "ms"));
    }
    if w.name.durable() {
        extra.push((
            "write_bytes_per_update",
            ratio(acc.write_bytes, acc.updates),
            "B",
        ));
        extra.push((
            "disk_bytes_per_doc_byte",
            ratio(acc.disk_bytes, w.doc_bytes as u64),
            "ratio",
        ));
    }
    for (n, v, u) in extra {
        println!("metric {n} {v} {u}");
    }
    let m = vec![
        ("ops_per_s".to_string(), ops_per_s, "1/s"),
        ("op_p50_ms".into(), latency(&|_| true, 0.5), "ms"),
        ("op_p90_ms".into(), latency(&|_| true, 0.9), "ms"),
        (
            "update_p50_ms".into(),
            latency(&|k| k.is_update(), 0.5),
            "ms",
        ),
        ("setup_s".into(), median(&acc.setup_ref_s), "s"),
        ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
    ];
    for (n, v, u) in &m {
        println!("metric {n} {v} {u}");
    }
    m
}

fn layer_metrics(w: &Workload, acc: &Acc) -> Vec<(String, f64, &'static str)> {
    let l = &acc.layers;
    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let us = |ns: u64, n: u64| ratio(ns, n) / 1e3;
    let updates = [Kind::Delete, Kind::Insert, Kind::Replace];
    for k in Kind::ALL {
        let t = l.times(k);
        m.push((
            format!("xquery.parse_us.{}", k.label()),
            us(t.parse, t.ops),
            "us",
        ));
        m.push((
            format!("core.translate_us.{}", k.label()),
            us(t.translate, t.ops),
            "us",
        ));
    }
    for k in updates {
        let t = l.times(k);
        m.push((
            format!("core.execute_us.{}", k.label()),
            us(t.execute, t.ops),
            "us",
        ));
        m.push((
            format!("rdb.commit_us.{}", k.label()),
            us(t.commit, t.ops),
            "us",
        ));
    }
    let q = l.times(Kind::Query);
    m.push((
        "shred.outer_union.plan_us".into(),
        us(q.ou_plan, q.ops),
        "us",
    ));
    m.push(("shred.outer_union.sql_us".into(), us(q.ou_sql, q.ops), "us"));
    m.push((
        "shred.outer_union.reassemble_us".into(),
        us(q.ou_reassemble, q.ops),
        "us",
    ));
    let qc = l.counts(Kind::Query);
    m.push((
        "shred.outer_union.tuples_per_fetch".into(),
        ratio(qc.rows_out, qc.ops),
        "count",
    ));
    for k in Kind::ALL {
        let c = l.counts(k);
        let s = k.label();
        m.push((
            format!("rdb.rows_scanned_per_op.{s}"),
            ratio(c.rows_scanned, c.ops),
            "count",
        ));
        m.push((
            format!("rdb.rows_scanned_per_row_out.{s}"),
            ratio(c.rows_scanned, c.rows_out),
            "ratio",
        ));
        m.push((
            format!("rdb.hash_join_builds_per_op.{s}"),
            ratio(c.hash_join_builds, c.ops),
            "count",
        ));
        m.push((
            format!("rdb.seq_scans_per_op.{s}"),
            ratio(c.seq_scans, c.ops),
            "count",
        ));
        m.push((
            format!("rdb.index_lookups_per_op.{s}"),
            ratio(c.index_lookups, c.ops),
            "count",
        ));
        m.push((
            format!("rdb.client_statements_per_op.{s}"),
            ratio(c.client_statements, c.ops),
            "count",
        ));
    }
    for k in updates {
        let c = l.counts(k);
        let s = k.label();
        m.push((
            format!("rdb.trigger_statements_per_op.{s}"),
            ratio(c.total_statements - c.client_statements, c.ops),
            "count",
        ));
        m.push((
            format!("rdb.trigger_firings_per_op.{s}"),
            ratio(c.trigger_firings, c.ops),
            "count",
        ));
        m.push((
            format!("rdb.undo_records_per_op.{s}"),
            ratio(c.undo_records, c.ops),
            "count",
        ));
    }
    let mut all = Counts::default();
    for k in Kind::ALL {
        all.add(l.counts(k));
    }
    let mut upd = Counts::default();
    for k in updates {
        upd.add(l.counts(k));
    }
    let ck = &l.checkpoints;
    m.push((
        "rdb.plan_cache_hit_ratio".into(),
        ratio(
            all.plan_cache_hits,
            all.plan_cache_hits + all.plan_cache_misses,
        ),
        "ratio",
    ));
    m.push((
        "rdb.wal.bytes_per_commit".into(),
        ratio(upd.wal_bytes, upd.commits),
        "B",
    ));
    m.push((
        "rdb.wal.fsyncs_per_commit".into(),
        ratio(upd.wal_fsyncs, upd.commits),
        "count",
    ));
    let (hits, misses) = (
        all.pool_hits + ck.pool_hits,
        all.pool_misses + ck.pool_misses,
    );
    m.push((
        "rdb.storage.pool_hit_ratio".into(),
        ratio(hits, hits + misses),
        "ratio",
    ));
    m.push((
        "rdb.storage.pool_evictions_per_op".into(),
        ratio(all.pool_evictions + ck.pool_evictions, all.ops),
        "count",
    ));
    m.push((
        "rdb.storage.pool_writebacks_per_op".into(),
        ratio(all.pool_writebacks + ck.pool_writebacks, all.ops),
        "count",
    ));
    m.push((
        "rdb.storage.checkpoint_ms".into(),
        ratio(l.checkpoint_ns, l.checkpoint_runs) / 1e6,
        "ms",
    ));
    m.push((
        "rdb.storage.checkpoint_bytes".into(),
        ratio(ck.checkpoint_bytes, ck.ops),
        "B",
    ));
    m.push((
        "rdb.write_bytes_per_update".into(),
        ratio(upd.wal_bytes + ck.wal_bytes + ck.checkpoint_bytes, upd.ops),
        "B",
    ));
    m.push((
        "rdb.storage.disk_bytes_per_doc_byte".into(),
        ratio(acc.disk_bytes, w.doc_bytes as u64),
        "ratio",
    ));
    m.push(("shred.load_s".into(), median(&acc.load_s), "s"));
    let traced = acc.traced_ops as f64 / acc.traced_s;
    let plain = acc.plain_ops as f64 / acc.plain_s;
    m.push(("trace.ops_per_s".into(), traced, "1/s"));
    m.push(("trace.untraced_ops_per_s".into(), plain, "1/s"));
    m.push((
        "trace.overhead_pct".into(),
        (plain / traced - 1.0) * 100.0,
        "%",
    ));
    print_shares(l);
    m
}

/// A readable table of where each kind's time went.
fn print_shares(l: &Layers) {
    println!("stage shares of traced time, by kind:");
    for k in Kind::ALL {
        let t = l.times(k);
        if t.ops == 0 {
            continue;
        }
        let stages = [
            ("xquery.parse", t.parse),
            ("core.translate", t.translate),
            ("core.execute", t.execute),
            ("rdb.commit", t.commit),
            ("shred.outer_union.plan", t.ou_plan),
            ("shred.outer_union.sql", t.ou_sql),
            ("shred.outer_union.reassemble", t.ou_reassemble),
        ];
        let total: u64 = stages.iter().map(|s| s.1).sum();
        let parts: Vec<String> = stages
            .iter()
            .filter(|s| s.1 > 0)
            .map(|(n, v)| format!("{n} {:.1}%", 100.0 * *v as f64 / total as f64))
            .collect();
        println!(
            "  {:<8} {:>6} ops, {:>9.1} us/op: {}",
            k.label(),
            t.ops,
            total as f64 / t.ops as f64 / 1e3,
            parts.join(", ")
        );
    }
}
