//! Per-layer attribution measured from outside the program: each stage of
//! an operation is one call into a module's public function, timed here,
//! with the deltas of the engine's public counters (`Database::stats()`,
//! `Database::storage_metrics()`) taken around it.

use crate::workload::Kind;
use std::time::Instant;
use xmlup_core::{translate, XmlRepository};
use xmlup_rdb::{PoolStats, Stats};
use xmlup_shred::outer_union;
use xmlup_xml::Document;
use xmlup_xquery::parse_statement;

/// Engine counters that an operation moves. Every field is a count, so a
/// same-seed run must reproduce it exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub ops: u64,
    pub client_statements: u64,
    pub total_statements: u64,
    pub rows_scanned: u64,
    /// Rows a query returned, or rows an update inserted, deleted or
    /// updated: the useful side of `rows_scanned`.
    pub rows_out: u64,
    pub hash_join_builds: u64,
    pub seq_scans: u64,
    pub index_lookups: u64,
    pub trigger_firings: u64,
    pub undo_records: u64,
    pub plan_cache_hits: u64,
    pub plan_cache_misses: u64,
    pub commits: u64,
    pub wal_bytes: u64,
    pub wal_fsyncs: u64,
    pub checkpoint_bytes: u64,
    pub checkpoint_pages: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub pool_evictions: u64,
    pub pool_writebacks: u64,
}

/// A point-in-time reading of the engine's counters.
#[derive(Debug, Clone, Copy)]
pub struct Snap {
    s: Stats,
    p: PoolStats,
}

impl Snap {
    pub fn take(repo: &XmlRepository) -> Snap {
        Snap {
            s: repo.db.stats(),
            p: repo.db.storage_metrics().pool,
        }
    }

    /// Counters moved between `self` and the later reading `after`.
    pub fn delta(&self, after: &Snap) -> Counts {
        let (a, b) = (&self.s, &after.s);
        Counts {
            ops: 0,
            client_statements: b.client_statements - a.client_statements,
            total_statements: b.total_statements - a.total_statements,
            rows_scanned: b.rows_scanned - a.rows_scanned,
            rows_out: (b.rows_inserted - a.rows_inserted)
                + (b.rows_deleted - a.rows_deleted)
                + (b.rows_updated - a.rows_updated),
            hash_join_builds: b.hash_join_builds - a.hash_join_builds,
            seq_scans: b.seq_scans - a.seq_scans,
            index_lookups: b.index_lookups - a.index_lookups,
            trigger_firings: b.trigger_firings - a.trigger_firings,
            undo_records: b.undo_records - a.undo_records,
            plan_cache_hits: b.plan_cache_hits - a.plan_cache_hits,
            plan_cache_misses: b.plan_cache_misses - a.plan_cache_misses,
            commits: b.txn_commits - a.txn_commits,
            wal_bytes: b.wal_bytes - a.wal_bytes,
            wal_fsyncs: b.wal_fsyncs - a.wal_fsyncs,
            checkpoint_bytes: b.checkpoint_bytes_written - a.checkpoint_bytes_written,
            checkpoint_pages: b.checkpoint_pages_written - a.checkpoint_pages_written,
            pool_hits: after.p.hits - self.p.hits,
            pool_misses: after.p.misses - self.p.misses,
            pool_evictions: after.p.evictions - self.p.evictions,
            pool_writebacks: after.p.writebacks - self.p.writebacks,
        }
    }
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        macro_rules! sum {
            ($($f:ident),*) => { $( self.$f += o.$f; )* };
        }
        sum!(
            ops,
            client_statements,
            total_statements,
            rows_scanned,
            rows_out,
            hash_join_builds,
            seq_scans,
            index_lookups,
            trigger_firings,
            undo_records,
            plan_cache_hits,
            plan_cache_misses,
            commits,
            wal_bytes,
            wal_fsyncs,
            checkpoint_bytes,
            checkpoint_pages,
            pool_hits,
            pool_misses,
            pool_evictions,
            pool_writebacks
        );
    }
}

/// Busy time of each stage, summed over operations, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Times {
    pub ops: u64,
    pub parse: u64,
    pub translate: u64,
    pub execute: u64,
    pub commit: u64,
    pub ou_plan: u64,
    pub ou_sql: u64,
    pub ou_reassemble: u64,
}

/// Per-kind counts and stage times, plus the inline checkpoints.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub counts: [Counts; 4],
    pub times: [Times; 4],
    pub checkpoints: Counts,
    pub checkpoint_ns: u64,
    /// Checkpoints timed in `checkpoint_ns`.
    pub checkpoint_runs: u64,
}

fn slot(kind: Kind) -> usize {
    Kind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("kind listed")
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

impl Layers {
    pub fn counts(&self, kind: Kind) -> &Counts {
        &self.counts[slot(kind)]
    }

    pub fn times(&self, kind: Kind) -> &Times {
        &self.times[slot(kind)]
    }

    /// Run one operation stage by stage — the same public calls that
    /// `execute_xquery` and `query_xml` chain — and return its affected
    /// count or the number of subtrees it returned.
    pub fn traced_op(
        &mut self,
        repo: &mut XmlRepository,
        kind: Kind,
        text: &str,
    ) -> Result<usize, String> {
        let i = slot(kind);
        let before = Snap::take(repo);
        let t = Instant::now();
        let stmt = parse_statement(text).map_err(|e| e.to_string())?;
        self.times[i].parse += ns(t);
        let n = if kind == Kind::Query {
            let t = Instant::now();
            let spec =
                translate::translate_query(&stmt, &repo.mapping).map_err(|e| e.to_string())?;
            let filter = translate::query_filter_sql(&spec, &repo.mapping, repo.asr.as_ref())
                .map_err(|e| e.to_string())?;
            self.times[i].translate += ns(t);
            let t = Instant::now();
            let plan = outer_union::plan(&repo.mapping, spec.rel, filter.as_deref());
            self.times[i].ou_plan += ns(t);
            let t = Instant::now();
            let rs =
                outer_union::execute_params(&mut repo.db, &plan, &[]).map_err(|e| e.to_string())?;
            self.times[i].ou_sql += ns(t);
            let t = Instant::now();
            let mut doc = Document::new("__results__");
            let roots = outer_union::reassemble(&mut doc, &repo.mapping, &plan, &rs)
                .map_err(|e| e.to_string())?;
            drop(doc);
            self.times[i].ou_reassemble += ns(t);
            self.counts[i].rows_out += rs.rows.len() as u64;
            roots.len()
        } else {
            let t = Instant::now();
            let ops =
                translate::translate_update(&stmt, &repo.mapping).map_err(|e| e.to_string())?;
            self.times[i].translate += ns(t);
            let [op] = &ops[..] else {
                return Err(format!(
                    "expected one translated operation, got {}",
                    ops.len()
                ));
            };
            let t = Instant::now();
            repo.db.begin().map_err(|e| e.to_string())?;
            let n = match repo.execute_translated(op) {
                Ok(n) => n,
                Err(e) => {
                    let _ = repo.db.rollback();
                    return Err(e.to_string());
                }
            };
            self.times[i].execute += ns(t);
            let t = Instant::now();
            repo.db.commit().map_err(|e| e.to_string())?;
            self.times[i].commit += ns(t);
            n
        };
        let mut d = before.delta(&Snap::take(repo));
        d.ops = 1;
        self.counts[i].add(&d);
        self.times[i].ops += 1;
        Ok(n)
    }

    pub fn traced_checkpoint(&mut self, repo: &mut XmlRepository) -> Result<(), String> {
        let before = Snap::take(repo);
        let t = Instant::now();
        repo.checkpoint().map_err(|e| e.to_string())?;
        self.checkpoint_ns += ns(t);
        self.checkpoint_runs += 1;
        let mut d = before.delta(&Snap::take(repo));
        d.ops = 1;
        self.checkpoints.add(&d);
        Ok(())
    }

    pub fn add(&mut self, o: &Layers) {
        for i in 0..4 {
            self.counts[i].add(&o.counts[i]);
            let (a, b) = (&mut self.times[i], &o.times[i]);
            a.ops += b.ops;
            a.parse += b.parse;
            a.translate += b.translate;
            a.execute += b.execute;
            a.commit += b.commit;
            a.ou_plan += b.ou_plan;
            a.ou_sql += b.ou_sql;
            a.ou_reassemble += b.ou_reassemble;
        }
        self.checkpoints.add(&o.checkpoints);
        self.checkpoint_ns += o.checkpoint_ns;
        self.checkpoint_runs += o.checkpoint_runs;
    }

    /// All counts of the run (per kind, then checkpoints): the values a
    /// same-seed run must reproduce exactly.
    pub fn all_counts(&self) -> Vec<Counts> {
        let mut v = self.counts.to_vec();
        v.push(self.checkpoints);
        v
    }
}
