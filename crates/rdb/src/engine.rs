//! SQL execution engine: statement dispatch, query evaluation with
//! index-accelerated joins, trigger firing, and execution statistics.
//!
//! The engine is deliberately shaped like the slice of IBM DB2 the paper's
//! middleware exercised: everything arrives as SQL text (or a pre-parsed
//! [`Stmt`]), per-tuple and per-statement `AFTER DELETE` triggers cascade
//! inside the engine, and a statistics block exposes the quantities the
//! paper reasons about (statements executed, rows scanned, trigger
//! firings, index lookups).

use crate::ast::*;
use crate::cells::{Counter, DurCell, FlagCell, IdCell, OptDurCell};
use crate::error::{DbError, Result};
use crate::exec::{CteEnv, EvalCtx, ExecCtx, PlanProf, RowFilter, RowsScanned, SliceEnv};
use crate::mvcc::MvccState;
use crate::obs::{self, Metric, SlowQuery, Span};
use crate::parser::{parse_script_with_text, parse_stmt_with_params};
use crate::plan::{PlanSlot, SelectPlan};
use crate::sql::stmt_to_sql;
use crate::storage::{
    BackendKind, CatalogTable, CheckpointCatalog, MemoryBackend, PagedStore, StorageBackend,
    StorageConfig, StorageMetrics,
};
use crate::table::{Table, TableSchema};
use crate::txn::{FaultState, Savepoint, TxnState, UndoRecord};
use crate::value::{Row, Value};
use crate::wal::{self, WalRecord};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::sync::Mutex;

/// Cascading triggers deeper than this abort execution (recursive schemas
/// with always-firing triggers would otherwise loop; see the cascading
/// delete discussion in paper Section 6.1.2).
const MAX_TRIGGER_DEPTH: usize = 100;

/// Upper bound on cached statement plans. The paper's workloads cycle
/// through a few dozen statement shapes per relation, so the cache stays
/// far below this in practice; the bound only protects against clients
/// that submit unbounded families of distinct SQL texts.
const PLAN_CACHE_CAPACITY: usize = 512;

/// Execution counters. All counters are cumulative; use
/// [`Database::reset_stats`] between measurements.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Statements submitted through the public API.
    pub client_statements: u64,
    /// All statements executed, including trigger bodies.
    pub total_statements: u64,
    /// Rows visited by scans and hash-build passes.
    pub rows_scanned: u64,
    /// Rows inserted.
    pub rows_inserted: u64,
    /// Rows deleted.
    pub rows_deleted: u64,
    /// Rows updated.
    pub rows_updated: u64,
    /// Trigger firings (per-row triggers count once per row).
    pub trigger_firings: u64,
    /// Probes answered by a persistent index.
    pub index_lookups: u64,
    /// Statements compiled from SQL text (each distinct statement shape
    /// should be parsed once; repeats come from the plan cache).
    pub statements_parsed: u64,
    /// `execute`/`prepare` calls answered by the plan cache.
    pub plan_cache_hits: u64,
    /// `execute`/`prepare` calls that had to parse.
    pub plan_cache_misses: u64,
    /// Transactions committed: explicit `COMMIT`s plus autocommitted
    /// statements that mutated state.
    pub txn_commits: u64,
    /// Rollbacks applied: explicit `ROLLBACK`/`ROLLBACK TO` plus
    /// automatic statement-level rollbacks of failed statements.
    pub txn_rollbacks: u64,
    /// Undo records appended to the transaction log.
    pub undo_records: u64,
    /// WAL records written to disk (frame markers included).
    pub wal_records: u64,
    /// Bytes appended to the WAL (framing included).
    pub wal_bytes: u64,
    /// `fsync` calls issued by WAL appends (group-flushed commits).
    pub wal_fsyncs: u64,
    /// Checkpoints taken (snapshot written, WAL truncated).
    pub checkpoints: u64,
    /// Committed transactions replayed from the WAL by the most recent
    /// [`Database::open`]. Set once at open; `reset_stats` zeroes it.
    pub recovered_txns: u64,
    /// Physical SELECT plans compiled by the planner (cache hits on a
    /// still-valid plan slot do not recompile).
    pub plans_built: u64,
    /// Sequential scans opened by the executor.
    pub seq_scans: u64,
    /// Index scans opened by the executor (SELECT probes plus the
    /// DELETE/UPDATE position-finding probes).
    pub index_scans: u64,
    /// Hash-join build sides materialized.
    pub hash_join_builds: u64,
    /// IN-list probe sets materialized (once per statement per list;
    /// correlated lists never build one).
    pub in_list_builds: u64,
    /// Filter conjuncts pushed down into scans at plan time.
    pub predicates_pushed: u64,
    /// WAL payload bytes replayed by the most recent [`Database::open`]
    /// (header excluded). Set once at open; `reset_stats` zeroes it.
    pub wal_replayed_bytes: u64,
    /// Wall-clock time of the most recent [`Database::open`] recovery
    /// (snapshot load + WAL replay), in microseconds.
    pub recovery_micros: u64,
    /// Pages written by checkpoints: dirty buffer-pool frames plus meta
    /// on the paged backend, snapshot size in page units on the memory
    /// backend.
    pub checkpoint_pages_written: u64,
    /// Bytes written by checkpoints (page images + meta, or the full
    /// snapshot).
    pub checkpoint_bytes_written: u64,
    /// Range seeks answered by an ordered index (bounded scans that
    /// narrowed their candidate set through a B-tree range probe).
    pub range_seeks: u64,
    /// Scans that walked an ordered index in key order (ORDER BY
    /// pushdown and ordered-range access paths).
    pub ordered_index_scans: u64,
    /// Sorts elided because an ordered index already produced the
    /// requested ORDER BY order.
    pub sorts_elided: u64,
    /// `ANALYZE` statistics rebuilds (one per table analyzed).
    pub stats_rebuilds: u64,
}

#[derive(Debug, Default)]
pub(crate) struct StatsCells {
    pub(crate) client_statements: Counter,
    pub(crate) total_statements: Counter,
    pub(crate) rows_scanned: Counter,
    pub(crate) rows_inserted: Counter,
    pub(crate) rows_deleted: Counter,
    pub(crate) rows_updated: Counter,
    pub(crate) trigger_firings: Counter,
    pub(crate) index_lookups: Counter,
    pub(crate) statements_parsed: Counter,
    pub(crate) plan_cache_hits: Counter,
    pub(crate) plan_cache_misses: Counter,
    pub(crate) txn_commits: Counter,
    pub(crate) txn_rollbacks: Counter,
    pub(crate) undo_records: Counter,
    pub(crate) wal_records: Counter,
    pub(crate) wal_bytes: Counter,
    pub(crate) wal_fsyncs: Counter,
    pub(crate) checkpoints: Counter,
    pub(crate) recovered_txns: Counter,
    pub(crate) plans_built: Counter,
    pub(crate) seq_scans: Counter,
    pub(crate) index_scans: Counter,
    pub(crate) hash_join_builds: Counter,
    pub(crate) in_list_builds: Counter,
    pub(crate) predicates_pushed: Counter,
    pub(crate) wal_replayed_bytes: Counter,
    pub(crate) recovery_micros: Counter,
    pub(crate) checkpoint_pages_written: Counter,
    pub(crate) checkpoint_bytes_written: Counter,
    pub(crate) range_seeks: Counter,
    pub(crate) ordered_index_scans: Counter,
    pub(crate) sorts_elided: Counter,
    pub(crate) stats_rebuilds: Counter,
}

impl StatsCells {
    fn snapshot(&self) -> Stats {
        Stats {
            client_statements: self.client_statements.get(),
            total_statements: self.total_statements.get(),
            rows_scanned: self.rows_scanned.get(),
            rows_inserted: self.rows_inserted.get(),
            rows_deleted: self.rows_deleted.get(),
            rows_updated: self.rows_updated.get(),
            trigger_firings: self.trigger_firings.get(),
            index_lookups: self.index_lookups.get(),
            statements_parsed: self.statements_parsed.get(),
            plan_cache_hits: self.plan_cache_hits.get(),
            plan_cache_misses: self.plan_cache_misses.get(),
            txn_commits: self.txn_commits.get(),
            txn_rollbacks: self.txn_rollbacks.get(),
            undo_records: self.undo_records.get(),
            wal_records: self.wal_records.get(),
            wal_bytes: self.wal_bytes.get(),
            wal_fsyncs: self.wal_fsyncs.get(),
            checkpoints: self.checkpoints.get(),
            recovered_txns: self.recovered_txns.get(),
            plans_built: self.plans_built.get(),
            seq_scans: self.seq_scans.get(),
            index_scans: self.index_scans.get(),
            hash_join_builds: self.hash_join_builds.get(),
            in_list_builds: self.in_list_builds.get(),
            predicates_pushed: self.predicates_pushed.get(),
            wal_replayed_bytes: self.wal_replayed_bytes.get(),
            recovery_micros: self.recovery_micros.get(),
            checkpoint_pages_written: self.checkpoint_pages_written.get(),
            checkpoint_bytes_written: self.checkpoint_bytes_written.get(),
            range_seeks: self.range_seeks.get(),
            ordered_index_scans: self.ordered_index_scans.get(),
            sorts_elided: self.sorts_elided.get(),
            stats_rebuilds: self.stats_rebuilds.get(),
        }
    }

    pub(crate) fn bump(cell: &Counter, by: u64) {
        cell.add(by);
    }
}

/// A registered trigger.
#[derive(Debug, Clone)]
pub struct Trigger {
    /// Trigger name.
    pub name: String,
    /// Firing event.
    pub event: TriggerEvent,
    /// Table (lower-cased) the trigger watches.
    pub table: String,
    /// Firing granularity.
    pub granularity: TriggerGranularity,
    /// Parsed body.
    pub body: Arc<Vec<Stmt>>,
}

/// A query result: column names plus rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Row>,
}

impl ResultSet {
    /// Index of an output column by case-insensitive name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
    }

    /// Single-value convenience accessor (first row, first column).
    pub fn scalar(&self) -> Option<&Value> {
        self.rows.first().and_then(|r| r.first())
    }
}

/// Outcome of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecResult {
    /// A query's result set.
    Rows(ResultSet),
    /// Rows affected by DML.
    Affected(usize),
    /// DDL completed.
    Ddl,
    /// Transaction control (`BEGIN`/`COMMIT`/`ROLLBACK`/`SAVEPOINT`)
    /// completed.
    Txn,
    /// `CHECKPOINT` completed: snapshot written, WAL truncated.
    Checkpoint,
}

impl ExecResult {
    /// Rows affected (0 for non-DML).
    pub fn affected(&self) -> usize {
        match self {
            ExecResult::Affected(n) => *n,
            _ => 0,
        }
    }
}

/// A statement compiled once and executable many times with bound
/// parameter values — the engine-side analogue of the JDBC
/// `PreparedStatement`s the paper's middleware holds against DB2.
///
/// Obtained from [`Database::prepare`]; executed with
/// [`Database::execute_prepared`]. The compiled plan is owned by the
/// handle and shared with the plan cache entry for the same text; DDL
/// does not invalidate it, because names are resolved against the
/// catalog at execution time and the physical plan replans when the
/// schema epoch moves.
#[derive(Debug, Clone)]
pub struct PreparedStmt {
    stmt: Arc<Stmt>,
    params: usize,
    sql: String,
    /// Physical-plan slot shared with the SQL-text plan cache entry for
    /// the same text; replanned lazily when the schema epoch moves.
    slot: Arc<PlanSlot>,
}

impl PreparedStmt {
    /// Number of parameter slots the statement binds.
    pub fn param_count(&self) -> usize {
        self.params
    }

    /// The SQL text the statement was compiled from.
    pub fn sql(&self) -> &str {
        &self.sql
    }
}

/// Bounded LRU cache of compiled plans keyed on SQL text.
#[derive(Debug)]
struct PlanCache {
    plans: HashMap<String, CachedPlan>,
    /// Monotonic use counter driving LRU eviction.
    tick: u64,
    capacity: usize,
}

#[derive(Debug)]
struct CachedPlan {
    stmt: Arc<Stmt>,
    params: usize,
    last_used: u64,
    slot: Arc<PlanSlot>,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache {
            plans: HashMap::new(),
            tick: 0,
            capacity: PLAN_CACHE_CAPACITY,
        }
    }
}

impl PlanCache {
    fn get(&mut self, sql: &str) -> Option<(Arc<Stmt>, usize, Arc<PlanSlot>)> {
        self.tick += 1;
        let tick = self.tick;
        self.plans.get_mut(sql).map(|p| {
            p.last_used = tick;
            (p.stmt.clone(), p.params, p.slot.clone())
        })
    }

    fn insert(&mut self, sql: &str, stmt: Arc<Stmt>, params: usize, slot: Arc<PlanSlot>) {
        if self.plans.len() >= self.capacity && !self.plans.contains_key(sql) {
            // Evict the least recently used plan. O(n), but only on the
            // rare capacity-overflow path.
            if let Some(victim) = self
                .plans
                .iter()
                .min_by_key(|(_, p)| p.last_used)
                .map(|(k, _)| k.clone())
            {
                self.plans.remove(&victim);
            }
        }
        self.tick += 1;
        let tick = self.tick;
        self.plans.insert(
            sql.to_string(),
            CachedPlan {
                stmt,
                params,
                last_used: tick,
                slot,
            },
        );
    }
}

/// The in-memory relational database.
#[derive(Debug)]
pub struct Database {
    pub(crate) tables: HashMap<String, Table>,
    triggers: Vec<Trigger>,
    pub(crate) stats: StatsCells,
    next_id: IdCell,
    /// Simulated per-client-statement overhead (see
    /// [`Database::set_statement_cost`]).
    statement_cost: DurCell,
    /// Parsed statements for SQL text seen by `execute`/`prepare`. DDL
    /// leaves them in place: a parsed statement holds no catalog state,
    /// and the physical plan in its slot is epoch-stamped.
    plan_cache: Mutex<PlanCache>,
    /// Bumped on every DDL, on rollback of DDL, on a planner-mode switch
    /// and after recovery; physical plans carry the epoch they were
    /// built under and replan when it moves.
    pub(crate) schema_epoch: Counter,
    /// When set, the planner skips predicate pushdown and index-access
    /// selection and re-checks the whole filter on joined rows,
    /// reproducing the pre-planner AST interpreter's strategy (for A/B
    /// experiments).
    pub(crate) planner_naive: FlagCell,
    /// Undo log, explicit-transaction flag, and savepoints.
    txn: TxnState,
    /// Armed fault-injection counters (see
    /// [`Database::fail_after_statements`]).
    fault: FaultState,
    /// Durable-storage attachment, present iff the database was created
    /// with [`Database::open`]. `None` while recovery replays the log so
    /// replayed work is not re-logged.
    durable: Option<DurableState>,
    /// Slow-query threshold; statements at or above it are recorded in
    /// `slow_log`. `None` disables the log (the default).
    slow_threshold: OptDurCell,
    /// Retained slow-query records, oldest first, capped at
    /// [`obs::SLOW_QUERY_CAPACITY`](crate::obs).
    slow_log: Mutex<Vec<SlowQuery>>,
    /// MVCC epoch, snapshot registry, and concurrency metrics (see
    /// [`crate::mvcc`]).
    pub(crate) mvcc: MvccState,
    /// Storage backend underneath the in-memory tables (see
    /// [`crate::storage`]). [`MemoryBackend`] — every hook a no-op —
    /// unless [`Database::open_with`] selected the paged store.
    storage: Arc<dyn StorageBackend>,
    /// Per-statement execution aggregates (`rdb_statements`), keyed by
    /// literal-normalized fingerprint. Off by default.
    pub(crate) statements: crate::sysview::StatementStore,
    /// Live-session registry (`rdb_sessions`), shared with the session
    /// layer via [`Database::session_registry`].
    pub(crate) sessions: Arc<crate::sysview::SessionRegistry>,
    /// Instant this `Database` value was created — the anchor for the
    /// `rdb_uptime_seconds` gauge.
    pub(crate) created: std::time::Instant,
    /// Unix timestamp (seconds) of the most recent crash recovery
    /// performed by [`Database::open_with`]; 0 when the database never
    /// recovered. Exposed as the `rdb_recovery_timestamp_seconds` gauge.
    pub(crate) recovered_at: Counter,
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

/// On-disk attachment of a durable database: the storage directory, the
/// open WAL appender, and the checkpoint generation bookkeeping.
#[derive(Debug)]
struct DurableState {
    /// Directory holding `wal.bin` and `snapshot.bin`.
    dir: PathBuf,
    /// Buffered appender positioned at the WAL's end.
    wal: Mutex<std::io::BufWriter<fs::File>>,
    /// Whether commits `fsync` the WAL (default true; benchmarks may
    /// disable it to isolate the logging cost from the disk cost).
    sync: FlagCell,
    /// Group-commit window: commits coalesced per `fsync` (≤ 1 syncs
    /// every commit, the default). With a window of N, each commit
    /// appends and flushes its frames immediately but the `fsync` is
    /// deferred until N commits have joined the group; the one
    /// `sync_data` then acknowledges them all.
    group_window: Counter,
    /// Commits appended since the last fsync — the open group.
    pending_commits: Counter,
    /// WAL length in bytes known to be fsynced: the group-commit sync
    /// ticket. A commit whose frames end at or before this offset is
    /// acknowledged durable.
    synced_len: Counter,
    /// WAL length in bytes appended and flushed to the OS.
    appended_len: Counter,
    /// Commits acknowledged by a group fsync (or subsumed by a
    /// checkpoint snapshot) so far.
    acked_commits: Counter,
    /// Checkpoint generation stamped in both the snapshot body and the
    /// WAL header. A WAL whose generation trails the snapshot's is
    /// leftover from before a checkpoint whose truncation never landed —
    /// recovery discards it.
    generation: u64,
    /// Monotonic transaction sequence number for WAL frames.
    txn_seq: Counter,
}

/// WAL file name inside a durable database's directory.
const WAL_FILE: &str = "wal.bin";
/// Snapshot file name inside a durable database's directory.
const SNAPSHOT_FILE: &str = "snapshot.bin";
/// Temporary snapshot name; atomically renamed over [`SNAPSHOT_FILE`].
const SNAPSHOT_TMP: &str = "snapshot.tmp";

fn storage_err(ctx: &str, e: &std::io::Error) -> DbError {
    DbError::Storage(format!("{ctx}: {e}"))
}

/// A deleted row captured for undo: its slot position, the row itself,
/// and its offset inside each index bucket.
type DeletedRowUndo = (usize, Row, Vec<(usize, usize)>);

/// One timed statement execution, as handed from the logged funnels to
/// [`Database::account_statement`].
struct StatementSample {
    /// Record into the per-statement store (tracking on + success).
    track: bool,
    /// Slow-query threshold in effect, if any.
    threshold: Option<std::time::Duration>,
    /// Wall-clock execution time.
    elapsed: std::time::Duration,
    /// Rows returned (queries) or affected (DML).
    rows: u64,
    /// WAL bytes appended while the statement ran.
    wal_bytes: u64,
    /// Rows scanned/inserted/deleted/updated by the statement.
    rows_touched: u64,
    /// `(phase, total ns)` span breakdown collected during the statement.
    phases: Vec<(&'static str, u64)>,
}

impl Database {
    /// Create an empty database.
    pub fn new() -> Self {
        Database {
            tables: HashMap::new(),
            triggers: Vec::new(),
            stats: StatsCells::default(),
            next_id: IdCell::new(0),
            statement_cost: DurCell::default(),
            plan_cache: Mutex::new(PlanCache::default()),
            schema_epoch: Counter::new(0),
            planner_naive: FlagCell::new(false),
            txn: TxnState::default(),
            fault: FaultState::default(),
            durable: None,
            slow_threshold: OptDurCell::default(),
            slow_log: Mutex::new(Vec::new()),
            mvcc: MvccState::default(),
            storage: Arc::new(MemoryBackend),
            statements: crate::sysview::StatementStore::default(),
            sessions: Arc::new(crate::sysview::SessionRegistry::default()),
            created: std::time::Instant::now(),
            recovered_at: Counter::new(0),
        }
    }

    /// The live-session registry, shared with the session layer so
    /// `rdb_sessions` reflects sessions opened through
    /// [`SharedDatabase`](crate::session::SharedDatabase).
    pub(crate) fn session_registry(&self) -> Arc<crate::sysview::SessionRegistry> {
        self.sessions.clone()
    }

    /// Simulate a fixed per-*client*-statement overhead (the round-trip +
    /// SQL-compilation cost a JDBC application pays against a real RDBMS
    /// such as the paper's DB2 setup). Statements executed inside trigger
    /// bodies are not charged — they run inside the engine. Zero by
    /// default; the benchmark harness enables it so that strategies
    /// trading statement count against set-oriented work (tuple- vs
    /// table-based insert, Section 6.2) face the paper's trade-off.
    pub fn set_statement_cost(&mut self, cost: std::time::Duration) {
        self.statement_cost.set(cost);
    }

    /// The configured per-client-statement overhead.
    pub fn statement_cost(&self) -> std::time::Duration {
        self.statement_cost.get()
    }

    #[inline]
    fn charge_statement(&self) {
        let cost = self.statement_cost.get();
        if !cost.is_zero() {
            let start = std::time::Instant::now();
            while start.elapsed() < cost {
                std::hint::spin_loop();
            }
        }
    }

    /// Snapshot of the execution counters.
    pub fn stats(&self) -> Stats {
        self.stats.snapshot()
    }

    /// Zero all counters.
    pub fn reset_stats(&mut self) {
        self.stats = StatsCells::default();
    }

    /// Record statements whose wall-clock latency is at or above
    /// `threshold` in the slow-query log (SQL text, phase breakdown,
    /// rows touched). `None` disables the log. The log keeps the most
    /// recent [`obs::SLOW_QUERY_CAPACITY`](crate::obs) entries.
    pub fn set_slow_query_threshold(&mut self, threshold: Option<std::time::Duration>) {
        self.slow_threshold.set(threshold);
    }

    /// Drain the slow-query log, oldest first.
    pub fn take_slow_queries(&mut self) -> Vec<SlowQuery> {
        std::mem::take(&mut *self.slow_log.lock().unwrap())
    }

    /// The metrics registry: every [`Stats`] counter as an `rdb_*`
    /// counter metric, point-in-time gauges (tables, plan-cache entries,
    /// WAL size, transaction state), and — when tracing has recorded
    /// spans — per-phase latency series labelled by phase name.
    pub fn metrics(&self) -> Vec<Metric> {
        let s = self.stats.snapshot();
        let mut m = vec![
            Metric::counter(
                "rdb_client_statements_total",
                "Statements submitted through the public API",
                s.client_statements,
            ),
            Metric::counter(
                "rdb_total_statements_total",
                "All statements executed, including trigger bodies",
                s.total_statements,
            ),
            Metric::counter(
                "rdb_rows_scanned_total",
                "Rows visited by scans and hash-build passes",
                s.rows_scanned,
            ),
            Metric::counter("rdb_rows_inserted_total", "Rows inserted", s.rows_inserted),
            Metric::counter("rdb_rows_deleted_total", "Rows deleted", s.rows_deleted),
            Metric::counter("rdb_rows_updated_total", "Rows updated", s.rows_updated),
            Metric::counter(
                "rdb_trigger_firings_total",
                "Trigger firings (per-row triggers count once per row)",
                s.trigger_firings,
            ),
            Metric::counter(
                "rdb_index_lookups_total",
                "Probes answered by a persistent index",
                s.index_lookups,
            ),
            Metric::counter(
                "rdb_statements_parsed_total",
                "Statements compiled from SQL text",
                s.statements_parsed,
            ),
            Metric::counter(
                "rdb_plan_cache_hits_total",
                "execute/prepare calls answered by the plan cache",
                s.plan_cache_hits,
            ),
            Metric::counter(
                "rdb_plan_cache_misses_total",
                "execute/prepare calls that had to parse",
                s.plan_cache_misses,
            ),
            Metric::counter(
                "rdb_txn_commits_total",
                "Transactions committed (explicit plus autocommit)",
                s.txn_commits,
            ),
            Metric::counter(
                "rdb_txn_rollbacks_total",
                "Rollbacks applied (explicit plus statement-level)",
                s.txn_rollbacks,
            ),
            Metric::counter(
                "rdb_undo_records_total",
                "Undo records appended to the transaction log",
                s.undo_records,
            ),
            Metric::counter(
                "rdb_wal_records_total",
                "WAL records written to disk (frame markers included)",
                s.wal_records,
            ),
            Metric::counter(
                "rdb_wal_bytes_total",
                "Bytes appended to the WAL (framing included)",
                s.wal_bytes,
            ),
            Metric::counter(
                "rdb_wal_fsyncs_total",
                "fsync calls issued by WAL appends",
                s.wal_fsyncs,
            ),
            Metric::counter(
                "rdb_checkpoints_total",
                "Checkpoints taken (snapshot written, WAL truncated)",
                s.checkpoints,
            ),
            Metric::counter(
                "rdb_checkpoint_pages_written_total",
                "Pages written by checkpoints (dirty frames + meta, or snapshot size in pages)",
                s.checkpoint_pages_written,
            ),
            Metric::counter(
                "rdb_checkpoint_bytes_written_total",
                "Bytes written by checkpoints",
                s.checkpoint_bytes_written,
            ),
            Metric::counter(
                "rdb_recovered_txns_total",
                "Committed transactions replayed by the most recent open",
                s.recovered_txns,
            ),
            Metric::counter(
                "rdb_wal_replayed_bytes_total",
                "WAL payload bytes replayed by the most recent open",
                s.wal_replayed_bytes,
            ),
            Metric::counter(
                "rdb_recovery_micros_total",
                "Wall-clock recovery time of the most recent open (microseconds)",
                s.recovery_micros,
            ),
            Metric::counter(
                "rdb_plans_built_total",
                "Physical SELECT plans compiled by the planner",
                s.plans_built,
            ),
            Metric::counter(
                "rdb_seq_scans_total",
                "Sequential scans opened by the executor",
                s.seq_scans,
            ),
            Metric::counter(
                "rdb_index_scans_total",
                "Index scans opened by the executor",
                s.index_scans,
            ),
            Metric::counter(
                "rdb_hash_join_builds_total",
                "Hash-join build sides materialized",
                s.hash_join_builds,
            ),
            Metric::counter(
                "rdb_in_list_builds_total",
                "IN-list probe sets materialized (once per statement per list)",
                s.in_list_builds,
            ),
            Metric::counter(
                "rdb_predicates_pushed_total",
                "Filter conjuncts pushed down into scans at plan time",
                s.predicates_pushed,
            ),
            Metric::counter(
                "rdb_range_seeks_total",
                "Range seeks answered by an ordered index",
                s.range_seeks,
            ),
            Metric::counter(
                "rdb_ordered_index_scans_total",
                "Scans that walked an ordered index in key order",
                s.ordered_index_scans,
            ),
            Metric::counter(
                "rdb_sorts_elided_total",
                "Sorts elided because an ordered index yielded index order",
                s.sorts_elided,
            ),
            Metric::counter(
                "rdb_stats_rebuilds_total",
                "ANALYZE statistics rebuilds",
                s.stats_rebuilds,
            ),
            Metric::gauge(
                "rdb_tables",
                "Tables in the catalog",
                self.tables.len() as u64,
            ),
            Metric::gauge(
                "rdb_plan_cache_entries",
                "Compiled plans cached by SQL text",
                self.plan_cache.lock().unwrap().plans.len() as u64,
            ),
            Metric::gauge(
                "rdb_wal_size_bytes",
                "Current WAL file size (0 when non-durable)",
                self.wal_size(),
            ),
            Metric::gauge(
                "rdb_in_transaction",
                "Whether an explicit transaction is open",
                self.txn.explicit as u64,
            ),
            Metric::gauge(
                "rdb_undo_log_len",
                "Undo records currently in the transaction log",
                self.txn.log.len() as u64,
            ),
            Metric::gauge(
                "rdb_slow_queries",
                "Slow-query records currently retained",
                self.slow_log.lock().unwrap().len() as u64,
            ),
            Metric::counter(
                "rdb_snapshot_reads_total",
                "Queries answered against a pinned MVCC snapshot",
                self.mvcc.snapshot_reads.get(),
            ),
            Metric::gauge(
                "rdb_active_sessions",
                "Sessions currently open on the shared database",
                self.mvcc.active_sessions.get(),
            ),
            Metric::gauge(
                "rdb_snapshot_versions_retained",
                "MVCC before-images retained across all tables",
                self.snapshot_versions_retained(),
            ),
            Metric::gauge(
                "rdb_uptime_seconds",
                "Seconds since this database instance was created",
                self.created.elapsed().as_secs(),
            ),
            Metric::gauge(
                "rdb_recovery_timestamp_seconds",
                "Unix time of the most recent crash recovery (0 = never)",
                self.recovered_at.get(),
            ),
            Metric::gauge(
                "rdb_statement_tracking_enabled",
                "Whether per-statement statistics collection is on",
                self.statements.enabled() as u64,
            ),
            Metric::gauge(
                "rdb_tracked_statements",
                "Statement fingerprints currently in the statistics store",
                self.statements.len() as u64,
            ),
            Metric::counter(
                "rdb_statement_store_evictions_total",
                "Fingerprints evicted by the statement store's capacity bound",
                self.statements.evictions(),
            ),
        ];
        if self.storage.kind() != BackendKind::Memory {
            let sm = self.storage.metrics();
            m.push(Metric::counter(
                "rdb_storage_pool_hits_total",
                "Buffer-pool page requests answered from a resident frame",
                sm.pool.hits,
            ));
            m.push(Metric::counter(
                "rdb_storage_pool_misses_total",
                "Buffer-pool page requests that read the page file",
                sm.pool.misses,
            ));
            m.push(Metric::counter(
                "rdb_storage_pool_evictions_total",
                "Buffer-pool frames reclaimed by the clock hand",
                sm.pool.evictions,
            ));
            m.push(Metric::counter(
                "rdb_storage_pool_writebacks_total",
                "Dirty frames written back at eviction time",
                sm.pool.writebacks,
            ));
            m.push(Metric::gauge(
                "rdb_storage_pool_frames",
                "Configured buffer-pool frame budget",
                sm.pool_frames,
            ));
            m.push(Metric::gauge(
                "rdb_storage_pages_allocated",
                "Highest allocated page id in the page store",
                sm.pages_allocated,
            ));
        }
        {
            // Writer-admission wait histogram (recorded in ns, reported
            // in µs to match the metric name).
            let h = self.mvcc.write_lock_wait_us.lock().unwrap();
            m.push(Metric::counter(
                "rdb_write_lock_wait_count",
                "Writer-admission waits recorded",
                h.count(),
            ));
            m.push(Metric::counter(
                "rdb_write_lock_wait_us_sum",
                "Total writer-admission wait time (microseconds)",
                h.sum_ns() / 1000,
            ));
            m.push(Metric::gauge(
                "rdb_write_lock_wait_us_p50",
                "Median writer-admission wait (microseconds)",
                h.p50_ns() / 1000,
            ));
            m.push(Metric::gauge(
                "rdb_write_lock_wait_us_p95",
                "95th-percentile writer-admission wait (microseconds)",
                h.p95_ns() / 1000,
            ));
        }
        // Grouped per family so the Prometheus renderer emits each
        // HELP/TYPE header once.
        let phases = obs::phase_stats();
        for ps in &phases {
            let mut metric = Metric::counter(
                "rdb_phase_spans_total",
                "Spans recorded per phase",
                ps.count,
            );
            metric.labels.push(("phase", ps.name.to_string()));
            m.push(metric);
        }
        for ps in &phases {
            let mut metric = Metric::counter(
                "rdb_phase_ns_total",
                "Total time spent per phase (nanoseconds)",
                ps.total_ns,
            );
            metric.labels.push(("phase", ps.name.to_string()));
            m.push(metric);
        }
        for ps in &phases {
            let mut metric = Metric::gauge(
                "rdb_phase_p95_ns",
                "95th-percentile phase latency estimate (nanoseconds)",
                ps.p95_ns,
            );
            metric.labels.push(("phase", ps.name.to_string()));
            m.push(metric);
        }
        m
    }

    /// The metrics registry rendered in the Prometheus text exposition
    /// format.
    pub fn metrics_text(&self) -> String {
        obs::render_prometheus(&self.metrics())
    }

    /// Name/value pairs for the `rdb_wal` system view: WAL counters from
    /// [`Stats`] plus the live durability state (group-commit window and
    /// progress offsets) when the database is durable.
    pub(crate) fn wal_view_rows(&self) -> Vec<(&'static str, u64)> {
        let s = self.stats();
        let mut rows = vec![
            ("durable", self.durable.is_some() as u64),
            ("wal_size_bytes", self.wal_size()),
            ("wal_records_total", s.wal_records),
            ("wal_bytes_total", s.wal_bytes),
            ("wal_fsyncs_total", s.wal_fsyncs),
            ("wal_replayed_bytes", s.wal_replayed_bytes),
        ];
        if let Some(d) = &self.durable {
            rows.push(("group_commit_window", d.group_window.get()));
            rows.push(("pending_commits", d.pending_commits.get()));
            rows.push(("acked_commits", d.acked_commits.get()));
            rows.push(("appended_len", d.appended_len.get()));
            rows.push(("synced_len", d.synced_len.get()));
            rows.push(("txn_seq", d.txn_seq.get()));
        }
        rows
    }

    /// Name/value pairs for the `rdb_checkpoints` system view:
    /// checkpoint counters plus the most recent recovery's telemetry.
    pub(crate) fn checkpoint_view_rows(&self) -> Vec<(&'static str, u64)> {
        let s = self.stats();
        let mut rows = vec![
            ("checkpoints_total", s.checkpoints),
            ("pages_written_total", s.checkpoint_pages_written),
            ("bytes_written_total", s.checkpoint_bytes_written),
            ("recovered_txns", s.recovered_txns),
            ("wal_replayed_bytes", s.wal_replayed_bytes),
            ("recovery_micros", s.recovery_micros),
            ("recovery_timestamp", self.recovered_at.get()),
        ];
        if let Some(d) = &self.durable {
            rows.push(("generation", d.generation));
        }
        rows
    }

    /// Best-effort per-table page count from the storage backend
    /// (`None` on the in-memory backend, which has no pages).
    pub(crate) fn table_pages_hint(&self, table: &str) -> Option<u64> {
        self.storage.table_pages(table)
    }

    /// The system-wide "next available id" counter used by the id
    /// allocation heuristics of paper Section 6.2. Reserves `count` ids and
    /// returns the first.
    pub fn allocate_ids(&self, count: i64) -> i64 {
        let start = self.next_id.get();
        self.next_id.set(start + count);
        if count != 0 {
            self.wal_push(WalRecord::NextId {
                value: start + count,
            });
            self.autoflush_id_counter();
        }
        start
    }

    /// Raise the id counter to at least `floor` (used after bulk loads).
    pub fn bump_next_id(&self, floor: i64) {
        if self.next_id.get() < floor {
            self.next_id.set(floor);
            self.wal_push(WalRecord::NextId { value: floor });
            self.autoflush_id_counter();
        }
    }

    /// Id allocation happens between statements, so outside an explicit
    /// transaction nothing else would flush the `NextId` record — a
    /// crash right after a bulk load must not recover a stale counter
    /// under persisted rows. Best-effort: on failure the record stays
    /// buffered and the next successful flush carries it.
    fn autoflush_id_counter(&self) {
        if !self.txn.explicit {
            let _ = self.wal_flush_commit();
        }
    }

    /// Current value of the id counter without allocating.
    pub fn peek_next_id(&self) -> i64 {
        self.next_id.get()
    }

    /// Access a table by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(&name.to_ascii_lowercase())
    }

    /// Names of all tables (lower-cased), sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tables.keys().cloned().collect();
        v.sort();
        v
    }

    /// Registered triggers.
    pub fn triggers(&self) -> &[Trigger] {
        &self.triggers
    }

    /// Look up the compiled plan for `sql`, parsing and caching on a
    /// miss. The trailing `bool` reports whether the cache hit — the
    /// per-statement statistics store counts hits per fingerprint.
    fn plan_for(&self, sql: &str) -> Result<(Arc<Stmt>, usize, Arc<PlanSlot>, bool)> {
        if let Some((stmt, params, slot)) = self.plan_cache.lock().unwrap().get(sql) {
            StatsCells::bump(&self.stats.plan_cache_hits, 1);
            return Ok((stmt, params, slot, true));
        }
        StatsCells::bump(&self.stats.plan_cache_misses, 1);
        StatsCells::bump(&self.stats.statements_parsed, 1);
        let parse_span = Span::enter("sql.parse");
        let (stmt, params) = parse_stmt_with_params(sql)?;
        drop(parse_span);
        let stmt = Arc::new(stmt);
        let slot = Arc::new(PlanSlot::default());
        self.plan_cache
            .lock()
            .unwrap()
            .insert(sql, stmt.clone(), params, slot.clone());
        Ok((stmt, params, slot, false))
    }

    /// Advance the schema epoch so every physical plan built before it,
    /// whether reached through the plan cache or a prepared statement,
    /// replans on its next execution. Parsed statements stay cached.
    fn bump_schema_epoch(&self) {
        self.schema_epoch.set(self.schema_epoch.get() + 1);
    }

    /// Disable (or re-enable) the planner's predicate pushdown and
    /// index-access selection. With `naive` set, a SELECT still picks
    /// hash joins where an equality conjunct allows (the interpreter did
    /// too) but re-evaluates the whole filter on every joined row and
    /// never probes an index or pushes a predicate into a scan — the
    /// pre-planner AST interpreter's strategy, which the experiments use
    /// as the A side of interpreter-vs-planner comparisons.
    pub fn set_planner_naive(&mut self, naive: bool) {
        self.planner_naive.set(naive);
        self.bump_schema_epoch();
    }

    /// Physical plan for a top-level SELECT: reuse the statement's plan
    /// slot when its epoch is current, otherwise compile and store. The
    /// returned plan is pinned in `ctx.keepalive` for the statement.
    fn select_plan_for(&self, q: &SelectStmt, ctx: &EvalCtx<'_>) -> Result<Arc<SelectPlan>> {
        let plan = match &ctx.plan_slot {
            Some(slot) => {
                let epoch = self.schema_epoch.get();
                let cached = slot
                    .plan
                    .lock()
                    .unwrap()
                    .as_ref()
                    .filter(|(e, _)| *e == epoch)
                    .map(|(_, p)| p.clone());
                match cached {
                    Some(p) => p,
                    None => {
                        let p = Arc::new(self.build_select_plan(q, ctx)?);
                        *slot.plan.lock().unwrap() = Some((epoch, p.clone()));
                        p
                    }
                }
            }
            None => Arc::new(self.build_select_plan(q, ctx)?),
        };
        ctx.keepalive.borrow_mut().push(plan.clone());
        Ok(plan)
    }

    /// Execute one SQL statement. Repeat executions of the same SQL text
    /// reuse the cached plan instead of re-parsing.
    pub fn execute(&mut self, sql: &str) -> Result<ExecResult> {
        let (stmt, _, slot, hit) = self.plan_for(sql)?;
        StatsCells::bump(&self.stats.client_statements, 1);
        self.charge_statement();
        let mut ctx = EvalCtx::new();
        ctx.plan_slot = Some(slot);
        ctx.plan_cache_hit = hit;
        self.exec_client_logged(&stmt, &ctx, Some(sql))
    }

    /// Compile `sql` into a reusable [`PreparedStmt`]. `?` placeholders
    /// bind positionally; `$n` placeholders name their 1-based slot.
    /// Preparation does not count as a client statement — only
    /// [`Database::execute_prepared`] calls do.
    pub fn prepare(&self, sql: &str) -> Result<PreparedStmt> {
        let (stmt, params, slot, _) = self.plan_for(sql)?;
        Ok(PreparedStmt {
            stmt,
            params,
            sql: sql.to_string(),
            slot,
        })
    }

    /// Execute a prepared statement with `params` bound to its
    /// placeholders. The statement is not re-parsed; parameter values are
    /// substituted during evaluation.
    pub fn execute_prepared(
        &mut self,
        stmt: &PreparedStmt,
        params: &[Value],
    ) -> Result<ExecResult> {
        if params.len() != stmt.params {
            return Err(DbError::Execution(format!(
                "prepared statement binds {} parameter(s), got {}: {}",
                stmt.params,
                params.len(),
                stmt.sql
            )));
        }
        StatsCells::bump(&self.stats.client_statements, 1);
        self.charge_statement();
        let mut ctx = EvalCtx::with_params(params);
        ctx.plan_slot = Some(stmt.slot.clone());
        // A prepared statement reuses its compiled plan by construction.
        ctx.plan_cache_hit = true;
        self.exec_client_logged(&stmt.stmt, &ctx, Some(&stmt.sql))
    }

    /// Execute a prepared read-only query and return its result set.
    /// Shares the `&self` read path with [`Database::query`].
    pub fn query_prepared(&self, stmt: &PreparedStmt, params: &[Value]) -> Result<ResultSet> {
        self.query_prepared_at(stmt, params, None)
    }

    /// [`Database::query_prepared`] against a pinned MVCC snapshot.
    pub fn query_prepared_at(
        &self,
        stmt: &PreparedStmt,
        params: &[Value],
        snapshot: Option<u64>,
    ) -> Result<ResultSet> {
        if params.len() != stmt.params {
            return Err(DbError::Execution(format!(
                "prepared statement binds {} parameter(s), got {}: {}",
                stmt.params,
                params.len(),
                stmt.sql
            )));
        }
        StatsCells::bump(&self.stats.client_statements, 1);
        self.charge_statement();
        let mut ctx = EvalCtx::with_params(params);
        ctx.plan_slot = Some(stmt.slot.clone());
        ctx.snapshot = snapshot;
        ctx.plan_cache_hit = true;
        self.query_logged(&stmt.stmt, &ctx, Some(&stmt.sql))
    }

    /// Execute a pre-parsed statement (counts as one client statement).
    pub fn execute_stmt(&mut self, stmt: &Stmt) -> Result<ExecResult> {
        StatsCells::bump(&self.stats.client_statements, 1);
        self.charge_statement();
        self.exec_client_logged(stmt, &EvalCtx::new(), None)
    }

    /// Execute a `;`-separated script.
    ///
    /// On failure the error is a [`DbError::ScriptStatement`] carrying
    /// the failing statement's 0-based index and SQL text. Under
    /// autocommit every statement *preceding* the failing one stays
    /// applied (each committed on its own); the failing statement itself
    /// rolls back atomically. If the script opened an explicit
    /// transaction (`BEGIN`) that is still uncommitted at the point of
    /// failure, the preceding statements of that transaction remain
    /// pending — the caller decides whether to `COMMIT` or `ROLLBACK`
    /// them.
    pub fn run_script(&mut self, sql: &str) -> Result<Vec<ExecResult>> {
        let stmts = parse_script_with_text(sql)?;
        StatsCells::bump(&self.stats.statements_parsed, stmts.len() as u64);
        let mut out = Vec::with_capacity(stmts.len());
        for (index, (s, text)) in stmts.iter().enumerate() {
            StatsCells::bump(&self.stats.client_statements, 1);
            self.charge_statement();
            match self.exec_client_logged(s, &EvalCtx::new(), Some(text)) {
                Ok(r) => out.push(r),
                Err(cause) => {
                    return Err(DbError::ScriptStatement {
                        index,
                        sql: text.clone(),
                        cause: Box::new(cause),
                    })
                }
            }
        }
        Ok(out)
    }

    /// Run a read-only query (`SELECT`, `EXPLAIN`, or
    /// `EXPLAIN ANALYZE <select>`) and return its result set.
    ///
    /// Takes `&self`: concurrent sessions holding a shared reference can
    /// query simultaneously while a writer serializes through the
    /// `&mut self` statement paths (see [`crate::session`]). Reads see
    /// the live committed state; for a transaction-consistent view across
    /// statements use [`Database::query_at`] with a pinned snapshot.
    pub fn query(&self, sql: &str) -> Result<ResultSet> {
        self.query_at(sql, None)
    }

    /// [`Database::query`] against a pinned MVCC snapshot (from
    /// [`Database::begin_snapshot`]): every table is reconstructed as of
    /// that epoch, so a sequence of `query_at` calls with the same
    /// snapshot observes one transaction-consistent state regardless of
    /// concurrently committing writers.
    pub fn query_at(&self, sql: &str, snapshot: Option<u64>) -> Result<ResultSet> {
        let (stmt, _, slot, hit) = self.plan_for(sql)?;
        StatsCells::bump(&self.stats.client_statements, 1);
        self.charge_statement();
        let mut ctx = EvalCtx::new();
        ctx.plan_slot = Some(slot);
        ctx.snapshot = snapshot;
        ctx.plan_cache_hit = hit;
        self.query_logged(&stmt, &ctx, Some(sql))
    }

    /// Run a statement that returns rows through the full `&mut`
    /// statement funnel — needed for `EXPLAIN ANALYZE` over DML, which
    /// really executes its statement and therefore mutates.
    pub fn query_mut(&mut self, sql: &str) -> Result<ResultSet> {
        match self.execute(sql)? {
            ExecResult::Rows(rs) => Ok(rs),
            other => Err(DbError::Execution(format!("not a query: {other:?}"))),
        }
    }

    // ------------------------------------------------------------------
    // transactions
    // ------------------------------------------------------------------

    /// [`exec_client`] plus per-statement accounting. When a slow-query
    /// threshold is set the statement is timed, its spans are collected
    /// (even with tracing off), and on breach a [`SlowQuery`] record —
    /// attributed to the current session, snapshot epoch, and statement
    /// fingerprint — lands in the log with the SQL text (rendered from
    /// the AST when `sql` is not at hand), per-phase breakdown, and rows
    /// touched. When statement tracking is on, every successful
    /// execution is aggregated into the fingerprint store behind
    /// `rdb_statements`. With neither configured this is two atomic
    /// reads on top of [`exec_client`].
    fn exec_client_logged(
        &mut self,
        stmt: &Stmt,
        ctx: &EvalCtx<'_>,
        sql: Option<&str>,
    ) -> Result<ExecResult> {
        let threshold = self.slow_threshold.get();
        let track = self.statements.enabled();
        if threshold.is_none() && !track {
            return self.exec_client(stmt, ctx);
        }
        let touched_before = self.rows_touched();
        let wal_before = self.stats.wal_bytes.get();
        obs::stmt_collect_begin();
        let start = std::time::Instant::now();
        let result = self.exec_client(stmt, ctx);
        let elapsed = start.elapsed();
        let phases = obs::stmt_collect_end();
        let rows = match &result {
            Ok(ExecResult::Rows(rs)) => rs.rows.len() as u64,
            Ok(ExecResult::Affected(n)) => *n as u64,
            _ => 0,
        };
        self.account_statement(
            stmt,
            ctx,
            sql,
            StatementSample {
                track: track && result.is_ok(),
                threshold,
                elapsed,
                rows,
                wal_bytes: self.stats.wal_bytes.get() - wal_before,
                rows_touched: self.rows_touched() - touched_before,
                phases,
            },
        );
        result
    }

    /// [`exec_read`] plus per-statement accounting — the `&self` twin of
    /// [`exec_client_logged`], sharing the same thresholds, stores, and
    /// record shapes so read-path statements land in the same places.
    fn query_logged(&self, stmt: &Stmt, ctx: &EvalCtx<'_>, sql: Option<&str>) -> Result<ResultSet> {
        if ctx.snapshot.is_some() {
            StatsCells::bump(&self.mvcc.snapshot_reads, 1);
        }
        let threshold = self.slow_threshold.get();
        let track = self.statements.enabled();
        if threshold.is_none() && !track {
            return self.exec_read(stmt, ctx);
        }
        let touched_before = self.rows_touched();
        obs::stmt_collect_begin();
        let start = std::time::Instant::now();
        let result = self.exec_read(stmt, ctx);
        let elapsed = start.elapsed();
        let phases = obs::stmt_collect_end();
        let rows = result.as_ref().map_or(0, |rs| rs.rows.len() as u64);
        self.account_statement(
            stmt,
            ctx,
            sql,
            StatementSample {
                track: track && result.is_ok(),
                threshold,
                elapsed,
                rows,
                wal_bytes: 0,
                rows_touched: self.rows_touched() - touched_before,
                phases,
            },
        );
        result
    }

    /// Shared tail of the logged funnels: aggregate the sample into the
    /// statement store (when tracking) and into the slow-query log (when
    /// the threshold is breached). The fingerprint is read from the plan
    /// slot — computed at most once per SQL text — or computed on the
    /// spot for slot-less paths (`run_script`, `execute_stmt`).
    fn account_statement(
        &self,
        stmt: &Stmt,
        ctx: &EvalCtx<'_>,
        sql: Option<&str>,
        sample: StatementSample,
    ) {
        let slow = sample.threshold.is_some_and(|t| sample.elapsed >= t);
        if !sample.track && !slow {
            return;
        }
        let compute = || {
            Arc::new(match sql {
                Some(s) => crate::sysview::fingerprint(s),
                None => crate::sysview::fingerprint(&stmt_to_sql(stmt)),
            })
        };
        let fp = match &ctx.plan_slot {
            Some(slot) => slot.fingerprint.get_or_init(compute).clone(),
            None => compute(),
        };
        if sample.track {
            self.statements.record(
                &fp,
                sample.rows,
                sample.elapsed.as_nanos() as u64,
                ctx.plan_cache_hit,
                sample.wal_bytes,
            );
        }
        if slow {
            let mut log = self.slow_log.lock().unwrap();
            if log.len() >= obs::SLOW_QUERY_CAPACITY {
                log.remove(0);
            }
            log.push(SlowQuery {
                sql: match sql {
                    Some(s) => s.to_string(),
                    None => stmt_to_sql(stmt),
                },
                total_ns: sample.elapsed.as_nanos() as u64,
                phases: sample.phases,
                rows_touched: sample.rows_touched,
                session_id: crate::sysview::current_session(),
                snapshot_epoch: ctx.snapshot,
                fingerprint: fp.hash,
            });
        }
    }

    /// Read-only statement funnel: `SELECT`, plain `EXPLAIN`, and
    /// `EXPLAIN ANALYZE` over a SELECT. Mirrors [`exec_client`]'s
    /// bookkeeping (fault injection, statement counters, rollback stat
    /// on error) without touching the undo/redo machinery — a failed
    /// read has nothing to roll back.
    fn exec_read(&self, stmt: &Stmt, ctx: &EvalCtx<'_>) -> Result<ResultSet> {
        let _span = Span::enter("sql.execute");
        self.fault.check_statement()?;
        StatsCells::bump(&self.stats.total_statements, 1);
        let result = match stmt {
            Stmt::Select(q) => {
                let plan = self.select_plan_for(q, ctx)?;
                self.exec_select_plan(&plan, ctx)
            }
            Stmt::Explain { analyze, stmt } => match (*analyze, stmt.as_ref()) {
                (false, _) => self.explain_stmt(stmt, ctx),
                (true, Stmt::Select(q)) => self.explain_analyze_select(q, ctx),
                (true, _) => Err(DbError::Execution(
                    "EXPLAIN ANALYZE of DML executes the statement; \
                     use a write path (`execute`/`query_mut`)"
                        .into(),
                )),
            },
            other => Err(DbError::Execution(format!(
                "not a query: {}",
                stmt_to_sql(other)
            ))),
        };
        if result.is_err() {
            StatsCells::bump(&self.stats.txn_rollbacks, 1);
        }
        result
    }

    /// `EXPLAIN ANALYZE` for a SELECT: runs the plan with a per-operator
    /// profile and renders actuals. Shared by the `&self` read path and
    /// [`exec_explain_analyze`].
    fn explain_analyze_select(&self, q: &SelectStmt, ctx: &EvalCtx<'_>) -> Result<ResultSet> {
        let mut lines: Vec<String> = Vec::new();
        let start = std::time::Instant::now();
        let plan = self.select_plan_for(q, ctx)?;
        let prof = PlanProf::for_plan(&plan);
        self.exec_select_plan_prof(&plan, ctx, Some(&prof))?;
        let total_ns = start.elapsed().as_nanos() as u64;
        crate::plan::render_select_plan_prof(&plan, 0, &mut lines, Some(&prof));
        lines.push(format!("Execution time: {}", obs::fmt_ns(total_ns)));
        Ok(ResultSet {
            columns: vec!["plan".into()],
            rows: lines.into_iter().map(|l| vec![Value::Str(l)]).collect(),
        })
    }

    /// Rows scanned + inserted + deleted + updated so far (slow-query
    /// "rows touched" bookkeeping).
    fn rows_touched(&self) -> u64 {
        self.stats.rows_scanned.get()
            + self.stats.rows_inserted.get()
            + self.stats.rows_deleted.get()
            + self.stats.rows_updated.get()
    }

    /// Client-statement funnel: every public execution path lands here.
    ///
    /// Non-control statements run under statement-level atomicity — on
    /// error, everything the statement did (including trigger-body
    /// mutations, which share the same undo log) is rolled back before
    /// the error is returned, matching how a real RDBMS aborts a failed
    /// statement. Outside an explicit transaction a successful statement
    /// autocommits (its undo records are discarded).
    fn exec_client(&mut self, stmt: &Stmt, ctx: &EvalCtx<'_>) -> Result<ExecResult> {
        let _span = Span::enter("sql.execute");
        if stmt.is_txn_control() || matches!(stmt, Stmt::Checkpoint) {
            // Control statements manage the log; they are not run under
            // it and are exempt from the statement fault (so a test can
            // arm a fault and still COMMIT/ROLLBACK around it).
            return self.exec_internal(stmt, ctx, 0);
        }
        self.fault.check_statement()?;
        let mark = self.txn.mark();
        let redo_mark = self.txn.redo_mark();
        match self.exec_internal(stmt, ctx, 0) {
            Ok(r) => {
                if !self.txn.explicit {
                    // Autocommit: group-flush the statement's redo
                    // records as one committed WAL frame before
                    // declaring it durable and dropping the undo.
                    if let Err(e) = self.wal_flush_commit() {
                        self.rollback_to_mark(mark);
                        self.txn.redo.lock().unwrap().truncate(redo_mark);
                        StatsCells::bump(&self.stats.txn_rollbacks, 1);
                        return Err(e);
                    }
                    if !self.txn.log.is_empty() {
                        self.txn.log.clear();
                        StatsCells::bump(&self.stats.txn_commits, 1);
                        self.mvcc_commit();
                    }
                }
                Ok(r)
            }
            Err(e) => {
                self.rollback_to_mark(mark);
                self.txn.redo.lock().unwrap().truncate(redo_mark);
                StatsCells::bump(&self.stats.txn_rollbacks, 1);
                Err(e)
            }
        }
    }

    /// Open an explicit transaction. Statements until [`Database::commit`]
    /// or [`Database::rollback`] accumulate undo records as one unit.
    /// Nested transactions are not supported — use
    /// [`Database::savepoint`]. Direct API transaction control does not
    /// count as a client statement (it models JDBC's connection-level
    /// `setAutoCommit`/`commit`, not a round trip).
    pub fn begin(&mut self) -> Result<()> {
        if self.txn.explicit {
            return Err(DbError::Txn(
                "already in a transaction (nested BEGIN; use SAVEPOINT)".into(),
            ));
        }
        debug_assert!(self.txn.log.is_empty(), "autocommit left undo records");
        self.txn.explicit = true;
        self.txn.start_next_id = self.next_id.get();
        Ok(())
    }

    /// Commit the open transaction, discarding its undo log. On a durable
    /// database the buffered redo records are group-flushed to the WAL as
    /// one `TxnBegin … TxnCommit` frame first; if that write fails the
    /// transaction stays open (nothing was made durable) and the error is
    /// surfaced.
    pub fn commit(&mut self) -> Result<()> {
        if !self.txn.explicit {
            return Err(DbError::Txn("COMMIT outside a transaction".into()));
        }
        let _span = Span::enter("txn.commit");
        self.wal_flush_commit()?;
        self.txn.reset();
        StatsCells::bump(&self.stats.txn_commits, 1);
        self.mvcc_commit();
        Ok(())
    }

    /// Roll the open transaction back entirely: every recorded effect is
    /// undone (newest first) and the id counter returns to its
    /// `BEGIN`-time value.
    pub fn rollback(&mut self) -> Result<()> {
        if !self.txn.explicit {
            return Err(DbError::Txn("ROLLBACK outside a transaction".into()));
        }
        self.rollback_to_mark(0);
        let id_changed = self.next_id.get() != self.txn.start_next_id;
        self.next_id.set(self.txn.start_next_id);
        let had_redo = !self.txn.redo.lock().unwrap().is_empty();
        self.txn.reset();
        if self.durable.is_some() && had_redo {
            // Audit marker only: the aborted frame was discarded
            // unflushed, so replay has nothing to skip. Best-effort — a
            // failed append must not fail the (already complete)
            // rollback.
            let txn = self.next_wal_txn();
            let mut buf = Vec::new();
            wal::encode_frame(&WalRecord::TxnAbort { txn }, &mut buf);
            // The abort marker is not a commit: it must not claim a
            // group-commit sync ticket (`commits: 0`), or a rollback in
            // the window would inflate `wal_pending_commits` and a later
            // group fsync would acknowledge a commit that never happened.
            let _ = self.wal_append(&buf, 1, 0);
        }
        if id_changed {
            // Re-assert the id counter (rolled back in memory) so the
            // durable image converges with it immediately: the aborted
            // transaction's NextId records were discarded with its frame.
            self.wal_push(WalRecord::NextId {
                value: self.next_id.get(),
            });
            self.autoflush_id_counter();
        }
        StatsCells::bump(&self.stats.txn_rollbacks, 1);
        Ok(())
    }

    /// Mark a savepoint inside the open transaction.
    pub fn savepoint(&mut self, name: &str) -> Result<()> {
        if !self.txn.explicit {
            return Err(DbError::Txn(format!(
                "SAVEPOINT {name} outside a transaction"
            )));
        }
        self.txn.savepoints.push(Savepoint {
            name: name.to_string(),
            mark: self.txn.mark(),
            next_id: self.next_id.get(),
            redo_mark: self.txn.redo_mark(),
        });
        Ok(())
    }

    /// Roll back to the most recent savepoint named `name`
    /// (case-insensitive). The savepoint stays active, so a transaction
    /// can retry past it; later savepoints are discarded.
    pub fn rollback_to(&mut self, name: &str) -> Result<()> {
        if !self.txn.explicit {
            return Err(DbError::Txn(format!(
                "ROLLBACK TO {name} outside a transaction"
            )));
        }
        let at = self
            .txn
            .savepoints
            .iter()
            .rposition(|s| s.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| DbError::Txn(format!("no savepoint named `{name}`")))?;
        let sp = self.txn.savepoints[at].clone();
        self.txn.savepoints.truncate(at + 1);
        self.rollback_to_mark(sp.mark);
        self.txn.redo.lock().unwrap().truncate(sp.redo_mark);
        self.next_id.set(sp.next_id);
        StatsCells::bump(&self.stats.txn_rollbacks, 1);
        Ok(())
    }

    /// Whether an explicit transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.txn.explicit
    }

    /// Number of undo records currently in the transaction log.
    pub fn undo_log_len(&self) -> usize {
        self.txn.log.len()
    }

    /// Undo all records above `mark`, newest first. If any undone record
    /// was DDL the schema epoch advances, mirroring the forward DDL path,
    /// so no physical plan built against the undone catalog runs again.
    fn rollback_to_mark(&mut self, mark: usize) {
        let mut ddl = false;
        while self.txn.log.len() > mark {
            let rec = self.txn.log.pop().expect("len > mark");
            ddl |= rec.is_ddl();
            self.apply_undo(rec);
        }
        if ddl {
            self.bump_schema_epoch();
        }
    }

    /// Apply one undo record. Records are self-describing; a missing
    /// table means the sequence was corrupted, so the undo degrades to a
    /// no-op rather than panicking.
    fn apply_undo(&mut self, rec: UndoRecord) {
        match rec {
            UndoRecord::InsertedRow { table, pos } => {
                if let Some(t) = self.tables.get_mut(&table) {
                    t.undo_insert(pos);
                }
            }
            UndoRecord::DeletedRow {
                table,
                pos,
                row,
                index_offsets,
            } => {
                if let Some(t) = self.tables.get_mut(&table) {
                    t.restore_row(pos, row, &index_offsets);
                }
            }
            UndoRecord::UpdatedCell {
                table,
                pos,
                column,
                old,
                old_offset,
            } => {
                if let Some(t) = self.tables.get_mut(&table) {
                    t.unupdate_cell(pos, column, old, old_offset);
                }
            }
            UndoRecord::CreatedTable { name } => {
                self.tables.remove(&name);
                if self.storage.is_persistent() {
                    self.storage.drop_table(&name);
                }
            }
            UndoRecord::DroppedTable {
                name,
                table,
                triggers,
            } => {
                // The forward DROP reclaimed the table's pages; rebuild
                // them from the restored heap before reinstating it (the
                // stashed table still carries its backing, so later
                // mutations mirror as usual).
                if self.storage.is_persistent() {
                    self.storage.create_table(&name);
                    for (pos, row) in table.iter_live() {
                        self.storage.put_row(&name, pos as u64, row);
                    }
                }
                self.tables.insert(name, *table);
                for (at, trig) in triggers {
                    self.triggers.insert(at.min(self.triggers.len()), trig);
                }
            }
            UndoRecord::CreatedIndex {
                table,
                column,
                ordered,
            } => {
                if let Some(t) = self.tables.get_mut(&table) {
                    if ordered {
                        t.drop_ordered_index(column);
                    } else {
                        t.drop_index(column);
                    }
                }
            }
            UndoRecord::Analyzed { table, prior } => {
                if let Some(t) = self.tables.get_mut(&table) {
                    t.set_statistics(prior.map(|b| *b));
                }
            }
            UndoRecord::CreatedTrigger { name } => {
                self.triggers
                    .retain(|t| !t.name.eq_ignore_ascii_case(&name));
            }
            UndoRecord::DroppedTrigger { position, trigger } => {
                self.triggers
                    .insert(position.min(self.triggers.len()), *trigger);
            }
        }
    }

    /// Append an undo record for a forward mutation.
    fn record_undo(&mut self, rec: UndoRecord) {
        StatsCells::bump(&self.stats.undo_records, 1);
        self.txn.log.push(rec);
    }

    // ------------------------------------------------------------------
    // fault injection
    // ------------------------------------------------------------------

    /// Arm a one-shot deterministic fault: the `n`th client statement
    /// from now (1 = the very next one) fails with
    /// [`DbError::FaultInjected`] before executing. Transaction-control
    /// statements are not counted. The armed fault survives until it
    /// fires or [`Database::clear_faults`] is called.
    pub fn fail_after_statements(&mut self, n: u64) {
        self.fault.arm_statement(n);
    }

    /// Arm a one-shot fault on the `n`th row write (insert, delete, or
    /// cell update) to `table`, firing *mid-statement* — the
    /// statement-level rollback then has real partial work to undo,
    /// including any trigger-body writes already applied.
    pub fn fail_on_table_write(&mut self, table: &str, n: u64) {
        self.fault.arm_table_write(table, n);
    }

    /// Disarm all injected faults.
    pub fn clear_faults(&mut self) {
        self.fault.clear();
    }

    /// Whether any injected fault is still armed.
    pub fn faults_armed(&self) -> bool {
        self.fault.armed()
    }

    // ------------------------------------------------------------------
    // durable storage: WAL, checkpoint, recovery
    // ------------------------------------------------------------------

    /// Open (or create) a durable database rooted at `path`.
    ///
    /// Recovery loads `snapshot.bin` if present, then replays the WAL's
    /// committed frames on top: each complete `TxnBegin … TxnCommit`
    /// frame is applied, an uncommitted trailing frame (the transaction
    /// the crash caught in flight) is discarded, and a torn final record
    /// is truncated away. Replay is physical — rows land at the slot
    /// positions the log recorded — so the recovered state is
    /// byte-identical to the pre-crash committed state. A WAL whose
    /// generation trails the snapshot's is leftover from a checkpoint
    /// whose truncation never landed; its effects are already inside the
    /// snapshot, so it is discarded.
    pub fn open(path: impl AsRef<Path>) -> Result<Database> {
        Self::open_with(path, StorageConfig::default())
    }

    /// [`Database::open`] with an explicit [`StorageConfig`]. With the
    /// paged backend selected, recovery prefers the page store's
    /// checkpoint meta (tables are rebuilt from the B-trees and hash
    /// indexes recomputed in slot order); a directory that only holds a
    /// full snapshot is migrated by seeding the page store from it. All
    /// table mutations from then on — including the WAL replay below —
    /// are mirrored into the store.
    pub fn open_with(path: impl AsRef<Path>, config: StorageConfig) -> Result<Database> {
        let _span = Span::enter("db.recover");
        let recover_start = std::time::Instant::now();
        let dir = path.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| storage_err("create database directory", &e))?;
        let mut db = Database::new();
        let mut generation = 0u64;
        let snap_path = dir.join(SNAPSHOT_FILE);
        match config.backend {
            BackendKind::Memory => {
                if snap_path.exists() {
                    let bytes =
                        fs::read(&snap_path).map_err(|e| storage_err("read snapshot", &e))?;
                    let snap = wal::decode_snapshot(&bytes)?;
                    generation = snap.generation;
                    db.restore_snapshot(snap)?;
                }
            }
            BackendKind::Paged => {
                let (store, meta) = PagedStore::open(&dir, config.pool_frames)?;
                db.storage = Arc::new(store);
                match meta {
                    Some(meta) => {
                        generation = meta.generation;
                        db.restore_from_pages(&meta)?;
                    }
                    None => {
                        // First paged open of this directory. If the
                        // memory backend left a full snapshot, migrate
                        // it; either way, seed the page store from the
                        // in-memory tables and attach the mirrors.
                        if snap_path.exists() {
                            let bytes = fs::read(&snap_path)
                                .map_err(|e| storage_err("read snapshot", &e))?;
                            let snap = wal::decode_snapshot(&bytes)?;
                            generation = snap.generation;
                            db.restore_snapshot(snap)?;
                        }
                        db.seed_page_store();
                    }
                }
            }
        }
        let wal_path = dir.join(WAL_FILE);
        let mut file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&wal_path)
            .map_err(|e| storage_err("open WAL", &e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| storage_err("read WAL", &e))?;
        let mut recovered = 0u64;
        let mut replayed_bytes = 0u64;
        let mut reset_wal = true;
        if bytes.len() >= wal::WAL_HEADER_LEN {
            if let Ok(contents) = wal::decode_wal(&bytes) {
                if contents.generation == generation {
                    replayed_bytes = contents.clean_len - wal::WAL_HEADER_LEN as u64;
                    recovered = db.replay(contents.records)?;
                    if (contents.clean_len as usize) < bytes.len() {
                        // Torn tail from a crash mid-append: discard it.
                        file.set_len(contents.clean_len)
                            .map_err(|e| storage_err("truncate torn WAL tail", &e))?;
                    }
                    reset_wal = false;
                }
            }
        }
        if reset_wal {
            file.set_len(0).map_err(|e| storage_err("reset WAL", &e))?;
            file.seek(SeekFrom::Start(0))
                .map_err(|e| storage_err("reset WAL", &e))?;
            file.write_all(&wal::encode_wal_header(generation))
                .map_err(|e| storage_err("write WAL header", &e))?;
            file.sync_data()
                .map_err(|e| storage_err("sync WAL header", &e))?;
        }
        let wal_len = file
            .seek(SeekFrom::End(0))
            .map_err(|e| storage_err("seek WAL end", &e))?;
        // Replay ran with `durable` unset so nothing re-logged itself;
        // wipe its undo/stats bookkeeping before arming the appender.
        db.txn = TxnState::default();
        db.bump_schema_epoch();
        db.stats = StatsCells::default();
        db.stats.recovered_txns.set(recovered);
        db.stats.wal_replayed_bytes.set(replayed_bytes);
        db.stats
            .recovery_micros
            .set(recover_start.elapsed().as_micros() as u64);
        db.recovered_at.set(
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
        );
        db.durable = Some(DurableState {
            dir,
            wal: Mutex::new(std::io::BufWriter::new(file)),
            sync: FlagCell::new(true),
            group_window: Counter::new(1),
            pending_commits: Counter::new(0),
            synced_len: Counter::new(wal_len),
            appended_len: Counter::new(wal_len),
            acked_commits: Counter::new(0),
            generation,
            txn_seq: Counter::new(0),
        });
        Ok(db)
    }

    /// Flush and sync the WAL, then drop the database. An explicit
    /// transaction still open at close is discarded unflushed — exactly
    /// as a crash would discard it.
    pub fn close(mut self) -> Result<()> {
        if let Some(d) = self.durable.take() {
            let file = d
                .wal
                .into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .into_inner()
                .map_err(|e| {
                    let e = e.into_error();
                    storage_err("flush WAL on close", &e)
                })?;
            file.sync_all()
                .map_err(|e| storage_err("sync WAL on close", &e))?;
        }
        Ok(())
    }

    /// Write a checkpoint and truncate the WAL. On the memory backend
    /// the full state (catalog, heaps, indexes, triggers, id counter)
    /// goes to `snapshot.bin`; on the paged backend the store flushes its
    /// dirty pages and publishes `pages.meta` instead. Either file is
    /// written to a temporary, synced, and renamed over the old one, so a
    /// crash at any point leaves either the old checkpoint (with a usable
    /// or discarded-stale WAL) or the new one — never a torn one. A
    /// failed backend checkpoint returns before the WAL is truncated.
    pub fn checkpoint(&mut self) -> Result<()> {
        if self.durable.is_none() {
            return Err(DbError::Storage(
                "CHECKPOINT requires a durable database (Database::open)".into(),
            ));
        }
        if self.txn.explicit {
            return Err(DbError::Txn(
                "CHECKPOINT inside an explicit transaction".into(),
            ));
        }
        let generation = self.durable.as_ref().expect("checked above").generation + 1;
        // A persistent backend commits an incremental checkpoint (dirty
        // pages + meta rename) and reports its work; the memory backend
        // declines and the engine writes the full snapshot as before.
        let report = if self.storage.is_persistent() {
            self.storage
                .checkpoint(&self.checkpoint_catalog(generation))?
        } else {
            None
        };
        let (cp_pages, cp_bytes) = match report {
            Some(r) => (r.pages_written, r.bytes_written),
            None => {
                let bytes = wal::encode_snapshot(&self.build_snapshot(generation));
                let d = self.durable.as_ref().expect("checked above");
                let tmp = d.dir.join(SNAPSHOT_TMP);
                let dest = d.dir.join(SNAPSHOT_FILE);
                let io = (|| -> std::io::Result<()> {
                    let mut f = fs::File::create(&tmp)?;
                    f.write_all(&bytes)?;
                    f.sync_all()?;
                    drop(f);
                    fs::rename(&tmp, &dest)?;
                    // Make the rename durable before truncating the WAL
                    // the snapshot subsumes; a crash in between leaves a
                    // stale WAL, which the generation check at open
                    // discards.
                    if let Ok(dirf) = fs::File::open(&d.dir) {
                        let _ = dirf.sync_all();
                    }
                    Ok(())
                })();
                io.map_err(|e| storage_err("checkpoint", &e))?;
                let len = bytes.len() as u64;
                (len.div_ceil(crate::storage::pager::PAGE_SIZE as u64), len)
            }
        };
        let d = self.durable.as_mut().expect("checked above");
        let io = (|| -> std::io::Result<()> {
            let mut w = d.wal.lock().unwrap();
            w.flush()?;
            let f = w.get_mut();
            f.set_len(0)?;
            f.seek(SeekFrom::Start(0))?;
            f.write_all(&wal::encode_wal_header(generation))?;
            f.sync_data()?;
            Ok(())
        })();
        io.map_err(|e| storage_err("checkpoint", &e))?;
        d.generation = generation;
        // The snapshot subsumes everything appended so far, including
        // any group-commit window still waiting on its fsync — those
        // commits are now durably acknowledged by the snapshot itself.
        d.acked_commits
            .set(d.acked_commits.get() + d.pending_commits.get());
        d.pending_commits.set(0);
        d.appended_len.set(wal::WAL_HEADER_LEN as u64);
        d.synced_len.set(wal::WAL_HEADER_LEN as u64);
        StatsCells::bump(&self.stats.checkpoints, 1);
        StatsCells::bump(&self.stats.checkpoint_pages_written, cp_pages);
        StatsCells::bump(&self.stats.checkpoint_bytes_written, cp_bytes);
        Ok(())
    }

    /// Which storage backend the database runs on.
    pub fn backend_kind(&self) -> BackendKind {
        self.storage.kind()
    }

    /// Storage-layer counters: buffer-pool hits/misses/evictions, pages
    /// allocated, store LSN. All zero on the memory backend.
    pub fn storage_metrics(&self) -> StorageMetrics {
        self.storage.metrics()
    }

    /// Whether this database was opened durably ([`Database::open`]).
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// Storage directory of a durable database.
    pub fn storage_dir(&self) -> Option<&Path> {
        self.durable.as_ref().map(|d| d.dir.as_path())
    }

    /// Toggle per-commit `fsync` of the WAL (on by default). With sync
    /// off commits are still written and flushed to the OS — a process
    /// crash loses nothing; only an OS crash can. Benchmarks use this to
    /// separate the logging cost from the disk-sync cost.
    pub fn set_wal_sync(&mut self, sync: bool) {
        if let Some(d) = &self.durable {
            d.sync.set(sync);
        }
    }

    /// Configure the group-commit window (the `set_wal_sync` extension):
    /// coalesce up to `window` commits per WAL `fsync`. Commits still
    /// append and flush their frames immediately — a process crash loses
    /// nothing — but the disk sync is deferred until `window` commits
    /// have joined the group, and the single `sync_data` acknowledges
    /// every one of them. `window <= 1` restores fsync-per-commit. Use
    /// [`Database::wal_sync`] to force the pending group out early.
    pub fn set_wal_group_commit(&mut self, window: u64) {
        if let Some(d) = &self.durable {
            d.group_window.set(window);
        }
    }

    /// Force the pending group-commit fsync now, acknowledging every
    /// commit waiting on the sync ticket. No-op when nothing is pending
    /// or the database is non-durable.
    pub fn wal_sync(&mut self) -> Result<()> {
        let Some(d) = &self.durable else {
            return Ok(());
        };
        let mut w = d.wal.lock().unwrap();
        w.flush().map_err(|e| storage_err("WAL flush", &e))?;
        if d.pending_commits.get() > 0 || d.synced_len.get() < d.appended_len.get() {
            let _fsync_span = Span::enter("wal.fsync");
            w.get_ref()
                .sync_data()
                .map_err(|e| storage_err("WAL fsync", &e))?;
            StatsCells::bump(&self.stats.wal_fsyncs, 1);
            d.synced_len.set(d.appended_len.get());
            d.acked_commits
                .set(d.acked_commits.get() + d.pending_commits.get());
            d.pending_commits.set(0);
        }
        Ok(())
    }

    /// Commits acknowledged durable so far: covered by a group fsync or
    /// subsumed by a checkpoint snapshot. With group commit active this
    /// trails [`Stats::txn_commits`] by up to `window - 1`.
    pub fn wal_acked_commits(&self) -> u64 {
        self.durable.as_ref().map_or(0, |d| d.acked_commits.get())
    }

    /// Commits appended and flushed but not yet covered by a group
    /// fsync — the open group waiting on the sync ticket.
    pub fn wal_pending_commits(&self) -> u64 {
        self.durable.as_ref().map_or(0, |d| d.pending_commits.get())
    }

    /// WAL length in bytes known to be fsynced (the group-commit sync
    /// ticket). Bytes past this offset survive a process crash but not
    /// necessarily an OS crash; crash tests truncate here to simulate
    /// losing the unsynced tail.
    pub fn wal_synced_len(&self) -> u64 {
        self.durable.as_ref().map_or(0, |d| d.synced_len.get())
    }

    /// Current WAL file size in bytes (0 for a non-durable database).
    pub fn wal_size(&self) -> u64 {
        self.durable
            .as_ref()
            .and_then(|d| fs::metadata(d.dir.join(WAL_FILE)).ok())
            .map(|m| m.len())
            .unwrap_or(0)
    }

    /// Buffer a redo record for the current transaction (no-op on a
    /// non-durable database).
    fn wal_push(&self, rec: WalRecord) {
        if self.durable.is_some() {
            self.txn.redo.lock().unwrap().push(rec);
        }
    }

    fn next_wal_txn(&self) -> u64 {
        let d = self.durable.as_ref().expect("durable database");
        let n = d.txn_seq.get() + 1;
        d.txn_seq.set(n);
        n
    }

    /// Append pre-framed bytes to the WAL: always written and flushed to
    /// the OS (a process crash loses nothing committed). With sync mode
    /// on, the commit joins the group-commit window: the `fsync` is
    /// issued once the window fills, and that one `sync_data` advances
    /// the sync ticket past every commit in the group — acknowledging
    /// them all. A window of 1 (the default) degenerates to the classic
    /// fsync-per-commit behavior.
    fn wal_append(&self, bytes: &[u8], records: u64, commits: u64) -> Result<()> {
        let _span = Span::enter("wal.append");
        let d = self.durable.as_ref().expect("durable database");
        let mut w = d.wal.lock().unwrap();
        w.write_all(bytes)
            .map_err(|e| storage_err("WAL append", &e))?;
        w.flush().map_err(|e| storage_err("WAL flush", &e))?;
        d.appended_len
            .set(d.appended_len.get() + bytes.len() as u64);
        if d.sync.get() {
            // Only committed frames take a sync ticket; audit records
            // (TxnAbort markers) ride along and are covered by whatever
            // fsync the group eventually issues.
            d.pending_commits.set(d.pending_commits.get() + commits);
            if d.pending_commits.get() >= d.group_window.get().max(1) {
                let _fsync_span = Span::enter("wal.fsync");
                w.get_ref()
                    .sync_data()
                    .map_err(|e| storage_err("WAL fsync", &e))?;
                StatsCells::bump(&self.stats.wal_fsyncs, 1);
                d.synced_len.set(d.appended_len.get());
                d.acked_commits
                    .set(d.acked_commits.get() + d.pending_commits.get());
                d.pending_commits.set(0);
            }
        }
        StatsCells::bump(&self.stats.wal_records, records);
        StatsCells::bump(&self.stats.wal_bytes, bytes.len() as u64);
        Ok(())
    }

    /// Group-flush the buffered redo records as one committed WAL frame
    /// (`TxnBegin`, the records, `TxnCommit`). On failure the buffer is
    /// left intact — the caller decides whether to roll back; on success
    /// it is cleared. No-op when non-durable or nothing is buffered.
    fn wal_flush_commit(&self) -> Result<()> {
        if self.durable.is_none() || self.txn.redo.lock().unwrap().is_empty() {
            return Ok(());
        }
        let txn = self.next_wal_txn();
        let (buf, n) = {
            let records = self.txn.redo.lock().unwrap();
            let mut buf = Vec::new();
            wal::encode_frame(&WalRecord::TxnBegin { txn }, &mut buf);
            for r in records.iter() {
                wal::encode_frame(r, &mut buf);
            }
            wal::encode_frame(&WalRecord::TxnCommit { txn }, &mut buf);
            (buf, records.len() as u64 + 2)
        };
        self.wal_append(&buf, n, 1)?;
        self.txn.redo.lock().unwrap().clear();
        Ok(())
    }

    /// Reconstruct state from a decoded snapshot (open-time only).
    fn restore_snapshot(&mut self, snap: wal::Snapshot) -> Result<()> {
        for st in snap.tables {
            let schema = TableSchema {
                name: st.name,
                columns: st
                    .columns
                    .into_iter()
                    .map(|(name, ty)| ColumnDef { name, ty })
                    .collect(),
            };
            let mut indexes: HashMap<usize, HashMap<Value, Vec<usize>>> = HashMap::new();
            for (column, buckets) in st.indexes {
                let map = buckets
                    .into_iter()
                    .map(|(v, ps)| (v, ps.into_iter().map(|p| p as usize).collect()))
                    .collect();
                indexes.insert(column as usize, map);
            }
            let ordered: Vec<usize> = st.ordered.iter().map(|&c| c as usize).collect();
            if ordered.iter().any(|&ci| ci >= schema.columns.len()) {
                return Err(DbError::Storage(format!(
                    "snapshot orders unknown column of `{}`",
                    st.key
                )));
            }
            self.tables.insert(
                st.key,
                Table::from_parts(schema, st.slots, indexes, &ordered, st.stats),
            );
        }
        for sql in snap.triggers {
            let (stmt, _) = parse_stmt_with_params(&sql)?;
            self.exec_internal(&stmt, &EvalCtx::new(), 0)?;
        }
        self.next_id.set(snap.next_id);
        Ok(())
    }

    /// Reconstruct state from the page store's checkpoint meta
    /// (paged-backend open). Slot vectors are rebuilt at their recorded
    /// length (trailing tombstones preserved, so WAL replay lands rows at
    /// the logged positions) and hash indexes are recomputed with bucket
    /// entries in ascending slot order — logically identical to, but not
    /// necessarily bucket-order-identical with, the pre-crash image.
    fn restore_from_pages(&mut self, meta: &crate::storage::pager::StoreMeta) -> Result<()> {
        for tm in &meta.tables {
            let schema = TableSchema {
                name: tm.name.clone(),
                columns: tm
                    .columns
                    .iter()
                    .map(|(name, ty)| ColumnDef {
                        name: name.clone(),
                        ty: *ty,
                    })
                    .collect(),
            };
            let mut slots: Vec<Option<Row>> = vec![None; tm.slots_len as usize];
            for (pos, row) in self.storage.scan_table(&tm.key)? {
                let pos = pos as usize;
                if pos >= slots.len() {
                    slots.resize(pos + 1, None);
                }
                slots[pos] = Some(row);
            }
            let ordered: Vec<usize> = tm.ordered.iter().map(|&c| c as usize).collect();
            if ordered.iter().any(|&ci| ci >= schema.columns.len()) {
                return Err(DbError::Storage(format!(
                    "page meta orders unknown column of `{}`",
                    tm.key
                )));
            }
            let mut table =
                Table::from_parts(schema, slots, HashMap::new(), &ordered, tm.stats.clone());
            for &ci in &tm.indexed {
                let column = table
                    .schema
                    .columns
                    .get(ci as usize)
                    .map(|c| c.name.clone())
                    .ok_or_else(|| {
                        DbError::Storage(format!(
                            "page meta indexes unknown column {ci} of `{}`",
                            tm.key
                        ))
                    })?;
                table.create_index(&column)?;
            }
            table.attach_backing(self.storage.clone(), &tm.key);
            self.tables.insert(tm.key.clone(), table);
        }
        for sql in &meta.triggers {
            let (stmt, _) = parse_stmt_with_params(sql)?;
            self.exec_internal(&stmt, &EvalCtx::new(), 0)?;
        }
        self.next_id.set(meta.next_id);
        Ok(())
    }

    /// Seed a fresh page store from the in-memory tables and attach the
    /// write-through mirrors (first paged open of a directory).
    fn seed_page_store(&mut self) {
        let store = self.storage.clone();
        for (key, t) in self.tables.iter_mut() {
            store.create_table(key);
            for (pos, row) in t.iter_live() {
                store.put_row(key, pos as u64, row);
            }
            t.attach_backing(store.clone(), key);
        }
    }

    /// Triggers in registration order rendered back to `CREATE TRIGGER`
    /// SQL (checkpoint serialization).
    fn trigger_sql(&self) -> Vec<String> {
        self.triggers
            .iter()
            .map(|t| {
                stmt_to_sql(&Stmt::CreateTrigger {
                    name: t.name.clone(),
                    event: t.event,
                    table: t.table.clone(),
                    granularity: t.granularity,
                    body: (*t.body).clone(),
                })
            })
            .collect()
    }

    /// The catalog a persistent backend needs to commit a checkpoint it
    /// can later be reopened from: schemas, slot-vector lengths, indexed
    /// columns, triggers, and the id counter.
    fn checkpoint_catalog(&self, generation: u64) -> CheckpointCatalog {
        let mut tables: Vec<CatalogTable> = self
            .tables
            .iter()
            .map(|(key, t)| {
                let mut indexed: Vec<u32> = t.indexes_raw().keys().map(|&ci| ci as u32).collect();
                indexed.sort_unstable();
                CatalogTable {
                    key: key.clone(),
                    name: t.schema.name.clone(),
                    columns: t
                        .schema
                        .columns
                        .iter()
                        .map(|c| (c.name.clone(), c.ty))
                        .collect(),
                    slots_len: t.slots_raw().len() as u64,
                    indexed,
                    ordered: t.ordered_columns().iter().map(|&ci| ci as u32).collect(),
                    stats: t.statistics().cloned(),
                }
            })
            .collect();
        tables.sort_by(|a, b| a.key.cmp(&b.key));
        CheckpointCatalog {
            generation,
            next_id: self.next_id.get(),
            tables,
            triggers: self.trigger_sql(),
        }
    }

    /// Serialize the full state for a checkpoint. Tables and index
    /// buckets are sorted so the snapshot bytes are deterministic.
    fn build_snapshot(&self, generation: u64) -> wal::Snapshot {
        let mut tables: Vec<wal::SnapshotTable> = self
            .tables
            .iter()
            .map(|(key, t)| {
                let mut indexes: wal::IndexBuckets = t
                    .indexes_raw()
                    .iter()
                    .map(|(ci, buckets)| {
                        let mut bs: Vec<(Value, Vec<u64>)> = buckets
                            .iter()
                            .map(|(v, ps)| (v.clone(), ps.iter().map(|&p| p as u64).collect()))
                            .collect();
                        bs.sort_by(|a, b| a.0.sort_cmp(&b.0));
                        (*ci as u32, bs)
                    })
                    .collect();
                indexes.sort_by_key(|(ci, _)| *ci);
                wal::SnapshotTable {
                    key: key.clone(),
                    name: t.schema.name.clone(),
                    columns: t
                        .schema
                        .columns
                        .iter()
                        .map(|c| (c.name.clone(), c.ty))
                        .collect(),
                    slots: t.slots_raw().to_vec(),
                    indexes,
                    ordered: t.ordered_columns().iter().map(|&ci| ci as u32).collect(),
                    stats: t.statistics().cloned(),
                }
            })
            .collect();
        tables.sort_by(|a, b| a.key.cmp(&b.key));
        wal::Snapshot {
            generation,
            next_id: self.next_id.get(),
            tables,
            triggers: self.trigger_sql(),
        }
    }

    /// Apply the WAL's records: complete `TxnBegin … TxnCommit` frames
    /// are applied, aborted or uncommitted (trailing) frames discarded,
    /// top-level records applied immediately. Returns the number of
    /// committed transactions replayed.
    fn replay(&mut self, records: Vec<WalRecord>) -> Result<u64> {
        let mut pending: Vec<WalRecord> = Vec::new();
        let mut in_txn = false;
        let mut committed = 0u64;
        for rec in records {
            match rec {
                WalRecord::TxnBegin { .. } => {
                    pending.clear();
                    in_txn = true;
                }
                WalRecord::TxnCommit { .. } => {
                    for r in pending.drain(..) {
                        self.apply_wal_record(r)?;
                    }
                    if in_txn {
                        committed += 1;
                    }
                    in_txn = false;
                }
                WalRecord::TxnAbort { .. } => {
                    pending.clear();
                    in_txn = false;
                }
                other if in_txn => pending.push(other),
                other => self.apply_wal_record(other)?,
            }
        }
        // A trailing frame with no commit is the transaction the crash
        // caught in flight: `pending` is simply dropped.
        Ok(committed)
    }

    /// Redo one record. DML is physical (slot positions recorded at log
    /// time); trigger-fired statements were logged as their own records,
    /// so triggers are not re-fired here. DDL replays as SQL text.
    fn apply_wal_record(&mut self, rec: WalRecord) -> Result<()> {
        let missing =
            |t: &str| DbError::Storage(format!("WAL replay references missing table `{t}`"));
        match rec {
            WalRecord::Insert { table, row } => {
                self.tables
                    .get_mut(&table)
                    .ok_or_else(|| missing(&table))?
                    .insert(row)?;
            }
            WalRecord::Delete { table, pos } => {
                self.tables
                    .get_mut(&table)
                    .ok_or_else(|| missing(&table))?
                    .delete(pos as usize);
            }
            WalRecord::Update {
                table,
                pos,
                column,
                value,
            } => {
                self.tables
                    .get_mut(&table)
                    .ok_or_else(|| missing(&table))?
                    .update_cell(pos as usize, column as usize, value)?;
            }
            WalRecord::Ddl { sql } => {
                let (stmt, _) = parse_stmt_with_params(&sql)?;
                self.exec_internal(&stmt, &EvalCtx::new(), 0)?;
            }
            WalRecord::NextId { value } => self.next_id.set(value),
            WalRecord::TxnBegin { .. }
            | WalRecord::TxnCommit { .. }
            | WalRecord::TxnAbort { .. } => {}
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // statement dispatch
    // ------------------------------------------------------------------

    fn exec_internal(
        &mut self,
        stmt: &Stmt,
        ctx: &EvalCtx<'_>,
        depth: usize,
    ) -> Result<ExecResult> {
        if depth > MAX_TRIGGER_DEPTH {
            return Err(DbError::TriggerDepth(format!("depth {depth}")));
        }
        StatsCells::bump(&self.stats.total_statements, 1);
        // Any DDL may change what a physical plan resolved to (tables,
        // columns, indexes, statistics), so the epoch advances and every
        // plan built before it replans. Parsed statements stay cached.
        let is_ddl = matches!(
            stmt,
            Stmt::CreateTable { .. }
                | Stmt::DropTable { .. }
                | Stmt::CreateIndex { .. }
                | Stmt::Analyze { .. }
                | Stmt::CreateTrigger { .. }
                | Stmt::DropTrigger { .. }
        );
        if is_ddl {
            self.bump_schema_epoch();
        }
        let result = match stmt {
            Stmt::CreateTable {
                name,
                columns,
                if_not_exists,
            } => {
                let key = name.to_ascii_lowercase();
                if self.tables.contains_key(&key) {
                    if *if_not_exists {
                        return Ok(ExecResult::Ddl);
                    }
                    return Err(DbError::Schema(format!("table `{name}` already exists")));
                }
                let mut seen = HashSet::new();
                for c in columns {
                    if !seen.insert(c.name.to_ascii_lowercase()) {
                        return Err(DbError::Schema(format!(
                            "duplicate column `{}` in `{name}`",
                            c.name
                        )));
                    }
                }
                self.tables.insert(
                    key.clone(),
                    Table::new(TableSchema {
                        name: name.clone(),
                        columns: columns.clone(),
                    }),
                );
                if self.storage.is_persistent() {
                    self.storage.create_table(&key);
                    if let Some(t) = self.tables.get_mut(&key) {
                        t.attach_backing(self.storage.clone(), &key);
                    }
                }
                self.record_undo(UndoRecord::CreatedTable { name: key });
                Ok(ExecResult::Ddl)
            }
            Stmt::DropTable { name, if_exists } => {
                let key = name.to_ascii_lowercase();
                match self.tables.remove(&key) {
                    None => {
                        if !*if_exists {
                            return Err(DbError::NoSuchTable(name.clone()));
                        }
                    }
                    Some(table) => {
                        // Capture the triggers removed with the table at
                        // their positions so undo can splice them back.
                        let mut removed = Vec::new();
                        let mut kept = Vec::with_capacity(self.triggers.len());
                        for (at, trig) in std::mem::take(&mut self.triggers).into_iter().enumerate()
                        {
                            if trig.table == key {
                                removed.push((at, trig));
                            } else {
                                kept.push(trig);
                            }
                        }
                        self.triggers = kept;
                        if self.storage.is_persistent() {
                            self.storage.drop_table(&key);
                        }
                        self.record_undo(UndoRecord::DroppedTable {
                            name: key,
                            table: Box::new(table),
                            triggers: removed,
                        });
                    }
                }
                Ok(ExecResult::Ddl)
            }
            Stmt::CreateIndex {
                table,
                column,
                ordered,
                ..
            } => {
                let key = table.to_ascii_lowercase();
                let t = self
                    .tables
                    .get_mut(&key)
                    .ok_or_else(|| DbError::NoSuchTable(table.clone()))?;
                let ci = t.schema.column_index(column);
                let was_new = ci
                    .map(|ci| {
                        if *ordered {
                            !t.has_ordered_index(ci)
                        } else {
                            !t.has_index(ci)
                        }
                    })
                    .unwrap_or(false);
                if *ordered {
                    t.create_ordered_index(column)?;
                } else {
                    t.create_index(column)?;
                }
                if was_new {
                    self.record_undo(UndoRecord::CreatedIndex {
                        table: key,
                        column: ci.expect("checked above"),
                        ordered: *ordered,
                    });
                }
                Ok(ExecResult::Ddl)
            }
            Stmt::Analyze { table } => {
                let keys: Vec<String> = match table {
                    Some(name) => {
                        let key = name.to_ascii_lowercase();
                        if !self.tables.contains_key(&key) {
                            return Err(DbError::NoSuchTable(name.clone()));
                        }
                        vec![key]
                    }
                    None => {
                        let mut all: Vec<String> = self.tables.keys().cloned().collect();
                        all.sort();
                        all
                    }
                };
                for key in keys {
                    let t = self.tables.get_mut(&key).expect("existence checked above");
                    let prior = t.analyze();
                    StatsCells::bump(&self.stats.stats_rebuilds, 1);
                    self.record_undo(UndoRecord::Analyzed {
                        table: key,
                        prior: prior.map(Box::new),
                    });
                }
                Ok(ExecResult::Ddl)
            }
            Stmt::CreateTrigger {
                name,
                event,
                table,
                granularity,
                body,
            } => {
                let key = table.to_ascii_lowercase();
                if !self.tables.contains_key(&key) {
                    return Err(DbError::NoSuchTable(table.clone()));
                }
                if self
                    .triggers
                    .iter()
                    .any(|t| t.name.eq_ignore_ascii_case(name))
                {
                    return Err(DbError::Schema(format!("trigger `{name}` already exists")));
                }
                self.triggers.push(Trigger {
                    name: name.clone(),
                    event: *event,
                    table: key,
                    granularity: *granularity,
                    body: Arc::new(body.clone()),
                });
                self.record_undo(UndoRecord::CreatedTrigger { name: name.clone() });
                Ok(ExecResult::Ddl)
            }
            Stmt::DropTrigger { name } => {
                let at = self
                    .triggers
                    .iter()
                    .position(|t| t.name.eq_ignore_ascii_case(name))
                    .ok_or_else(|| DbError::Schema(format!("no trigger `{name}`")))?;
                let trigger = self.triggers.remove(at);
                self.record_undo(UndoRecord::DroppedTrigger {
                    position: at,
                    trigger: Box::new(trigger),
                });
                Ok(ExecResult::Ddl)
            }
            Stmt::Insert {
                table,
                columns,
                source,
            } => self.exec_insert(table, columns.as_deref(), source, ctx, depth),
            Stmt::Delete { table, filter } => self.exec_delete(table, filter.as_ref(), ctx, depth),
            Stmt::Update {
                table,
                sets,
                filter,
            } => self.exec_update(table, sets, filter.as_ref(), ctx),
            Stmt::Select(q) => {
                let plan = self.select_plan_for(q, ctx)?;
                Ok(ExecResult::Rows(self.exec_select_plan(&plan, ctx)?))
            }
            Stmt::Explain { analyze, stmt } => {
                if *analyze {
                    Ok(ExecResult::Rows(
                        self.exec_explain_analyze(stmt, ctx, depth)?,
                    ))
                } else {
                    Ok(ExecResult::Rows(self.explain_stmt(stmt, ctx)?))
                }
            }
            Stmt::Begin | Stmt::Commit | Stmt::Rollback { .. } | Stmt::Savepoint { .. } => {
                if depth > 0 {
                    return Err(DbError::Txn(
                        "transaction control inside a trigger body".into(),
                    ));
                }
                match stmt {
                    Stmt::Begin => self.begin()?,
                    Stmt::Commit => self.commit()?,
                    Stmt::Rollback { to_savepoint } => match to_savepoint {
                        Some(name) => self.rollback_to(name)?,
                        None => self.rollback()?,
                    },
                    Stmt::Savepoint { name } => self.savepoint(name)?,
                    _ => unreachable!("outer match covers txn control"),
                }
                Ok(ExecResult::Txn)
            }
            Stmt::Checkpoint => {
                if depth > 0 {
                    return Err(DbError::Txn("CHECKPOINT inside a trigger body".into()));
                }
                self.checkpoint()?;
                Ok(ExecResult::Checkpoint)
            }
        };
        // DDL is redone from the WAL as SQL text: one `Ddl` record per
        // successful statement, rendered by the exact-roundtrip printer.
        // (No-op DDL such as `CREATE TABLE IF NOT EXISTS` on an existing
        // table returns early above and is not logged.)
        if is_ddl && result.is_ok() {
            self.wal_push(WalRecord::Ddl {
                sql: stmt_to_sql(stmt),
            });
        }
        result
    }

    /// `EXPLAIN ANALYZE`: execute the statement for real and render its
    /// plan tree annotated with per-operator actuals (rows produced,
    /// loop counts, wall time) against the planner's estimates. As in
    /// PostgreSQL the statement really runs, so DML under
    /// `EXPLAIN ANALYZE` mutates the database. Per-operator profiling
    /// state is allocated per execution and never stored on the
    /// (possibly cached, shared) plan.
    fn exec_explain_analyze(
        &mut self,
        stmt: &Stmt,
        ctx: &EvalCtx<'_>,
        depth: usize,
    ) -> Result<ResultSet> {
        let mut lines: Vec<String> = Vec::new();
        let start = std::time::Instant::now();
        match stmt {
            Stmt::Select(q) => return self.explain_analyze_select(q, ctx),
            other => {
                // DML (and DDL) has no cursor tree; report the plan the
                // non-analyzing EXPLAIN would print plus an `Actual:`
                // line derived from the statement's stats deltas.
                let before = self.stats.snapshot();
                let result = self.exec_internal(other, ctx, depth)?;
                let total_ns = start.elapsed().as_nanos() as u64;
                let after = self.stats.snapshot();
                self.explain_into(other, ctx, 0, &mut lines)?;
                lines.push(format!(
                    "Actual: rows={} scanned={} index_lookups={} triggers={} time={}",
                    result.affected(),
                    after.rows_scanned - before.rows_scanned,
                    after.index_lookups - before.index_lookups,
                    after.trigger_firings - before.trigger_firings,
                    obs::fmt_ns(total_ns)
                ));
            }
        }
        Ok(ResultSet {
            columns: vec!["plan".into()],
            rows: lines.into_iter().map(|l| vec![Value::Str(l)]).collect(),
        })
    }

    // ------------------------------------------------------------------
    // DML
    // ------------------------------------------------------------------

    fn exec_insert(
        &mut self,
        table: &str,
        columns: Option<&[String]>,
        source: &InsertSource,
        ctx: &EvalCtx<'_>,
        depth: usize,
    ) -> Result<ExecResult> {
        // Evaluate source rows first (they may read the target table).
        let source_rows: Vec<Row> = match source {
            InsertSource::Values(rows) => rows
                .iter()
                .map(|exprs| {
                    exprs
                        .iter()
                        .map(|e| self.eval_expr(e, &SliceEnv::EMPTY, ctx, &HashMap::new()))
                        .collect::<Result<Row>>()
                })
                .collect::<Result<Vec<Row>>>()?,
            InsertSource::Select(q) => self.eval_select(q, ctx)?.rows,
        };
        let key = table.to_ascii_lowercase();
        let (arity, col_map) = {
            let t = self
                .tables
                .get(&key)
                .ok_or_else(|| DbError::NoSuchTable(table.into()))?;
            let arity = t.arity();
            let col_map: Option<Vec<usize>> = match columns {
                None => None,
                Some(cols) => Some(
                    cols.iter()
                        .map(|c| {
                            t.schema
                                .column_index(c)
                                .ok_or_else(|| DbError::NoSuchColumn(format!("{table}.{c}")))
                        })
                        .collect::<Result<Vec<usize>>>()?,
                ),
            };
            (arity, col_map)
        };
        let has_insert_triggers = self
            .triggers
            .iter()
            .any(|t| t.table == key && t.event == TriggerEvent::Insert);
        let mut inserted_rows: Vec<Row> = Vec::new();
        for src in source_rows {
            let full = match &col_map {
                None => {
                    if src.len() != arity {
                        return Err(DbError::Schema(format!(
                            "INSERT into {table}: {} values for {arity} columns",
                            src.len()
                        )));
                    }
                    src
                }
                Some(map) => {
                    if src.len() != map.len() {
                        return Err(DbError::Schema(format!(
                            "INSERT into {table}: {} values for {} named columns",
                            src.len(),
                            map.len()
                        )));
                    }
                    let mut full = vec![Value::Null; arity];
                    for (v, &ci) in src.into_iter().zip(map.iter()) {
                        full[ci] = v;
                    }
                    full
                }
            };
            inserted_rows.push(full);
        }
        let n = inserted_rows.len();
        // Rows applied so far are recorded in the undo log even when the
        // statement fails partway (arity error, injected fault): the
        // client funnel rolls the partial work back before surfacing the
        // error.
        let mut positions = Vec::with_capacity(n);
        let mut failure = None;
        let mvcc_epoch = self.mvcc.enabled().then(|| self.mvcc.write_epoch());
        {
            let t = self.tables.get_mut(&key).unwrap();
            if has_insert_triggers {
                for row in &inserted_rows {
                    if let Err(e) = self.fault.check_table_write(&key) {
                        failure = Some(e);
                        break;
                    }
                    match t.insert(row.clone()) {
                        Ok(p) => positions.push(p),
                        Err(e) => {
                            failure = Some(e);
                            break;
                        }
                    }
                }
            } else {
                // No trigger needs the rows afterwards: move them in.
                for row in std::mem::take(&mut inserted_rows) {
                    if let Err(e) = self.fault.check_table_write(&key) {
                        failure = Some(e);
                        break;
                    }
                    match t.insert(row) {
                        Ok(p) => positions.push(p),
                        Err(e) => {
                            failure = Some(e);
                            break;
                        }
                    }
                }
            }
        }
        let applied = positions.len();
        if let Some(epoch) = mvcc_epoch {
            // Inserted slots had no prior row: snapshots older than this
            // epoch must reconstruct them as absent.
            let t = self.tables.get_mut(&key).expect("resolved above");
            for &pos in &positions {
                t.note_insert(epoch, pos);
            }
        }
        if self.durable.is_some() {
            // Redo is physical: the row as it landed, at its slot. A
            // partially-applied failing statement's records are truncated
            // by the client funnel along with the undo.
            let t = self.tables.get(&key).expect("resolved above");
            let mut redo = self.txn.redo.lock().unwrap();
            for &pos in &positions {
                if let Some(row) = t.row(pos) {
                    redo.push(WalRecord::Insert {
                        table: key.clone(),
                        row: row.clone(),
                    });
                }
            }
        }
        for pos in positions {
            self.record_undo(UndoRecord::InsertedRow {
                table: key.clone(),
                pos,
            });
        }
        if let Some(e) = failure {
            return Err(e);
        }
        StatsCells::bump(&self.stats.rows_inserted, applied as u64);
        if n > 0 && has_insert_triggers {
            self.fire_triggers(&key, TriggerEvent::Insert, &inserted_rows, depth)?;
        }
        Ok(ExecResult::Affected(n))
    }

    fn exec_delete(
        &mut self,
        table: &str,
        filter: Option<&Expr>,
        ctx: &EvalCtx<'_>,
        depth: usize,
    ) -> Result<ExecResult> {
        let key = table.to_ascii_lowercase();
        let positions = self.select_positions(&key, filter, ctx)?;
        let has_delete_triggers = self
            .triggers
            .iter()
            .any(|t| t.table == key && t.event == TriggerEvent::Delete);
        let mut failure = None;
        let mvcc_epoch = self.mvcc.enabled().then(|| self.mvcc.write_epoch());
        let deleted: Vec<DeletedRowUndo> = {
            let t = self.tables.get_mut(&key).unwrap();
            let mut out = Vec::with_capacity(positions.len());
            for &p in &positions {
                if let Err(e) = self.fault.check_table_write(&key) {
                    failure = Some(e);
                    break;
                }
                if let Some(epoch) = mvcc_epoch {
                    // Before-image of the slot, captured ahead of the
                    // physical delete.
                    t.note_version(epoch, p);
                }
                if let Some((row, offsets)) = t.delete_with_undo(p) {
                    out.push((p, row, offsets));
                }
            }
            out
        };
        let n = deleted.len();
        if self.durable.is_some() {
            let mut redo = self.txn.redo.lock().unwrap();
            for (pos, _, _) in &deleted {
                redo.push(WalRecord::Delete {
                    table: key.clone(),
                    pos: *pos as u64,
                });
            }
        }
        // Triggers bind OLD per deleted row; clone only when one exists.
        let mut trigger_rows: Vec<Row> = Vec::new();
        for (pos, row, index_offsets) in deleted {
            if has_delete_triggers {
                trigger_rows.push(row.clone());
            }
            self.record_undo(UndoRecord::DeletedRow {
                table: key.clone(),
                pos,
                row,
                index_offsets,
            });
        }
        if let Some(e) = failure {
            return Err(e);
        }
        StatsCells::bump(&self.stats.rows_deleted, n as u64);
        if !trigger_rows.is_empty() {
            self.fire_triggers(&key, TriggerEvent::Delete, &trigger_rows, depth)?;
        }
        Ok(ExecResult::Affected(n))
    }

    fn exec_update(
        &mut self,
        table: &str,
        sets: &[(String, Expr)],
        filter: Option<&Expr>,
        ctx: &EvalCtx<'_>,
    ) -> Result<ExecResult> {
        let key = table.to_ascii_lowercase();
        let positions = self.select_positions(&key, filter, ctx)?;
        // Resolve target columns and evaluate per-row assignments against
        // the *old* row, then apply.
        let (columns, set_indices) = {
            let t = self.tables.get(&key).unwrap();
            let cols = t.schema.column_names();
            let idx: Vec<usize> = sets
                .iter()
                .map(|(c, _)| {
                    t.schema
                        .column_index(c)
                        .ok_or_else(|| DbError::NoSuchColumn(format!("{table}.{c}")))
                })
                .collect::<Result<Vec<usize>>>()?;
            (cols, idx)
        };
        let mut pending: Vec<(usize, Vec<Value>)> = Vec::with_capacity(positions.len());
        // Layout built once; each tuple is read in place.
        let layout = [(table.to_string(), columns, 0)];
        for &p in &positions {
            let row = self.tables.get(&key).unwrap().row(p).ok_or_else(|| {
                DbError::Execution(format!("row vanished during UPDATE at slot {p}"))
            })?;
            let env = SliceEnv {
                layout: &layout,
                values: row,
            };
            let vals: Vec<Value> = sets
                .iter()
                .map(|(_, e)| self.eval_expr(e, &env, ctx, &HashMap::new()))
                .collect::<Result<Vec<Value>>>()?;
            pending.push((p, vals));
        }
        let n = pending.len();
        let mut failure = None;
        let mut cell_undo: Vec<(usize, usize, Value, Option<usize>)> = Vec::new();
        let mvcc_epoch = self.mvcc.enabled().then(|| self.mvcc.write_epoch());
        {
            let t = self.tables.get_mut(&key).unwrap();
            'rows: for (p, vals) in pending {
                if let Some(epoch) = mvcc_epoch {
                    // One before-image per row, ahead of the first cell
                    // write; the visibility scan keeps the oldest entry
                    // per slot, so later statements in the same epoch
                    // don't clobber it.
                    t.note_version(epoch, p);
                }
                for (&ci, v) in set_indices.iter().zip(vals) {
                    if let Err(e) = self.fault.check_table_write(&key) {
                        failure = Some(e);
                        break 'rows;
                    }
                    match t.update_cell_with_undo(p, ci, v) {
                        Ok((old, old_offset)) => cell_undo.push((p, ci, old, old_offset)),
                        Err(e) => {
                            failure = Some(e);
                            break 'rows;
                        }
                    }
                }
            }
        }
        if self.durable.is_some() {
            // Log the value as written (read back from the table), one
            // record per cell, in application order.
            let t = self.tables.get(&key).expect("resolved above");
            let mut redo = self.txn.redo.lock().unwrap();
            for (pos, ci, _, _) in &cell_undo {
                if let Some(row) = t.row(*pos) {
                    redo.push(WalRecord::Update {
                        table: key.clone(),
                        pos: *pos as u64,
                        column: *ci as u32,
                        value: row[*ci].clone(),
                    });
                }
            }
        }
        for (pos, column, old, old_offset) in cell_undo {
            self.record_undo(UndoRecord::UpdatedCell {
                table: key.clone(),
                pos,
                column,
                old,
                old_offset,
            });
        }
        if let Some(e) = failure {
            return Err(e);
        }
        StatsCells::bump(&self.stats.rows_updated, n as u64);
        Ok(ExecResult::Affected(n))
    }

    /// Slot positions of rows in `table` satisfying `filter`. Uses a
    /// persistent index when the filter contains an `indexed_col = expr`
    /// conjunct whose right side is row-independent.
    fn select_positions(
        &self,
        key: &str,
        filter: Option<&Expr>,
        ctx: &EvalCtx<'_>,
    ) -> Result<Vec<usize>> {
        let t = self
            .tables
            .get(key)
            .ok_or_else(|| DbError::NoSuchTable(key.into()))?;
        let filter = match filter {
            None => return Ok(t.live_positions()),
            Some(f) => f,
        };
        // The filter is bound to the table's layout once per statement;
        // the per-tuple loops below test each row in place. Whole-tree
        // `eval_bool` semantics: an unknown conjunct does not stop the
        // evaluation of the ones after it.
        let no_ctes = CteEnv::new();
        let ex = ExecCtx {
            db: self,
            ctx,
            ctes: &no_ctes,
        };
        let layout = vec![(t.schema.name.clone(), t.schema.column_names(), 0)];
        let filter_row = RowFilter::new(
            filter.conjuncts(),
            Cow::Owned(layout),
            !self.planner_naive.get(),
            true,
        );
        let scanned = RowsScanned::new(&self.stats);
        // Index fast path.
        if let Some((ci, key_expr)) = self.find_index_probe(t, filter) {
            if let Ok(keyv) = self.eval_expr(key_expr, &SliceEnv::EMPTY, ctx, &no_ctes) {
                if !keyv.is_null() {
                    if let Some(positions) = t.index_lookup(ci, &keyv) {
                        StatsCells::bump(&self.stats.index_lookups, 1);
                        StatsCells::bump(&self.stats.index_scans, 1);
                        let mut out = Vec::new();
                        for &p in positions {
                            let row = t.row(p).expect("index points at live row");
                            scanned.add(1);
                            if filter_row.test(row, &ex)? {
                                out.push(p);
                            }
                        }
                        return Ok(out);
                    }
                }
            }
        }
        // IN-subquery probe: `indexed_col IN (SELECT …)` probes the index
        // once per subquery value instead of scanning the table.
        for conj in filter.conjuncts() {
            if let Expr::InSubquery {
                expr,
                query,
                negated: false,
            } = conj
            {
                if let Expr::Column { table: qual, name } = expr.as_ref() {
                    let qual_ok = qual
                        .as_deref()
                        .map(|q| q.eq_ignore_ascii_case(&t.schema.name))
                        .unwrap_or(true);
                    if qual_ok {
                        if let Some(ci) = t.schema.column_index(name) {
                            if t.has_index(ci) || t.has_ordered_index(ci) {
                                let sub = self.cached_subquery(query, ctx)?;
                                StatsCells::bump(&self.stats.index_scans, 1);
                                let mut out = Vec::new();
                                for key in &sub.set {
                                    if let Some(positions) = t.index_lookup(ci, key) {
                                        StatsCells::bump(&self.stats.index_lookups, 1);
                                        for &p in positions {
                                            let row = t.row(p).expect("live");
                                            scanned.add(1);
                                            if filter_row.test(row, &ex)? {
                                                out.push(p);
                                            }
                                        }
                                    }
                                }
                                out.sort_unstable();
                                return Ok(out);
                            }
                        }
                    }
                }
            }
            // Literal IN-list probe: `indexed_col IN (v1, …, vN)` — the
            // batched-DML shape — probes the index once per distinct list
            // value instead of scanning the table.
            if let Expr::InList {
                expr,
                list,
                negated: false,
            } = conj
            {
                if let Expr::Column { table: qual, name } = expr.as_ref() {
                    let qual_ok = qual
                        .as_deref()
                        .map(|q| q.eq_ignore_ascii_case(&t.schema.name))
                        .unwrap_or(true);
                    if qual_ok {
                        if let Some(ci) = t.schema.column_index(name) {
                            if t.has_index(ci) || t.has_ordered_index(ci) {
                                if let Some(probe) = self.cached_in_list(list, ctx, &no_ctes)? {
                                    StatsCells::bump(&self.stats.index_scans, 1);
                                    let mut out = Vec::new();
                                    for key in &probe.set {
                                        if let Some(positions) = t.index_lookup(ci, key) {
                                            StatsCells::bump(&self.stats.index_lookups, 1);
                                            for &p in positions {
                                                let row = t.row(p).expect("live");
                                                scanned.add(1);
                                                if filter_row.test(row, &ex)? {
                                                    out.push(p);
                                                }
                                            }
                                        }
                                    }
                                    out.sort_unstable();
                                    return Ok(out);
                                }
                            }
                        }
                    }
                }
            }
        }
        // Full scan.
        StatsCells::bump(&self.stats.seq_scans, 1);
        let mut out = Vec::new();
        for (p, slot) in t.slots_raw().iter().enumerate() {
            let Some(row) = slot else { continue };
            scanned.add(1);
            if filter_row.test(row, &ex)? {
                out.push(p);
            }
        }
        Ok(out)
    }

    /// Find a conjunct `col = expr` (or `expr = col`) where `col` is an
    /// indexed column of `t` and `expr` does not reference `t`'s row.
    pub(crate) fn find_index_probe<'e>(
        &self,
        t: &Table,
        filter: &'e Expr,
    ) -> Option<(usize, &'e Expr)> {
        for conj in filter.conjuncts() {
            if let Expr::Binary {
                left,
                op: BinOp::Eq,
                right,
            } = conj
            {
                for (colside, keyside) in [(left, right), (right, left)] {
                    if let Expr::Column { table: qual, name } = colside.as_ref() {
                        if qual
                            .as_deref()
                            .map(|q| q.eq_ignore_ascii_case(&t.schema.name))
                            .unwrap_or(true)
                        {
                            if let Some(ci) = t.schema.column_index(name) {
                                if (t.has_index(ci) || t.has_ordered_index(ci))
                                    && Self::row_independent(keyside)
                                {
                                    return Some((ci, keyside));
                                }
                            }
                        }
                    }
                }
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // triggers
    // ------------------------------------------------------------------

    fn fire_triggers(
        &mut self,
        table_key: &str,
        event: TriggerEvent,
        rows: &[Row],
        depth: usize,
    ) -> Result<()> {
        let fired: Vec<Trigger> = self
            .triggers
            .iter()
            .filter(|t| t.table == table_key && t.event == event)
            .cloned()
            .collect();
        if fired.is_empty() {
            return Ok(());
        }
        let _span = Span::enter("trigger.fire");
        let columns: Vec<String> = self
            .tables
            .get(table_key)
            .map(|t| t.schema.column_names())
            .unwrap_or_default();
        let pseudo = match event {
            TriggerEvent::Delete => "OLD",
            TriggerEvent::Insert => "NEW",
        };
        for trig in fired {
            match trig.granularity {
                TriggerGranularity::Row => {
                    for row in rows {
                        StatsCells::bump(&self.stats.trigger_firings, 1);
                        let bindings: Vec<(String, Value)> =
                            columns.iter().cloned().zip(row.iter().cloned()).collect();
                        let ctx = EvalCtx::with_pseudo(pseudo, &bindings);
                        for stmt in trig.body.iter() {
                            self.exec_internal(stmt, &ctx, depth + 1)?;
                        }
                    }
                }
                TriggerGranularity::Statement => {
                    StatsCells::bump(&self.stats.trigger_firings, 1);
                    let ctx = EvalCtx::new();
                    for stmt in trig.body.iter() {
                        self.exec_internal(stmt, &ctx, depth + 1)?;
                    }
                }
            }
        }
        Ok(())
    }
}
