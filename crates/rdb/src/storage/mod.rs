//! Pluggable storage backends behind the relational engine.
//!
//! The engine's tables are in-memory slot vectors ([`crate::Table`]);
//! this module decides what, if anything, sits underneath them:
//!
//! * [`MemoryBackend`] — the default. Nothing underneath: tables are the
//!   only copy, durability is the WAL + full-snapshot checkpoint. Zero
//!   overhead; `Database::new` and `Database::open` behave exactly as
//!   before this subsystem existed.
//! * [`PagedStore`](paged::PagedStore) — a slotted-page file with one
//!   copy-on-write B-tree per table (keyed on slot position) and a clock
//!   buffer pool. Every table mutation is mirrored into the pages;
//!   checkpoints flush only the dirty frames and commit via an atomic
//!   meta rename, so checkpoint cost is O(pages touched), not
//!   O(database). At open the tables are rebuilt from the pages
//!   ([`StorageBackend::scan_table`]) before WAL replay.
//!
//! The split of responsibilities: the in-memory table is the only
//! source of rows for every read (scans, index probes, DML, MVCC
//! snapshots) and the authority for *positions* (undo splicing,
//! hash-index maintenance, MVCC before-images — all slot-addressed),
//! while the backend is the authority for *bytes on disk*. MVCC version
//! chains stay above the trait, so snapshot reads behave identically on
//! every backend.

pub mod btree;
pub mod paged;
pub mod pager;
pub mod pool;

pub use paged::PagedStore;
pub use pool::PoolStats;

use crate::error::Result;
use crate::value::{DataType, Row};

/// Which storage backend a database runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// In-memory tables only; checkpoints write a full snapshot.
    #[default]
    Memory,
    /// Slotted-page B-tree store with buffer pool and incremental
    /// checkpoints.
    Paged,
}

impl BackendKind {
    /// Parse a CLI flag value (`memory` / `paged`).
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s.to_ascii_lowercase().as_str() {
            "memory" | "mem" => Some(BackendKind::Memory),
            "paged" | "pages" => Some(BackendKind::Paged),
            _ => None,
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendKind::Memory => write!(f, "memory"),
            BackendKind::Paged => write!(f, "paged"),
        }
    }
}

/// Storage configuration for [`Database::open_with`](crate::Database::open_with).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageConfig {
    /// Backend selection (default: in-memory).
    pub backend: BackendKind,
    /// Buffer-pool frame budget for the paged backend (frames × 4 KiB).
    pub pool_frames: usize,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            backend: BackendKind::Memory,
            pool_frames: 1024,
        }
    }
}

impl StorageConfig {
    /// Convenience: the paged backend with the default pool budget.
    pub fn paged() -> StorageConfig {
        StorageConfig {
            backend: BackendKind::Paged,
            ..StorageConfig::default()
        }
    }
}

/// Storage-layer observability counters, surfaced in
/// [`Database::metrics`](crate::Database::metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageMetrics {
    /// Which backend produced these numbers.
    pub backend: BackendKind,
    /// Buffer-pool hit/miss/eviction/write-back counters.
    pub pool: PoolStats,
    /// Configured pool frame budget.
    pub pool_frames: u64,
    /// Highest allocated page id.
    pub pages_allocated: u64,
    /// Current store LSN.
    pub lsn: u64,
}

/// One table's schema entry in a [`CheckpointCatalog`].
#[derive(Debug, Clone)]
pub struct CatalogTable {
    /// Lower-cased catalog key.
    pub key: String,
    /// Schema name as created.
    pub name: String,
    /// Column name/type pairs in order.
    pub columns: Vec<(String, DataType)>,
    /// Slot-vector length, trailing tombstones included.
    pub slots_len: u64,
    /// Column indices carrying a hash index.
    pub indexed: Vec<u32>,
    /// Column indices carrying an ordered index.
    pub ordered: Vec<u32>,
    /// Optimizer statistics, if the table has been `ANALYZE`d.
    pub stats: Option<crate::stats::TableStatistics>,
}

/// Everything a backend needs from the engine to commit a checkpoint:
/// the generation, the id counter, and the catalog to rebuild tables
/// from at the next open.
#[derive(Debug, Clone)]
pub struct CheckpointCatalog {
    /// Checkpoint generation being committed.
    pub generation: u64,
    /// The engine's id counter.
    pub next_id: i64,
    /// Table catalog, sorted by key.
    pub tables: Vec<CatalogTable>,
    /// Triggers in registration order, as `CREATE TRIGGER` SQL.
    pub triggers: Vec<String>,
}

/// Work an incremental checkpoint reported.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Pages written (dirty frames flushed + meta, in page units).
    pub pages_written: u64,
    /// Bytes written (dirty frames + meta file).
    pub bytes_written: u64,
}

/// A storage backend underneath the engine's in-memory tables.
///
/// Mutation hooks (`create_table` … `delete_row`) are infallible mirror
/// calls invoked from [`crate::Table`]'s slot mutations — forward DML,
/// rollback undo, and WAL replay all pass through them. A backend that
/// can fail (I/O) records the error internally and surfaces it from the
/// fallible methods: `checkpoint`, and `scan_table` at open. Queries never
/// read the backend, so a mirror error does not fail them.
pub trait StorageBackend: std::fmt::Debug + Send + Sync {
    /// Which backend this is.
    fn kind(&self) -> BackendKind;

    /// Whether the backend keeps its own durable copy of table data
    /// (mirror hooks are only attached to tables when it does).
    fn is_persistent(&self) -> bool;

    /// A table was created under `table` (lower-cased key).
    fn create_table(&self, table: &str);

    /// A table was dropped; reclaim its pages.
    fn drop_table(&self, table: &str);

    /// Slot `pos` of `table` now holds `row` (insert or full-row update).
    fn put_row(&self, table: &str, pos: u64, row: &Row);

    /// Slot `pos` of `table` no longer holds a row.
    fn delete_row(&self, table: &str, pos: u64);

    /// All live rows of `table` in slot order.
    fn scan_table(&self, table: &str) -> Result<Vec<(u64, Row)>>;

    /// Best-effort page count for one table's on-disk structure, or
    /// `None` when the backend has no page-level representation (the
    /// in-memory backend) or does not know the table. Feeds the
    /// `rdb_tables.pages` system-view column.
    fn table_pages(&self, _table: &str) -> Option<u64> {
        None
    }

    /// Commit a checkpoint. `Ok(Some(report))` means the backend wrote
    /// an incremental checkpoint (the engine skips the full snapshot and
    /// just truncates the WAL); `Ok(None)` means the backend has no
    /// checkpoint mechanism and the engine must write a full snapshot.
    fn checkpoint(&self, catalog: &CheckpointCatalog) -> Result<Option<CheckpointReport>>;

    /// Current storage-layer counters.
    fn metrics(&self) -> StorageMetrics;
}

/// The default backend: tables live only in memory, durability is the
/// WAL plus full-snapshot checkpoints. Every hook is a no-op.
#[derive(Debug, Default, Clone, Copy)]
pub struct MemoryBackend;

impl StorageBackend for MemoryBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Memory
    }

    fn is_persistent(&self) -> bool {
        false
    }

    fn create_table(&self, _table: &str) {}

    fn drop_table(&self, _table: &str) {}

    fn put_row(&self, _table: &str, _pos: u64, _row: &Row) {}

    fn delete_row(&self, _table: &str, _pos: u64) {}

    fn scan_table(&self, _table: &str) -> Result<Vec<(u64, Row)>> {
        Ok(Vec::new())
    }

    fn checkpoint(&self, _catalog: &CheckpointCatalog) -> Result<Option<CheckpointReport>> {
        Ok(None)
    }

    fn metrics(&self) -> StorageMetrics {
        StorageMetrics::default()
    }
}
