//! The paged storage backend: per-table copy-on-write B-trees over a
//! slotted-page file, cached by a clock buffer pool, checkpointed
//! incrementally.
//!
//! All mutations land in pool frames (dirty, no I/O beyond eviction
//! write-back); a checkpoint flushes exactly the dirty frames, fsyncs
//! the page file, and commits by atomically renaming a small meta file
//! (generation, table roots, freelist) — the same tmp + rename +
//! dir-sync protocol the full snapshot uses. Shadow paging guarantees
//! the previous checkpoint's pages were never overwritten, so a crash at
//! any instant recovers from the old meta plus the WAL.
//!
//! Mirror writes arrive from [`crate::Table`] on every slot mutation
//! (forward DML, rollback undo, and WAL replay all funnel through the
//! same six mutation methods), so the page store tracks the in-memory
//! heap byte for byte between checkpoints. Mirror paths cannot return
//! errors to their callers, so an I/O failure *poisons* the store: the
//! error is stored and surfaced by the next checkpoint, which then fails
//! before the engine truncates its WAL.

use super::btree::{bt_delete, bt_free, bt_page_count, bt_put, bt_scan};
use super::pager::{
    encode_meta, Pager, StoreMeta, TableMeta, DATA_FILE, META_FILE, META_TMP, PAGE_SIZE,
};
use super::pool::{PageHeap, PoolStats};
use super::{BackendKind, CheckpointCatalog, CheckpointReport, StorageBackend, StorageMetrics};
use crate::error::{DbError, Result};
use crate::value::Row;
use crate::wal::{self, Reader};
use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

fn encode_row(row: &Row) -> Vec<u8> {
    let mut out = Vec::new();
    wal::put_row(&mut out, row);
    out
}

fn decode_row(bytes: &[u8]) -> Result<Row> {
    let mut r = Reader::new(bytes);
    let row = r
        .row()
        .ok_or_else(|| DbError::Storage("page row payload corrupt".into()))?;
    if !r.done() {
        return Err(DbError::Storage(
            "page row payload has trailing bytes".into(),
        ));
    }
    Ok(row)
}

#[derive(Debug)]
struct StoreInner {
    heap: PageHeap,
    /// B-tree root per lower-cased table key (0 = empty tree).
    roots: HashMap<String, u64>,
    /// First mirror-path I/O error; surfaces at the next checkpoint
    /// instead of being silently dropped.
    poisoned: Option<String>,
}

/// The paged storage backend. Interior-mutable behind one mutex so the
/// mirror hooks work from `&self` (queries run from `&Database`).
#[derive(Debug)]
pub struct PagedStore {
    dir: PathBuf,
    inner: Mutex<StoreInner>,
}

impl PagedStore {
    /// Open (or create) the page store inside `dir` with a buffer pool
    /// of `pool_frames` frames. Returns the store plus the decoded
    /// checkpoint meta when one exists — the engine rebuilds its
    /// in-memory tables from it before WAL replay. Without a meta the
    /// page file is reset: the store's content is whatever the engine
    /// seeds it with (fresh schema or a migrated full snapshot).
    pub fn open(dir: &Path, pool_frames: usize) -> Result<(PagedStore, Option<StoreMeta>)> {
        let pager = Pager::open(&dir.join(DATA_FILE))?;
        let mut heap = PageHeap::new(pager, pool_frames);
        let meta_path = dir.join(META_FILE);
        let mut roots = HashMap::new();
        let meta = if meta_path.exists() {
            let bytes = fs::read(&meta_path)
                .map_err(|e| DbError::Storage(format!("read page meta: {e}")))?;
            let meta = super::pager::decode_meta(&bytes)?;
            heap.load_state(meta.page_count, meta.free.clone(), meta.lsn);
            for t in &meta.tables {
                roots.insert(t.key.clone(), t.root);
            }
            Some(meta)
        } else {
            heap.reset_file()?;
            None
        };
        Ok((
            PagedStore {
                dir: dir.to_path_buf(),
                inner: Mutex::new(StoreInner {
                    heap,
                    roots,
                    poisoned: None,
                }),
            },
            meta,
        ))
    }

    fn with_inner<T>(&self, f: impl FnOnce(&mut StoreInner) -> Result<T>) -> Result<T> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(why) = &inner.poisoned {
            return Err(DbError::Storage(format!("page store poisoned: {why}")));
        }
        f(&mut inner)
    }

    /// Run a mirror-path mutation; an error poisons the store instead of
    /// propagating (the mutation callers cannot fail).
    fn mirror(&self, f: impl FnOnce(&mut StoreInner) -> Result<()>) {
        let mut inner = self.inner.lock().unwrap();
        if inner.poisoned.is_some() {
            return;
        }
        if let Err(e) = f(&mut inner) {
            inner.poisoned = Some(e.to_string());
        }
    }

    /// Buffer-pool counters (hits, misses, evictions, write-backs).
    pub fn pool_stats(&self) -> PoolStats {
        self.inner.lock().unwrap().heap.pool_stats()
    }
}

fn root_of(inner: &StoreInner, table: &str) -> Result<u64> {
    inner
        .roots
        .get(table)
        .copied()
        .ok_or_else(|| DbError::Storage(format!("page store has no table `{table}`")))
}

impl StorageBackend for PagedStore {
    fn kind(&self) -> BackendKind {
        BackendKind::Paged
    }

    fn is_persistent(&self) -> bool {
        true
    }

    fn create_table(&self, table: &str) {
        self.mirror(|inner| {
            inner.roots.insert(table.to_string(), 0);
            Ok(())
        });
    }

    fn drop_table(&self, table: &str) {
        self.mirror(|inner| {
            if let Some(root) = inner.roots.remove(table) {
                bt_free(&mut inner.heap, root)?;
            }
            Ok(())
        });
    }

    fn put_row(&self, table: &str, pos: u64, row: &Row) {
        let payload = encode_row(row);
        self.mirror(|inner| {
            let root = root_of(inner, table)?;
            let new_root = bt_put(&mut inner.heap, root, pos, &payload)?;
            inner.roots.insert(table.to_string(), new_root);
            Ok(())
        });
    }

    fn delete_row(&self, table: &str, pos: u64) {
        self.mirror(|inner| {
            let root = root_of(inner, table)?;
            let new_root = bt_delete(&mut inner.heap, root, pos)?;
            inner.roots.insert(table.to_string(), new_root);
            Ok(())
        });
    }

    fn scan_table(&self, table: &str) -> Result<Vec<(u64, Row)>> {
        self.with_inner(|inner| {
            let root = root_of(inner, table)?;
            let mut rows = Vec::new();
            for (pos, bytes) in bt_scan(&mut inner.heap, root)? {
                rows.push((pos, decode_row(&bytes)?));
            }
            Ok(rows)
        })
    }

    fn table_pages(&self, table: &str) -> Option<u64> {
        let mut inner = self.inner.lock().unwrap();
        let root = *inner.roots.get(table)?;
        bt_page_count(&mut inner.heap, root).ok()
    }

    fn checkpoint(&self, catalog: &CheckpointCatalog) -> Result<Option<CheckpointReport>> {
        self.with_inner(|inner| {
            // 1. Flush exactly the dirty pool frames and make them
            //    durable. Shadow paging means none of these writes can
            //    touch a page the previous checkpoint still references.
            let (pages, bytes) = inner.heap.flush()?;
            // 2. Build and atomically publish the meta: tmp + fsync +
            //    rename + dir-sync, the same protocol as the snapshot.
            let tables: Vec<TableMeta> = catalog
                .tables
                .iter()
                .map(|t| TableMeta {
                    key: t.key.clone(),
                    name: t.name.clone(),
                    columns: t.columns.clone(),
                    root: inner.roots.get(&t.key).copied().unwrap_or(0),
                    slots_len: t.slots_len,
                    indexed: t.indexed.clone(),
                    ordered: t.ordered.clone(),
                    stats: t.stats.clone(),
                })
                .collect();
            let meta = StoreMeta {
                generation: catalog.generation,
                next_id: catalog.next_id,
                page_count: inner.heap.page_count,
                lsn: inner.heap.lsn,
                free: inner.heap.checkpoint_free_list(),
                tables,
                triggers: catalog.triggers.clone(),
            };
            let encoded = encode_meta(&meta);
            let tmp = self.dir.join(META_TMP);
            let dest = self.dir.join(META_FILE);
            (|| -> std::io::Result<()> {
                let mut f = fs::File::create(&tmp)?;
                f.write_all(&encoded)?;
                f.sync_all()?;
                drop(f);
                fs::rename(&tmp, &dest)?;
                if let Ok(dirf) = fs::File::open(&self.dir) {
                    let _ = dirf.sync_all();
                }
                Ok(())
            })()
            .map_err(|e| DbError::Storage(format!("checkpoint page meta: {e}")))?;
            // 3. The rename is the commit point: pending frees become
            //    reusable and the new tree's pages stop being fresh.
            inner.heap.checkpoint_committed();
            Ok(Some(CheckpointReport {
                pages_written: pages + encoded.len().div_ceil(PAGE_SIZE) as u64,
                bytes_written: bytes + encoded.len() as u64,
            }))
        })
    }

    fn metrics(&self) -> StorageMetrics {
        let inner = self.inner.lock().unwrap();
        StorageMetrics {
            backend: BackendKind::Paged,
            pool: inner.heap.pool_stats(),
            pool_frames: inner.heap.pool_budget() as u64,
            pages_allocated: inner.heap.page_count,
            lsn: inner.heap.lsn,
        }
    }
}
