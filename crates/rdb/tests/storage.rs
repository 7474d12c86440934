//! Tests for the paged storage subsystem (pager, B-tree, buffer pool,
//! paged backend) plus the engine integration:
//!
//! 1. Page-format golden test: a known page encodes to a byte-exact
//!    image constructed independently from the documented layout.
//! 2. Meta-codec robustness: round-trip, plus truncation at *every*
//!    byte offset and single-byte corruption must error, never panic —
//!    the checkpoint meta is the store's commit point.
//! 3. B-tree model test: random put/get/delete/scan against a
//!    `BTreeMap` oracle under a minimal buffer pool (eviction pressure
//!    on every descent), including overflow-chain values.
//! 4. End-to-end paged engine: DML + checkpoint + reopen, WAL replay
//!    without a checkpoint, rollback mirroring, DDL undo, and migration
//!    of a memory-backend snapshot directory.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use xmlup_rdb::storage::btree::{bt_delete, bt_get, bt_put, bt_scan, MAX_INLINE};
use xmlup_rdb::storage::pager::{
    decode_meta, encode_meta, Page, PageKind, Pager, StoreMeta, TableMeta, PAGE_HDR, PAGE_SIZE,
    SLOT_ENTRY,
};
use xmlup_rdb::storage::pool::PageHeap;
use xmlup_rdb::wal;
use xmlup_rdb::{
    BackendKind, DataType, Database, PagedStore, StorageBackend, StorageConfig, Value,
};

/// Unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "xmlup-storage-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ----------------------------------------------------------------------
// page format
// ----------------------------------------------------------------------

#[test]
fn crc32_is_standard_ieee() {
    // The standard CRC-32 check value: pins the polynomial the page
    // and meta images are sealed with.
    assert_eq!(wal::crc32(b"123456789"), 0xCBF4_3926);
}

#[test]
fn page_format_golden() {
    // Build the page through the API ...
    let cells: Vec<Vec<u8>> = vec![b"hello".to_vec(), b"".to_vec(), vec![0xAB; 7]];
    let mut page = Page::new(PageKind::Leaf);
    page.set_next(0x1122_3344_5566_7788);
    assert!(page.set_cells(&cells));
    page.set_lsn(42);
    page.seal();

    // ... and independently from the documented layout:
    //   [crc u32][kind u8][flags u8][ncells u16][lsn u64][next u64]
    //   then 4-byte slot entries ([offset u16][len u16]), cells packed
    //   downward from the page tail in slot order, zeroes between.
    let mut want = [0u8; PAGE_SIZE];
    want[4] = 1; // kind = leaf
    want[5] = 0; // flags
    want[6..8].copy_from_slice(&3u16.to_le_bytes());
    want[8..16].copy_from_slice(&42u64.to_le_bytes());
    want[16..24].copy_from_slice(&0x1122_3344_5566_7788u64.to_le_bytes());
    let mut tail = PAGE_SIZE;
    for (i, cell) in cells.iter().enumerate() {
        tail -= cell.len();
        let slot = PAGE_HDR + i * SLOT_ENTRY;
        want[slot..slot + 2].copy_from_slice(&(tail as u16).to_le_bytes());
        want[slot + 2..slot + 4].copy_from_slice(&(cell.len() as u16).to_le_bytes());
        want[tail..tail + cell.len()].copy_from_slice(cell);
    }
    let crc = wal::crc32(&want[4..]);
    want[0..4].copy_from_slice(&crc.to_le_bytes());

    assert_eq!(
        page.as_bytes()[..],
        want[..],
        "page image must be byte-exact"
    );

    // And the image round-trips through the validating reader.
    let back = Page::from_bytes(&want).expect("sealed page decodes");
    assert_eq!(back.kind(), PageKind::Leaf);
    assert_eq!(back.ncells(), 3);
    assert_eq!(back.lsn(), 42);
    assert_eq!(back.cells(), cells);
}

#[test]
fn corrupt_page_rejected() {
    let mut page = Page::new(PageKind::Interior);
    assert!(page.set_cells(&[b"cell".to_vec()]));
    page.seal();
    let good = *page.as_bytes();
    assert!(Page::from_bytes(&good).is_ok());
    for at in [0usize, 4, 100, PAGE_SIZE - 1] {
        let mut bad = good;
        bad[at] ^= 0xFF;
        assert!(
            Page::from_bytes(&bad).is_err(),
            "flipped byte {at} must fail CRC or kind validation"
        );
    }
    assert!(
        Page::from_bytes(&good[..PAGE_SIZE - 1]).is_err(),
        "short read"
    );
}

// ----------------------------------------------------------------------
// checkpoint meta codec
// ----------------------------------------------------------------------

fn sample_meta() -> StoreMeta {
    StoreMeta {
        generation: 7,
        next_id: 1234,
        page_count: 99,
        lsn: 400,
        free: vec![3, 8, 21],
        tables: vec![
            TableMeta {
                key: "edge".into(),
                name: "Edge".into(),
                columns: vec![
                    ("source".into(), DataType::Integer),
                    ("name".into(), DataType::Text),
                    ("flag".into(), DataType::Boolean),
                ],
                root: 5,
                slots_len: 17,
                indexed: vec![0, 1],
                ordered: vec![2],
                stats: None,
            },
            TableMeta {
                key: "empty".into(),
                name: "Empty".into(),
                columns: vec![],
                root: 0,
                slots_len: 0,
                indexed: vec![],
                ordered: vec![],
                stats: None,
            },
        ],
        triggers: vec!["CREATE TRIGGER t AFTER DELETE ON Edge FOR EACH ROW BEGIN END".into()],
    }
}

#[test]
fn meta_roundtrip_and_truncation() {
    let meta = sample_meta();
    let bytes = encode_meta(&meta);
    assert_eq!(decode_meta(&bytes).expect("intact meta decodes"), meta);
    // The meta commits a checkpoint: any torn write must be detected.
    for cut in 0..bytes.len() {
        assert!(
            decode_meta(&bytes[..cut]).is_err(),
            "truncation at {cut} must be rejected"
        );
    }
    for at in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[at] ^= 0x01;
        assert!(
            decode_meta(&bad).is_err(),
            "corruption at {at} must be rejected"
        );
    }
}

fn arb_table_meta() -> impl Strategy<Value = TableMeta> {
    (
        "[a-z]{1,8}",
        prop::collection::vec(
            (
                "[a-z]{1,6}",
                prop_oneof![
                    Just(DataType::Integer),
                    Just(DataType::Text),
                    Just(DataType::Boolean)
                ],
            ),
            0..5,
        ),
        any::<u64>(),
        any::<u64>(),
        prop::collection::vec(any::<u32>(), 0..4),
    )
        .prop_map(|(key, columns, root, slots_len, indexed)| TableMeta {
            name: key.to_ascii_uppercase(),
            key,
            columns,
            root,
            slots_len,
            ordered: indexed.clone(),
            indexed,
            stats: None,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn meta_codec_roundtrip_random(
        generation in any::<u64>(),
        next_id in any::<i64>(),
        page_count in any::<u64>(),
        lsn in any::<u64>(),
        free in prop::collection::vec(any::<u64>(), 0..8),
        tables in prop::collection::vec(arb_table_meta(), 0..4),
        triggers in prop::collection::vec("[A-Z a-z]{0,24}", 0..3),
    ) {
        let meta = StoreMeta { generation, next_id, page_count, lsn, free, tables, triggers };
        let bytes = encode_meta(&meta);
        prop_assert_eq!(decode_meta(&bytes).expect("roundtrip"), meta);
        for cut in 0..bytes.len() {
            prop_assert!(decode_meta(&bytes[..cut]).is_err());
        }
    }
}

// ----------------------------------------------------------------------
// B-tree under a minimal buffer pool
// ----------------------------------------------------------------------

#[derive(Debug, Clone)]
enum BtOp {
    Put(u64, Vec<u8>),
    Delete(u64),
}

fn arb_bt_op() -> impl Strategy<Value = BtOp> {
    let key = 0u64..48;
    prop_oneof![
        4 => (key.clone(), prop::collection::vec(any::<u8>(), 0..40))
            .prop_map(|(k, v)| BtOp::Put(k, v)),
        1 => (key.clone(), Just(MAX_INLINE + 123))
            .prop_map(|(k, n)| BtOp::Put(k, vec![(k & 0xFF) as u8; n])),
        2 => key.prop_map(BtOp::Delete),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn btree_matches_model(ops in prop::collection::vec(arb_bt_op(), 1..120)) {
        let scratch = Scratch::new();
        let pager = Pager::open(&scratch.path().join("bt.bin")).unwrap();
        // Budget of 1 clamps to the 8-frame minimum: every multi-level
        // descent causes eviction traffic.
        let mut heap = PageHeap::new(pager, 1);
        let mut root = 0u64;
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for op in &ops {
            match op {
                BtOp::Put(k, v) => {
                    root = bt_put(&mut heap, root, *k, v).unwrap();
                    model.insert(*k, v.clone());
                }
                BtOp::Delete(k) => {
                    root = bt_delete(&mut heap, root, *k).unwrap();
                    model.remove(k);
                }
            }
        }
        for (k, v) in &model {
            let got = bt_get(&mut heap, root, *k).unwrap();
            prop_assert_eq!(got.as_deref(), Some(v.as_slice()));
        }
        prop_assert_eq!(bt_get(&mut heap, root, 10_000).unwrap(), None);
        let scanned = bt_scan(&mut heap, root).unwrap();
        let want: Vec<(u64, Vec<u8>)> = model.iter().map(|(k, v)| (*k, v.clone())).collect();
        prop_assert_eq!(scanned, want);
        if model.is_empty() {
            prop_assert_eq!(root, 0, "empty tree collapses to the nil root");
        }
    }
}

#[test]
fn btree_overflow_values_roundtrip() {
    let scratch = Scratch::new();
    let pager = Pager::open(&scratch.path().join("ovf.bin")).unwrap();
    let mut heap = PageHeap::new(pager, 16);
    let chunk = PAGE_SIZE - PAGE_HDR - SLOT_ENTRY;
    let sizes = [0, 1, MAX_INLINE, MAX_INLINE + 1, chunk, 3 * chunk + 5];
    let mut root = 0u64;
    for (k, n) in sizes.iter().enumerate() {
        let val: Vec<u8> = (0..*n).map(|i| (i % 251) as u8).collect();
        root = bt_put(&mut heap, root, k as u64, &val).unwrap();
    }
    for (k, n) in sizes.iter().enumerate() {
        let want: Vec<u8> = (0..*n).map(|i| (i % 251) as u8).collect();
        assert_eq!(bt_get(&mut heap, root, k as u64).unwrap(), Some(want));
    }
    // Replacing an overflow value frees its chain; deleting everything
    // collapses the tree.
    root = bt_put(&mut heap, root, 5, b"short now").unwrap();
    assert_eq!(
        bt_get(&mut heap, root, 5).unwrap().as_deref(),
        Some(&b"short now"[..])
    );
    for k in 0..sizes.len() {
        root = bt_delete(&mut heap, root, k as u64).unwrap();
    }
    assert_eq!(root, 0);
}

// ----------------------------------------------------------------------
// paged store: eviction, checkpoint, reopen
// ----------------------------------------------------------------------

fn int_row(i: i64) -> Vec<Value> {
    vec![Value::Int(i), Value::Str(format!("row-{i}"))]
}

#[test]
fn paged_store_survives_eviction_and_reopen() {
    let scratch = Scratch::new();
    let n = 500u64;
    {
        let (store, meta) = PagedStore::open(scratch.path(), 1).unwrap();
        assert!(meta.is_none(), "fresh directory has no checkpoint meta");
        store.create_table("t");
        for i in 0..n {
            store.put_row("t", i, &int_row(i as i64));
        }
        let scanned = store.scan_table("t").unwrap();
        assert_eq!(scanned.len(), n as usize);
        for (i, (pos, row)) in scanned.iter().enumerate() {
            assert_eq!(*pos, i as u64);
            assert_eq!(row, &int_row(i as i64));
        }
        let stats = store.pool_stats();
        assert!(
            stats.evictions > 0 && stats.writebacks > 0,
            "an 8-frame pool over {n} rows must evict (stats: {stats:?})"
        );
        // Commit a checkpoint so the reopen has a meta to recover from.
        let catalog = xmlup_rdb::storage::CheckpointCatalog {
            generation: 1,
            next_id: 0,
            tables: vec![xmlup_rdb::storage::CatalogTable {
                key: "t".into(),
                name: "T".into(),
                columns: vec![
                    ("id".into(), DataType::Integer),
                    ("name".into(), DataType::Text),
                ],
                slots_len: n,
                indexed: vec![],
                ordered: vec![],
                stats: None,
            }],
            triggers: vec![],
        };
        let report = store.checkpoint(&catalog).unwrap().expect("incremental");
        assert!(report.pages_written > 0 && report.bytes_written > 0);
    }
    let (store, meta) = PagedStore::open(scratch.path(), 64).unwrap();
    let meta = meta.expect("checkpoint meta recovered");
    assert_eq!(meta.generation, 1);
    assert_eq!(meta.tables.len(), 1);
    let scanned = store.scan_table("t").unwrap();
    assert_eq!(scanned.len(), n as usize);
    for (i, (_, row)) in scanned.iter().enumerate() {
        assert_eq!(row, &int_row(i as i64));
    }
}

#[test]
fn incremental_checkpoint_writes_only_dirty_pages() {
    let scratch = Scratch::new();
    let (store, _) = PagedStore::open(scratch.path(), 4096).unwrap();
    store.create_table("t");
    for i in 0..2000u64 {
        store.put_row("t", i, &int_row(i as i64));
    }
    let catalog = |generation| xmlup_rdb::storage::CheckpointCatalog {
        generation,
        next_id: 0,
        tables: vec![xmlup_rdb::storage::CatalogTable {
            key: "t".into(),
            name: "T".into(),
            columns: vec![
                ("id".into(), DataType::Integer),
                ("name".into(), DataType::Text),
            ],
            slots_len: 2000,
            indexed: vec![],
            ordered: vec![],
            stats: None,
        }],
        triggers: vec![],
    };
    let full = store.checkpoint(&catalog(1)).unwrap().unwrap();
    // Touch a handful of rows: the next checkpoint must write far fewer
    // pages than the first (CoW amplifies a row to its root path, but
    // that is still O(touched), not O(database)).
    for i in 0..20u64 {
        store.put_row("t", i, &int_row(-(i as i64)));
    }
    let incr = store.checkpoint(&catalog(2)).unwrap().unwrap();
    assert!(
        incr.pages_written * 5 <= full.pages_written,
        "dirty-only checkpoint must be ≥5x smaller: full={} incr={}",
        full.pages_written,
        incr.pages_written
    );
}

// ----------------------------------------------------------------------
// engine integration
// ----------------------------------------------------------------------

fn select_all(db: &Database, table: &str) -> Vec<Vec<Value>> {
    db.query(&format!("SELECT * FROM {table} ORDER BY id"))
        .unwrap()
        .rows
}

#[test]
fn paged_database_checkpoint_and_reopen() {
    let scratch = Scratch::new();
    let cfg = StorageConfig::paged();
    let before;
    {
        let mut db = Database::open_with(scratch.path(), cfg).unwrap();
        assert_eq!(db.backend_kind(), BackendKind::Paged);
        db.run_script(
            "CREATE TABLE item (id INTEGER, label VARCHAR(20));
             CREATE INDEX item_id ON item (id);
             INSERT INTO item VALUES (1, 'a'), (2, 'b'), (3, 'c');
             UPDATE item SET label = 'bee' WHERE id = 2;
             DELETE FROM item WHERE id = 3;",
        )
        .unwrap();
        db.checkpoint().unwrap();
        let s = db.stats();
        assert!(
            s.checkpoint_pages_written > 0,
            "paged checkpoint reports pages"
        );
        assert!(s.checkpoint_bytes_written > 0);
        // Post-checkpoint mutations land in the WAL only.
        db.execute("INSERT INTO item VALUES (4, 'd')").unwrap();
        before = select_all(&db, "item");
        db.close().unwrap();
    }
    // Remove the legacy snapshot name if present: the paged path must
    // not depend on it.
    assert!(
        !scratch.path().join("snapshot.bin").exists(),
        "paged checkpoint must not write a full snapshot"
    );
    {
        let db = Database::open_with(scratch.path(), cfg).unwrap();
        assert_eq!(select_all(&db, "item"), before);
        // Index probes answer from the rebuilt tables.
        let rs = db.query("SELECT label FROM item WHERE id = 2").unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Str("bee".into())]]);
        let sm = db.storage_metrics();
        assert_eq!(sm.backend, BackendKind::Paged);
        assert!(sm.pages_allocated > 0);
    }
}

#[test]
fn paged_database_recovers_from_wal_without_checkpoint() {
    let scratch = Scratch::new();
    let cfg = StorageConfig::paged();
    let before;
    {
        let mut db = Database::open_with(scratch.path(), cfg).unwrap();
        db.run_script(
            "CREATE TABLE t (id INTEGER, v VARCHAR(10));
             INSERT INTO t VALUES (1, 'x'), (2, 'y');",
        )
        .unwrap();
        before = select_all(&db, "t");
        // Drop without close: simulated crash. Everything lives in the
        // WAL; the page store has no meta yet.
    }
    let db = Database::open_with(scratch.path(), cfg).unwrap();
    assert_eq!(select_all(&db, "t"), before);
    assert!(db.stats().recovered_txns > 0, "WAL replay ran");
}

#[test]
fn paged_rollback_and_ddl_undo_mirror_into_store() {
    let scratch = Scratch::new();
    let cfg = StorageConfig::paged();
    let mut db = Database::open_with(scratch.path(), cfg).unwrap();
    db.run_script(
        "CREATE TABLE t (id INTEGER, v VARCHAR(10));
         INSERT INTO t VALUES (1, 'keep');",
    )
    .unwrap();
    // DML rollback: the mirrored insert must be mirrored back out.
    db.run_script("BEGIN; INSERT INTO t VALUES (2, 'gone'); ROLLBACK;")
        .unwrap();
    // DDL rollback: DROP TABLE reclaims pages; the undo re-seeds them.
    db.run_script("BEGIN; DROP TABLE t; ROLLBACK;").unwrap();
    // DDL rollback the other way: CREATE TABLE undone drops the store
    // table again.
    db.run_script("BEGIN; CREATE TABLE u (id INTEGER); ROLLBACK;")
        .unwrap();
    db.checkpoint().unwrap();
    db.close().unwrap();
    let db = Database::open_with(scratch.path(), cfg).unwrap();
    assert_eq!(
        select_all(&db, "t"),
        vec![vec![Value::Int(1), Value::Str("keep".into())]]
    );
    assert!(
        db.query("SELECT * FROM u").is_err(),
        "rolled-back table gone"
    );
}

#[test]
fn paged_open_migrates_memory_snapshot() {
    let scratch = Scratch::new();
    {
        let mut db = Database::open(scratch.path()).unwrap();
        db.run_script(
            "CREATE TABLE m (id INTEGER, v VARCHAR(10));
             INSERT INTO m VALUES (1, 'one'), (2, 'two');",
        )
        .unwrap();
        db.checkpoint().unwrap();
        db.close().unwrap();
    }
    assert!(scratch.path().join("snapshot.bin").exists());
    let cfg = StorageConfig::paged();
    let before;
    {
        let mut db = Database::open_with(scratch.path(), cfg).unwrap();
        assert_eq!(db.backend_kind(), BackendKind::Paged);
        before = select_all(&db, "m");
        assert_eq!(before.len(), 2);
        db.execute("INSERT INTO m VALUES (3, 'three')").unwrap();
        db.checkpoint().unwrap();
        db.close().unwrap();
    }
    let db = Database::open_with(scratch.path(), cfg).unwrap();
    assert_eq!(select_all(&db, "m").len(), 3);
}

#[test]
fn paged_metrics_exposed() {
    let scratch = Scratch::new();
    let mut db = Database::open_with(scratch.path(), StorageConfig::paged()).unwrap();
    db.run_script(
        "CREATE TABLE t (id INTEGER);
         INSERT INTO t VALUES (1), (2), (3);",
    )
    .unwrap();
    db.query("SELECT * FROM t").unwrap();
    let text = db.metrics_text();
    for name in [
        "rdb_storage_pool_hits_total",
        "rdb_storage_pool_misses_total",
        "rdb_storage_pool_evictions_total",
        "rdb_storage_pages_allocated",
        "rdb_checkpoint_pages_written_total",
        "rdb_checkpoint_bytes_written_total",
    ] {
        assert!(text.contains(name), "metrics must expose {name}");
    }
}
