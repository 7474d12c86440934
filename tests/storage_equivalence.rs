//! Backend-equivalence acceptance test for the paged storage engine
//! (ISSUE: pager + B-tree tables + buffer pool behind `StorageBackend`):
//! the *same* randomized update script, executed against a durable store
//! on the in-memory backend and against one on the paged backend, must
//! leave both stores with byte-identical SELECT-visible state and the
//! identical XML document — under the Shared Inlining mapping AND the
//! Edge mapping.
//!
//! The paged store runs with a buffer pool far smaller than the dataset
//! so eviction and page reload are on the hot path, and the two stores
//! checkpoint on *different* schedules mid-script, so full-snapshot and
//! incremental checkpoints interleave with the updates without being
//! allowed to perturb visible state. After the script the paged store is
//! crashed (dropped without close), reopened, and compared once more —
//! recovery through meta + WAL must reproduce the same state. Last, it is
//! checkpointed, dropped and reopened, so the whole state is decoded from
//! page images alone, and compared again.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use xmlup_core::{DeleteStrategy, InsertStrategy, RepoConfig, XmlRepository};
use xmlup_rdb::{BackendKind, Database, StorageConfig, Value};
use xmlup_shred::{edge, Mapping};
use xmlup_workload::driver::{pick_targets, Workload};
use xmlup_workload::{fixed_document, synthetic_dtd, SyntheticParams};

/// Unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "xmlup-equiv-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
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

/// Tiny pool so the synthetic dataset overflows it and the script runs
/// through eviction + reload, not just cached pages.
const SMALL_POOL: usize = 8;

fn repo_config(backend: BackendKind) -> RepoConfig {
    RepoConfig {
        delete_strategy: DeleteStrategy::Cascading,
        insert_strategy: InsertStrategy::Tuple,
        backend,
        pool_frames: SMALL_POOL,
        ..RepoConfig::default()
    }
}

/// The SELECT-visible state: every table dumped through the query path,
/// ordered by id, plus the id counter.
#[allow(clippy::type_complexity)]
fn visible_state(db: &Database) -> (Vec<(String, Vec<Vec<Value>>)>, i64) {
    let mut tables = Vec::new();
    for name in db.table_names() {
        let cols: Vec<String> = db.table(&name).unwrap().schema.column_names();
        let rs = db
            .query(&format!(
                "SELECT {} FROM {name} ORDER BY id",
                cols.join(", ")
            ))
            .unwrap();
        tables.push((name, rs.rows));
    }
    tables.sort_by(|a, b| a.0.cmp(&b.0));
    (tables, db.peek_next_id())
}

fn params() -> impl Strategy<Value = SyntheticParams> {
    (3usize..8, 2usize..4, 1usize..3, any::<u64>()).prop_map(|(sf, d, f, seed)| SyntheticParams {
        scaling_factor: sf,
        depth: d,
        fanout: f,
        seed,
    })
}

/// One logical update operation, applied identically to both stores.
#[derive(Debug, Clone, Copy)]
enum Op {
    Delete(i64),
    CopyUnderRoot(i64),
}

/// Derive a deterministic script from the workload's target picker: each
/// target becomes a delete or a subtree copy, seed-driven.
fn script_for(repo: &XmlRepository, rel: usize, seed: u64) -> Vec<Op> {
    pick_targets(repo, rel, Workload::random10())
        .into_iter()
        .enumerate()
        .map(|(i, id)| {
            if (seed >> (i % 64)) & 1 == 0 {
                Op::Delete(id)
            } else {
                Op::CopyUnderRoot(id)
            }
        })
        .collect()
}

fn apply(repo: &mut XmlRepository, rel: usize, op: Op) {
    match op {
        // The target may have been removed by an earlier cascading
        // delete; both stores skip it identically.
        Op::Delete(id) => {
            repo.delete_by_id(rel, id).unwrap();
        }
        Op::CopyUnderRoot(id) => {
            if repo.ids_of(rel).contains(&id) {
                let root = repo.root_id().unwrap();
                repo.copy_subtree(rel, id, root).unwrap();
            }
        }
    }
}

/// Fetch every live subtree of relation `rel` one at a time through the
/// Sorted Outer Union and serialize each. Every level's parentId join
/// probes its index.
fn subtree_fetches(repo: &mut XmlRepository, rel: usize) -> Vec<String> {
    repo.ids_of(rel)
        .into_iter()
        .map(|id| {
            let (doc, _) = repo.fetch(rel, Some(&format!("id = {id}"))).unwrap();
            xmlup_xml::serializer::to_string(&doc)
        })
        .collect()
}

fn inline_repo(path: &Path, p: &SyntheticParams, backend: BackendKind) -> (XmlRepository, usize) {
    let dtd = synthetic_dtd(p.depth);
    let mapping = Mapping::from_dtd(&dtd, "root").unwrap();
    let mut repo = XmlRepository::open_durable(path, mapping, repo_config(backend)).unwrap();
    if repo.tuple_count() == 0 {
        repo.load(&fixed_document(p)).unwrap();
    }
    let rel = repo.mapping.relation_by_element("n1").unwrap();
    (repo, rel)
}

fn run_inline_case(p: &SyntheticParams, seed: u64) -> Result<(), TestCaseError> {
    let (mem_dir, paged_dir) = (Scratch::new(), Scratch::new());
    let (mut mem, rel) = inline_repo(mem_dir.path(), p, BackendKind::Memory);
    let (mut paged, prel) = inline_repo(paged_dir.path(), p, BackendKind::Paged);
    prop_assert_eq!(rel, prel);
    prop_assert_eq!(paged.db.backend_kind(), BackendKind::Paged);

    let script = script_for(&mem, rel, seed);
    for (i, &op) in script.iter().enumerate() {
        apply(&mut mem, rel, op);
        apply(&mut paged, rel, op);
        // Divergent checkpoint schedules: full snapshots on the memory
        // store, incremental flushes on the paged one.
        if i % 5 == 2 {
            mem.checkpoint().unwrap();
        }
        if i % 3 == 1 {
            paged.checkpoint().unwrap();
        }
    }

    prop_assert_eq!(visible_state(&mem.db), visible_state(&paged.db));

    // The published XML is the same document.
    let root = mem.mapping.relation_by_element("root").unwrap();
    let (mem_doc, _) = mem.fetch(root, None).unwrap();
    let (paged_doc, _) = paged.fetch(root, None).unwrap();
    prop_assert_eq!(
        xmlup_xml::serializer::to_string(&mem_doc),
        xmlup_xml::serializer::to_string(&paged_doc)
    );
    // So is every subtree fetched on its own.
    prop_assert_eq!(
        subtree_fetches(&mut mem, rel),
        subtree_fetches(&mut paged, rel)
    );

    // When the dataset outgrows SMALL_POOL frames the script must have
    // gone through eviction, not just cache hits.
    let sm = paged.db.storage_metrics();
    if sm.pages_allocated as usize > SMALL_POOL {
        prop_assert!(
            sm.pool.evictions > 0,
            "{} pages never evicted from a {SMALL_POOL}-frame pool",
            sm.pages_allocated
        );
    }

    // Crash the paged store and recover: same visible state again.
    let expected = visible_state(&paged.db);
    drop(paged);
    let (mut paged2, _) = inline_repo(paged_dir.path(), p, BackendKind::Paged);
    prop_assert_eq!(visible_state(&paged2.db), expected);

    // Checkpoint and reopen: the state now comes from page images alone.
    paged2.checkpoint().unwrap();
    drop(paged2);
    let (paged3, _) = inline_repo(paged_dir.path(), p, BackendKind::Paged);
    prop_assert_eq!(visible_state(&paged3.db), expected);
    paged3.close_durable().unwrap();
    mem.close_durable().unwrap();
    Ok(())
}

/// Per-subtree outer-union fetches take the index-join probe path on both
/// backends and return the same XML. Reads are served from the in-memory
/// heap, so on the paged backend they leave the buffer pool untouched.
#[test]
fn subtree_fetch_index_join_matches_across_backends() {
    let p = SyntheticParams {
        scaling_factor: 6,
        depth: 3,
        fanout: 2,
        seed: 7,
    };
    let (mem_dir, paged_dir) = (Scratch::new(), Scratch::new());
    let (mut mem, rel) = inline_repo(mem_dir.path(), &p, BackendKind::Memory);
    let (mut paged, _) = inline_repo(paged_dir.path(), &p, BackendKind::Paged);
    // Reopen the paged store so its tables are rebuilt from the page file.
    paged.checkpoint().unwrap();
    paged.close_durable().unwrap();
    let (mut paged, _) = inline_repo(paged_dir.path(), &p, BackendKind::Paged);

    let before = (
        mem.db.stats(),
        paged.db.stats(),
        paged.db.storage_metrics().pool,
    );
    let mem_xml = subtree_fetches(&mut mem, rel);
    let paged_xml = subtree_fetches(&mut paged, rel);
    assert_eq!(mem_xml.len(), 6);
    assert_eq!(mem_xml, paged_xml);
    let after = (
        mem.db.stats(),
        paged.db.stats(),
        paged.db.storage_metrics().pool,
    );
    for (b, a) in [(&before.0, &after.0), (&before.1, &after.1)] {
        assert_eq!(a.hash_join_builds, b.hash_join_builds, "{a:?}");
        assert!(a.index_lookups > b.index_lookups, "{a:?}");
    }
    assert_eq!(
        (after.2.hits, after.2.misses),
        (before.2.hits, before.2.misses),
        "paged probes read through the buffer pool"
    );
    paged.close_durable().unwrap();
    mem.close_durable().unwrap();
}

// ----------------------------------------------------------------------
// Edge mapping
// ----------------------------------------------------------------------

fn edge_db(path: &Path, p: &SyntheticParams, config: StorageConfig) -> Database {
    let mut db = Database::open_with(path, config).unwrap();
    if db.table_names().is_empty() {
        db.bump_next_id(1);
        edge::create_schema(&mut db).unwrap();
        edge::create_delete_trigger(&mut db).unwrap();
        edge::shred(&mut db, &fixed_document(p)).unwrap();
    }
    db
}

fn edge_children(db: &Database) -> (i64, Vec<i64>) {
    let root = db
        .query("SELECT id FROM Edge WHERE parentId = 0")
        .unwrap()
        .rows[0][0]
        .as_int()
        .unwrap();
    let children = db
        .query(&format!(
            "SELECT id FROM Edge WHERE parentId = {root} ORDER BY id"
        ))
        .unwrap()
        .rows
        .iter()
        .filter_map(|r| r[0].as_int())
        .collect();
    (root, children)
}

fn run_edge_case(p: &SyntheticParams, seed: u64) -> Result<(), TestCaseError> {
    let (mem_dir, paged_dir) = (Scratch::new(), Scratch::new());
    let paged_cfg = StorageConfig {
        pool_frames: SMALL_POOL,
        ..StorageConfig::paged()
    };
    let mut mem = edge_db(mem_dir.path(), p, StorageConfig::default());
    let mut paged = edge_db(paged_dir.path(), p, paged_cfg);

    let (root, children) = edge_children(&mem);
    prop_assert_eq!((root, children.clone()), edge_children(&paged));

    for i in 0..8usize {
        let src = children[(seed as usize + i) % children.len()];
        // Copy one subtree; every other round delete the copy again via
        // the cascade trigger (same script on both stores).
        for db in [&mut mem, &mut paged] {
            let max_before: i64 = db.query("SELECT MAX(id) FROM Edge").unwrap().rows[0][0]
                .as_int()
                .unwrap();
            edge::copy_subtree(db, src, root).unwrap();
            if i % 2 == 0 {
                db.execute(&format!(
                    "DELETE FROM Edge WHERE parentId = {root} AND id > {max_before}"
                ))
                .unwrap();
            }
        }
        if i % 4 == 1 {
            mem.checkpoint().unwrap();
        }
        if i % 2 == 1 {
            paged.checkpoint().unwrap();
        }
    }

    prop_assert_eq!(visible_state(&mem), visible_state(&paged));
    prop_assert_eq!(
        xmlup_xml::serializer::to_string(&edge::unshred(&mut mem).unwrap()),
        xmlup_xml::serializer::to_string(&edge::unshred(&mut paged).unwrap())
    );

    // Crash + recover the paged store.
    let expected = visible_state(&paged);
    drop(paged);
    let mut paged2 = edge_db(paged_dir.path(), p, paged_cfg);
    prop_assert_eq!(visible_state(&paged2), expected);

    // Checkpoint and reopen: the state now comes from page images alone.
    paged2.checkpoint().unwrap();
    drop(paged2);
    let paged3 = edge_db(paged_dir.path(), p, paged_cfg);
    prop_assert_eq!(visible_state(&paged3), expected);
    paged3.close().unwrap();
    mem.close().unwrap();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Shared Inlining: the same randomized delete/copy script leaves the
    /// memory-backend and paged-backend stores SELECT-identical, XML
    /// round-trip included, with eviction exercised and a crash+recover
    /// of the paged store at the end.
    #[test]
    fn inline_backends_equivalent(p in params(), seed in any::<u64>()) {
        run_inline_case(&p, seed)?;
    }

    /// Edge: same subtree-copy/cascade-delete script, same equivalence.
    #[test]
    fn edge_backends_equivalent(p in params(), seed in any::<u64>()) {
        run_edge_case(&p, seed)?;
    }
}
