//! MVCC snapshot-read tests: visibility reconstruction across the four
//! scan access paths, version GC bounds, and multi-threaded snapshot
//! isolation through the session layer.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use xmlup_rdb::session::SqlOutcome;
use xmlup_rdb::{Database, SharedDatabase, Value};

fn seeded() -> Database {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE t (id INTEGER, grp INTEGER, v VARCHAR(10));
         CREATE INDEX t_id ON t (id);
         INSERT INTO t VALUES (1, 1, 'a'), (2, 1, 'b'), (3, 2, 'c');",
    )
    .unwrap();
    db.enable_mvcc(true);
    db
}

fn count(db: &Database, snapshot: Option<u64>, sql: &str) -> i64 {
    db.query_at(sql, snapshot).unwrap().rows[0][0]
        .as_int()
        .unwrap()
}

#[test]
fn snapshot_hides_later_commits_on_every_access_path() {
    let mut db = seeded();
    let snap = db.begin_snapshot();

    db.execute("DELETE FROM t WHERE id = 1").unwrap();
    db.execute("INSERT INTO t VALUES (4, 2, 'd')").unwrap();
    db.execute("UPDATE t SET v = 'X' WHERE id = 2").unwrap();

    // Live state reflects all three statements…
    assert_eq!(count(&db, None, "SELECT COUNT(*) FROM t"), 3);
    assert_eq!(count(&db, None, "SELECT COUNT(*) FROM t WHERE v = 'X'"), 1);

    // …while the snapshot still sees the BEGIN-time image through a
    // sequential scan, an indexed point probe, and an indexed IN-list.
    assert_eq!(count(&db, Some(snap), "SELECT COUNT(*) FROM t"), 3);
    assert_eq!(
        count(&db, Some(snap), "SELECT COUNT(*) FROM t WHERE id = 1"),
        1
    );
    assert_eq!(
        count(&db, Some(snap), "SELECT COUNT(*) FROM t WHERE id = 4"),
        0
    );
    assert_eq!(
        count(
            &db,
            Some(snap),
            "SELECT COUNT(*) FROM t WHERE id IN (1, 2, 4)"
        ),
        2
    );
    assert_eq!(
        count(&db, Some(snap), "SELECT COUNT(*) FROM t WHERE v = 'X'"),
        0
    );

    // Rows reconstructed for the snapshot carry their old values.
    let rs = db
        .query_at("SELECT v FROM t WHERE id = 2", Some(snap))
        .unwrap();
    assert_eq!(rs.rows[0][0], Value::Str("b".into()));

    db.end_snapshot(snap);
}

#[test]
fn uncommitted_transaction_is_invisible_to_snapshots() {
    let mut db = seeded();
    let snap = db.begin_snapshot();
    db.begin().unwrap();
    db.execute("DELETE FROM t").unwrap();
    // Uncommitted delete: live heap is empty, the snapshot still sees 3.
    assert_eq!(count(&db, Some(snap), "SELECT COUNT(*) FROM t"), 3);
    db.rollback().unwrap();
    assert_eq!(count(&db, Some(snap), "SELECT COUNT(*) FROM t"), 3);
    assert_eq!(count(&db, None, "SELECT COUNT(*) FROM t"), 3);
    db.end_snapshot(snap);
}

#[test]
fn version_gc_is_bounded_by_the_oldest_snapshot() {
    let mut db = seeded();
    assert_eq!(db.snapshot_versions_retained(), 0);

    let snap = db.begin_snapshot();
    db.execute("UPDATE t SET v = 'x1' WHERE id = 1").unwrap();
    db.execute("UPDATE t SET v = 'x2' WHERE id = 1").unwrap();
    assert!(db.snapshot_versions_retained() > 0);

    // Once the snapshot closes, the next commit garbage-collects every
    // before-image it was holding alive.
    db.end_snapshot(snap);
    db.execute("UPDATE t SET v = 'x3' WHERE id = 1").unwrap();
    assert_eq!(db.snapshot_versions_retained(), 0);

    // With MVCC off, mutations retain nothing.
    db.enable_mvcc(false);
    db.execute("UPDATE t SET v = 'x4' WHERE id = 1").unwrap();
    assert_eq!(db.snapshot_versions_retained(), 0);
}

#[test]
fn concurrent_readers_see_stable_counts_while_writer_churns() {
    // A writer moves rows between groups inside explicit transactions
    // (total count invariant: 3). Reader sessions repeatedly open a
    // read transaction and check that two statements in it agree — a
    // torn read would observe a partially-applied transaction.
    let shared = SharedDatabase::new(seeded());
    let stop = Arc::new(AtomicBool::new(false));

    let mut readers = Vec::new();
    for _ in 0..4 {
        let shared = shared.clone();
        let stop = stop.clone();
        readers.push(std::thread::spawn(move || {
            let mut checks = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let mut sess = shared.session();
                sess.execute("BEGIN").unwrap();
                let a = match sess.execute("SELECT COUNT(*) FROM t").unwrap() {
                    SqlOutcome::Rows(rs) => rs.rows[0][0].as_int().unwrap(),
                    other => panic!("{other:?}"),
                };
                let b = match sess
                    .execute("SELECT COUNT(*) FROM t WHERE grp IN (1, 2)")
                    .unwrap()
                {
                    SqlOutcome::Rows(rs) => rs.rows[0][0].as_int().unwrap(),
                    other => panic!("{other:?}"),
                };
                sess.execute("COMMIT").unwrap();
                assert_eq!(a, 3, "reader saw a partially-committed state");
                assert_eq!(b, 3, "reader saw a partially-committed state");
                checks += 1;
            }
            checks
        }));
    }

    let writer = {
        let shared = shared.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut i = 0;
            while !stop.load(Ordering::Relaxed) {
                let mut sess = shared.session();
                sess.execute("BEGIN").unwrap();
                sess.execute("DELETE FROM t").unwrap();
                sess.execute(&format!(
                    "INSERT INTO t VALUES (1, 1, 'a{i}'), (2, 1, 'b{i}'), (3, 2, 'c{i}')"
                ))
                .unwrap();
                sess.execute("COMMIT").unwrap();
                i += 1;
            }
        })
    };

    std::thread::sleep(std::time::Duration::from_millis(300));
    stop.store(true, Ordering::Relaxed);
    let total: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
    writer.join().unwrap();
    assert!(total > 0, "readers must have made progress");

    // Quiescent: all snapshots closed, the next commit GCs every
    // version, and the final state is consistent.
    shared
        .execute("UPDATE t SET v = 'final' WHERE id = 1")
        .unwrap();
    assert_eq!(shared.with_read(|db| db.active_snapshots()), 0);
    assert_eq!(shared.with_read(|db| db.snapshot_versions_retained()), 0);
    assert_eq!(
        shared.query("SELECT COUNT(*) FROM t").unwrap().rows[0][0],
        Value::Int(3)
    );
}

#[test]
fn index_join_under_a_stale_snapshot_reads_the_snapshot_rows() {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE parent (id INTEGER);
         CREATE TABLE child (id INTEGER, parentId INTEGER);
         CREATE INDEX child_parent ON child (parentId);
         INSERT INTO parent VALUES (1), (2), (3);
         INSERT INTO child VALUES (10, 1), (11, 1), (12, 2), (13, 3), (14, 3), (15, 1);",
    )
    .unwrap();
    db.enable_mvcc(true);
    // A join on an indexed parentId: the index-join shape.
    let sql = "SELECT c.id FROM parent p, child c WHERE c.parentId = p.id AND p.id = 1";
    let ids = |db: &Database, snap: Option<u64>| -> Vec<Value> {
        db.query_at(sql, snap)
            .unwrap()
            .rows
            .into_iter()
            .map(|r| r[0].clone())
            .collect()
    };
    let before = ids(&db, None);
    assert_eq!(before, vec![Value::Int(10), Value::Int(11), Value::Int(15)]);

    let snap = db.begin_snapshot();
    // A writer commits past the snapshot: the live parentId index now
    // describes rows the snapshot must not see, and misses one it must.
    db.execute("INSERT INTO child VALUES (99, 1)").unwrap();
    db.execute("DELETE FROM child WHERE id = 10").unwrap();
    db.execute("UPDATE child SET parentId = 2 WHERE id = 11")
        .unwrap();
    db.execute("UPDATE child SET parentId = 1 WHERE id = 12")
        .unwrap();

    db.reset_stats();
    assert_eq!(ids(&db, Some(snap)), before, "snapshot rows");
    let s = db.stats();
    assert_eq!(
        s.hash_join_builds, 1,
        "stale snapshot must build over the snapshot image: {s:?}"
    );
    assert_eq!(s.index_lookups, 0, "{s:?}");

    // The live state (and a fresh snapshot) probe the moved index.
    db.reset_stats();
    let live = vec![Value::Int(12), Value::Int(15), Value::Int(99)];
    assert_eq!(ids(&db, None), live);
    let fresh = db.begin_snapshot();
    assert_eq!(ids(&db, Some(fresh)), live);
    let s = db.stats();
    assert_eq!(s.hash_join_builds, 0, "{s:?}");
    assert_eq!(s.index_lookups, 2, "{s:?}");
    db.end_snapshot(fresh);
    db.end_snapshot(snap);
}
