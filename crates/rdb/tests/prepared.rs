//! Prepared statements, parameter binding, and plan-cache behavior —
//! the engine-side analogue of the JDBC `PreparedStatement`s the paper's
//! middleware holds against DB2.

use xmlup_rdb::{Database, DbError, Value};

fn item_db() -> Database {
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE Item (id INTEGER, qty INTEGER, name VARCHAR(50),
                            ok BOOLEAN, note VARCHAR(50));
         CREATE INDEX item_id ON Item (id);",
    )
    .unwrap();
    db
}

// ----------------------------------------------------------------------
// parameter binding
// ----------------------------------------------------------------------

#[test]
fn binding_round_trips_every_value_variant() {
    let mut db = item_db();
    let ins = db
        .prepare("INSERT INTO Item VALUES (?, ?, ?, ?, ?)")
        .unwrap();
    assert_eq!(ins.param_count(), 5);
    let bound = [
        Value::Int(1),
        Value::Int(42),
        Value::Str("tire".into()),
        Value::Bool(true),
        Value::Null,
    ];
    db.execute_prepared(&ins, &bound).unwrap();
    let rs = db
        .query("SELECT id, qty, name, ok, note FROM Item")
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0], bound.to_vec());
}

#[test]
fn parameters_bind_in_predicates() {
    let mut db = item_db();
    db.run_script(
        "INSERT INTO Item VALUES (1, 4, 'tire', TRUE, NULL),
                                 (2, 2, 'wiper', FALSE, NULL),
                                 (3, 1, 'battery', TRUE, 'fragile');",
    )
    .unwrap();
    let by_id = db.prepare("SELECT name FROM Item WHERE id = ?").unwrap();
    for (id, name) in [(1, "tire"), (2, "wiper"), (3, "battery")] {
        let rs = db.query_prepared(&by_id, &[Value::Int(id)]).unwrap();
        assert_eq!(rs.rows[0][0], Value::from(name));
    }
    // Dollar parameters may repeat a slot.
    let sel = db
        .prepare("SELECT name FROM Item WHERE id = $1 OR qty = $1")
        .unwrap();
    assert_eq!(sel.param_count(), 1);
    let rs = db.query_prepared(&sel, &[Value::Int(2)]).unwrap();
    assert_eq!(rs.rows.len(), 1); // wiper matches on both id and qty
    assert_eq!(rs.rows[0][0], Value::from("wiper"));
    let upd = db
        .prepare("UPDATE Item SET qty = ? WHERE name = ?")
        .unwrap();
    let n = db
        .execute_prepared(&upd, &[Value::Int(9), Value::Str("tire".into())])
        .unwrap()
        .affected();
    assert_eq!(n, 1);
    let rs = db.query("SELECT qty FROM Item WHERE id = 1").unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(9));
}

#[test]
fn arity_mismatch_is_an_error() {
    let mut db = item_db();
    let ins = db
        .prepare("INSERT INTO Item VALUES (?, ?, ?, ?, ?)")
        .unwrap();
    let err = db.execute_prepared(&ins, &[Value::Int(1)]).unwrap_err();
    assert!(matches!(err, DbError::Execution(_)), "got {err:?}");
    let err = db
        .execute_prepared(
            &ins,
            &[
                Value::Int(1),
                Value::Int(2),
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
            ],
        )
        .unwrap_err();
    assert!(matches!(err, DbError::Execution(_)), "got {err:?}");
}

// ----------------------------------------------------------------------
// plan cache
// ----------------------------------------------------------------------

#[test]
fn repeated_text_parses_once() {
    let mut db = item_db();
    let before = db.stats();
    for i in 0..10 {
        db.execute(&format!(
            "INSERT INTO Item VALUES ({i}, 0, 'x', TRUE, NULL)"
        ))
        .ok();
        db.query("SELECT COUNT(*) FROM Item").unwrap();
    }
    let s = db.stats();
    // The COUNT(*) text repeats: 1 parse, 9 hits. The INSERTs differ.
    assert_eq!(s.client_statements - before.client_statements, 20);
    assert!(s.plan_cache_hits - before.plan_cache_hits >= 9);
}

#[test]
fn full_cache_stays_bounded_and_keeps_a_hot_text() {
    // Twice the engine's 512-entry capacity in one-off texts, the shape
    // of translated lookups that embed literals, with one text reused
    // on every iteration.
    let db = item_db();
    let hot = "SELECT COUNT(*) FROM Item";
    db.query(hot).unwrap();
    let entries = |db: &Database| {
        db.metrics()
            .into_iter()
            .find(|m| m.name == "rdb_plan_cache_entries")
            .expect("plan-cache gauge")
            .value
    };
    for i in 0..2 * 512 {
        db.query(&format!("SELECT name FROM Item WHERE qty = {i}"))
            .unwrap();
        let hits = db.stats().plan_cache_hits;
        db.query(hot).unwrap();
        assert_eq!(
            db.stats().plan_cache_hits,
            hits + 1,
            "hot text evicted at {i}"
        );
        assert!(entries(&db) <= 512, "cache grew to {}", entries(&db));
    }
    // Evictions happened: far fewer entries than texts seen.
    assert!(entries(&db) < 2 * 512);
}

#[test]
fn statements_parsed_stays_flat_while_client_statements_grows() {
    let mut db = item_db();
    let ins = db
        .prepare("INSERT INTO Item VALUES (?, ?, ?, ?, ?)")
        .unwrap();
    let sel = db.prepare("SELECT name FROM Item WHERE id = ?").unwrap();
    let parsed_before = db.stats().statements_parsed;
    let client_before = db.stats().client_statements;
    for i in 0..50 {
        db.execute_prepared(
            &ins,
            &[
                Value::Int(i),
                Value::Int(i % 7),
                Value::Str(format!("item{i}")),
                Value::Bool(i % 2 == 0),
                Value::Null,
            ],
        )
        .unwrap();
        let rs = db.query_prepared(&sel, &[Value::Int(i)]).unwrap();
        assert_eq!(rs.rows[0][0], Value::Str(format!("item{i}")));
    }
    let s = db.stats();
    assert_eq!(
        s.statements_parsed, parsed_before,
        "no re-parsing after prepare"
    );
    assert_eq!(s.client_statements - client_before, 100);
}

/// Run a cached text through `f` and assert that it was served from the
/// plan cache: no statement parsed, at least one cache hit.
fn from_cache<T>(db: &mut Database, f: impl FnOnce(&mut Database) -> T) -> T {
    let before = db.stats();
    let out = f(db);
    let s = db.stats();
    assert_eq!(s.statements_parsed, before.statements_parsed, "re-parsed");
    assert!(s.plan_cache_hits > before.plan_cache_hits, "cache missed");
    out
}

fn plan_lines(rs: &xmlup_rdb::ResultSet) -> String {
    rs.rows
        .iter()
        .map(|r| r[0].as_str().unwrap_or_default().to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn ddl_replans_cached_text_without_reparse() {
    // CREATE INDEX: the cached text's next run uses the index. EXPLAIN
    // ANALYZE renders the plan that ran (plain EXPLAIN plans afresh).
    let mut db = item_db();
    let explain = "EXPLAIN ANALYZE SELECT name FROM Item WHERE qty = 5";
    let before = plan_lines(&db.query(explain).unwrap());
    assert!(before.contains("SeqScan Item"), "{before}");
    db.execute("CREATE INDEX item_qty ON Item (qty)").unwrap();
    let after = from_cache(&mut db, |db| plan_lines(&db.query(explain).unwrap()));
    assert!(after.contains("IndexScan Item (qty = 5)"), "{after}");

    // DROP + CREATE with other columns: `SELECT *` returns the new ones.
    let mut db = item_db();
    db.execute("INSERT INTO Item VALUES (1, 2, 'a', TRUE, NULL)")
        .unwrap();
    let star = "SELECT * FROM Item";
    assert_eq!(db.query(star).unwrap().columns.len(), 5);
    db.execute("DROP TABLE Item").unwrap();
    db.execute("CREATE TABLE Item (sku VARCHAR(10), price INTEGER)")
        .unwrap();
    db.execute("INSERT INTO Item VALUES ('s1', 7)").unwrap();
    let rs = from_cache(&mut db, |db| db.query(star).unwrap());
    assert_eq!(rs.columns, ["sku", "price"]);
    assert_eq!(rs.rows, [vec![Value::Str("s1".into()), Value::Int(7)]]);

    // DROP TABLE: the cached text finds no such table.
    let mut db = item_db();
    let count = "SELECT COUNT(*) FROM Item";
    db.query(count).unwrap();
    db.execute("DROP TABLE Item").unwrap();
    let err = from_cache(&mut db, |db| db.query(count).unwrap_err());
    assert!(matches!(err, DbError::NoSuchTable(_)), "got {err:?}");

    // CREATE TRIGGER: a DML text cached before the trigger existed
    // fires it.
    let mut db = item_db();
    db.execute("CREATE TABLE Gone (id INTEGER)").unwrap();
    let del = "DELETE FROM Item WHERE id = 1";
    db.execute(del).unwrap();
    db.execute("INSERT INTO Item VALUES (1, 2, 'a', TRUE, NULL)")
        .unwrap();
    db.execute(
        "CREATE TRIGGER item_gone AFTER DELETE ON Item FOR EACH ROW BEGIN \
         INSERT INTO Gone VALUES (OLD.id); END",
    )
    .unwrap();
    let n = from_cache(&mut db, |db| db.execute(del).unwrap().affected());
    assert_eq!(n, 1);
    let rs = db.query("SELECT id FROM Gone").unwrap();
    assert_eq!(rs.rows, [vec![Value::Int(1)]]);
}

#[test]
fn prepared_handle_survives_ddl() {
    let mut db = item_db();
    let sel = db.prepare("SELECT COUNT(*) FROM Item").unwrap();
    // The handle keeps its parsed statement across DDL; names resolve
    // at execution time.
    db.execute("CREATE TABLE Other (id INTEGER)").unwrap();
    let rs = db.query_prepared(&sel, &[]).unwrap();
    assert_eq!(rs.scalar().and_then(Value::as_int), Some(0));
}

#[test]
fn unbound_parameter_in_plain_execute_errors() {
    let db = item_db();
    let err = db.query("SELECT name FROM Item WHERE id = ?").unwrap_err();
    assert!(matches!(err, DbError::Execution(_)), "got {err:?}");
}

#[test]
fn rollback_of_ddl_replans_cached_text_without_reparse() {
    // ROLLBACK of CREATE TABLE: a text planned against the rolled-back
    // table now finds no such table.
    let mut db = item_db();
    let count = "SELECT COUNT(*) FROM Tmp";
    db.execute("BEGIN").unwrap();
    db.execute("CREATE TABLE Tmp (x INTEGER)").unwrap();
    db.execute("INSERT INTO Tmp VALUES (1)").unwrap();
    db.query(count).unwrap();
    db.execute("ROLLBACK").unwrap();
    let err = from_cache(&mut db, |db| db.query(count).unwrap_err());
    assert!(matches!(err, DbError::NoSuchTable(_)), "got {err:?}");

    // The same for a table that shadowed a system view: once it is rolled
    // back the text reads the view again. A plan left over from the
    // transaction would still scan the vanished user table.
    let mut db = item_db();
    let view = "SELECT name FROM rdb_tables WHERE name = 'item'";
    db.execute("BEGIN").unwrap();
    db.execute("CREATE TABLE rdb_tables (name VARCHAR(10))")
        .unwrap();
    assert!(db.query(view).unwrap().rows.is_empty());
    db.execute("ROLLBACK").unwrap();
    let rs = from_cache(&mut db, |db| db.query(view).unwrap());
    assert_eq!(rs.rows, [vec![Value::Str("item".into())]]);

    // ROLLBACK of DROP TABLE: the text returns the old rows and columns,
    // even though it last ran against a replacement table inside the
    // transaction.
    let mut db = item_db();
    db.execute("INSERT INTO Item VALUES (1, 2, 'a', TRUE, NULL)")
        .unwrap();
    let star = "SELECT * FROM Item";
    let old = db.query(star).unwrap();
    db.execute("BEGIN").unwrap();
    db.execute("DROP TABLE Item").unwrap();
    db.execute("CREATE TABLE Item (sku VARCHAR(10))").unwrap();
    assert_eq!(db.query(star).unwrap().columns, ["sku"]);
    db.execute("ROLLBACK").unwrap();
    let rs = from_cache(&mut db, |db| db.query(star).unwrap());
    assert_eq!(rs.columns, old.columns);
    assert_eq!(rs.rows, old.rows);
}

#[test]
fn rollback_without_ddl_keeps_the_cache() {
    let mut db = item_db();
    db.execute("INSERT INTO Item VALUES (1, 1, 'a', TRUE, NULL)")
        .unwrap();
    db.query("SELECT COUNT(*) FROM Item").unwrap();
    db.execute("BEGIN").unwrap();
    db.execute("DELETE FROM Item").unwrap();
    db.execute("ROLLBACK").unwrap();
    let hits_before = db.stats().plan_cache_hits;
    db.query("SELECT COUNT(*) FROM Item").unwrap();
    assert_eq!(
        db.stats().plan_cache_hits,
        hits_before + 1,
        "pure-DML rollback must not evict cached plans"
    );
}
