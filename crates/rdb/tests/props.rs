//! Property-based tests for the relational engine: value ordering laws,
//! three-valued logic, index/scan agreement, and random DML sequences
//! preserving table invariants.

use proptest::prelude::*;
use xmlup_rdb::{Database, Value};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        "[a-zA-Z0-9 ]{0,12}".prop_map(Value::Str),
        any::<bool>().prop_map(Value::Bool),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sort_cmp_is_total_and_antisymmetric(a in arb_value(), b in arb_value()) {
        use std::cmp::Ordering::*;
        match (a.sort_cmp(&b), b.sort_cmp(&a)) {
            (Less, Greater) | (Greater, Less) | (Equal, Equal) => {}
            other => prop_assert!(false, "antisymmetry violated: {other:?}"),
        }
    }

    #[test]
    fn sort_cmp_is_transitive(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering::Less;
        if a.sort_cmp(&b) == Less && b.sort_cmp(&c) == Less {
            prop_assert_eq!(a.sort_cmp(&c), Less);
        }
    }

    #[test]
    fn sql_eq_consistent_with_rust_eq(a in arb_value(), b in arb_value()) {
        if let Some(ord) = a.sql_cmp(&b) {
            // Comparable & equal under SQL ⇒ equal as Rust values.
            if ord == std::cmp::Ordering::Equal {
                prop_assert_eq!(&a, &b);
            }
        } else {
            // NULL never compares.
            prop_assert!(a.is_null() || b.is_null() || a.data_type() != b.data_type());
        }
    }
}

/// Apply a random sequence of inserts/deletes/updates through SQL and
/// check the table's row count and contents match a model `Vec`.
#[derive(Debug, Clone)]
enum Op {
    Insert(i64, String),
    DeleteWhere(i64),
    UpdateWhere(i64, String),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..50, "[a-z]{1,6}").prop_map(|(k, s)| Op::Insert(k, s)),
        (0i64..50).prop_map(Op::DeleteWhere),
        (0i64..50, "[a-z]{1,6}").prop_map(|(k, s)| Op::UpdateWhere(k, s)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_dml_matches_model(ops in prop::collection::vec(arb_op(), 0..40)) {
        let mut db = Database::new();
        db.run_script(
            "CREATE TABLE t (k INTEGER, v VARCHAR(10));
             CREATE INDEX t_k ON t (k);",
        ).unwrap();
        let mut model: Vec<(i64, String)> = Vec::new();
        for op in &ops {
            match op {
                Op::Insert(k, s) => {
                    db.execute(&format!("INSERT INTO t VALUES ({k}, '{s}')")).unwrap();
                    model.push((*k, s.clone()));
                }
                Op::DeleteWhere(k) => {
                    let n = db.execute(&format!("DELETE FROM t WHERE k = {k}"))
                        .unwrap().affected();
                    let before = model.len();
                    model.retain(|(mk, _)| mk != k);
                    prop_assert_eq!(n, before - model.len());
                }
                Op::UpdateWhere(k, s) => {
                    let n = db.execute(&format!("UPDATE t SET v = '{s}' WHERE k = {k}"))
                        .unwrap().affected();
                    let mut touched = 0;
                    for (mk, mv) in &mut model {
                        if mk == k {
                            *mv = s.clone();
                            touched += 1;
                        }
                    }
                    prop_assert_eq!(n, touched);
                }
            }
        }
        // Final contents agree (as multisets, compared sorted).
        let rs = db.query("SELECT k, v FROM t ORDER BY k, v").unwrap();
        let mut expect: Vec<(i64, String)> = model;
        expect.sort();
        let got: Vec<(i64, String)> = rs.rows.iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_str().unwrap().to_string()))
            .collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn index_probe_agrees_with_full_scan(
        rows in prop::collection::vec((0i64..20, 0i64..20), 0..40),
        probe in 0i64..20,
    ) {
        // Same query against an indexed and an unindexed copy of the data.
        let mut indexed = Database::new();
        indexed.run_script(
            "CREATE TABLE t (a INTEGER, b INTEGER); CREATE INDEX t_a ON t (a);",
        ).unwrap();
        let mut plain = Database::new();
        plain.execute("CREATE TABLE t (a INTEGER, b INTEGER)").unwrap();
        for (a, b) in &rows {
            let stmt = format!("INSERT INTO t VALUES ({a}, {b})");
            indexed.execute(&stmt).unwrap();
            plain.execute(&stmt).unwrap();
        }
        let q = format!("SELECT a, b FROM t WHERE a = {probe} ORDER BY b, a");
        let ri = indexed.query(&q).unwrap();
        let rp = plain.query(&q).unwrap();
        prop_assert_eq!(ri.rows, rp.rows);
        // The indexed run must actually have used the index (when rows exist).
        if !rows.is_empty() {
            prop_assert!(indexed.stats().index_lookups > 0);
        }
    }

    #[test]
    fn order_by_output_is_sorted(rows in prop::collection::vec(arb_value(), 0..30)) {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (v INTEGER)").unwrap();
        for v in &rows {
            // Only ints and NULLs fit the column's purpose here.
            let lit = match v {
                Value::Int(i) => i.to_string(),
                _ => "NULL".to_string(),
            };
            db.execute(&format!("INSERT INTO t VALUES ({lit})")).unwrap();
        }
        let rs = db.query("SELECT v FROM t ORDER BY v").unwrap();
        for w in rs.rows.windows(2) {
            prop_assert_ne!(w[0][0].sort_cmp(&w[1][0]), std::cmp::Ordering::Greater);
        }
        prop_assert_eq!(rs.rows.len(), rows.len());
    }

    #[test]
    fn in_subquery_agrees_with_in_list(
        left in prop::collection::vec(0i64..15, 0..15),
        right in prop::collection::vec(0i64..15, 1..15),
    ) {
        let mut db = Database::new();
        db.run_script("CREATE TABLE l (x INTEGER); CREATE TABLE r (x INTEGER);").unwrap();
        for x in &left {
            db.execute(&format!("INSERT INTO l VALUES ({x})")).unwrap();
        }
        for x in &right {
            db.execute(&format!("INSERT INTO r VALUES ({x})")).unwrap();
        }
        let via_sub = db
            .query("SELECT x FROM l WHERE x IN (SELECT x FROM r) ORDER BY x")
            .unwrap();
        let list: Vec<String> = right.iter().map(|x| x.to_string()).collect();
        let via_list = db
            .query(&format!("SELECT x FROM l WHERE x IN ({}) ORDER BY x", list.join(", ")))
            .unwrap();
        prop_assert_eq!(via_sub.rows.clone(), via_list.rows);
        // And NOT IN is the complement (no NULLs involved).
        let not_in = db
            .query("SELECT x FROM l WHERE x NOT IN (SELECT x FROM r) ORDER BY x")
            .unwrap();
        prop_assert_eq!(via_sub.rows.len() + not_in.rows.len(), left.len());
    }
}

// ---------------------------------------------------------------------
// Bound row filters: planned (bound) evaluation against naive (unbound)
// ---------------------------------------------------------------------

/// Columns of the filter table: `id` is unique, `a` mixes every type,
/// `b` holds ints or NULL, `s` strings or NULL.
const FILTER_COLS: [&str; 4] = ["id", "a", "b", "s"];

fn arb_filter_row() -> impl Strategy<Value = (Value, Value, Value)> {
    let small_int = (-3i64..4).prop_map(Value::Int);
    let small_str = "[a-c]{0,2}".prop_map(Value::Str);
    let a = prop_oneof![
        Just(Value::Null),
        small_int.clone(),
        small_str.clone(),
        any::<bool>().prop_map(Value::Bool),
    ];
    let b = prop_oneof![1 => Just(Value::Null), 3 => small_int];
    let s = prop_oneof![1 => Just(Value::Null), 3 => small_str];
    (a, b, s)
}

/// A literal or parameter value as the filters compare them.
fn arb_operand_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-3i64..4).prop_map(Value::Int),
        "[a-c]{0,2}".prop_map(Value::Str),
        any::<bool>().prop_map(Value::Bool),
    ]
}

fn sql_literal(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("'{s}'"),
        other => other.render(),
    }
}

/// One conjunct: SQL text plus the values its `?` placeholders bind.
#[derive(Debug, Clone)]
enum FilterConj {
    ColParam(usize, &'static str, Value),
    ParamCol(Value, &'static str, usize),
    ColLit(usize, &'static str, Value),
    ColCol(usize, &'static str, usize),
    /// Not bindable: stays on the `eval_bool` path.
    Unbound(&'static str, Option<Value>),
}

fn arb_filter_conj() -> impl Strategy<Value = FilterConj> {
    let col = 0..FILTER_COLS.len();
    let op = prop::sample::select(vec!["=", "<>", "<", "<=", ">", ">="]);
    prop_oneof![
        (col.clone(), op.clone(), arb_operand_value())
            .prop_map(|(c, o, v)| FilterConj::ColParam(c, o, v)),
        (arb_operand_value(), op.clone(), col.clone())
            .prop_map(|(v, o, c)| FilterConj::ParamCol(v, o, c)),
        (col.clone(), op.clone(), arb_operand_value())
            .prop_map(|(c, o, v)| FilterConj::ColLit(c, o, v)),
        (col.clone(), op, col).prop_map(|(l, o, r)| FilterConj::ColCol(l, o, r)),
        prop_oneof![
            Just(FilterConj::Unbound("s LIKE 'a%'", None)),
            Just(FilterConj::Unbound("a IS NULL", None)),
            Just(FilterConj::Unbound("b IS NOT NULL", None)),
            arb_operand_value().prop_map(|v| FilterConj::Unbound("b + 1 > ?", Some(v))),
            // These two fail on some of `a`'s types, so where a
            // conjunction stops decides whether a statement errors.
            Just(FilterConj::Unbound("a LIKE '%'", None)),
            arb_operand_value().prop_map(|v| FilterConj::Unbound("a * 2 <= ?", Some(v))),
        ],
    ]
}

/// Render a conjunction as a `WHERE` body and its parameter list.
fn render_filter(conjs: &[FilterConj]) -> (String, Vec<Value>) {
    let mut params = Vec::new();
    let parts: Vec<String> = conjs
        .iter()
        .map(|c| match c {
            FilterConj::ColParam(col, op, v) => {
                params.push(v.clone());
                format!("{} {op} ?", FILTER_COLS[*col])
            }
            FilterConj::ParamCol(v, op, col) => {
                params.push(v.clone());
                format!("? {op} {}", FILTER_COLS[*col])
            }
            FilterConj::ColLit(col, op, v) => {
                format!("{} {op} {}", FILTER_COLS[*col], sql_literal(v))
            }
            FilterConj::ColCol(l, op, r) => {
                format!("{} {op} {}", FILTER_COLS[*l], FILTER_COLS[*r])
            }
            FilterConj::Unbound(text, v) => {
                params.extend(v.clone());
                text.to_string()
            }
        })
        .collect();
    (parts.join(" AND "), params)
}

fn filter_db(rows: &[(Value, Value, Value)], naive: bool) -> Database {
    let mut db = Database::new();
    db.set_planner_naive(naive);
    db.execute("CREATE TABLE t (id INTEGER, a INTEGER, b INTEGER, s VARCHAR(4))")
        .unwrap();
    let ins = db.prepare("INSERT INTO t VALUES (?, ?, ?, ?)").unwrap();
    for (i, (a, b, s)) in rows.iter().enumerate() {
        db.execute_prepared(
            &ins,
            &[Value::Int(i as i64), a.clone(), b.clone(), s.clone()],
        )
        .unwrap();
    }
    db
}

fn filter_select(db: &Database, sql: &str, params: &[Value]) -> Result<Vec<Vec<Value>>, String> {
    let stmt = db.prepare(sql).map_err(|e| e.to_string())?;
    db.query_prepared(&stmt, params)
        .map(|rs| rs.rows)
        .map_err(|e| e.to_string())
}

fn filter_dml(db: &mut Database, sql: &str, params: &[Value]) -> Result<usize, String> {
    let stmt = db.prepare(sql).map_err(|e| e.to_string())?;
    db.execute_prepared(&stmt, params)
        .map(|r| r.affected())
        .map_err(|e| e.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bound_filters_match_naive_evaluation(
        rows in prop::collection::vec(arb_filter_row(), 0..24),
        conjs in prop::collection::vec(arb_filter_conj(), 1..5),
    ) {
        let (filter, params) = render_filter(&conjs);
        let planned = filter_db(&rows, false);
        let naive = filter_db(&rows, true);
        let select = format!("SELECT id, a, b, s FROM t WHERE {filter} ORDER BY id");
        prop_assert_eq!(
            filter_select(&planned, &select, &params),
            filter_select(&naive, &select, &params),
            "{}", select
        );
        let count = filter_select(&naive, &format!("SELECT COUNT(*) FROM t WHERE {filter}"), &params)
            .map(|rows| rows[0][0].as_int().unwrap() as usize);
        for dml in [
            format!("DELETE FROM t WHERE {filter}"),
            format!("UPDATE t SET s = 'u', b = b + 1 WHERE {filter}"),
        ] {
            let got = filter_dml(&mut filter_db(&rows, false), &dml, &params);
            // Bound against unbound DML: same count or the same error.
            prop_assert_eq!(
                &got,
                &filter_dml(&mut filter_db(&rows, true), &dml, &params),
                "{}", dml
            );
            // A DML `WHERE` runs on past an unknown conjunct, so it reads
            // every conjunct a SELECT reads: when it succeeds, so does the
            // count, and the two agree.
            if let Ok(n) = got {
                prop_assert_eq!(count.clone(), Ok(n), "{}", dml);
            }
        }
    }
}

#[test]
fn multi_row_scalar_subquery_operand_errors_only_on_a_row() {
    for naive in [false, true] {
        let mut db = Database::new();
        db.set_planner_naive(naive);
        db.run_script(
            "CREATE TABLE t (id INTEGER, a INTEGER);
             CREATE TABLE u (x INTEGER);
             INSERT INTO u VALUES (1), (2);",
        )
        .unwrap();
        // Empty input: the operand is never evaluated.
        let select = "SELECT id FROM t WHERE a = (SELECT x FROM u)";
        assert!(db.query(select).unwrap().rows.is_empty(), "naive={naive}");
        let delete = "DELETE FROM t WHERE a = (SELECT x FROM u)";
        assert_eq!(db.execute(delete).unwrap().affected(), 0, "naive={naive}");
        db.execute("INSERT INTO t VALUES (1, 1)").unwrap();
        let err = db.query(select).unwrap_err().to_string();
        assert!(err.contains("scalar subquery returned 2 rows"), "{err}");
        let err = db.execute(delete).unwrap_err().to_string();
        assert!(err.contains("scalar subquery returned 2 rows"), "{err}");
    }
}

#[test]
fn per_tuple_trigger_cascade_deletes_the_same_rows_bound_and_unbound() {
    // `parentId` is unindexed, so each firing's `parentId = OLD.id` runs
    // the full-scan filter with `OLD.id` as a bound operand.
    let run = |naive: bool| {
        let mut db = Database::new();
        db.set_planner_naive(naive);
        db.run_script(
            "CREATE TABLE parent (id INTEGER);
             CREATE TABLE child (id INTEGER, parentId INTEGER);
             CREATE TABLE leaf (id INTEGER, parentId INTEGER);
             CREATE TRIGGER p_del AFTER DELETE ON parent FOR EACH ROW BEGIN
               DELETE FROM child WHERE parentId = OLD.id;
             END;
             CREATE TRIGGER c_del AFTER DELETE ON child FOR EACH ROW BEGIN
               DELETE FROM leaf WHERE parentId = OLD.id;
             END;
             INSERT INTO parent VALUES (1), (2), (3);
             INSERT INTO child VALUES (10, 1), (11, 1), (12, 2), (13, NULL);
             INSERT INTO leaf VALUES (100, 10), (101, 11), (102, 12), (103, 13), (104, NULL);",
        )
        .unwrap();
        let n = db
            .execute("DELETE FROM parent WHERE id <= 2")
            .unwrap()
            .affected();
        let ids = |table: &str| -> Vec<i64> {
            db.query(&format!("SELECT id FROM {table} ORDER BY id"))
                .unwrap()
                .rows
                .iter()
                .map(|r| r[0].as_int().unwrap())
                .collect()
        };
        let s = db.stats();
        (
            n,
            ids("parent"),
            ids("child"),
            ids("leaf"),
            s.rows_deleted,
            s.trigger_firings,
        )
    };
    let bound = run(false);
    assert_eq!(
        bound,
        (2, vec![3], vec![13], vec![103, 104], 2 + 3 + 3, 2 + 3)
    );
    assert_eq!(bound, run(true));
}
