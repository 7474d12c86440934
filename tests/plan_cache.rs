//! Regression tests for the prepared-statement layer on the paper's hot
//! update paths: a workload of per-tuple operations must parse each
//! distinct SQL shape exactly once — repeats are served by prepared
//! statements and the plan cache.

use xmlup_core::{DeleteStrategy, InsertStrategy, RepoConfig, XmlRepository};
use xmlup_workload::{
    fixed_document, run_delete, run_insert, synthetic_dtd, SyntheticParams, Workload,
};

fn repo(ds: DeleteStrategy, is: InsertStrategy, batch_size: usize) -> (XmlRepository, usize) {
    let p = SyntheticParams::new(40, 4, 2);
    let dtd = synthetic_dtd(p.depth);
    let doc = fixed_document(&p);
    let mut repo = XmlRepository::new(
        &dtd,
        "root",
        RepoConfig {
            delete_strategy: ds,
            insert_strategy: is,
            build_asr: is == InsertStrategy::Asr,
            statement_cost_us: 0,
            batch_size,
            ..RepoConfig::default()
        },
    )
    .unwrap();
    repo.load(&doc).unwrap();
    repo.reset_stats(); // count only the workload, not schema + shred
    let rel = repo.mapping.relation_by_element("n1").unwrap();
    (repo, rel)
}

#[test]
fn tuple_insert_workload_parses_each_shape_once() {
    // batch_size 1 pins the paper's one-statement-per-tuple translation,
    // which is the shape-amortization path under test here.
    assert_second_insert_run_parses_nothing(InsertStrategy::Tuple);
}

/// A complex-insert workload (at `batch_size` 1) parses each statement
/// shape in its first run; a second identical run re-parses nothing,
/// although every table-based copy creates and drops temporary tables
/// and every ASR-based copy rewrites the ASR in between.
fn assert_second_insert_run_parses_nothing(is: InsertStrategy) {
    let (mut repo, rel) = repo(DeleteStrategy::PerTupleTrigger, is, 1);
    run_insert(&mut repo, rel, Workload::random10()).unwrap();
    let after_first = repo.stats();
    assert!(
        after_first.statements_parsed < after_first.client_statements,
        "{is:?}: parsed {} of {} stmts",
        after_first.statements_parsed,
        after_first.client_statements
    );
    run_insert(&mut repo, rel, Workload::random10()).unwrap();
    let after_second = repo.stats();
    assert_eq!(
        after_second.statements_parsed, after_first.statements_parsed,
        "second {is:?}-insert run re-parsed statements"
    );
    assert!(after_second.client_statements > after_first.client_statements);
}

#[test]
fn table_insert_workload_parses_each_shape_once() {
    assert_second_insert_run_parses_nothing(InsertStrategy::Table);
}

#[test]
fn asr_insert_workload_parses_each_shape_once() {
    assert_second_insert_run_parses_nothing(InsertStrategy::Asr);
}

#[test]
fn per_tuple_delete_workload_parses_each_shape_once() {
    let (mut repo, rel) = repo(DeleteStrategy::PerTupleTrigger, InsertStrategy::Tuple, 1);
    run_delete(&mut repo, rel, Workload::random10()).unwrap();
    let after_first = repo.stats();
    assert!(after_first.statements_parsed < after_first.client_statements);
    run_delete(&mut repo, rel, Workload::random10()).unwrap();
    let after_second = repo.stats();
    assert_eq!(
        after_second.statements_parsed, after_first.statements_parsed,
        "second per-tuple-delete run re-parsed statements"
    );
    assert!(after_second.client_statements > after_first.client_statements);
}

#[test]
fn translated_updates_with_new_keys_parse_no_new_statements() {
    // The statement shapes of an XQuery subtree delete and self-copy
    // insert, each naming a key not used before: the translated filters
    // bind their literals, so after the first pair nothing parses again.
    let (mut repo, _) = repo(DeleteStrategy::PerTupleTrigger, InsertStrategy::Table, 256);
    let keys: Vec<String> = repo
        .db
        .query("SELECT num FROM n1 ORDER BY id")
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_str().unwrap().to_string())
        .collect();
    let delete_and_copy = |repo: &mut XmlRepository, i: usize| {
        let (del, ins) = (&keys[i], &keys[keys.len() - 1 - i]);
        let n = repo
            .execute_xquery(&format!(
                r#"FOR $d IN document("x")/root, $n IN $d/n1[num="{del}"] UPDATE $d {{ DELETE $n }}"#
            ))
            .unwrap();
        assert!(n > 0, "key {del} deleted nothing");
        let n = repo
            .execute_xquery(&format!(
                r#"FOR $s IN document("x")/root/n1[num="{ins}"], $d IN document("x")/root UPDATE $d {{ INSERT $s }}"#
            ))
            .unwrap();
        assert!(n > 0, "key {ins} copied nothing");
    };
    delete_and_copy(&mut repo, 0);
    let after_first = repo.stats();
    for i in 1..6 {
        delete_and_copy(&mut repo, i);
    }
    let s = repo.stats();
    assert_eq!(
        s.statements_parsed, after_first.statements_parsed,
        "updates with new keys parsed new statements"
    );
    assert!(s.client_statements > after_first.client_statements);
}
