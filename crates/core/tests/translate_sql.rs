//! Unit tests of the XQuery→SQL translation layer: the statement shapes
//! of paper Section 6 must produce exactly the SQL structures the paper
//! describes.

use xmlup_core::translate::{
    bind_literals, query_filter_sql, translate_query, translate_update, TranslatedOp,
};
use xmlup_rdb::Value;
use xmlup_shred::Mapping;
use xmlup_xml::dtd::Dtd;
use xmlup_xml::samples::CUSTOMER_DTD;
use xmlup_xquery::parse_statement;

fn mapping() -> Mapping {
    Mapping::from_dtd(&Dtd::parse(CUSTOMER_DTD).unwrap(), "CustDB").unwrap()
}

#[test]
fn delete_with_local_predicate() {
    let m = mapping();
    let stmt = parse_statement(
        r#"FOR $d IN document("x")/CustDB, $c IN $d/Customer[Name="John"]
           UPDATE $d { DELETE $c }"#,
    )
    .unwrap();
    let ops = translate_update(&stmt, &m).unwrap();
    match &ops[..] {
        [TranslatedOp::DeleteSubtrees { rel, filter }] => {
            assert_eq!(*rel, m.relation_by_element("Customer").unwrap());
            assert_eq!(filter.as_deref(), Some("Name = 'John'"));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn descendant_predicate_chains_semijoins() {
    let m = mapping();
    let stmt = parse_statement(
        r#"FOR $c IN document("x")/CustDB/Customer[Order/OrderLine/ItemName="tire"]
           RETURN $c"#,
    )
    .unwrap();
    let spec = translate_query(&stmt, &m).unwrap();
    let sql = query_filter_sql(&spec, &m, None).unwrap().unwrap();
    // Conventional: nested IN through Order then OrderLine.
    assert!(
        sql.contains("id IN (SELECT parentId FROM Order WHERE id IN (SELECT parentId FROM OrderLine WHERE ItemName = 'tire'))"),
        "unexpected SQL: {sql}"
    );
}

#[test]
fn descendant_predicate_uses_asr_when_present() {
    let m = mapping();
    let mut db = xmlup_rdb::Database::new();
    xmlup_shred::loader::create_schema(&mut db, &m).unwrap();
    let asr = xmlup_shred::AsrIndex::build(&mut db, &m).unwrap();
    let stmt = parse_statement(
        r#"FOR $c IN document("x")/CustDB/Customer[Order/OrderLine/ItemName="tire"]
           RETURN $c"#,
    )
    .unwrap();
    let spec = translate_query(&stmt, &m).unwrap();
    let sql = query_filter_sql(&spec, &m, Some(&asr)).unwrap().unwrap();
    // Two joins via the ASR (paper Section 5.3): probe OrderLine, then ASR.
    assert!(sql.contains("FROM ASR"), "unexpected SQL: {sql}");
    assert!(sql.contains("id_OrderLine IN"), "unexpected SQL: {sql}");
    assert!(
        !sql.contains("SELECT parentId FROM Order WHERE"),
        "unexpected SQL: {sql}"
    );
}

#[test]
fn ancestor_filter_becomes_parent_semijoin() {
    let m = mapping();
    let stmt = parse_statement(
        r#"FOR $c IN document("x")/CustDB/Customer[Name="John"],
               $o IN $c/Order
           UPDATE $c { DELETE $o }"#,
    )
    .unwrap();
    let ops = translate_update(&stmt, &m).unwrap();
    match &ops[..] {
        [TranslatedOp::DeleteSubtrees { rel, filter }] => {
            assert_eq!(*rel, m.relation_by_element("Order").unwrap());
            let sql = filter.as_deref().unwrap();
            assert!(
                sql.contains("parentId IN (SELECT id FROM Customer WHERE Name = 'John')"),
                "unexpected SQL: {sql}"
            );
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn attribute_predicate_maps_to_attr_column() {
    let dtd = Dtd::parse(
        r#"<!ELEMENT db (item*)>
           <!ELEMENT item (#PCDATA)>
           <!ATTLIST item kind CDATA #IMPLIED>"#,
    )
    .unwrap();
    let m = Mapping::from_dtd(&dtd, "db").unwrap();
    let stmt = parse_statement(
        r#"FOR $d IN document("x")/db, $i IN $d/item[@kind="big"]
           UPDATE $d { DELETE $i }"#,
    )
    .unwrap();
    let ops = translate_update(&stmt, &m).unwrap();
    match &ops[..] {
        [TranslatedOp::DeleteSubtrees { filter, .. }] => {
            assert_eq!(filter.as_deref(), Some("kind = 'big'"));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn inlined_delete_recognized() {
    let m = mapping();
    let stmt = parse_statement(
        r#"FOR $c IN document("x")/CustDB/Customer, $a IN $c/Address
           UPDATE $c { DELETE $a }"#,
    )
    .unwrap();
    let ops = translate_update(&stmt, &m).unwrap();
    match &ops[..] {
        [TranslatedOp::DeleteInlined { rel, path, .. }] => {
            assert_eq!(*rel, m.relation_by_element("Customer").unwrap());
            assert_eq!(path, &vec!["Address".to_string()]);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn copy_insert_recognized() {
    let m = mapping();
    let stmt = parse_statement(
        r#"FOR $s IN document("x")/CustDB/Customer[Address/State="CA"],
               $t IN document("x")/CustDB
           UPDATE $t { INSERT $s }"#,
    )
    .unwrap();
    let ops = translate_update(&stmt, &m).unwrap();
    match &ops[..] {
        [TranslatedOp::CopySubtrees {
            src_rel,
            src_filter,
            dst_rel,
            dst_filter,
        }] => {
            assert_eq!(*src_rel, m.relation_by_element("Customer").unwrap());
            assert_eq!(*dst_rel, m.root());
            assert!(src_filter
                .as_deref()
                .unwrap()
                .contains("Address_State = 'CA'"));
            assert!(dst_filter.is_none());
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn or_predicate_stays_local() {
    let m = mapping();
    let stmt = parse_statement(
        r#"FOR $c IN document("x")/CustDB/Customer[Name="John" or Name="Mary"] RETURN $c"#,
    )
    .unwrap();
    let spec = translate_query(&stmt, &m).unwrap();
    let sql = query_filter_sql(&spec, &m, None).unwrap().unwrap();
    assert_eq!(sql, "(Name = 'John' OR Name = 'Mary')");
}

#[test]
fn integer_literal_compares_as_text() {
    let m = mapping();
    let stmt = parse_statement(
        r#"FOR $l IN document("x")/CustDB/Customer/Order/OrderLine[Qty=4] RETURN $l"#,
    )
    .unwrap();
    let spec = translate_query(&stmt, &m).unwrap();
    let sql = query_filter_sql(&spec, &m, None).unwrap().unwrap();
    // All shredded payloads are TEXT columns; int literals render quoted.
    assert_eq!(sql, "Qty = '4'");
}

#[test]
fn existence_predicate_uses_presence_or_null() {
    let m = mapping();
    let stmt =
        parse_statement(r#"FOR $c IN document("x")/CustDB/Customer[Address] RETURN $c"#).unwrap();
    let spec = translate_query(&stmt, &m).unwrap();
    let sql = query_filter_sql(&spec, &m, None).unwrap().unwrap();
    assert_eq!(sql, "Address_present = TRUE");
}

#[test]
fn unsupported_shapes_do_not_produce_sql() {
    let m = mapping();
    for bad in [
        // LET is not translatable.
        r#"FOR $d IN document("x")/CustDB LET $c := $d/Customer UPDATE $d { DELETE $c }"#,
        // ref() has no relational representation in this mapping.
        r#"FOR $c IN document("x")/CustDB/Customer, $r IN $c/ref(peer, "x")
           UPDATE $c { DELETE $r }"#,
        // Copy to a non-parent destination.
        r#"FOR $s IN document("x")/CustDB/Customer/Order,
               $t IN document("x")/CustDB
           UPDATE $t { INSERT $s }"#,
    ] {
        let stmt = parse_statement(bad).unwrap();
        assert!(
            translate_update(&stmt, &m).is_err(),
            "should not translate: {bad}"
        );
    }
}

#[test]
fn bound_literals_become_placeholders_in_text_order() {
    let m = mapping();
    let stmt = parse_statement(
        r#"FOR $c IN document("x")/CustDB/Customer[Name="O'Brien" or Name="Mary"], $o IN $c/Order[Status="open"] RETURN $o"#,
    )
    .unwrap();
    let spec = translate_query(&stmt, &m).unwrap();
    let sql = query_filter_sql(&spec, &m, None).unwrap().unwrap();
    let (text, params) = bind_literals(&sql);
    // The text keeps everything but the literals, which bind in order.
    assert_eq!(
        text,
        sql.replace("'O''Brien'", "?")
            .replace("'Mary'", "?")
            .replace("'open'", "?")
    );
    let pos = |lit: &str| sql.find(lit).unwrap();
    let mut expected = [
        ("'O''Brien'", "O'Brien"),
        ("'Mary'", "Mary"),
        ("'open'", "open"),
    ];
    expected.sort_by_key(|(lit, _)| pos(lit));
    let expected: Vec<Value> = expected
        .iter()
        .map(|(_, v)| Value::Str(v.to_string()))
        .collect();
    assert_eq!(params, expected);
    // A text without literals binds nothing; unpaired quotes stay as they are.
    assert_eq!(
        bind_literals("Address_p = TRUE"),
        ("Address_p = TRUE".into(), vec![])
    );
    assert_eq!(bind_literals("Name = 'x"), ("Name = 'x".into(), vec![]));
}
