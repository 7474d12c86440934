//! Translation of XQuery update statements into relational operations
//! (paper Section 6).
//!
//! The translatable subset covers the statement shapes the paper's
//! workloads use: single-document `FOR` chains over child/descendant
//! steps with value predicates, `WHERE` conditions on bound variables,
//! and `UPDATE` actions whose sub-operations are subtree `DELETE`,
//! subtree-copy `INSERT $src`, inlined-item `INSERT`/`REPLACE`, and
//! inlined deletes. Anything outside the subset produces
//! [`CoreError::Unsupported`] rather than silently wrong SQL.

use crate::error::{CoreError, Result};
use std::collections::HashMap;
use xmlup_rdb::Value;
use xmlup_shred::{AsrIndex, ColumnKind, Mapping, PathTarget};
use xmlup_xquery::{
    Action, CmpOp, ContentExpr, Lit, PathExpr, PathStart, Statement, Step, SubOp, UExpr,
};

/// A relational operation produced by translation.
#[derive(Debug, Clone, PartialEq)]
pub enum TranslatedOp {
    /// Complex delete of subtrees of `rel` matching `filter`.
    DeleteSubtrees {
        /// Target relation.
        rel: usize,
        /// SQL filter over the relation's columns.
        filter: Option<String>,
    },
    /// Simple delete: NULL out the inlined item at `path` (and lower its
    /// presence flags).
    DeleteInlined {
        /// Relation carrying the inlined item.
        rel: usize,
        /// Inlined element path within the relation.
        path: Vec<String>,
        /// Row filter.
        filter: Option<String>,
    },
    /// Complex insert: copy each matching source subtree under each
    /// matching destination tuple.
    CopySubtrees {
        /// Source relation.
        src_rel: usize,
        /// Source row filter.
        src_filter: Option<String>,
        /// Destination relation (must be the source's parent relation for
        /// the copy to re-attach correctly).
        dst_rel: usize,
        /// Destination row filter.
        dst_filter: Option<String>,
    },
    /// Simple insert of an inlined value (fails on overwrite checks at
    /// execution level when requested).
    InsertInlined {
        /// Relation carrying the inlined item.
        rel: usize,
        /// Data-column index.
        column: usize,
        /// Value to store.
        value: Value,
        /// Row filter.
        filter: Option<String>,
    },
    /// Positional insert of a new child tuple (ordered mappings only):
    /// `INSERT <el>…</el> BEFORE|AFTER $anchor`.
    InsertTupleAt {
        /// Relation of the new tuple (a child relation of the target).
        rel: usize,
        /// Data-column values extracted from the constructor.
        values: Vec<(String, Value)>,
        /// Relation of the anchor binding.
        anchor_rel: usize,
        /// Filter selecting the anchor tuples.
        anchor_filter: Option<String>,
        /// Insert before (true) or after (false) each anchor.
        before: bool,
    },
    /// Replace of an inlined value (`REPLACE $x WITH <name>v</>`).
    UpdateInlined {
        /// Relation carrying the inlined item.
        rel: usize,
        /// Data-column index.
        column: usize,
        /// New value.
        value: Value,
        /// Row filter.
        filter: Option<String>,
    },
}

/// A predicate that descends through child relations: `chain` are the
/// relations stepped through (each the child of the previous; the first is
/// a child of the predicate's home relation), `target_sql` applies to the
/// last chain element's columns.
#[derive(Debug, Clone, PartialEq)]
pub struct DescPred {
    /// Child-relation chain, shallow to deep.
    pub chain: Vec<usize>,
    /// SQL over the deepest relation.
    pub target_sql: String,
}

/// Everything known about one bound variable's target set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuerySpec {
    /// The relation the variable binds tuples of.
    pub rel: usize,
    /// Inlined path within `rel`, when the variable binds an inlined item
    /// rather than whole tuples.
    pub inlined: Option<Vec<String>>,
    /// Plain SQL conditions over `rel`'s columns.
    pub local: Vec<String>,
    /// Conditions through descendant relations.
    pub descendants: Vec<DescPred>,
    /// Fully-composed SQL conditions inherited from filtered ancestors
    /// (already chained through `parentId IN (…)`).
    pub ancestors: Vec<String>,
}

impl QuerySpec {
    fn has_conditions(&self) -> bool {
        !self.local.is_empty() || !self.descendants.is_empty() || !self.ancestors.is_empty()
    }
}

/// Compose a spec's conditions into one SQL filter. When `asr` is given,
/// descendant-path predicates probe the ASR instead of chaining through
/// every intermediate relation (Section 5.3).
pub fn query_filter_sql(
    spec: &QuerySpec,
    mapping: &Mapping,
    asr: Option<&AsrIndex>,
) -> Result<Option<String>> {
    let mut conds: Vec<String> = Vec::new();
    conds.extend(spec.local.iter().cloned());
    conds.extend(spec.ancestors.iter().cloned());
    for d in &spec.descendants {
        conds.push(descendant_sql(spec.rel, d, mapping, asr)?);
    }
    if conds.is_empty() {
        Ok(None)
    } else {
        Ok(Some(conds.join(" AND ")))
    }
}

fn descendant_sql(
    rel: usize,
    d: &DescPred,
    mapping: &Mapping,
    asr: Option<&AsrIndex>,
) -> Result<String> {
    let target = *d.chain.last().expect("non-empty chain");
    let target_table = &mapping.relations[target].table;
    match asr {
        Some(asr) if d.chain.len() >= 2 => {
            // Two joins instead of chain-length joins: probe the target
            // relation, then the ASR (paper Section 5.3 / Example 7).
            let home_col = &asr.id_columns[asr
                .column_of(rel)
                .ok_or_else(|| CoreError::Strategy("relation not covered by ASR".into()))?];
            let target_col = &asr.id_columns[asr.column_of(target).expect("covered")];
            Ok(format!(
                "id IN (SELECT {home_col} FROM {a} WHERE {target_col} IN \
                 (SELECT id FROM {target_table} WHERE {t}))",
                a = asr.table,
                t = d.target_sql
            ))
        }
        _ => {
            // Conventional: nested semi-joins through each level.
            let mut sql = format!(
                "id IN (SELECT parentId FROM {target_table} WHERE {})",
                d.target_sql
            );
            for &mid in d.chain.iter().rev().skip(1) {
                sql = format!(
                    "id IN (SELECT parentId FROM {} WHERE {sql})",
                    mapping.relations[mid].table
                );
            }
            Ok(sql)
        }
    }
}

/// Translate a `RETURN` query; the returned spec names the relation whose
/// subtrees are fetched.
pub fn translate_query(stmt: &Statement, mapping: &Mapping) -> Result<QuerySpec> {
    let expr = match &stmt.action {
        Action::Return(e) => e,
        Action::Update(_) => return Err(CoreError::Unsupported("expected a RETURN query".into())),
    };
    let vars = bind_vars(stmt, mapping)?;
    match expr {
        UExpr::Path(PathExpr {
            start: PathStart::Var(v),
            steps,
        }) if steps.is_empty() => vars
            .get(v.as_str())
            .cloned()
            .ok_or_else(|| CoreError::Unsupported(format!("unbound variable ${v}"))),
        other => Err(CoreError::Unsupported(format!(
            "RETURN must be a bare bound variable, got {other:?}"
        ))),
    }
}

/// Translate an `UPDATE` statement into relational operations.
pub fn translate_update(stmt: &Statement, mapping: &Mapping) -> Result<Vec<TranslatedOp>> {
    let update_ops = match &stmt.action {
        Action::Update(ops) => ops,
        Action::Return(_) => {
            return Err(CoreError::Unsupported(
                "expected an UPDATE statement".into(),
            ))
        }
    };
    let vars = bind_vars(stmt, mapping)?;
    let mut out = Vec::new();
    for op in update_ops {
        translate_update_op(op, &vars, mapping, &mut out)?;
    }
    Ok(out)
}

/// Translate one `UPDATE $t { … }` block, flattening nested Sub-Updates
/// into the output sequence. The caller must execute the resulting ops
/// with bind-first semantics (paper Section 6.3: compute all bindings via
/// queries before running any sub-operation) — see
/// `XmlRepository::execute_xquery`.
fn translate_update_op(
    op: &xmlup_xquery::UpdateOp,
    vars: &HashMap<String, QuerySpec>,
    mapping: &Mapping,
    out: &mut Vec<TranslatedOp>,
) -> Result<()> {
    let target = vars
        .get(op.target.as_str())
        .ok_or_else(|| CoreError::Unsupported(format!("unbound UPDATE target ${}", op.target)))?;
    for sub in &op.ops {
        match sub {
            SubOp::Nested(nested) => {
                // Extend the variable scope with the nested FOR bindings
                // (paths rooted at outer variables resolve against their
                // specs), apply the nested WHERE, then flatten the inner
                // update operations.
                let mut inner_vars = vars.clone();
                for fb in &nested.fors {
                    let spec = resolve_path(&fb.path, &inner_vars, mapping)?;
                    inner_vars.insert(fb.var.clone(), spec);
                }
                if let Some(f) = &nested.filter {
                    apply_where(f, &mut inner_vars, mapping)?;
                }
                for inner in &nested.updates {
                    translate_update_op(inner, &inner_vars, mapping, out)?;
                }
            }
            _ => out.push(translate_sub_op(sub, target, vars, mapping)?),
        }
    }
    Ok(())
}

fn translate_sub_op(
    sub: &SubOp,
    target: &QuerySpec,
    vars: &HashMap<String, QuerySpec>,
    mapping: &Mapping,
) -> Result<TranslatedOp> {
    match sub {
        SubOp::Delete { child } => {
            let c = vars
                .get(child.as_str())
                .ok_or_else(|| CoreError::Unsupported(format!("unbound ${child}")))?;
            match &c.inlined {
                None => Ok(TranslatedOp::DeleteSubtrees {
                    rel: c.rel,
                    filter: query_filter_sql(c, mapping, None)?,
                }),
                Some(path) => Ok(TranslatedOp::DeleteInlined {
                    rel: c.rel,
                    path: path.clone(),
                    filter: query_filter_sql(c, mapping, None)?,
                }),
            }
        }
        SubOp::Insert {
            content,
            position: None,
        } => match content {
            ContentExpr::Var(v) => {
                let src = vars
                    .get(v.as_str())
                    .ok_or_else(|| CoreError::Unsupported(format!("unbound ${v}")))?;
                if src.inlined.is_some() {
                    return Err(CoreError::Unsupported(
                        "INSERT $var requires a whole-subtree binding".into(),
                    ));
                }
                if mapping.relations[src.rel].parent != Some(target.rel) {
                    return Err(CoreError::Unsupported(format!(
                        "copied subtrees of `{}` can only be inserted under their parent \
                         relation `{}`",
                        mapping.relations[src.rel].table, mapping.relations[target.rel].table
                    )));
                }
                Ok(TranslatedOp::CopySubtrees {
                    src_rel: src.rel,
                    src_filter: query_filter_sql(src, mapping, None)?,
                    dst_rel: target.rel,
                    dst_filter: query_filter_sql(target, mapping, None)?,
                })
            }
            ContentExpr::Element(xml) => {
                // Inlined single-element constructor: <Name>text</Name>.
                let parsed = xmlup_xml::parse(xml)
                    .map_err(|e| CoreError::Unsupported(format!("bad constructor: {e}")))?;
                let doc = parsed.doc;
                let name = doc.name(doc.root()).unwrap_or_default().to_string();
                let text = doc.string_value(doc.root());
                let rel = &mapping.relations[target.rel];
                // The constructor element becomes a DIRECT child of the
                // target, so it must match the inlined column whose path is
                // exactly [name] (a suffix match could hit a deeper column
                // with the same tag).
                let want = vec![name.clone()];
                let col = rel
                    .columns
                    .iter()
                    .position(|c| c.kind == ColumnKind::Pcdata && c.path == want)
                    .ok_or_else(|| {
                        CoreError::Unsupported(format!(
                            "<{name}> is not an inlined child of {}; only simple (inlined) \
                             constructor inserts are translatable",
                            rel.table
                        ))
                    })?;
                Ok(TranslatedOp::InsertInlined {
                    rel: target.rel,
                    column: col,
                    value: Value::Str(text),
                    filter: query_filter_sql(target, mapping, None)?,
                })
            }
            other => Err(CoreError::Unsupported(format!(
                "INSERT content not translatable: {other:?}"
            ))),
        },
        SubOp::Insert {
            position: Some((pos, anchor_var)),
            content,
        } => {
            if !mapping.ordered {
                return Err(CoreError::Unsupported(
                    "positional INSERT requires an order-preserving mapping                      (Mapping::from_dtd_ordered)"
                        .into(),
                ));
            }
            let anchor = vars
                .get(anchor_var.as_str())
                .ok_or_else(|| CoreError::Unsupported(format!("unbound ${anchor_var}")))?;
            if anchor.inlined.is_some() {
                return Err(CoreError::Unsupported(
                    "the positional anchor must bind whole child tuples".into(),
                ));
            }
            if mapping.relations[anchor.rel].parent != Some(target.rel) {
                return Err(CoreError::Unsupported(
                    "the positional anchor must be a child of the UPDATE target".into(),
                ));
            }
            let xml = match content {
                ContentExpr::Element(xml) => xml,
                other => {
                    return Err(CoreError::Unsupported(format!(
                        "positional INSERT content must be an element constructor, got {other:?}"
                    )))
                }
            };
            let parsed = xmlup_xml::parse(xml)
                .map_err(|e| CoreError::Unsupported(format!("bad constructor: {e}")))?;
            let cdoc = parsed.doc;
            let cname = cdoc.name(cdoc.root()).unwrap_or_default().to_string();
            let crel = mapping.relations[target.rel]
                .children
                .iter()
                .copied()
                .find(|&c| mapping.relations[c].element == cname)
                .ok_or_else(|| {
                    CoreError::Unsupported(format!(
                        "<{cname}> is not a repeatable child of {}",
                        mapping.relations[target.rel].table
                    ))
                })?;
            // Extract inlined column values from the constructor; nested
            // repeatable content is out of scope for the translation.
            let relation = &mapping.relations[crel];
            let mut values = Vec::new();
            for col in &relation.columns {
                if matches!(col.kind, ColumnKind::Position) {
                    continue;
                }
                let v =
                    xmlup_shred::loader::extract_column(&cdoc, cdoc.root(), &col.path, &col.kind);
                values.push((col.name.clone(), v));
            }
            for &grand in &relation.children {
                let gname = &mapping.relations[grand].element;
                if cdoc
                    .children(cdoc.root())
                    .iter()
                    .any(|&c| cdoc.name(c) == Some(gname.as_str()))
                {
                    return Err(CoreError::Unsupported(format!(
                        "constructor contains repeatable content <{gname}>; only inlined                          content is translatable in a positional INSERT"
                    )));
                }
            }
            Ok(TranslatedOp::InsertTupleAt {
                rel: crel,
                values,
                anchor_rel: anchor.rel,
                anchor_filter: query_filter_sql(anchor, mapping, None)?,
                before: matches!(pos, xmlup_xquery::InsertPosition::Before),
            })
        }
        SubOp::Replace { child, with } => {
            let c = vars
                .get(child.as_str())
                .ok_or_else(|| CoreError::Unsupported(format!("unbound ${child}")))?;
            let path = c.inlined.as_ref().ok_or_else(|| {
                CoreError::Unsupported("only inlined-item REPLACE is translatable directly".into())
            })?;
            let value = match with {
                ContentExpr::Element(xml) => {
                    let parsed = xmlup_xml::parse(xml)
                        .map_err(|e| CoreError::Unsupported(format!("bad constructor: {e}")))?;
                    Value::Str(parsed.doc.string_value(parsed.doc.root()))
                }
                ContentExpr::Text(s) => Value::Str(s.clone()),
                other => {
                    return Err(CoreError::Unsupported(format!(
                        "REPLACE content not translatable: {other:?}"
                    )))
                }
            };
            let rel = &mapping.relations[c.rel];
            let col = rel.find_column(path, &ColumnKind::Pcdata).ok_or_else(|| {
                CoreError::Unsupported(format!(
                    "no inlined PCDATA column at {path:?} in {}",
                    rel.table
                ))
            })?;
            Ok(TranslatedOp::UpdateInlined {
                rel: c.rel,
                column: col,
                value,
                filter: query_filter_sql(c, mapping, None)?,
            })
        }
        SubOp::Rename { .. } => Err(CoreError::Unsupported(
            "RENAME changes the schema of inlined storage; apply it via the in-memory \
             evaluator (xmlup-xquery) instead"
                .into(),
        )),
        SubOp::Nested(_) => unreachable!("nested ops are flattened by translate_update_op"),
    }
}

// ----------------------------------------------------------------------
// variable binding
// ----------------------------------------------------------------------

fn bind_vars(stmt: &Statement, mapping: &Mapping) -> Result<HashMap<String, QuerySpec>> {
    let mut vars: HashMap<String, QuerySpec> = HashMap::new();
    for fb in &stmt.fors {
        let spec = resolve_path(&fb.path, &vars, mapping)?;
        vars.insert(fb.var.clone(), spec);
    }
    if !stmt.lets.is_empty() {
        return Err(CoreError::Unsupported(
            "LET bindings are not translatable".into(),
        ));
    }
    if let Some(f) = &stmt.filter {
        apply_where(f, &mut vars, mapping)?;
    }
    Ok(vars)
}

fn resolve_path(
    path: &PathExpr,
    vars: &HashMap<String, QuerySpec>,
    mapping: &Mapping,
) -> Result<QuerySpec> {
    // Establish the starting relation and any inherited ancestor filter.
    let (mut spec, mut elem_path): (QuerySpec, Vec<String>) = match &path.start {
        PathStart::Document(_) => (
            QuerySpec {
                rel: usize::MAX,
                ..Default::default()
            },
            Vec::new(),
        ),
        PathStart::Var(v) => {
            let base = vars
                .get(v.as_str())
                .ok_or_else(|| CoreError::Unsupported(format!("unbound ${v}")))?;
            if base.inlined.is_some() {
                return Err(CoreError::Unsupported(format!(
                    "cannot navigate below the inlined binding ${v}"
                )));
            }
            let mut s = QuerySpec {
                rel: base.rel,
                ..Default::default()
            };
            // Conditions on the base variable become an ancestor filter of
            // whatever we navigate to (or stay local if we stay put).
            if base.has_conditions() {
                if let Some(f) = query_filter_sql(base, mapping, None)? {
                    s.local.push(f);
                }
            }
            (s, mapping.relations[base.rel].element_path.clone())
        }
        PathStart::Relative => {
            return Err(CoreError::Unsupported(
                "relative paths are only supported inside predicates".into(),
            ))
        }
    };
    for step in &path.steps {
        match step {
            Step::Child(name) => {
                elem_path.push(name.clone());
                self_update_rel(&mut spec, &elem_path, mapping)?;
            }
            Step::Descendant(name) => {
                // `//name` jumps to the unique relation storing `name`.
                let rel = mapping.relation_by_element(name).ok_or_else(|| {
                    CoreError::Unsupported(format!(
                        "`//{name}` does not resolve to a unique relation"
                    ))
                })?;
                if spec.has_conditions() {
                    return Err(CoreError::Unsupported(
                        "descendant step after a filtered prefix is not translatable".into(),
                    ));
                }
                spec = QuerySpec {
                    rel,
                    ..Default::default()
                };
                elem_path = mapping.relations[rel].element_path.clone();
            }
            Step::Predicate(e) => {
                if spec.inlined.is_some() {
                    return Err(CoreError::Unsupported(
                        "predicates on inlined bindings are not translatable".into(),
                    ));
                }
                add_pred(e, spec.rel, mapping, &mut spec)?;
            }
            Step::Attribute(_) | Step::Ref { .. } | Step::Deref => {
                return Err(CoreError::Unsupported(format!(
                    "path step {step:?} is not translatable to the inlined mapping"
                )))
            }
        }
    }
    if spec.rel == usize::MAX {
        return Err(CoreError::Path(
            "path did not reach any mapped element".into(),
        ));
    }
    Ok(spec)
}

/// After extending the element path by one child step, update the spec:
/// either we moved to a deeper relation (pushing previous filters to
/// ancestor position) or we started descending into inlined content.
fn self_update_rel(spec: &mut QuerySpec, elem_path: &[String], mapping: &Mapping) -> Result<()> {
    let parts: Vec<&str> = elem_path.iter().map(String::as_str).collect();
    match mapping.resolve_path(&parts) {
        Some(PathTarget::Relation(rel)) => {
            if spec.rel != usize::MAX && rel != spec.rel {
                // Descended one relation level: previous conditions apply
                // to the parent relation.
                let parent = spec.rel;
                let prev = std::mem::take(spec);
                let parent_sql = query_filter_sql(&prev, mapping, None)?;
                spec.rel = rel;
                if let Some(sql) = parent_sql {
                    spec.ancestors.push(format!(
                        "parentId IN (SELECT id FROM {} WHERE {})",
                        mapping.relations[parent].table, sql
                    ));
                }
            } else {
                spec.rel = rel;
            }
            spec.inlined = None;
            Ok(())
        }
        Some(PathTarget::Column { relation, .. })
        | Some(PathTarget::InlinedElement { relation, .. }) => {
            if spec.rel != usize::MAX && relation != spec.rel {
                return Err(CoreError::Path(format!(
                    "inlined path {parts:?} crosses a relation boundary"
                )));
            }
            spec.rel = relation;
            let rel_depth = mapping.relations[relation].element_path.len();
            spec.inlined = Some(elem_path[rel_depth..].to_vec());
            Ok(())
        }
        None => Err(CoreError::Path(format!("path {parts:?} does not resolve"))),
    }
}

/// Add a path predicate (from `[…]`) to `spec`, relative to relation `rel`.
fn add_pred(e: &UExpr, rel: usize, mapping: &Mapping, spec: &mut QuerySpec) -> Result<()> {
    match e {
        UExpr::And(a, b) => {
            add_pred(a, rel, mapping, spec)?;
            add_pred(b, rel, mapping, spec)
        }
        other => {
            let cond = atom_cond(other, rel, mapping)?;
            match cond {
                AtomCond::Local(s) => spec.local.push(s),
                AtomCond::Descendant(d) => spec.descendants.push(d),
            }
            Ok(())
        }
    }
}

enum AtomCond {
    Local(String),
    Descendant(DescPred),
}

fn atom_cond(e: &UExpr, rel: usize, mapping: &Mapping) -> Result<AtomCond> {
    match e {
        UExpr::Cmp { left, op, right } => {
            let (path, lit, op) = match (left.as_ref(), right.as_ref()) {
                (UExpr::Path(p), UExpr::Literal(l)) => (p, l, *op),
                (UExpr::Literal(l), UExpr::Path(p)) => (p, l, flip(*op)),
                _ => {
                    return Err(CoreError::Unsupported(
                        "predicates must compare a path with a literal".into(),
                    ))
                }
            };
            resolve_rel_path_cond(path, lit, op, rel, mapping)
        }
        UExpr::Or(a, b) => {
            let ca = atom_cond(a, rel, mapping)?;
            let cb = atom_cond(b, rel, mapping)?;
            match (ca, cb) {
                (AtomCond::Local(x), AtomCond::Local(y)) => {
                    Ok(AtomCond::Local(format!("({x} OR {y})")))
                }
                _ => Err(CoreError::Unsupported(
                    "OR over descendant-relation predicates is not translatable".into(),
                )),
            }
        }
        UExpr::Not(a) => match atom_cond(a, rel, mapping)? {
            AtomCond::Local(x) => Ok(AtomCond::Local(format!("NOT ({x})"))),
            _ => Err(CoreError::Unsupported(
                "NOT over descendant-relation predicates is not translatable".into(),
            )),
        },
        UExpr::Path(p) => {
            // Existence test.
            resolve_rel_path_exists(p, rel, mapping)
        }
        other => Err(CoreError::Unsupported(format!("predicate {other:?}"))),
    }
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        other => other,
    }
}

fn sql_op(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "=",
        CmpOp::Ne => "<>",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

fn lit_sql(l: &Lit) -> String {
    match l {
        // All shredded payloads are TEXT columns; integer literals compare
        // as their decimal rendering (exact for equality, the dominant
        // case in the paper's workloads).
        Lit::Int(i) => format!("'{i}'"),
        Lit::Str(s) => format!("'{}'", s.replace('\'', "''")),
    }
}

/// Split a translated filter into a parameterised text and its values:
/// each quoted literal [`lit_sql`] rendered becomes a `?`, in order, so
/// one statement shape keeps one text in the engine's plan cache however
/// many keys it runs with. Translation keeps literals inline (that is the
/// SQL [`query_filter_sql`] returns); execution binds them. A text whose
/// quotes do not pair up is returned unchanged with no values.
pub fn bind_literals(sql: &str) -> (String, Vec<Value>) {
    let mut text = String::with_capacity(sql.len());
    let mut params = Vec::new();
    let mut rest = sql;
    while let Some(open) = rest.find('\'') {
        text.push_str(&rest[..open]);
        rest = &rest[open + 1..];
        let mut lit = String::new();
        loop {
            let Some(close) = rest.find('\'') else {
                return (sql.to_string(), Vec::new());
            };
            lit.push_str(&rest[..close]);
            rest = &rest[close + 1..];
            match rest.strip_prefix('\'') {
                Some(after) => {
                    lit.push('\'');
                    rest = after;
                }
                None => break,
            }
        }
        text.push('?');
        params.push(Value::Str(lit));
    }
    text.push_str(rest);
    (text, params)
}

/// Resolve a relative predicate path to a column condition, chaining
/// through child relations when the path leaves the home relation.
fn resolve_rel_path_cond(
    p: &PathExpr,
    lit: &Lit,
    op: CmpOp,
    rel: usize,
    mapping: &Mapping,
) -> Result<AtomCond> {
    if p.start != PathStart::Relative {
        return Err(CoreError::Unsupported(
            "predicate paths must be relative to the element being filtered".into(),
        ));
    }
    let (home, chain, tail) = split_chain(p, rel, mapping)?;
    let target_rel = chain.last().copied().unwrap_or(home);
    let relation = &mapping.relations[target_rel];
    // The tail must name a column of the target relation.
    let cond = match &tail {
        RelTail::Attribute(attr) => {
            let col = relation
                .columns
                .iter()
                .find(|c| c.path.is_empty() && c.kind == ColumnKind::Attribute(attr.clone()))
                .ok_or_else(|| {
                    CoreError::Path(format!("@{attr} is not a column of {}", relation.table))
                })?;
            format!("{} {} {}", col.name, sql_op(op), lit_sql(lit))
        }
        RelTail::Inlined(path) if path.is_empty() => {
            // Comparing the relation element itself: its PCDATA column.
            let col = relation
                .find_column(&[], &ColumnKind::Pcdata)
                .map(|i| relation.columns[i].name.clone())
                .ok_or_else(|| {
                    CoreError::Path(format!("{} stores no direct PCDATA", relation.table))
                })?;
            format!("{col} {} {}", sql_op(op), lit_sql(lit))
        }
        RelTail::Inlined(path) => {
            let col = relation
                .find_column(path, &ColumnKind::Pcdata)
                .map(|i| relation.columns[i].name.clone())
                .ok_or_else(|| {
                    CoreError::Path(format!(
                        "no inlined PCDATA column {path:?} in {}",
                        relation.table
                    ))
                })?;
            format!("{col} {} {}", sql_op(op), lit_sql(lit))
        }
    };
    if chain.is_empty() {
        Ok(AtomCond::Local(cond))
    } else {
        Ok(AtomCond::Descendant(DescPred {
            chain,
            target_sql: cond,
        }))
    }
}

fn resolve_rel_path_exists(p: &PathExpr, rel: usize, mapping: &Mapping) -> Result<AtomCond> {
    let (home, chain, tail) = split_chain(p, rel, mapping)?;
    let target_rel = chain.last().copied().unwrap_or(home);
    let relation = &mapping.relations[target_rel];
    let cond = match &tail {
        RelTail::Attribute(attr) => {
            let col = relation
                .columns
                .iter()
                .find(|c| c.path.is_empty() && c.kind == ColumnKind::Attribute(attr.clone()))
                .ok_or_else(|| {
                    CoreError::Path(format!("@{attr} is not a column of {}", relation.table))
                })?;
            format!("{} IS NOT NULL", col.name)
        }
        RelTail::Inlined(path) if path.is_empty() => "id IS NOT NULL".to_string(),
        RelTail::Inlined(path) => {
            if let Some(i) = relation.find_column(path, &ColumnKind::Presence) {
                format!("{} = TRUE", relation.columns[i].name)
            } else if let Some(i) = relation.find_column(path, &ColumnKind::Pcdata) {
                format!("{} IS NOT NULL", relation.columns[i].name)
            } else {
                return Err(CoreError::Path(format!(
                    "no inlined item {path:?} in {}",
                    relation.table
                )));
            }
        }
    };
    if chain.is_empty() {
        Ok(AtomCond::Local(cond))
    } else {
        Ok(AtomCond::Descendant(DescPred {
            chain,
            target_sql: cond,
        }))
    }
}

enum RelTail {
    /// The path ends on `@attr` of the element reached so far.
    Attribute(String),
    /// The path's remaining segments stay inlined within the last chain
    /// relation.
    Inlined(Vec<String>),
}

/// Split a relative path into the chain of child relations it steps
/// through plus the inlined tail within the last one.
fn split_chain(
    p: &PathExpr,
    home: usize,
    mapping: &Mapping,
) -> Result<(usize, Vec<usize>, RelTail)> {
    let mut chain: Vec<usize> = Vec::new();
    let mut cur_rel = home;
    let mut inlined: Vec<String> = Vec::new();
    let mut steps = p.steps.iter().peekable();
    while let Some(step) = steps.next() {
        match step {
            Step::Child(name) => {
                if inlined.is_empty() {
                    // Still at a relation boundary: is `name` a child
                    // relation or an inlined item?
                    if let Some(&crel) = mapping.relations[cur_rel]
                        .children
                        .iter()
                        .find(|&&c| mapping.relations[c].element == *name)
                    {
                        chain.push(crel);
                        cur_rel = crel;
                        continue;
                    }
                }
                inlined.push(name.clone());
            }
            Step::Attribute(a) => {
                if steps.peek().is_some() {
                    return Err(CoreError::Unsupported(
                        "steps after an attribute are not translatable".into(),
                    ));
                }
                if !inlined.is_empty() {
                    return Err(CoreError::Unsupported(
                        "attributes of inlined elements are matched by column name; \
                         qualify from the relation element"
                            .into(),
                    ));
                }
                return Ok((home, chain, RelTail::Attribute(a.clone())));
            }
            other => {
                return Err(CoreError::Unsupported(format!(
                    "predicate path step {other:?}"
                )))
            }
        }
    }
    Ok((home, chain, RelTail::Inlined(inlined)))
}

/// Fold `WHERE` conditions into the specs of the variables they mention.
fn apply_where(e: &UExpr, vars: &mut HashMap<String, QuerySpec>, mapping: &Mapping) -> Result<()> {
    match e {
        UExpr::And(a, b) => {
            apply_where(a, vars, mapping)?;
            apply_where(b, vars, mapping)
        }
        UExpr::Cmp { left, op, right } => {
            let (var_expr, lit, op) = match (left.as_ref(), right.as_ref()) {
                (UExpr::Path(p), UExpr::Literal(l)) => (p, l, *op),
                (UExpr::Literal(l), UExpr::Path(p)) => (p, l, flip(*op)),
                _ => {
                    return Err(CoreError::Unsupported(
                        "WHERE must compare a bound path with a literal".into(),
                    ))
                }
            };
            let v = match &var_expr.start {
                PathStart::Var(v) => v.clone(),
                _ => {
                    return Err(CoreError::Unsupported(
                        "WHERE paths must start from a bound variable".into(),
                    ))
                }
            };
            let spec = vars
                .get(v.as_str())
                .ok_or_else(|| CoreError::Unsupported(format!("unbound ${v}")))?
                .clone();
            // Rebase: the condition applies to the variable's relation,
            // following the remaining relative steps.
            let rel_path = PathExpr {
                start: PathStart::Relative,
                steps: match &spec.inlined {
                    None => var_expr.steps.clone(),
                    Some(prefix) => {
                        // $city = "X" where $city binds an inlined item:
                        // prepend the inlined path.
                        let mut s: Vec<Step> =
                            prefix.iter().map(|seg| Step::Child(seg.clone())).collect();
                        s.extend(var_expr.steps.iter().cloned());
                        s
                    }
                },
            };
            let cond = resolve_rel_path_cond(&rel_path, lit, op, spec.rel, mapping)?;
            let entry = vars.get_mut(v.as_str()).expect("present");
            match cond {
                AtomCond::Local(s) => entry.local.push(s),
                AtomCond::Descendant(d) => entry.descendants.push(d),
            }
            Ok(())
        }
        other => Err(CoreError::Unsupported(format!("WHERE clause {other:?}"))),
    }
}
