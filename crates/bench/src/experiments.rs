//! One function per paper table/figure. Each returns the series it
//! measured (for programmatic checks) and can print itself in the paper's
//! layout.

use crate::timing::{time_runs, Millis};
use xmlup_core::{DeleteStrategy, InsertStrategy, RepoConfig, XmlRepository};
use xmlup_workload::dblp::{dblp_document, dblp_dtd, DblpParams};
use xmlup_workload::{
    fixed_document, randomized_document, run_delete, run_insert, synthetic_dtd, SyntheticParams,
    Workload,
};

/// Number of measured runs per point (paper: 5 runs, first discarded).
pub const RUNS: usize = 4;

/// Simulated per-client-statement overhead for all experiment repos: the
/// round-trip + SQL-compilation cost a JDBC client pays against a
/// client/server RDBMS (documented substitution, see DESIGN.md §2). The
/// value is in the low range of observed local JDBC statement overheads.
pub const STATEMENT_COST_US: u64 = 100;

/// One measured series: a strategy label and its time per x-value.
#[derive(Debug, Clone)]
pub struct Series {
    /// Strategy label (paper legend).
    pub label: String,
    /// `(x, milliseconds)` points.
    pub points: Vec<(usize, Millis)>,
}

/// A whole figure: title, x-axis name, and its series.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Paper caption.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Measured series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Print in a gnuplot-friendly column layout.
    pub fn print(&self) {
        println!("# {}", self.title);
        print!("{:<8}", self.x_label);
        for s in &self.series {
            print!(" {:>18}", s.label);
        }
        println!();
        let xs: Vec<usize> = self.series[0].points.iter().map(|p| p.0).collect();
        for (i, x) in xs.iter().enumerate() {
            print!("{x:<8}");
            for s in &self.series {
                print!(" {:>18.3}", s.points[i].1);
            }
            println!();
        }
        println!();
    }

    /// Time of a series at an x value.
    pub fn time_of(&self, label: &str, x: usize) -> Option<Millis> {
        self.series
            .iter()
            .find(|s| s.label == label)?
            .points
            .iter()
            .find(|p| p.0 == x)
            .map(|p| p.1)
    }
}

fn build_repo(p: &SyntheticParams, ds: DeleteStrategy, is: InsertStrategy) -> XmlRepository {
    build_repo_doc(p, ds, is, false)
}

fn build_repo_doc(
    p: &SyntheticParams,
    ds: DeleteStrategy,
    is: InsertStrategy,
    randomized: bool,
) -> XmlRepository {
    let dtd = synthetic_dtd(p.depth);
    let doc = if randomized {
        randomized_document(p)
    } else {
        fixed_document(p)
    };
    let mut repo = XmlRepository::new(
        &dtd,
        "root",
        RepoConfig {
            delete_strategy: ds,
            insert_strategy: is,
            build_asr: ds == DeleteStrategy::Asr || is == InsertStrategy::Asr,
            statement_cost_us: STATEMENT_COST_US,
            ..RepoConfig::default()
        },
    )
    .expect("schema builds");
    repo.load(&doc).expect("document loads");
    repo
}

/// Delete strategies plotted in Figures 6–9 (cascade measured too; the
/// paper omits it from the plots because it tracks per-stm within 5%).
pub const DELETE_SERIES: [DeleteStrategy; 4] = [
    DeleteStrategy::Asr,
    DeleteStrategy::PerStatementTrigger,
    DeleteStrategy::PerTupleTrigger,
    DeleteStrategy::Cascading,
];

/// Figures 6/7: delete performance vs scaling factor, fanout=1, depth=8.
pub fn delete_vs_scaling(workload: Workload, scaling: &[usize], fig: &str) -> Figure {
    let mut series = Vec::new();
    for ds in DELETE_SERIES {
        let mut points = Vec::new();
        for &sf in scaling {
            let p = SyntheticParams::new(sf, 8, 1);
            let ms = time_runs(
                RUNS,
                || {
                    let repo = build_repo(&p, ds, InsertStrategy::Table);
                    let rel = repo.mapping.relation_by_element("n1").unwrap();
                    (repo, rel)
                },
                |(repo, rel)| {
                    run_delete(repo, *rel, workload).expect("delete runs");
                },
            );
            points.push((sf, ms));
        }
        series.push(Series {
            label: ds.label().to_string(),
            points,
        });
    }
    Figure {
        title: format!(
            "Figure {fig}: Delete performance on {} workload, fixed fanout=1, depth=8",
            workload.label()
        ),
        x_label: "sf".into(),
        series,
    }
}

/// Figures 8/9: delete performance vs depth, scaling factor=100, fanout=4.
pub fn delete_vs_depth(workload: Workload, depths: &[usize], fig: &str) -> Figure {
    let mut series = Vec::new();
    for ds in DELETE_SERIES {
        let mut points = Vec::new();
        for &d in depths {
            let p = SyntheticParams::new(100, d, 4);
            let ms = time_runs(
                RUNS,
                || {
                    let repo = build_repo(&p, ds, InsertStrategy::Table);
                    let rel = repo.mapping.relation_by_element("n1").unwrap();
                    (repo, rel)
                },
                |(repo, rel)| {
                    run_delete(repo, *rel, workload).expect("delete runs");
                },
            );
            points.push((d, ms));
        }
        series.push(Series {
            label: ds.label().to_string(),
            points,
        });
    }
    Figure {
        title: format!(
            "Figure {fig}: Delete performance on {} workload, fixed scaling factor=100, fanout=4 (log y in the paper)",
            workload.label()
        ),
        x_label: "depth".into(),
        series,
    }
}

/// Figures 10/11: insert performance vs depth, scaling factor=100, fanout=4.
pub fn insert_vs_depth(workload: Workload, depths: &[usize], fig: &str) -> Figure {
    let mut series = Vec::new();
    for is in InsertStrategy::ALL {
        let mut points = Vec::new();
        for &d in depths {
            let p = SyntheticParams::new(100, d, 4);
            let ms = time_runs(
                RUNS,
                || {
                    let repo = build_repo(&p, DeleteStrategy::PerTupleTrigger, is);
                    let rel = repo.mapping.relation_by_element("n1").unwrap();
                    (repo, rel)
                },
                |(repo, rel)| {
                    run_insert(repo, *rel, workload).expect("insert runs");
                },
            );
            points.push((d, ms));
        }
        series.push(Series {
            label: is.label().to_string(),
            points,
        });
    }
    Figure {
        title: format!(
            "Figure {fig}: Insert performance, {} workload, fixed scaling factor=100, fanout=4 (log y in the paper)",
            workload.label()
        ),
        x_label: "depth".into(),
        series,
    }
}

/// Section 7.1.2: the randomized-synthetic variant of the random-workload
/// delete comparison (the paper reports results "similar to those shown
/// above" and omits the plots).
pub fn randomized_delete(scaling: &[usize]) -> Figure {
    let mut series = Vec::new();
    for ds in DELETE_SERIES {
        let mut points = Vec::new();
        for &sf in scaling {
            let p = SyntheticParams::new(sf, 8, 2);
            let ms = time_runs(
                RUNS,
                || {
                    let repo = build_repo_doc(&p, ds, InsertStrategy::Table, true);
                    let rel = repo.mapping.relation_by_element("n1").unwrap();
                    (repo, rel)
                },
                |(repo, rel)| {
                    run_delete(repo, *rel, Workload::random10()).expect("delete runs");
                },
            );
            points.push((sf, ms));
        }
        series.push(Series {
            label: ds.label().to_string(),
            points,
        });
    }
    Figure {
        title: "Section 7.1.2: Delete performance on RANDOMIZED synthetic data, random workload, max depth=8, max fanout=2".into(),
        x_label: "sf".into(),
        series,
    }
}

/// Table 1: the synthetic-data parameter grid with realized data sizes.
pub fn table1() -> Vec<(String, usize, usize)> {
    let grid: [(&str, Vec<SyntheticParams>); 3] = [
        (
            "fixed fanout (f=1; d=2,4,8; sf=100..800)",
            [2, 4, 8]
                .iter()
                .flat_map(|&d| {
                    [100, 200, 400, 800]
                        .iter()
                        .map(move |&sf| SyntheticParams::new(sf, d, 1))
                })
                .collect(),
        ),
        (
            "fixed depth (d=2; f=1,2,4,8; sf=100..800)",
            [1, 2, 4, 8]
                .iter()
                .flat_map(|&f| {
                    [100, 200, 400, 800]
                        .iter()
                        .map(move |&sf| SyntheticParams::new(sf, 2, f))
                })
                .collect(),
        ),
        (
            "fixed scaling factor (sf=100; d=2..4; f=2,4,8)",
            [2, 3, 4]
                .iter()
                .flat_map(|&d| {
                    [2, 4, 8]
                        .iter()
                        .map(move |&f| SyntheticParams::new(100, d, f))
                })
                .collect(),
        ),
    ];
    let mut out = Vec::new();
    for (name, params) in grid {
        // Realized maximum data size of the experiment family, verified by
        // actually shredding the largest instance.
        let max = params
            .iter()
            .max_by_key(|p| p.total_nodes())
            .copied()
            .unwrap();
        let repo = build_repo(&max, DeleteStrategy::Cascading, InsertStrategy::Table);
        let tuples = repo.tuple_count() - 1; // exclude the root tuple
                                             // ~50-char string + integer + ids per tuple ≈ 120 bytes.
        let bytes = tuples * 120;
        out.push((name.to_string(), tuples, bytes));
    }
    out
}

/// Print Table 1.
pub fn print_table1() {
    println!("# Table 1: Parameter values evaluated using synthetic data");
    println!(
        "{:<52} {:>12} {:>14}",
        "experiment", "max tuples", "approx bytes"
    );
    for (name, tuples, bytes) in table1() {
        println!("{name:<52} {tuples:>12} {bytes:>14}");
    }
    println!();
}

/// Section 7.2: ASR vs conventional path-expression evaluation. Returns
/// `(fanout, path_len, conventional_ms, asr_ms)` rows.
pub fn asr_path_expressions(
    fanouts: &[usize],
    path_lens: &[usize],
) -> Vec<(usize, usize, Millis, Millis)> {
    let mut rows = Vec::new();
    for &f in fanouts {
        for &len in path_lens {
            let depth = len + 1; // a length-`len` predicate path needs that many levels below n1
            let p = SyntheticParams::new(40, depth, f);
            // Predicate on the deepest level's inlined `str` column,
            // selecting nothing (worst case: full evaluation).
            let pred_path: Vec<String> = (2..=depth).map(|l| format!("n{l}")).collect();
            let q = format!(
                r#"FOR $x IN document("d")/root/n1[{}/str="@@nomatch@@"] RETURN $x"#,
                pred_path.join("/")
            );
            let conventional = time_runs(
                RUNS,
                || build_repo(&p, DeleteStrategy::Cascading, InsertStrategy::Table),
                |repo| {
                    repo.query_xml(&q).expect("query runs");
                },
            );
            let asr = time_runs(
                RUNS,
                || {
                    let dtd = synthetic_dtd(p.depth);
                    let doc = fixed_document(&p);
                    let mut repo = XmlRepository::new(
                        &dtd,
                        "root",
                        RepoConfig {
                            build_asr: true,
                            statement_cost_us: STATEMENT_COST_US,
                            ..RepoConfig::default()
                        },
                    )
                    .unwrap();
                    repo.load(&doc).unwrap();
                    repo
                },
                |repo| {
                    repo.query_xml(&q).expect("query runs");
                },
            );
            rows.push((f, len, conventional, asr));
        }
    }
    rows
}

/// Print the Section 7.2 experiment.
pub fn print_asr_paths(rows: &[(usize, usize, Millis, Millis)]) {
    println!("# Section 7.2: effect of ASRs on path-expression evaluation");
    println!(
        "{:<8} {:<10} {:>16} {:>12} {:>10}",
        "fanout", "path len", "conventional ms", "asr ms", "asr wins"
    );
    for (f, len, conv, asr) in rows {
        println!(
            "{f:<8} {len:<10} {conv:>16.3} {asr:>12.3} {:>10}",
            if asr < conv { "yes" } else { "no" }
        );
    }
    println!();
}

/// Table 2: the DBLP experiment — delete year-2000 publications under each
/// delete method; replicate 10 random conference subtrees under each
/// insert method. Returns `(label, milliseconds)` rows.
pub fn table2(params: &DblpParams) -> Vec<(String, Millis)> {
    let mut rows = Vec::new();
    let dtd = dblp_dtd();
    let doc = dblp_document(params);
    for ds in DELETE_SERIES {
        let ms = time_runs(
            RUNS,
            || {
                let mut repo = XmlRepository::new(
                    &dtd,
                    "dblp",
                    RepoConfig {
                        delete_strategy: ds,
                        insert_strategy: InsertStrategy::Table,
                        build_asr: ds == DeleteStrategy::Asr,
                        statement_cost_us: STATEMENT_COST_US,
                        ..RepoConfig::default()
                    },
                )
                .unwrap();
                repo.load(&doc).unwrap();
                repo
            },
            |repo| {
                repo.execute_xquery(
                    r#"FOR $d IN document("dblp.xml")/dblp/conference,
                           $p IN $d/inproceedings[year="2000"]
                       UPDATE $d { DELETE $p }"#,
                )
                .expect("dblp delete runs");
            },
        );
        rows.push((format!("delete / {}", ds.label()), ms));
    }
    for is in InsertStrategy::ALL {
        let ms = time_runs(
            RUNS,
            || {
                let mut repo = XmlRepository::new(
                    &dtd,
                    "dblp",
                    RepoConfig {
                        delete_strategy: DeleteStrategy::PerTupleTrigger,
                        insert_strategy: is,
                        build_asr: is == InsertStrategy::Asr,
                        statement_cost_us: STATEMENT_COST_US,
                        ..RepoConfig::default()
                    },
                )
                .unwrap();
                repo.load(&doc).unwrap();
                let rel = repo.mapping.relation_by_element("conference").unwrap();
                (repo, rel)
            },
            |(repo, rel)| {
                run_insert(repo, *rel, Workload::random10()).expect("dblp insert runs");
            },
        );
        rows.push((format!("insert / {}", is.label()), ms));
    }
    rows
}

/// Print Table 2.
pub fn print_table2(rows: &[(String, Millis)]) {
    println!("# Table 2: Experimental results on (synthetic) DBLP data");
    println!("{:<28} {:>12}", "operation / method", "time ms");
    for (label, ms) in rows {
        println!("{label:<28} {ms:>12.3}");
    }
    println!();
}

/// Ablation for the order-preservation extension (paper Section 8 future
/// work): load cost with/without the `pos_` column, positional-insert
/// cost, and how many midpoint inserts a gap absorbs before renumbering.
pub fn ordered_ablation(scaling: &[usize]) -> Vec<(usize, Millis, Millis, Millis, usize)> {
    use xmlup_core::InsertAt;
    let mut rows = Vec::new();
    for &sf in scaling {
        let p = SyntheticParams::new(sf, 3, 2);
        let dtd = synthetic_dtd(p.depth);
        let doc = fixed_document(&p);
        let cfg = RepoConfig {
            statement_cost_us: STATEMENT_COST_US,
            ..RepoConfig::default()
        };
        let load_unordered = time_runs(
            RUNS,
            || XmlRepository::new(&dtd, "root", cfg).unwrap(),
            |repo| {
                repo.load(&doc).unwrap();
            },
        );
        let load_ordered = time_runs(
            RUNS,
            || XmlRepository::new_ordered(&dtd, "root", cfg).unwrap(),
            |repo| {
                repo.load(&doc).unwrap();
            },
        );
        // Positional insert cost: 10 inserts at the front of the root's
        // child list (worst case for a naive push-everything scheme; the
        // gap scheme pays one sibling query + one INSERT each).
        let insert_ms = time_runs(
            RUNS,
            || {
                let mut repo = XmlRepository::new_ordered(&dtd, "root", cfg).unwrap();
                repo.load(&doc).unwrap();
                let n1 = repo.mapping.relation_by_element("n1").unwrap();
                (repo, n1)
            },
            |(repo, n1)| {
                for _ in 0..10 {
                    repo.insert_tuple_at(*n1, 0, &[], InsertAt::First).unwrap();
                }
            },
        );
        // Renumber frequency: hammer one gap until it splits.
        let mut repo = XmlRepository::new_ordered(&dtd, "root", cfg).unwrap();
        repo.load(&doc).unwrap();
        let n1 = repo.mapping.relation_by_element("n1").unwrap();
        let anchor = repo.ids_of(n1)[0];
        let mut inserts_before_renumber = 0usize;
        for _ in 0..64 {
            let ins = repo
                .insert_tuple_at(n1, 0, &[], InsertAt::After(anchor))
                .unwrap();
            if ins.renumbered {
                break;
            }
            inserts_before_renumber += 1;
        }
        rows.push((
            sf,
            load_unordered,
            load_ordered,
            insert_ms,
            inserts_before_renumber,
        ));
    }
    rows
}

/// Print the ordered-mapping ablation.
pub fn print_ordered(rows: &[(usize, Millis, Millis, Millis, usize)]) {
    println!("# Section 8 extension: order-preserving mapping ablation (depth=3, fanout=2)");
    println!(
        "{:<8} {:>16} {:>16} {:>18} {:>22}",
        "sf", "load (unord) ms", "load (ord) ms", "10 pos-inserts ms", "inserts per gap split"
    );
    for (sf, lu, lo, ins, n) in rows {
        println!("{sf:<8} {lu:>16.3} {lo:>16.3} {ins:>18.3} {n:>22}");
    }
    println!();
}

/// Storage-scheme ablation (paper Section 5.1 prose): the Edge mapping
/// fragments every element across tuples, so path navigation needs one
/// self-join per step while the inlined mapping answers from one
/// relation. Returns `(sf, inline_query_ms, edge_query_ms,
/// inline_delete_ms, edge_delete_ms)`.
pub fn storage_ablation(scaling: &[usize]) -> Vec<(usize, Millis, Millis, Millis, Millis)> {
    use xmlup_shred::{edge, loader, Mapping};
    let mut rows = Vec::new();
    for &sf in scaling {
        let p = SyntheticParams::new(sf, 3, 2);
        let dtd = synthetic_dtd(p.depth);
        let doc = fixed_document(&p);
        let mapping = Mapping::from_dtd(&dtd, "root").unwrap();

        let make_inline = || {
            let mut db = xmlup_rdb::Database::new();
            db.set_statement_cost(std::time::Duration::from_micros(STATEMENT_COST_US));
            loader::create_schema(&mut db, &mapping).unwrap();
            loader::shred(&mut db, &mapping, &doc).unwrap();
            db
        };
        let make_edge = || {
            let mut db = xmlup_rdb::Database::new();
            db.set_statement_cost(std::time::Duration::from_micros(STATEMENT_COST_US));
            db.bump_next_id(1);
            edge::create_schema(&mut db).unwrap();
            edge::shred(&mut db, &doc).unwrap();
            edge::create_delete_trigger(&mut db).unwrap();
            db
        };

        // Query: the string values of every level-3 element — one table
        // scan inlined vs. a four-way self-join over Edge.
        let inline_q = time_runs(RUNS, make_inline, |db| {
            db.query("SELECT str FROM n3").unwrap();
        });
        let edge_q = time_runs(RUNS, make_edge, |db| {
            db.query(
                "SELECT v.value FROM Edge e3, Edge s, Edge v
                 WHERE e3.name = 'n3' AND s.parentId = e3.id AND s.name = 'str'
                   AND v.parentId = s.id AND v.kind = 'text'",
            )
            .unwrap();
        });
        // Delete: remove every n1 subtree. Inline: per-tuple triggers would
        // apply; compare raw orphan-cascade on both stores.
        let inline_d = time_runs(RUNS, make_inline, |db| {
            db.execute("DELETE FROM n1").unwrap();
            db.execute("DELETE FROM n2 WHERE parentId NOT IN (SELECT id FROM n1)")
                .unwrap();
            db.execute("DELETE FROM n3 WHERE parentId NOT IN (SELECT id FROM n2)")
                .unwrap();
        });
        let edge_d = time_runs(RUNS, make_edge, |db| {
            // One statement; the self-referential per-tuple trigger
            // cascades through the whole fragment forest.
            db.execute("DELETE FROM Edge WHERE name = 'n1'").unwrap();
        });
        rows.push((sf, inline_q, edge_q, inline_d, edge_d));
    }
    rows
}

/// Plan-cache effectiveness on the paper's hot update paths: run the
/// tuple-, table- and ASR-based insert workloads and a per-tuple-trigger
/// delete workload and report the engine's statement counters. With
/// prepared statements and the plan cache, `statements_parsed` stays at
/// the number of distinct statement *shapes* while `client_statements`
/// grows with the workload, also for the table-based copy, whose
/// temporary-table DDL leaves the parsed statements cached. Returns
/// `(label, client_statements, statements_parsed, cache_hits,
/// cache_misses)` rows.
pub fn plan_cache_stats(sf: usize) -> Vec<(String, u64, u64, u64, u64)> {
    let p = SyntheticParams::new(sf, 4, 2);
    let cases = [
        ("tuple insert, random", InsertStrategy::Tuple, false),
        ("table insert, random", InsertStrategy::Table, false),
        ("asr insert, random", InsertStrategy::Asr, false),
        ("per-tuple delete, random", InsertStrategy::Tuple, true),
    ];
    cases
        .into_iter()
        .map(|(label, is, delete)| {
            let mut repo = build_repo(&p, DeleteStrategy::PerTupleTrigger, is);
            let rel = repo.mapping.relation_by_element("n1").unwrap();
            repo.reset_stats();
            if delete {
                run_delete(&mut repo, rel, Workload::random10()).expect("delete runs");
            } else {
                run_insert(&mut repo, rel, Workload::random10()).expect("insert runs");
            }
            let s = repo.stats();
            (
                label.to_string(),
                s.client_statements,
                s.statements_parsed,
                s.plan_cache_hits,
                s.plan_cache_misses,
            )
        })
        .collect()
}

/// Print the plan-cache counters.
pub fn print_plan_cache(rows: &[(String, u64, u64, u64, u64)]) {
    println!("# Plan cache: statements parsed vs statements executed (prepared statements)");
    println!(
        "{:<28} {:>12} {:>10} {:>12} {:>12}",
        "workload", "client stmts", "parsed", "cache hits", "cache misses"
    );
    for (label, client, parsed, hits, misses) in rows {
        println!("{label:<28} {client:>12} {parsed:>10} {hits:>12} {misses:>12}");
    }
    println!();
}

/// Print the storage ablation.
pub fn print_storage(rows: &[(usize, Millis, Millis, Millis, Millis)]) {
    println!("# Section 5.1 ablation: Shared Inlining vs Edge mapping (depth=3, fanout=2)");
    println!(
        "{:<8} {:>16} {:>16} {:>16} {:>16}",
        "sf", "query inline ms", "query edge ms", "delete inline ms", "delete edge ms"
    );
    for (sf, qi, qe, di, de) in rows {
        println!("{sf:<8} {qi:>16.3} {qe:>16.3} {di:>16.3} {de:>16.3}");
    }
    println!();
}

/// Transaction overhead: an N-statement insert batch run under
/// autocommit (one engine transaction per statement) vs inside a single
/// `BEGIN … COMMIT`. The gap is the per-statement commit bookkeeping —
/// small by design, since commit just discards the undo log.
pub fn txn_overhead(batch_sizes: &[usize]) -> Figure {
    let setup = || {
        let mut db = xmlup_rdb::Database::new();
        db.run_script(
            "CREATE TABLE t (id INTEGER, v VARCHAR(12));
             CREATE INDEX t_id ON t (id);",
        )
        .expect("schema");
        db
    };
    let insert_all = |db: &mut xmlup_rdb::Database, n: usize| {
        for i in 0..n {
            db.execute(&format!("INSERT INTO t VALUES ({i}, 'payload')"))
                .expect("insert");
        }
    };
    let mut auto = Series {
        label: "autocommit".into(),
        points: Vec::new(),
    };
    let mut single = Series {
        label: "single txn".into(),
        points: Vec::new(),
    };
    for &n in batch_sizes {
        auto.points
            .push((n, time_runs(RUNS, setup, |db| insert_all(db, n))));
        single.points.push((
            n,
            time_runs(RUNS, setup, |db| {
                db.begin().expect("begin");
                insert_all(db, n);
                db.commit().expect("commit");
            }),
        ));
    }
    Figure {
        title: "Txn overhead: autocommit vs one BEGIN..COMMIT (insert batch)".into(),
        x_label: "stmts".into(),
        series: vec![auto, single],
    }
}

/// The Section-7 reconstruction-style join: a three-level edge forest
/// joined parent→child→grandchild with a selective root predicate.
pub const JOIN_QUERY: &str = "SELECT n3.id, n3.num FROM n1, n2, n3 \
                              WHERE n2.parentId = n1.id AND n3.parentId = n2.id AND n1.num < 24";

/// Build the three-level edge forest [`JOIN_QUERY`] runs over: `n1`
/// roots, 4 children each at every lower level, with indexes on the id
/// and parent columns. `naive` disables the planner (AST-interpreter
/// behaviour).
pub fn three_level_join_db(n1: usize, naive: bool) -> xmlup_rdb::Database {
    let mut db = xmlup_rdb::Database::new();
    if naive {
        db.set_planner_naive(true);
    }
    db.run_script(
        "CREATE TABLE n1 (id INTEGER, parentId INTEGER, num INTEGER);
         CREATE TABLE n2 (id INTEGER, parentId INTEGER, num INTEGER);
         CREATE TABLE n3 (id INTEGER, parentId INTEGER, num INTEGER);
         CREATE INDEX n1_id ON n1 (id);
         CREATE INDEX n2_parent ON n2 (parentId);
         CREATE INDEX n3_parent ON n3 (parentId);",
    )
    .expect("schema");
    let ins1 = db.prepare("INSERT INTO n1 VALUES ($1, $2, $3)").unwrap();
    let ins2 = db.prepare("INSERT INTO n2 VALUES ($1, $2, $3)").unwrap();
    let ins3 = db.prepare("INSERT INTO n3 VALUES ($1, $2, $3)").unwrap();
    use xmlup_rdb::Value::Int;
    for i in 0..n1 as i64 {
        db.execute_prepared(&ins1, &[Int(i), Int(0), Int(i % 97)])
            .unwrap();
        for j in 0..4i64 {
            let id2 = i * 4 + j;
            db.execute_prepared(&ins2, &[Int(id2), Int(i), Int(id2 % 53)])
                .unwrap();
            for k in 0..4i64 {
                let id3 = id2 * 4 + k;
                db.execute_prepared(&ins3, &[Int(id3), Int(id2), Int(id3 % 31)])
                    .unwrap();
            }
        }
    }
    db
}

/// Interpreter vs planner on the reconstruction-style join queries
/// (Section 7's query side): a three-level edge forest joined
/// parent→child→grandchild with a selective predicate on the root. The
/// "interpreter" series runs with [`xmlup_rdb::Database::set_planner_naive`]
/// set — hash joins where equality conjuncts allow (the pre-planner AST
/// interpreter made the same choice) but the whole filter re-checked on
/// every joined row and no predicate pushdown or index-access selection.
/// The "planned" series runs the default planner. `sizes` are level-1
/// row counts; lower levels get 4× each.
pub fn planner_comparison(sizes: &[usize]) -> Figure {
    let setup = three_level_join_db;
    let query = JOIN_QUERY;
    let mut interp = Series {
        label: "interpreter".into(),
        points: Vec::new(),
    };
    let mut planned = Series {
        label: "planned".into(),
        points: Vec::new(),
    };
    for &n in sizes {
        interp.points.push((
            n,
            time_runs(
                RUNS,
                || setup(n, true),
                |db| {
                    db.query(query).expect("query");
                },
            ),
        ));
        planned.points.push((
            n,
            time_runs(
                RUNS,
                || setup(n, false),
                |db| {
                    db.query(query).expect("query");
                },
            ),
        ));
    }
    Figure {
        title: "Planner: 3-way reconstruction join, interpreter (post-join filter) vs planned (pushdown + index probes)"
            .into(),
        x_label: "n1 rows".into(),
        series: vec![interp, planned],
    }
}

/// Queries of the cost-based-planner ladders (`planner_v2`): a ~1%
/// selective range predicate and a top-10 `ORDER BY`.
pub const RANGE_QUERY: &str = "SELECT COUNT(*) FROM t WHERE num > 41000 AND num <= 42000";
/// See [`RANGE_QUERY`].
pub const ORDER_QUERY: &str = "SELECT id, num FROM t ORDER BY num LIMIT 10";

/// Cost-based planner (v2) ladders: the same two queries — a selective
/// range predicate ([`RANGE_QUERY`], ~1% of rows) and an
/// `ORDER BY ... LIMIT 10` ([`ORDER_QUERY`]) — measured with and
/// without the ordered secondary index plus `ANALYZE` statistics that
/// let the planner seek instead of scanning and walk the index instead
/// of sorting. Four series over table row count: `range/seq`,
/// `range/seek`, `orderby/sort`, `orderby/elided`.
///
/// The function also asserts the EXPLAIN goldens (RangeScan with both
/// bounds, OrderedScan without a Sort) and the planner counters
/// (`range_seeks`, `sorts_elided`), so running the benchmark is itself
/// a regression check.
pub fn planner_v2(sizes: &[usize]) -> Figure {
    use xmlup_rdb::Value::Int;
    fn setup(n: usize, indexed: bool) -> xmlup_rdb::Database {
        let mut db = xmlup_rdb::Database::new();
        db.run_script("CREATE TABLE t (id INTEGER, num INTEGER);")
            .expect("schema");
        let ins = db.prepare("INSERT INTO t VALUES ($1, $2)").unwrap();
        for i in 0..n as i64 {
            // 7919 is coprime to 100000: num is a permutation slice of
            // 0..100000, so the (41000, 42000] range holds ~n/100 rows.
            db.execute_prepared(&ins, &[Int(i), Int(i * 7919 % 100_000)])
                .unwrap();
        }
        if indexed {
            db.run_script("CREATE INDEX t_num ON t (num) USING ORDERED; ANALYZE;")
                .expect("index + analyze");
        }
        db
    }
    // EXPLAIN goldens + counters on a small indexed instance: the
    // ladder must actually measure a seek and an elided sort.
    {
        let mut db = setup(1000, true);
        let plan = db
            .query(&format!("EXPLAIN {RANGE_QUERY}"))
            .expect("explain");
        let text: String = plan.rows.iter().map(|r| format!("{}\n", r[0])).collect();
        assert!(
            text.contains("RangeScan t (num > 41000 AND num <= 42000)"),
            "range query must seek:\n{text}"
        );
        let plan = db
            .query(&format!("EXPLAIN {ORDER_QUERY}"))
            .expect("explain");
        let text: String = plan.rows.iter().map(|r| format!("{}\n", r[0])).collect();
        assert!(
            text.contains("OrderedScan t (num)") && !text.contains("Sort"),
            "ORDER BY LIMIT must walk the ordered index:\n{text}"
        );
        db.reset_stats();
        db.query(RANGE_QUERY).expect("range");
        db.query(ORDER_QUERY).expect("order");
        let s = db.stats();
        assert!(s.range_seeks >= 1, "no range seek recorded: {s:?}");
        assert!(s.sorts_elided >= 1, "sort not elided: {s:?}");
    }
    /// Timed op: each query `REPS` times (plan cached after the first).
    const REPS: usize = 20;
    let measure = |n: usize, indexed: bool, query: &'static str| {
        time_runs(
            RUNS,
            || setup(n, indexed),
            |db| {
                for _ in 0..REPS {
                    db.query(query).expect("query");
                }
            },
        )
    };
    let mut series: Vec<Series> = [
        ("range/seq", RANGE_QUERY, false),
        ("range/seek", RANGE_QUERY, true),
        ("orderby/sort", ORDER_QUERY, false),
        ("orderby/elided", ORDER_QUERY, true),
    ]
    .into_iter()
    .map(|(label, _, _)| Series {
        label: label.into(),
        points: Vec::new(),
    })
    .collect();
    let configs: [(&'static str, bool); 4] = [
        (RANGE_QUERY, false),
        (RANGE_QUERY, true),
        (ORDER_QUERY, false),
        (ORDER_QUERY, true),
    ];
    for &n in sizes {
        for (si, (query, indexed)) in configs.iter().enumerate() {
            series[si].points.push((n, measure(n, *indexed, query)));
        }
    }
    Figure {
        title:
            "Planner v2: selective range and ORDER BY LIMIT, seq/sort vs ordered-index seek/elision"
                .into(),
        x_label: "rows".into(),
        series,
    }
}

/// Rollback cost vs update size: run the bulk per-tuple-trigger delete
/// (the paper's largest update) inside an explicit transaction, then
/// `ROLLBACK`. Returns `(sf, undo_records, apply_ms, rollback_ms)` —
/// rollback replays the undo log newest-first, so its cost is linear in
/// the number of rows the update touched.
pub fn txn_rollback_cost(scaling: &[usize]) -> Vec<(usize, u64, Millis, Millis)> {
    let mut rows = Vec::new();
    for &sf in scaling {
        let p = SyntheticParams::new(sf, 3, 2);
        let pending = || {
            let mut repo = build_repo(&p, DeleteStrategy::PerTupleTrigger, InsertStrategy::Tuple);
            let rel = repo.mapping.relation_by_element("n1").expect("n1");
            repo.db.begin().expect("begin");
            run_delete(&mut repo, rel, Workload::Bulk).expect("delete runs");
            repo
        };
        let apply_ms = time_runs(
            RUNS,
            || build_repo(&p, DeleteStrategy::PerTupleTrigger, InsertStrategy::Tuple),
            |repo| {
                let rel = repo.mapping.relation_by_element("n1").expect("n1");
                repo.db.begin().expect("begin");
                run_delete(repo, rel, Workload::Bulk).expect("delete runs");
            },
        );
        let undo = pending().db.undo_log_len() as u64;
        let rollback_ms = time_runs(RUNS, pending, |repo| {
            repo.db.rollback().expect("rollback");
        });
        rows.push((sf, undo, apply_ms, rollback_ms));
    }
    rows
}

/// Print the transaction rollback-cost experiment.
pub fn print_txn_rollback(rows: &[(usize, u64, Millis, Millis)]) {
    println!("# Rollback cost vs update size (bulk per-tuple delete, depth=3, fanout=2)");
    println!(
        "{:<8} {:>14} {:>12} {:>14}",
        "sf", "undo records", "apply ms", "rollback ms"
    );
    for (sf, undo, apply, rollback) in rows {
        println!("{sf:<8} {undo:>14} {apply:>12.3} {rollback:>14.3}");
    }
    println!();
}

/// A durable database plus the scratch directory holding it; removing
/// the directory on drop keeps repeated `time_runs` setups from
/// littering the temp dir.
struct ScratchDb {
    db: Option<xmlup_rdb::Database>,
    dir: std::path::PathBuf,
}

impl Drop for ScratchDb {
    fn drop(&mut self) {
        self.db.take();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Fresh unique scratch directory under the system temp dir.
fn scratch_dir() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "xmlup-bench-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

const WAL_SCHEMA: &str = "CREATE TABLE t (id INTEGER, v VARCHAR(12));
                          CREATE INDEX t_id ON t (id);";

fn insert_batch(db: &mut xmlup_rdb::Database, n: usize) {
    for i in 0..n {
        db.execute(&format!("INSERT INTO t VALUES ({i}, 'payload')"))
            .expect("insert");
    }
}

/// WAL overhead on the insert batch of [`txn_overhead`]: the same
/// autocommit workload against an in-memory store, a durable store that
/// flushes each commit to the OS but skips `fsync`, and a durable store
/// that syncs every commit — plus the group-commit case, where one
/// explicit transaction turns the whole batch into a single WAL frame
/// and a single sync.
pub fn wal_overhead(batch_sizes: &[usize]) -> Figure {
    let mem_setup = || {
        let mut db = xmlup_rdb::Database::new();
        db.run_script(WAL_SCHEMA).expect("schema");
        ScratchDb {
            db: Some(db),
            dir: std::path::PathBuf::new(),
        }
    };
    let durable_setup = |sync: bool| {
        move || {
            let dir = scratch_dir();
            let mut db = xmlup_rdb::Database::open(&dir).expect("open");
            db.set_wal_sync(sync);
            db.run_script(WAL_SCHEMA).expect("schema");
            ScratchDb { db: Some(db), dir }
        }
    };
    let mut series: Vec<Series> = ["in-memory", "wal", "wal+fsync", "fsync 1 txn"]
        .iter()
        .map(|l| Series {
            label: (*l).into(),
            points: Vec::new(),
        })
        .collect();
    for &n in batch_sizes {
        let auto = |s: &mut ScratchDb| insert_batch(s.db.as_mut().unwrap(), n);
        series[0].points.push((n, time_runs(RUNS, mem_setup, auto)));
        series[1]
            .points
            .push((n, time_runs(RUNS, durable_setup(false), auto)));
        series[2]
            .points
            .push((n, time_runs(RUNS, durable_setup(true), auto)));
        series[3].points.push((
            n,
            time_runs(RUNS, durable_setup(true), |s| {
                let db = s.db.as_mut().unwrap();
                db.begin().expect("begin");
                insert_batch(db, n);
                db.commit().expect("commit");
            }),
        ));
    }
    Figure {
        title: "WAL overhead: autocommit insert batch, by durability level".into(),
        x_label: "stmts".into(),
        series,
    }
}

/// One crash-recovery measurement point. The `recovered_txns`,
/// `replayed_bytes`, and `recovery_micros` columns come from the
/// engine's own metric registry (`rdb_recovered_txns_total`,
/// `rdb_wal_replayed_bytes_total`, `rdb_recovery_micros_total`), not
/// from external timing — the figure plots what the engine reports.
#[derive(Debug, Clone)]
pub struct WalRecoveryRow {
    /// Committed insert statements in the WAL.
    pub stmts: usize,
    /// WAL file size before the simulated crash.
    pub wal_bytes: u64,
    /// Committed transactions replayed on reopen (engine metric).
    pub recovered_txns: u64,
    /// WAL payload bytes replayed on reopen (engine metric).
    pub replayed_bytes: u64,
    /// Recovery wall time as self-reported by `Database::open` (engine metric).
    pub recovery_micros: u64,
    /// Externally timed reopen replaying the whole WAL.
    pub replay_ms: Millis,
    /// Externally timed reopen after a checkpoint truncated the WAL.
    pub snapshot_ms: Millis,
}

/// Recovery time vs WAL length: build a store of `n` committed inserts,
/// then time `Database::open` replaying the whole WAL, and again after a
/// checkpoint truncated the WAL to nothing (recovery = snapshot load).
pub fn wal_recovery(batch_sizes: &[usize]) -> Vec<WalRecoveryRow> {
    let mut rows = Vec::new();
    for &n in batch_sizes {
        let dir = scratch_dir();
        let mut db = xmlup_rdb::Database::open(&dir).expect("open");
        db.set_wal_sync(false);
        db.run_script(WAL_SCHEMA).expect("schema");
        insert_batch(&mut db, n);
        let wal_bytes = db.wal_size();
        drop(db); // a kill, not a clean close: recovery does the work
        let replay_ms = time_runs(
            RUNS,
            || dir.clone(),
            |d| {
                xmlup_rdb::Database::open(&*d).expect("reopen");
            },
        );
        let mut db = xmlup_rdb::Database::open(&dir).expect("reopen");
        let stats = db.stats();
        db.checkpoint().expect("checkpoint");
        drop(db);
        let snapshot_ms = time_runs(
            RUNS,
            || dir.clone(),
            |d| {
                xmlup_rdb::Database::open(&*d).expect("reopen");
            },
        );
        let _ = std::fs::remove_dir_all(&dir);
        rows.push(WalRecoveryRow {
            stmts: n,
            wal_bytes,
            recovered_txns: stats.recovered_txns,
            replayed_bytes: stats.wal_replayed_bytes,
            recovery_micros: stats.recovery_micros,
            replay_ms,
            snapshot_ms,
        });
    }
    rows
}

/// One rung of the tracing-overhead ladder for a given join size:
/// the same [`JOIN_QUERY`] timed with observability off, with span
/// tracing on, and under `EXPLAIN ANALYZE` (per-operator profiling).
#[derive(Debug, Clone)]
pub struct ObsLadderRow {
    /// Level-1 row count (lower levels get 4× each).
    pub n1: usize,
    /// Tracing disabled — the production configuration.
    pub off_ms: Millis,
    /// `obs::set_tracing(true)`: span events + phase histograms recorded.
    pub spans_ms: Millis,
    /// `EXPLAIN ANALYZE`: spans plus per-operator row/loop/time profiling.
    pub analyze_ms: Millis,
}

/// Measure the tracing-overhead ladder (off / spans-only /
/// spans+analyze) on the three-level reconstruction join. All rungs run
/// against the same warmed database so only the observability mode
/// varies.
pub fn obs_ladder(sizes: &[usize]) -> Vec<ObsLadderRow> {
    let mut rows = Vec::new();
    for &n in sizes {
        let db = three_level_join_db(n, false);
        db.query(JOIN_QUERY).expect("warm-up");
        xmlup_rdb::obs::set_tracing(false);
        let off_ms = time_runs(
            RUNS,
            || (),
            |_| {
                db.query(JOIN_QUERY).expect("query");
            },
        );
        xmlup_rdb::obs::set_tracing(true);
        let spans_ms = time_runs(
            RUNS,
            || (),
            |_| {
                db.query(JOIN_QUERY).expect("query");
            },
        );
        let analyze = format!("EXPLAIN ANALYZE {JOIN_QUERY}");
        let analyze_ms = time_runs(
            RUNS,
            || (),
            |_| {
                db.query(&analyze).expect("analyze");
            },
        );
        xmlup_rdb::obs::set_tracing(false);
        xmlup_rdb::obs::clear_trace();
        rows.push(ObsLadderRow {
            n1: n,
            off_ms,
            spans_ms,
            analyze_ms,
        });
    }
    rows
}

/// Print the tracing-overhead ladder with overhead percentages relative
/// to the off rung.
pub fn print_obs_ladder(rows: &[ObsLadderRow]) {
    println!("# Tracing overhead ladder: 3-way join, off / spans / spans+analyze");
    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "n1 rows", "off ms", "spans ms", "analyze ms", "spans %", "analyze %"
    );
    for r in rows {
        let pct = |x: Millis| (x / r.off_ms - 1.0) * 100.0;
        println!(
            "{:<8} {:>10.3} {:>10.3} {:>10.3} {:>8.2}% {:>8.2}%",
            r.n1,
            r.off_ms,
            r.spans_ms,
            r.analyze_ms,
            pct(r.spans_ms),
            pct(r.analyze_ms)
        );
    }
    println!();
}

/// The off-state overhead guard's measurement, decomposed so the bound
/// is deterministic rather than an A/B of two noisy wall-clock series.
#[derive(Debug, Clone)]
pub struct ObsOffOverhead {
    /// Cost of one inert span site (tracing off): a thread-local flag
    /// read plus construction of a no-op guard.
    pub ns_per_span: f64,
    /// Span sites actually executed by one [`JOIN_QUERY`] statement.
    pub spans_per_stmt: u64,
    /// Rows the statement scans (for the per-row normalization).
    pub rows_scanned: u64,
    /// Statement wall time, minimum over the measurement runs.
    pub query_ns: f64,
    /// `100 × ns_per_span × spans_per_stmt / query_ns` — the off-state
    /// instrumentation cost as a percentage of statement time.
    pub overhead_pct: f64,
}

/// Measure the observability off-state overhead on the joins benchmark
/// directly: time the inert [`xmlup_rdb::Span::enter`] path in a tight
/// loop, count the span sites one [`JOIN_QUERY`] execution passes
/// through, and divide by the statement's wall time (minimum over
/// `runs`, since interference only ever adds time). Unlike timing two
/// whole-statement series against each other, every term here is
/// either deterministic (site count) or a tight-loop nanobenchmark, so
/// the resulting bound does not flap with scheduler noise.
pub fn obs_off_overhead(n1: usize, runs: usize) -> ObsOffOverhead {
    use std::hint::black_box;
    xmlup_rdb::obs::set_tracing(false);
    // Inert-span cost: best of three 1M-iteration loops.
    let iters = 1_000_000u32;
    let mut ns_per_span = f64::INFINITY;
    for _ in 0..3 {
        let t = std::time::Instant::now();
        for _ in 0..iters {
            let s = xmlup_rdb::Span::enter(black_box("obs.guard"));
            black_box(&s);
        }
        ns_per_span = ns_per_span.min(t.elapsed().as_nanos() as f64 / f64::from(iters));
    }
    let db = three_level_join_db(n1, false);
    // Span sites per statement, counted from the first (cold) traced
    // execution — parse and plan spans included, which a plan-cache hit
    // would skip, so the count is conservative.
    xmlup_rdb::obs::clear_trace();
    xmlup_rdb::obs::set_tracing(true);
    db.query(JOIN_QUERY).expect("count spans");
    let spans_per_stmt = xmlup_rdb::obs::trace_events().len() as u64;
    xmlup_rdb::obs::set_tracing(false);
    xmlup_rdb::obs::clear_trace();
    for _ in 0..4 {
        db.query(JOIN_QUERY).expect("warm-up");
    }
    // Statement wall time with tracing off.
    let before = db.stats().rows_scanned;
    let mut query_ns = f64::INFINITY;
    for _ in 0..runs {
        let t = std::time::Instant::now();
        db.query(JOIN_QUERY).expect("query");
        query_ns = query_ns.min(t.elapsed().as_nanos() as f64);
    }
    let rows_scanned = (db.stats().rows_scanned - before) / runs.max(1) as u64;
    let overhead_pct = 100.0 * ns_per_span * spans_per_stmt as f64 / query_ns;
    ObsOffOverhead {
        ns_per_span,
        spans_per_stmt,
        rows_scanned,
        query_ns,
        overhead_pct,
    }
}

/// One point of the batched-translation × group-commit grid measured by
/// [`update_throughput`]: a random-delete workload against a durable
/// store, driven at a given translation batch size and WAL group-commit
/// window.
#[derive(Debug, Clone)]
pub struct ThroughputRow {
    /// Grid-point label.
    pub label: String,
    /// Rows folded per translated SQL statement.
    pub batch_size: usize,
    /// Commits per WAL fsync group.
    pub group_window: u64,
    /// Client SQL statements the workload issued.
    pub statements_issued: u64,
    /// Tuples removed (subtree roots plus descendants).
    pub rows_affected: usize,
    /// Workload wall time.
    pub elapsed_ms: Millis,
    /// Tuples removed per second of workload time.
    pub rows_per_sec: f64,
    /// Transactions committed by the workload.
    pub txn_commits: u64,
    /// WAL fsyncs the workload paid.
    pub wal_fsyncs: u64,
    /// Commits acknowledged per fsync (the group-commit amortization).
    pub commits_per_fsync: f64,
}

/// The 10×-scale random-update throughput figure: delete `ops` random
/// subtrees of a scale-`sf` document (10× the workload default on both
/// axes in the full configuration) against a durable, fsync-on store,
/// across the {per-tuple, batched} × {fsync-per-commit, group-commit}
/// grid. One transaction per translated batch, so the group-commit
/// window spans successive commits exactly as concurrent clients would.
///
/// Statement cost simulation is on ([`STATEMENT_COST_US`]), as in every
/// other experiment: the paper's statement-count trade-off is the effect
/// under measurement.
pub fn update_throughput(sf: usize, ops: usize) -> Vec<ThroughputRow> {
    use xmlup_shred::Mapping;
    use xmlup_workload::driver::pick_targets;
    const GRID: [(usize, u64, &str); 4] = [
        (1, 1, "per-tuple"),
        (256, 1, "batched"),
        (1, 16, "group-commit"),
        (256, 16, "batched+group"),
    ];
    let p = SyntheticParams::new(sf, 3, 2);
    let dtd = synthetic_dtd(p.depth);
    let doc = fixed_document(&p);
    let mut rows = Vec::new();
    for (batch, window, label) in GRID {
        let dir = scratch_dir();
        let mapping = Mapping::from_dtd(&dtd, "root").expect("mapping");
        let mut repo = XmlRepository::open_durable(
            dir.to_str().expect("utf-8 temp path"),
            mapping,
            RepoConfig {
                statement_cost_us: STATEMENT_COST_US,
                batch_size: batch,
                ..RepoConfig::default()
            },
        )
        .expect("open durable store");
        repo.db.set_wal_sync(true);
        repo.db.set_wal_group_commit(window);
        repo.load(&doc).expect("load");
        let rel = repo.mapping.relation_by_element("n1").expect("n1");
        let targets = pick_targets(
            &repo,
            rel,
            Workload::Random {
                count: ops,
                seed: 0xab1e,
            },
        );
        let before = repo.tuple_count();
        repo.reset_stats();
        let start = std::time::Instant::now();
        // One transaction — one commit — per translated batch, driven
        // from outside `delete_by_ids` (which would otherwise wrap every
        // chunk in a single transaction and hide the commit stream the
        // group-commit window amortizes).
        for chunk in targets.chunks(batch) {
            repo.delete_by_ids(rel, chunk).expect("batched delete");
        }
        // Release the final (possibly sub-window) group so every commit
        // is durably acknowledged before the clock stops.
        repo.db.wal_sync().expect("final group fsync");
        let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
        let stats = repo.stats();
        let rows_affected = before - repo.tuple_count();
        let rows_per_sec = rows_affected as f64 / (elapsed_ms / 1e3);
        let commits_per_fsync = stats.txn_commits as f64 / stats.wal_fsyncs.max(1) as f64;
        rows.push(ThroughputRow {
            label: label.into(),
            batch_size: batch,
            group_window: window,
            statements_issued: stats.client_statements,
            rows_affected,
            elapsed_ms,
            rows_per_sec,
            txn_commits: stats.txn_commits,
            wal_fsyncs: stats.wal_fsyncs,
            commits_per_fsync,
        });
        drop(repo);
        let _ = std::fs::remove_dir_all(&dir);
    }
    rows
}

/// Print the throughput grid with its two headline ratios.
pub fn print_throughput(rows: &[ThroughputRow]) {
    println!("# Random-update throughput: batched translation x group commit");
    println!(
        "{:<16} {:>6} {:>7} {:>8} {:>8} {:>10} {:>12} {:>8} {:>7} {:>14}",
        "config",
        "batch",
        "window",
        "stmts",
        "rows",
        "ms",
        "rows/sec",
        "commits",
        "fsyncs",
        "commits/fsync"
    );
    for r in rows {
        println!(
            "{:<16} {:>6} {:>7} {:>8} {:>8} {:>10.3} {:>12.0} {:>8} {:>7} {:>14.2}",
            r.label,
            r.batch_size,
            r.group_window,
            r.statements_issued,
            r.rows_affected,
            r.elapsed_ms,
            r.rows_per_sec,
            r.txn_commits,
            r.wal_fsyncs,
            r.commits_per_fsync
        );
    }
    let of = |label: &str| rows.iter().find(|r| r.label == label);
    if let (Some(pt), Some(b), Some(g)) = (of("per-tuple"), of("batched"), of("group-commit")) {
        println!(
            "# batched translation speedup (rows/sec, batch 256 vs 1): {:.2}x",
            b.rows_per_sec / pt.rows_per_sec
        );
        println!(
            "# group-commit amortization (commits/fsync, window 16 vs 1): {:.2}x",
            g.commits_per_fsync / pt.commits_per_fsync
        );
    }
    println!();
}

/// Write `BENCH_throughput.json` into `$BENCH_JSON_DIR` (if set): the
/// full grid with `rows_per_sec` and `commits_per_fsync` per point, plus
/// the two headline ratios, so the throughput trajectory is tracked
/// release over release.
pub fn emit_throughput_json(rows: &[ThroughputRow]) {
    let Ok(dir) = std::env::var("BENCH_JSON_DIR") else {
        return;
    };
    if dir.is_empty() {
        return;
    }
    let escape = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let points = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"label\":\"{}\",\"batch_size\":{},\"group_window\":{},\
                 \"statements_issued\":{},\"rows_affected\":{},\"elapsed_ms\":{:.6},\
                 \"rows_per_sec\":{:.3},\"txn_commits\":{},\"wal_fsyncs\":{},\
                 \"commits_per_fsync\":{:.4}}}",
                escape(&r.label),
                r.batch_size,
                r.group_window,
                r.statements_issued,
                r.rows_affected,
                r.elapsed_ms,
                r.rows_per_sec,
                r.txn_commits,
                r.wal_fsyncs,
                r.commits_per_fsync
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let of = |label: &str| rows.iter().find(|r| r.label == label);
    let (speedup, amortization) = match (of("per-tuple"), of("batched"), of("group-commit")) {
        (Some(pt), Some(b), Some(g)) => (
            b.rows_per_sec / pt.rows_per_sec,
            g.commits_per_fsync / pt.commits_per_fsync,
        ),
        _ => (0.0, 0.0),
    };
    let json = format!(
        "{{\"figure\":\"throughput\",\
         \"title\":\"Random-update throughput: batched translation x group commit\",\
         \"rows_per_sec_speedup\":{speedup:.4},\
         \"commits_per_fsync_gain\":{amortization:.4},\
         \"points\":[{points}]}}\n"
    );
    let path = std::path::Path::new(&dir).join("BENCH_throughput.json");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("paper-figures: failed to write {}: {e}", path.display());
    }
}

/// Write `BENCH_<tag>.json` into `$BENCH_JSON_DIR` (if set): the figure
/// name, axis labels, and every measured series point, for
/// machine-readable consumption alongside the printed tables.
pub fn emit_figure_json(tag: &str, fig: &Figure) {
    let Ok(dir) = std::env::var("BENCH_JSON_DIR") else {
        return;
    };
    if dir.is_empty() {
        return;
    }
    let escape = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let series = fig
        .series
        .iter()
        .map(|s| {
            let points = s
                .points
                .iter()
                .map(|(x, ms)| {
                    format!(
                        "{{\"x\":{x},\"time_ms\":{ms:.6},\"time_ns\":{}}}",
                        (ms * 1e6) as u64
                    )
                })
                .collect::<Vec<_>>()
                .join(",");
            format!(
                "{{\"label\":\"{}\",\"points\":[{points}]}}",
                escape(&s.label)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let json = format!(
        "{{\"figure\":\"{}\",\"title\":\"{}\",\"x_label\":\"{}\",\"series\":[{series}]}}\n",
        escape(tag),
        escape(&fig.title),
        escape(&fig.x_label)
    );
    let path = std::path::Path::new(&dir).join(format!("BENCH_{tag}.json"));
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("paper-figures: failed to write {}: {e}", path.display());
    }
}

/// Print the crash-recovery-time experiment. The txns/bytes/µs columns
/// are the engine's self-reported recovery metrics.
pub fn print_wal_recovery(rows: &[WalRecoveryRow]) {
    println!("# Recovery time vs WAL length (committed insert batches)");
    println!(
        "{:<8} {:>12} {:>10} {:>14} {:>12} {:>12} {:>14}",
        "stmts", "wal bytes", "txns", "replayed B", "recover µs", "replay ms", "snapshot ms"
    );
    for r in rows {
        println!(
            "{:<8} {:>12} {:>10} {:>14} {:>12} {:>12.3} {:>14.3}",
            r.stmts,
            r.wal_bytes,
            r.recovered_txns,
            r.replayed_bytes,
            r.recovery_micros,
            r.replay_ms,
            r.snapshot_ms
        );
    }
    println!();
}

// ----------------------------------------------------------------------
// concurrency: snapshot-read scaling under a churning writer
// ----------------------------------------------------------------------

/// One reader-count point of the concurrency experiment.
#[derive(Debug, Clone)]
pub struct ConcurrencyRow {
    /// Concurrent reader sessions.
    pub readers: usize,
    /// Wall-clock measurement window.
    pub elapsed_ms: Millis,
    /// Snapshot read transactions completed across all readers.
    pub reads: u64,
    /// Aggregate read transactions per second.
    pub reads_per_sec: f64,
    /// Snapshot-isolation violations observed (must be 0).
    pub violations: u64,
    /// Writer transactions committed during the window.
    pub writer_commits: u64,
}

/// Read-throughput scaling of the MVCC session layer: `reader_counts`
/// concurrent reader sessions against one churning writer, measured for
/// `window_ms` each.
///
/// The experiment reproduces the paper's client/server setting rather
/// than raw in-process scan bandwidth: every reader transaction pays
/// [`STATEMENT_COST_US`]-scale client latency (modeled with a sleep, as
/// in every other experiment's `statement_cost_us`), so aggregate
/// throughput scales with how many of those round-trip waits the engine
/// can overlap — which is precisely what conflict-free snapshot-reader
/// admission buys, and works on a single hardware thread (readers
/// overlap waits, not CPU). Each reader transaction BEGINs, counts the
/// table twice, and COMMITs; the writer deletes and reinserts rows in
/// explicit transactions that preserve the total count, so *any* reader
/// observing a non-baseline or unstable count is a snapshot-isolation
/// violation.
pub fn concurrency_scaling(reader_counts: &[usize], window_ms: u64) -> Vec<ConcurrencyRow> {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use xmlup_rdb::session::SqlOutcome;
    use xmlup_rdb::{Database, SharedDatabase};

    const ROWS: i64 = 256;
    let mut db = Database::new();
    db.run_script(
        "CREATE TABLE t (id INTEGER, grp INTEGER, v VARCHAR(16)); CREATE INDEX t_id ON t (id);",
    )
    .unwrap();
    for chunk in (0..ROWS).collect::<Vec<_>>().chunks(64) {
        let vals: Vec<String> = chunk
            .iter()
            .map(|i| format!("({i}, {}, 'v{i}')", i % 4))
            .collect();
        db.execute(&format!("INSERT INTO t VALUES {}", vals.join(", ")))
            .unwrap();
    }
    let shared = SharedDatabase::new(db);

    let count = |sess: &mut xmlup_rdb::Session, sql: &str| -> i64 {
        match sess.execute(sql).unwrap() {
            SqlOutcome::Rows(rs) => rs.rows[0][0].as_int().unwrap(),
            _ => -1,
        }
    };

    let mut out = Vec::new();
    for &n in reader_counts {
        let stop = Arc::new(AtomicBool::new(false));
        let reads = Arc::new(AtomicU64::new(0));
        let violations = Arc::new(AtomicU64::new(0));
        let writer_commits = Arc::new(AtomicU64::new(0));

        let writer = {
            let shared = shared.clone();
            let stop = stop.clone();
            let commits = writer_commits.clone();
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let mut sess = shared.session();
                    let id = (i % ROWS as u64) as i64;
                    sess.execute("BEGIN").unwrap();
                    sess.execute(&format!("DELETE FROM t WHERE id = {id}"))
                        .unwrap();
                    sess.execute(&format!("INSERT INTO t VALUES ({id}, {}, 'w{i}')", id % 4))
                        .unwrap();
                    sess.execute("COMMIT").unwrap();
                    commits.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                    // The writer is also a remote client: one round-trip
                    // of think time between transactions.
                    std::thread::sleep(std::time::Duration::from_micros(5 * STATEMENT_COST_US));
                }
            })
        };

        let start = std::time::Instant::now();
        let deadline = start + std::time::Duration::from_millis(window_ms);
        let mut handles = Vec::new();
        for r in 0..n {
            let shared = shared.clone();
            let reads = reads.clone();
            let violations = violations.clone();
            handles.push(std::thread::spawn(move || {
                let mut k = r as i64;
                while std::time::Instant::now() < deadline {
                    let mut sess = shared.session();
                    sess.execute("BEGIN").unwrap();
                    let a = count(&mut sess, "SELECT COUNT(*) FROM t");
                    k = (k + 7) % ROWS;
                    let point = count(&mut sess, &format!("SELECT COUNT(*) FROM t WHERE id = {k}"));
                    let b = count(&mut sess, "SELECT COUNT(*) FROM t");
                    sess.execute("COMMIT").unwrap();
                    if a != ROWS || b != ROWS || point != 1 {
                        violations.fetch_add(1, Ordering::Relaxed);
                    }
                    reads.fetch_add(1, Ordering::Relaxed);
                    // Client round-trip latency per transaction (the
                    // statement_cost model of every other experiment).
                    std::thread::sleep(std::time::Duration::from_micros(5 * STATEMENT_COST_US));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();

        let total = reads.load(Ordering::Relaxed);
        out.push(ConcurrencyRow {
            readers: n,
            elapsed_ms: elapsed,
            reads: total,
            reads_per_sec: total as f64 / (elapsed / 1e3),
            violations: violations.load(Ordering::Relaxed),
            writer_commits: writer_commits.load(Ordering::Relaxed),
        });
    }
    out
}

/// Print the concurrency-scaling experiment.
pub fn print_concurrency(rows: &[ConcurrencyRow]) {
    println!("# Snapshot-read scaling vs concurrent reader sessions (one churning writer)");
    println!(
        "{:<8} {:>12} {:>10} {:>14} {:>10} {:>12} {:>14}",
        "readers", "elapsed_ms", "reads", "reads_per_sec", "scaling", "violations", "writer_txns"
    );
    let base = rows.first().map(|r| r.reads_per_sec).unwrap_or(0.0);
    for r in rows {
        println!(
            "{:<8} {:>12.1} {:>10} {:>14.1} {:>9.2}x {:>12} {:>14}",
            r.readers,
            r.elapsed_ms,
            r.reads,
            r.reads_per_sec,
            if base > 0.0 {
                r.reads_per_sec / base
            } else {
                0.0
            },
            r.violations,
            r.writer_commits
        );
    }
    println!();
}

/// Write `BENCH_concurrency.json` into `$BENCH_JSON_DIR` (if set): every
/// reader-count point plus the headline scaling ratio (throughput at the
/// widest point over single-reader) and the total violation count.
pub fn emit_concurrency_json(rows: &[ConcurrencyRow]) {
    let Ok(dir) = std::env::var("BENCH_JSON_DIR") else {
        return;
    };
    if dir.is_empty() {
        return;
    }
    let points = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"readers\":{},\"elapsed_ms\":{:.3},\"reads\":{},\
                 \"reads_per_sec\":{:.3},\"violations\":{},\"writer_commits\":{}}}",
                r.readers, r.elapsed_ms, r.reads, r.reads_per_sec, r.violations, r.writer_commits
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let scaling = match (rows.first(), rows.last()) {
        (Some(a), Some(b)) if a.reads_per_sec > 0.0 => b.reads_per_sec / a.reads_per_sec,
        _ => 0.0,
    };
    let violations: u64 = rows.iter().map(|r| r.violations).sum();
    let json = format!(
        "{{\"figure\":\"concurrency\",\
         \"title\":\"Snapshot-read throughput vs concurrent reader sessions\",\
         \"read_scaling\":{scaling:.4},\
         \"violations\":{violations},\
         \"points\":[{points}]}}\n"
    );
    let path = std::path::Path::new(&dir).join("BENCH_concurrency.json");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("paper-figures: failed to write {}: {e}", path.display());
    }
}

// ----------------------------------------------------------------------
// storage-engine: paged backend — incremental checkpoints, buffer pool,
// recovery (ISSUE: paged storage engine behind `StorageBackend`)
// ----------------------------------------------------------------------

/// One churn point of the checkpoint experiment: the same update batch
/// checkpointed by the full-snapshot memory backend and by the paged
/// backend's incremental dirty-page flush.
#[derive(Debug, Clone)]
pub struct StorageCheckpointRow {
    /// Fraction of `n1` rows updated between checkpoints.
    pub dirty_fraction: f64,
    /// Full-snapshot checkpoint time (memory backend).
    pub full_ms: Millis,
    /// Incremental checkpoint time (paged backend).
    pub incr_ms: Millis,
    /// Pages written per full checkpoint.
    pub full_pages: u64,
    /// Pages written per incremental checkpoint.
    pub incr_pages: u64,
    /// Bytes written per full checkpoint.
    pub full_bytes: u64,
    /// Bytes written per incremental checkpoint.
    pub incr_bytes: u64,
}

/// One buffer-pool budget point: scan and point-read cost with hit/miss
/// counters, pool smaller (or larger) than the dataset.
#[derive(Debug, Clone)]
pub struct StoragePoolRow {
    /// Buffer-pool frame budget.
    pub pool_frames: usize,
    /// Pages the store has allocated (the dataset size in pages).
    pub pages_allocated: u64,
    /// Total time for the update batch, its commit included.
    pub update_ms: Millis,
    /// Time for the checkpoint that follows the batch.
    pub checkpoint_ms: Millis,
    /// Pool hits over the batch and the checkpoint.
    pub hits: u64,
    /// Pool misses (page loads from disk).
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Dirty frames written back on eviction.
    pub writebacks: u64,
}

/// One recovery point: reopen time after a random-update run was killed,
/// per backend. Both stores checkpointed mid-run, so recovery composes
/// the checkpoint image with the post-checkpoint WAL suffix.
#[derive(Debug, Clone)]
pub struct StorageRecoveryRow {
    /// Backend label (`memory` / `paged`).
    pub backend: String,
    /// Random updates executed before the kill.
    pub updates: usize,
    /// WAL bytes left to replay at reopen.
    pub wal_bytes: u64,
    /// Committed transactions replayed during recovery.
    pub recovered_txns: u64,
    /// Wall-clock reopen (recovery) time.
    pub recovery_ms: Millis,
}

/// The whole storage-engine experiment.
#[derive(Debug, Clone)]
pub struct StorageEngineReport {
    /// Checkpoint cost vs dirty fraction.
    pub checkpoints: Vec<StorageCheckpointRow>,
    /// Update + checkpoint cost vs pool budget.
    pub pool: Vec<StoragePoolRow>,
    /// Recovery time per backend.
    pub recovery: Vec<StorageRecoveryRow>,
}

fn storage_repo(
    dir: &std::path::Path,
    backend: xmlup_rdb::BackendKind,
    pool_frames: usize,
    sf: usize,
) -> XmlRepository {
    use xmlup_shred::Mapping;
    let p = SyntheticParams::new(sf, 3, 2);
    let dtd = synthetic_dtd(p.depth);
    let mapping = Mapping::from_dtd(&dtd, "root").unwrap();
    let cfg = RepoConfig {
        backend,
        pool_frames,
        statement_cost_us: 0,
        ..RepoConfig::default()
    };
    let mut repo = XmlRepository::open_durable(dir, mapping, cfg).expect("open durable store");
    if repo.tuple_count() == 0 {
        repo.load(&fixed_document(&p)).expect("load");
    }
    repo
}

fn n1_ids(repo: &XmlRepository) -> Vec<i64> {
    repo.db
        .query("SELECT id FROM n1 ORDER BY id")
        .unwrap()
        .rows
        .iter()
        .filter_map(|r| r[0].as_int())
        .collect()
}

/// Checkpoint cost vs dirty fraction: dirty `frac` of the `n1` rows,
/// checkpoint, repeat 2·[`RUNS`]+1 times (first discarded, minimum
/// reported — checkpoint cost is fsync-bound and the noise is strictly
/// additive stall time, so the minimum is the estimator of the actual
/// write cost). The memory backend rewrites the whole snapshot every
/// time; the paged backend flushes only the pages the updates touched.
pub fn storage_checkpoints(sf: usize, fractions: &[f64]) -> Vec<StorageCheckpointRow> {
    use xmlup_rdb::BackendKind;
    let mut rows = Vec::new();
    for &frac in fractions {
        let mut per_backend = Vec::new();
        for backend in [BackendKind::Memory, BackendKind::Paged] {
            let dir = scratch_dir();
            let mut repo = storage_repo(&dir, backend, 4096, sf);
            let ids = n1_ids(&repo);
            let k = ((ids.len() as f64 * frac).ceil() as usize).clamp(1, ids.len());
            // Settle: the first checkpoint absorbs the load itself.
            repo.checkpoint().unwrap();
            let mut times = Vec::new();
            let (mut pages, mut bytes) = (0u64, 0u64);
            let runs = 2 * RUNS;
            for run in 0..=runs {
                for (j, id) in ids[..k].iter().enumerate() {
                    repo.db
                        .execute(&format!("UPDATE n1 SET str = 'd{run}x{j}' WHERE id = {id}"))
                        .unwrap();
                }
                let s0 = repo.db.stats();
                let t = std::time::Instant::now();
                repo.checkpoint().unwrap();
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let s1 = repo.db.stats();
                if run > 0 {
                    times.push(ms);
                    pages += s1.checkpoint_pages_written - s0.checkpoint_pages_written;
                    bytes += s1.checkpoint_bytes_written - s0.checkpoint_bytes_written;
                }
            }
            repo.close_durable().unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            let best = times.iter().copied().fold(f64::INFINITY, f64::min);
            let n = runs as u64;
            per_backend.push((best, pages / n, bytes / n));
        }
        let (full, incr) = (per_backend[0], per_backend[1]);
        rows.push(StorageCheckpointRow {
            dirty_fraction: frac,
            full_ms: full.0,
            incr_ms: incr.0,
            full_pages: full.1,
            incr_pages: incr.1,
            full_bytes: full.2,
            incr_bytes: incr.2,
        });
    }
    rows
}

/// Write-path cost at different pool budgets over the same paged
/// dataset. Reads never touch the pool (rows are served from the
/// in-memory heap); the pages take the mirror writes. Per budget: one
/// transaction of `UPDATES` `n1` updates spread over the table, each
/// mirrored into its B-tree leaf, then one checkpoint. Small pools
/// thrash — the mirror writes miss, evict and write dirty frames back
/// before the checkpoint — while a pool that holds the touched pages
/// absorbs the batch and leaves the flush to the checkpoint.
pub fn storage_pool_sweep(sf: usize, frames: &[usize]) -> Vec<StoragePoolRow> {
    use xmlup_rdb::BackendKind;
    const UPDATES: usize = 400;
    let mut rows = Vec::new();
    for &fr in frames {
        let dir = scratch_dir();
        let mut repo = storage_repo(&dir, BackendKind::Paged, fr, sf);
        let ids = n1_ids(&repo);
        // Settle: the first checkpoint absorbs the load itself.
        repo.checkpoint().unwrap();
        let m0 = repo.db.storage_metrics();
        let t = std::time::Instant::now();
        repo.db.execute("BEGIN").unwrap();
        for i in 0..UPDATES {
            let id = ids[(i * 7) % ids.len()];
            repo.db
                .execute(&format!("UPDATE n1 SET str = 'p{i}' WHERE id = {id}"))
                .unwrap();
        }
        repo.db.execute("COMMIT").unwrap();
        let update_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = std::time::Instant::now();
        repo.checkpoint().unwrap();
        let checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
        let m1 = repo.db.storage_metrics();
        rows.push(StoragePoolRow {
            pool_frames: fr,
            pages_allocated: m1.pages_allocated,
            update_ms,
            checkpoint_ms,
            hits: m1.pool.hits - m0.pool.hits,
            misses: m1.pool.misses - m0.pool.misses,
            evictions: m1.pool.evictions - m0.pool.evictions,
            writebacks: m1.pool.writebacks - m0.pool.writebacks,
        });
        repo.close_durable().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
    rows
}

/// Recovery time after a killed random-update run, per backend: run
/// `updates` updates, checkpoint halfway, run the rest, kill (drop), and
/// time the reopen. The paged store restores table images straight from
/// its page file and replays only the post-checkpoint WAL suffix.
pub fn storage_recovery(sf: usize, updates: usize) -> Vec<StorageRecoveryRow> {
    use xmlup_rdb::BackendKind;
    let mut rows = Vec::new();
    for backend in [BackendKind::Memory, BackendKind::Paged] {
        let dir = scratch_dir();
        {
            let mut repo = storage_repo(&dir, backend, 4096, sf);
            let ids = n1_ids(&repo);
            for i in 0..updates {
                let id = ids[(i * 7) % ids.len()];
                repo.db
                    .execute(&format!("UPDATE n1 SET str = 'r{i}' WHERE id = {id}"))
                    .unwrap();
                if i == updates / 2 {
                    repo.checkpoint().unwrap();
                }
            }
            // Kill: drop without close.
        }
        let recovery_ms = time_runs(
            RUNS,
            || dir.clone(),
            |d| {
                drop(storage_repo(d, backend, 4096, sf));
            },
        );
        let repo = storage_repo(&dir, backend, 4096, sf);
        let stats = repo.db.stats();
        let wal_bytes = repo.db.wal_size();
        drop(repo);
        let _ = std::fs::remove_dir_all(&dir);
        rows.push(StorageRecoveryRow {
            backend: backend.to_string(),
            updates,
            wal_bytes,
            recovered_txns: stats.recovered_txns,
            recovery_ms,
        });
    }
    rows
}

/// Run the full storage-engine experiment at `sf` (the paper workloads'
/// 10×-scale point by default).
pub fn storage_engine(sf: usize) -> StorageEngineReport {
    StorageEngineReport {
        checkpoints: storage_checkpoints(sf, &[0.01, 0.05, 0.10, 0.25, 1.0]),
        pool: storage_pool_sweep(sf, &[8, 32, 128, 512, 4096]),
        recovery: storage_recovery(sf, 500),
    }
}

/// Print the storage-engine experiment in the figure layout.
pub fn print_storage_engine(r: &StorageEngineReport) {
    println!("# Paged storage engine: incremental vs full-snapshot checkpoints");
    println!(
        "{:<8} {:>10} {:>10} {:>12} {:>12} {:>12} {:>12} {:>9}",
        "dirty",
        "full ms",
        "incr ms",
        "full pages",
        "incr pages",
        "full bytes",
        "incr bytes",
        "speedup"
    );
    for c in &r.checkpoints {
        let speedup = if c.incr_ms > 0.0 {
            c.full_ms / c.incr_ms
        } else {
            0.0
        };
        println!(
            "{:<8.2} {:>10.3} {:>10.3} {:>12} {:>12} {:>12} {:>12} {:>8.1}x",
            c.dirty_fraction,
            c.full_ms,
            c.incr_ms,
            c.full_pages,
            c.incr_pages,
            c.full_bytes,
            c.incr_bytes,
            speedup
        );
    }
    println!();
    println!("# Buffer pool: update batch + checkpoint cost vs frame budget");
    println!(
        "{:<8} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9}",
        "frames",
        "pages",
        "update ms",
        "ckpt ms",
        "hits",
        "misses",
        "evicted",
        "written",
        "hit rate"
    );
    for p in &r.pool {
        let total = p.hits + p.misses;
        let rate = if total > 0 {
            p.hits as f64 / total as f64
        } else {
            0.0
        };
        println!(
            "{:<8} {:>8} {:>10.3} {:>10.3} {:>10} {:>10} {:>10} {:>10} {:>8.1}%",
            p.pool_frames,
            p.pages_allocated,
            p.update_ms,
            p.checkpoint_ms,
            p.hits,
            p.misses,
            p.evictions,
            p.writebacks,
            rate * 100.0
        );
    }
    println!();
    println!("# Recovery after a killed random-update run (checkpoint at 50%)");
    println!(
        "{:<10} {:>8} {:>12} {:>10} {:>12}",
        "backend", "updates", "wal bytes", "txns", "recover ms"
    );
    for rec in &r.recovery {
        println!(
            "{:<10} {:>8} {:>12} {:>10} {:>12.3}",
            rec.backend, rec.updates, rec.wal_bytes, rec.recovered_txns, rec.recovery_ms
        );
    }
    println!();
}

/// Write `BENCH_storage.json` into `$BENCH_JSON_DIR` (if set).
pub fn emit_storage_engine_json(r: &StorageEngineReport) {
    let Ok(dir) = std::env::var("BENCH_JSON_DIR") else {
        return;
    };
    if dir.is_empty() {
        return;
    }
    let checkpoints = r
        .checkpoints
        .iter()
        .map(|c| {
            format!(
                "{{\"dirty_fraction\":{:.4},\"full_ms\":{:.6},\"incremental_ms\":{:.6},\
                 \"full_pages\":{},\"incremental_pages\":{},\
                 \"full_bytes\":{},\"incremental_bytes\":{},\"speedup\":{:.4}}}",
                c.dirty_fraction,
                c.full_ms,
                c.incr_ms,
                c.full_pages,
                c.incr_pages,
                c.full_bytes,
                c.incr_bytes,
                if c.incr_ms > 0.0 {
                    c.full_ms / c.incr_ms
                } else {
                    0.0
                }
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let pool = r
        .pool
        .iter()
        .map(|p| {
            let total = p.hits + p.misses;
            format!(
                "{{\"pool_frames\":{},\"pages_allocated\":{},\"update_ms\":{:.6},\
                 \"checkpoint_ms\":{:.6},\"hits\":{},\"misses\":{},\"evictions\":{},\
                 \"writebacks\":{},\"hit_rate\":{:.4}}}",
                p.pool_frames,
                p.pages_allocated,
                p.update_ms,
                p.checkpoint_ms,
                p.hits,
                p.misses,
                p.evictions,
                p.writebacks,
                if total > 0 {
                    p.hits as f64 / total as f64
                } else {
                    0.0
                }
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let recovery = r
        .recovery
        .iter()
        .map(|rec| {
            format!(
                "{{\"backend\":\"{}\",\"updates\":{},\"wal_bytes\":{},\
                 \"recovered_txns\":{},\"recovery_ms\":{:.6}}}",
                rec.backend, rec.updates, rec.wal_bytes, rec.recovered_txns, rec.recovery_ms
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    // Headline number for the acceptance check: incremental speedup at
    // the ≤10% churn point.
    let at_10 = r
        .checkpoints
        .iter()
        .filter(|c| c.dirty_fraction <= 0.10 + 1e-9 && c.incr_ms > 0.0)
        .map(|c| c.full_ms / c.incr_ms)
        .fold(0.0f64, f64::max);
    let json = format!(
        "{{\"figure\":\"storage\",\
         \"title\":\"Paged storage engine: incremental checkpoints, buffer pool, recovery\",\
         \"incremental_speedup_at_10pct_churn\":{at_10:.4},\
         \"checkpoints\":[{checkpoints}],\
         \"pool\":[{pool}],\
         \"recovery\":[{recovery}]}}\n"
    );
    let path = std::path::Path::new(&dir).join("BENCH_storage.json");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("paper-figures: failed to write {}: {e}", path.display());
    }
}

// ----------------------------------------------------------------------
// sysview: statement-tracking overhead and system-view query cost
// (ISSUE: SQL-queryable system views, per-statement statistics)
// ----------------------------------------------------------------------

/// One rung of the statement-tracking ladder: the three-level
/// reconstruction join timed with per-statement tracking off and on,
/// plus the cost of reading the accumulated statistics back *through
/// the SQL pipeline* (`rdb_statements` with ORDER BY + LIMIT).
#[derive(Debug, Clone)]
pub struct SysviewLadderRow {
    /// Level-1 row count (lower levels get 4× each).
    pub n1: usize,
    /// Tracking disabled — the default configuration.
    pub off_ms: Millis,
    /// Tracking enabled: fingerprint + statement-store update per
    /// statement.
    pub on_ms: Millis,
    /// `SELECT … FROM rdb_statements ORDER BY total_us DESC LIMIT 5` —
    /// a system-view scan composed with sort and limit operators.
    pub view_ms: Millis,
    /// Distinct fingerprints tracked at the end of the rung.
    pub tracked: u64,
}

/// Measure the statement-tracking ladder on the reconstruction join.
/// Both rungs run against the same warmed database so only the tracking
/// switch varies; the view rung then queries the statistics the on-rung
/// just produced.
pub fn sysview_ladder(sizes: &[usize]) -> Vec<SysviewLadderRow> {
    const VIEW_QUERY: &str =
        "SELECT sql, calls, mean_us FROM rdb_statements ORDER BY total_us DESC LIMIT 5";
    let mut rows = Vec::new();
    for &n in sizes {
        let db = three_level_join_db(n, false);
        db.query(JOIN_QUERY).expect("warm-up");
        db.set_statement_tracking(false);
        let off_ms = time_runs(
            RUNS,
            || (),
            |_| {
                db.query(JOIN_QUERY).expect("query");
            },
        );
        db.set_statement_tracking(true);
        let on_ms = time_runs(
            RUNS,
            || (),
            |_| {
                db.query(JOIN_QUERY).expect("query");
            },
        );
        let view_ms = time_runs(
            RUNS,
            || (),
            |_| {
                db.query(VIEW_QUERY).expect("view query");
            },
        );
        let tracked = db.statement_statistics().len() as u64;
        db.set_statement_tracking(false);
        rows.push(SysviewLadderRow {
            n1: n,
            off_ms,
            on_ms,
            view_ms,
            tracked,
        });
    }
    rows
}

/// Print the statement-tracking ladder with the on-rung overhead
/// relative to off.
pub fn print_sysview_ladder(rows: &[SysviewLadderRow]) {
    println!("# Statement tracking: 3-way join off / on, plus rdb_statements query cost");
    println!(
        "{:<8} {:>10} {:>10} {:>9} {:>10} {:>8}",
        "n1 rows", "off ms", "on ms", "track %", "view ms", "tracked"
    );
    for r in rows {
        let pct = if r.off_ms > 0.0 {
            (r.on_ms / r.off_ms - 1.0) * 100.0
        } else {
            0.0
        };
        println!(
            "{:<8} {:>10.3} {:>10.3} {:>8.2}% {:>10.3} {:>8}",
            r.n1, r.off_ms, r.on_ms, pct, r.view_ms, r.tracked
        );
    }
    println!();
}

/// The statement-tracking overhead guard's measurement, decomposed the
/// same way as [`ObsOffOverhead`] so the bound is deterministic: the
/// per-statement tracking cost is the delta of two tight-loop
/// point-query batches (minimum over rounds, so scheduler noise — which
/// only ever adds time — cancels out of the subtraction), divided by
/// the joins statement's wall time.
#[derive(Debug, Clone)]
pub struct StatementTrackingOverhead {
    /// Nanoseconds per point query, tracking off (batch minimum).
    pub ns_per_stmt_off: f64,
    /// Nanoseconds per point query, tracking on (batch minimum).
    pub ns_per_stmt_on: f64,
    /// Per-statement tracking cost: `max(0, on − off)`.
    pub ns_tracking: f64,
    /// Joins statement wall time, minimum over the measurement runs.
    pub query_ns: f64,
    /// `100 × ns_tracking / query_ns` — tracking cost as a percentage
    /// of the benchmark statement's time.
    pub overhead_pct: f64,
}

/// Measure the per-statement tracking cost against the joins benchmark.
/// The probe is a plan-cache-hitting point query repeated in a tight
/// batch, so the off/on delta isolates exactly the tracking tail
/// (fingerprint resolution via the plan slot's cache plus one
/// statement-store update) rather than comparing two noisy
/// whole-statement series.
pub fn statement_tracking_overhead(n1: usize, runs: usize) -> StatementTrackingOverhead {
    use std::hint::black_box;
    const PROBE: &str = "SELECT id FROM n1 WHERE id = 1";
    const BATCH: u32 = 4_000;
    const ROUNDS: usize = 5;
    let db = three_level_join_db(n1, false);
    let per_stmt = |db: &xmlup_rdb::Database| -> f64 {
        db.query(PROBE).expect("probe warm-up");
        let mut best = f64::INFINITY;
        for _ in 0..ROUNDS {
            let t = std::time::Instant::now();
            for _ in 0..BATCH {
                black_box(db.query(black_box(PROBE)).expect("probe"));
            }
            best = best.min(t.elapsed().as_nanos() as f64 / f64::from(BATCH));
        }
        best
    };
    db.set_statement_tracking(false);
    let ns_per_stmt_off = per_stmt(&db);
    db.set_statement_tracking(true);
    let ns_per_stmt_on = per_stmt(&db);
    db.set_statement_tracking(false);
    let ns_tracking = (ns_per_stmt_on - ns_per_stmt_off).max(0.0);
    for _ in 0..4 {
        db.query(JOIN_QUERY).expect("warm-up");
    }
    let mut query_ns = f64::INFINITY;
    for _ in 0..runs {
        let t = std::time::Instant::now();
        db.query(JOIN_QUERY).expect("query");
        query_ns = query_ns.min(t.elapsed().as_nanos() as f64);
    }
    let overhead_pct = 100.0 * ns_tracking / query_ns;
    StatementTrackingOverhead {
        ns_per_stmt_off,
        ns_per_stmt_on,
        ns_tracking,
        query_ns,
        overhead_pct,
    }
}

/// Write `BENCH_observability.json` into `$BENCH_JSON_DIR` (if set):
/// every ladder rung plus the headline tracking-overhead percentage at
/// the widest rung.
pub fn emit_sysview_json(rows: &[SysviewLadderRow], guard: &StatementTrackingOverhead) {
    let Ok(dir) = std::env::var("BENCH_JSON_DIR") else {
        return;
    };
    if dir.is_empty() {
        return;
    }
    let points = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"n1\":{},\"off_ms\":{:.6},\"on_ms\":{:.6},\
                 \"overhead_pct\":{:.4},\"view_ms\":{:.6},\"tracked\":{}}}",
                r.n1,
                r.off_ms,
                r.on_ms,
                if r.off_ms > 0.0 {
                    (r.on_ms / r.off_ms - 1.0) * 100.0
                } else {
                    0.0
                },
                r.view_ms,
                r.tracked
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let json = format!(
        "{{\"figure\":\"observability\",\
         \"title\":\"Statement tracking overhead and system-view query cost\",\
         \"tracking_ns_per_stmt\":{:.4},\
         \"tracking_overhead_pct\":{:.4},\
         \"points\":[{points}]}}\n",
        guard.ns_tracking, guard.overhead_pct
    );
    let path = std::path::Path::new(&dir).join("BENCH_observability.json");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("paper-figures: failed to write {}: {e}", path.display());
    }
}

/// One row of [`fetch_join_paths`].
#[derive(Debug, Clone)]
pub struct FetchJoinRow {
    /// Store and document measured.
    pub case: &'static str,
    /// Median whole-document fetch time with index nested-loop joins.
    pub index_ms: Millis,
    /// Median whole-document fetch time with hash joins.
    pub hash_ms: Millis,
    /// Index lookups per fetch on the index-join path.
    pub index_lookups: u64,
    /// Rows scanned per fetch on the index-join path.
    pub index_rows: u64,
    /// Rows scanned per fetch on the hash-join path.
    pub hash_rows: u64,
}

/// Whole-document Sorted Outer Union fetch, `fetch(root, None)`: the
/// largest outer side the fetch produces, since every level joins the
/// whole parent level. The index nested-loop join (default planner) is
/// timed against the hash join it replaced. Naive planner mode always
/// hash-joins and, with no filter in the fetch, changes nothing else; the
/// printed rows-scanned counts show both paths touch the same rows. Two
/// stores: the synthetic document of the `synth-query` benchmark
/// workload (d4/f4/sf200) in memory, and 100 DBLP conferences on the
/// paged backend with a 64-frame pool, where every probed row is read
/// through the buffer pool. Modes alternate run by run; each time is the
/// median of `runs`. No simulated statement cost.
pub fn fetch_join_paths(runs: usize) -> Vec<FetchJoinRow> {
    use xmlup_shred::Mapping;
    fn measure(case: &'static str, repo: &mut XmlRepository, runs: usize) -> FetchJoinRow {
        let root = repo.mapping.root();
        let mut times = [Vec::new(), Vec::new()];
        let mut counts = [(0, 0), (0, 0)];
        for _ in 0..=runs {
            for (mode, naive) in [false, true].into_iter().enumerate() {
                repo.db.set_planner_naive(naive);
                let before = repo.stats();
                let start = std::time::Instant::now();
                repo.fetch(root, None).expect("fetch");
                times[mode].push(start.elapsed().as_secs_f64() * 1e3);
                let after = repo.stats();
                counts[mode] = (
                    after.index_lookups - before.index_lookups,
                    after.rows_scanned - before.rows_scanned,
                );
            }
        }
        repo.db.set_planner_naive(false);
        let median = |t: &mut Vec<Millis>| {
            t.remove(0);
            t.sort_by(f64::total_cmp);
            t[t.len() / 2]
        };
        FetchJoinRow {
            case,
            index_ms: median(&mut times[0]),
            hash_ms: median(&mut times[1]),
            index_lookups: counts[0].0,
            index_rows: counts[0].1,
            hash_rows: counts[1].1,
        }
    }
    let cfg = RepoConfig {
        statement_cost_us: 0,
        ..RepoConfig::default()
    };
    let p = SyntheticParams::new(200, 4, 4);
    let mut mem = XmlRepository::new(&synthetic_dtd(p.depth), "root", cfg).expect("schema builds");
    mem.load(&fixed_document(&p)).expect("document loads");
    let mut rows = vec![measure("synth d4/f4/sf200, memory", &mut mem, runs)];

    let dir = scratch_dir();
    let mapping = Mapping::from_dtd(&dblp_dtd(), "dblp").expect("DBLP DTD maps");
    let paged_cfg = RepoConfig {
        backend: xmlup_rdb::BackendKind::Paged,
        pool_frames: 64,
        ..cfg
    };
    let mut paged = XmlRepository::open_durable(&dir, mapping, paged_cfg).expect("open store");
    paged
        .load(&dblp_document(&DblpParams {
            conferences: 100,
            ..DblpParams::default()
        }))
        .expect("document loads");
    paged.checkpoint().expect("checkpoint");
    rows.push(measure("DBLP 100 conf, paged, 64 frames", &mut paged, runs));
    drop(paged);
    let _ = std::fs::remove_dir_all(&dir);
    rows
}

/// Print [`fetch_join_paths`].
pub fn print_fetch_join_paths(rows: &[FetchJoinRow]) {
    println!("# Whole-document outer-union fetch: index nested-loop join vs hash join (median ms)");
    println!(
        "{:<34} {:>10} {:>10} {:>9} {:>12} {:>12}",
        "store", "index", "hash", "lookups", "rows(index)", "rows(hash)"
    );
    for r in rows {
        println!(
            "{:<34} {:>10.2} {:>10.2} {:>9} {:>12} {:>12}",
            r.case, r.index_ms, r.hash_ms, r.index_lookups, r.index_rows, r.hash_rows
        );
    }
    println!();
}
