//! Regenerate the tables and figures of *Updating XML* (SIGMOD 2001).
//!
//! ```text
//! paper-figures [all|table1|fig6|fig7|fig8|fig9|fig10|fig11|table2|asr-paths|randomized|ordered|storage|plan-cache|planner|txn|wal|throughput|obs|sysview|obs-overhead|fetch]
//!               [--full]
//! ```
//!
//! Default parameter ranges are trimmed so the whole suite runs in a few
//! minutes; `--full` uses the paper's complete ranges (scaling factors to
//! 1000, depths to 6).
//!
//! When `BENCH_JSON_DIR` is set, every figure additionally writes a
//! machine-readable `BENCH_<figure>.json` file into that directory.
//!
//! `obs` measures the tracing-overhead ladder (off / spans-only /
//! spans+analyze); `sysview` measures the statement-tracking ladder
//! (off / on, plus the cost of querying `rdb_statements` through the
//! SQL pipeline) and emits `BENCH_observability.json`. `obs-overhead`
//! is the CI guard: it exits nonzero if the observability off-state
//! costs more than 2% on the joins benchmark, or if per-statement
//! tracking costs more than 2% of the same statement's time.
//! `obs-overhead` runs only when named explicitly, never under `all`.

use xmlup_bench::experiments as exp;
use xmlup_workload::dblp::DblpParams;
use xmlup_workload::Workload;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let what = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_string());

    let scaling: Vec<usize> = if full {
        vec![100, 200, 400, 600, 800, 1000]
    } else {
        vec![100, 200, 400, 800]
    };
    let depths: Vec<usize> = if full {
        vec![1, 2, 3, 4, 5, 6]
    } else {
        vec![2, 3, 4, 5]
    };
    let run = |name: &str| what == "all" || what == name;
    let show = |tag: &str, fig: xmlup_bench::experiments::Figure| {
        fig.print();
        exp::emit_figure_json(tag, &fig);
    };

    if run("table1") {
        exp::print_table1();
    }
    if run("asr-paths") {
        let lens: Vec<usize> = if full {
            vec![2, 3, 4, 5]
        } else {
            vec![2, 3, 4]
        };
        let rows = exp::asr_path_expressions(&[1, 2, 4, 8], &lens);
        exp::print_asr_paths(&rows);
    }
    if run("fig6") {
        show(
            "fig6",
            exp::delete_vs_scaling(Workload::Bulk, &scaling, "6"),
        );
    }
    if run("fig7") {
        show(
            "fig7",
            exp::delete_vs_scaling(Workload::random10(), &scaling, "7"),
        );
    }
    if run("fig8") {
        show("fig8", exp::delete_vs_depth(Workload::Bulk, &depths, "8"));
    }
    if run("fig9") {
        show(
            "fig9",
            exp::delete_vs_depth(Workload::random10(), &depths, "9"),
        );
    }
    if run("fig10") {
        show("fig10", exp::insert_vs_depth(Workload::Bulk, &depths, "10"));
    }
    if run("fig11") {
        show(
            "fig11",
            exp::insert_vs_depth(Workload::random10(), &depths, "11"),
        );
    }
    if run("randomized") {
        show("randomized", exp::randomized_delete(&scaling));
    }
    if run("storage") {
        let rows = exp::storage_ablation(&scaling);
        exp::print_storage(&rows);
        // Paged storage engine: incremental checkpoints vs dirty
        // fraction, buffer-pool sweep, recovery time — at 10× the
        // workload driver's default scale (40× under --full).
        let sf = if full { 2000 } else { 500 };
        let report = exp::storage_engine(sf);
        exp::print_storage_engine(&report);
        exp::emit_storage_engine_json(&report);
    }
    if run("plan-cache") {
        let rows = exp::plan_cache_stats(if full { 400 } else { 100 });
        exp::print_plan_cache(&rows);
    }
    if run("planner") {
        let sizes: &[usize] = if full {
            &[8, 16, 32, 64, 128]
        } else {
            &[8, 16, 32, 64]
        };
        show("planner", exp::planner_comparison(sizes));
        let sizes: &[usize] = if full {
            &[10_000, 20_000, 40_000, 80_000]
        } else {
            &[5_000, 10_000, 20_000]
        };
        show("planner_v2", exp::planner_v2(sizes));
    }
    if run("txn") {
        let batches: &[usize] = if full {
            &[100, 400, 1600, 6400]
        } else {
            &[100, 400, 1600]
        };
        show("txn", exp::txn_overhead(batches));
        let rows = exp::txn_rollback_cost(&scaling);
        exp::print_txn_rollback(&rows);
    }
    if run("wal") {
        let batches: &[usize] = if full {
            &[100, 400, 1600, 6400]
        } else {
            &[100, 400, 1600]
        };
        show("wal", exp::wal_overhead(batches));
        let rows = exp::wal_recovery(batches);
        exp::print_wal_recovery(&rows);
    }
    if run("throughput") {
        // 10× the workload default (scale 50, 10 random ops) in the full
        // configuration; the trimmed run keeps CI smoke fast while still
        // exercising every grid point.
        let (sf, ops) = if full { (500, 100) } else { (200, 64) };
        let rows = exp::update_throughput(sf, ops);
        exp::print_throughput(&rows);
        exp::emit_throughput_json(&rows);
    }
    if run("obs") {
        let sizes: &[usize] = if full { &[16, 32, 64] } else { &[16, 32] };
        let rows = exp::obs_ladder(sizes);
        exp::print_obs_ladder(&rows);
    }
    if run("sysview") {
        let sizes: &[usize] = if full { &[16, 32, 64] } else { &[16, 32] };
        let rows = exp::sysview_ladder(sizes);
        exp::print_sysview_ladder(&rows);
        let guard = exp::statement_tracking_overhead(64, 15);
        println!(
            "statement tracking: {:.1} ns/stmt off, {:.1} ns/stmt on \
             ({:.1} ns tracking tail) against {:.0} ns/stmt on the joins \
             benchmark: {:.4}% overhead",
            guard.ns_per_stmt_off,
            guard.ns_per_stmt_on,
            guard.ns_tracking,
            guard.query_ns,
            guard.overhead_pct
        );
        exp::emit_sysview_json(&rows, &guard);
    }
    if run("concurrency") {
        let window_ms = if full { 2000 } else { 800 };
        let rows = exp::concurrency_scaling(&[1, 2, 4, 8], window_ms);
        exp::print_concurrency(&rows);
        exp::emit_concurrency_json(&rows);
    }
    // The CI off-state guard is opt-in only: it exits nonzero on failure
    // and would make casual `paper-figures all` runs flaky on a loaded
    // machine.
    if what == "obs-overhead" {
        let m = exp::obs_off_overhead(64, 15);
        println!(
            "obs-overhead guard: {:.2} ns per inert span site × {} sites/stmt \
             = {:.0} ns against {:.0} ns/stmt ({} rows scanned): {:.4}% off-state overhead",
            m.ns_per_span,
            m.spans_per_stmt,
            m.ns_per_span * m.spans_per_stmt as f64,
            m.query_ns,
            m.rows_scanned,
            m.overhead_pct
        );
        if m.overhead_pct >= 2.0 {
            eprintln!("obs-overhead guard FAILED: off-state overhead exceeds 2%");
            std::process::exit(1);
        }
        let t = exp::statement_tracking_overhead(64, 15);
        println!(
            "statement-tracking guard: {:.1} ns/stmt off vs {:.1} ns/stmt on \
             = {:.1} ns tracking tail against {:.0} ns/stmt: {:.4}% overhead",
            t.ns_per_stmt_off, t.ns_per_stmt_on, t.ns_tracking, t.query_ns, t.overhead_pct
        );
        if t.overhead_pct >= 2.0 {
            eprintln!("statement-tracking guard FAILED: tracking overhead exceeds 2%");
            std::process::exit(1);
        }
    }
    if run("fetch") {
        let rows = exp::fetch_join_paths(if full { 41 } else { 15 });
        exp::print_fetch_join_paths(&rows);
    }
    if run("ordered") {
        let rows = exp::ordered_ablation(&scaling);
        exp::print_ordered(&rows);
    }
    if run("table2") {
        let params = if full {
            DblpParams {
                conferences: 300,
                pubs_per_conf: 60,
                ..Default::default()
            }
        } else {
            DblpParams::default()
        };
        let rows = exp::table2(&params);
        exp::print_table2(&rows);
    }
}
