//! Table T1: SALES vs TPC-H workload characteristics (compile memory, compile
//! time, joins) — the §5.1 claims.
use throttledb_catalog::tpch_schema;
use throttledb_engine::{ServerConfig, WorkloadProfiles};
use throttledb_sqlparse::parse;
use throttledb_workload::{sales_templates, tpch_like_templates};

fn main() {
    let cfg = ServerConfig::paper(30, true);
    println!("== Table T1: workload characteristics ==");
    println!(
        "{:<18} {:>6} {:>16} {:>16} {:>14}",
        "query", "joins", "compile MB", "compile s", "exec grant MB"
    );
    let sales = WorkloadProfiles::characterize_sales(&cfg);
    let mut sales_mem = Vec::new();
    for t in sales_templates() {
        let p = sales.profile(&t.name);
        let joins = parse(&t.sql).unwrap().join_count();
        sales_mem.push(p.peak_compile_bytes as f64);
        println!(
            "{:<18} {:>6} {:>16.1} {:>16.1} {:>14.0}",
            t.name,
            joins,
            p.peak_compile_bytes as f64 / 1e6,
            p.compile_cpu_seconds,
            p.exec_grant_bytes as f64 / 1e6
        );
    }
    let tpch_cat = tpch_schema(30.0);
    let tpch = WorkloadProfiles::characterize(&cfg, &tpch_cat, tpch_like_templates(), vec![]);
    let mut tpch_mem = Vec::new();
    for t in tpch_like_templates() {
        let p = tpch.profile(&t.name);
        let joins = parse(&t.sql).unwrap().join_count();
        tpch_mem.push(p.peak_compile_bytes as f64);
        println!(
            "{:<18} {:>6} {:>16.1} {:>16.1} {:>14.0}",
            t.name,
            joins,
            p.peak_compile_bytes as f64 / 1e6,
            p.compile_cpu_seconds,
            p.exec_grant_bytes as f64 / 1e6
        );
    }
    let avg = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "SALES mean compile memory: {:.0} MB; TPC-H-like mean: {:.1} MB; ratio: {:.0}x",
        avg(&sales_mem) / 1e6,
        avg(&tpch_mem) / 1e6,
        avg(&sales_mem) / avg(&tpch_mem)
    );
}
