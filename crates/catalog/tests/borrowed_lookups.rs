//! Property tests: every case-insensitive catalog lookup, which borrows a
//! name that is already lower case and copies only one with ASCII upper
//! case, answers exactly as the lookup that lower-cased every name did.
//! Each reference below is that copying lookup, kept here.

use proptest::prelude::*;
use std::sync::OnceLock;
use throttledb_catalog::{
    sales_schema, tpch_schema, Catalog, ColumnStatistics, IndexDef, SalesScale, TableDef,
};

fn ref_table<'c>(catalog: &'c Catalog, name: &str) -> Option<&'c TableDef> {
    let lower = name.to_ascii_lowercase();
    catalog.tables().find(|t| t.name == lower)
}

fn ref_column_index(table: &TableDef, name: &str) -> Option<usize> {
    let lower = name.to_ascii_lowercase();
    table.columns.iter().position(|c| c.name == lower)
}

fn ref_stats_column<'t>(table: &'t TableDef, name: &str) -> Option<&'t ColumnStatistics> {
    table.statistics.columns.get(&name.to_ascii_lowercase())
}

fn ref_covers_prefix(index: &IndexDef, column: &str) -> bool {
    index
        .key_columns
        .first()
        .map(|c| c == &column.to_ascii_lowercase())
        .unwrap_or(false)
}

/// Names that are in no catalog: empty, non-ASCII (whose case the lookups
/// must leave alone; the Kelvin sign would fold to `k` under Unicode
/// rules), and longer than a keyword.
const STRANGERS: [&str; 9] = [
    "",
    "café",
    "CAFÉ",
    "fact_sales_é",
    "\u{FF26}act_sales",
    "dim_date_and_then_some",
    "\u{212A}ey",
    "c_cust\u{212A}ey",
    "日本",
];

/// The SALES and TPC-H-like catalogs, and every table, column and
/// index-key name in them plus the strangers.
fn fixture() -> &'static ([Catalog; 2], Vec<String>) {
    static FIXTURE: OnceLock<([Catalog; 2], Vec<String>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let catalogs = [sales_schema(SalesScale::paper()), tpch_schema(30.0)];
        let mut names: Vec<String> = STRANGERS.iter().map(|s| s.to_string()).collect();
        for t in catalogs.iter().flat_map(Catalog::tables) {
            names.push(t.name.clone());
            names.extend(t.columns.iter().map(|c| c.name.clone()));
            names.extend(t.indexes.iter().flat_map(|ix| ix.key_columns.clone()));
        }
        (catalogs, names)
    })
}

/// `name` with each ASCII letter upper-cased when its bit of `mask` is set.
fn recase(name: &str, mask: u64) -> String {
    name.chars()
        .enumerate()
        .map(|(i, c)| {
            if mask >> (i % 64) & 1 == 1 {
                c.to_ascii_uppercase()
            } else {
                c
            }
        })
        .collect()
}

proptest! {
    #[test]
    fn borrowed_lookups_answer_as_copying_ones(
        which in 0usize..2,
        table_pick in 0usize..64,
        name_picks in proptest::collection::vec(0usize..4096, 1..12),
        mask in 0u64..u64::MAX,
        own_column in proptest::bool::ANY,
    ) {
        let (catalogs, all) = fixture();
        let catalog = &catalogs[which];
        let tables: Vec<&TableDef> = catalog.tables().collect();
        let table = tables[table_pick % tables.len()];
        for (k, pick) in name_picks.iter().enumerate() {
            // Half the cases draw from the table's own columns, so the
            // per-table lookups see hits as well as misses.
            let base = if own_column {
                &table.columns[pick % table.columns.len()].name
            } else {
                &all[pick % all.len()]
            };
            let name = recase(base, mask.rotate_left(k as u32 * 7));
            let name = name.as_str();

            let want = ref_table(catalog, name).map(|t| t as *const TableDef);
            prop_assert_eq!(catalog.table(name).map(|t| t as *const TableDef), want, "table({:?})", name);
            prop_assert_eq!(catalog.contains(name), want.is_some(), "contains({:?})", name);

            let want = ref_column_index(table, name);
            prop_assert_eq!(table.column_index(name), want, "column_index({:?})", name);
            prop_assert_eq!(
                table.column(name).map(|c| c as *const _),
                want.map(|i| &table.columns[i] as *const _),
                "column({:?})",
                name
            );
            prop_assert_eq!(
                table.statistics.column(name).map(|s| s as *const ColumnStatistics),
                ref_stats_column(table, name).map(|s| s as *const ColumnStatistics),
                "statistics.column({:?})",
                name
            );
            for ix in &table.indexes {
                prop_assert_eq!(
                    ix.covers_prefix(name),
                    ref_covers_prefix(ix, name),
                    "{}.covers_prefix({:?})",
                    ix.name,
                    name
                );
            }
        }
    }
}

#[test]
fn upper_case_names_hit_and_strangers_miss() {
    let sales = &fixture().0[0];
    for name in ["fact_sales", "FACT_SALES", "Fact_Sales"] {
        assert!(sales.table(name).is_some(), "{name:?}");
    }
    let fact = sales.table("fact_sales").expect("SALES has a fact table");
    assert!(fact.column("SALE_ID").is_some());
    assert!(fact.indexes.iter().any(|ix| ix.covers_prefix("Sale_Id")));
    let customer = fixture().0[1]
        .table("customer")
        .expect("TPC-H has customers");
    assert!(customer.column("C_CUSTKEY").is_some());
    for name in STRANGERS {
        assert!(sales.table(name).is_none(), "{name:?}");
        assert!(fact.column(name).is_none(), "{name:?}");
        assert!(customer.column_index(name).is_none(), "{name:?}");
        assert!(customer.statistics.column(name).is_none(), "{name:?}");
        assert!(!customer.indexes.iter().any(|ix| ix.covers_prefix(name)));
    }
}
