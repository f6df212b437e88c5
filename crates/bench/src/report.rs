//! Machine-readable bench artifact: `BENCH_vm.json` at the
//! repository root, one section per measurement table (`b13` from
//! `batch_table`, `b14` from `vm_table`, `b15` from `wild_table`,
//! `b16` from `restart_table`, `b17` from `daemon_table`). Each
//! section is an array of
//! `{series, workers, cpus, ms, speedup, checksum}` rows, so the perf
//! trajectory is diffable across PRs and CI can upload a single
//! superset artifact.
//!
//! The tables run as separate test binaries, so a writer must not
//! clobber the others' sections: [`write_section`] re-reads the file
//! with the shared JSON parser and carries every other known section
//! over unchanged.
//!
//! Rows record both the worker count the series *requested* and the
//! parallelism the host *offers* ([`detected_parallelism`]): a
//! "4 workers" row measured on a 1-CPU runner is contention, not
//! speedup, and downstream consumers must be able to tell the two
//! apart. The table binaries skip multi-worker series outright on
//! single-CPU hosts.

use std::path::PathBuf;

use implicit_core::json::{parse_json, Json};

/// Every section a `BENCH_vm.json` may contain, in file order.
const SECTIONS: [&str; 5] = ["b13", "b14", "b15", "b16", "b17"];

/// The parallelism the host actually offers, with 1 as the
/// conservative fallback when the query fails (cgroup-restricted
/// runners). Multi-worker series are meaningless when this is 1.
pub fn detected_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One measured series: label, worker count, host parallelism,
/// best-of wall time, speedup against the table's baseline series,
/// and the cross-engine checksum that pins the run as semantically
/// valid.
pub struct BenchRow {
    /// Stable series label (matches the markdown table row).
    pub series: String,
    /// Worker threads the series ran with.
    pub workers: usize,
    /// Host parallelism at measurement time
    /// ([`detected_parallelism`]); rows with `workers > cpus` measure
    /// contention and carry no speedup claim.
    pub cpus: usize,
    /// Best-of-reps wall time in milliseconds.
    pub ms: f64,
    /// Ratio of the baseline series' time to this one.
    pub speedup: f64,
    /// The run's checksum (step total, value sum — table-specific).
    pub checksum: u64,
}

impl BenchRow {
    /// A single-worker row — the common case for every series that
    /// isn't explicitly a scaling measurement.
    pub fn single(series: &str, ms: f64, speedup: f64, checksum: u64) -> Self {
        BenchRow {
            series: series.to_string(),
            workers: 1,
            cpus: detected_parallelism(),
            ms,
            speedup,
            checksum,
        }
    }
}

/// Repository-root path of the artifact.
pub fn artifact_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_vm.json")
}

/// Writes (or replaces) one section of `BENCH_vm.json`, preserving
/// the other sections already on disk. Returns the path written.
///
/// # Panics
///
/// Panics if `section` is not one of the known [`SECTIONS`] or the
/// file cannot be written — a bench artifact that silently fails to
/// land is worse than a loud one.
pub fn write_section(section: &str, rows: &[BenchRow]) -> PathBuf {
    assert!(
        SECTIONS.contains(&section),
        "unknown BENCH_vm.json section `{section}`"
    );
    let path = artifact_path();
    let existing = std::fs::read_to_string(&path).unwrap_or_default();
    std::fs::write(&path, merge_section(&existing, section, rows)).expect("write BENCH_vm.json");
    path
}

/// The artifact text with `section` set to `rows` and every other
/// known section carried over from `existing` (a previous artifact);
/// sections missing from it, or an unreadable `existing`, come out
/// empty.
fn merge_section(existing: &str, section: &str, rows: &[BenchRow]) -> String {
    let old = parse_json(existing).ok();
    let fields = SECTIONS
        .iter()
        .map(|name| {
            let body = if *name == section {
                Json::Arr(rows.iter().map(row_json).collect())
            } else {
                old.as_ref()
                    .and_then(|o| o.get(name))
                    .filter(|v| v.as_arr().is_some())
                    .cloned()
                    .unwrap_or(Json::Arr(Vec::new()))
            };
            ((*name).to_owned(), body)
        })
        .collect();
    let mut out = Json::Obj(fields).render();
    out.push('\n');
    out
}

/// One row as a flat JSON object.
fn row_json(r: &BenchRow) -> Json {
    Json::obj(vec![
        ("series", Json::Str(r.series.clone())),
        ("workers", Json::Int(r.workers as i64)),
        ("cpus", Json::Int(r.cpus as i64)),
        ("ms", Json::Num(r.ms)),
        ("speedup", Json::Num(r.speedup)),
        (
            "checksum",
            i64::try_from(r.checksum).map_or(Json::Num(r.checksum as f64), Json::Int),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_reextract_round_trip() {
        let rows = vec![
            BenchRow::single("warm tree", 563.712, 1.0, 42),
            BenchRow {
                series: String::from("warm vm"),
                workers: 4,
                cpus: 8,
                ms: 61.5,
                speedup: 9.17,
                checksum: 42,
            },
        ];
        let file = merge_section("", "b14", &rows);
        let doc = parse_json(&file).expect("the artifact parses");
        let b14 = doc.get("b14").and_then(Json::as_arr).expect("b14 rows");
        assert_eq!(b14.len(), 2);
        assert_eq!(b14[0].str_field("series"), Some("warm tree"));
        assert_eq!(b14[1].int_field("workers"), Some(4));
        assert_eq!(b14[1].int_field("cpus"), Some(8));
        assert_eq!(b14[0].int_field("checksum"), Some(42));
        assert!(file.contains("\"ms\":563.712"), "{file}");
        assert!(file.contains("\"speedup\":9.170"), "{file}");
        for name in ["b13", "b15", "b16", "b17"] {
            assert_eq!(
                doc.get(name).and_then(Json::as_arr).map(<[Json]>::len),
                Some(0)
            );
        }
        // Rewriting another section carries b14 over unchanged, and
        // the re-extracted rows render byte-identically.
        let quoted = vec![BenchRow::single("daemon \"warm\" resident", 1.0, 2.0, 7)];
        let again = merge_section(&file, "b17", &quoted);
        let doc2 = parse_json(&again).expect("the rewritten artifact parses");
        assert_eq!(
            doc2.get("b14").unwrap().render(),
            doc.get("b14").unwrap().render()
        );
        let b17 = doc2.get("b17").and_then(Json::as_arr).expect("b17 rows");
        assert_eq!(b17[0].str_field("series"), Some("daemon \"warm\" resident"));
        // An unreadable previous file degrades to empty sections.
        let fresh = parse_json(&merge_section("{not json", "b13", &[])).unwrap();
        assert_eq!(
            fresh.get("b14").and_then(Json::as_arr).map(<[Json]>::len),
            Some(0)
        );
    }

    #[test]
    fn detected_parallelism_is_at_least_one() {
        assert!(detected_parallelism() >= 1);
    }
}
