//! Regenerates **Table II** of the paper: number of NPN classes found by
//! each signature-vector combination, per input arity, on the
//! cut-enumeration workload.
//!
//! ```text
//! cargo run --release -p facepoint-bench --bin table2 -- \
//!     [--min-n 4] [--max-n 8] [--limit 20000]
//! ```
//!
//! Columns mirror the paper: exact class count first, then the eight
//! signature configurations. Our absolute counts differ from the paper's
//! (synthesized circuits stand in for the EPFL suite), but the column
//! *ordering* and the arity where each configuration stops being exact
//! reproduce.
#![forbid(unsafe_code)]

use facepoint_aig::cut_workload;
use facepoint_bench::{arg_num, print_row, timed};
use facepoint_core::Classifier;
use facepoint_exact::exact_classify;
use facepoint_sig::SignatureSet;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let min_n: usize = arg_num(&args, "--min-n", 4);
    let max_n: usize = arg_num(&args, "--max-n", 8);
    let limit: usize = arg_num(&args, "--limit", 20_000);

    println!("Table II: classification by different signature vectors");
    println!("workload: synthetic-EPFL cut functions, dedup'd, ≤{limit} per n");
    println!();
    let columns = SignatureSet::table2_columns();
    let mut header: Vec<String> = vec!["n".into(), "#Func".into(), "#Exact".into()];
    header.extend(columns.iter().map(|(name, _)| name.to_string()));
    let widths: Vec<usize> = header.iter().map(|h| h.len().max(8)).collect();
    print_row(&header, &widths);

    for n in min_n..=max_n {
        let (fns, t_gen) = timed(|| cut_workload(n, limit));
        let (exact, _t_exact) = timed(|| exact_classify(&fns).num_classes());
        let mut cells: Vec<String> = vec![n.to_string(), fns.len().to_string(), exact.to_string()];
        for (_, set) in columns {
            let count = Classifier::new(set).classify(fns.clone()).num_classes();
            cells.push(count.to_string());
        }
        print_row(&cells, &widths);
        eprintln!(
            "  [n={n}: {} functions extracted in {}s]",
            fns.len(),
            t_gen.as_secs_f64()
        );
    }
    println!();
    println!("Reading: every column is a lower bound of #Exact (signatures can only");
    println!("merge classes). The paper's Table II shows the same ordering:");
    println!("OIV < OCV1 < OSV < OIV+OSV ≤ OCV1+OSV ≤ OCV1+OCV2+OSV ≤ OIV+OSV+OSDV ≤ All,");
    println!("with exactness up to n = 7 for the sensitivity-based combinations.");
}
