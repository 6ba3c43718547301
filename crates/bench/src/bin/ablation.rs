//! Ablation bench: weighted vs. unweighted global-representative
//! combination — the step where CXK-means' merge differs from the
//! non-collaborative baseline's (§5.5.3; see ARCHITECTURE.md, *The
//! collaborative round protocol*).
//!
//! ```text
//! cargo run -p cxk_bench --release --bin ablation -- [--corpus dblp]
//!     [--ms 3,5,7,9] [--runs 3] [--scale 1.0]
//! ```

use cxk_bench::args::{parse_usize_list, Flags};
use cxk_bench::experiments::{default_gamma, weighting_ablation, ExperimentOptions};
use cxk_bench::{prepare, CorpusKind};

const USAGE: &str = "ablation --corpus <name|all> --ms <list> --runs <n> --scale <f64>";

fn main() {
    let flags = Flags::from_env(USAGE);
    let corpus = flags.get_str("corpus", "dblp");
    let scale: f64 = flags.get("scale", 1.0);
    let ms = parse_usize_list(&flags.get_str("ms", "3,5,7,9"));
    let runs: usize = flags.get("runs", 3);

    let kinds: Vec<CorpusKind> = if corpus == "all" {
        CorpusKind::all().to_vec()
    } else {
        vec![CorpusKind::parse(&corpus).expect("unknown corpus")]
    };

    println!("# Ablation: weighted vs unweighted global representative merge");
    println!("corpus\tm\tF_weighted\tF_unweighted\tdelta");
    for kind in kinds {
        let prepared = prepare(kind, scale, 0xAB1A + kind as u64);
        let opts = ExperimentOptions {
            gamma: flags.get("gamma", default_gamma(kind)),
            runs,
            ..Default::default()
        };
        for row in weighting_ablation(&prepared, &ms, &opts) {
            println!(
                "{}\t{}\t{:.3}\t{:.3}\t{:+.3}",
                row.corpus,
                row.m,
                row.weighted_f,
                row.unweighted_f,
                row.weighted_f - row.unweighted_f
            );
        }
    }
}
