//! Regenerates every figure of the paper's evaluation section and prints the
//! series plus the headline ratios.
//!
//! ```sh
//! cargo run --release --example paper_figures            # smoke scale, ~1 s
//! cargo run --release --example paper_figures -- --paper # full published sweep
//! ```

use hlsrg_suite::scenario::{paper_figures, Figure, FigureScale, Metric};

/// The figure's headline ratio beside the paper's claim.
fn summary(fig: &Figure) -> String {
    match fig.metric {
        // The paper's "about half" is a claim about its 2 km map; the ratio
        // grows with map size, so an average over the sweep understates it.
        Metric::UpdatePackets => {
            let at_2km = fig.ratio_at(2000.0).expect("Fig 3.2 sweeps a 2 km map");
            format!(
                "At 2 km HLSRG sends {:.0}% fewer location updates than RLSMP (paper: ~50% fewer)",
                100.0 * (1.0 - at_2km)
            )
        }
        Metric::QueryRadioTx => format!(
            "HLSRG's query overhead is {:.0}% below RLSMP's (paper: ~15% below)",
            100.0 * (1.0 - fig.mean_ratio())
        ),
        Metric::SuccessRate => format!(
            "HLSRG answers {:.2}x as many queries as RLSMP (paper: higher, near 100%)",
            fig.mean_ratio()
        ),
        Metric::MeanLatency => format!(
            "HLSRG's mean query latency is {:.2}x RLSMP's (paper: lower)",
            fig.mean_ratio()
        ),
        other => unreachable!("no paper figure plots {other:?}"),
    }
}

fn main() {
    let scale = if std::env::args().any(|a| a == "--paper") {
        FigureScale::Paper
    } else {
        FigureScale::Smoke
    };
    println!("scale: {scale:?}\n");

    for fig in paper_figures(scale) {
        println!("{fig}");
        println!("{}", fig.to_ascii_chart());
        println!(">>> {}\n", summary(&fig));
    }
}
