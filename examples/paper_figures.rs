//! Regenerates every figure of the paper's evaluation section and prints the
//! series plus the headline ratios.
//!
//! ```sh
//! cargo run --release --example paper_figures            # smoke scale, ~10 s
//! cargo run --release --example paper_figures -- --paper # full published sweep
//! ```

use hlsrg_suite::scenario::{fig3_2, fig3_345, FigureScale};

fn main() {
    let scale = if std::env::args().any(|a| a == "--paper") {
        FigureScale::Paper
    } else {
        FigureScale::Smoke
    };
    println!("scale: {scale:?}\n");

    let f2 = fig3_2(scale);
    println!("{f2}");
    println!("{}", f2.to_ascii_chart());
    // The paper's "about half" is a claim about its 2 km map; the ratio
    // grows with map size, so an average over the sweep understates it.
    let at_2km = f2.ratio_at(2000.0).expect("Fig 3.2 sweeps a 2 km map");
    println!(
        ">>> At 2 km HLSRG sends {:.0}% fewer location updates than RLSMP (paper: ~50% fewer)\n",
        100.0 * (1.0 - at_2km)
    );

    let (f3, f4, f5) = fig3_345(scale);
    println!("{f3}");
    println!("{}", f3.to_ascii_chart());
    println!(
        ">>> HLSRG's query overhead is {:.0}% below RLSMP's (paper: ~15% below)\n",
        100.0 * (1.0 - f3.mean_ratio())
    );
    println!("{f4}");
    println!("{}", f4.to_ascii_chart());
    println!(
        ">>> HLSRG answers {:.2}x as many queries as RLSMP (paper: higher, near 100%)\n",
        f4.mean_ratio()
    );
    println!("{f5}");
    println!("{}", f5.to_ascii_chart());
    println!(
        ">>> HLSRG's mean query latency is {:.2}x RLSMP's (paper: lower)\n",
        f5.mean_ratio()
    );
}
