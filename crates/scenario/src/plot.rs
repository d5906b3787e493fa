//! Charts for the paper figures and telemetry reports.
//!
//! `cargo run --example paper_figures` shouldn't require a plotting stack to show
//! the *shape* of a result — who is above whom, where curves cross, how fast they
//! grow. [`ascii_chart`] renders labeled series on a character grid, and
//! [`Figure::to_ascii_chart`](crate::figures::Figure::to_ascii_chart) applies it
//! to a figure's HLSRG/RLSMP series. [`svg_chart`] renders the same series as an
//! inline SVG fragment for the self-contained HTML dashboard (`hlsrg-suite report`) —
//! both backends share one scaling model ([`Bounds`]), so a curve lands in the
//! same relative spot whichever way it is drawn.

/// The shared scaling model: data-space bounds with the conventions every
/// backend applies — a zero baseline on Y (magnitude metrics read from zero)
/// and degenerate ranges padded so flat series still render.
#[derive(Debug, Clone, Copy)]
pub struct Bounds {
    /// Leftmost data X.
    pub x_lo: f64,
    /// Rightmost data X.
    pub x_hi: f64,
    /// Bottom data Y (≤ 0-baseline).
    pub y_lo: f64,
    /// Top data Y.
    pub y_hi: f64,
}

impl Bounds {
    /// Computes bounds over every point of every series.
    ///
    /// # Panics
    ///
    /// Panics if `series` is empty or any series has no points.
    pub fn from_series(series: &[(&str, Vec<(f64, f64)>)]) -> Bounds {
        assert!(!series.is_empty() && series.iter().all(|(_, pts)| !pts.is_empty()));
        let all = series.iter().flat_map(|(_, pts)| pts.iter().copied());
        let (mut x_lo, mut x_hi) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut y_lo, mut y_hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for (x, y) in all {
            x_lo = x_lo.min(x);
            x_hi = x_hi.max(x);
            y_lo = y_lo.min(y);
            y_hi = y_hi.max(y);
        }
        // Zero-baseline for magnitude metrics; pad degenerate ranges.
        y_lo = y_lo.min(0.0);
        if (y_hi - y_lo).abs() < 1e-12 {
            y_hi = y_lo + 1.0;
        }
        if (x_hi - x_lo).abs() < 1e-12 {
            x_hi = x_lo + 1.0;
        }
        Bounds {
            x_lo,
            x_hi,
            y_lo,
            y_hi,
        }
    }

    /// X mapped to `[0, 1]` across the plot width.
    pub fn fx(&self, x: f64) -> f64 {
        (x - self.x_lo) / (self.x_hi - self.x_lo)
    }

    /// Y mapped to `[0, 1]` from the bottom of the plot.
    pub fn fy(&self, y: f64) -> f64 {
        (y - self.y_lo) / (self.y_hi - self.y_lo)
    }
}

/// Renders `series` (name, points) as an ASCII chart of `width` × `height`
/// characters (plot area, excluding axes). Each series gets its own glyph, in
/// order: `o`, `x`, `+`, `*`.
///
/// # Panics
///
/// Panics if the plot area is degenerate or a series is empty.
pub fn ascii_chart(series: &[(&str, Vec<(f64, f64)>)], width: usize, height: usize) -> String {
    assert!(width >= 8 && height >= 4, "plot area too small");
    const GLYPHS: [char; 4] = ['o', 'x', '+', '*'];
    let b = Bounds::from_series(series);

    let mut grid = vec![vec![' '; width]; height];
    let col = |x: f64| (b.fx(x) * (width - 1) as f64).round() as usize;
    let row = |y: f64| height - 1 - (b.fy(y) * (height - 1) as f64).round() as usize;
    for (si, (_, pts)) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        // Connect consecutive points with linear interpolation for a line feel.
        for pair in pts.windows(2) {
            let (x0, y0) = pair[0];
            let (x1, y1) = pair[1];
            let steps = (col(x1).abs_diff(col(x0))).max(1);
            for k in 0..=steps {
                let t = k as f64 / steps as f64;
                let (x, y) = (x0 + (x1 - x0) * t, y0 + (y1 - y0) * t);
                let (c, r) = (col(x), row(y));
                // Markers win over line dots.
                if grid[r][c] == ' ' {
                    grid[r][c] = '.';
                }
            }
        }
        for &(x, y) in pts {
            grid[row(y)][col(x)] = glyph;
        }
    }

    let mut out = String::new();
    for (ri, line) in grid.iter().enumerate() {
        let label = if ri == 0 {
            format!("{:>9.1}", b.y_hi)
        } else if ri == height - 1 {
            format!("{:>9.1}", b.y_lo)
        } else {
            " ".repeat(9)
        };
        out.push_str(&label);
        out.push('|');
        out.extend(line.iter());
        out.push('\n');
    }
    out.push_str(&" ".repeat(9));
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out.push_str(&format!(
        "{:>10}{:<w$.0}{:>.0}\n",
        "",
        b.x_lo,
        b.x_hi,
        w = width - 4
    ));
    for (si, (name, _)) in series.iter().enumerate() {
        out.push_str(&format!(
            "{:>10}{} = {}\n",
            "",
            GLYPHS[si % GLYPHS.len()],
            name
        ));
    }
    out
}

/// Series stroke palette for SVG charts (colorblind-safe Okabe–Ito subset).
const SVG_COLORS: [&str; 6] = [
    "#0072b2", "#d55e00", "#009e73", "#cc79a7", "#e69f00", "#56b4e9",
];

/// Renders `series` as one self-contained `<svg>` fragment of `width` ×
/// `height` pixels: axis frame, min/max tick labels, one polyline with point
/// markers per series, and an inline legend. No external assets, scripts, or
/// fonts — safe to embed in a single-file HTML report.
///
/// # Panics
///
/// Panics if the plot area is degenerate or a series is empty.
pub fn svg_chart(series: &[(&str, Vec<(f64, f64)>)], width: usize, height: usize) -> String {
    assert!(width >= 80 && height >= 60, "plot area too small");
    let b = Bounds::from_series(series);
    // Margins leave room for tick labels (left/bottom) and the legend (top).
    let (ml, mr, mt, mb) = (56.0, 12.0, 8.0 + 14.0 * series.len() as f64, 28.0);
    let (w, h) = (width as f64, height as f64);
    let (pw, ph) = (w - ml - mr, h - mt - mb);
    let px = |x: f64| ml + b.fx(x) * pw;
    let py = |y: f64| mt + (1.0 - b.fy(y)) * ph;

    let mut s = format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" viewBox=\"0 0 {width} {height}\" \
         width=\"{width}\" height=\"{height}\" role=\"img\">\n\
         <rect x=\"{ml}\" y=\"{mt}\" width=\"{pw}\" height=\"{ph}\" \
         fill=\"none\" stroke=\"#888\" stroke-width=\"1\"/>\n"
    );
    // Min/max tick labels on both axes.
    let label = |v: f64| {
        if v.abs() >= 1000.0 {
            format!("{v:.0}")
        } else {
            format!("{v:.2}")
        }
    };
    s.push_str(&format!(
        "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"11\" text-anchor=\"end\" \
         fill=\"#333\">{}</text>\n",
        ml - 4.0,
        mt + 4.0,
        label(b.y_hi)
    ));
    s.push_str(&format!(
        "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"11\" text-anchor=\"end\" \
         fill=\"#333\">{}</text>\n",
        ml - 4.0,
        mt + ph,
        label(b.y_lo)
    ));
    s.push_str(&format!(
        "<text x=\"{ml:.1}\" y=\"{:.1}\" font-size=\"11\" fill=\"#333\">{}</text>\n",
        h - 8.0,
        label(b.x_lo)
    ));
    s.push_str(&format!(
        "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"11\" text-anchor=\"end\" \
         fill=\"#333\">{}</text>\n",
        ml + pw,
        h - 8.0,
        label(b.x_hi)
    ));
    for (si, (name, pts)) in series.iter().enumerate() {
        let color = SVG_COLORS[si % SVG_COLORS.len()];
        let mut path = String::new();
        for &(x, y) in pts {
            path.push_str(&format!("{:.1},{:.1} ", px(x), py(y)));
        }
        s.push_str(&format!(
            "<polyline points=\"{}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"1.5\"/>\n",
            path.trim_end()
        ));
        for &(x, y) in pts {
            s.push_str(&format!(
                "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"2.2\" fill=\"{color}\"/>\n",
                px(x),
                py(y)
            ));
        }
        // Legend row: swatch + escaped name.
        let ly = 14.0 * (si as f64 + 1.0);
        s.push_str(&format!(
            "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"10\" height=\"10\" fill=\"{color}\"/>\n\
             <text x=\"{:.1}\" y=\"{:.1}\" font-size=\"11\" fill=\"#333\">{}</text>\n",
            ml + 4.0,
            ly - 9.0,
            ml + 18.0,
            ly,
            xml_escape(name)
        ));
    }
    s.push_str("</svg>\n");
    s
}

/// Escapes text for embedding in XML/HTML content.
pub fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chart_contains_markers_and_legend() {
        let s = ascii_chart(
            &[
                ("alpha", vec![(0.0, 0.0), (1.0, 10.0), (2.0, 20.0)]),
                ("beta", vec![(0.0, 20.0), (1.0, 10.0), (2.0, 0.0)]),
            ],
            40,
            10,
        );
        assert!(s.contains('o'));
        assert!(s.contains('x'));
        assert!(s.contains("o = alpha"));
        assert!(s.contains("x = beta"));
        // Y axis labels show the range.
        assert!(s.contains("20.0"));
        assert!(s.contains("0.0"));
    }

    #[test]
    fn increasing_series_slopes_up() {
        let s = ascii_chart(&[("up", vec![(0.0, 0.0), (10.0, 100.0)])], 30, 8);
        let lines: Vec<&str> = s.lines().collect();
        // The marker in the top line is to the right of the one in the bottom.
        let top = lines[0].find('o').unwrap();
        let bottom = lines[7].find('o').unwrap();
        assert!(top > bottom);
    }

    #[test]
    fn flat_series_renders() {
        let s = ascii_chart(&[("flat", vec![(0.0, 5.0), (1.0, 5.0)])], 20, 5);
        assert!(s.contains('o'));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_plot_rejected() {
        ascii_chart(&[("x", vec![(0.0, 0.0)])], 2, 2);
    }

    #[test]
    fn bounds_shared_by_both_backends() {
        let series: [(&str, Vec<(f64, f64)>); 1] = [("s", vec![(2.0, 5.0), (4.0, 15.0)])];
        let b = Bounds::from_series(&series);
        assert_eq!(b.x_lo, 2.0);
        assert_eq!(b.x_hi, 4.0);
        assert_eq!(b.y_lo, 0.0, "zero baseline");
        assert_eq!(b.y_hi, 15.0);
        assert_eq!(b.fx(3.0), 0.5);
        assert_eq!(b.fy(15.0), 1.0);
    }

    #[test]
    fn svg_chart_is_self_contained() {
        let s = svg_chart(
            &[
                ("HLSRG <tags & quotes>", vec![(0.0, 1.0), (10.0, 4.0)]),
                ("RLSMP", vec![(0.0, 2.0), (10.0, 8.0)]),
            ],
            320,
            200,
        );
        assert!(s.starts_with("<svg "));
        assert!(s.trim_end().ends_with("</svg>"));
        assert_eq!(s.matches("<polyline").count(), 2);
        assert!(s.contains("&lt;tags &amp; quotes&gt;"), "names are escaped");
        // Self-containment: nothing that could fetch or execute.
        for forbidden in ["<script", "href=", "src=", "url(", "@import"] {
            assert!(!s.contains(forbidden), "found {forbidden}");
        }
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_svg_rejected() {
        svg_chart(&[("x", vec![(0.0, 0.0)])], 10, 10);
    }
}
