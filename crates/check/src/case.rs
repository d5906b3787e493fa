//! Deterministic fuzz cases: seeded random scenario knobs, shrinking, and a
//! replayable JSONL corpus format.
//!
//! A [`FuzzCase`] is the fuzzer's unit of work — a small bag of scenario knobs
//! drawn from a [`StreamId::Custom`] RNG stream so case `i` of master seed `s`
//! is identical on every machine and every run. The scenario crate converts a
//! case into a full `SimConfig`; this module only owns the knobs, the shrink
//! order, and the corpus encoding (hand-rolled JSON: the vendored serde is a
//! no-op stand-in), read back through `vanet_trace::jsonl`.

use rand::rngs::SmallRng;
use rand::RngExt;
use vanet_des::{stream_rng, StreamId};
use vanet_trace::jsonl::{self, JsonlError, LineError};

/// One fuzzer scenario: the knobs that vary across seeded runs.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzCase {
    /// Simulation master seed.
    pub seed: u64,
    /// Run RLSMP instead of HLSRG.
    pub rlsmp: bool,
    /// Square map edge, meters.
    pub map_size: f64,
    /// Vehicle count.
    pub vehicles: usize,
    /// Simulated duration, seconds.
    pub duration_s: u64,
    /// Warmup before queries start, seconds.
    pub warmup_s: u64,
    /// Fraction of vehicles that launch a query.
    pub query_fraction: f64,
    /// L1 grid edge, meters.
    pub l1_size: f64,
    /// Radio link reliability within range (1.0 = lossless).
    pub reliable_fraction: f64,
    /// Whether the RSU wired backbone is enabled (HLSRG only).
    pub wired_backbone: bool,
    /// Arm the deliberate location-table corruption hook (oracle self-test).
    pub corrupt: bool,
}

impl FuzzCase {
    /// Draws case number `ix` of the campaign keyed by `master_seed`.
    ///
    /// Every knob comes from the dedicated `StreamId::Custom(ix)` stream, so the
    /// case is a pure function of `(master_seed, ix)`.
    pub fn generate(master_seed: u64, ix: u64) -> FuzzCase {
        let mut rng: SmallRng = stream_rng(master_seed, StreamId::Custom(ix));
        FuzzCase {
            seed: rng.random(),
            rlsmp: rng.random_bool(0.5),
            map_size: *pick(&mut rng, &[1000.0, 1500.0, 2000.0, 3000.0]),
            vehicles: *pick(&mut rng, &[8, 16, 30, 60, 100]),
            duration_s: rng.random_range(20..=60),
            warmup_s: rng.random_range(5..=15),
            query_fraction: *pick(&mut rng, &[0.0, 0.05, 0.10, 0.25]),
            l1_size: *pick(&mut rng, &[250.0, 400.0, 500.0, 700.0]),
            reliable_fraction: *pick(&mut rng, &[0.85, 0.95, 1.0]),
            wired_backbone: rng.random_bool(0.8),
            corrupt: false,
        }
    }

    /// Candidate shrinks, most aggressive first. Every candidate strictly
    /// reduces some knob toward its minimum, so repeated rounds terminate.
    pub fn shrink_candidates(&self) -> Vec<FuzzCase> {
        let mut out = Vec::new();
        let mut push = |f: &dyn Fn(&mut FuzzCase)| {
            let mut c = self.clone();
            f(&mut c);
            if &c != self {
                out.push(c);
            }
        };
        push(&|c| c.vehicles = (c.vehicles / 2).max(4));
        push(&|c| c.duration_s = (c.duration_s / 2).max(15));
        push(&|c| c.map_size = (c.map_size / 2.0).max(1000.0));
        push(&|c| c.query_fraction = 0.0);
        push(&|c| c.reliable_fraction = 1.0);
        push(&|c| c.warmup_s = (c.warmup_s / 2).max(5));
        out
    }

    /// Encodes the case as one JSON line (the corpus format).
    pub fn to_jsonl(&self) -> String {
        format!(
            "{{\"seed\":{},\"rlsmp\":{},\"map_size\":{:?},\"vehicles\":{},\"duration_s\":{},\
             \"warmup_s\":{},\"query_fraction\":{:?},\"l1_size\":{:?},\
             \"reliable_fraction\":{:?},\"wired_backbone\":{},\"corrupt\":{}}}",
            self.seed,
            self.rlsmp,
            self.map_size,
            self.vehicles,
            self.duration_s,
            self.warmup_s,
            self.query_fraction,
            self.l1_size,
            self.reliable_fraction,
            self.wired_backbone,
            self.corrupt,
        )
    }

    /// Parses one corpus line produced by [`Self::to_jsonl`].
    pub fn parse_line(line: &str) -> Result<FuzzCase, JsonlError> {
        jsonl::decode(line, |obj| {
            Ok(FuzzCase {
                seed: obj.uint("seed")?,
                rlsmp: obj.bool("rlsmp")?,
                map_size: obj.f64("map_size")?,
                vehicles: obj.uint("vehicles")?,
                duration_s: obj.uint("duration_s")?,
                warmup_s: obj.uint("warmup_s")?,
                query_fraction: obj.f64("query_fraction")?,
                l1_size: obj.f64("l1_size")?,
                reliable_fraction: obj.f64("reliable_fraction")?,
                wired_backbone: obj.bool("wired_backbone")?,
                corrupt: obj.bool("corrupt")?,
            })
        })
    }

    /// A rough cost/size measure used by tests to confirm shrinking helps.
    pub fn weight(&self) -> f64 {
        self.vehicles as f64 * self.duration_s as f64 + self.map_size
    }
}

/// Parses a corpus: one case per line, skipping blank lines and `#` comments.
/// Any other line that is not a case is an error naming it.
pub fn parse_corpus(text: &str) -> Result<Vec<FuzzCase>, LineError> {
    jsonl::lines(text)
        .filter(|(_, line)| !line.starts_with('#'))
        .map(|(no, line)| {
            FuzzCase::parse_line(line)
                .map_err(|e| LineError::record(no, "not a valid fuzz case", line, e))
        })
        .collect()
}

/// Uniform choice from a fixed slate (SmallRng has no slice helper).
fn pick<'a, T>(rng: &mut SmallRng, options: &'a [T]) -> &'a T {
    &options[rng.random_range(0..options.len())]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_varies_by_index() {
        let a = FuzzCase::generate(42, 7);
        let b = FuzzCase::generate(42, 7);
        assert_eq!(a, b);
        let cases: Vec<FuzzCase> = (0..16).map(|i| FuzzCase::generate(42, i)).collect();
        assert!(
            cases.windows(2).any(|w| w[0] != w[1]),
            "16 consecutive cases were all identical"
        );
    }

    #[test]
    fn corpus_lines_round_trip() {
        for i in 0..32 {
            let mut case = FuzzCase::generate(99, i);
            case.corrupt = i % 3 == 0;
            let line = case.to_jsonl();
            assert_eq!(FuzzCase::parse_line(&line), Ok(case), "line: {line}");
        }
        for line in ["", "# comment", "{\"seed\":1}", "not json"] {
            assert!(FuzzCase::parse_line(line).is_err(), "{line:?}");
        }
        // Every key is required once: ten keys with one repeated is not a case.
        let line = FuzzCase::generate(99, 0).to_jsonl();
        let no_seed = line.replacen("\"seed\":", "\"vehicles\":", 1);
        assert_eq!(
            FuzzCase::parse_line(&no_seed),
            Err(JsonlError::Duplicate("vehicles".into()))
        );
        // A 20-digit seed keeps its exact value; one past u64::MAX is an error.
        let mut case = FuzzCase::generate(99, 1);
        case.seed = u64::MAX - 2;
        assert_eq!(FuzzCase::parse_line(&case.to_jsonl()), Ok(case.clone()));
        let over = case
            .to_jsonl()
            .replace("18446744073709551613", "18446744073709551616");
        assert!(matches!(
            FuzzCase::parse_line(&over),
            Err(JsonlError::Invalid(key, _)) if key == "seed"
        ));
    }

    #[test]
    fn corpus_skips_comments_and_names_a_bad_line() {
        let case = FuzzCase::generate(3, 0);
        let text = format!("# header\n\n{}\n", case.to_jsonl());
        assert_eq!(parse_corpus(&text), Ok(vec![case.clone()]));
        let text = format!("{}\n{{\"seed\":\"x\"}}\n", case.to_jsonl());
        let err = parse_corpus(&text).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.reason.contains("key \"seed\""), "{}", err.reason);
    }

    #[test]
    fn shrinking_terminates_at_a_fixed_point() {
        let mut case = FuzzCase::generate(1, 3);
        let mut rounds = 0;
        while let Some(next) = case.shrink_candidates().into_iter().next() {
            assert!(next.weight() <= case.weight());
            case = next;
            rounds += 1;
            assert!(rounds < 64, "shrinking did not converge");
        }
        assert!(case.shrink_candidates().len() < 6);
    }

    #[test]
    fn generated_knobs_stay_in_range() {
        for i in 0..64 {
            let c = FuzzCase::generate(7, i);
            assert!((1000.0..=3000.0).contains(&c.map_size));
            assert!((8..=100).contains(&c.vehicles));
            assert!((20..=60).contains(&c.duration_s));
            assert!((5..=15).contains(&c.warmup_s));
            assert!((0.0..=0.25).contains(&c.query_fraction));
            assert!((250.0..=700.0).contains(&c.l1_size));
            assert!((0.85..=1.0).contains(&c.reliable_fraction));
            assert!(c.warmup_s < c.duration_s);
            assert!(!c.corrupt);
        }
    }
}
