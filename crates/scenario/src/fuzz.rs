//! The deterministic scenario fuzzer.
//!
//! Drives [`FuzzCase`]s — seeded random scenario knobs from
//! `StreamId::Custom` streams — through [`run_simulation_checked`] with the
//! invariant oracle armed. A failing case (violation **or** panic) is greedily
//! shrunk to a minimal reproducer; both the original and the shrunk case are
//! written to a JSONL corpus that `fuzz --replay FILE` re-runs verbatim.

use crate::config::{Protocol, SimConfig};
use crate::runner::{run_simulation_checked, CheckSetup};
use vanet_check::{parse_corpus, FuzzCase};
use vanet_des::{SimDuration, SimTime};
use vanet_trace::LineError;

/// One fuzzer failure: the case as generated, its shrunk minimal form, and what
/// the oracle (or panic) said.
#[derive(Debug)]
pub struct FuzzFailure {
    /// Campaign index of the failing case.
    pub ix: u64,
    /// The case exactly as generated.
    pub case: FuzzCase,
    /// The greedily shrunk minimal reproducer.
    pub shrunk: FuzzCase,
    /// Violated invariant name (or `"panic"`).
    pub invariant: String,
    /// Violation detail / panic message.
    pub detail: String,
}

/// Builds the full simulation config a case stands for.
pub fn config_of_case(case: &FuzzCase) -> SimConfig {
    let mut cfg = SimConfig::paper_fig3_2(case.map_size, case.vehicles, case.seed);
    cfg.duration = SimDuration::from_secs(case.duration_s);
    cfg.warmup = SimDuration::from_secs(case.warmup_s);
    cfg.query_fraction = case.query_fraction;
    cfg.l1_size = case.l1_size;
    cfg.radio.reliable_fraction = case.reliable_fraction;
    cfg.wired_backbone = case.wired_backbone;
    cfg
}

/// The protocol a case runs.
pub fn protocol_of_case(case: &FuzzCase) -> Protocol {
    if case.rlsmp {
        Protocol::Rlsmp
    } else {
        Protocol::Hlsrg
    }
}

/// Runs one case with the oracle armed; `Some((invariant, detail))` on failure.
///
/// Panics (e.g. the network core's inline GPSR assertions, or index bugs the
/// fuzzer exists to find) are caught and reported like violations so a fuzzing
/// campaign always finishes and can shrink what it found.
pub fn run_case(case: &FuzzCase) -> Option<(String, String)> {
    let cfg = config_of_case(case);
    let setup = CheckSetup {
        corrupt_at: case.corrupt.then(|| SimTime::ZERO + cfg.warmup),
        ..CheckSetup::default()
    };
    let protocol = protocol_of_case(case);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_simulation_checked(&cfg, protocol, &setup)
    }));
    match outcome {
        Ok((_, None)) => None,
        Ok((_, Some(v))) => Some((v.invariant.to_string(), v.detail)),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            Some(("panic".to_string(), msg.to_string()))
        }
    }
}

/// Greedy shrink: repeatedly adopts the first candidate that still fails, until
/// no candidate does. Every candidate strictly reduces a knob, so this
/// terminates.
pub fn shrink(case: &FuzzCase) -> FuzzCase {
    let mut best = case.clone();
    loop {
        let mut improved = false;
        for candidate in best.shrink_candidates() {
            if run_case(&candidate).is_some() {
                best = candidate;
                improved = true;
                break;
            }
        }
        if !improved {
            return best;
        }
    }
}

/// Runs a whole campaign: `runs` cases drawn from `master_seed`, each reported
/// through `progress(ix, case, failed)`. Failing cases are shrunk before being
/// returned.
pub fn fuzz_campaign(
    master_seed: u64,
    runs: u64,
    corrupt: bool,
    mut progress: impl FnMut(u64, &FuzzCase, bool),
) -> Vec<FuzzFailure> {
    let mut failures = Vec::new();
    for ix in 0..runs {
        let mut case = FuzzCase::generate(master_seed, ix);
        case.corrupt = corrupt;
        let failed = run_case(&case);
        progress(ix, &case, failed.is_some());
        if let Some((invariant, detail)) = failed {
            let shrunk = shrink(&case);
            failures.push(FuzzFailure {
                ix,
                case,
                shrunk,
                invariant,
                detail,
            });
        }
    }
    failures
}

/// [`fuzz_campaign`] fanned out over the shared job pool: cases run in
/// parallel (each owns its whole simulated world), failures are shrunk
/// serially afterwards, and the returned list is in campaign-index order —
/// bit-identical to a 1-thread run no matter the pool width.
pub fn fuzz_campaign_pooled(
    master_seed: u64,
    runs: u64,
    corrupt: bool,
    threads: usize,
) -> Vec<FuzzFailure> {
    let pool = crate::pool::JobPool::new(threads);
    let outcomes = pool.run(runs as usize, |ix| {
        let mut case = FuzzCase::generate(master_seed, ix as u64);
        case.corrupt = corrupt;
        let failed = run_case(&case);
        (case, failed)
    });
    outcomes
        .into_iter()
        .enumerate()
        .filter_map(|(ix, (case, failed))| {
            failed.map(|(invariant, detail)| {
                let shrunk = shrink(&case);
                FuzzFailure {
                    ix: ix as u64,
                    case,
                    shrunk,
                    invariant,
                    detail,
                }
            })
        })
        .collect()
}

/// Serializes failures as a replayable corpus: the original case then its
/// shrunk form, one JSON line each.
pub fn corpus_of(failures: &[FuzzFailure]) -> String {
    let mut out = String::new();
    for f in failures {
        out.push_str(&format!(
            "# case {} failed: {}: {}\n{}\n# shrunk reproducer:\n{}\n",
            f.ix,
            f.invariant,
            f.detail,
            f.case.to_jsonl(),
            f.shrunk.to_jsonl()
        ));
    }
    out
}

/// Replays a corpus: every case line is re-run with the oracle armed.
/// Returns `(case, outcome)` per case, in file order, or the first line that
/// is neither a case, a `#` comment nor blank (before running anything).
#[allow(clippy::type_complexity)]
pub fn replay(text: &str) -> Result<Vec<(FuzzCase, Option<(String, String)>)>, LineError> {
    Ok(parse_corpus(text)?
        .into_iter()
        .map(|case| {
            let outcome = run_case(&case);
            (case, outcome)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A quiet panic hook scope: the corruption self-test expects panics from
    /// deep inside the stack; the default hook would spam stderr.
    fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = f();
        std::panic::set_hook(hook);
        r
    }

    #[test]
    fn clean_cases_pass_the_oracle() {
        // A handful of seeded cases with no corruption: the oracle must stay
        // silent (this is the fuzzer's steady-state smoke path).
        let failures = fuzz_campaign(0xFEED, 3, false, |_, _, _| {});
        assert!(
            failures.is_empty(),
            "oracle flagged a clean run: {:?}",
            failures
                .iter()
                .map(|f| (&f.invariant, &f.detail))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn pooled_campaign_matches_serial_on_clean_cases() {
        // Same master seed, same cases; the pool width must not change what a
        // campaign reports (clean here, so both stay empty — the corrupt path
        // shares run_case/shrink with the serial campaign verbatim).
        let serial = fuzz_campaign(0xFEED, 4, false, |_, _, _| {});
        for threads in [1, 4] {
            let pooled = fuzz_campaign_pooled(0xFEED, 4, false, threads);
            assert_eq!(pooled.len(), serial.len());
        }
    }

    #[test]
    fn corrupted_tables_are_caught_and_shrunk_within_200_runs() {
        // The mutation demo: arm the deliberate location-table corruption and
        // require the campaign to catch it well within 200 seeded runs, then
        // shrink the case to a minimal config that still reproduces.
        with_quiet_panics(|| {
            let mut caught = None;
            for ix in 0..200 {
                let mut case = FuzzCase::generate(0xBAD_5EED, ix);
                case.corrupt = true;
                if let Some((invariant, detail)) = run_case(&case) {
                    caught = Some((ix, case, invariant, detail));
                    break;
                }
            }
            let (ix, case, invariant, detail) =
                caught.expect("corruption went undetected for 200 seeded runs");
            assert!(ix < 200);
            assert_eq!(
                invariant, "table-soundness",
                "wrong invariant caught the corruption: {invariant}: {detail}"
            );
            assert!(
                detail.contains("drifted") || detail.contains("maps to"),
                "unexpected detail: {detail}"
            );

            // Shrinking keeps the failure and never grows the case.
            let shrunk = shrink(&case);
            assert!(run_case(&shrunk).is_some(), "shrunk case no longer fails");
            assert!(shrunk.weight() <= case.weight());
            assert!(shrunk.vehicles <= case.vehicles);
            assert!(shrunk.duration_s <= case.duration_s);
            // A shrunk reproducer replays from its corpus line.
            let line = shrunk.to_jsonl();
            let replayed = replay(&line).expect("a corpus line parses");
            assert_eq!(replayed.len(), 1);
            assert!(replayed[0].1.is_some(), "replay of the reproducer passed");
        });
    }

    #[test]
    fn corpus_round_trips_through_replay_parsing() {
        let mut a = FuzzCase::generate(5, 0);
        a.corrupt = true;
        let failure = FuzzFailure {
            ix: 0,
            case: a.clone(),
            shrunk: a.clone(),
            invariant: "table-soundness".into(),
            detail: "demo".into(),
        };
        let corpus = corpus_of(std::slice::from_ref(&failure));
        assert_eq!(parse_corpus(&corpus), Ok(vec![a.clone(), a]));
    }
}
