//! The correctness oracle.
//!
//! Two independent checks:
//!
//! 1. every response body must equal, byte for byte, a reference body
//!    computed in-process with `pp_server::execute`/`execute_stream`
//!    outside the timed window (reports are deterministic by contract);
//! 2. every reference report is read back with the benchmark's own JSON
//!    parser and checked against the benchmark's own evaluation of the
//!    predicate on the counts it sent (`ground_truth`, `counts`,
//!    `population`), and for single runs that a stabilized run ended with
//!    every agent on the right output.

use pp_core::spec::RunSpec;
use pp_server::{CompiledCache, ExecOptions};

use crate::gen::Item;
use crate::json::{self, Json};

/// What a reference body says about the work it did.
#[derive(Debug, Clone, Default)]
pub struct Facts {
    /// `steps` of a single run.
    pub steps: Option<u64>,
    /// `stabilized_at` of a single run.
    pub stabilized_at: Option<u64>,
    /// Accepted + rejected RK45 steps of a mean-field run.
    pub rk_steps: Option<u64>,
    /// JSONL event lines of a streamed run.
    pub events: Option<u64>,
}

/// The server's handler path, in-process: parse, execute, render.
pub fn serve_in_process(
    body: &str,
    stream: bool,
    cache: &CompiledCache,
) -> Result<Vec<u8>, String> {
    let spec = RunSpec::from_json(body).map_err(|e| format!("parse: {e}"))?;
    let opts = ExecOptions::default();
    if stream {
        let mut out = Vec::new();
        pp_server::execute_stream(&spec, cache, &opts, &mut out).map_err(|e| e.to_string())?;
        Ok(out)
    } else {
        let (report, _) = pp_server::execute(&spec, cache, &opts).map_err(|e| e.to_string())?;
        Ok(report.to_json().into_bytes())
    }
}

/// Reads a reference body and checks it against the benchmark's own
/// evaluation of the request.
pub fn verify(item: &Item, body: &[u8]) -> Result<Facts, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let mut facts = Facts::default();
    let report_line = if item.stream {
        let lines: Vec<&str> = text.trim_end_matches('\n').split('\n').collect();
        if lines.len() < 2 {
            return Err("stream body has no summary line".to_string());
        }
        let summary = json::parse(lines[lines.len() - 2])?;
        let written = summary.get("lines_written").and_then(Json::u64);
        let events = lines.len() as u64 - 2;
        if summary.get("ev").and_then(Json::str) != Some("summary") || written != Some(events) {
            return Err(format!(
                "stream summary {written:?} does not match {events} event lines"
            ));
        }
        facts.events = Some(events);
        lines[lines.len() - 1]
    } else {
        text
    };
    let report = json::parse(report_line)?;
    if report.get("schema").and_then(Json::str) != Some("pp-run/v1") {
        return Err("not a pp-run/v1 report".to_string());
    }

    let truth = item.pred.eval(&item.population);
    if report.get("ground_truth") != Some(&Json::Bool(truth)) {
        return Err(format!("ground_truth is not {truth}"));
    }
    let n: u64 = item.population.iter().map(|(_, c)| c).sum();
    if report.get("population").and_then(Json::u64) != Some(n) {
        return Err(format!("population is not {n}"));
    }
    let (Some(Json::Arr(symbols)), Some(Json::Arr(counts))) =
        (report.get("symbols"), report.get("counts"))
    else {
        return Err("symbols/counts missing".to_string());
    };
    for (sym, c) in &item.population {
        let at = symbols.iter().position(|s| s.str() == Some(sym));
        if at.and_then(|i| counts.get(i)).and_then(Json::u64) != Some(*c) {
            return Err(format!("count of symbol {sym:?} is not {c}"));
        }
    }

    let result = report.get("result").ok_or("no result")?;
    match result.get("kind").and_then(Json::str) {
        Some("single") => {
            let steps = result.get("steps").and_then(Json::u64).ok_or("no steps")?;
            let horizon = result
                .get("horizon")
                .and_then(Json::u64)
                .ok_or("no horizon")?;
            if steps > horizon {
                return Err(format!("ran {steps} steps past horizon {horizon}"));
            }
            let stab = result.get("stabilized_at").and_then(Json::u64);
            if let Some(at) = stab {
                let want = Json::Obj([(truth.to_string(), Json::Num(n as f64))].into());
                if at > steps || result.get("outputs") != Some(&want) {
                    return Err(format!(
                        "stabilized at {at} but outputs are not all {truth}"
                    ));
                }
            }
            facts.steps = Some(steps);
            facts.stabilized_at = stab;
        }
        Some("ensemble") => {
            let trials = result.at(&["report", "trials"]).and_then(Json::u64);
            let converged = result.at(&["report", "converged"]).and_then(Json::u64);
            if !matches!((trials, converged), (Some(t), Some(c)) if c <= t && t >= 2) {
                return Err("ensemble trial counts are inconsistent".to_string());
            }
        }
        Some("faults") => {
            let trials = result.get("trials").and_then(Json::u64);
            let recovered = result.get("recovered").and_then(Json::u64);
            if !matches!((trials, recovered), (Some(t), Some(r)) if r <= t) {
                return Err("fault trial counts are inconsistent".to_string());
            }
        }
        Some("mean-field") => {
            let Some(Json::Arr(fr)) = result.get("terminal_fractions") else {
                return Err("no terminal_fractions".to_string());
            };
            let total: f64 = fr.iter().filter_map(Json::num).sum();
            if (total - 1.0).abs() > 1e-6 {
                return Err(format!("terminal fractions sum to {total}"));
            }
            let acc = result.get("accepted_steps").and_then(Json::u64);
            let rej = result.get("rejected_steps").and_then(Json::u64);
            facts.rk_steps = acc.zip(rej).map(|(a, r)| a + r);
            if facts.rk_steps.is_none() {
                return Err("no RK step counts".to_string());
            }
        }
        other => return Err(format!("unexpected result kind {other:?}")),
    }
    Ok(facts)
}

/// Reference bodies and facts for every distinct item, computed with a
/// cache of their own.
pub struct References {
    pub bodies: Vec<Vec<u8>>,
    pub facts: Vec<Facts>,
    /// One line per item that failed to run or to verify.
    pub errors: Vec<String>,
}

pub fn references(items: &[Item]) -> References {
    let cache = CompiledCache::new();
    let mut out = References {
        bodies: Vec::new(),
        facts: Vec::new(),
        errors: Vec::new(),
    };
    for (i, item) in items.iter().enumerate() {
        let (body, facts) = match serve_in_process(&item.body, item.stream, &cache)
            .and_then(|b| verify(item, &b).map(|f| (b, f)))
        {
            Ok(x) => x,
            Err(e) => {
                out.errors
                    .push(format!("item {i} ({}): {e}: {}", item.class, item.body));
                (Vec::new(), Facts::default())
            }
        };
        out.bodies.push(body);
        out.facts.push(facts);
    }
    out
}

/// A response counts as correct only with status 200 and the reference
/// bytes.
pub fn accept(status: u16, body: &[u8], reference: &[u8]) -> bool {
    status == 200 && !reference.is_empty() && body == reference
}

/// Self-check: a one-byte corruption of a correct body must be counted
/// as failed.
pub fn corruption_detected(reference: &[u8]) -> bool {
    if reference.is_empty() || !accept(200, reference, reference) {
        return false;
    }
    let mut bad = reference.to_vec();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x01;
    !accept(200, &bad, reference)
}
