//! `pp-perfbench`: the repository benchmark.
//!
//! ```text
//! pp-perfbench --workload small_mix|large_population|stream_trace
//!              --seed N --seconds S --trace 0|1 --server PATH
//!              [--spans PATH] [--clk-tck HZ]
//! ```
//!
//! `--trace 0` drives a `pp-server` child over loopback with the seeded
//! workload in a closed loop and reports the end-to-end metrics.
//! `--trace 1` replays the same requests in-process with spans around each
//! layer and reports the per-layer metrics. Either way every response is
//! checked against the oracle, a human-readable table goes to stdout, and
//! the last stdout line is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.

mod gen;
mod http;
mod json;
mod oracle;
mod trace;

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use pp_server::CompiledCache;

use crate::gen::Workload;
use crate::http::ServerProc;
use crate::oracle::References;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    spans: Option<PathBuf>,
    clk_tck: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        server: PathBuf::new(),
        spans: None,
        clk_tck: 100.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: bad number {v:?}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => {
                a.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: bad integer {v:?}"))?
            }
            "--seconds" => a.seconds = num(&v)?,
            "--trace" => a.trace = v != "0",
            "--server" => a.server = PathBuf::from(v),
            "--spans" => a.spans = Some(PathBuf::from(v)),
            "--clk-tck" => a.clk_tck = num(&v)?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if a.server.as_os_str().is_empty() {
        return Err("--server is required".to_string());
    }
    Ok(a)
}

/// Collected metrics, printed as a table and as the final JSON line.
struct Report {
    metrics: Vec<(&'static str, f64, &'static str, String)>,
    /// Table lines printed after the metrics.
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Report {
    fn new() -> Self {
        Report {
            metrics: Vec::new(),
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    fn put(&mut self, name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push((name, value, unit, note.into()));
    }

    fn finish(mut self, w: &Workload) -> bool {
        for (name, value, _, _) in &self.metrics {
            if !value.is_finite() {
                self.problems
                    .push(format!("{name} is undefined on this run"));
            }
        }
        let correct = self.problems.is_empty() && self.failed == 0 && self.attempted > 0;
        println!(
            "workload {} seed {} ({} distinct specs)",
            w.name,
            w.seed,
            w.items.len()
        );
        for (name, value, unit, note) in &self.metrics {
            println!("  {name:<40} {value:>14.4} {unit:<6} {note}");
        }
        for line in &self.notes {
            println!("{line}");
        }
        for p in &self.problems {
            println!("  PROBLEM: {p}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit, _)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    finite(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(",")
        );
        correct
    }
}

fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        -1.0
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pp-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = gen::generate(&args.workload, args.seed) else {
        eprintln!(
            "pp-perfbench: unknown workload {:?}; one of {:?}",
            args.workload,
            gen::WORKLOADS
        );
        std::process::exit(2);
    };
    // References and oracle checks run before anything is timed.
    let refs = oracle::references(&w.items);
    let mut report = Report::new();
    report.problems.extend(refs.errors.iter().take(5).cloned());
    if !refs.errors.is_empty() {
        report.problems.push(format!(
            "{} distinct specs failed the oracle",
            refs.errors.len()
        ));
    }
    if !oracle::corruption_detected(&refs.bodies[w.seq[0]]) {
        report
            .problems
            .push("a one-byte corruption was not counted as failed".to_string());
    }
    let run = if args.trace {
        traced(&args, &w, &refs, &mut report)
    } else {
        end_to_end(&args, &w, &refs, &mut report)
    };
    if let Err(e) = run {
        report.problems.push(e);
    }
    let ok = report.finish(&w);
    std::process::exit(if ok { 0 } else { 1 });
}

// ---------------------------------------------------------------------------
// End-to-end run
// ---------------------------------------------------------------------------

/// Launch-to-ready plus the warm-up pass (compile, drift and graph caches
/// filled), on a fresh server.
fn set_up(args: &Args, warm: &[String]) -> Result<(ServerProc, f64), String> {
    let t0 = Instant::now();
    let server = ServerProc::launch(&args.server).map_err(|e| format!("launch: {e}"))?;
    for body in warm {
        let r = http::request(server.addr, "POST", "/v1/run", body.as_bytes())
            .map_err(|e| format!("warm-up: {e}"))?;
        if r.status != 200 {
            return Err(format!(
                "warm-up got {}: {}",
                r.status,
                String::from_utf8_lossy(&r.body)
            ));
        }
    }
    Ok((server, t0.elapsed().as_secs_f64()))
}

struct Sample {
    ms: f64,
    ok: bool,
    elapsed_us: Option<u64>,
    cache: Option<String>,
}

/// Nearest-rank quantile of sorted `xs`, and how many samples lie beyond it.
fn quantile(sorted: &[f64], q: f64) -> (f64, usize) {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// Median; NaN (reported as a problem) for no samples.
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Set-ups before and after the measured window: two bursts a window
/// apart, so one slow spell on the host does not set the median.
const SETUPS_BEFORE: usize = 7;
const SETUPS_AFTER: usize = 8;

/// The window is cut into this many equal slices; `peak_rss_mb` is the
/// median of their peaks. The peak of the whole window is set by the rare
/// moments when two large requests happen to overlap, so it jumps from run
/// to run; the slice median is the peak a typical second of the load
/// reaches.
const RSS_SLICES: u32 = 30;

/// Samples the server's peak RSS once per slice until `deadline`,
/// resetting it after each read; in MiB.
fn slice_peaks(server: &ServerProc, start: Instant, deadline: Instant) -> Result<Vec<f64>, String> {
    let slice = (deadline - start) / RSS_SLICES;
    let mut peaks = Vec::with_capacity(RSS_SLICES as usize);
    server
        .reset_peak_rss()
        .map_err(|e| format!("reset VmHWM: {e}"))?;
    for k in 1..=RSS_SLICES {
        std::thread::sleep((start + slice * k).saturating_duration_since(Instant::now()));
        let kib = server.peak_rss_kib().map_err(|e| e.to_string())?;
        server
            .reset_peak_rss()
            .map_err(|e| format!("reset VmHWM: {e}"))?;
        peaks.push(kib as f64 / 1024.0);
    }
    Ok(peaks)
}

fn end_to_end(
    args: &Args,
    w: &Workload,
    refs: &References,
    report: &mut Report,
) -> Result<(), String> {
    let warm = w.warmup();
    let mut setups = Vec::with_capacity(SETUPS_BEFORE + SETUPS_AFTER);
    let mut server = None;
    for _ in 0..SETUPS_BEFORE {
        drop(server.take());
        let (s, secs) = set_up(args, &warm)?;
        setups.push(secs);
        server = Some(s);
    }
    let server = server.expect("at least one set-up");

    let cpu0 = server.cpu_ticks().map_err(|e| e.to_string())?;
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let (samples, peaks): (Vec<Sample>, _) = std::thread::scope(|s| {
        let rss = s.spawn(|| slice_peaks(&server, start, deadline));
        let clients: Vec<_> = (0..w.clients)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    while Instant::now() < deadline {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&item) = w.seq.get(i) else { break };
                        let path = if w.items[item].stream {
                            "/v1/stream"
                        } else {
                            "/v1/run"
                        };
                        let t = Instant::now();
                        let resp =
                            http::request(server.addr, "POST", path, w.items[item].body.as_bytes());
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        out.push(match resp {
                            Ok(r) => Sample {
                                ms,
                                ok: oracle::accept(r.status, &r.body, &refs.bodies[item]),
                                elapsed_us: r.elapsed_us,
                                cache: r.cache,
                            },
                            Err(_) => Sample {
                                ms,
                                ok: false,
                                elapsed_us: None,
                                cache: None,
                            },
                        });
                    }
                    out
                })
            })
            .collect();
        let samples = clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect();
        (samples, rss.join().expect("RSS sampler thread"))
    });
    let wall = start.elapsed().as_secs_f64();
    let cpu1 = server.cpu_ticks().map_err(|e| e.to_string())?;
    let mut peaks = peaks?;
    let window_peak = peaks.iter().copied().fold(0.0, f64::max);
    drop(server);
    for _ in 0..SETUPS_AFTER {
        setups.push(set_up(args, &warm)?.1);
    }

    let attempted = samples.len();
    let ok = samples.iter().filter(|s| s.ok).count();
    report.attempted = attempted as u64;
    report.failed = (attempted - ok) as u64;
    if attempted == 0 {
        return Err("no request completed".to_string());
    }
    let mut lat: Vec<f64> = samples
        .iter()
        .map(|s| if s.ok { s.ms } else { f64::INFINITY })
        .collect();
    lat.sort_by(f64::total_cmp);
    let (p50, _) = quantile(&lat, 0.5);
    let (p90, beyond) = quantile(&lat, 0.9);
    if beyond < 10 {
        report.problems.push(format!(
            "only {beyond} samples beyond p90; the run is too short for it"
        ));
    }
    let (hits, misses) = samples
        .iter()
        .fold((0, 0), |(h, m), s| match s.cache.as_deref() {
            Some("hit") => (h + 1, m),
            Some("miss") => (h, m + 1),
            _ => (h, m),
        });
    let server_ms: f64 = samples.iter().filter_map(|s| s.elapsed_us).sum::<u64>() as f64 / 1e3;

    let n = format!("n={attempted}");
    report.put(
        "throughput_rps",
        ok as f64 / wall,
        "1/s",
        format!("{n}, {} clients, {wall:.2} s", w.clients),
    );
    report.put("latency_p50_ms", p50, "ms", &n);
    report.put("latency_p90_ms", p90, "ms", format!("{n}, {beyond} beyond"));
    report.put(
        "cpu_ms_per_request",
        (cpu1 - cpu0) as f64 / args.clk_tck * 1e3 / ok.max(1) as f64,
        "ms",
        format!("{} ticks over {ok} requests", cpu1 - cpu0),
    );
    report.put(
        "peak_rss_mb",
        median(&mut peaks),
        "MB",
        format!(
            "median of {RSS_SLICES} slice peaks (VmHWM, reset each slice); window peak {window_peak:.1} MB"
        ),
    );
    report.put(
        "setup_s",
        median(&mut setups),
        "s",
        format!(
            "median of {} set-ups, {} warm-up requests each",
            setups.len(),
            warm.len()
        ),
    );
    // Printed but not a BENCHMARK.json metric: it is 0 on a correct
    // program, and a failure already makes the result's `correct` false.
    report.notes.push(format!(
        "  {:<40} {:>14.4} {:<6} {} of {attempted} failed",
        "failed_ratio",
        report.failed as f64 / attempted as f64,
        "ratio",
        report.failed
    ));
    report.notes.push(format!(
        "  compile cache {hits} hits / {misses} misses; server busy {server_ms:.0} ms"
    ));
    Ok(())
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

/// Share of `--seconds` for the loopback phase; the in-process phase
/// gets twice it.
const PHASE_SHARE: f64 = 0.3;

fn traced(args: &Args, w: &Workload, refs: &References, report: &mut Report) -> Result<(), String> {
    let phase = Duration::from_secs_f64(args.seconds * PHASE_SHARE);
    let min_requests = w.block;
    let warm_cache = || {
        let cache = CompiledCache::new();
        for body in w.warmup() {
            let _ = oracle::serve_in_process(&body, false, &cache);
        }
        cache
    };
    let mut failed = 0u64;

    // In-process phase: each request runs untraced (the server's handler
    // path) and traced, on caches of their own, alternating which goes
    // first, so drift in the host's speed hits both alike.
    let (plain_cache, traced_cache) = (warm_cache(), warm_cache());
    let mut tracer = trace::Tracer::new();
    let mut untraced_ns = Vec::new();
    let mut traced = Vec::new();
    let start = Instant::now();
    while traced.len() < min_requests || start.elapsed() < 2 * phase {
        let req = traced.len();
        let Some(&item) = w.seq.get(req) else {
            break;
        };
        let it = &w.items[item];
        let mut plain = || {
            let t = Instant::now();
            let body = oracle::serve_in_process(&it.body, it.stream, &plain_cache);
            untraced_ns.push(t.elapsed().as_nanos() as u64);
            u64::from(!body.is_ok_and(|b| oracle::accept(200, &b, &refs.bodies[item])))
        };
        if req % 2 == 1 {
            failed += plain();
        }
        match trace::request(&mut tracer, req, it, &traced_cache) {
            Ok(t) => {
                failed += u64::from(!oracle::accept(200, &t.body, &refs.bodies[item]));
                traced.push(Some(t));
            }
            Err(e) => {
                failed += 1;
                report.problems.push(format!("traced request {req}: {e}"));
                traced.push(None);
            }
        }
        if req % 2 == 0 {
            failed += plain();
        }
    }
    let count = traced.len();

    // Loopback phase: one request per replayed spec, on a warm server.
    let (server, _) = set_up(args, &w.warmup())?;
    let mut http = Vec::new();
    let mut sent = 0;
    let start = Instant::now();
    for &item in &w.seq {
        if sent >= min_requests && start.elapsed() >= phase {
            break;
        }
        sent += 1;
        let it = &w.items[item];
        let path = if it.stream { "/v1/stream" } else { "/v1/run" };
        let t = Instant::now();
        let resp = http::request(server.addr, "POST", path, it.body.as_bytes());
        let rtt_us = t.elapsed().as_secs_f64() * 1e6;
        match resp {
            Ok(r) if oracle::accept(r.status, &r.body, &refs.bodies[item]) => http.push((
                rtt_us,
                r.elapsed_us.unwrap_or(0) as f64,
                r.body.len(),
                r.cache,
            )),
            _ => failed += 1,
        }
    }
    drop(server);
    report.attempted = (2 * count + sent) as u64;
    report.failed = failed;

    if let Some(path) = &args.spans {
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        tracer
            .write_jsonl(&mut out)
            .and_then(|()| std::io::Write::flush(&mut out))
            .map_err(|e| e.to_string())?;
    }
    layer_metrics(w, refs, &tracer, &traced, &untraced_ns, &http, report);
    Ok(())
}

type HttpSample = (f64, f64, usize, Option<String>);

fn layer_metrics(
    w: &Workload,
    refs: &References,
    tracer: &trace::Tracer,
    traced: &[Option<trace::Traced>],
    untraced_ns: &[u64],
    http: &[HttpSample],
    report: &mut Report,
) {
    let count = traced.len();
    let own = tracer.self_ns();
    // Per request: summed self time of each named span.
    let mut per_req: Vec<std::collections::HashMap<&str, u64>> = vec![Default::default(); count];
    for (s, ns) in tracer.spans.iter().zip(&own) {
        *per_req[s.req].entry(s.name).or_default() += ns;
    }
    let get = |r: usize, name: &str| per_req[r].get(name).copied().unwrap_or(0);
    let us = |ns: u64| ns as f64 / 1e3;
    let mean = |xs: &[f64]| {
        if xs.is_empty() {
            f64::NAN
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    let items: Vec<&gen::Item> = w.seq[..count].iter().map(|&i| &w.items[i]).collect();

    // The stream split: engine time is the probe-free twin's time.
    let engine_ns = |r: usize| -> Option<u64> {
        if items[r].stream {
            Some(get(r, "engine.twin").min(get(r, "probe")))
        } else if per_req[r].contains_key("engine") {
            Some(get(r, "engine"))
        } else {
            None
        }
    };

    let parse: Vec<f64> = (0..count).map(|r| us(get(r, "spec.parse"))).collect();
    report.put(
        "spec.parse_us",
        mean(&parse),
        "us",
        format!("mean of {count} requests"),
    );

    let resolve: Vec<f64> = (0..count)
        .filter(|&r| per_req[r].contains_key("resolve"))
        .map(|r| us(get(r, "resolve")))
        .collect();
    report.put(
        "resolve.us",
        mean(&resolve),
        "us",
        format!("mean of {} named count-engine requests", resolve.len()),
    );

    let cold: Vec<f64> = (0..count)
        .filter(|&r| traced[r].as_ref().is_some_and(|t| t.compile_miss))
        .map(|r| us(get(r, "compile")))
        .collect();
    report.put(
        "compile.cold_us",
        mean(&cold),
        "us",
        format!("mean of {} cache misses", cold.len()),
    );
    let (hits, misses) = http
        .iter()
        .fold((0u64, 0u64), |(h, m), s| match s.3.as_deref() {
            Some("hit") => (h + 1, m),
            Some("miss") => (h, m + 1),
            _ => (h, m),
        });
    report.put(
        "compile.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        format!(
            "{hits} hits / {} formula requests (X-PP-Cache)",
            hits + misses
        ),
    );

    let engine: Vec<f64> = (0..count).filter_map(engine_ns).map(us).collect();
    report.put(
        "engine.us",
        mean(&engine),
        "us",
        format!("mean of {} requests", engine.len()),
    );

    // Work counts over the pools (each distinct spec once); fresh formulas
    // are excluded because a run uses only a prefix of them.
    let singles: Vec<usize> = (0..w.items.len())
        .filter(|&i| w.items[i].class != "formula.fresh" && refs.facts[i].steps.is_some())
        .collect();
    let steps: u64 = singles
        .iter()
        .map(|&i| refs.facts[i].steps.unwrap_or(0))
        .sum();
    report.put(
        "engine.interactions",
        steps as f64,
        "count",
        format!(
            "sum of steps over {} distinct pool single runs",
            singles.len()
        ),
    );
    let (useful, attempted) = singles
        .iter()
        .filter_map(|&i| refs.facts[i].stabilized_at.zip(refs.facts[i].steps))
        .fold((0u64, 0u64), |(u, a), (s, t)| (u + s, a + t));
    let stabilized = singles
        .iter()
        .filter(|&&i| refs.facts[i].stabilized_at.is_some())
        .count();
    report.put(
        "engine.useful_ratio",
        useful as f64 / attempted.max(1) as f64,
        "ratio",
        format!(
            "stabilized_at / steps over {stabilized} of {} stabilized single runs",
            singles.len()
        ),
    );
    for (engine_name, metric) in [
        ("sequential", "engine.sequential.ns_per_interaction"),
        ("batched", "engine.batched.ns_per_interaction"),
        ("agents", "engine.agents.ns_per_interaction"),
    ] {
        let (ns, st, n) = (0..count)
            .filter(|&r| items[r].engine == engine_name)
            .filter_map(|r| Some((engine_ns(r)?, refs.facts[w.seq[r]].steps?)))
            .fold((0u64, 0u64, 0usize), |(a, b, n), (x, y)| {
                (a + x, b + y, n + 1)
            });
        report.put(
            metric,
            ns as f64 / st.max(1) as f64,
            "ns",
            format!("{n} single runs, {st} interactions"),
        );
    }

    let mf: Vec<f64> = (0..count)
        .filter(|&r| per_req[r].contains_key("meanfield"))
        .map(|r| us(get(r, "meanfield")))
        .collect();
    report.put(
        "meanfield.us",
        mean(&mf),
        "us",
        format!("mean of {} requests", mf.len()),
    );
    let rk: Vec<f64> = refs
        .facts
        .iter()
        .filter_map(|f| f.rk_steps)
        .map(|x| x as f64)
        .collect();
    report.put(
        "meanfield.rk_steps",
        mean(&rk),
        "count",
        format!("mean of {} distinct mean-field specs", rk.len()),
    );

    let events: u64 = refs.facts.iter().filter_map(|f| f.events).sum();
    report.put(
        "probe.events",
        events as f64,
        "count",
        "JSONL event lines over the distinct streamed specs",
    );
    let (probe_ns, probe_events) = (0..count)
        .filter(|&r| items[r].stream)
        .map(|r| {
            (
                get(r, "probe").saturating_sub(engine_ns(r).unwrap_or(0)),
                refs.facts[w.seq[r]].events.unwrap_or(0),
            )
        })
        .fold((0u64, 0u64), |(a, b), (x, y)| (a + x, b + y));
    report.put(
        "probe.us_per_event",
        probe_ns as f64 / 1e3 / probe_events.max(1) as f64,
        "us",
        format!("(execute_stream - execute) over {probe_events} events"),
    );

    let (render, bytes): (Vec<f64>, Vec<f64>) = (0..count)
        .filter(|&r| per_req[r].contains_key("render"))
        .map(|r| {
            (
                us(get(r, "render")),
                traced[r].as_ref().map_or(0, |t| t.render_bytes) as f64,
            )
        })
        .unzip();
    report.put(
        "render.us",
        mean(&render),
        "us",
        format!("mean of {} reports", render.len()),
    );
    report.put(
        "render.bytes",
        mean(&bytes),
        "bytes",
        format!("mean of {} reports", bytes.len()),
    );

    let mut overhead: Vec<f64> = http.iter().map(|s| s.0 - s.1).collect();
    report.put(
        "http.overhead_us",
        median(&mut overhead),
        "us",
        format!("median RTT - X-PP-Elapsed-Us over {} requests", http.len()),
    );
    let body: Vec<f64> = http.iter().map(|s| s.2 as f64).collect();
    report.put(
        "http.response_bytes",
        mean(&body),
        "bytes",
        format!("mean of {} responses", http.len()),
    );

    let total: u64 = tracer
        .spans
        .iter()
        .filter(|s| s.name == "request")
        .map(trace::Span::ns)
        .sum();
    let root_self: u64 = tracer
        .spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "request")
        .map(|(_, ns)| ns)
        .sum();
    let untraced: u64 = untraced_ns.iter().sum();
    report.put(
        "trace.unattributed_ratio",
        root_self as f64 / total.max(1) as f64,
        "ratio",
        "request time outside every layer span",
    );
    if root_self as f64 > 0.1 * total as f64 {
        report
            .problems
            .push("layer self times leave more than 10% of request time unattributed".to_string());
    }
    report.put(
        "trace.overhead_ratio",
        total as f64 / untraced.max(1) as f64 - 1.0,
        "ratio",
        format!("traced vs untraced in-process time over the same {count} requests"),
    );
    report.put(
        "trace.inproc_rps",
        count as f64 / (total as f64 / 1e9),
        "1/s",
        "traced in-process requests per second, one thread",
    );

    // Where the in-process time went, by request class.
    let mut classes: std::collections::BTreeMap<&str, (usize, u64)> = Default::default();
    for s in tracer.spans.iter().filter(|s| s.name == "request") {
        let e = classes.entry(items[s.req].class).or_default();
        e.0 += 1;
        e.1 += s.ns();
    }
    for (class, (n, ns)) in classes {
        report.notes.push(format!(
            "  class {class:<20} {n:>6} requests  mean {:>10.1} us  {:>5.1}% of request time",
            ns as f64 / 1e3 / n as f64,
            100.0 * ns as f64 / total.max(1) as f64
        ));
    }
}
