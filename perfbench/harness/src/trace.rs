//! The traced run: the workload's requests replayed in-process with a span
//! around each call into a layer's public functions.
//!
//! ```text
//! request ─┬─ spec.parse   RunSpec::from_json
//!          ├─ compile      CompiledCache::compiled        (formula specs)
//!          ├─ resolve      registry + population indexing (named count specs)
//!          ├─ engine       run_counts (named count specs) or api::execute
//!          ├─ meanfield    api::execute                   (mean-field specs)
//!          ├─ probe        api::execute_stream            (streamed specs)
//!          └─ render       RunReport::to_json
//! engine.twin              api::execute of a streamed spec without its probe,
//!                          outside the request, to split `probe` into engine
//!                          and probe time
//! ```
//!
//! Spans live in memory and are written out once the run ends. A span's
//! self time is its duration minus its children's.

use std::io::Write;
use std::time::Instant;

use pp_core::spec::{
    check_population, counts_by_symbol, index_population, run_counts, EngineSel, ProbeSpec,
    ProtocolRef, RunOutcome, RunReport, RunSpec, SpecError,
};
use pp_core::Protocol;
use pp_server::{CacheStatus, CompiledCache, ExecOptions, NamedProtocol};

use crate::gen::Item;

pub struct Span {
    pub req: usize,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, req: usize, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            req,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    fn exit(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Runs `f` inside a span.
    fn span<T>(
        &mut self,
        req: usize,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.enter(req, name, parent);
        let out = f();
        self.exit(id);
        out
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.ns());
            }
        }
        own
    }

    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"req\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// What one traced request did, beyond its spans.
pub struct Traced {
    pub body: Vec<u8>,
    /// The compile call missed the cache.
    pub compile_miss: bool,
    /// Bytes rendered by `RunReport::to_json` (0 for streamed specs).
    pub render_bytes: usize,
}

fn err(e: SpecError) -> String {
    e.to_string()
}

/// Replays one request with spans; `req` tags them.
pub fn request(
    t: &mut Tracer,
    req: usize,
    item: &Item,
    cache: &CompiledCache,
) -> Result<Traced, String> {
    let opts = ExecOptions::default();
    let root_id = t.enter(req, "request", None);
    let root = Some(root_id);
    let spec = t
        .span(req, "spec.parse", root, || RunSpec::from_json(&item.body))
        .map_err(err)?;
    let mut compile_miss = false;
    if let ProtocolRef::Formula(src) = &spec.protocol {
        let (_, status) = t
            .span(req, "compile", root, || cache.compiled(src))
            .map_err(err)?;
        compile_miss = status == CacheStatus::Miss;
    }
    let mut render_bytes = 0;
    let body = match (&spec.protocol, spec.engine) {
        _ if item.stream => {
            let mut out = Vec::new();
            t.span(req, "probe", root, || {
                pp_server::execute_stream(&spec, cache, &opts, &mut out)
            })
            .map_err(err)?;
            out
        }
        (ProtocolRef::Name { name, params }, EngineSel::Sequential | EngineSel::Batched) => {
            let report = named_count(t, req, root, &spec, name, params)?;
            let json = t.span(req, "render", root, || report.to_json());
            render_bytes = json.len();
            json.into_bytes()
        }
        (_, engine) => {
            let layer = if engine == EngineSel::MeanField {
                "meanfield"
            } else {
                "engine"
            };
            let (report, _) = t
                .span(req, layer, root, || pp_server::execute(&spec, cache, &opts))
                .map_err(err)?;
            let json = t.span(req, "render", root, || report.to_json());
            render_bytes = json.len();
            json.into_bytes()
        }
    };
    t.exit(root_id);
    if item.stream {
        // The same run without its probe, outside the request span.
        let mut plain = spec.clone();
        plain.probe = ProbeSpec::default();
        t.span(req, "engine.twin", None, || {
            pp_server::execute(&plain, cache, &opts)
        })
        .map_err(err)?;
    }
    Ok(Traced {
        body,
        compile_miss,
        render_bytes,
    })
}

/// The count-engine path of a named spec, with `run_counts` in its own
/// span: resolve the name, index the population, run, assemble the report
/// (as `pp_server::execute` does for these specs).
fn named_count(
    t: &mut Tracer,
    req: usize,
    root: Option<usize>,
    spec: &RunSpec,
    name: &str,
    params: &[(String, u64)],
) -> Result<RunReport, String> {
    let (named, symbols, indexed, counts, expected) = t
        .span(req, "resolve", root, || -> Result<_, SpecError> {
            check_population(spec, ExecOptions::default().max_population)?;
            let named = pp_server::resolve_named(name, params)?;
            let symbols = named.symbols();
            let indexed = index_population(&spec.population, &symbols)?;
            let counts = counts_by_symbol(&indexed, symbols.len());
            let expected = named.ground_truth(&counts);
            Ok((named, symbols, indexed, counts, expected))
        })
        .map_err(err)?;
    let outcome = match &named {
        NamedProtocol::Majority(p) => engine(t, req, root, spec, p, &indexed, |i| i, expected),
        NamedProtocol::Parity(p) => engine(t, req, root, spec, p, &indexed, |i| i, expected),
        NamedProtocol::ApproximateMajority(p) => {
            engine(t, req, root, spec, p, &indexed, |i| i == 1, expected)
        }
        NamedProtocol::CountTo(p) => engine(t, req, root, spec, p, &indexed, |i| i == 1, expected),
    }
    .map_err(err)?;
    Ok(t.span(req, "resolve", root, || RunReport {
        protocol_key: named.key(),
        engine: spec.engine,
        symbols,
        counts,
        population: spec.population_size(),
        ground_truth: Some(expected),
        edges: None,
        outcome,
        spec: spec.to_value(),
    }))
}

#[allow(clippy::too_many_arguments)]
fn engine<P>(
    t: &mut Tracer,
    req: usize,
    root: Option<usize>,
    spec: &RunSpec,
    protocol: &P,
    indexed: &[(usize, u64)],
    to_input: impl Fn(usize) -> P::Input,
    expected: bool,
) -> Result<RunOutcome, SpecError>
where
    P: Protocol<Output = bool> + Clone + Send + Sync,
    P::Input: Sync,
{
    let pairs: Vec<(P::Input, u64)> = t.span(req, "resolve", root, || {
        indexed.iter().map(|&(i, c)| (to_input(i), c)).collect()
    });
    t.span(req, "engine", root, || {
        run_counts(spec, protocol, &pairs, &expected)
    })
}
