//! Seeded workload generator: the request list is a pure function of
//! `(workload, seed)`.
//!
//! A workload is a pool of distinct `RunSpec` bodies per request class, a
//! list of "fresh" formula bodies that each appear once (new constants or
//! variable names, so the server's compile cache misses), and a request
//! sequence over both. The sequence is cut into blocks that each hold the
//! workload's full class mix in seeded order, and each class walks its
//! pool round-robin in seeded order.
//!
//! A run's cost must not depend on which seed drew it, so the knobs that
//! set a spec's cost (population size, horizon multiple, margin) sit on a
//! fixed stratified grid within each class and protocol. Seeds change the
//! run seeds (so every trajectory and stabilization time), which side
//! holds the majority, symbol orders, formula constants and variable
//! names, and the request order.

use std::collections::HashSet;

use crate::json::quote;

/// splitmix64: small, seedable, and independent of the program's RNGs.
pub struct Rng(u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    pub fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next() as usize % (i + 1);
            xs.swap(i, j);
        }
    }
}

/// `lo..=hi` on a log scale at position `u ∈ [0, 1)`.
fn log_at(lo: u64, hi: u64, u: f64) -> u64 {
    let (a, b) = ((lo as f64).ln(), (hi as f64 + 1.0).ln());
    ((a + u * (b - a)).exp() as u64).clamp(lo, hi)
}

/// `lo..=hi` on a linear scale at position `u ∈ [0, 1)`.
fn lin_at(lo: u64, hi: u64, u: f64) -> u64 {
    (lo + (u * (hi - lo + 1) as f64) as u64).min(hi)
}

/// The predicate a spec asks about, as the benchmark evaluates it on the
/// population counts (independently of the program).
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// More `1`s than `0`s (also the target of approximate majority).
    Majority,
    /// An odd number of `1`s.
    Parity,
    /// At least `k` agents with input `1`.
    CountTo(u64),
    Formula(Form),
}

/// Variable-name sets for formulas; a renamed formula is a new cache key
/// with the same compile work.
const VARS: [[&str; 3]; 5] = [
    ["a", "b", "c"],
    ["x", "y", "z"],
    ["p", "q", "r"],
    ["u", "v", "w"],
    ["s", "t", "o"],
];

/// A Presburger formula template over three variables.
#[derive(Debug, Clone, PartialEq)]
pub struct Form {
    shape: Shape,
    /// Index into [`VARS`].
    names: usize,
}

#[derive(Debug, Clone, PartialEq)]
enum Shape {
    /// `a > b`
    Gt,
    /// `a + c*b > k`
    Lin { c: u64, k: u64 },
    /// `a + b = r mod m`
    ModSum { r: u64, m: u64 },
    /// `a + c*b > k /\ b = r mod m`
    Conj { c: u64, k: u64, r: u64, m: u64 },
    /// `a > b \/ c >= k`
    Disj { k: u64 },
}

impl Form {
    fn gt() -> Form {
        Form {
            shape: Shape::Gt,
            names: 0,
        }
    }

    fn mod3(r: u64) -> Form {
        Form {
            shape: Shape::ModSum { r, m: 3 },
            names: 0,
        }
    }

    pub fn source(&self) -> String {
        let [a, b, c] = VARS[self.names];
        match self.shape {
            Shape::Gt => format!("{a} > {b}"),
            Shape::Lin { c: w, k } => format!("{a} + {w}*{b} > {k}"),
            Shape::ModSum { r, m } => format!("{a} + {b} = {r} mod {m}"),
            Shape::Conj { c: w, k, r, m } => format!("{a} + {w}*{b} > {k} /\\ {b} = {r} mod {m}"),
            Shape::Disj { k } => format!("{a} > {b} \\/ {c} >= {k}"),
        }
    }

    pub fn vars(&self) -> &'static [&'static str] {
        let v = &VARS[self.names];
        match self.shape {
            Shape::Disj { .. } => v,
            _ => &v[..2],
        }
    }

    /// `x` holds the counts of the first, second and third variable.
    pub fn eval(&self, x: [u64; 3]) -> bool {
        let [a, b, c] = x;
        match self.shape {
            Shape::Gt => a > b,
            Shape::Lin { c: w, k } => a + w * b > k,
            Shape::ModSum { r, m } => (a + b) % m == r % m,
            Shape::Conj { c: w, k, r, m } => a + w * b > k && b % m == r % m,
            Shape::Disj { k } => a > b || c >= k,
        }
    }

    /// The `i`-th template shape with seeded small constants; small
    /// constants keep compiled products (and so the engine's cost per
    /// interaction) in a narrow band.
    fn random(rng: &mut Rng, i: usize) -> Form {
        let shape = match i % 4 {
            0 => Shape::Lin {
                c: rng.range(2, 4),
                k: rng.range(5, 100),
            },
            1 => {
                let m = rng.range(3, 12);
                Shape::ModSum {
                    r: rng.range(0, m - 1),
                    m,
                }
            }
            2 => {
                let m = rng.range(2, 5);
                Shape::Conj {
                    c: rng.range(2, 3),
                    k: rng.range(5, 40),
                    r: rng.range(0, m - 1),
                    m,
                }
            }
            _ => Shape::Disj {
                k: rng.range(2, 40),
            },
        };
        Form {
            shape,
            names: rng.range(0, VARS.len() as u64 - 1) as usize,
        }
    }
}

impl Pred {
    /// Ground truth on `population` (symbol → count pairs).
    pub fn eval(&self, population: &[(String, u64)]) -> bool {
        let count = |s: &str| {
            population
                .iter()
                .find(|(k, _)| k == s)
                .map_or(0, |(_, c)| *c)
        };
        match self {
            Pred::Majority => count("1") > count("0"),
            Pred::Parity => count("1") % 2 == 1,
            Pred::CountTo(k) => count("1") >= *k,
            Pred::Formula(f) => {
                let [a, b, c] = VARS[f.names];
                f.eval([count(a), count(b), count(c)])
            }
        }
    }
}

/// One request of the workload.
#[derive(Debug, Clone)]
pub struct Item {
    /// The `RunSpec` JSON body.
    pub body: String,
    /// POST to `/v1/stream` (JSONL) instead of `/v1/run`.
    pub stream: bool,
    pub pred: Pred,
    pub population: Vec<(String, u64)>,
    pub engine: &'static str,
    pub class: &'static str,
    /// A body with the same cache keys (formula, graph, drift support) and
    /// almost no engine work, sent in the warm-up pass.
    pub warm: Option<String>,
}

pub struct Workload {
    pub name: String,
    pub seed: u64,
    pub clients: usize,
    /// Distinct specs: the pools first, then the fresh formulas.
    pub items: Vec<Item>,
    /// Item index of each request, in sending order.
    pub seq: Vec<usize>,
    /// Requests per block; every block holds the full class mix.
    pub block: usize,
}

pub const WORKLOADS: &[&str] = &["small_mix", "large_population", "stream_trace"];

impl Workload {
    /// Deduplicated warm-up bodies of the pools (fresh formulas stay cold).
    pub fn warmup(&self) -> Vec<String> {
        let mut seen = HashSet::new();
        self.items
            .iter()
            .filter(|it| it.class != "formula.fresh")
            .filter_map(|it| it.warm.clone())
            .filter(|w| seen.insert(w.clone()))
            .collect()
    }
}

/// A spec under construction; `build` renders the body and its warm twin.
#[derive(Clone)]
struct Spec {
    protocol: String,
    population: Vec<(String, u64)>,
    seed: u64,
    engine: &'static str,
    topology: Option<String>,
    trials: u64,
    horizon: Option<u64>,
    faults: Option<String>,
    stride: Option<u64>,
    mean_field: Option<String>,
    pred: Pred,
    /// Whether the warm-up pass has a cache to fill for this spec.
    warms: bool,
}

#[derive(Debug, Clone, Copy)]
enum Named {
    Majority,
    Approx,
    Parity,
    CountTo(u64),
}

impl Spec {
    fn named(
        rng: &mut Rng,
        proto: Named,
        population: Vec<(String, u64)>,
        engine: &'static str,
    ) -> Spec {
        let (protocol, pred) = match proto {
            Named::Majority => ("{\"name\":\"majority\"}".to_string(), Pred::Majority),
            Named::Approx => (
                "{\"name\":\"approximate-majority\"}".to_string(),
                Pred::Majority,
            ),
            Named::Parity => ("{\"name\":\"parity\"}".to_string(), Pred::Parity),
            Named::CountTo(k) => (
                format!("{{\"name\":\"count-to-k\",\"k\":{k}}}"),
                Pred::CountTo(k),
            ),
        };
        Spec::new(rng, protocol, population, engine, pred)
    }

    fn formula(
        rng: &mut Rng,
        form: &Form,
        population: Vec<(String, u64)>,
        engine: &'static str,
    ) -> Spec {
        let protocol = format!("{{\"formula\":{}}}", quote(&form.source()));
        let mut s = Spec::new(
            rng,
            protocol,
            population,
            engine,
            Pred::Formula(form.clone()),
        );
        s.warms = true;
        s
    }

    fn new(
        rng: &mut Rng,
        protocol: String,
        population: Vec<(String, u64)>,
        engine: &'static str,
        pred: Pred,
    ) -> Spec {
        Spec {
            protocol,
            population,
            seed: rng.range(0, 1 << 40),
            engine,
            topology: None,
            trials: 1,
            horizon: None,
            faults: None,
            stride: None,
            mean_field: None,
            pred,
            warms: false,
        }
    }

    fn render(&self, warm: bool) -> String {
        let pop: Vec<String> = self
            .population
            .iter()
            .map(|(s, c)| format!("{}:{c}", quote(s)))
            .collect();
        let mut out = format!(
            "{{\"protocol\":{},\"population\":{{{}}},\"seed\":{},\"engine\":\"{}\"",
            self.protocol,
            pop.join(","),
            self.seed,
            self.engine
        );
        if let Some(t) = &self.topology {
            out.push_str(&format!(",\"topology\":{t}"));
        }
        if warm {
            // Same cache keys, next to no engine work.
            match &self.mean_field {
                Some(_) => out.push_str(",\"mean_field\":{\"horizon\":0.01}"),
                None => out.push_str(",\"horizon\":1"),
            }
            out.push('}');
            return out;
        }
        if self.trials != 1 {
            out.push_str(&format!(",\"trials\":{},\"threads\":1", self.trials));
        }
        if let Some(h) = self.horizon {
            out.push_str(&format!(",\"horizon\":{h}"));
        }
        if let Some(f) = &self.faults {
            out.push_str(&format!(",\"faults\":{f}"));
        }
        if let Some(s) = self.stride {
            out.push_str(&format!(",\"probe\":{{\"kind\":\"jsonl\",\"stride\":{s}}}"));
        }
        if let Some(m) = &self.mean_field {
            out.push_str(&format!(",\"mean_field\":{m}"));
        }
        out.push('}');
        out
    }

    fn build(self, class: &'static str) -> Item {
        Item {
            body: self.render(false),
            stream: self.stride.is_some(),
            warm: self.warms.then(|| self.render(true)),
            pred: self.pred,
            population: self.population,
            engine: self.engine,
            class,
        }
    }
}

/// Interactions to stabilization, fitted to runs of the seed engines
/// (majority and count-to-k take Θ(n²)-ish steps at these sizes,
/// approximate majority Θ(n log n)). Horizons are a multiple of this, so
/// almost every run stabilizes well inside its horizon.
fn stab_estimate(proto: Named, n: u64) -> u64 {
    let nf = n as f64;
    let est = match proto {
        Named::Majority => 0.5 * nf * nf,
        Named::Parity => 3.0 * nf * nf,
        Named::CountTo(_) => 0.3 * nf * nf,
        Named::Approx => 2.0 * nf * nf.ln(),
    };
    est as u64 + 200
}

fn formula_estimate(n: u64) -> u64 {
    (0.6 * (n * n) as f64) as u64 + 200
}

fn scaled(est: u64, multiple: f64) -> Option<u64> {
    Some((est as f64 * multiple) as u64)
}

/// A `0`/`1` population of size `n` with `ones` ones, in a seeded symbol
/// order (order is semantic: it fixes the run's RNG stream).
fn binary_population(rng: &mut Rng, n: u64, ones: u64) -> Vec<(String, u64)> {
    let mut pop = vec![("1".to_string(), ones), ("0".to_string(), n - ones)];
    if rng.coin() {
        pop.swap(0, 1);
    }
    pop
}

/// A majority input with a 7.5–17.5 % lead (`u` picks it) for either side.
fn margin_population(rng: &mut Rng, n: u64, u: f64) -> Vec<(String, u64)> {
    let lead = ((n as f64) * (0.575 + 0.1 * u)).round() as u64;
    let ones = if rng.coin() { lead } else { n - lead };
    binary_population(rng, n, ones.clamp(1, n - 1))
}

/// The population a named protocol runs on.
fn named_population(rng: &mut Rng, proto: Named, n: u64, u: f64) -> Vec<(String, u64)> {
    match proto {
        Named::Parity => binary_population(rng, n, lin_at(1, n - 1, u)),
        // Around the threshold, both sides of it.
        Named::CountTo(k) => {
            binary_population(rng, n, lin_at(k.saturating_sub(2).max(1), k + 2, u))
        }
        _ => margin_population(rng, n, u),
    }
}

/// Splits `n` agents over the formula's variables (`u` sets the first
/// share), in seeded order.
fn formula_population(rng: &mut Rng, form: &Form, n: u64, u: f64) -> Vec<(String, u64)> {
    let vars = form.vars();
    let first = lin_at(1, n - vars.len() as u64 + 1, 0.2 + 0.6 * u);
    let mut pop = vec![(vars[0].to_string(), first)];
    let mut left = n - first;
    for (i, v) in vars.iter().enumerate().skip(1) {
        let c = if i + 1 == vars.len() {
            left
        } else {
            (left / 2).max(1)
        };
        left -= c;
        pop.push((v.to_string(), c));
    }
    rng.shuffle(&mut pop);
    pop
}

fn torus(w: u64, h: u64) -> String {
    format!("{{\"kind\":\"torus2d\",\"w\":{w},\"h\":{h}}}")
}

// ---------------------------------------------------------------------------
// Request classes. `g` is the spec's group inside its class (protocol,
// size or stride), `j` its index in the group, `u` its stratified knobs.
// ---------------------------------------------------------------------------

/// The four named protocols and the population range each is run at.
fn named_group(g: usize, j: usize, small: bool) -> (Named, u64, u64) {
    match (g % 4, small) {
        (0, false) => (Named::Majority, 10, 300),
        (1, false) => (Named::Approx, 50, 2000),
        (2, false) => (Named::Parity, 10, 60),
        (3, false) => (Named::CountTo(2 + j as u64 % 5), 20, 300),
        (0, true) => (Named::Majority, 10, 60),
        (1, true) => (Named::Approx, 10, 60),
        (2, true) => (Named::Parity, 10, 40),
        _ => (Named::CountTo(2 + j as u64 % 5), 10, 60),
    }
}

/// Named protocol, one trial, horizon 3–6× the stabilization estimate.
fn named_single(rng: &mut Rng, g: usize, j: usize, u: [f64; 3], engine: &'static str) -> Spec {
    let (proto, lo, hi) = named_group(g, j, false);
    let n = log_at(lo, hi, u[0]);
    let pop = named_population(rng, proto, n, u[1]);
    let mut s = Spec::named(rng, proto, pop, engine);
    s.horizon = scaled(stab_estimate(proto, n), 3.0 + 3.0 * u[2]);
    s
}

/// 2–8 trials pinned to one thread.
fn named_ensemble(rng: &mut Rng, g: usize, j: usize, u: [f64; 3]) -> Spec {
    let (proto, lo, hi) = named_group(g, j, true);
    let n = log_at(lo, hi, u[0]);
    let pop = named_population(rng, proto, n, u[1]);
    let mut s = Spec::named(
        rng,
        proto,
        pop,
        if j.is_multiple_of(2) {
            "sequential"
        } else {
            "batched"
        },
    );
    s.horizon = scaled(stab_estimate(proto, n), 3.0 + 3.0 * u[2]);
    s.trials = 2 + (j as u64 * 3) % 7;
    s
}

fn fault_ensemble(rng: &mut Rng, j: usize, u: [f64; 3]) -> Spec {
    let n = lin_at(10, 20, u[0]);
    let pop = margin_population(rng, n, u[0]);
    let mut s = Spec::named(rng, Named::Majority, pop, "sequential");
    s.trials = 2 + j as u64 % 3;
    s.horizon = Some(lin_at(10_000, 30_000, u[1]));
    s.faults = Some(format!("{{\"crash\":[[{},1]]}}", lin_at(100, 1000, u[2])));
    s
}

/// A tiny named run: the front layers are a large share of it.
fn tiny(rng: &mut Rng, g: usize, j: usize, u: [f64; 3]) -> Spec {
    let proto = if g == 0 {
        Named::Majority
    } else {
        Named::Approx
    };
    let n = lin_at(10, 30, u[0]);
    let pop = margin_population(rng, n, u[1]);
    let mut s = Spec::named(
        rng,
        proto,
        pop,
        if j.is_multiple_of(3) {
            "batched"
        } else {
            "sequential"
        },
    );
    s.horizon = Some(lin_at(2_000, 8_000, u[2]));
    s
}

fn formula_run(
    rng: &mut Rng,
    form: &Form,
    n_lo: u64,
    n_hi: u64,
    u: [f64; 3],
    engine: &'static str,
) -> Spec {
    let n = log_at(n_lo, n_hi, u[0]);
    let pop = formula_population(rng, form, n, u[1]);
    let mut s = Spec::formula(rng, form, pop, engine);
    s.horizon = scaled(formula_estimate(n), 3.0 + 3.0 * u[2]);
    s
}

/// A formula over a large population. Compiled products have many more
/// states than the named protocols, so the batched engine is far slower
/// per interaction here; the horizon keeps these near 15 ms.
fn large_formula(rng: &mut Rng, form: &Form, u: [f64; 3]) -> Spec {
    let mut s = formula_run(rng, form, 100_000, 1_000_000, u, "batched");
    s.horizon = Some(lin_at(300_000, 600_000, u[2]));
    s
}

/// Mean-field query; `g` picks majority, approximate majority,
/// count-to-3 or a small formula.
fn mean_field(rng: &mut Rng, g: usize, j: usize, u: [f64; 3], n_lo: u64, n_hi: u64) -> Spec {
    let n = log_at(n_lo, n_hi, u[0]);
    let mut s = match g % 4 {
        // Small-constant formulas only: the drift field grows with the
        // product's state count (`a + 3*b > 200` already takes seconds).
        3 => {
            let form = if j.is_multiple_of(2) {
                Form::gt()
            } else {
                Form::mod3(j as u64 % 3)
            };
            let pop = formula_population(rng, &form, n, u[1]);
            Spec::formula(rng, &form, pop, "mean-field")
        }
        g => {
            let proto = [Named::Majority, Named::Approx, Named::CountTo(3)][g];
            let pop = named_population(rng, proto, n, u[1]);
            Spec::named(rng, proto, pop, "mean-field")
        }
    };
    let mut mf = format!("{{\"horizon\":{}", lin_at(20, 100, u[2]));
    if g % 4 < 2 && j.is_multiple_of(3) {
        mf.push_str(",\"diffusion\":true");
    }
    if j % 3 == 1 {
        mf.push_str(&format!(
            ",\"population\":{}",
            [1_000_000_000_000u64, 1_000_000_000_000_000][j % 2]
        ));
    }
    mf.push('}');
    s.mean_field = Some(mf);
    s.warms = true;
    s
}

/// Agents engine; `g` picks a torus or the complete graph.
#[allow(clippy::too_many_arguments)]
fn agents(
    rng: &mut Rng,
    g: usize,
    j: usize,
    u: [f64; 3],
    sides: (u64, u64),
    complete: (u64, u64),
    horizon: (u64, u64),
) -> Spec {
    let proto = [Named::Majority, Named::Approx, Named::CountTo(3)][j % 3];
    let (n, topology) = if g == 0 {
        let w = lin_at(sides.0, sides.1, u[0]);
        (w * w, torus(w, w))
    } else {
        (
            lin_at(complete.0, complete.1, u[0]),
            "{\"kind\":\"complete\"}".to_string(),
        )
    };
    let pop = named_population(rng, proto, n, u[1]);
    let mut s = Spec::named(rng, proto, pop, "agents");
    s.topology = Some(topology);
    s.horizon = Some(lin_at(horizon.0, horizon.1, u[2]));
    s.warms = true;
    s
}

/// A streamed count-engine run at `stride`, capped at `max_events` JSONL
/// events.
fn stream(
    rng: &mut Rng,
    j: usize,
    u: [f64; 3],
    n: (u64, u64),
    stride: u64,
    max_events: u64,
) -> Spec {
    let n = log_at(n.0, n.1, u[0]);
    let proto = if n <= 300 && j.is_multiple_of(2) {
        Named::Majority
    } else {
        Named::Approx
    };
    let pop = margin_population(rng, n, u[1]);
    let mut s = Spec::named(
        rng,
        proto,
        pop,
        if j.is_multiple_of(2) {
            "sequential"
        } else {
            "batched"
        },
    );
    s.horizon =
        scaled(stab_estimate(proto, n), 3.0 + 3.0 * u[2]).map(|h| h.min(stride * max_events));
    s.stride = Some(stride);
    s
}

fn stream_formula(rng: &mut Rng, form: &Form, u: [f64; 3], n: (u64, u64), stride: u64) -> Spec {
    let mut s = formula_run(rng, form, n.0, n.1, u, "sequential");
    s.horizon = s.horizon.map(|h| h.min(stride * 5_000));
    s.stride = Some(stride);
    s
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// A request class: slots per block, pool size, and groups (the pool is
/// split evenly over groups; knobs are stratified within a group).
/// `pool == 0` marks the fresh-formula class.
struct Class {
    name: &'static str,
    per_block: usize,
    pool: usize,
    groups: usize,
}

const fn class(name: &'static str, per_block: usize, pool: usize, groups: usize) -> Class {
    Class {
        name,
        per_block,
        pool,
        groups,
    }
}

/// `count` formulas not in `taken`, cycling through the shapes; a shape
/// that keeps colliding hands over to the next one.
fn distinct_forms(rng: &mut Rng, count: usize, taken: &mut HashSet<String>) -> Vec<Form> {
    let mut out = Vec::new();
    let mut misses = 0;
    while out.len() < count {
        let f = Form::random(rng, out.len() + misses / 16);
        if taken.insert(f.source()) {
            out.push(f);
            misses = 0;
        } else {
            misses += 1;
            assert!(misses < 1 << 16, "formula templates exhausted");
        }
    }
    out
}

/// Three knobs for each of `m` specs: the midpoints of `m` equal strata,
/// each knob walking them in its own fixed order. The knobs set a spec's
/// cost, so fixing them (rather than drawing them) keeps the pool's cost
/// distribution the same on every seed.
fn strata(m: usize) -> Vec<[f64; 3]> {
    (0..m)
        .map(|j| [j, (7 * j + 3) % m, (13 * j + 5) % m].map(|k| (k as f64 + 0.5) / m as f64))
        .collect()
}

pub fn generate(name: &str, seed: u64) -> Option<Workload> {
    let (clients, slots, fresh_count, classes) = match name {
        "small_mix" => (
            2,
            300_000,
            5_000,
            vec![
                class("named.sequential", 4, 96, 4),
                class("named.batched", 2, 48, 4),
                class("named.ensemble", 2, 48, 4),
                class("named.faults", 1, 16, 1),
                class("named.tiny", 2, 48, 2),
                class("formula.repeat", 3, 36, 1),
                class("formula.fresh", 1, 0, 1),
                class("meanfield", 3, 48, 4),
                class("agents", 1, 16, 2),
                class("stream", 1, 16, 2),
            ],
        ),
        "large_population" => (
            1,
            3_000,
            100,
            vec![
                class("batched.large", 4, 24, 1),
                class("batched.xl", 1, 6, 1),
                class("agents.torus", 2, 12, 1),
                class("agents.complete", 1, 6, 1),
                class("sequential.large", 1, 4, 1),
                class("formula.repeat", 1, 4, 1),
                class("formula.fresh", 1, 0, 1),
                class("meanfield", 1, 3, 3),
                class("stream", 1, 4, 1),
            ],
        ),
        "stream_trace" => (
            2,
            60_000,
            3_000,
            vec![
                class("stream.named", 5, 60, 5),
                class("stream.heavy", 1, 6, 1),
                class("stream.formula", 1, 12, 1),
                class("formula.fresh", 1, 0, 1),
                class("run.twin", 1, 12, 1),
                class("meanfield", 1, 8, 4),
                class("agents", 1, 6, 1),
            ],
        ),
        _ => return None,
    };
    let tag = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    });
    let mut rng = Rng(tag ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut taken = HashSet::new();
    taken.insert(Form::gt().source());
    let mut repeat_forms = vec![Form::gt()];
    repeat_forms.extend(distinct_forms(&mut rng, 11, &mut taken));

    let mut specs: Vec<(&'static str, Spec)> = Vec::new();
    let mut by_class: Vec<Vec<usize>> = Vec::new();
    for c in &classes {
        let mut idx = Vec::new();
        let m = c.pool / c.groups;
        for g in 0..c.groups {
            for (j, u) in strata(m).into_iter().enumerate() {
                let spec = pool_spec(name, c.name, g, j, u, &mut rng, &repeat_forms, &specs);
                idx.push(specs.len());
                specs.push((c.name, spec));
            }
        }
        by_class.push(idx);
    }
    let fresh_start = specs.len();
    let forms = distinct_forms(&mut rng, fresh_count, &mut taken);
    let knobs = strata(fresh_count);
    for (j, (form, u)) in forms.iter().zip(knobs).enumerate() {
        let spec = match name {
            "large_population" => large_formula(&mut rng, form, u),
            "stream_trace" => stream_formula(&mut rng, form, u, (20, 60), [4, 8, 16][j % 3]),
            _ => formula_run(&mut rng, form, 10, 60, u, "sequential"),
        };
        specs.push(("formula.fresh", spec));
    }
    let items: Vec<Item> = specs.into_iter().map(|(class, s)| s.build(class)).collect();

    // Each class walks its pool round-robin, reshuffled every lap.
    let mut laps: Vec<Vec<usize>> = vec![Vec::new(); classes.len()];
    let mut next_fresh = 0usize;
    let block: usize = classes.iter().map(|c| c.per_block).sum();
    let mut seq = Vec::with_capacity(slots);
    while seq.len() < slots {
        let mut b: Vec<usize> = Vec::with_capacity(block);
        for (ci, c) in classes.iter().enumerate() {
            for _ in 0..c.per_block {
                if c.pool == 0 {
                    b.push(fresh_start + next_fresh % fresh_count);
                    next_fresh += 1;
                    continue;
                }
                if laps[ci].is_empty() {
                    laps[ci] = by_class[ci].clone();
                    rng.shuffle(&mut laps[ci]);
                }
                b.push(laps[ci].pop().expect("refilled lap"));
            }
        }
        rng.shuffle(&mut b);
        seq.extend(b);
    }
    Some(Workload {
        name: name.to_string(),
        seed,
        clients,
        items,
        seq,
        block,
    })
}

/// The `j`-th pool spec of group `g` of a class.
#[allow(clippy::too_many_arguments)]
fn pool_spec(
    workload: &str,
    class: &str,
    g: usize,
    j: usize,
    u: [f64; 3],
    rng: &mut Rng,
    forms: &[Form],
    earlier: &[(&'static str, Spec)],
) -> Spec {
    match (workload, class) {
        ("small_mix", "named.sequential") => named_single(rng, g, j, u, "sequential"),
        ("small_mix", "named.batched") => named_single(rng, g, j, u, "batched"),
        ("small_mix", "named.ensemble") => named_ensemble(rng, g, j, u),
        ("small_mix", "named.faults") => fault_ensemble(rng, j, u),
        ("small_mix", "named.tiny") => tiny(rng, g, j, u),
        ("small_mix", "formula.repeat") => {
            let engine = if j % 3 == 2 { "batched" } else { "sequential" };
            formula_run(rng, &forms[j % forms.len()], 10, 200, u, engine)
        }
        ("small_mix", "meanfield") => mean_field(rng, g, j, u, 100, 1_000_000),
        ("small_mix", "agents") => agents(rng, g, j, u, (4, 8), (10, 40), (20_000, 80_000)),
        ("small_mix", "stream") => stream(rng, j + g, u, (20, 100), 16, 2_500),

        ("large_population", "batched.large") => {
            let n = log_at(100_000, 1_000_000, u[0]);
            let pop = margin_population(rng, n, u[1]);
            let mut s = Spec::named(rng, Named::Approx, pop, "batched");
            s.horizon = scaled(stab_estimate(Named::Approx, n), 1.5 + 1.5 * u[2]);
            s
        }
        ("large_population", "batched.xl") => {
            let n = log_at(2_000_000, 10_000_000, u[0]);
            let pop = margin_population(rng, n, u[1]);
            let mut s = Spec::named(rng, Named::Approx, pop, "batched");
            s.horizon = scaled(stab_estimate(Named::Approx, n), 1.3 + 0.3 * u[2]);
            s
        }
        ("large_population", "agents.torus") => {
            agents(rng, 0, j + g, u, (100, 316), (0, 0), (1_000_000, 2_000_000))
        }
        ("large_population", "agents.complete") => {
            agents(rng, 1, 1, u, (0, 0), (200, 1000), (300_000, 600_000))
        }
        ("large_population", "sequential.large") => {
            let n = lin_at(15_000, 25_000, u[0]);
            let pop = margin_population(rng, n, u[1]);
            let mut s = Spec::named(rng, Named::Approx, pop, "sequential");
            s.horizon = scaled(stab_estimate(Named::Approx, n), 1.5 + u[2]);
            s
        }
        ("large_population", "formula.repeat") => large_formula(rng, &forms[j % forms.len()], u),
        ("large_population", "meanfield") => {
            let n = [1_000_000u64, 5_000_000, 10_000_000][g];
            let mut s = mean_field(rng, 1, 0, u, n, n);
            s.mean_field = Some(format!(
                "{{\"horizon\":{},\"diffusion\":true,\"population\":1000000000000000}}",
                lin_at(50, 100, u[2])
            ));
            s
        }
        ("large_population", "stream") => {
            let n = lin_at(8_000, 10_000, u[0]);
            let pop = margin_population(rng, n, u[1]);
            let mut s = Spec::named(rng, Named::Approx, pop, "batched");
            s.stride = Some(16);
            s.horizon = Some(16 * lin_at(15_000, 20_000, u[2]));
            s
        }

        ("stream_trace", "stream.named") => {
            stream(rng, j, u, (100, 10_000), [1, 2, 4, 8, 16][g], 20_000)
        }
        ("stream_trace", "stream.heavy") => {
            // The write-heavy case: stride 1, n ≈ 100, ~8 MB of JSONL.
            let n = lin_at(90, 110, u[0]);
            let pop = margin_population(rng, n, u[1]);
            let mut s = Spec::named(rng, Named::Majority, pop, "sequential");
            s.stride = Some(1);
            s.horizon = Some(lin_at(80_000, 100_000, u[2]));
            s
        }
        ("stream_trace", "stream.formula") => stream_formula(
            rng,
            &forms[j % forms.len()],
            u,
            (30, 150),
            [4, 8, 16][j % 3],
        ),
        ("stream_trace", "run.twin") => {
            // The unprobed twin of a streamed spec: the same run, no events.
            let mut s = earlier[(j * 7) % 60].1.clone();
            s.stride = None;
            s
        }
        ("stream_trace", "meanfield") => mean_field(rng, g, j, u, 100, 100_000),
        ("stream_trace", "agents") => agents(rng, 0, j, u, (4, 8), (0, 0), (20_000, 60_000)),
        _ => unreachable!("class {class} is not part of workload {workload}"),
    }
}
