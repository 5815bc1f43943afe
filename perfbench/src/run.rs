//! Machinery the workloads share: the two closed-loop clients, the
//! update-to-visible batch, answer checking and the run's observations.

use crate::heap;
use crate::trace::{Span, Spans, Trace, NO_REQUEST, ROOT};
use multirag_core::{KernelCounters, MklgpPipeline, MultiRagConfig, PipelineAnswer};
use multirag_eval::metrics::SetScores;
use multirag_kg::{KnowledgeGraph, TieredIndex, TindexCounters};
use multirag_serve::{
    serve_one, serve_sequential, snapshot_pipeline, CacheCounters, CacheStack, EpochIndex,
    EpochSnapshot, IndexWriter, ServeConfig, ServeRequest, ServeVerdict, TripleUpdate,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop client threads.
pub const CLIENTS: usize = 2;

/// What a run was asked to do.
#[derive(Debug, Clone)]
pub struct Env {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Record spans.
    pub traced: bool,
    /// Small inputs for the smoke test.
    pub smoke: bool,
    /// Shared span clock.
    pub origin: Instant,
}

impl Env {
    /// A span buffer for the calling thread.
    pub fn spans(&self) -> Spans {
        Spans::new(self.traced, self.origin)
    }
}

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// gives one input set.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn quantile<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].into()
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Everything a run observes; `main` turns it into metrics.
#[derive(Debug, Default)]
pub struct Observed {
    /// Wall of each set-up, from input bytes to both clients bound.
    pub setup: Vec<Duration>,
    /// Measured phases (passes or rounds) of reported requests.
    pub phases: Vec<Phase>,
    /// Latency of the reported requests of the phase in progress, ns.
    pub phase_ns: Vec<u32>,
    /// Update-to-visible wall of each batch.
    pub publish: Vec<Duration>,
    /// Highest peak live heap of any measured phase, leaving out the
    /// benchmark's own latency samples (they grow with throughput, not
    /// with the program under test).
    pub peak_heap: usize,
    /// Simulated-LLM calls made for the reported requests.
    pub llm_calls: u64,
    /// Requests `llm_calls` is divided by.
    pub llm_requests: u64,
    /// Micro-averaged answer scores of the reported requests.
    pub scores: SetScores,
    /// Scored answers.
    pub answers: u64,
    /// Scored answers with `hallucinated` set.
    pub hallucinated: u64,
    /// Requests issued.
    pub attempted: u64,
    /// Answers that differ from the oracle, or shed.
    pub wrong: u64,
    /// Requests whose call panicked.
    pub panicked: u64,
    /// Per-layer observations.
    pub layer: Layers,
    /// Input description, printed with the result.
    pub stamp: Vec<(&'static str, String)>,
    /// The folded spans of a traced run.
    pub trace: Option<Trace>,
}

impl Observed {
    /// Heap bytes the benchmark holds in latency samples.
    pub fn sample_bytes(&self) -> usize {
        let l = &self.layer;
        (self.phase_ns.capacity() + l.hit_ns.capacity() + l.miss_ns.capacity()) * 4
    }

    /// Starts tracking the peak heap of a phase.
    pub fn heap_start(&self) {
        heap::reset_peak();
    }

    /// Ends a phase started by [`Observed::heap_start`].
    pub fn heap_stop(&mut self) {
        let peak = heap::peak().saturating_sub(self.sample_bytes());
        self.peak_heap = self.peak_heap.max(peak);
    }

    /// Closes a measured phase that served `requests` in `wall`.
    pub fn end_phase(&mut self, wall: Duration, requests: u64) {
        self.phase_ns.sort_unstable();
        self.phases.push(Phase {
            rps: ratio(requests as f64, wall.as_secs_f64()),
            p50_us: quantile(&self.phase_ns, 0.5) / 1e3,
            p90_us: quantile(&self.phase_ns, 0.9) / 1e3,
            p99_us: quantile(&self.phase_ns, 0.99) / 1e3,
        });
        self.phase_ns.clear();
    }

    /// Checks the answers `clients` kept for later against `traffic`'s
    /// oracle, then adds their counts. `reported` requests also feed the
    /// end-to-end latency and LLM-call figures.
    pub fn add_clients(&mut self, clients: Vec<ClientOut>, traffic: &Traffic, reported: bool) {
        for out in clients {
            let late_wrong = out
                .unchecked
                .iter()
                .filter(|(index, verdict)| !traffic.matches(*index, verdict))
                .count() as u64;
            self.attempted += out.served;
            self.wrong += out.wrong + late_wrong;
            self.panicked += out.panicked;
            if reported {
                self.phase_ns.extend(&out.hit_ns);
                self.phase_ns.extend(&out.miss_ns);
                self.llm_calls += out.llm_calls;
                self.llm_requests += out.served;
            }
            let l = &mut self.layer;
            l.kernel.merge(out.kernel);
            l.tindex.tier_descents += out.tindex.tier_descents;
            l.tindex.bitset_and_ops += out.tindex.bitset_and_ops;
            l.tindex.candidates_pruned += out.tindex.candidates_pruned;
            l.sim_ms += out.sim_ms;
            l.llm_calls += out.llm_calls;
            l.llm_cache_hits += out.llm_cache_hits;
            l.llm_retries += out.llm_retries;
            l.examined += out.examined;
            l.kept += out.kept;
            l.dropped += out.dropped;
            l.hit_ns.extend(out.hit_ns);
            l.miss_ns.extend(out.miss_ns);
        }
    }
}

/// Throughput and latency of one measured phase. The end-to-end
/// figures are medians over phases, so a short burst of outside load
/// moves one phase, not the result.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Requests answered per second.
    pub rps: f64,
    /// Median request latency.
    pub p50_us: f64,
    /// 90th-percentile request latency.
    pub p90_us: f64,
    /// 99th-percentile request latency.
    pub p99_us: f64,
}

/// Per-layer observations, all from the public calls the benchmark makes.
#[derive(Debug, Default)]
pub struct Layers {
    pub parse: Vec<Duration>,
    pub load: Vec<Duration>,
    pub ingest_bytes: u64,
    pub ingest_claims: u64,
    pub persist_load: Vec<Duration>,
    pub tindex_build: Vec<Duration>,
    pub triples: u64,
    pub slots: u64,
    pub writer_init: Vec<Duration>,
    pub apply: Vec<Duration>,
    pub publish_call: Vec<Duration>,
    pub swap: Vec<Duration>,
    pub prepare: Vec<Duration>,
    pub prepare_bytes: Vec<f64>,
    pub kernel: KernelCounters,
    pub tindex: TindexCounters,
    pub examined: u64,
    pub kept: u64,
    pub dropped: u64,
    pub sim_ms: f64,
    pub llm_calls: u64,
    pub llm_cache_hits: u64,
    pub llm_retries: u64,
    pub cache: CacheCounters,
    pub hit_ns: Vec<u32>,
    pub miss_ns: Vec<u32>,
    /// (wall, requests) of traced and of untraced measured phases.
    pub traced_work: (Duration, u64),
    pub plain_work: (Duration, u64),
}

impl Layers {
    /// Adds the cache counters moved since `before`.
    pub fn add_cache(&mut self, before: CacheCounters, after: CacheCounters) {
        let c = &mut self.cache;
        c.result_hits += after.result_hits - before.result_hits;
        c.result_misses += after.result_misses - before.result_misses;
        c.memo_hits += after.memo_hits - before.memo_hits;
        c.memo_misses += after.memo_misses - before.memo_misses;
        c.llm_hits += after.llm_hits - before.llm_hits;
        c.llm_misses += after.llm_misses - before.llm_misses;
    }

    /// Adds a measured phase's wall and requests to the traced or the
    /// untraced side of the overhead comparison.
    pub fn add_work(&mut self, traced: bool, wall: Duration, requests: u64) {
        let side = if traced {
            &mut self.traced_work
        } else {
            &mut self.plain_work
        };
        side.0 += wall;
        side.1 += requests;
    }
}

/// A request stream: its distinct requests, the order they are sent
/// in, and, once known, the oracle answer of each distinct request.
/// Answers are a pure function of `(epoch, query)`, so one oracle
/// answer per distinct request checks every repeat of it.
#[derive(Debug, Default)]
pub struct Traffic {
    pub requests: Vec<ServeRequest>,
    pub order: Vec<u32>,
    pub expected: Vec<Option<PipelineAnswer>>,
}

impl Traffic {
    /// Each request sent once, in list order.
    pub fn once(requests: Vec<ServeRequest>) -> Self {
        let order = (0..requests.len() as u32).collect();
        Self {
            requests,
            order,
            expected: Vec::new(),
        }
    }

    /// Requests sent.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Computes the oracle: every distinct request through
    /// `serve_sequential` on a fresh cache stack over `snapshot`.
    pub fn verify(&mut self, snapshot: &EpochSnapshot, config: &ServeConfig) {
        self.expected = serve_sequential(snapshot, &CacheStack::new(), config, &self.requests)
            .into_iter()
            .map(|r| match r.verdict {
                ServeVerdict::Answered(answer) => Some(answer),
                ServeVerdict::Overloaded => None,
            })
            .collect();
    }

    /// Whether `verdict` is the oracle answer of distinct request `index`.
    pub fn matches(&self, index: usize, verdict: &ServeVerdict) -> bool {
        match (verdict, self.expected.get(index)) {
            (ServeVerdict::Answered(got), Some(Some(want))) => got == want,
            _ => false,
        }
    }

    /// Scores the oracle answers of every request sent against gold.
    pub fn score(&self, obs: &mut Observed) {
        for &index in &self.order {
            let index = index as usize;
            let Some(Some(answer)) = self.expected.get(index) else {
                continue;
            };
            obs.scores
                .add(&answer.values, &self.requests[index].query.gold);
            obs.answers += 1;
            obs.hallucinated += u64::from(answer.hallucinated);
        }
    }
}

/// One client's share of a closed-loop phase.
#[derive(Debug, Default)]
pub struct ClientOut {
    /// Requests sent.
    pub served: u64,
    /// Answers that differed from the oracle.
    pub wrong: u64,
    /// Requests whose call panicked.
    pub panicked: u64,
    /// Latency of L1 hits and of misses, ns.
    pub hit_ns: Vec<u32>,
    pub miss_ns: Vec<u32>,
    /// Sums over the computed (L1-miss) answers.
    pub examined: u64,
    pub kept: u64,
    pub dropped: u64,
    /// Answers kept for checking once the oracle is known.
    pub unchecked: Vec<(usize, ServeVerdict)>,
    pub kernel: KernelCounters,
    pub tindex: TindexCounters,
    pub sim_ms: f64,
    pub llm_calls: u64,
    pub llm_cache_hits: u64,
    pub llm_retries: u64,
    /// When the client answered its last request.
    pub done: Option<Instant>,
    pub spans: Vec<Span>,
}

/// The closed loop of one client: take the next request, serve it,
/// check the answer, repeat until the stream is exhausted. Only the
/// `serve_one` call is timed. Without a known oracle the answers are
/// kept for [`Observed::add_clients`] to check.
pub fn drive(
    pipeline: &mut MklgpPipeline<'_>,
    caches: &CacheStack,
    traffic: &Traffic,
    next: &AtomicUsize,
    spans: &mut Spans,
    parent: u64,
    request_base: u64,
) -> ClientOut {
    let usage = pipeline.llm().usage();
    let kernel = pipeline.kernel_counters();
    let tindex = pipeline.tindex_counters();
    let mut out = ClientOut::default();
    // Claiming a run of requests at a time keeps the two clients off one
    // contended counter line per request; runs of a thousandth of the
    // stream leave them finishing within about 0.1% of a phase.
    let claim = (traffic.len() / 1000).max(1);
    loop {
        let first = next.fetch_add(claim, Ordering::Relaxed);
        if first >= traffic.len() {
            break;
        }
        for sent in first..(first + claim).min(traffic.len()) {
            let index = traffic.order[sent] as usize;
            let request = &traffic.requests[index];
            let start = Instant::now();
            let response = catch_unwind(AssertUnwindSafe(|| serve_one(pipeline, caches, request)));
            let end = Instant::now();
            let latency = (end - start).as_nanos().min(u32::MAX as u128) as u32;
            out.served += 1;
            let Ok(response) = response else {
                out.panicked += 1;
                continue;
            };
            if spans.on() {
                let name = if response.result_cache_hit {
                    "serve_one.hit"
                } else {
                    "serve_one.miss"
                };
                let id = spans.begin();
                spans.record(id, parent, name, request_base + sent as u64, start, end);
            }
            if response.result_cache_hit {
                out.hit_ns.push(latency);
            } else {
                out.miss_ns.push(latency);
                if let ServeVerdict::Answered(answer) = &response.verdict {
                    out.examined += answer.examined as u64;
                    out.kept += answer.kept.len() as u64;
                    out.dropped += answer.dropped as u64;
                }
            }
            if traffic.expected.is_empty() {
                out.unchecked.push((index, response.verdict));
            } else if !traffic.matches(index, &response.verdict) {
                out.wrong += 1;
            }
        }
    }
    out.done = Some(Instant::now());
    let after = pipeline.llm().usage();
    out.kernel = pipeline.kernel_counters().since(kernel);
    out.tindex = pipeline.tindex_counters().since(tindex);
    out.sim_ms = after.simulated_ms - usage.simulated_ms;
    out.llm_calls = after.calls - usage.calls;
    out.llm_cache_hits = after.cache_hits - usage.cache_hits;
    out.llm_retries = after.retries - usage.retries;
    out
}

/// A client pipeline bound to an epoch, with what binding it cost.
pub struct Bound<'s> {
    pub pipeline: MklgpPipeline<'s>,
    pub prepare: Duration,
    pub bytes: i64,
}

/// `snapshot_pipeline` on the calling thread, timed, with the net heap
/// bytes the new pipeline holds.
pub fn prepare<'s>(
    snapshot: &'s EpochSnapshot,
    caches: &CacheStack,
    config: &ServeConfig,
    spans: &mut Spans,
    parent: u64,
) -> Bound<'s> {
    let before = heap::thread_net();
    let (pipeline, prepare) = spans.time(parent, "snapshot_pipeline", || {
        snapshot_pipeline(snapshot, caches, config)
    });
    Bound {
        pipeline,
        prepare,
        bytes: heap::thread_net() - before,
    }
}

/// Runs `work` once per item on its own thread, all at once, and
/// returns the results in item order. Each thread hands its held-back
/// heap count to the shared counter before it ends.
pub fn on_clients<I: Send, T: Send>(items: Vec<I>, work: impl Fn(I) -> T + Sync) -> Vec<T> {
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| {
                scope.spawn(move || {
                    let out = work(item);
                    heap::flush();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Both clients bind to `snapshot` at once; returns their pipelines
/// and the spans they recorded under `parent`.
pub fn bind_clients<'s>(
    env: &Env,
    snapshot: &'s EpochSnapshot,
    caches: &CacheStack,
    config: &ServeConfig,
    parent: u64,
) -> (Vec<Bound<'s>>, Vec<Span>) {
    let joined = on_clients(vec![(); CLIENTS], |()| {
        let mut spans = env.spans();
        let id = spans.begin();
        let start = Instant::now();
        let bound = prepare(snapshot, caches, config, &mut spans, id);
        spans.record(id, parent, "client", NO_REQUEST, start, Instant::now());
        (bound, spans.take())
    });
    let mut spans = Vec::new();
    let bound = joined
        .into_iter()
        .map(|(b, s)| {
            spans.extend(s);
            b
        })
        .collect();
    (bound, spans)
}

/// One timed set-up: `load` turns the input bytes into a graph, then
/// `IndexWriter::new` → `publish` → both clients bound. `setup_s` is the
/// wall of all of it. The clients are dropped again; the caller keeps
/// the writer, the epoch index and the published snapshot.
pub fn setup(
    env: &Env,
    caches: &CacheStack,
    config: &ServeConfig,
    spans: &mut Spans,
    trace: &mut Trace,
    obs: &mut Observed,
    load: impl FnOnce(&mut Spans, u64, &mut Observed) -> KnowledgeGraph,
) -> (IndexWriter, EpochIndex, Arc<EpochSnapshot>) {
    obs.heap_start();
    let root = spans.begin();
    let start = Instant::now();
    let graph = load(spans, root, obs);
    let (mut writer, took) = spans.time(root, "IndexWriter::new", || {
        IndexWriter::new(graph, MultiRagConfig::default(), env.seed)
    });
    obs.layer.writer_init.push(took);
    let (snapshot, took) = spans.time(root, "IndexWriter::publish", || writer.publish());
    obs.layer.publish_call.push(took);
    let index = EpochIndex::new(snapshot.clone());
    let (bound, bind_spans) = bind_clients(env, &snapshot, caches, config, root);
    let end = Instant::now();
    obs.heap_stop();
    obs.setup.push(end - start);
    spans.record(root, ROOT, "setup", NO_REQUEST, start, end);
    let mut tree = spans.take();
    tree.extend(bind_spans);
    trace.absorb(tree);
    for b in &bound {
        obs.layer.prepare.push(b.prepare);
        obs.layer.prepare_bytes.push(b.bytes as f64);
    }
    drop(bound);
    if env.traced {
        // Outside every measured phase: splits the index out of `publish`.
        let start = Instant::now();
        let index = TieredIndex::build(&snapshot.graph);
        obs.layer.tindex_build.push(start.elapsed());
        drop(index);
    }
    (writer, index, snapshot)
}

/// Runs `requests` through the bound clients as one closed-loop phase.
pub fn serve_phase(
    env: &Env,
    clients: &mut [Bound<'_>],
    caches: &CacheStack,
    traffic: &Traffic,
    parent: u64,
    request_base: u64,
) -> Vec<ClientOut> {
    let next = AtomicUsize::new(0);
    on_clients(clients.iter_mut().collect(), |client| {
        let mut spans = env.spans();
        let id = spans.begin();
        let start = Instant::now();
        let mut out = drive(
            &mut client.pipeline,
            caches,
            traffic,
            &next,
            &mut spans,
            id,
            request_base,
        );
        spans.record(id, parent, "client", NO_REQUEST, start, Instant::now());
        out.spans = spans.take();
        out
    })
}

/// One update-to-visible batch: apply `updates`, publish, swap the
/// epoch and caches, then both clients rebind and answer `reads`.
pub struct Batch {
    /// The published epoch (kept for the answer check).
    pub snapshot: Arc<EpochSnapshot>,
    /// From the first `apply` until both clients answered.
    pub visible: Duration,
    /// The clients' outputs.
    pub clients: Vec<ClientOut>,
}

/// Runs one batch and records its layer timings into `obs`.
#[allow(clippy::too_many_arguments)]
pub fn publish_batch(
    env: &Env,
    writer: &mut IndexWriter,
    index: &EpochIndex,
    caches: &CacheStack,
    config: &ServeConfig,
    updates: &[TripleUpdate],
    reads: &Traffic,
    request_base: u64,
    spans: &mut Spans,
    trace: &mut Trace,
    obs: &mut Observed,
) -> Batch {
    let root = spans.begin();
    let start = Instant::now();
    for update in updates {
        let (_, took) = spans.time(root, "IndexWriter::apply", || writer.apply(update));
        obs.layer.apply.push(took);
    }
    let (snapshot, took) = spans.time(root, "IndexWriter::publish", || writer.publish());
    obs.layer.publish_call.push(took);
    let (_, took) = spans.time(root, "epoch_swap", || {
        index.publish(snapshot.clone());
        caches.on_epoch_swap();
    });
    obs.layer.swap.push(took);
    let next = AtomicUsize::new(0);
    let joined = on_clients(vec![(); CLIENTS], |()| {
        let mut spans = env.spans();
        let id = spans.begin();
        let client_start = Instant::now();
        let current = index.load();
        let mut bound = prepare(&current, caches, config, &mut spans, id);
        let mut out = drive(
            &mut bound.pipeline,
            caches,
            reads,
            &next,
            &mut spans,
            id,
            request_base,
        );
        let done = out.done.unwrap_or_else(Instant::now);
        spans.record(id, root, "client", NO_REQUEST, client_start, done);
        out.spans = spans.take();
        (out, bound.prepare, bound.bytes)
    });
    let end = joined
        .iter()
        .filter_map(|(out, _, _)| out.done)
        .max()
        .unwrap_or_else(Instant::now);
    spans.record(root, ROOT, "batch", NO_REQUEST, start, end);
    let mut tree = spans.take();
    let mut clients = Vec::with_capacity(CLIENTS);
    for (mut out, prepare, bytes) in joined {
        obs.layer.prepare.push(prepare);
        obs.layer.prepare_bytes.push(bytes as f64);
        tree.append(&mut out.spans);
        clients.push(out);
    }
    trace.absorb(tree);
    Batch {
        snapshot,
        visible: end - start,
        clients,
    }
}
