//! The update path every workload shares, and `ingest-publish`: movies
//! cold-started from raw rendered source bytes with one source of each
//! format held out; the held-out sources then arrive as raw bytes and
//! are applied in batches, each published and read back by both clients.

use crate::run::{publish_batch, setup, Env, Observed, Rng, Traffic};
use crate::serve::{queryable, slot_request};
use crate::trace::{Spans, Trace, NO_REQUEST, ROOT};
use multirag_datasets::movies::MoviesSpec;
use multirag_datasets::render::render_all_sources;
use multirag_datasets::{MultiSourceDataset, Scale, TruthTable};
use multirag_ingest::{fuse_sources, load_into_graph, RawSource};
use multirag_serve::{
    CacheStack, EpochIndex, IndexWriter, ServeConfig, ServeRequest, TripleUpdate,
};
use std::time::{Duration, Instant};

/// Claims applied per publish.
const BATCH: usize = 100;
/// Cold starts per round; `setup_s` is the median over all of them.
const SETUPS_PER_ROUND: usize = 3;

/// Sources that arrive as raw bytes while the clients serve. Each is
/// parsed with `fuse_sources` and applied in batches of [`BATCH`]
/// claims; every batch is published, and both clients rebind and read
/// the gold slots it touched. The first replay fixes each batch's reads
/// and their oracle answers; later replays of the same inputs must
/// match them.
pub struct Arrivals {
    sources: Vec<RawSource>,
    truth: TruthTable,
    queryable: Vec<String>,
    reads: Vec<Traffic>,
}

impl Arrivals {
    /// The arrival of `sources`, read back against `data`'s gold.
    pub fn new(sources: Vec<RawSource>, data: &MultiSourceDataset) -> Self {
        Self {
            sources,
            truth: data.truth.clone(),
            queryable: queryable(data),
            reads: Vec::new(),
        }
    }

    /// Stamps the arriving sources: names, formats and bytes.
    pub fn stamp_sources(&self, obs: &mut Observed) {
        let list: Vec<String> = self
            .sources
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"format\":\"{}\"}}",
                    s.name,
                    s.format.tag()
                )
            })
            .collect();
        obs.stamp
            .push(("held_out", format!("[{}]", list.join(","))));
        obs.stamp
            .push(("held_out_bytes", source_bytes(&self.sources).to_string()));
    }

    /// Stamps the batches of one replay and the slots each touched.
    pub fn stamp_batches(&self, obs: &mut Observed) {
        let touched: usize = self.reads.iter().map(Traffic::len).sum();
        obs.stamp
            .push(("batches_per_replay", self.reads.len().to_string()));
        obs.stamp.push((
            "slots_touched_per_batch",
            format!("{}", touched as f64 / self.reads.len().max(1) as f64),
        ));
    }

    /// Every source arrives and every batch is published and read back.
    /// Records each batch's update-to-visible wall; `reported` reads also
    /// feed the end-to-end latency, LLM-call and (first replay) score
    /// figures. Returns the replay's wall and the reads it served.
    #[allow(clippy::too_many_arguments)]
    pub fn replay(
        &mut self,
        env: &Env,
        writer: &mut IndexWriter,
        index: &EpochIndex,
        caches: &CacheStack,
        config: &ServeConfig,
        request_base: u64,
        reported: bool,
        spans: &mut Spans,
        trace: &mut Trace,
        obs: &mut Observed,
    ) -> (Duration, u64) {
        let first = self.reads.is_empty();
        let mut wall = Duration::ZERO;
        let mut served = 0u64;
        let mut batch = 0usize;
        for source in &self.sources {
            let root = spans.begin();
            let start = Instant::now();
            // Its parse shows in the trace; `ingest.parse_us` stays the
            // cold start's, so one figure never mixes two input sizes.
            let (fused, _) = spans.time(root, "fuse_sources", || {
                fuse_sources(std::slice::from_ref(source)).expect("rendered source parses")
            });
            let updates: Vec<TripleUpdate> = fused
                .iter()
                .flat_map(|(_, adapted)| &adapted.claims)
                .map(|claim| TripleUpdate {
                    entity: claim.entity.clone(),
                    relation: claim.attribute.clone(),
                    value: claim.value.clone(),
                    source: source.name.clone(),
                    chunk: claim.chunk,
                })
                .collect();
            let end = Instant::now();
            spans.record(root, ROOT, "arrival", NO_REQUEST, start, end);
            trace.absorb(spans.take());
            wall += end - start;
            if first {
                obs.layer.ingest_claims += updates.len() as u64;
                obs.layer.ingest_bytes += source.content.len() as u64;
            }

            for chunk in updates.chunks(BATCH) {
                if first {
                    self.reads.push(Traffic::once(touched_reads(
                        chunk,
                        &self.truth,
                        &self.queryable,
                    )));
                }
                let reads = &mut self.reads[batch];
                obs.heap_start();
                let done = publish_batch(
                    env,
                    writer,
                    index,
                    caches,
                    config,
                    chunk,
                    reads,
                    request_base | (batch as u64) << 20,
                    spans,
                    trace,
                    obs,
                );
                obs.heap_stop();
                if first {
                    reads.verify(&done.snapshot, config);
                    if reported {
                        reads.score(obs);
                    }
                }
                wall += done.visible;
                served += reads.len() as u64;
                obs.publish.push(done.visible);
                obs.add_clients(done.clients, reads, reported);
                batch += 1;
            }
        }
        (wall, served)
    }
}

fn source_bytes(sources: &[RawSource]) -> usize {
    sources.iter().map(|s| s.content.len()).sum()
}

/// Runs `ingest-publish`.
pub fn run(env: &Env) -> Observed {
    let scale = if env.smoke {
        Scale::small()
    } else {
        Scale::bench()
    };
    let data = MoviesSpec::at_scale(scale).generate(env.seed);

    // Hold out one source of each format, drawn by the seed.
    let sources = render_all_sources(&data);
    let mut formats: Vec<&str> = sources.iter().map(|s| s.format.tag()).collect();
    formats.sort_unstable();
    formats.dedup();
    let mut rng = Rng::new(env.seed, 3);
    let mut held_idx: Vec<usize> = formats
        .iter()
        .map(|&f| {
            let of: Vec<usize> = (0..sources.len())
                .filter(|&i| sources[i].format.tag() == f)
                .collect();
            of[rng.below(of.len())]
        })
        .collect();
    held_idx.sort_unstable();
    let (mut base, mut held): (Vec<RawSource>, Vec<RawSource>) = (Vec::new(), Vec::new());
    for (i, source) in sources.into_iter().enumerate() {
        if held_idx.contains(&i) {
            held.push(source);
        } else {
            base.push(source);
        }
    }
    let mut arrivals = Arrivals::new(held, &data);
    drop(data);

    let mut obs = Observed::default();
    obs.stamp.push(("dataset", "\"movies\"".into()));
    obs.stamp.push(("entities", scale.entities.to_string()));
    obs.stamp.push(("base_sources", base.len().to_string()));
    obs.stamp
        .push(("base_bytes", source_bytes(&base).to_string()));
    arrivals.stamp_sources(&mut obs);

    let serve_config = ServeConfig::default();
    let mut trace = Trace::new();
    let measured = Instant::now();
    let mut round = 0u64;
    while round < 2 || measured.elapsed().as_secs_f64() < env.seconds {
        // A traced run alternates traced and untraced rounds, so the two
        // can be compared for the tracing overhead.
        let env = &Env {
            traced: env.traced && round % 2 == 1,
            ..env.clone()
        };
        let mut spans = env.spans();

        // Cold start from the base sources' raw bytes, repeated; each
        // set-up is dropped before the next starts, so it stays out of
        // the next one's peak heap, and the last one takes the stream.
        let caches = CacheStack::new();
        let mut state = None;
        for _ in 0..SETUPS_PER_ROUND {
            drop(state.take());
            state = Some(setup(
                env,
                &caches,
                &serve_config,
                &mut spans,
                &mut trace,
                &mut obs,
                |spans, root, obs| {
                    let (fused, took) = spans.time(root, "fuse_sources", || {
                        fuse_sources(&base).expect("rendered sources parse")
                    });
                    obs.layer.parse.push(took);
                    let (graph, took) = spans.time(root, "load_into_graph", || {
                        load_into_graph(&base, &fused).expect("fused sources load")
                    });
                    obs.layer.load.push(took);
                    if obs.layer.ingest_bytes == 0 {
                        obs.layer.ingest_claims =
                            fused.iter().map(|(_, a)| a.claims.len() as u64).sum();
                        obs.layer.ingest_bytes = source_bytes(&base) as u64;
                    }
                    graph
                },
            ));
        }
        let (mut writer, index, _) = state.expect("at least one set-up per round");

        let (stream, reads_served) = arrivals.replay(
            env,
            &mut writer,
            &index,
            &caches,
            &serve_config,
            round << 40,
            true,
            &mut spans,
            &mut trace,
            &mut obs,
        );
        obs.layer.add_cache(Default::default(), caches.counters());
        obs.layer.add_work(env.traced, stream, reads_served);
        obs.end_phase(stream, reads_served);
        if round == 0 {
            let snapshot = index.load();
            obs.layer.triples = snapshot.graph.triple_count() as u64;
            obs.layer.slots = snapshot.tindex.stats().slots as u64;
        }
        round += 1;
    }
    obs.stamp.push(("rounds", round.to_string()));
    arrivals.stamp_batches(&mut obs);
    obs.trace = Some(trace);
    obs
}

/// A fresh read for every queryable gold slot a batch of updates touched.
fn touched_reads(
    updates: &[TripleUpdate],
    truth: &TruthTable,
    queryable: &[String],
) -> Vec<ServeRequest> {
    let mut reads: Vec<ServeRequest> = Vec::new();
    for update in updates {
        let (entity, attr) = (&update.entity, &update.relation);
        let Some(gold) = truth.get(entity, attr) else {
            continue;
        };
        let seen = reads
            .iter()
            .any(|r| r.query.entity == *entity && r.query.attribute == *attr);
        if queryable.contains(attr) && !seen {
            reads.push(slot_request(reads.len(), entity, attr, gold));
        }
    }
    reads
}
