//! `serve-miss` and `serve-repeat`: flights warm-started from a
//! `kg::persist` dump, two closed-loop clients, then one flights source
//! re-sends its feed as raw bytes for the update-to-visible figures.

use crate::ingest::Arrivals;
use crate::run::{bind_clients, serve_phase, setup, Env, Observed, Rng, Traffic};
use crate::trace::{Trace, NO_REQUEST, ROOT};
use multirag_datasets::flights::FlightsSpec;
use multirag_datasets::render::render_source;
use multirag_datasets::{MultiSourceDataset, Query, Scale};
use multirag_kg::{persist, Value};
use multirag_serve::{build_workload, CacheStack, RequestKind, ServeConfig, ServeRequest};
use std::collections::HashMap;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// serve-miss requests per pass, per gold slot.
const MISS_PER_SLOT: usize = 2;
/// serve-repeat requests per pass, per dataset query.
const REPEAT_PER_QUERY: usize = 2000;
/// Query ids for generated requests start here, above every dataset id.
pub const FRESH_ID: u32 = 1_000_000;

/// A gold `(entity, attribute)` slot with its gold values.
pub type Slot = (String, String, Vec<Value>);

/// The attributes of `data` that queries ask about.
pub fn queryable(data: &MultiSourceDataset) -> Vec<String> {
    data.spec
        .attributes
        .iter()
        .filter(|a| a.queryable)
        .map(|a| a.name.clone())
        .collect()
}

/// Every queryable gold slot of `data`, sorted. Chosen from the truth
/// table alone; a slot no source covers is still a valid request, and
/// its answer is checked like any other.
pub fn gold_slots(data: &MultiSourceDataset) -> Vec<Slot> {
    let queryable = queryable(data);
    let mut slots: Vec<Slot> = data
        .truth
        .iter()
        .filter(|((_, attr), _)| queryable.contains(attr))
        .map(|((entity, attr), gold)| (entity.clone(), attr.clone(), gold.clone()))
        .collect();
    slots.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
    slots
}

/// A fresh request for one slot, worded like the dataset's queries.
pub fn slot_request(seq: usize, entity: &str, attribute: &str, gold: &[Value]) -> ServeRequest {
    ServeRequest {
        seq: seq as u32,
        query: Query {
            id: FRESH_ID + seq as u32,
            text: format!("What is the {} of {}?", attribute.replace('_', " "), entity),
            entity: entity.to_string(),
            attribute: attribute.to_string(),
            gold: gold.to_vec(),
        },
        kind: RequestKind::Fresh,
    }
}

/// The `serve-repeat` stream: the serving layer's own fresh / repeat /
/// paraphrase mix over the dataset's queries, stored as its distinct
/// requests plus the order they are sent in.
fn repeat_traffic(queries: &[Query], total: usize, seed: u64) -> Traffic {
    let mut traffic = Traffic::default();
    let mut seen: HashMap<(u32, String), u32> = HashMap::new();
    for request in build_workload(queries, total, seed) {
        let key = (request.query.id, request.query.text.clone());
        let index = *seen.entry(key).or_insert_with(|| {
            traffic.requests.push(request);
            traffic.requests.len() as u32 - 1
        });
        traffic.order.push(index);
    }
    traffic
}

/// Runs `serve-miss` (`repeat == false`) or `serve-repeat`.
pub fn run(env: &Env, repeat: bool) -> Observed {
    let scale = if env.smoke {
        Scale::small()
    } else {
        Scale::bench()
    };
    let data = FlightsSpec::at_scale(scale).generate(env.seed);
    let slots = gold_slots(&data);
    let mut traffic = if repeat {
        repeat_traffic(
            &data.queries,
            REPEAT_PER_QUERY * data.queries.len(),
            env.seed,
        )
    } else {
        let mut rng = Rng::new(env.seed, 1);
        Traffic::once(
            (0..MISS_PER_SLOT * slots.len())
                .map(|seq| {
                    let (entity, attr, gold) = &slots[rng.below(slots.len())];
                    slot_request(seq, entity, attr, gold)
                })
                .collect(),
        )
    };
    let dump = persist::dump(&data.graph);
    // After the steady phase one source, drawn by the seed, re-sends its
    // whole feed as raw bytes through the update path ingest-publish
    // uses; its claims re-assert under its own name.
    let resent = data.sources[Rng::new(env.seed, 2).below(data.sources.len())].id;
    let mut arrivals = Arrivals::new(vec![render_source(&data, resent)], &data);
    let mut obs = Observed::default();
    obs.stamp.push(("dataset", "\"flights\"".into()));
    obs.stamp.push(("entities", scale.entities.to_string()));
    obs.stamp.push(("dump_bytes", dump.len().to_string()));
    obs.stamp.push(("gold_slots", slots.len().to_string()));
    obs.stamp
        .push(("requests_per_pass", traffic.len().to_string()));
    obs.stamp
        .push(("distinct_requests", traffic.requests.len().to_string()));
    arrivals.stamp_sources(&mut obs);
    drop(data);

    let serve_config = ServeConfig::default();
    let mut trace = Trace::new();
    let mut spans = env.spans();

    // Set-up from the dump, repeated; each set-up is dropped before the
    // next starts, so it stays out of the next one's peak heap. The
    // clients then bind once more, untimed, to serve.
    let caches = CacheStack::new();
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        state = Some(setup(
            env,
            &caches,
            &serve_config,
            &mut spans,
            &mut trace,
            &mut obs,
            |spans, root, obs| {
                let (graph, took) = spans.time(root, "persist::load", || {
                    persist::load(&dump).expect("a dump of a generated graph loads")
                });
                obs.layer.persist_load.push(took);
                graph
            },
        ));
    }
    let (mut writer, index, snapshot) = state.expect("at least one set-up");
    let (mut clients, _) = bind_clients(env, &snapshot, &caches, &serve_config, ROOT);
    obs.layer.triples = snapshot.graph.triple_count() as u64;
    obs.layer.slots = snapshot.tindex.stats().slots as u64;

    // Every pass sends the same stream over emptied caches, so every
    // answer of every pass must equal the oracle's.
    traffic.verify(&snapshot, &serve_config);
    traffic.score(&mut obs);
    let measured = Instant::now();
    let mut passes = 0u64;
    while passes < 2 || measured.elapsed().as_secs_f64() < env.seconds {
        caches.result.clear();
        caches.memo.clear();
        caches.llm.clear();
        // A traced run alternates traced and untraced passes, so the
        // two can be compared for the tracing overhead.
        let pass_env = Env {
            traced: env.traced && passes % 2 == 1,
            ..env.clone()
        };
        let mut pass_spans = pass_env.spans();
        let before = caches.counters();
        obs.heap_start();
        let root = pass_spans.begin();
        let start = Instant::now();
        let mut outs = serve_phase(
            &pass_env,
            &mut clients,
            &caches,
            &traffic,
            root,
            passes * traffic.len() as u64,
        );
        let end = Instant::now();
        obs.heap_stop();
        pass_spans.record(root, ROOT, "pass", NO_REQUEST, start, end);
        let mut tree = pass_spans.take();
        for out in &mut outs {
            tree.append(&mut out.spans);
        }
        trace.absorb(tree);
        let wall = end - start;
        obs.layer
            .add_work(pass_env.traced, wall, traffic.len() as u64);
        obs.layer.add_cache(before, caches.counters());
        obs.add_clients(outs, &traffic, true);
        obs.end_phase(wall, traffic.len() as u64);
        passes += 1;
    }
    obs.stamp.push(("passes", passes.to_string()));
    drop(clients);

    // Update-to-visible: the re-sent feed, batch by batch; its reads
    // are checked but stay out of the steady-phase figures.
    arrivals.replay(
        env,
        &mut writer,
        &index,
        &caches,
        &serve_config,
        1 << 60,
        false,
        &mut spans,
        &mut trace,
        &mut obs,
    );
    arrivals.stamp_batches(&mut obs);
    obs.trace = Some(trace);
    obs
}
