//! End-to-end serving benchmark for the MultiRAG serving stack.
//!
//! Drives the stack from outside, through its public serving API only,
//! with two closed-loop client threads, and checks every answer against
//! a `serve_sequential` replay on a fresh cache stack.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-miss --seed 42 --seconds 20 --trace 0
//! cargo test --release --manifest-path perfbench/Cargo.toml   # smoke test
//! ```
//!
//! Workloads: `serve-miss`, `serve-repeat`, `ingest-publish` (see
//! `BENCHMARK.json` for why each was chosen). `--trace 0` prints the
//! end-to-end metrics; `--trace 1` is a separate run that records spans
//! around every call into a layer, writes them to the spans file
//! (`--spans`, default `perfbench/out/spans-<workload>-<seed>.jsonl`)
//! and prints the per-layer metrics. `--smoke` runs on small inputs.
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod heap;
mod ingest;
mod run;
mod serve;
mod trace;

use run::{median, quantile, ratio, Env, Observed};
use std::time::{Duration, Instant};
use trace::LAYERS;

#[global_allocator]
static ALLOC: heap::CountingAlloc = heap::CountingAlloc;

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["serve-miss", "serve-repeat", "ingest-publish"];

/// End-to-end metrics, printed by an untraced run: `(name, unit)`.
///
/// * `setup_s` — median wall from input bytes in memory until both
///   clients hold a bound pipeline, over every set-up of the run.
/// * `throughput_rps`, `latency_p50_us`, `latency_p90_us` — medians over
///   the measured phases (serve-*: passes over the request stream;
///   ingest-publish: rounds, counting the reads of every batch) of each
///   phase's requests per second and per-request `serve_one` wall.
/// * `publish_p50_ms`, `publish_p90_ms` — update-to-visible: from the
///   first `IndexWriter::apply` of a batch until both clients answered
///   on the new epoch.
/// * `peak_heap_mb` — highest live heap of any set-up, pass or batch.
/// * `llm_calls_per_req` — simulated-LLM calls per reported request.
/// * `f1` — micro F1 of the reported requests' answers against gold.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("throughput_rps", "req/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("publish_p50_ms", "ms"),
    ("publish_p90_ms", "ms"),
    ("peak_heap_mb", "MiB"),
    ("llm_calls_per_req", "calls"),
    ("f1", "ratio"),
];

/// Per-layer metrics, printed by a traced run: `(name, unit)`. Each
/// layer also reports `<layer>.self_ms` and `<layer>.spans`.
const PER_LAYER: [(&str, &str); 30] = [
    ("ingest.parse_us", "us"),
    ("ingest.load_us", "us"),
    ("ingest.bytes", "bytes"),
    ("ingest.claims", "count"),
    ("kg.persist_load_us", "us"),
    ("kg.tindex_build_us", "us"),
    ("kg.triples", "count"),
    ("kg.slots", "count"),
    ("epoch.writer_init_us", "us"),
    ("epoch.apply_us", "us"),
    ("epoch.publish_us", "us"),
    ("epoch.swap_us", "us"),
    ("core.prepare_us", "us"),
    ("core.prepare_bytes", "bytes"),
    ("core.nmi_pairs_per_miss", "count"),
    ("core.profiles_per_miss", "count"),
    ("core.examined_per_miss", "count"),
    ("core.kept_ratio", "ratio"),
    ("tindex.descents_per_miss", "count"),
    ("tindex.and_ops_per_miss", "count"),
    ("tindex.pruned_per_miss", "count"),
    ("llm.sim_ms_per_req", "ms"),
    ("llm.cache_hit_ratio", "ratio"),
    ("llm.retries", "count"),
    ("serve.l1_hit_ratio", "ratio"),
    ("serve.l2_hit_ratio", "ratio"),
    ("serve.hit_p50_us", "us"),
    ("serve.miss_p50_us", "us"),
    ("serve.miss_p99_us", "us"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 6.0,
        trace: false,
        smoke: false,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--spans" => args.spans = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let env = Env {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        smoke: args.smoke,
        origin: Instant::now(),
    };
    let mut obs = match args.workload.as_str() {
        "serve-miss" => serve::run(&env, false),
        "serve-repeat" => serve::run(&env, true),
        _ => ingest::run(&env),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let failed = obs.wrong + obs.panicked;
    // Printed and stamped, but outside the result line: failure_rate is
    // 0 in every correct run (`failed` / `attempted` carry it), the
    // hallucination rate over serve-repeat's 100 queries moves with the
    // seed far more than any bound allows, and serve-repeat's p99 (a hit
    // waiting on the contended L1 lock) swung 3-13 us between runs of
    // one build on a 2-vCPU host, where p90 held within 10%.
    let informational = [
        (
            "failure_rate",
            ratio(failed as f64, obs.attempted as f64),
            "ratio",
        ),
        (
            "hallucination_rate",
            ratio(obs.hallucinated as f64, obs.answers as f64),
            "ratio",
        ),
        (
            "latency_p99_us",
            median(&obs.phases.iter().map(|p| p.p99_us).collect::<Vec<_>>()),
            "us",
        ),
    ];
    let mut stamp = vec![
        ("workload", format!("\"{}\"", args.workload)),
        ("seed", args.seed.to_string()),
        ("nproc", nproc.to_string()),
        ("clients", run::CLIENTS.to_string()),
        ("smoke", args.smoke.to_string()),
        ("triples", obs.layer.triples.to_string()),
        ("slots", obs.layer.slots.to_string()),
        ("l1_hit_share", num(l1_hit_ratio(&obs))),
        ("l2_hit_share", num(l2_hit_ratio(&obs))),
        ("panicked", obs.panicked.to_string()),
    ];
    stamp.extend(
        informational
            .iter()
            .map(|&(name, value, _)| (name, num(value))),
    );
    stamp.append(&mut obs.stamp);

    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let path = args.spans.clone().unwrap_or_else(|| {
            format!("perfbench/out/spans-{}-{}.jsonl", args.workload, args.seed)
        });
        let header = format!("{{{}}}", json_fields(&stamp));
        if let Some(trace) = &obs.trace {
            if let Err(error) = trace.write(std::path::Path::new(&path), &header) {
                eprintln!("perfbench: cannot write spans to {path}: {error}");
                std::process::exit(1);
            }
        }
        stamp.push(("spans_file", format!("\"{path}\"")));
        per_layer(&obs)
    } else {
        end_to_end(&obs)
    };

    for (name, value, unit) in &metrics {
        println!("{name:<26} {value:>16.4} {unit}");
    }
    for (name, value, unit) in informational {
        println!("{name:<26} {value:>16.4} {unit}");
    }
    println!("{{\"stamp\":{{{}}}}}", json_fields(&stamp));
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        failed == 0 && obs.attempted > 0,
        obs.attempted,
        failed,
        body.join(",")
    );
}

/// A JSON number; non-finite values (never expected) print as 0.
fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn json_fields(fields: &[(&str, String)]) -> String {
    fields
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect::<Vec<_>>()
        .join(",")
}

fn secs(samples: &[Duration]) -> Vec<f64> {
    samples.iter().map(Duration::as_secs_f64).collect()
}

fn sorted(samples: &[u32]) -> Vec<u32> {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted
}

fn l1_hit_ratio(obs: &Observed) -> f64 {
    let c = obs.layer.cache;
    ratio(
        c.result_hits as f64,
        (c.result_hits + c.result_misses) as f64,
    )
}

fn l2_hit_ratio(obs: &Observed) -> f64 {
    let c = obs.layer.cache;
    ratio(c.memo_hits as f64, (c.memo_hits + c.memo_misses) as f64)
}

fn end_to_end(obs: &Observed) -> Vec<(String, f64, &'static str)> {
    let phases = |f: fn(&run::Phase) -> f64| median(&obs.phases.iter().map(f).collect::<Vec<_>>());
    let publish = {
        let mut p = secs(&obs.publish);
        p.sort_by(f64::total_cmp);
        p
    };
    let values = [
        median(&secs(&obs.setup)),
        phases(|p| p.rps),
        phases(|p| p.p50_us),
        phases(|p| p.p90_us),
        quantile(&publish, 0.5) * 1e3,
        quantile(&publish, 0.9) * 1e3,
        obs.peak_heap as f64 / (1024.0 * 1024.0),
        ratio(obs.llm_calls as f64, obs.llm_requests as f64),
        obs.scores.f1(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name.to_string(), value, unit))
        .collect()
}

fn per_layer(obs: &Observed) -> Vec<(String, f64, &'static str)> {
    let l = &obs.layer;
    let us = |samples: &[Duration]| median(&secs(samples)) * 1e6;
    let misses = l.miss_ns.len() as f64;
    let hits = sorted(&l.hit_ns);
    let miss = sorted(&l.miss_ns);
    let per_request = |(wall, n): (Duration, u64)| ratio(wall.as_secs_f64(), n as f64);
    let overhead = 100.0 * (ratio(per_request(l.traced_work), per_request(l.plain_work)) - 1.0);
    let trace = obs.trace.as_ref();
    let values = [
        us(&l.parse),
        us(&l.load),
        l.ingest_bytes as f64,
        l.ingest_claims as f64,
        us(&l.persist_load),
        us(&l.tindex_build),
        l.triples as f64,
        l.slots as f64,
        us(&l.writer_init),
        us(&l.apply),
        us(&l.publish_call),
        us(&l.swap),
        us(&l.prepare),
        median(&l.prepare_bytes),
        ratio(l.kernel.nmi_pairs as f64, misses),
        ratio(l.kernel.profiles_built as f64, misses),
        ratio(l.examined as f64, misses),
        ratio(l.kept as f64, (l.kept + l.dropped) as f64),
        ratio(l.tindex.tier_descents as f64, misses),
        ratio(l.tindex.bitset_and_ops as f64, misses),
        ratio(l.tindex.candidates_pruned as f64, misses),
        ratio(l.sim_ms, obs.attempted as f64),
        ratio(
            l.llm_cache_hits as f64,
            (l.llm_calls + l.llm_cache_hits) as f64,
        ),
        l.llm_retries as f64,
        l1_hit_ratio(obs),
        l2_hit_ratio(obs),
        quantile(&hits, 0.5) / 1e3,
        quantile(&miss, 0.5) / 1e3,
        quantile(&miss, 0.99) / 1e3,
        if l.traced_work.1 > 0 && l.plain_work.1 > 0 {
            overhead
        } else {
            0.0
        },
    ];
    let mut out: Vec<(String, f64, &'static str)> = PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name.to_string(), value, unit))
        .collect();
    out.push((
        "trace.residual_pct".to_string(),
        trace.map_or(0.0, trace::Trace::residual_pct),
        "%",
    ));
    for layer in LAYERS {
        out.push((
            format!("{layer}.self_ms"),
            trace.map_or(0.0, |t| t.self_ms(layer)),
            "ms",
        ));
        out.push((
            format!("{layer}.spans"),
            trace.map_or(0.0, |t| t.spans(layer) as f64),
            "count",
        ));
    }
    out
}
