//! Deterministic closed-loop load simulator — the one event loop for
//! single-node serving and for the sharded fleet.
//!
//! A closed loop has a fixed number of concurrent clients, each
//! submitting its next request the moment the previous one resolves —
//! the standard model for steady-state latency/throughput curves
//! (open-loop arrival processes need a random arrival clock, which
//! would break byte-stable artifacts).
//!
//! [`simulate`] is a discrete-event loop over **integer simulated
//! microseconds** against N shard pools, each with its own workers and
//! bounded queue. Every request carries a candidate-shard list (owner
//! first); it runs on the first live candidate with a free worker,
//! else queues on the first live candidate with queue space, else is
//! shed. Single-node serving ([`closed_loop_timeline`]) is the
//! one-shard case: every candidate list is `[0]`. Per-request service
//! times come from the sequential oracle
//! ([`crate::engine::serve_sequential`]), so the sim models *queueing
//! and shedding only* — who waits, who sheds, when — on top of service
//! times that are already deterministic. No wall clock, no OS
//! scheduler: the same inputs produce the same bytes on every machine.
//!
//! Event ordering is total: by time, then completions before
//! submissions (a worker freed at `t` can pick up a request submitted
//! at `t`), then by a monotonic tiebreaker sequence. Event times are
//! saturating sums, so service times near `u64::MAX` pin the clock at
//! `u64::MAX` instead of overflowing it.
//!
//! The loop reports each completion and each shed to its caller, which
//! decides what to keep: [`closed_loop_timeline`] keeps one
//! [`RequestTiming`] per request and pure integer nearest-rank
//! percentiles (`⌈n·p/100⌉`, no float rank arithmetic), exported both
//! as integer µs ([`LoadPoint::p99_us`]) and as derived ms floats; the
//! cluster tier folds completions into per-shard log histograms so a
//! million-request run stays O(buckets) in memory.

use multirag_faults::FaultPlan;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Simulated pause before a client whose request was shed moves on to
/// its next request.
pub const SHED_BACKOFF_US: u64 = 200;

/// One measured operating point of the closed loop.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadPoint {
    /// Number of closed-loop clients.
    pub concurrency: usize,
    /// Requests the clients attempted to submit.
    pub offered: usize,
    /// Requests served to completion.
    pub completed: usize,
    /// Requests shed at admission (queue full).
    pub shed: usize,
    /// Completed requests per simulated second.
    pub throughput_qps: f64,
    /// Median end-to-end latency (queue wait + service), integer µs.
    pub p50_us: u64,
    /// 95th-percentile latency, integer µs.
    pub p95_us: u64,
    /// 99th-percentile latency, integer µs.
    pub p99_us: u64,
    /// Median latency in simulated ms (derived: `p50_us / 1000`).
    pub p50_ms: f64,
    /// 95th-percentile latency in simulated ms (derived).
    pub p95_ms: f64,
    /// 99th-percentile latency in simulated ms (derived).
    pub p99_ms: f64,
    /// Total simulated time until the last client finished, ms.
    pub sim_total_ms: f64,
}

/// Per-request lifecycle stamps on the simulator clock. For a shed
/// request all three stamps equal the shed instant; for a served one
/// `completed_us - submitted_us` is the end-to-end latency and
/// `started_us - submitted_us` the queue wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequestTiming {
    /// Whether the request was served (vs shed at admission).
    pub served: bool,
    /// When the client submitted the request (µs).
    pub submitted_us: u64,
    /// When a worker began service (µs).
    pub started_us: u64,
    /// When service finished — or the shed instant (µs).
    pub completed_us: u64,
}

impl RequestTiming {
    /// End-to-end latency: queue wait + service (0 for shed requests).
    pub fn latency_us(&self) -> u64 {
        self.completed_us - self.submitted_us
    }

    /// Time spent waiting in the admission queue (0 for shed requests).
    pub fn queue_wait_us(&self) -> u64 {
        self.started_us - self.submitted_us
    }
}

/// Run-wide totals of one [`simulate`] call; per-request outcomes go
/// to its callback instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopTotals {
    /// Requests shed (every live candidate full, or none live).
    pub shed: usize,
    /// Requests whose preferred candidate was down.
    pub failovers: usize,
    /// Requests whose every candidate was down (counted in `shed` too).
    pub unrouted: usize,
    /// Simulated time when the last client finished (µs).
    pub end_us: u64,
    /// Peak admission-queue depth per shard.
    pub peak_queue: Vec<u64>,
}

impl LoopTotals {
    /// `completed` requests per simulated second (0 for an empty run).
    pub fn throughput_qps(&self, completed: usize) -> f64 {
        if self.end_us > 0 {
            completed as f64 / (self.end_us as f64 / 1_000_000.0)
        } else {
            0.0
        }
    }

    /// Total simulated time in ms.
    pub fn sim_total_ms(&self) -> f64 {
        self.end_us as f64 / 1000.0
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// `shard` finishes request `request` that `client` submitted at
    /// `submitted` and a worker picked up at `started`.
    Complete {
        client: usize,
        request: usize,
        shard: u32,
        submitted: u64,
        started: u64,
    },
    /// A client submits its next request (or retires if none remain).
    Arrive { client: usize },
}

/// Nearest-rank percentile over an ascending-sorted sample, in the
/// sample's own unit. Pure integer ceiling rank — `⌈n·p/100⌉` clamped
/// to `[1, n]` — so rank selection cannot drift on float rounding.
fn nearest_rank(sorted: &[u64], percent: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len() as u64;
    let rank = (n * percent).div_ceil(100);
    let idx = (rank.clamp(1, n) - 1) as usize;
    sorted.get(idx).copied().unwrap_or(0)
}

/// Runs the closed loop over `shards` pools of `workers` servers, each
/// fronted by a bounded queue of `queue_depth`.
///
/// `total` requests are driven by `concurrency` clients, round-robin:
/// client `c` submits requests `c, c + concurrency, …` in order.
/// Request `i` takes `service_us[i % len]` and may run on the shards
/// in `candidates[i % len]` (owner first). The replication lets a
/// few-thousand-request measured oracle drive millions of simulated
/// requests without per-request state. `outage` optionally supplies a
/// fault plan plus the simulated-µs width of one outage window; a down
/// shard accepts no starts and no enqueues for that window.
///
/// A submission that finds every live candidate full is shed, and one
/// whose every candidate is down is shed as unrouted; either way the
/// client backs off [`SHED_BACKOFF_US`] and moves on. `on_resolved`
/// sees every request once, in event order: its index, the shard that
/// served it (`None` exactly when it was shed) and its stamps.
#[allow(clippy::too_many_arguments)]
pub fn simulate(
    service_us: &[u64],
    candidates: &[Vec<u32>],
    total: usize,
    shards: u32,
    concurrency: usize,
    workers: usize,
    queue_depth: usize,
    outage: Option<(&FaultPlan, u64)>,
    mut on_resolved: impl FnMut(usize, Option<u32>, RequestTiming),
) -> LoopTotals {
    let shards = shards.max(1);
    let concurrency = concurrency.max(1);
    let workers = workers.max(1);
    let service_len = service_us.len().max(1);
    let cand_len = candidates.len().max(1);

    let mut heap: BinaryHeap<Reverse<(u64, u8, u64, Event)>> = BinaryHeap::new();
    let mut tiebreak: u64 = 0;
    let mut push =
        |heap: &mut BinaryHeap<Reverse<(u64, u8, u64, Event)>>, time: u64, event: Event| {
            // Completions sort before arrivals at the same instant so a
            // freed worker can take a same-instant submission.
            let kind = match event {
                Event::Complete { .. } => 0u8,
                Event::Arrive { .. } => 1u8,
            };
            tiebreak += 1;
            heap.push(Reverse((time, kind, tiebreak, event)));
        };
    for client in 0..concurrency {
        push(&mut heap, 0, Event::Arrive { client });
    }

    // A counter per client instead of materialized request streams, so
    // a million-request workload costs no per-request memory.
    let mut submitted_by_client: Vec<usize> = vec![0; concurrency];
    let quota = |client: usize| total / concurrency + usize::from(client < total % concurrency);

    let mut busy: Vec<usize> = vec![0; shards as usize];
    // Waiting requests per shard: (client, request, submitted, service).
    let mut queues: Vec<VecDeque<(usize, usize, u64, u64)>> =
        vec![VecDeque::new(); shards as usize];
    let mut totals = LoopTotals {
        shed: 0,
        failovers: 0,
        unrouted: 0,
        end_us: 0,
        peak_queue: vec![0; shards as usize],
    };

    while let Some(Reverse((now, _, _, event))) = heap.pop() {
        totals.end_us = totals.end_us.max(now);
        match event {
            Event::Complete {
                client,
                request,
                shard,
                submitted,
                started,
            } => {
                let timing = RequestTiming {
                    served: true,
                    submitted_us: submitted,
                    started_us: started,
                    completed_us: now,
                };
                on_resolved(request, Some(shard), timing);
                let s = shard as usize;
                let next = queues.get_mut(s).and_then(VecDeque::pop_front);
                if let Some((qclient, qrequest, qsubmitted, qservice)) = next {
                    // The freed worker immediately takes the oldest
                    // queued request; `busy` is unchanged.
                    push(
                        &mut heap,
                        now.saturating_add(qservice),
                        Event::Complete {
                            client: qclient,
                            request: qrequest,
                            shard,
                            submitted: qsubmitted,
                            started: now,
                        },
                    );
                } else if let Some(b) = busy.get_mut(s) {
                    *b -= 1;
                }
                push(&mut heap, now, Event::Arrive { client });
            }
            Event::Arrive { client } => {
                let attempted = submitted_by_client.get(client).copied().unwrap_or(0);
                if attempted >= quota(client) {
                    continue; // client retired
                }
                if let Some(n) = submitted_by_client.get_mut(client) {
                    *n += 1;
                }
                let request = client + attempted * concurrency;
                let service = service_us.get(request % service_len).copied().unwrap_or(1);
                let cands: &[u32] = candidates
                    .get(request % cand_len)
                    .map(Vec::as_slice)
                    .unwrap_or_default();

                let is_down = |shard: u32| match outage {
                    Some((plan, window_us)) => plan.node_outage(shard, now / window_us.max(1)),
                    None => false,
                };
                let live = || cands.iter().copied().filter(|&n| n < shards && !is_down(n));
                if live().next().is_none() {
                    totals.unrouted += 1;
                } else if cands.iter().copied().find(|&n| !is_down(n)) != cands.first().copied() {
                    totals.failovers += 1;
                }
                // First live candidate with a free worker starts now;
                // otherwise first live candidate with queue space.
                if let Some(shard) =
                    live().find(|&n| busy.get(n as usize).is_some_and(|&b| b < workers))
                {
                    if let Some(b) = busy.get_mut(shard as usize) {
                        *b += 1;
                    }
                    push(
                        &mut heap,
                        now.saturating_add(service),
                        Event::Complete {
                            client,
                            request,
                            shard,
                            submitted: now,
                            started: now,
                        },
                    );
                } else if let Some(shard) = live().find(|&n| {
                    queues
                        .get(n as usize)
                        .is_some_and(|q| q.len() < queue_depth)
                }) {
                    let s = shard as usize;
                    if let (Some(q), Some(peak)) = (queues.get_mut(s), totals.peak_queue.get_mut(s))
                    {
                        q.push_back((client, request, now, service));
                        *peak = (*peak).max(q.len() as u64);
                    }
                } else {
                    totals.shed += 1;
                    let timing = RequestTiming {
                        served: false,
                        submitted_us: now,
                        started_us: now,
                        completed_us: now,
                    };
                    on_resolved(request, None, timing);
                    push(
                        &mut heap,
                        now.saturating_add(SHED_BACKOFF_US),
                        Event::Arrive { client },
                    );
                }
            }
        }
    }
    totals
}

/// Runs the single-node closed loop: `concurrency` clients replay
/// `service_us` (request `i` goes to client `i % concurrency`,
/// preserving each client's stream order) against `workers` servers
/// fronted by a bounded queue of `queue_depth` — [`simulate`] on one
/// shard.
pub fn closed_loop(
    service_us: &[u64],
    concurrency: usize,
    workers: usize,
    queue_depth: usize,
) -> LoadPoint {
    closed_loop_timeline(service_us, concurrency, workers, queue_depth).0
}

/// [`closed_loop`] plus a per-request completion mask: `mask[i]` is
/// `true` iff request `i` was served (not shed). The harness uses the
/// mask to tally answer quality over exactly the requests that made it
/// through admission at this operating point.
pub fn closed_loop_detail(
    service_us: &[u64],
    concurrency: usize,
    workers: usize,
    queue_depth: usize,
) -> (LoadPoint, Vec<bool>) {
    let (point, timings) = closed_loop_timeline(service_us, concurrency, workers, queue_depth);
    let mask = timings.iter().map(|t| t.served).collect();
    (point, mask)
}

/// [`closed_loop`] plus the full per-request [`RequestTiming`]
/// timeline, indexed by request. This is the SLO layer's feed: each
/// timing carries the simulator-clock stamps that windowed aggregation
/// buckets by and that tail attribution splits into queue wait vs
/// service.
pub fn closed_loop_timeline(
    service_us: &[u64],
    concurrency: usize,
    workers: usize,
    queue_depth: usize,
) -> (LoadPoint, Vec<RequestTiming>) {
    let mut timings = vec![RequestTiming::default(); service_us.len()];
    let mut latencies_us: Vec<u64> = Vec::with_capacity(service_us.len());
    let totals = simulate(
        service_us,
        &[vec![0]],
        service_us.len(),
        1,
        concurrency,
        workers,
        queue_depth,
        None,
        |request, shard, timing| {
            if shard.is_some() {
                latencies_us.push(timing.latency_us());
            }
            if let Some(t) = timings.get_mut(request) {
                *t = timing;
            }
        },
    );

    latencies_us.sort_unstable();
    let completed = latencies_us.len();
    let p50_us = nearest_rank(&latencies_us, 50);
    let p95_us = nearest_rank(&latencies_us, 95);
    let p99_us = nearest_rank(&latencies_us, 99);
    let point = LoadPoint {
        concurrency: concurrency.max(1),
        offered: service_us.len(),
        completed,
        shed: totals.shed,
        throughput_qps: totals.throughput_qps(completed),
        p50_us,
        p95_us,
        p99_us,
        p50_ms: p50_us as f64 / 1000.0,
        p95_ms: p95_us as f64 / 1000.0,
        p99_ms: p99_us as f64 / 1000.0,
        sim_total_ms: totals.sim_total_ms(),
    };
    (point, timings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_client_sees_pure_service_time() {
        let service = vec![1_000u64; 10]; // 1ms each
        let point = closed_loop(&service, 1, 4, 8);
        assert_eq!(point.completed, 10);
        assert_eq!(point.shed, 0);
        assert_eq!(point.p50_ms, 1.0);
        assert_eq!(point.p99_ms, 1.0);
        assert_eq!(point.p50_us, 1_000);
        assert_eq!(point.p99_us, 1_000);
        assert_eq!(point.sim_total_ms, 10.0);
        assert!((point.throughput_qps - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn queueing_inflates_latency_when_workers_are_scarce() {
        let service = vec![1_000u64; 8];
        let alone = closed_loop(&service, 1, 1, 8);
        let contended = closed_loop(&service, 4, 1, 8);
        assert_eq!(contended.completed, 8);
        assert!(
            contended.p95_ms > alone.p95_ms,
            "4 clients on 1 worker must queue: {} vs {}",
            contended.p95_ms,
            alone.p95_ms
        );
    }

    #[test]
    fn more_workers_raise_throughput() {
        let service = vec![2_000u64; 64];
        let one = closed_loop(&service, 8, 1, 8);
        let four = closed_loop(&service, 8, 4, 8);
        assert!(
            four.throughput_qps > one.throughput_qps * 2.0,
            "4 workers should far outpace 1: {} vs {}",
            four.throughput_qps,
            one.throughput_qps
        );
    }

    #[test]
    fn overload_sheds_and_accounts_for_every_request() {
        // 12 clients all submit at t=0 against 2 workers + depth 2:
        // 8 requests shed in the very first wave.
        let service = vec![5_000u64; 24];
        let (point, mask) = closed_loop_detail(&service, 12, 2, 2);
        assert!(point.shed > 0, "C > W + D must shed");
        assert_eq!(point.completed + point.shed, point.offered);
        assert_eq!(
            mask.iter().filter(|&&served| served).count(),
            point.completed
        );
    }

    #[test]
    fn identical_inputs_produce_identical_points() {
        let service: Vec<u64> = (0..50).map(|i| 500 + (i % 7) * 300).collect();
        let a = closed_loop(&service, 6, 2, 4);
        let b = closed_loop(&service, 6, 2, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn nearest_rank_matches_hand_computation() {
        let sorted = vec![10, 20, 30, 40];
        assert_eq!(nearest_rank(&sorted, 50), 20);
        assert_eq!(nearest_rank(&sorted, 95), 40);
        assert_eq!(nearest_rank(&sorted, 100), 40);
        assert_eq!(nearest_rank(&sorted, 0), 10);
        assert_eq!(nearest_rank(&[], 50), 0);
        // Integer ceiling rank: 101 samples, p99 → rank ⌈101·99/100⌉ = 100.
        let big: Vec<u64> = (1..=101).collect();
        assert_eq!(nearest_rank(&big, 99), 100);
    }

    #[test]
    fn timeline_stamps_are_internally_consistent() {
        let service: Vec<u64> = (0..40).map(|i| 1_000 + (i % 5) * 700).collect();
        let (point, timings) = closed_loop_timeline(&service, 8, 2, 4);
        assert_eq!(timings.len(), service.len());
        let mut served = 0;
        for (i, t) in timings.iter().enumerate() {
            if !t.served {
                assert_eq!(t.latency_us(), 0);
                continue;
            }
            served += 1;
            assert!(t.started_us >= t.submitted_us, "request {i} started early");
            // Service occupies exactly the oracle's metered time.
            assert_eq!(t.completed_us - t.started_us, service[i]);
            assert_eq!(t.latency_us(), t.queue_wait_us() + service[i]);
        }
        assert_eq!(served, point.completed);
        // The detail mask is the timeline's served flags.
        let (_, mask) = closed_loop_detail(&service, 8, 2, 4);
        let flags: Vec<bool> = timings.iter().map(|t| t.served).collect();
        assert_eq!(mask, flags);
    }

    #[test]
    fn derived_ms_fields_mirror_integer_us() {
        let service: Vec<u64> = (0..30).map(|i| 777 + i * 13).collect();
        let point = closed_loop(&service, 4, 2, 8);
        assert_eq!(point.p50_ms, point.p50_us as f64 / 1000.0);
        assert_eq!(point.p95_ms, point.p95_us as f64 / 1000.0);
        assert_eq!(point.p99_ms, point.p99_us as f64 / 1000.0);
    }
}
