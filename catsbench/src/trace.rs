//! The traced run: per-layer numbers observed from outside through port
//! taps and the layers' public counters.
//!
//! Taps on each node's `Network` port (sends), on each transport's
//! `Network` port (deliveries) and on both ends of each node's `Timer` port
//! record what crosses them, stamped on the calling thread. After each
//! build the records are joined into spans keyed by (coordinator, `rid`),
//! the ABD round id: one op, its hops, its replica handlers and the
//! coordinator's own time. Spans go to a file; metrics go to the report.

use std::collections::HashMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use kompics::cats::msgs::{ReadQueryMsg, ReadReplyMsg, WriteAckMsg, WriteQueryMsg};
use kompics::core::port::PortRef;
use kompics::network::{Message, MessageRegistry, Network};
use kompics::prelude::*;
use kompics::timer::Timer;
use parking_lot::Mutex;

use crate::stats::{beyond, median, quantile, Report, TAIL_SAMPLES};
use crate::tcp::{Cluster, Pool, Shape};

/// A hop slower than this counts as stalled (the delayed-ACK band is 40 ms).
const STALL_MS: f64 = 10.0;
/// ABD round ids with this bit set belong to anti-entropy repair, not to
/// client operations.
const REPAIR_RID_BIT: u64 = 1 << 63;
/// Events kept per ABD message kind for the codec timing.
const CODEC_SAMPLES: usize = 256;
/// Ops whose spans are written out per run.
const SPAN_OPS: usize = 3000;

/// The four ABD message kinds, plus everything else.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Kind {
    ReadQuery,
    ReadReply,
    WriteQuery,
    WriteAck,
    Other,
}

/// Classifies a network event: its ABD kind and round id (`Other` and 0
/// for non-ABD traffic) and its header.
pub fn classify(event: &EventRef) -> Option<(Kind, u64, Message)> {
    let e = event.as_ref();
    if let Some(m) = event_as::<ReadQueryMsg>(e) {
        Some((Kind::ReadQuery, m.rid, m.base))
    } else if let Some(m) = event_as::<ReadReplyMsg>(e) {
        Some((Kind::ReadReply, m.rid, m.base))
    } else if let Some(m) = event_as::<WriteQueryMsg>(e) {
        Some((Kind::WriteQuery, m.rid, m.base))
    } else if let Some(m) = event_as::<WriteAckMsg>(e) {
        Some((Kind::WriteAck, m.rid, m.base))
    } else {
        event_as::<Message>(e).map(|m| (Kind::Other, 0, *m))
    }
}

/// Whether a classified message is client ABD traffic (not background).
pub fn is_client_abd(kind: Kind, rid: u64) -> bool {
    kind != Kind::Other && rid & REPAIR_RID_BIT == 0
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Site {
    Send,
    Recv,
}

#[derive(Clone, Copy)]
struct Rec {
    t: u64,
    site: Site,
    kind: Kind,
    rid: u64,
    src: u64,
    dst: u64,
}

/// Everything the taps write to. Shared with the tap closures.
pub struct Sink {
    epoch: Instant,
    recs: Mutex<Vec<Rec>>,
    timer_events: AtomicU64,
    /// Tapped ABD events kept for the codec timing, per kind.
    codec: Mutex<HashMap<Kind, Vec<EventRef>>>,
}

impl Sink {
    pub fn new(epoch: Instant) -> Arc<Sink> {
        Arc::new(Sink {
            epoch,
            recs: Mutex::new(Vec::new()),
            timer_events: AtomicU64::new(0),
            codec: Mutex::new(HashMap::new()),
        })
    }

    fn record(&self, site: Site, event: &EventRef) {
        let t = self.epoch.elapsed().as_nanos() as u64;
        let Some((kind, rid, header)) = classify(event) else {
            return;
        };
        self.recs.lock().push(Rec {
            t,
            site,
            kind,
            rid,
            src: header.source.id,
            dst: header.destination.id,
        });
        if site == Site::Send && is_client_abd(kind, rid) {
            let mut codec = self.codec.lock();
            let kept = codec.entry(kind).or_default();
            if kept.len() < CODEC_SAMPLES {
                kept.push(Arc::clone(event));
            }
        }
    }

    pub fn count_timer(&self) {
        self.timer_events.fetch_add(1, Ordering::Relaxed);
    }

    pub fn codec_samples(&self) -> Vec<EventRef> {
        self.codec.lock().values().flatten().cloned().collect()
    }
}

/// A tap installed on some port, for removal.
pub struct Installed(Box<dyn Fn() + Send>);

impl Installed {
    pub fn on<P: PortType>(
        port: &PortRef<P>,
        f: impl Fn(Direction, &EventRef) + Send + Sync + 'static,
    ) -> Self {
        let id = port.tap(f);
        let port = port.clone();
        Installed(Box::new(move || {
            port.untap(id);
        }))
    }

    pub fn remove(self) {
        (self.0)()
    }
}

/// Transport and scheduler counters summed over the cluster.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    sent: u64,
    received: u64,
    bytes_sent: u64,
    flushes: u64,
    borrowed: u64,
    dropped: u64,
    read_pauses: u64,
    parks: u64,
    steals: u64,
}

impl Counters {
    pub fn sample(cluster: &Cluster) -> Counters {
        let mut c = Counters::default();
        for n in &cluster.nodes {
            let (msgs, bytes, wire, overload) = n
                .tcp
                .on_definition(|t| {
                    (
                        t.message_stats(),
                        t.byte_stats(),
                        t.wire_stats(),
                        t.overload_stats(),
                    )
                })
                .expect("transport alive");
            c.sent += msgs.0;
            c.received += msgs.1;
            c.bytes_sent += bytes.0;
            c.flushes += wire.1;
            c.borrowed += wire.2;
            c.dropped += overload.0;
            c.read_pauses += overload.1;
        }
        let s = cluster.system.scheduler_stats();
        c.parks = s.parks;
        c.steals = s.steal_successes;
        c
    }

    fn add_delta(&mut self, before: &Counters, after: &Counters) {
        self.sent += after.sent - before.sent;
        self.received += after.received - before.received;
        self.bytes_sent += after.bytes_sent - before.bytes_sent;
        self.flushes += after.flushes - before.flushes;
        self.borrowed += after.borrowed - before.borrowed;
        self.dropped += after.dropped - before.dropped;
        self.read_pauses += after.read_pauses - before.read_pauses;
        self.parks += after.parks - before.parks;
        self.steals += after.steals - before.steals;
    }
}

/// A client op seen by the tracer.
struct TracedOp {
    coordinator: u64,
    rid: u64,
    is_put: bool,
    invoke: u64,
    response: Option<u64>,
}

/// Blocking-path split of traced gets, one entry per op; an op's parts sum
/// to its latency.
#[derive(Default)]
struct PathSamples {
    coord: Vec<f64>,
    quorum_wait: Vec<f64>,
    replica: Vec<f64>,
    respond: Vec<f64>,
    hops: Vec<f64>,
}

/// The traced run's state, across builds.
pub struct Tracer {
    taps: Vec<Installed>,
    ops: HashMap<u64, TracedOp>,
    node_ids: Vec<u64>,
    registry: Option<Arc<MessageRegistry>>,
    codec_events: Vec<EventRef>,
    counters: Counters,
    traced_ops: u64,
    traced_secs: f64,
    untraced_ops: u64,
    untraced_secs: f64,
    abd_msgs: u64,
    bg_msgs: u64,
    timer_events: u64,
    hops_ms: Vec<f64>,
    get_paths: PathSamples,
    unattributable: u64,
    rid_mismatches: u64,
    spans: Vec<String>,
    span_ops: usize,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            taps: Vec::new(),
            ops: HashMap::new(),
            node_ids: Vec::new(),
            registry: None,
            codec_events: Vec::new(),
            counters: Counters::default(),
            traced_ops: 0,
            traced_secs: 0.0,
            untraced_ops: 0,
            untraced_secs: 0.0,
            abd_msgs: 0,
            bg_msgs: 0,
            timer_events: 0,
            hops_ms: Vec::new(),
            get_paths: PathSamples::default(),
            unattributable: 0,
            rid_mismatches: 0,
            spans: Vec::new(),
            span_ops: 0,
        }
    }

    /// Measures one build for `slice`: four equal parts, untraced, traced,
    /// traced, untraced, so that drift within the build cancels out of the
    /// tracing overhead. `drive` runs ops until the given instant and
    /// returns how many completed.
    pub fn measure(
        &mut self,
        cluster: &Cluster,
        epoch: Instant,
        slice: Duration,
        pools: &mut [Pool; 2],
        mut drive: impl FnMut(Instant, &mut Pool, Option<&mut Tracer>) -> u64,
    ) {
        self.node_ids = cluster.nodes.iter().map(|n| n.addr.id).collect();
        self.registry = Some(Arc::clone(&cluster.registry));
        let sink = Sink::new(epoch);
        for traced in [false, true, true, false] {
            let before = Counters::sample(cluster);
            if traced {
                self.attach(cluster, &sink);
            }
            let t0 = Instant::now();
            let pool = &mut pools[traced as usize];
            let n = if traced {
                drive(t0 + slice / 4, pool, Some(self))
            } else {
                drive(t0 + slice / 4, pool, None)
            };
            let elapsed = t0.elapsed().as_secs_f64();
            if traced {
                for tap in self.taps.drain(..) {
                    tap.remove();
                }
                self.counters.add_delta(&before, &Counters::sample(cluster));
                self.traced_ops += n;
                self.traced_secs += elapsed;
            } else {
                self.untraced_ops += n;
                self.untraced_secs += elapsed;
            }
        }
        self.finish_build(&sink);
    }

    fn attach(&mut self, cluster: &Cluster, sink: &Arc<Sink>) {
        for n in &cluster.nodes {
            let s = Arc::clone(sink);
            self.taps.push(Installed::on(
                &n.node
                    .required_ref::<Network>()
                    .expect("node requires Network"),
                move |_, e| s.record(Site::Send, e),
            ));
            let s = Arc::clone(sink);
            self.taps.push(Installed::on(
                &n.tcp
                    .provided_ref::<Network>()
                    .expect("transport provides Network"),
                move |_, e| s.record(Site::Recv, e),
            ));
            for port in [
                n.node.required_ref::<Timer>().expect("node requires Timer"),
                n.timer
                    .provided_ref::<Timer>()
                    .expect("timer provides Timer"),
            ] {
                let s = Arc::clone(sink);
                self.taps
                    .push(Installed::on(&port, move |_, _| s.count_timer()));
            }
        }
    }

    pub fn op_issued(&mut self, id: u64, coordinator: usize, rid: u64, is_put: bool, invoke: u64) {
        self.ops.insert(
            id,
            TracedOp {
                coordinator: self.node_ids[coordinator],
                rid,
                is_put,
                invoke,
                response: None,
            },
        );
    }

    pub fn op_completed(&mut self, id: u64, response: u64) {
        if let Some(op) = self.ops.get_mut(&id) {
            op.response = Some(response);
        }
    }

    /// Joins one build's records into hops and per-op blocking paths.
    fn finish_build(&mut self, sink: &Sink) {
        let mut recs = std::mem::take(&mut *sink.recs.lock());
        recs.sort_by_key(|r| r.t);
        self.timer_events += sink.timer_events.load(Ordering::Relaxed);
        if self.codec_events.is_empty() {
            self.codec_events = sink.codec_samples();
        }
        // Sends and deliveries of each client ABD message, in order; FIFO
        // matching pairs a retried message's copies.
        type MsgKey = (Kind, u64, u64, u64);
        let mut sends: HashMap<MsgKey, Vec<u64>> = HashMap::new();
        let mut recvs: HashMap<MsgKey, Vec<u64>> = HashMap::new();
        for r in &recs {
            if r.site == Site::Send {
                if is_client_abd(r.kind, r.rid) {
                    self.abd_msgs += 1;
                } else {
                    self.bg_msgs += 1;
                }
            }
            if !is_client_abd(r.kind, r.rid) {
                continue;
            }
            let key = (r.kind, r.rid, r.src, r.dst);
            match r.site {
                Site::Send => sends.entry(key).or_default().push(r.t),
                Site::Recv => recvs.entry(key).or_default().push(r.t),
            }
        }
        let hop = |key: &MsgKey| -> Option<(u64, u64)> {
            let s = sends.get(key)?;
            let r = recvs.get(key)?;
            (s.len() == 1 && r.len() == 1).then(|| (s[0], r[0]))
        };
        for (key, s) in &sends {
            if let Some(r) = recvs.get(key) {
                for (ts, tr) in s.iter().zip(r) {
                    self.hops_ms.push(tr.saturating_sub(*ts) as f64 / 1e6);
                }
            }
        }
        // Per coordinator and rid: when each round began and which replies
        // arrived when.
        let mut first_send: HashMap<(Kind, u64, u64), u64> = HashMap::new();
        let mut replies: HashMap<(Kind, u64, u64), Vec<(u64, u64)>> = HashMap::new();
        for r in &recs {
            if !is_client_abd(r.kind, r.rid) {
                continue;
            }
            match (r.site, r.kind) {
                (Site::Send, Kind::ReadQuery | Kind::WriteQuery) => {
                    first_send.entry((r.kind, r.rid, r.src)).or_insert(r.t);
                }
                (Site::Recv, Kind::ReadReply | Kind::WriteAck) => {
                    replies
                        .entry((r.kind, r.rid, r.dst))
                        .or_default()
                        .push((r.t, r.src));
                }
                _ => {}
            }
        }
        let majority = crate::tcp::REPLICATION / 2 + 1;
        let mut ops: Vec<(u64, TracedOp)> = self.ops.drain().collect();
        ops.sort_by_key(|(id, _)| *id);
        for (_, op) in ops {
            let Some(response) = op.response else {
                self.unattributable += 1;
                continue;
            };
            let (c, rid) = (op.coordinator, op.rid);
            if !first_send.contains_key(&(Kind::ReadQuery, rid, c)) {
                // The coordinator's first query does not carry the rid
                // predicted from the op count: the op key is wrong.
                self.rid_mismatches += 1;
                continue;
            }
            // One quorum round: when it began, and the send, delivery, reply
            // and reply delivery of the message exchange that completed the
            // quorum.
            let round = |query: Kind, reply: Kind| -> Option<(u64, u64, u64, u64, u64)> {
                let start = *first_send.get(&(query, rid, c))?;
                let mut arrived = replies.get(&(reply, rid, c))?.clone();
                arrived.sort();
                arrived.dedup_by_key(|(_, src)| *src);
                let &(quorum_at, j) = arrived.get(majority - 1)?;
                let (q, a) = hop(&(query, rid, c, j))?;
                let (b, r) = hop(&(reply, rid, j, c))?;
                debug_assert_eq!(r, quorum_at);
                Some((start, q, a, b, r))
            };
            let (Some(r1), Some(r2)) = (
                round(Kind::ReadQuery, Kind::ReadReply),
                round(Kind::WriteQuery, Kind::WriteAck),
            ) else {
                self.unattributable += 1;
                continue;
            };
            let us = |from: u64, to: u64| to.saturating_sub(from) as f64 / 1e3;
            if !op.is_put {
                let p = &mut self.get_paths;
                p.coord.push(us(op.invoke, r1.0) + us(r1.4, r2.0));
                p.quorum_wait.push(us(r1.0, r1.1) + us(r2.0, r2.1));
                p.hops
                    .push(us(r1.1, r1.2) + us(r1.3, r1.4) + us(r2.1, r2.2) + us(r2.3, r2.4));
                p.replica.push(us(r1.2, r1.3) + us(r2.2, r2.3));
                p.respond.push(us(r2.4, response));
            }
            if self.span_ops < SPAN_OPS {
                self.span_ops += 1;
                let mut span = |name: &str, start: u64, end: u64| {
                    self.spans.push(format!(
                        "{{\"name\": \"{name}\", \"start_ns\": {start}, \"end_ns\": {end}, \
                         \"coordinator\": {c}, \"rid\": {rid}}}"
                    ));
                };
                span(
                    if op.is_put { "op.put" } else { "op.get" },
                    op.invoke,
                    response,
                );
                span("cats.coord", op.invoke, r1.0);
                for (round, (start, q, a, b, r)) in [("read", r1), ("write", r2)] {
                    span(&format!("cats.quorum_wait.{round}"), start, q);
                    span(&format!("net.hop.{round}.query"), q, a);
                    span(&format!("cats.replica.{round}"), a, b);
                    span(&format!("net.hop.{round}.reply"), b, r);
                }
                span("cats.coord", r1.4, r2.0);
                span("cats.respond", r2.4, response);
            }
        }
    }

    /// Times the registry's encode and decode on the kept ABD events:
    /// (mean encode ns, mean decode ns, mean body bytes) per message. Half
    /// the ABD messages carry a 1 KiB value and half carry none, so a
    /// median would flip between the two sizes from run to run; the mean
    /// over the fixed mix does not.
    fn codec(&self) -> (f64, f64, f64) {
        const REPS: u32 = 16;
        let registry = self.registry.as_ref().expect("a build ran");
        let mut buf = Vec::with_capacity(4096);
        let (mut enc, mut dec, mut bytes) = (Duration::ZERO, Duration::ZERO, 0usize);
        for event in &self.codec_events {
            buf.clear();
            let (tag, body_start) = registry
                .encode_into(event.as_ref(), &mut buf)
                .expect("encodes");
            let body = Bytes::from(buf[body_start..].to_vec());
            bytes += body.len();
            let t0 = Instant::now();
            for _ in 0..REPS {
                buf.clear();
                std::hint::black_box(
                    registry
                        .encode_into(event.as_ref(), &mut buf)
                        .expect("encodes"),
                );
            }
            enc += t0.elapsed();
            let t0 = Instant::now();
            for _ in 0..REPS {
                std::hint::black_box(registry.decode_shared(tag, &body).expect("decodes"));
            }
            dec += t0.elapsed();
        }
        let calls = (self.codec_events.len() as u32 * REPS) as f64;
        (
            enc.as_nanos() as f64 / calls,
            dec.as_nanos() as f64 / calls,
            bytes as f64 / self.codec_events.len() as f64,
        )
    }

    /// Emits the per-layer metrics, the tracing overhead, the E1 layer
    /// budget identity and the spans file.
    pub fn report(
        mut self,
        shape: Shape,
        workload: &str,
        seed: u64,
        pools: &mut [Pool; 2],
        out: &mut Report,
    ) {
        let ops = self.traced_ops.max(1) as f64;
        let c = self.counters;
        let trigger: Vec<f64> = pools
            .iter()
            .flat_map(|p| p.trigger_ns.iter().copied())
            .collect();
        out.metric("core.trigger_us", median(&trigger) / 1e3, "us");
        out.metric("core.parks_per_op", c.parks as f64 / ops, "count");
        out.metric("core.steals_per_op", c.steals as f64 / ops, "count");
        let (enc, dec, frame) = self.codec();
        out.metric("codec.encode_ns", enc, "ns");
        out.metric("codec.decode_ns", dec, "ns");
        out.metric("codec.frame_bytes", frame, "B");
        self.hops_ms.sort_by(f64::total_cmp);
        let hop_p50 = quantile(&self.hops_ms, 0.5) * 1e3;
        out.metric("net.hop_us.p50", hop_p50, "us");
        if beyond(self.hops_ms.len(), 0.99) >= TAIL_SAMPLES {
            out.metric("net.hop_us.p99", quantile(&self.hops_ms, 0.99) * 1e3, "us");
        }
        let stalled = self.hops_ms.iter().filter(|&&h| h > STALL_MS).count();
        out.metric(
            "net.stall_frac",
            stalled as f64 / self.hops_ms.len() as f64,
            "ratio",
        );
        println!(
            "net: {} ABD hops, {stalled} over {STALL_MS} ms, max {:.3} ms",
            self.hops_ms.len(),
            self.hops_ms.last().copied().unwrap_or(0.0)
        );
        out.metric("net.msgs_per_op", c.sent as f64 / ops, "count");
        out.metric("net.bytes_per_op", c.bytes_sent as f64 / ops, "B");
        out.metric(
            "net.frames_per_flush",
            c.sent as f64 / c.flushes.max(1) as f64,
            "count",
        );
        out.metric(
            "net.borrowed_frac",
            c.borrowed as f64 / c.received.max(1) as f64,
            "ratio",
        );
        out.metric("net.read_pauses", c.read_pauses as f64, "count");
        out.metric("net.outbound_dropped", c.dropped as f64, "count");
        out.metric(
            "timer.events_per_op",
            self.timer_events as f64 / ops,
            "count",
        );
        out.metric(
            "protocols.bg_msgs_per_s",
            self.bg_msgs as f64 / self.traced_secs,
            "1/s",
        );
        out.metric("cats.abd_msgs_per_op", self.abd_msgs as f64 / ops, "count");

        // Tracing overhead: the workload's headline figure, traced against
        // untraced, from the interleaved parts of the same builds.
        let overhead = match shape {
            Shape::Serial => {
                let untraced = pools[0].get.median_ms();
                let traced = pools[1].get.median_ms();
                println!(
                    "tracing overhead: get p50 {untraced:.4} ms untraced, {traced:.4} ms traced"
                );
                traced / untraced - 1.0
            }
            Shape::Load => {
                let untraced = self.untraced_ops as f64 / self.untraced_secs;
                let traced = self.traced_ops as f64 / self.traced_secs;
                println!(
                    "tracing overhead: {untraced:.1} ops/s untraced, {traced:.1} ops/s traced"
                );
                untraced / traced - 1.0
            }
        };
        out.metric("trace.overhead_frac", overhead, "ratio");

        // The layer budget of traced gets. It is the e1 blocking path; under
        // e2's load the same split also shows where queueing lands.
        {
            let p = &self.get_paths;
            let (coord, quorum, replica, respond) = (
                median(&p.coord),
                median(&p.quorum_wait),
                median(&p.replica),
                median(&p.respond),
            );
            let get_p50_us = pools[1].get.median_ms() * 1e3;
            let unattributed = get_p50_us - (coord + 4.0 * hop_p50 + replica + quorum + respond);
            out.metric("cats.coord_us", coord, "us");
            out.metric("cats.replica_us", replica, "us");
            out.metric("cats.quorum_wait_us", quorum, "us");
            out.metric("cats.respond_us", respond, "us");
            out.metric("cats.unattributed_us", unattributed, "us");
            println!(
                "layer budget (traced gets, medians): get p50 {get_p50_us:.1} us = coord {coord:.1} \
                 + 4 x hop {hop_p50:.1} + replica {replica:.1} + quorum_wait {quorum:.1} \
                 + respond {respond:.1} + unattributed {unattributed:.1}  ({} gets split, median \
                 of per-op hop sums {:.1} us)",
                p.coord.len(),
                median(&p.hops)
            );
        }
        println!(
            "traced {} ops in {:.2} s; {} without a complete blocking path; {} rid mismatches",
            self.traced_ops, self.traced_secs, self.unattributable, self.rid_mismatches
        );
        if self.rid_mismatches > 0 {
            out.violation(format!(
                "{} traced ops had no ABD round under their op key",
                self.rid_mismatches
            ));
        }
        write_spans(workload, seed, &self.spans);
    }
}

/// Writes spans as JSON lines under `catsbench/spans/`.
pub fn write_spans(workload: &str, seed: u64, spans: &[String]) {
    let dir = std::path::Path::new("catsbench").join("spans");
    std::fs::create_dir_all(&dir).expect("create spans directory");
    let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
    let mut file =
        std::io::BufWriter::new(std::fs::File::create(&path).expect("create spans file"));
    for line in spans {
        writeln!(file, "{line}").expect("write span");
    }
    file.flush().expect("flush spans");
    println!("spans: {} written to {}", spans.len(), path.display());
}
