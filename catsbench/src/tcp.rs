//! E1 and E2: a 7-node CATS cluster over loopback `TcpNetwork`.
//!
//! Each run builds the cluster several times. Every build is timed from the
//! first bind to the end of a preload that writes the whole key space
//! (`setup_s`), then measured for its share of the run, then torn down.
//! Latencies of all builds are pooled.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use kompics::cats::abd::{
    AbdConfig, GetRequest, GetResponse, OpFailed, PutGet, PutRequest, PutResponse,
};
use kompics::cats::key::RingKey;
use kompics::cats::lin::{check_linearizable, OpRecord, RegisterOp};
use kompics::cats::node::{CatsConfig, CatsNode};
use kompics::cats::ring::RingConfig;
use kompics::core::channel::connect;
use kompics::core::component::Component;
use kompics::core::port::PortRef;
use kompics::network::{Address, MessageRegistry, Network, TcpConfig, TcpNetwork};
use kompics::prelude::*;
use kompics::protocols::cyclon::CyclonConfig;
use kompics::protocols::fd::FdConfig;
use kompics::timer::{ThreadTimer, Timer};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::stats::{median, rss_mb, Latencies, Report};
use crate::trace::Tracer;
use crate::Args;

const NODES: usize = 7;
pub const REPLICATION: usize = 5;
const VALUE_BYTES: usize = 1024;
const KEYS: usize = 4096;
/// Outstanding ops in the preload and in E2.
const LOAD_WINDOW: usize = 8;
/// Cluster builds per run; `setup_s` is their median.
const BUILDS: usize = 8;
/// An op without a reply after this long counts as failed.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// The two TCP workload shapes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// E1: one op outstanding, alternating put/get.
    Serial,
    /// E2: a closed loop of [`LOAD_WINDOW`] ops, 95% get / 5% put.
    Load,
}

fn cats_config(seed: u64, node: usize) -> CatsConfig {
    // Gossip and stabilization run every 20 ms so that membership converges
    // in a small fraction of the preload; the failure detector and ABD
    // timeouts are E1's.
    CatsConfig {
        replication: Some(REPLICATION),
        ring: RingConfig {
            stabilize_period: Duration::from_millis(20),
            ..RingConfig::default()
        },
        fd: FdConfig {
            initial_delay: Duration::from_millis(300),
            delta: Duration::from_millis(150),
        },
        cyclon: CyclonConfig {
            period: Duration::from_millis(20),
            seed: seed.wrapping_mul(31).wrapping_add(node as u64),
            ..CyclonConfig::default()
        },
        abd: AbdConfig {
            op_timeout: Duration::from_secs(1),
            max_retries: 5,
            ..AbdConfig::default()
        },
        telemetry: None,
    }
}

pub fn registry() -> Arc<MessageRegistry> {
    let mut r = MessageRegistry::new();
    kompics::protocols::fd::register_messages(&mut r, 100).unwrap();
    kompics::protocols::cyclon::register_messages(&mut r, 300).unwrap();
    kompics::cats::msgs::register_messages(&mut r, 500).unwrap();
    Arc::new(r)
}

/// What a completed op returned.
pub enum Outcome {
    /// A get: the write id in the value's first 8 bytes (`None` for a
    /// never-written key) and whether the rest of the value is intact.
    Read(Option<u64>, bool),
    Wrote,
    Failed(String),
}

pub struct Completion {
    pub id: u64,
    pub at: Instant,
    pub outcome: Outcome,
}

/// Receives every node's `PutGet` indications and forwards them, stamped
/// with their arrival time, to the client thread that issues the ops.
struct Client {
    ctx: ComponentContext,
    #[allow(dead_code)] // keeps the port pair alive
    put_get: RequiredPort<PutGet>,
}

impl Client {
    fn new(tx: Sender<Completion>, filler: Arc<Vec<u8>>) -> Self {
        let put_get: RequiredPort<PutGet> = RequiredPort::new();
        let send = move |id, outcome| {
            let at = Instant::now();
            let _ = tx.send(Completion { id, at, outcome });
        };
        let (s1, s2, s3) = (send.clone(), send.clone(), send);
        put_get.subscribe(move |_: &mut Client, resp: &GetResponse| {
            let outcome = match &resp.value {
                None => Outcome::Read(None, true),
                Some(v) => {
                    let intact = v.len() == VALUE_BYTES && v[8..] == filler[..];
                    Outcome::Read(Some(write_id(v)), intact)
                }
            };
            s1(resp.id, outcome);
        });
        put_get.subscribe(move |_: &mut Client, resp: &PutResponse| s2(resp.id, Outcome::Wrote));
        put_get.subscribe(move |_: &mut Client, fail: &OpFailed| {
            s3(fail.id, Outcome::Failed(fail.reason.clone()))
        });
        Client {
            ctx: ComponentContext::new(),
            put_get,
        }
    }
}

impl ComponentDefinition for Client {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "BenchClient"
    }
}

/// The write id carried in a value's first 8 bytes.
pub fn write_id(value: &[u8]) -> u64 {
    u64::from_le_bytes(value[..8].try_into().expect("value holds a write id"))
}

pub struct NodeHandles {
    pub node: Component<CatsNode>,
    pub tcp: Component<TcpNetwork>,
    pub timer: Component<ThreadTimer>,
    pub put_get: PortRef<PutGet>,
    pub addr: Address,
}

pub struct Cluster {
    pub system: KompicsSystem,
    pub nodes: Vec<NodeHandles>,
    pub registry: Arc<MessageRegistry>,
    /// ABD round ids handed out so far per coordinator: each request to a
    /// node takes the next one, starting at 1.
    rids: Vec<std::cell::Cell<u64>>,
    completions: Receiver<Completion>,
    _client: Component<Client>,
}

impl Cluster {
    /// Binds and starts the nodes and waits, polling every millisecond, until
    /// each has joined the ring and sees every member.
    fn start(seed: u64, filler: Arc<Vec<u8>>) -> Cluster {
        let system = KompicsSystem::new(Config::default());
        let registry = registry();
        let (tx, completions) = unbounded();
        let client = system.create(move || Client::new(tx, filler));
        system.start(&client);
        let mut nodes: Vec<NodeHandles> = Vec::new();
        for i in 0..NODES {
            // Node ids spread evenly over the ring.
            let id = (i as u64 + 1) * (u64::MAX / NODES as u64);
            let (addr, listener) = TcpNetwork::bind(Address::local(0, id)).expect("bind");
            let tcp = system.create({
                let r = Arc::clone(&registry);
                move || TcpNetwork::new(addr, listener, r, TcpConfig::default())
            });
            let timer = system.create(ThreadTimer::new);
            let node = system.create({
                let config = cats_config(seed, i);
                move || CatsNode::new(addr, config)
            });
            connect(
                &tcp.provided_ref::<Network>().unwrap(),
                &node.required_ref().unwrap(),
            )
            .unwrap();
            connect(
                &timer.provided_ref::<Timer>().unwrap(),
                &node.required_ref().unwrap(),
            )
            .unwrap();
            let put_get = node.provided_ref::<PutGet>().unwrap();
            connect(&put_get, &client.required_ref::<PutGet>().unwrap()).unwrap();
            system.start(&tcp);
            system.start(&timer);
            CatsNode::join(&node, nodes.iter().map(|n| n.addr).collect());
            nodes.push(NodeHandles {
                node,
                tcp,
                timer,
                put_get,
                addr,
            });
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        while !nodes.iter().all(|n| {
            n.node
                .on_definition(|d| {
                    d.is_joined().unwrap_or(false) && d.view_size().unwrap_or(0) >= NODES
                })
                .unwrap_or(false)
        }) {
            assert!(
                Instant::now() < deadline,
                "cluster did not converge in 60 s"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        Cluster {
            system,
            nodes,
            registry,
            rids: (0..NODES).map(|_| std::cell::Cell::new(0)).collect(),
            completions,
            _client: client,
        }
    }

    /// Stops the cluster and waits for its transport threads to wind down.
    fn stop(self) {
        self.system.shutdown();
        drop(self);
        // Reader threads poll their shutdown flag every 200 ms.
        std::thread::sleep(Duration::from_millis(300));
    }
}

/// One generated operation.
pub struct OpSpec {
    pub key: RingKey,
    pub coordinator: usize,
    /// `Some(write id)` for a put.
    pub put: Option<u64>,
}

/// Generates a run's inputs from its seed: keys, coordinators, op order and
/// unique write ids.
pub struct OpSource {
    rng: StdRng,
    pub keys: Vec<RingKey>,
    next_write_id: u64,
}

impl OpSource {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut keys: Vec<RingKey> = Vec::with_capacity(KEYS);
        let mut seen = std::collections::HashSet::new();
        while keys.len() < KEYS {
            let k = rng.next_u64();
            if seen.insert(k) {
                keys.push(RingKey(k));
            }
        }
        OpSource {
            rng,
            keys,
            next_write_id: 1,
        }
    }

    fn op(&mut self, key: RingKey, put: bool) -> OpSpec {
        let coordinator = self.rng.gen_range(0..NODES);
        let put = put.then(|| {
            let id = self.next_write_id;
            self.next_write_id += 1;
            id
        });
        OpSpec {
            key,
            coordinator,
            put,
        }
    }

    fn random_key(&mut self) -> RingKey {
        self.keys[self.rng.gen_range(0..KEYS)]
    }
}

/// Per-key operation histories for the linearizability check.
#[derive(Default)]
pub struct History {
    by_key: HashMap<RingKey, Vec<OpRecord>>,
}

impl History {
    fn push(&mut self, key: RingKey, record: OpRecord) {
        self.by_key.entry(key).or_default().push(record);
    }

    /// Checks every key's history; returns the number of keys checked.
    fn check(&mut self, report: &mut Report) -> usize {
        for (key, ops) in &mut self.by_key {
            ops.sort_by_key(|r| r.invoke);
            if let Err(witness) = check_linearizable(ops) {
                report.violation(format!("key {key}: {witness}"));
            }
        }
        self.by_key.len()
    }
}

/// Results pooled over the builds of one run.
#[derive(Default)]
pub struct Pool {
    pub get: Latencies,
    pub put: Latencies,
    pub trigger_ns: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub measured_ops: u64,
    pub measured_secs: f64,
}

struct Pending {
    spec: OpSpec,
    invoke: Instant,
}

/// Drives ops with up to `window` outstanding until `next` runs dry or
/// `stop` passes, then drains; returns the number of ops that succeeded.
/// Every op, preload included, is recorded in `history`; only ops with
/// `measure` set feed the latency pool.
#[allow(clippy::too_many_arguments)]
fn drive(
    cluster: &Cluster,
    epoch: Instant,
    window: usize,
    stop: Instant,
    measure: bool,
    mut next: impl FnMut() -> Option<OpSpec>,
    value_of: &dyn Fn(u64) -> Vec<u8>,
    next_id: &mut u64,
    history: &mut History,
    pool: &mut Pool,
    report: &mut Report,
    mut tracer: Option<&mut Tracer>,
) -> u64 {
    let mut pending: HashMap<u64, Pending> = HashMap::new();
    let mut exhausted = false;
    let mut done = 0u64;
    let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    loop {
        while !exhausted && pending.len() < window && Instant::now() < stop {
            let Some(spec) = next() else {
                exhausted = true;
                break;
            };
            let id = *next_id;
            *next_id += 1;
            let port = &cluster.nodes[spec.coordinator].put_get;
            let rid = &cluster.rids[spec.coordinator];
            rid.set(rid.get() + 1);
            let invoke = Instant::now();
            match spec.put {
                Some(wid) => port.trigger(PutRequest {
                    id,
                    key: spec.key,
                    value: value_of(wid),
                }),
                None => port.trigger(GetRequest { id, key: spec.key }),
            }
            .expect("PutGet accepts requests");
            let issued = Instant::now();
            if measure {
                pool.trigger_ns
                    .push(issued.duration_since(invoke).as_nanos() as f64);
            }
            if let Some(t) = tracer.as_deref_mut() {
                t.op_issued(
                    id,
                    spec.coordinator,
                    rid.get(),
                    spec.put.is_some(),
                    ns(invoke),
                );
            }
            pool.attempted += 1;
            pending.insert(id, Pending { spec, invoke });
        }
        if pending.is_empty() && (exhausted || Instant::now() >= stop) {
            return done;
        }
        let oldest = pending.values().map(|p| p.invoke).min().expect("pending");
        let wait = (oldest + CLIENT_TIMEOUT).saturating_duration_since(Instant::now());
        // A failed or timed-out put may still take effect later: it stays in
        // the history as a write that may linearize at any point after its
        // invocation.
        let mut lost = |p: Pending, history: &mut History| {
            pool.failed += 1;
            if let Some(wid) = p.spec.put {
                history.push(
                    p.spec.key,
                    OpRecord {
                        invoke: ns(p.invoke),
                        response: u64::MAX,
                        op: RegisterOp::Write(wid),
                    },
                );
            }
        };
        match cluster.completions.recv_timeout(wait) {
            Ok(c) => {
                let Some(p) = pending.remove(&c.id) else {
                    continue; // reply to an op that already timed out
                };
                if let Some(t) = tracer.as_deref_mut() {
                    t.op_completed(c.id, ns(c.at));
                }
                let latency = c.at.duration_since(p.invoke).as_nanos() as u64;
                let op = match c.outcome {
                    Outcome::Failed(reason) => {
                        println!("op {} on {} failed: {reason}", c.id, p.spec.key);
                        lost(p, history);
                        continue;
                    }
                    Outcome::Wrote => {
                        if measure {
                            pool.put.push_ns(latency);
                        }
                        RegisterOp::Write(p.spec.put.expect("put reply to a put"))
                    }
                    Outcome::Read(wid, intact) => {
                        if !intact {
                            report.violation(format!(
                                "op {}: value of {} corrupted",
                                c.id, p.spec.key
                            ));
                        }
                        if measure {
                            pool.get.push_ns(latency);
                        }
                        RegisterOp::Read(wid)
                    }
                };
                done += 1;
                history.push(
                    p.spec.key,
                    OpRecord {
                        invoke: ns(p.invoke),
                        response: ns(c.at),
                        op,
                    },
                );
            }
            Err(RecvTimeoutError::Timeout) => {
                let now = Instant::now();
                let expired: Vec<u64> = pending
                    .iter()
                    .filter(|(_, p)| now.duration_since(p.invoke) >= CLIENT_TIMEOUT)
                    .map(|(id, _)| *id)
                    .collect();
                for id in expired {
                    let p = pending.remove(&id).expect("expired op pending");
                    println!("op {id} on {} timed out", p.spec.key);
                    lost(p, history);
                }
            }
            Err(RecvTimeoutError::Disconnected) => panic!("client component vanished"),
        }
    }
}

/// Runs E1 (`Shape::Serial`) or E2 (`Shape::Load`).
pub fn run(shape: Shape, args: &Args) -> Report {
    let mut report = Report::new();
    let mut source = OpSource::new(args.seed);
    let filler: Arc<Vec<u8>> = Arc::new({
        let mut f = vec![0u8; VALUE_BYTES - 8];
        StdRng::seed_from_u64(args.seed ^ 0xF111).fill_bytes(&mut f);
        f
    });
    let value_of = {
        let filler = Arc::clone(&filler);
        move |wid: u64| {
            let mut v = Vec::with_capacity(VALUE_BYTES);
            v.extend_from_slice(&wid.to_le_bytes());
            v.extend_from_slice(&filler);
            v
        }
    };
    let window = match shape {
        Shape::Serial => 1,
        Shape::Load => LOAD_WINDOW,
    };
    let slice = Duration::from_secs_f64(args.seconds / BUILDS as f64);
    // Untraced and traced ops; only the first is used without `--trace 1`.
    let mut pools: [Pool; 2] = Default::default();
    let mut setups = Vec::new();
    let mut rss = Vec::new();
    let mut next_id = 1u64;
    let mut serial_turn = 0u64;
    let mut tracer = args.trace.then(Tracer::new);
    let mut keys_checked = 0;
    for build in 0..BUILDS {
        let began = Instant::now();
        let cluster = Cluster::start(args.seed.wrapping_add(build as u64), Arc::clone(&filler));
        let mut history = History::default();
        // Preload: every key written once, in a seeded order, at the E2
        // window. The preload's end closes the set-up time.
        let mut order = source.keys.clone();
        rand::seq::SliceRandom::shuffle(&mut order[..], &mut source.rng);
        let mut preload = order.into_iter();
        let never = Instant::now() + Duration::from_secs(3600);
        drive(
            &cluster,
            began,
            LOAD_WINDOW,
            never,
            false,
            || preload.next().map(|k| source.op(k, true)),
            &value_of,
            &mut next_id,
            &mut history,
            &mut pools[0],
            &mut report,
            None,
        );
        let setup = began.elapsed().as_secs_f64();
        println!("build {build}: set-up {setup:.3} s");
        setups.push(setup);

        let mut gen = || {
            let key = source.random_key();
            let put = match shape {
                Shape::Serial => {
                    serial_turn += 1;
                    serial_turn % 2 == 1
                }
                Shape::Load => source.rng.gen_bool(0.05),
            };
            Some(source.op(key, put))
        };
        let mut run_until = |stop: Instant, pool: &mut Pool, tracer: Option<&mut Tracer>| {
            drive(
                &cluster,
                began,
                window,
                stop,
                true,
                &mut gen,
                &value_of,
                &mut next_id,
                &mut history,
                pool,
                &mut report,
                tracer,
            )
        };
        match tracer.as_mut() {
            None => {
                let gets_before = pools[0].get.len();
                let t0 = Instant::now();
                let ops = run_until(t0 + slice, &mut pools[0], None);
                let secs = t0.elapsed().as_secs_f64();
                let get = |q| pools[0].get.quantile_since(gets_before, q).unwrap_or(f64::NAN);
                println!(
                    "build {build}: {ops} ops in {secs:.2} s, {:.1} ops/s, get p50 {:.3} ms \
                     p99 {:.3} ms",
                    ops as f64 / secs,
                    get(0.5),
                    get(0.99)
                );
                pools[0].measured_ops += ops;
                pools[0].measured_secs += secs;
            }
            Some(tracer) => tracer.measure(&cluster, began, slice, &mut pools, run_until),
        }
        // Resident memory of the live cluster after its measured part. Later
        // builds also hold what the allocator kept from earlier ones.
        rss.push(rss_mb());
        keys_checked += history.check(&mut report);
        cluster.stop();
    }
    report.attempted = pools.iter().map(|p| p.attempted).sum();
    report.failed = pools.iter().map(|p| p.failed).sum();
    println!(
        "{} ops attempted, {} failed; {keys_checked} key histories checked for \
         linearizability; set-ups {setups:?}; resident MiB {rss:?}",
        report.attempted, report.failed
    );
    match tracer {
        Some(tracer) => tracer.report(shape, &args.workload, args.seed, &mut pools, &mut report),
        None => {
            let pool = &mut pools[0];
            pool.get.report("get", &mut report);
            pool.put.report("put", &mut report);
            let ops_per_s = pool.measured_ops as f64 / pool.measured_secs;
            println!("throughput: {ops_per_s:.1} ops/s");
            report.metric("ops_per_s", ops_per_s, "1/s");
            report.metric("setup_s", median(&setups), "s");
            report.metric("rss_mb", rss[0], "MiB");
        }
    }
    report
}
