//! T1: the §4.4 / Table 1 scenario in deterministic simulation.
//!
//! 128 peers boot, then churn while clients issue gets and puts, for 300 s
//! of virtual time under the default network emulator. No threads, TCP or
//! codec are involved: this loads the DES, the emulator, single-threaded
//! dispatch and the membership protocols under reconfiguration.
//!
//! An untraced run repeats the scenario with seeds derived from the run's
//! seed until its time is up, checking each history for linearizability. A
//! traced run repeats the run's own seed, with and without taps, and
//! requires every repetition to agree exactly (same DES event count, same
//! history).
//!
//! This workload is not listed in `BENCHMARK.json`: CATS fails its
//! linearizability check under this churn on some seeds (see NOTES.md).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kompics::cats::abd::AbdConfig;
use kompics::cats::experiments::{CatsExperiment, CatsOp, ExperimentOp};
use kompics::cats::key::RingKey;
use kompics::cats::lin::{check_linearizable, RegisterOp};
use kompics::cats::node::CatsConfig;
use kompics::cats::ring::RingConfig;
use kompics::cats::sim::{CatsSimulator, HistoryEntry};
use kompics::network::Network;
use kompics::protocols::cyclon::CyclonConfig;
use kompics::protocols::fd::FdConfig;
use kompics::simulation::{Dist, EmulatorConfig, Scenario, Simulation, StochasticProcess};
use rand::{RngCore, SeedableRng};

use crate::stats::{beyond, median, peak_rss_mb, quantile, thread_cpu_ns, Report, TAIL_SAMPLES};
use crate::trace::{classify, is_client_abd, write_spans, Installed};
use crate::Args;

const PEERS: u64 = 128;
const VIRTUAL_SECS: u64 = 300;
const CLIENT_OPS: u64 = 4000;
const PUT_SHARE: f64 = 0.10;
const CHURN_EVENTS: u64 = 12;
/// Node ids and keys are drawn from `[0, 2^bits)` as in Table 1's scenario.
const ID_BITS: u32 = 48;
const KEY_BITS: u32 = 14;
const VALUE_BYTES: usize = 1024;
const SEC: u64 = 1_000_000_000;
/// Virtual seconds timed after the boot: the ops phase (2 s after the boot
/// plus 40% of the window) with a margin.
const TIMED_SECS: u64 = 125;

/// Table 1's node configuration.
fn cats_config() -> CatsConfig {
    CatsConfig {
        replication: Some(3),
        ring: RingConfig {
            stabilize_period: Duration::from_millis(250),
            ..RingConfig::default()
        },
        fd: FdConfig {
            initial_delay: Duration::from_millis(400),
            delta: Duration::from_millis(200),
        },
        cyclon: CyclonConfig {
            period: Duration::from_millis(500),
            ..CyclonConfig::default()
        },
        abd: AbdConfig {
            op_timeout: Duration::from_millis(750),
            max_retries: 4,
            ..AbdConfig::default()
        },
        telemetry: None,
    }
}

/// Boot (40% of the window on average), then churn with client ops in
/// parallel, both over another 40%: the ops end well inside the window
/// even after a boot far slower than the mean.
fn scenario(seed: u64) -> Scenario<CatsOp> {
    let boot_ms = VIRTUAL_SECS as f64 * 1000.0 * 0.4;
    let work_ms = VIRTUAL_SECS as f64 * 1000.0 * 0.4;
    let boot = StochasticProcess::new("boot")
        .event_inter_arrival_time(Dist::Exponential {
            mean: boot_ms / PEERS as f64,
        })
        .raise(PEERS, |rng| {
            CatsOp::Join(Dist::uniform_bits(ID_BITS).sample_u64(rng))
        });
    let churn = StochasticProcess::new("churn")
        .event_inter_arrival_time(Dist::Exponential {
            mean: work_ms / CHURN_EVENTS as f64,
        })
        .raise(CHURN_EVENTS / 2, |rng| {
            CatsOp::Join(Dist::uniform_bits(ID_BITS).sample_u64(rng))
        })
        .raise(CHURN_EVENTS / 2, |rng| {
            CatsOp::Fail(Dist::uniform_bits(ID_BITS).sample_u64(rng))
        });
    let mut filler = vec![0u8; VALUE_BYTES - 8];
    rand::rngs::StdRng::seed_from_u64(seed ^ 0xF111).fill_bytes(&mut filler);
    let write_ids = Arc::new(AtomicU64::new(1));
    let puts = (CLIENT_OPS as f64 * PUT_SHARE) as u64;
    let ops = StochasticProcess::new("ops")
        .event_inter_arrival_time(Dist::Exponential {
            mean: work_ms / CLIENT_OPS as f64,
        })
        .raise(CLIENT_OPS - puts, |rng| CatsOp::Get {
            node: Dist::uniform_bits(ID_BITS).sample_u64(rng),
            key: RingKey(Dist::uniform_bits(KEY_BITS).sample_u64(rng)),
        })
        .raise(puts, move |rng| {
            let mut value = write_ids
                .fetch_add(1, Ordering::Relaxed)
                .to_le_bytes()
                .to_vec();
            value.extend_from_slice(&filler);
            CatsOp::Put {
                node: Dist::uniform_bits(ID_BITS).sample_u64(rng),
                key: RingKey(Dist::uniform_bits(KEY_BITS).sample_u64(rng)),
                value,
            }
        });
    Scenario::new()
        .start(boot)
        .start_after_termination_of(1_000, "boot", churn)
        .start_after_start_of(1_000, "churn", ops)
        .terminate_after_termination_of(1_000, "ops")
}

/// Network traffic counted by a tap on the emulator's deliveries.
#[derive(Default)]
struct Traffic {
    abd: AtomicU64,
    background: AtomicU64,
}

/// What one repetition of the scenario produced.
struct Rep {
    boot_wall: f64,
    boot_virtual: u64,
    post_wall: f64,
    /// On-CPU time of the simulation thread over the timed window.
    post_cpu: f64,
    des_events: u64,
    post_events: u64,
    issued: u64,
    completed: u64,
    failed: u64,
    latencies_ns: Vec<u64>,
    history: Vec<HistoryEntry>,
    abd_msgs: u64,
    bg_msgs: u64,
}

fn rep(seed: u64, traced: bool) -> Rep {
    let wall = Instant::now();
    let sim = Simulation::new(seed);
    let des = sim.des().clone();
    let rng = sim.rng().clone();
    let simulator = sim
        .system()
        .create(move || CatsSimulator::new(des, rng, EmulatorConfig::default(), cats_config()));
    sim.system().start(&simulator);
    let traffic = Arc::new(Traffic::default());
    let tap = traced.then(|| {
        let emulator = simulator
            .on_definition(|s| s.emulator_component())
            .expect("simulator alive");
        let traffic = Arc::clone(&traffic);
        Installed::on(
            &emulator
                .provided_ref::<Network>()
                .expect("emulator provides Network"),
            move |_, event| {
                if let Some((kind, rid, _)) = classify(event) {
                    let counter = if is_client_abd(kind, rid) {
                        &traffic.abd
                    } else {
                        &traffic.background
                    };
                    counter.fetch_add(1, Ordering::Relaxed);
                }
            },
        )
    });
    let port = simulator
        .provided_ref::<CatsExperiment>()
        .expect("experiment port");
    let _scenario = scenario(seed).execute(sim.des(), sim.rng().clone(), move |op| {
        let _ = port.trigger(ExperimentOp(op));
    });
    // Boot: until the boot's joins are all raised and every alive peer has
    // joined the ring, checked each virtual second. Churn may already have
    // begun by then.
    let booted = |s: &CatsSimulator| s.stats().joins >= PEERS && s.all_joined();
    while !simulator
        .on_definition(|s| booted(s))
        .expect("simulator alive")
    {
        assert!(
            sim.des().now() + TIMED_SECS * SEC < VIRTUAL_SECS * SEC,
            "boot did not finish in time"
        );
        sim.run_for(Duration::from_secs(1));
    }
    let boot_virtual = sim.des().now();
    let boot_wall = wall.elapsed().as_secs_f64();
    let boot_events = sim.des().executed();
    let (abd_boot, bg_boot) = (
        traffic.abd.load(Ordering::Relaxed),
        traffic.background.load(Ordering::Relaxed),
    );
    // The timed window: a fixed stretch of virtual time after the boot,
    // covering the churn and the client ops. The idle rest of the window
    // runs untimed, so that a quick boot does not add cheap idle time.
    let post = Instant::now();
    let cpu = thread_cpu_ns();
    sim.run_until(boot_virtual + TIMED_SECS * SEC);
    let post_cpu = (thread_cpu_ns() - cpu) as f64 / 1e9;
    let post_wall = post.elapsed().as_secs_f64();
    let post_events = sim.des().executed() - boot_events;
    let abd_msgs = traffic.abd.load(Ordering::Relaxed) - abd_boot;
    let bg_msgs = traffic.background.load(Ordering::Relaxed) - bg_boot;
    sim.run_until(VIRTUAL_SECS * SEC);
    let des_events = sim.des().executed();
    if let Some(tap) = tap {
        tap.remove();
    }
    let (stats, history) = simulator
        .on_definition(|s| (s.stats().clone(), s.history().to_vec()))
        .expect("simulator alive");
    sim.shutdown();
    Rep {
        boot_wall,
        boot_virtual,
        post_wall,
        post_cpu,
        des_events,
        post_events,
        issued: stats.issued,
        completed: stats.completed,
        failed: stats.failed,
        latencies_ns: stats.latencies_ns,
        history,
        abd_msgs,
        bg_msgs,
    }
}

impl Rep {
    /// Virtual seconds per second of the simulation thread's CPU time.
    fn speedup(&self) -> f64 {
        TIMED_SECS as f64 / self.post_cpu
    }

    /// Checks each key's history; returns the number of keys.
    fn check(&self, report: &mut Report) -> usize {
        let mut by_key: HashMap<RingKey, Vec<_>> = HashMap::new();
        for entry in &self.history {
            by_key.entry(entry.key).or_default().push(entry.record);
        }
        for (key, ops) in &mut by_key {
            ops.sort_by_key(|r| r.invoke);
            if let Err(witness) = check_linearizable(ops) {
                report.violation(format!("key {key}: {witness}"));
            }
        }
        by_key.len()
    }

    /// A digest of everything a same-seed repetition must reproduce.
    fn fingerprint(&self) -> (u64, u64, u64, u64, Vec<u64>) {
        (
            self.des_events,
            self.boot_virtual,
            self.completed,
            self.failed,
            self.history.iter().map(|h| h.record.response).collect(),
        )
    }
}

/// The seed of repetition `i` of an untraced run.
fn rep_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::new();
    let started = Instant::now();
    let mut reps: Vec<(bool, Rep)> = Vec::new();
    // Untraced: scenarios with seeds derived from the run's seed, repeated
    // until the time is up. Traced: the run's own seed four times,
    // untraced, traced, traced, untraced, so that drift cancels out of the
    // overhead and the taps are shown not to change the outcome.
    let plan: &[bool] = if args.trace {
        &[false, true, true, false]
    } else {
        &[false]
    };
    let mut i = 0;
    loop {
        let traced = plan[i % plan.len()];
        let seed = if args.trace {
            args.seed
        } else {
            rep_seed(args.seed, i as u64)
        };
        let r = rep(seed, traced);
        println!(
            "rep {i}{}: seed {seed}: boot {:.3} s wall to {:.1} s virtual; then {:.2} s wall \
             ({:.1}x), {:.2} s on-CPU ({:.1}x); {} DES events; ops {} issued, {} completed, \
             {} OpFailed",
            if traced { " (traced)" } else { "" },
            r.boot_wall,
            r.boot_virtual as f64 / 1e9,
            r.post_wall,
            TIMED_SECS as f64 / r.post_wall,
            r.post_cpu,
            r.speedup(),
            r.des_events,
            r.issued,
            r.completed,
            r.failed
        );
        let keys = r.check(&mut report);
        let reads_of_writes = r
            .history
            .iter()
            .filter(|h| matches!(h.record.op, RegisterOp::Read(Some(_))))
            .count();
        println!(
            "  {keys} key histories checked for linearizability, {reads_of_writes} gets \
             returned a written value"
        );
        reps.push((traced, r));
        i += 1;
        let done = if args.trace {
            i == plan.len()
        } else {
            started.elapsed().as_secs_f64() >= args.seconds
        };
        if done {
            break;
        }
    }
    if args.trace {
        let first = reps[0].1.fingerprint();
        if reps.iter().any(|(_, r)| r.fingerprint() != first) {
            report.violation("same-seed repetitions diverged");
        }
    }
    report.attempted = reps.iter().map(|(_, r)| r.issued).sum();
    // OpFailed replies and ops with no reply by the end of the window
    // (their coordinator crashed) count as failed.
    report.failed = reps.iter().map(|(_, r)| r.issued - r.completed).sum();
    println!(
        "{} reps; {} ops attempted, {} failed",
        reps.len(),
        report.attempted,
        report.failed
    );

    // Speed-up over a set of reps: timed virtual time over the simulation
    // thread's CPU time. The simulation runs on this thread alone and
    // never blocks, so on an unshared CPU this equals the wall-clock
    // speed-up; CPU time leaves out what the hypervisor gives to other
    // tenants.
    let speedup = |traced: bool| -> f64 {
        let picked = reps.iter().filter(|(t, _)| *t == traced).map(|(_, r)| r);
        let (n, cpu) = picked.fold((0, 0.0), |(n, c), r| (n + 1, c + r.post_cpu));
        (n * TIMED_SECS) as f64 / cpu
    };
    if args.trace {
        let r = &reps.iter().find(|(t, _)| *t).expect("a traced rep").1;
        let mut vms: Vec<f64> = r.latencies_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        vms.sort_by(f64::total_cmp);
        out_sim_metrics(&mut report, r, &vms);
        let (untraced, traced) = (speedup(false), speedup(true));
        println!("tracing overhead: {untraced:.2}x untraced, {traced:.2}x traced");
        report.metric("trace.overhead_frac", untraced / traced - 1.0, "ratio");
        let spans: Vec<String> = r
            .history
            .iter()
            .map(|h| {
                format!(
                    "{{\"name\": \"op.virtual\", \"start_ns\": {}, \"end_ns\": {}, \"key\": {}}}",
                    h.record.invoke, h.record.response, h.key.0
                )
            })
            .collect();
        write_spans(&args.workload, args.seed, &spans);
    } else {
        let boots: Vec<f64> = reps.iter().map(|(_, r)| r.boot_wall).collect();
        report.metric("sim_speedup", speedup(false), "x");
        report.metric("setup_s", median(&boots), "s");
        report.metric("rss_mb", peak_rss_mb(), "MiB");
    }
    report
}

fn out_sim_metrics(report: &mut Report, r: &Rep, vms: &[f64]) {
    let post_virtual = TIMED_SECS as f64;
    let ops = r.completed.max(1) as f64;
    report.metric("cats.abd_msgs_per_op", r.abd_msgs as f64 / ops, "count");
    report.metric(
        "protocols.bg_msgs_per_s",
        r.bg_msgs as f64 / post_virtual,
        "1/s",
    );
    report.metric("cats.op_vms.p50", quantile(vms, 0.5), "ms");
    if beyond(vms.len(), 0.99) >= TAIL_SAMPLES {
        report.metric("cats.op_vms.p99", quantile(vms, 0.99), "ms");
    }
    report.metric("sim.des_events", r.des_events as f64, "count");
    report.metric(
        "sim.ns_per_event",
        r.post_cpu * 1e9 / r.post_events as f64,
        "ns",
    );
    println!(
        "virtual op latency: n={} p50={:.3} ms p99={:.3} ms; bg traffic {:.1} msgs per virtual s",
        vms.len(),
        quantile(vms, 0.5),
        quantile(vms, 0.99),
        r.bg_msgs as f64 / post_virtual
    );
}
