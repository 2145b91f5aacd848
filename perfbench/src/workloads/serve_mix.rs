//! `serve_mix`: the four-lane serving runtime (`Server::try_run` on
//! `serve::presets::try_fleet`) under open-loop Poisson traffic below,
//! near and above saturation.
//!
//! The only workload that runs the serve scheduler, TCAM search and the
//! degrade/shed/reject paths, and the crossbar for batched *inference*
//! only. An op is one `try_run` over a pre-generated trace; a work item
//! is one simulated request. Loads cycle 0.9×, 1.2×, 1.5× of
//! `saturation_qps`: three op sizes, each timed over its own repeats.

use crate::metrics::{ratio, Outcome};
use crate::runner::{end_to_end, run_for, time_setup, timed, traced_share, Baseline, OpLog};
use crate::stats::Digest;
use crate::workloads::{sub_seed, Ctx};
use enw_cam::array::TcamConfig;
use enw_cam::cells;
use enw_crossbar::devices::pcm::PcmConfig;
use enw_numerics::rng::Rng64;
use enw_recsys::characterize::RooflineMachine;
use enw_recsys::serving::batch_latency;
use enw_serve::backends::{
    ideal_layers, CrossbarBackend, DigitalBackend, RecsysBackend, TcamBackend, TcamGeometry,
};
use enw_serve::presets::{recsys_config, saturation_qps, traffic_classes, try_fleet};
use enw_serve::{
    generate_trace, Backend, BatchPolicy, DegradePolicy, LoadSpec, Output, Payload, Request,
    RunReport, ServeError, Server, StationSpec,
};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// Offered load, as multiples of the fleet's saturation rate.
const LOADS: [f64; 3] = [0.9, 1.2, 1.5];
/// Requests a trace would hold at exactly saturation; sets the virtual
/// horizon (about 10 ms of host time per `try_run` on a 2-core Xeon).
const REQUESTS_AT_SATURATION: f64 = 4000.0;

struct Load {
    server_seed: u64,
    traces: Vec<Vec<Request>>,
}

/// Builds the preset fleet and the three traces.
fn setup(seed: u64) -> Result<Load, ServeError> {
    let server_seed = sub_seed(seed, 0);
    let server = try_fleet(server_seed)?;
    let classes = traffic_classes();
    let sat = saturation_qps(&server, &classes);
    let duration_ns = (REQUESTS_AT_SATURATION / sat * 1e9) as u64;
    let traces = LOADS
        .iter()
        .enumerate()
        .map(|(i, x)| {
            let spec = LoadSpec { qps: x * sat, duration_ns, seed: sub_seed(seed, 1 + i as u64) };
            generate_trace(&server, &spec, &classes)
        })
        .collect();
    Ok(Load { server_seed, traces })
}

fn digest(report: &RunReport) -> u64 {
    Digest::of_str(&report.render())
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, built) = time_setup(|| setup(ctx.seed));
    let load = match built {
        Ok(l) => l,
        Err(e) => {
            out.lines.push(format!("error: serve_mix setup failed: {e}"));
            return out;
        }
    };

    // Single-worker reference digests, one per trace.
    let reference: Result<Vec<RunReport>, ServeError> = enw_parallel::with_threads(1, || {
        load.traces.iter().map(|t| try_fleet(load.server_seed)?.try_run(t)).collect()
    });
    let reference = match reference {
        Ok(r) => r,
        Err(e) => {
            out.lines.push(format!("error: reference run failed: {e}"));
            return out;
        }
    };
    let ref_digests: Vec<u64> = reference.iter().map(digest).collect();
    let mut all = Digest::default();
    for (i, (r, t)) in reference.iter().zip(&load.traces).enumerate() {
        let sum = |f: fn(&enw_serve::StationMetrics) -> u64| r.stations.iter().map(f).sum::<u64>();
        let p99 = r.stations.iter().map(|s| s.summary().p99_ns).max().unwrap_or(0);
        out.lines.push(format!(
            "sim.load_{:.1}x requests={} completed={} late={} shed={} rejected={} batches={} p99_ns={} makespan_ns={}",
            LOADS[i],
            t.len(),
            sum(|s| s.completed),
            sum(|s| s.deadline_misses),
            sum(|s| s.shed),
            sum(|s| s.rejected),
            sum(|s| s.batches),
            p99,
            r.duration_ns
        ));
        all.u64(ref_digests[i]);
    }
    out.lines.push(format!("sim.digest = {:016x}", all.value()));

    let mut op = |k: usize, log: &mut OpLog| {
        let i = k % LOADS.len();
        let trace = &load.traces[i];
        // Each run consumes its server; building the next is not timed.
        match try_fleet(load.server_seed) {
            Ok(server) => {
                let (report, secs) = timed(|| server.try_run(trace));
                log.push(
                    secs,
                    trace.len() as u64,
                    report.is_ok_and(|r| digest(&r) == ref_digests[i]),
                );
            }
            Err(_) => log.push(0.0, 0, false),
        }
    };

    let log = if ctx.trace {
        let base = Baseline::measure(&mut out.values, ctx.seconds, LOADS.len(), &mut op);
        let traced = traced_segment(ctx, &load, &ref_digests, &mut out);
        base.finish(&mut out.values, &traced)
    } else {
        let log = run_for(ctx.seconds, LOADS.len(), &mut op);
        end_to_end(&mut out, &log, setup_s);
        log
    };
    out.lines.push(format!("ops.try_runs = {}", log.attempted()));
    out.attempted = log.attempted();
    out.failed = log.failed;
    // Every request of every trace leaves exactly one terminal response.
    out.checks_ok = reference.iter().zip(&load.traces).all(|(r, t)| r.responses.len() == t.len());
    out
}

/// Host time and requests one backend served.
#[derive(Debug, Default)]
pub struct LaneTimer {
    ns: Cell<u64>,
    reqs: Cell<u64>,
}

impl LaneTimer {
    fn add(&self, since: Instant, reqs: usize) {
        let ns = u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.ns.set(self.ns.get() + ns);
        self.reqs.set(self.reqs.get() + reqs as u64);
    }
}

/// A serving `Backend` that times `serve`/`serve_into` of the lane it
/// wraps and otherwise forwards every call unchanged.
struct TimedBackend {
    inner: Box<dyn Backend>,
    timer: Rc<LaneTimer>,
}

impl Backend for TimedBackend {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn service_ns(&self, batch: usize) -> u64 {
        self.inner.service_ns(batch)
    }

    fn serve(&mut self, batch: &[Request]) -> Vec<Output> {
        let t = Instant::now();
        let out = self.inner.serve(batch);
        self.timer.add(t, batch.len());
        out
    }

    fn serve_into(&mut self, batch: &[Request], out: &mut Vec<Output>) {
        let t = Instant::now();
        self.inner.serve_into(batch, out);
        self.timer.add(t, batch.len());
    }

    fn make_payload(&self, rng: &mut Rng64) -> Payload {
        self.inner.make_payload(rng)
    }
}

/// Lane order of [`TimedLanes`] timers.
const LANES: [&str; 5] = ["crossbar", "crossbar-fallback", "digital", "tcam", "recsys"];
/// MLP served by the crossbar and digital lanes (as in `try_fleet`).
const MLP_DIMS: [usize; 3] = [16, 32, 10];
const T_READ_S: f64 = 1e6;
const TCAM_DIM: usize = 16;
const TCAM_PLANES: usize = 64;
const TCAM_CLASSES: usize = 10;
const TCAM_SHOTS: usize = 4;
const RECSYS_SLA_X: f64 = 50.0;
const RECSYS_BATCH_CAP: usize = 64;

/// One timer per backend, in [`LANES`] order.
pub type TimedLanes = [Rc<LaneTimer>; 5];

/// `try_fleet`'s four stations rebuilt from the public constructors —
/// same constructor calls, same RNG draw order — with every backend
/// wrapped in a [`TimedBackend`].
pub fn timed_fleet(seed: u64) -> Result<(Server, TimedLanes), ServeError> {
    let timers: TimedLanes = Default::default();
    let wrap = |b: Box<dyn Backend>, i: usize| -> Box<dyn Backend> {
        Box::new(TimedBackend { inner: b, timer: Rc::clone(&timers[i]) })
    };
    let mut rng = Rng64::new(seed);
    let ideal = ideal_layers(&MLP_DIMS, &mut rng);
    let analog = CrossbarBackend::program(
        "crossbar",
        &ideal,
        PcmConfig::projected(),
        T_READ_S,
        CrossbarBackend::DEFAULT_MODEL,
        &mut rng,
    );
    let analog_fallback = DigitalBackend::from_layers(
        "crossbar-fallback",
        ideal.clone(),
        DigitalBackend::DEFAULT_MODEL,
    );
    let digital = DigitalBackend::from_layers("digital", ideal, DigitalBackend::DEFAULT_MODEL);
    let support: Vec<(Vec<f32>, usize)> = (0..TCAM_CLASSES * TCAM_SHOTS)
        .map(|k| {
            let class = k % TCAM_CLASSES;
            let mut v: Vec<f32> = (0..TCAM_DIM).map(|_| rng.range(-0.2, 0.2) as f32).collect();
            v[class % TCAM_DIM] = 1.0;
            (v, class)
        })
        .collect();
    let tcam = TcamBackend::new(
        "tcam",
        TcamGeometry {
            capacity: 2 * TCAM_CLASSES * TCAM_SHOTS,
            dim: TCAM_DIM,
            planes: TCAM_PLANES,
        },
        cells::cmos_16t(),
        TcamConfig::default(),
        &support,
        &mut rng,
    );
    let cfg = recsys_config();
    let machine = RooflineMachine::server_cpu();
    let sla = RECSYS_SLA_X * batch_latency(&cfg, 1, &machine);
    let recsys_policy =
        BatchPolicy::try_for_recsys_sla(&cfg, &machine, sla, RECSYS_BATCH_CAP, 512).unwrap_or(
            BatchPolicy { max_batch: RECSYS_BATCH_CAP, max_wait_ns: 100_000, queue_cap: 512 },
        );
    let recsys = RecsysBackend::new("recsys", &cfg, 1.0, machine, &mut rng);
    let specs = vec![
        StationSpec::with_fallback(
            wrap(Box::new(analog), 0),
            BatchPolicy::new(8, 200_000, 64),
            wrap(Box::new(analog_fallback), 1),
            DegradePolicy::new(3, 8),
        ),
        StationSpec::simple(wrap(Box::new(digital), 2), BatchPolicy::new(16, 100_000, 128)),
        StationSpec::simple(wrap(Box::new(tcam), 3), BatchPolicy::new(4, 50_000, 64)),
        StationSpec::simple(wrap(Box::new(recsys), 4), recsys_policy),
    ];
    Ok((Server::try_new(specs)?, timers))
}

/// Traced `try_run`s on the timed stations, checked against the same
/// reference digests; records the serve, crossbar-inference, numerics,
/// cam and recsys layer metrics.
fn traced_segment(ctx: &Ctx, load: &Load, ref_digests: &[u64], out: &mut Outcome) -> OpLog {
    let mut lane_ns = [0u64; 5];
    let mut lane_reqs = [0u64; 5];
    enw_trace::reset();
    enw_trace::set_mode(enw_trace::TraceMode::Summary);
    let log = run_for(traced_share(ctx.seconds), LOADS.len(), |k, log| {
        let i = k % LOADS.len();
        let trace = &load.traces[i];
        let Ok((server, timers)) = timed_fleet(load.server_seed) else {
            log.push(0.0, 0, false);
            return;
        };
        let (report, secs) = timed(|| server.try_run(trace));
        log.push(secs, trace.len() as u64, report.is_ok_and(|r| digest(&r) == ref_digests[i]));
        for (j, t) in timers.iter().enumerate() {
            lane_ns[j] += t.ns.get();
            lane_reqs[j] += t.reqs.get();
        }
    });
    let report = enw_trace::take_report();
    enw_trace::set_mode(enw_trace::TraceMode::Off);

    let ops = log.attempted() as f64;
    let span_count =
        |name: &str| report.spans.iter().find(|s| s.name == name).map_or(0, |s| s.count);
    let batches = span_count("serve/backend_execute");
    let backend_ns: u64 = lane_ns.iter().sum();
    let per_req = |j: usize| ratio(lane_ns[j] as f64, lane_reqs[j] as f64);
    let mlp_flops_per_req = 2 * MLP_DIMS.windows(2).map(|w| w[0] * w[1]).sum::<usize>();
    let mlp_reqs = lane_reqs[0] + lane_reqs[1] + lane_reqs[2];
    let mlp_ns = lane_ns[0] + lane_ns[1] + lane_ns[2];
    let v = &mut out.values;
    v.set("serve.try_run.s", log.busy_s() / ops);
    v.set("serve.backend.s", backend_ns as f64 / 1e9 / ops);
    v.set("serve.scheduler.self.s", (log.busy_s() - backend_ns as f64 / 1e9) / ops);
    v.set("serve.batches", batches as f64 / ops);
    v.set("serve.batch_size.mean", ratio(lane_reqs.iter().sum::<u64>() as f64, batches as f64));
    v.set("serve.shed", span_count("serve/shed") as f64 / ops);
    v.set("serve.rejected", span_count("serve/reject") as f64 / ops);
    v.set("crossbar.infer.ns_per_req", per_req(0));
    v.set(
        "numerics.matvec.gflops",
        ratio((mlp_reqs * mlp_flops_per_req as u64) as f64, mlp_ns as f64),
    );
    v.set("cam.search.ns_per_req", per_req(3));
    v.set("recsys.predict.ns_per_req", per_req(4));
    for (j, name) in LANES.iter().enumerate() {
        out.lines
            .push(format!("layer.serve.{name} requests={} host_ns={}", lane_reqs[j], lane_ns[j]));
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_stations_reproduce_the_preset_fleet() {
        let load = setup(11).expect("preset fleet");
        for trace in &load.traces {
            let expected =
                try_fleet(load.server_seed).and_then(|s| s.try_run(trace)).expect("runs");
            let (server, timers) = timed_fleet(load.server_seed).expect("rebuilt fleet");
            let got = server.try_run(trace).expect("runs");
            assert_eq!(got.render(), expected.render());
            let served: u64 = timers.iter().map(|t| t.reqs.get()).sum();
            assert!(served > 0 && timers.iter().any(|t| t.ns.get() > 0));
        }
    }

    #[test]
    fn loads_bracket_saturation() {
        let load = setup(3).expect("preset fleet");
        let sizes: Vec<usize> = load.traces.iter().map(Vec::len).collect();
        assert!(sizes[0] < sizes[1] && sizes[1] < sizes[2], "{sizes:?}");
    }
}
