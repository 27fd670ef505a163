//! Pins the election runner's answers: one FNV-1a digest over every
//! `ElectionReport` of a protocol × scheduler × ring × backend grid, plus
//! the options every runner must honour (latency, budget) and the
//! predicted counts it must refuse to wrap.

use content_oblivious::classic::runner::Baseline;
use content_oblivious::compose::pipeline::elect_then_ring_size;
use content_oblivious::core::anonymous::{elect_anonymous, SamplingConfig};
use content_oblivious::core::election::{ElectionReport, Role};
use content_oblivious::core::invariants::{Alg2MonitorObserver, CwMonitorObserver};
use content_oblivious::core::registry::{Alg1Def, Alg2Def};
use content_oblivious::core::runner::{self, Alg3Report, RunOptions};
use content_oblivious::core::IdScheme;
use content_oblivious::net::{
    Budget, LatencyModel, LatencyPlan, QueueBackend, RingSpec, SchedulerKind,
};

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn report(&mut self, r: &ElectionReport) {
        for b in r.outcome.to_string().bytes() {
            self.word(u64::from(b));
        }
        self.word(r.total_messages);
        self.word(r.steps);
        self.word(r.leader.map_or(u64::MAX, |l| l as u64));
        self.word(r.roles.len() as u64);
        for role in &r.roles {
            self.word(u64::from(*role == Role::Leader));
        }
        self.word(r.predicted_messages.unwrap_or(u64::MAX));
    }

    fn alg3(&mut self, r: &Alg3Report) {
        self.report(&r.report);
        for p in &r.cw_ports {
            self.word(p.map_or(2, |p| p.index() as u64));
        }
        self.word(u64::from(r.orientation_consistent));
    }
}

fn rings() -> Vec<RingSpec> {
    vec![
        RingSpec::oriented(vec![2, 6, 3, 5]),
        RingSpec::oriented(vec![5, 1, 8, 2, 7, 3]),
        RingSpec::with_flips(vec![4, 9, 2, 5, 1], vec![false, true, false, true, true]),
    ]
}

fn uniform(min: u64, max: u64) -> LatencyPlan {
    LatencyPlan::new(LatencyModel::Uniform { min, max }, 5)
}

const SCHEMES: [IdScheme; 2] = [IdScheme::Improved, IdScheme::Doubled];

/// The literal was computed by the per-variant runners this API replaced
/// (`run_alg{1,2,3}_scaled`, `run_alg3`, `Baseline::run`,
/// `run_alg{1,2}_monitored`, `run_alg3_resampling`, `run_alg{1,2}_latency`),
/// with alg3 and the baselines under latency driven by hand the same way.
#[test]
fn runner_answers_match_the_pinned_digest() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let seed = 7;
    for spec in rings() {
        for kind in SchedulerKind::ALL {
            for backend in QueueBackend::ALL {
                let opts = RunOptions {
                    backend,
                    ..RunOptions::new(kind, seed)
                };
                h.report(&runner::run::<Alg1Def>(&spec, &opts));
                h.report(&runner::run::<Alg2Def>(&spec, &opts));
                for scheme in SCHEMES {
                    h.report(
                        &runner::run_alg3(&spec, scheme, &opts)
                            .expect("IDs fit")
                            .report,
                    );
                }
            }
            let opts = RunOptions::new(kind, seed);
            for scheme in SCHEMES {
                h.alg3(&runner::run_alg3(&spec, scheme, &opts).expect("IDs fit"));
            }
            let envelopes = RunOptions::new(kind, seed);
            for baseline in Baseline::ALL {
                h.report(&baseline.run(&spec, &envelopes));
            }
            let cw = runner::run_monitored::<Alg1Def, _>(&spec, &opts, CwMonitorObserver::new());
            h.report(&cw.unwrap());
            let ccw = runner::run_monitored::<Alg2Def, _>(&spec, &opts, Alg2MonitorObserver::new());
            h.report(&ccw.unwrap());
            let dupes = RingSpec::oriented(vec![2, 2, 7, 2]);
            let (out, ids) =
                runner::run_alg3_resampling(&dupes, IdScheme::Improved, &opts).expect("IDs fit");
            h.alg3(&out);
            for id in ids {
                h.word(id);
            }
        }
        let latency = RunOptions {
            latency: uniform(1, 10),
            ..RunOptions::new(SchedulerKind::Latency, seed)
        };
        h.report(&runner::run::<Alg1Def>(&spec, &latency));
        h.report(&runner::run::<Alg2Def>(&spec, &latency));
        for scheme in SCHEMES {
            h.alg3(&runner::run_alg3(&spec, scheme, &latency).expect("IDs fit"));
        }
        // The baselines' options differ only in their backend's type.
        let latency = RunOptions {
            latency: uniform(1, 10),
            ..RunOptions::new(SchedulerKind::Latency, seed)
        };
        for baseline in Baseline::ALL {
            h.report(&baseline.run(&spec, &latency));
        }
    }
    assert_eq!(h.0, 0x3d99_2e4f_1abd_10f6, "digest {:#018x}", h.0);
}

/// `orient` and `baseline` used to drop the latency plan. Cut short by a
/// step budget, a run under `SchedulerKind::Latency` has sent a different
/// number of messages with a non-zero plan than with the zero plan, so the
/// plan demonstrably reaches both runners.
#[test]
fn alg3_and_baselines_honour_the_latency_plan() {
    let spec = RingSpec::with_flips(
        vec![3, 8, 1, 6, 4, 7],
        vec![true, false, false, true, false, true],
    );
    let budget = Budget::steps(12);
    let zero = RunOptions {
        budget,
        ..RunOptions::new(SchedulerKind::Latency, 3)
    };
    let timed = RunOptions {
        latency: uniform(1, 50),
        ..zero.clone()
    };
    let alg3 = |opts| {
        runner::run_alg3(&spec, IdScheme::Improved, opts)
            .expect("IDs fit")
            .report
    };
    assert_eq!(alg3(&zero).steps, 12);
    assert_ne!(alg3(&zero).total_messages, alg3(&timed).total_messages);

    let oriented = RingSpec::oriented(vec![3, 8, 1, 6, 4, 7]);
    let hs = |latency: LatencyPlan| {
        let opts = RunOptions {
            latency,
            budget,
            ..RunOptions::new(SchedulerKind::Latency, 3)
        };
        Baseline::HirschbergSinclair.run(&oriented, &opts)
    };
    let (untimed, timed) = (hs(LatencyPlan::zero()), hs(uniform(1, 50)));
    assert_eq!(untimed.steps, 12);
    assert_ne!(untimed.total_messages, timed.total_messages);
}

/// The Corollary 5 pipeline and the anonymous-ring election honour the
/// options' latency plan and budget too: cut at the same step budget under
/// `SchedulerKind::Latency`, each has sent a different number of pulses
/// with a non-zero plan than with the zero plan.
#[test]
fn compose_and_anonymous_honour_the_latency_plan() {
    let zero = RunOptions {
        budget: Budget::steps(20),
        ..RunOptions::new(SchedulerKind::Latency, 3)
    };
    let timed = RunOptions {
        latency: uniform(1, 50),
        ..zero.clone()
    };
    let spec = RingSpec::oriented(vec![3, 8, 1, 6, 4, 7]);
    let compose = |opts| elect_then_ring_size(&spec, opts).total_messages;
    assert_ne!(compose(&zero), compose(&timed));
    let full = elect_then_ring_size(&spec, &RunOptions::new(SchedulerKind::Latency, 3));
    assert!(
        full.quiescently_terminated,
        "the default budget still finishes"
    );
    assert!(
        compose(&zero) < full.total_messages,
        "the budget cut the run"
    );

    let cfg = SamplingConfig::new(1.0).with_max_bits(8);
    let anonymous = |opts| elect_anonymous(6, &cfg, opts).messages;
    assert_ne!(anonymous(&zero), anonymous(&timed));
}

/// Theorem 1, Corollary 13 and Theorem 2's counts overflow a `u64` for
/// large IDs; the runner reports no prediction instead of a wrapped one.
#[test]
fn predictions_that_do_not_fit_are_none() {
    let opts = RunOptions {
        budget: Budget::steps(10),
        ..RunOptions::new(SchedulerKind::Fifo, 0)
    };
    let huge = RingSpec::oriented(vec![u64::MAX]);
    assert_eq!(
        runner::run::<Alg2Def>(&huge, &opts).predicted_messages,
        None
    );
    assert_eq!(
        runner::run::<Alg1Def>(&huge, &opts).predicted_messages,
        Some(u64::MAX)
    );
    let two = RingSpec::oriented(vec![u64::MAX, 3]);
    assert_eq!(runner::run::<Alg1Def>(&two, &opts).predicted_messages, None);

    let half = RingSpec::oriented(vec![(1 << 63) - 1, 3]);
    let report = runner::run_alg3(&half, IdScheme::Improved, &opts)
        .expect("IDs fit")
        .report;
    assert_eq!(report.steps, 10);
    assert_eq!(report.predicted_messages, None);
    let solo = RingSpec::oriented(vec![(1 << 63) - 1]);
    let report = runner::run_alg3(&solo, IdScheme::Improved, &opts)
        .expect("IDs fit")
        .report;
    assert_eq!(report.predicted_messages, Some(u64::MAX));
}
