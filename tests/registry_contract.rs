//! Registry contract: the dispatch seam every driver layer (CLI, fleet,
//! bench tables) resolves protocols through (DESIGN.md §12).
//!
//! Three families of guarantees:
//!
//! 1. **Name round trips** — every entry's canonical name parses back to the
//!    same entry through `ProtocolChoice`, and the registry's lookup is total
//!    over its own `names()`.
//! 2. **Typed capability gating** — asking for a capability an entry lacks
//!    yields `RegistryError::Unsupported` naming the protocols that *do*
//!    support it; unknown names yield `RegistryError::Unknown` listing the
//!    whole catalogue.
//! 3. **Determinism through the seam** — record → replay is byte-identical
//!    (`RunReport`, fingerprint, leaders) for every entry under every
//!    scheduler, mirroring `tests/record_replay.rs` but driven exclusively
//!    through `ProtocolSpec`, including the Chang–Roberts onboarding and a
//!    shrink run over a classic baseline.

use co_bench::protocols;
use content_oblivious::core::registry::{Capability, RegistryError};
use content_oblivious::core::runner::RunOptions;
use content_oblivious::net::explore::ExploreConfig;
use content_oblivious::net::{RingSpec, Schedule, SchedulerKind};

#[test]
fn every_entry_round_trips_through_name_lookup() {
    let reg = protocols();
    for entry in reg.entries() {
        let found = reg.get(entry.name()).expect("lookup is total over names");
        assert_eq!(found.name(), entry.name());
        assert_eq!(found.layer(), entry.layer());
        for cap in Capability::ALL {
            assert_eq!(
                found.supports(cap),
                entry.supports(cap),
                "{} / {cap}",
                entry.name()
            );
        }
    }
    assert_eq!(reg.names().len(), reg.entries().len());
}

#[test]
fn unknown_names_list_the_catalogue() {
    let err = protocols()
        .get("paxos")
        .expect_err("paxos is not on a ring");
    let RegistryError::Unknown { name, known } = &err else {
        panic!("expected Unknown, got {err:?}")
    };
    assert_eq!(name, "paxos");
    assert_eq!(known, &protocols().names());
    let rendered = err.to_string();
    assert!(rendered.contains("unknown protocol 'paxos'"), "{rendered}");
    assert!(rendered.contains("chang-roberts"), "{rendered}");
}

#[test]
fn capability_gates_return_typed_errors() {
    // Fleet rings are Pulse-only: a content-carrying baseline must be
    // refused with the list of protocols that can run there.
    let err = protocols()
        .fleet("chang-roberts")
        .expect_err("classic protocols cannot join the fleet");
    let RegistryError::Unsupported {
        name,
        capability,
        supported,
    } = &err
    else {
        panic!("expected Unsupported, got {err:?}")
    };
    assert_eq!(*name, "chang-roberts");
    assert_eq!(*capability, Capability::Fleet);
    assert_eq!(supported, &protocols().supporting(Capability::Fleet));
    assert!(err.to_string().contains("does not support fleet"));

    // Same for explore (schedule enumeration is Pulse-only) and for shrink
    // on a protocol with no monitor (alg1 stabilizes, never terminates).
    assert!(protocols().explore("franklin").is_err());
    assert!(protocols().shrink("alg1").is_err());
    assert!(matches!(
        protocols().require("nope", Capability::Shrink),
        Err(RegistryError::Unknown { .. })
    ));
}

#[test]
fn every_entry_replays_byte_identically_through_the_spec() {
    let spec = RingSpec::oriented(vec![3, 1, 4, 2]);
    for entry in protocols().entries() {
        for kind in SchedulerKind::ALL {
            for seed in [0u64, 7, 42] {
                let opts = RunOptions::new(kind, seed);
                let rec = entry.record(&spec, &opts).expect("positive IDs");
                let rep = entry
                    .replay(&spec, &opts, &rec.picks)
                    .expect("positive IDs");
                let tag = format!("{} under {kind} seed {seed}", entry.name());
                assert_eq!(rec.report, rep.report, "{tag}: RunReport differs");
                assert_eq!(rec.fingerprint, rep.fingerprint, "{tag}: fingerprint");
                assert_eq!(rec.leaders, rep.leaders, "{tag}: leaders");

                // Round-trip the schedule through its textual form too: the
                // CLI's `record` output must feed `replay --schedule`.
                let reparsed: Schedule = rec.picks.to_string().parse().expect("schedule parses");
                assert_eq!(rec.picks, reparsed, "{tag}: Display/FromStr round trip");
            }
        }
    }
}

#[test]
fn chang_roberts_records_replays_and_shrinks_through_the_registry() {
    // The onboarding proof at the integration level: the classic protocol
    // joins the full determinism toolkit via its registry entry alone.
    let spec = RingSpec::oriented(vec![4, 9, 2, 7, 5]);
    let entry = protocols().get("chang-roberts").expect("registered");

    for kind in SchedulerKind::ALL {
        let opts = RunOptions::new(kind, 23);
        let rec = entry.record(&spec, &opts).expect("positive IDs");
        let rep = entry
            .replay(&spec, &opts, &rec.picks)
            .expect("positive IDs");
        assert_eq!(rec.report, rep.report, "{kind}");
        assert_eq!(rec.fingerprint, rep.fingerprint, "{kind}");
        // Position 1 holds the maximum ID; Chang–Roberts elects it.
        assert_eq!(rec.leaders, vec![1], "{kind}");
    }

    // The shrink toolkit engages (via the unique-leader monitor) and finds
    // nothing to shrink on a correct baseline.
    let driver = entry.shrink_driver().expect("chang-roberts is monitored");
    for kind in SchedulerKind::ALL {
        for seed in 0..4 {
            assert!(
                driver.hunt(&spec, kind, seed).is_none(),
                "correct baseline must not violate unique leadership ({kind}, seed {seed})"
            );
        }
    }
}

#[test]
fn every_explore_entry_checks_its_claims() {
    // An explore entry is registered with its definition's predicates
    // (`ExploreProperties`), so the real algorithms explore clean and the
    // ablation is caught breaking Algorithm 2's claims.
    let reg = protocols();
    let explorable = reg.supporting(Capability::Explore);
    assert!(explorable.contains(&"ungated"), "{explorable:?}");
    for name in explorable {
        let driver = reg.explore(name).expect("explore-capable");
        let mut violations = Vec::new();
        for ids in [vec![2, 1], vec![1, 3, 2], vec![2, 4, 1, 3]] {
            let report = driver
                .try_run(&RingSpec::oriented(ids), &ExploreConfig::default())
                .expect("positive IDs");
            assert!(report.complete, "{name}");
            violations.extend(report.violations);
        }
        if name == "ungated" {
            assert!(!violations.is_empty(), "{name} passed Algorithm 2's claims");
        } else {
            assert!(violations.is_empty(), "{name}: {violations:?}");
        }
    }
}
