//! The full workspace protocol registry.
//!
//! `co_core::registry::core_registry` only knows the paper's algorithms —
//! `co-core` cannot see `co-classic`. This crate depends on both, so it
//! owns the complete assembly: the paper's protocols followed by the
//! content-carrying baselines, in one [`Registry`] every driver layer
//! (CLI, fleet, tables) resolves against.

use co_core::registry::{core_entries, Registry};
use std::sync::OnceLock;

/// The workspace registry: the paper's protocols (`alg1`, `alg2`, `alg3`,
/// `ungated`) followed by the classic baselines (`chang-roberts`,
/// `hirschberg-sinclair`, `peterson`, `franklin`).
#[must_use]
pub fn protocols() -> &'static Registry {
    static CELL: OnceLock<Registry> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut entries = core_entries();
        entries.extend(co_classic::registry::classic_entries());
        Registry::new(entries)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use co_core::registry::Capability;

    #[test]
    fn full_registry_spans_both_layers() {
        let reg = protocols();
        assert_eq!(
            reg.names(),
            vec![
                "alg1",
                "alg2",
                "alg3",
                "ungated",
                "chang-roberts",
                "hirschberg-sinclair",
                "peterson",
                "franklin",
            ]
        );
        assert_eq!(reg.supporting(Capability::Fleet), vec!["alg1", "alg2"]);
        assert_eq!(
            reg.supporting(Capability::Shrink),
            vec![
                "alg2",
                "ungated",
                "chang-roberts",
                "hirschberg-sinclair",
                "peterson",
                "franklin",
            ]
        );
    }
}
