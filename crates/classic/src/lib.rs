//! # `co-classic` — classical content-carrying leader-election baselines
//!
//! The related-work comparison of the paper (§1.2): ring leader election
//! with *reliable, content-carrying* messages. These are the algorithms the
//! content-oblivious setting must do without:
//!
//! | Algorithm | Direction | Worst-case messages |
//! |-----------|-----------|---------------------|
//! | [`chang_roberts`] (1979) | unidirectional | `O(n²)` |
//! | [`hirschberg_sinclair`] (1980) | bidirectional | `O(n log n)` |
//! | [`peterson`] (1982) | unidirectional | `O(n log n)` |
//! | [`franklin`] (1982) | bidirectional | `O(n log n)` |
//!
//! All four run on the same [`co_net`] substrate as the paper's algorithms,
//! just instantiated with payload-carrying message types instead of
//! [`co_net::Pulse`]. The [`defective`] module then demonstrates the flip
//! side: wrap any of them in the fully defective channel (content erased on
//! delivery) and the election breaks — which is exactly why the paper's
//! content-oblivious algorithms are needed.
//!
//! ```rust
//! use co_classic::runner::Baseline;
//! use co_core::runner::RunOptions;
//! use co_net::{RingSpec, SchedulerKind};
//!
//! let spec = RingSpec::oriented(vec![3, 7, 2, 5]);
//! let opts = RunOptions::new(SchedulerKind::Random, 1);
//! let cr = Baseline::ChangRoberts.run(&spec, &opts);
//! assert_eq!(cr.leader, Some(1));
//! let hs = Baseline::HirschbergSinclair.run(&spec, &opts);
//! assert_eq!(hs.leader, Some(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chang_roberts;
pub mod chang_roberts_async;
pub mod defective;
pub mod franklin;
pub mod hirschberg_sinclair;
pub mod peterson;
pub mod registry;
pub mod runner;

pub use chang_roberts::ChangRobertsNode;
pub use chang_roberts_async::{chang_roberts_async_ring, chang_roberts_future};
pub use franklin::FranklinNode;
pub use hirschberg_sinclair::HirschbergSinclairNode;
pub use peterson::PetersonNode;
