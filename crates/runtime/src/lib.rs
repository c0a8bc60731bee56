//! # asm-runtime: deterministic parallel execution
//!
//! The workspace's algorithms are seeded and bit-reproducible; this crate
//! keeps them that way while fanning work out across cores. It is built
//! on `std` scoped threads only — the workspace is offline/vendored, so
//! no rayon, no crossbeam.
//!
//! Five pieces:
//!
//! * [`Executor`] — a work-sharded map over an *indexed* input slice.
//!   Workers steal indices from a shared counter, but results are
//!   collected back **in input order**, so the output of
//!   [`Executor::map`] is a pure function of the inputs: byte-identical
//!   for 1, 2, or N workers.
//! * [`derive_seed`] / [`label_hash`] — the per-cell seed-derivation
//!   scheme. A sweep cell's seed depends only on the cell's *coordinates*
//!   (experiment, family, n, ε-index, trial), never on which worker ran
//!   it or in what order — the other half of thread-count invariance.
//! * [`pool`] — the streaming counterpart to [`Executor`]: a bounded
//!   [`JobQueue`] whose non-blocking `try_push` is an admission-control
//!   decision, and a [`WorkerPool`] of long-lived threads that drain it,
//!   with close-then-join graceful shutdown. This is what `asm-service`
//!   serves requests on.
//! * [`cli`] — the workspace's one command-line grammar, which the
//!   `asm`, `all_experiments`, `loadgen` and `asm-orchestrator` front ends
//!   parse with, and [`RunFlags`], the experiment runs' flags: sweep
//!   size, worker count and table format.
//! * [`poll`] — one `poll(2)` wait over many descriptors, the readiness
//!   wait `asm-service`'s reactor blocks in. It holds the workspace's
//!   only `unsafe` block, so this crate denies `unsafe_code` instead of
//!   forbidding it and allows it on that one function.
//!
//! # Examples
//!
//! ```
//! use asm_runtime::{derive_seed, label_hash, Executor};
//!
//! let cells: Vec<u64> = (0..64).collect();
//! let f = |_i: usize, &c: &u64| {
//!     let seed = derive_seed(0xA5, &[label_hash("t1"), c]);
//!     seed.wrapping_mul(c + 1)
//! };
//! let serial = Executor::serial().map(&cells, f);
//! let parallel = Executor::new(8).map(&cells, f);
//! assert_eq!(serial, parallel);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
mod executor;
pub mod poll;
pub mod pool;
mod seed;

pub use cli::RunFlags;
pub use executor::Executor;
pub use pool::{JobQueue, PushError, WorkerPool};
pub use seed::{derive_seed, label_hash};
