//! The golden corpus's case-file `config` block, shared by the suites
//! that replay `crates/service/cases/`.

use asm_service::ServiceConfig;
use serde::{Deserialize, Serialize};

/// `ServiceConfig` mirror with wire-friendly integer fields.
///
/// `shards` is omitted when it is `1`: the pre-sharding case files carry
/// no `shards` key, and `regen` must keep rewriting them byte-identically.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CaseConfig {
    pub workers: u64,
    pub queue_capacity: u64,
    pub cache_capacity: u64,
    pub worker_delay_ms: u64,
    #[serde(default = "one_shard", skip_serializing_if = "is_one_shard")]
    pub shards: u64,
}

fn one_shard() -> u64 {
    1
}

fn is_one_shard(shards: &u64) -> bool {
    *shards == 1
}

impl CaseConfig {
    pub fn to_service_config(&self) -> ServiceConfig {
        ServiceConfig {
            workers: self.workers as usize,
            queue_capacity: self.queue_capacity as usize,
            cache_capacity: self.cache_capacity as usize,
            worker_delay_ms: self.worker_delay_ms,
            shards: self.shards as usize,
        }
    }
}
