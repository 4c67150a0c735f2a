//! The behavior registry: maps every corelib `tar_file` key to its Rust
//! implementation and that behavior's declared scheduling facts.

use lss_sim::ComponentRegistry;

use crate::behaviors::basic::{Delay, Latch, Probe, Sink, Source, Tee};
use crate::behaviors::compute::{Alu, Cache, MemoryLat, Ram, RegFile};
use crate::behaviors::cpu::{BranchPred, Commit, Decode, Dispatch, Fetch, Fu, Issue};
use crate::behaviors::flow::{Arbiter, Demux, Mux, Queue};

/// Builds a registry with every corelib behavior registered, each with its
/// declared `DEPS`.
pub fn registry() -> ComponentRegistry {
    let mut reg = ComponentRegistry::new();
    // Basic elements.
    reg.register("corelib/source.tar", Source::DEPS, Source::new);
    reg.register("corelib/sink.tar", Sink::DEPS, Sink::new);
    reg.register("corelib/delay.tar", Delay::DEPS, Delay::new);
    reg.register("corelib/latch.tar", Latch::DEPS, Latch::new);
    reg.register("corelib/tee.tar", Tee::DEPS, Tee::new);
    reg.register("corelib/probe.tar", Probe::DEPS, Probe::new);
    // Data-flow plumbing.
    reg.register("corelib/queue.tar", Queue::DEPS, Queue::new);
    reg.register("corelib/arbiter.tar", Arbiter::DEPS, Arbiter::new);
    reg.register("corelib/mux.tar", Mux::DEPS, Mux::new);
    reg.register("corelib/demux.tar", Demux::DEPS, Demux::new);
    // Computation and storage.
    reg.register("corelib/alu.tar", Alu::DEPS, Alu::new);
    reg.register("corelib/regfile.tar", RegFile::DEPS, RegFile::new);
    reg.register("corelib/ram.tar", Ram::DEPS, Ram::new);
    reg.register("corelib/memory.tar", MemoryLat::DEPS, MemoryLat::new);
    reg.register("corelib/cache.tar", Cache::DEPS, Cache::new);
    // Processor pipeline.
    reg.register("corelib/fetch.tar", Fetch::DEPS, Fetch::new);
    reg.register("corelib/decode.tar", Decode::DEPS, Decode::new);
    reg.register("corelib/dispatch.tar", Dispatch::DEPS, Dispatch::new);
    reg.register("corelib/issue.tar", Issue::DEPS, Issue::new);
    reg.register("corelib/fu.tar", Fu::DEPS, Fu::new);
    reg.register("corelib/commit.tar", Commit::DEPS, Commit::new);
    reg.register("corelib/bp.tar", BranchPred::DEPS, BranchPred::new);
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_22_leaf_behaviors() {
        assert_eq!(registry().len(), 22);
    }
}
