//! A migratable process: address space + MSRLT, kept in lock-step.
//!
//! The paper's transformed programs route every allocation and frame
//! event through the migration runtime so the MSRLT always reflects the
//! live block population. That bookkeeping is the §4.3 execution-overhead
//! source: each `malloc` pays an MSRLT registration on top of the
//! allocation itself.

use crate::MigError;
use hpm_arch::Architecture;
use hpm_core::Msrlt;
use hpm_memory::{AddressSpace, BlockInfo, FrameId};
use hpm_types::TypeId;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// When a process should observe a migration request at a poll-point.
#[derive(Debug, Clone, Default)]
pub enum Trigger {
    /// Never migrate (baseline runs).
    #[default]
    Never,
    /// Migrate at the `n`-th poll-point execution (deterministic, used by
    /// the benchmarks).
    AtPollCount(u64),
    /// Migrate at the first poll-point at or after the `n`-th execution.
    /// Unlike [`Trigger::AtPollCount`], this cannot be "missed" when some
    /// polls run while restoration is still in progress — the scheduler
    /// uses it as a preemption quantum.
    AtLeastPollCount(u64),
    /// Migrate when an external scheduler — another thread — sets the
    /// flag: the paper's asynchronous migration request (§2).
    External(Arc<AtomicBool>),
}

/// A migratable process image on one machine.
#[derive(Debug)]
pub struct Process {
    /// The simulated address space (public: workload code computes in it).
    pub space: AddressSpace,
    /// The MSR lookup table, mirrored from allocation events.
    pub msrlt: Msrlt,
    program: String,
    trigger: Trigger,
    polls: u64,
}

impl Process {
    /// New process for `program` on `arch`.
    pub fn new(program: &str, arch: Architecture) -> Self {
        Process {
            space: AddressSpace::new(arch),
            msrlt: Msrlt::new(),
            program: program.to_string(),
            trigger: Trigger::Never,
            polls: 0,
        }
    }

    /// Program name (carried in image headers).
    pub fn program(&self) -> &str {
        &self.program
    }

    /// Install the migration trigger.
    pub fn set_trigger(&mut self, t: Trigger) {
        self.trigger = t;
    }

    /// Number of poll-point executions so far (§4.3 instrumentation).
    pub fn poll_count(&self) -> u64 {
        self.polls
    }

    /// The poll-point check: increments the counter and reports whether a
    /// migration request is pending. This is the entire per-poll cost the
    /// annotation adds on the no-migration path.
    #[inline]
    pub fn poll(&mut self) -> bool {
        self.polls += 1;
        match &self.trigger {
            Trigger::Never => false,
            Trigger::AtPollCount(n) => self.polls == *n,
            Trigger::AtLeastPollCount(n) => self.polls >= *n,
            Trigger::External(flag) => flag.load(Ordering::Relaxed),
        }
    }

    fn info_at(&self, addr: u64) -> BlockInfo {
        self.space.info_at(addr).expect("block just created")
    }

    /// Define a global variable and register it in the MSRLT.
    pub fn define_global(&mut self, name: &str, ty: TypeId, count: u64) -> Result<u64, MigError> {
        let addr = self.space.define_global(name, ty, count)?;
        let info = self.info_at(addr);
        self.msrlt.register(&info);
        Ok(addr)
    }

    /// Enter a function: push an address-space frame and an MSRLT group.
    pub fn enter_function(&mut self, name: &str) -> FrameId {
        let f = self.space.push_frame(name);
        self.msrlt.begin_frame();
        f
    }

    /// Declare a local in the current function.
    pub fn declare_local(
        &mut self,
        frame: FrameId,
        name: &str,
        ty: TypeId,
        count: u64,
    ) -> Result<u64, MigError> {
        let addr = self.space.define_local(frame, name, ty, count)?;
        let info = self.info_at(addr);
        self.msrlt.register(&info);
        Ok(addr)
    }

    /// Leave a function: drop its locals from both structures.
    pub fn exit_function(&mut self, frame: FrameId) -> Result<(), MigError> {
        self.space.pop_frame(frame)?;
        self.msrlt.end_frame();
        Ok(())
    }

    /// `malloc` with MSRLT registration.
    pub fn malloc(&mut self, ty: TypeId, count: u64) -> Result<u64, MigError> {
        let addr = self.space.malloc(ty, count)?;
        let info = self.info_at(addr);
        self.msrlt.register(&info);
        Ok(addr)
    }

    /// `free` with MSRLT unregistration.
    pub fn free(&mut self, addr: u64) -> Result<(), MigError> {
        self.msrlt.unregister(addr);
        self.space.free(addr)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proc() -> Process {
        Process::new("test", Architecture::dec5000())
    }

    #[test]
    fn malloc_registers_free_unregisters() {
        let mut p = proc();
        let int = p.space.types_mut().int();
        let a = p.malloc(int, 4).unwrap();
        assert!(p.msrlt.lookup_addr(a + 4).is_some());
        p.free(a).unwrap();
        assert!(p.msrlt.lookup_addr(a + 4).is_none());
    }

    #[test]
    fn frames_mirror_into_msrlt() {
        let mut p = proc();
        let int = p.space.types_mut().int();
        let f = p.enter_function("main");
        let x = p.declare_local(f, "x", int, 1).unwrap();
        let (id, _) = p.msrlt.lookup_addr(x).unwrap();
        assert_eq!(id.group, 2, "first frame is group 2");
        p.exit_function(f).unwrap();
        assert!(p.msrlt.lookup_addr(x).is_none());
    }

    #[test]
    fn poll_triggers_exactly_once_at_count() {
        let mut p = proc();
        p.set_trigger(Trigger::AtPollCount(3));
        assert!(!p.poll());
        assert!(!p.poll());
        assert!(p.poll());
        assert!(!p.poll(), "AtPollCount fires only at the exact count");
        assert_eq!(p.poll_count(), 4);
    }

    #[test]
    fn external_trigger() {
        let mut p = proc();
        let flag = Arc::new(AtomicBool::new(false));
        p.set_trigger(Trigger::External(Arc::clone(&flag)));
        assert!(!p.poll());
        flag.store(true, Ordering::Relaxed);
        assert!(p.poll());
    }

    #[test]
    fn never_trigger_counts_polls() {
        let mut p = proc();
        for _ in 0..100 {
            assert!(!p.poll());
        }
        assert_eq!(p.poll_count(), 100);
    }
}
