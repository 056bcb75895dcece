//! A frozen process whose MSR lookup table is incoherent, driven through
//! `migrate` on both transports: a reachable dangling pointer, an
//! unreachable one, and a block registered with the wrong size.
//!
//! The collector is the migration's registry check: it resolves each
//! pointer it reaches and checks each block it visits, so a refusal is
//! `MigError::Preflight`, named, on `Transport::Whole` and on
//! `Transport::Reliable` alike, and never a rung of the degradation
//! ladder. On `Whole` the refusal comes before anything is sent. On
//! `Reliable` the collector refuses part-way through its stream: the
//! prefix and the chunks cut before the bad block have crossed, the
//! terminator never does, and the destination's half-built process is
//! dropped. A dangling pointer in a block no live variable reaches is
//! garbage the migration does not ship; the process migrates.
//!
//! The collector and the registry audit make one per-block check, so on
//! each frozen source the audit `hpm-lint` runs reports exactly one
//! finding, and a refusal names that finding.

use hpm_arch::Architecture;
use hpm_core::msrlt::GROUP_GLOBAL;
use hpm_core::{LogicalId, RegistryFinding};
use hpm_migrate::{
    migrate, run_to_migration, Flow, MigCtx, MigError, MigratableProgram, Migration, MigrationRun,
    PipelineConfig, Process, Transport, Trigger,
};
use hpm_net::{FaultPlan, NetworkModel};
use hpm_obs::{EventLog, Level};

/// An address no block covers.
const BOGUS: u64 = 0xDEAD;
/// Iterations of the program's loop; it freezes halfway.
const LIMIT: i64 = 40;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Case {
    /// A live global `int *` holds [`BOGUS`].
    ReachableDangling,
    /// A global `int *` no live variable reaches holds [`BOGUS`].
    UnreachableDangling,
    /// A live global `int` is registered 8 bytes larger than it is.
    SizeMismatch,
}

/// Sums `0..LIMIT` into a global counter, polling every iteration, with
/// one more global set up as `case` says.
struct Incoherent {
    case: Case,
    result: Option<i64>,
}

impl MigratableProgram for Incoherent {
    fn name(&self) -> &'static str {
        "incoherent"
    }

    fn setup(&mut self, proc: &mut Process) -> Result<(), MigError> {
        let int = proc.space.types_mut().int();
        let pint = proc.space.types_mut().pointer_to(int);
        proc.define_global("sum", int, 1)?;
        match self.case {
            Case::ReachableDangling | Case::UnreachableDangling => {
                let p = proc.define_global("p", pint, 1)?;
                proc.space.store_ptr(p, BOGUS)?;
            }
            Case::SizeMismatch => {
                let x = proc.space.define_global("x", int, 1)?;
                let info = proc.space.info_at(x).expect("x was just defined");
                let id = LogicalId {
                    group: GROUP_GLOBAL,
                    index: 1,
                };
                proc.msrlt.register_at(id, info.slot, info.size + 8);
            }
        }
        Ok(())
    }

    fn run(&mut self, ctx: &mut MigCtx<'_>) -> Result<Flow, MigError> {
        let int = ctx.proc().space.types_mut().int();
        let globals: Vec<u64> = ctx
            .proc()
            .space
            .block_infos()
            .iter()
            .map(|b| b.addr)
            .collect();
        let f = ctx.enter("main")?;
        let i = ctx.local(f, "i", int, 1)?;
        let mut live = vec![i, globals[0]];
        if self.case != Case::UnreachableDangling {
            live.push(globals[1]);
        }
        let mut iv = 0;
        if ctx.resume_point() == Some(1) {
            ctx.restore_frame(&live)?;
            iv = ctx.proc().space.load_int(i)?;
        }
        while iv < LIMIT {
            ctx.proc().space.store_int(i, iv)?;
            if ctx.poll() {
                ctx.save_frame(1, &live)?;
                return Ok(Flow::Migrate);
            }
            let s = ctx.proc().space.load_int(globals[0])?;
            ctx.proc().space.store_int(globals[0], s + iv)?;
            iv += 1;
        }
        self.result = Some(ctx.proc().space.load_int(globals[0])?);
        ctx.leave(f)?;
        Ok(Flow::Done)
    }

    fn results(&self, _proc: &mut Process) -> Result<Vec<(String, String)>, MigError> {
        Ok(vec![("sum".into(), self.result.unwrap_or(-1).to_string())])
    }
}

fn transports() -> [(&'static str, Transport); 2] {
    let cfg = PipelineConfig {
        chunk_bytes: 16,
        ..PipelineConfig::default()
    };
    [
        ("whole", Transport::Whole),
        ("reliable", Transport::Reliable(cfg, FaultPlan::none())),
    ]
}

fn run(case: Case, transport: Transport, log: &EventLog) -> Result<MigrationRun, MigError> {
    let policy = Migration {
        log: Some(log),
        ..Migration::new(transport)
    };
    migrate(
        || Incoherent { case, result: None },
        Architecture::dec5000(),
        Architecture::sparc20(),
        NetworkModel::ethernet_10(),
        Trigger::AtPollCount(LIMIT as u64 / 2),
        &policy,
    )
}

/// The second global: `p` in the dangling cases, `x` in the size one.
const SECOND: LogicalId = LogicalId {
    group: GROUP_GLOBAL,
    index: 1,
};

/// What `p` holds in the dangling cases.
const DANGLING: RegistryFinding = RegistryFinding::DanglingEdge {
    from: SECOND,
    offset: 0,
    raw: BOGUS,
};

/// The registry audit's findings on the frozen source `run` migrates.
fn audited(case: Case) -> Vec<RegistryFinding> {
    let mut program = Incoherent { case, result: None };
    let trigger = Trigger::AtPollCount(LIMIT as u64 / 2);
    let mut src = run_to_migration(&mut program, Architecture::dec5000(), trigger).unwrap();
    src.preflight_audit().expect("the audit runs").0
}

/// The refusal `case` must meet on every transport: the audit's one
/// finding, `finding`, with the words that name what was found, and what
/// each transport shipped before it.
fn refused(case: Case, finding: RegistryFinding, names: &[&str]) {
    assert_eq!(audited(case), std::slice::from_ref(&finding), "{case:?}");
    for (label, transport) in transports() {
        let log = EventLog::new(Level::Protocol);
        match run(case, transport, &log) {
            Err(MigError::Preflight(m)) => {
                assert_eq!(m, finding.to_string(), "{case:?} {label}");
                for name in names {
                    assert!(m.contains(name), "{case:?} {label}: {m}");
                }
            }
            other => panic!("{case:?} {label}: expected a Preflight refusal, got {other:?}"),
        }
        let dump = log.dump();
        let count = |event: &str| dump.events_of(event).len();
        // No rung of the ladder ran.
        for rung in ["attempt.failed", "resume.attempt", "fallback.reached"] {
            assert_eq!(count(rung), 0, "{case:?} {label}: {rung}");
        }
        assert_eq!(count("phase.tx"), 0, "{case:?} {label}");
        if label == "reliable" {
            // The prefix and the chunk cut from the loop counter crossed.
            assert!(
                count("chunk.sent") >= 2,
                "{case:?}: {}",
                count("chunk.sent")
            );
            assert_eq!(count("chunk.recv"), count("chunk.sent"), "{case:?}");
        }
    }
}

#[test]
fn a_reachable_dangling_pointer_is_refused_by_name_on_both_transports() {
    refused(
        Case::ReachableDangling,
        DANGLING,
        &["0xdead", "unregistered"],
    );
}

#[test]
fn a_size_mismatched_registration_is_refused_by_name_on_both_transports() {
    let mismatch = RegistryFinding::SizeMismatch {
        id: SECOND,
        recorded: 12,
        expected: 4,
    };
    refused(
        Case::SizeMismatch,
        mismatch,
        &["registered as 12 bytes", "the block is 4"],
    );
}

#[test]
fn an_unreachable_dangling_pointer_migrates() {
    assert_eq!(audited(Case::UnreachableDangling), [DANGLING]);
    let want = (0..LIMIT).sum::<i64>().to_string();
    for (label, transport) in transports() {
        let log = EventLog::new(Level::Protocol);
        let run = run(Case::UnreachableDangling, transport, &log)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(run.results[0].1, want, "{label}");
        if let Some(resume) = run.report.resume() {
            assert_eq!(resume.rung, 1, "{label}: {resume:?}");
        }
    }
}
