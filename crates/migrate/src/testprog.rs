//! The workload-free program the unit tests migrate.

use crate::ctx::{Flow, MigCtx, MigratableProgram};
use crate::process::Process;
use crate::MigError;
use std::sync::Arc;

/// Poll-point of [`Summer`]'s loop.
pub(crate) const PP_LOOP: u32 = 1;

/// A minimal migratable program: sum `i % 3` over `0..limit` with one
/// local, one global accumulator, polling every iteration.
pub(crate) struct Summer {
    pub limit: i64,
    pub result: Option<i64>,
    /// Called just before the poll of iteration `.0` (the external-request
    /// tests rendezvous with their scheduler here).
    pub before_poll: Option<(i64, Arc<dyn Fn() + Send + Sync>)>,
    /// Die as soon as a destination tries to resume: the chunk stream is
    /// abandoned mid-flight while the source is still collecting.
    pub poisoned_resume: bool,
}

impl Summer {
    pub fn new(limit: i64) -> Self {
        Summer {
            limit,
            result: None,
            before_poll: None,
            poisoned_resume: false,
        }
    }

    /// What [`Summer::new`]`(limit)` reports as its `sum`.
    pub fn expected(limit: i64) -> String {
        (0..limit).map(|i| i % 3).sum::<i64>().to_string()
    }
}

impl MigratableProgram for Summer {
    fn name(&self) -> &'static str {
        "summer"
    }

    fn setup(&mut self, proc: &mut Process) -> Result<(), MigError> {
        let int = proc.space.types_mut().int();
        proc.define_global("acc", int, 1)?;
        Ok(())
    }

    fn run(&mut self, ctx: &mut MigCtx<'_>) -> Result<Flow, MigError> {
        let int = ctx.proc().space.types_mut().int();
        let acc = ctx.proc().space.block_infos()[0].addr;
        let f = ctx.enter("main")?;
        let i = ctx.local(f, "i", int, 1)?;
        let live = [i, acc];
        let mut iv = 0;
        if ctx.resume_point() == Some(PP_LOOP) {
            if self.poisoned_resume {
                return Err(MigError::Protocol("poisoned resume".into()));
            }
            ctx.restore_frame(&live)?;
            iv = ctx.proc().space.load_int(i)?;
        }
        while iv < self.limit {
            ctx.proc().space.store_int(i, iv)?;
            if let Some((_, hook)) = self.before_poll.as_ref().filter(|(at, _)| *at == iv) {
                hook();
            }
            if ctx.poll() {
                ctx.save_frame(PP_LOOP, &live)?;
                return Ok(Flow::Migrate);
            }
            let a = ctx.proc().space.load_int(acc)?;
            // acc is a C int: keep the sum 32-bit-safe.
            ctx.proc().space.store_int(acc, a + iv % 3)?;
            iv += 1;
        }
        self.result = Some(ctx.proc().space.load_int(acc)?);
        ctx.leave(f)?;
        Ok(Flow::Done)
    }

    fn results(&self, _proc: &mut Process) -> Result<Vec<(String, String)>, MigError> {
        Ok(vec![("sum".into(), self.result.unwrap_or(-1).to_string())])
    }
}
