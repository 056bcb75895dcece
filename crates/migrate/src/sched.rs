//! A checkpointing scheduler — the paper's §5 future work, built on the
//! §3 mechanisms.
//!
//! "Work remains to be done to develop a distributed system which can
//! support network process migration dynamically, transparently, and
//! efficiently. This includes the development of a scheduler which can
//! make optimal decisions on when and where to migrate …"
//!
//! The scheduler runs jobs in *slices*: each slice resumes a job (from
//! scratch or from its last migration image), lets it execute a quantum
//! of poll-points, and then preempts it **by migrating it to nowhere** —
//! the migration image doubles as a checkpoint. Because images are fully
//! machine-independent, rebalancing a job onto a different-architecture
//! machine is the same operation as resuming it locally. This is exactly
//! the paper's observation that data collection/restoration is "a basic
//! component of network process migration" from which schedulers can be
//! composed.

use crate::ctx::MigratableProgram;
use crate::driver::{launch, resume, ResumeFlow};
use crate::process::Trigger;
use crate::MigError;
use hpm_arch::Architecture;
use hpm_net::NetworkModel;
use hpm_obs::{StatField, StatGroup, Tracer};
use std::time::Duration;

/// Factory producing fresh program values for one job (each slice runs a
/// new process of "the same executable").
pub type ProgramFactory = Box<dyn Fn() -> Box<dyn MigratableProgram + Send> + Send>;

enum JobState {
    Fresh,
    Suspended(Vec<u8>),
    Finished(Vec<(String, String)>),
}

/// One schedulable job.
pub struct Job {
    /// Job label (unique per scheduler).
    pub label: String,
    factory: ProgramFactory,
    state: JobState,
    /// Slices executed so far.
    pub slices: u32,
    /// Inter-machine migrations performed on this job.
    pub migrations: u32,
    /// Modeled bytes shipped for this job (checkpoints + rebalances).
    pub bytes_moved: u64,
}

impl Job {
    /// Whether the job has completed.
    pub fn finished(&self) -> bool {
        matches!(self.state, JobState::Finished(_))
    }

    /// Results, once finished.
    pub fn results(&self) -> Option<&[(String, String)]> {
        match &self.state {
            JobState::Finished(r) => Some(r),
            _ => None,
        }
    }
}

/// A machine in the simulated cluster.
pub struct SimMachine {
    /// Machine name.
    pub name: String,
    /// Its architecture (jobs migrate freely across different ones).
    pub arch: Architecture,
    /// Job queue.
    pub jobs: Vec<Job>,
}

impl SimMachine {
    fn unfinished(&self) -> usize {
        self.jobs.iter().filter(|j| !j.finished()).count()
    }
}

/// Aggregate scheduler statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct SchedStats {
    /// Slices executed.
    pub slices: u64,
    /// Checkpoints written (slice preemptions).
    pub checkpoints: u64,
    /// Jobs moved between machines.
    pub rebalances: u64,
    /// Modeled time spent transmitting rebalanced jobs.
    pub tx_time: Duration,
}

impl StatGroup for SchedStats {
    fn group(&self) -> &'static str {
        "sched"
    }

    fn fields(&self) -> Vec<StatField> {
        vec![
            StatField::count("slices", self.slices),
            StatField::count("checkpoints", self.checkpoints),
            StatField::count("rebalances", self.rebalances),
            StatField::duration("tx_time", self.tx_time),
        ]
    }

    fn merge_from(&mut self, other: &Self) {
        self.slices += other.slices;
        self.checkpoints += other.checkpoints;
        self.rebalances += other.rebalances;
        self.tx_time += other.tx_time;
    }
}

/// The checkpointing scheduler.
pub struct Scheduler {
    /// Cluster machines.
    pub machines: Vec<SimMachine>,
    /// Poll-point quantum per slice.
    pub quantum: u64,
    /// Link model used for rebalancing transfers.
    pub link: NetworkModel,
    /// Counters.
    pub stats: SchedStats,
    tracer: Tracer,
}

impl Scheduler {
    /// New scheduler with the given preemption quantum.
    pub fn new(quantum: u64, link: NetworkModel) -> Self {
        Scheduler {
            machines: Vec::new(),
            quantum,
            link,
            stats: SchedStats::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Attach a tracer: every slice becomes a `scheduler.slice` span, and
    /// checkpoints/rebalances become `scheduler.checkpoint` /
    /// `scheduler.rebalance` instants carrying image sizes.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Add a machine; returns its index.
    pub fn add_machine(&mut self, name: &str, arch: Architecture) -> usize {
        self.machines.push(SimMachine {
            name: name.to_string(),
            arch,
            jobs: Vec::new(),
        });
        self.machines.len() - 1
    }

    /// Submit a job to machine `m`.
    pub fn submit(
        &mut self,
        m: usize,
        label: &str,
        factory: impl Fn() -> Box<dyn MigratableProgram + Send> + Send + 'static,
    ) {
        self.machines[m].jobs.push(Job {
            label: label.to_string(),
            factory: Box::new(factory),
            state: JobState::Fresh,
            slices: 0,
            migrations: 0,
            bytes_moved: 0,
        });
    }

    /// Run one slice of one job on machine `arch`, advancing its state:
    /// launch it (or resume it from its last checkpoint image) with the
    /// quantum as its trigger, and checkpoint it again if it freezes.
    fn run_slice(arch: &Architecture, quantum: u64, job: &mut Job) -> Result<(), MigError> {
        job.slices += 1;
        if job.finished() {
            return Ok(());
        }
        let trigger = Trigger::AtLeastPollCount(quantum);
        let mut prog = (job.factory)();
        let flow = match &job.state {
            JobState::Suspended(image) => {
                let off = Tracer::disabled();
                resume(
                    &mut prog,
                    arch.clone(),
                    image,
                    None,
                    Some(trigger),
                    &off,
                    None,
                )?
            }
            _ => launch(&mut prog, arch.clone(), trigger)?,
        };
        job.state = match flow {
            ResumeFlow::Completed(run) => JobState::Finished(run.results),
            ResumeFlow::Frozen(mut src) => {
                let image = src.to_image()?;
                job.bytes_moved += image.len() as u64;
                JobState::Suspended(image)
            }
        };
        Ok(())
    }

    /// One scheduling epoch: every machine runs one slice of each of its
    /// unfinished jobs, then the cluster rebalances.
    pub fn epoch(&mut self) -> Result<(), MigError> {
        let tracer = self.tracer.clone();
        for (mi, m) in self.machines.iter_mut().enumerate() {
            for (ji, job) in m.jobs.iter_mut().enumerate() {
                if !job.finished() {
                    let before = job.bytes_moved;
                    tracer.begin_args(
                        "scheduler.slice",
                        &[("machine", mi as f64), ("job", ji as f64)],
                    );
                    let r = Self::run_slice(&m.arch, self.quantum, job);
                    tracer.end("scheduler.slice");
                    r?;
                    self.stats.slices += 1;
                    if !job.finished() {
                        self.stats.checkpoints += 1;
                        tracer.instant_args(
                            "scheduler.checkpoint",
                            &[
                                ("machine", mi as f64),
                                ("bytes", (job.bytes_moved - before) as f64),
                            ],
                        );
                    }
                }
            }
        }
        self.rebalance();
        Ok(())
    }

    /// Greedy load balancing: move suspended jobs from the most-loaded to
    /// the least-loaded machine while their queue lengths differ by ≥ 2
    /// ("a scheduler which can make optimal decisions on … where to
    /// migrate").
    pub fn rebalance(&mut self) {
        loop {
            let (mut hi, mut lo) = (0usize, 0usize);
            for (i, m) in self.machines.iter().enumerate() {
                if m.unfinished() > self.machines[hi].unfinished() {
                    hi = i;
                }
                if m.unfinished() < self.machines[lo].unfinished() {
                    lo = i;
                }
            }
            if self.machines[hi].unfinished() < self.machines[lo].unfinished() + 2 {
                return;
            }
            // Move one suspended (or fresh) job hi → lo.
            let pos = self.machines[hi].jobs.iter().position(|j| !j.finished());
            let Some(pos) = pos else { return };
            let mut job = self.machines[hi].jobs.remove(pos);
            job.migrations += 1;
            let mut img_bytes = 0u64;
            if let JobState::Suspended(img) = &job.state {
                img_bytes = img.len() as u64;
                self.stats.tx_time += self.link.tx_time(img_bytes);
            }
            self.stats.rebalances += 1;
            self.tracer.instant_args(
                "scheduler.rebalance",
                &[
                    ("from", hi as f64),
                    ("to", lo as f64),
                    ("bytes", img_bytes as f64),
                ],
            );
            self.machines[lo].jobs.push(job);
        }
    }

    /// Run epochs until every job finishes (or the epoch budget runs out).
    pub fn run_to_completion(&mut self, max_epochs: u32) -> Result<(), MigError> {
        for _ in 0..max_epochs {
            if self.machines.iter().all(|m| m.unfinished() == 0) {
                return Ok(());
            }
            self.epoch()?;
        }
        if self.machines.iter().all(|m| m.unfinished() == 0) {
            Ok(())
        } else {
            Err(MigError::Protocol(
                "epoch budget exhausted with jobs unfinished".into(),
            ))
        }
    }

    /// All finished jobs' results, labelled.
    pub fn results(&self) -> Vec<(String, Vec<(String, String)>)> {
        let mut out = Vec::new();
        for m in &self.machines {
            for j in &m.jobs {
                if let Some(r) = j.results() {
                    out.push((j.label.clone(), r.to_vec()));
                }
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_straight;
    use crate::testprog::Summer;

    fn summer(limit: i64) -> Box<dyn MigratableProgram + Send> {
        Box::new(Summer::new(limit))
    }

    #[test]
    fn single_job_runs_in_slices() {
        let mut s = Scheduler::new(100, NetworkModel::instant());
        let m = s.add_machine("m0", Architecture::dec5000());
        s.submit(m, "job", || summer(450));
        s.run_to_completion(50).unwrap();
        let r = s.results();
        assert_eq!(r[0].1[0].1, Summer::expected(450));
        // 450 iterations at quantum 100 → ≥ 4 checkpoints.
        assert!(s.stats.checkpoints >= 4, "{:?}", s.stats);
    }

    #[test]
    fn slices_match_straight_run() {
        let mut p = Summer::new(777);
        let (expect, _) = run_straight(&mut p, Architecture::sparc20()).unwrap();
        let mut s = Scheduler::new(50, NetworkModel::instant());
        let m = s.add_machine("m0", Architecture::sparc20());
        s.submit(m, "job", || summer(777));
        s.run_to_completion(100).unwrap();
        assert_eq!(s.results()[0].1, expect);
    }

    #[test]
    fn rebalancing_moves_jobs_across_heterogeneous_machines() {
        let mut s = Scheduler::new(60, NetworkModel::ethernet_10());
        let m0 = s.add_machine("dec", Architecture::dec5000());
        let _m1 = s.add_machine("sparc", Architecture::sparc20());
        let _m2 = s.add_machine("x64", Architecture::x86_64_sim());
        // All six jobs start on one machine; rebalancing must spread them.
        for k in 0..6 {
            s.submit(m0, &format!("job{k}"), move || summer(300 + k));
        }
        s.run_to_completion(60).unwrap();
        assert!(s.stats.rebalances >= 4, "{:?}", s.stats);
        assert!(s.stats.tx_time > Duration::ZERO);
        for (label, r) in s.results() {
            let k: i64 = label.trim_start_matches("job").parse().unwrap();
            assert_eq!(r[0].1, Summer::expected(300 + k), "{label}");
        }
    }

    #[test]
    fn checkpoint_images_survive_arch_hops() {
        // A job sliced alternately on little- and big-endian machines:
        // every checkpoint crosses the representation boundary.
        let mut s = Scheduler::new(40, NetworkModel::instant());
        let m0 = s.add_machine("dec", Architecture::dec5000());
        s.submit(m0, "hopper", || summer(500));
        for hop in 0..60 {
            if s.machines.iter().all(|m| m.unfinished() == 0) {
                break;
            }
            s.epoch().unwrap();
            // Force the job onto the other machine each epoch.
            if s.machines.len() == 1 {
                s.add_machine("sparc", Architecture::sparc20());
            }
            let from = hop % 2;
            let to = 1 - from;
            if from < s.machines.len() {
                if let Some(pos) = s.machines[from].jobs.iter().position(|j| !j.finished()) {
                    let job = s.machines[from].jobs.remove(pos);
                    s.machines[to].jobs.push(job);
                }
            }
        }
        let r = s.results();
        assert_eq!(r.len(), 1, "job must finish");
        assert_eq!(r[0].1[0].1, Summer::expected(500));
    }
}
