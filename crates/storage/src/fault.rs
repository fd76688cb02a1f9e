//! Deterministic fault injection for the durability layer.
//!
//! Crash-consistency claims are only as good as the failures they were
//! tested against, and real disks fail in undramatic, hard-to-reproduce
//! ways: a write that persists only its first k bytes, a read interrupted
//! by a signal, a full volume, a flipped bit. This module makes those
//! failures *scriptable*:
//!
//! * a [`FaultPlan`] is an explicit schedule of `(operation index, fault)`
//!   pairs — built by hand for targeted tests, or seeded via
//!   [`FaultPlan::seeded`] for randomized sweeps that replay exactly from
//!   `(seed, op count)`;
//! * [`FaultFs`] wraps any [`Fs`] and fires the plan on the matching
//!   operation (the WAL and snapshot-rotation paths run entirely through
//!   `Fs`, so every durable byte is interceptable).
//!
//! Faults come in two severities. *Transient* faults ([`FaultKind::FailOnce`],
//! [`FaultKind::ShortRead`]) return an [`io::ErrorKind::Interrupted`]-class
//! error exactly once; the [`RetryPolicy`](crate::fsio::RetryPolicy) in the
//! durable path is expected to absorb them. *Persistent* faults
//! ([`FaultKind::TornWrite`], [`FaultKind::NoSpace`], [`FaultKind::BitFlip`])
//! model real damage: a torn write leaves a prefix of the data on disk and
//! fails, a full disk fails without side effects, a bit flip silently
//! corrupts what a read returns.

use crate::fsio::Fs;
use parking_lot::Mutex;
use std::io;
use std::path::{Path, PathBuf};

/// One injectable failure mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultKind {
    /// A write/append persists only its first `keep` payload bytes, then
    /// fails — the on-disk signature of a crash or power cut mid-write.
    /// Persistent: retrying cannot un-tear it (the wrapped path must roll
    /// back or leave the tail for replay to repair).
    TornWrite {
        /// Payload bytes that reach the file before the failure.
        keep: usize,
    },
    /// A read is interrupted before completing. Transient: the next
    /// attempt succeeds, so a bounded retry absorbs it.
    ShortRead,
    /// The volume is full: the operation fails with no side effects.
    /// Persistent — retrying a full disk in a loop helps nobody.
    NoSpace,
    /// A read returns its data with one bit flipped at payload offset
    /// `byte % len` — silent corruption that only checksums can catch.
    BitFlip {
        /// Byte offset (reduced modulo the payload length) to flip.
        byte: usize,
        /// Bit (0–7) within that byte.
        bit: u8,
    },
    /// The operation fails once with a transient error, then the fault is
    /// spent and the retry succeeds.
    FailOnce,
}

impl FaultKind {
    /// True when a bounded retry is expected to absorb this fault.
    pub fn is_transient(self) -> bool {
        matches!(self, FaultKind::ShortRead | FaultKind::FailOnce)
    }
}

/// A fault armed to fire at one specific operation index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFault {
    /// Zero-based index (per wrapper) of the operation the fault hits.
    pub op: u64,
    /// What happens to that operation.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults.
///
/// The plan is consumed as operations execute: each scheduled fault fires
/// at most once, at exactly its operation index. Two wrappers built from
/// the same plan over the same operation sequence fail identically — the
/// property the crash-consistency proptests lean on.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// A plan that never fires.
    pub fn none() -> Self {
        Self::default()
    }

    /// An explicit schedule.
    pub fn new(faults: Vec<ScheduledFault>) -> Self {
        Self { faults }
    }

    /// One fault at one operation.
    pub fn single(op: u64, kind: FaultKind) -> Self {
        Self {
            faults: vec![ScheduledFault { op, kind }],
        }
    }

    /// A pseudo-random schedule of `count` faults over the first `ops`
    /// operations, fully determined by `seed`. Uses a splitmix64 stream —
    /// no dependency on the workspace's vendored `rand`, so the storage
    /// crate stays dependency-light and the sequence is stable forever.
    pub fn seeded(seed: u64, ops: u64, count: usize) -> Self {
        let mut state = seed;
        let mut next = move || -> u64 {
            // splitmix64 (public-domain constants)
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut faults = Vec::with_capacity(count);
        for _ in 0..count {
            let op = if ops == 0 { 0 } else { next() % ops };
            let kind = match next() % 5 {
                0 => FaultKind::TornWrite {
                    keep: (next() % 64) as usize,
                },
                1 => FaultKind::ShortRead,
                2 => FaultKind::NoSpace,
                3 => FaultKind::BitFlip {
                    byte: (next() % 4096) as usize,
                    bit: (next() % 8) as u8,
                },
                _ => FaultKind::FailOnce,
            };
            faults.push(ScheduledFault { op, kind });
        }
        Self { faults }
    }

    /// Removes and returns the fault scheduled for operation `op`, if any.
    fn take(&mut self, op: u64) -> Option<FaultKind> {
        let i = self.faults.iter().position(|f| f.op == op)?;
        Some(self.faults.remove(i).kind)
    }
}

#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    ops: u64,
    fired: Vec<(u64, FaultKind)>,
}

impl FaultState {
    /// Advances the operation counter and arms the matching fault, if any.
    fn next_op(&mut self) -> Option<FaultKind> {
        let op = self.ops;
        self.ops += 1;
        let kind = self.plan.take(op)?;
        self.fired.push((op, kind));
        Some(kind)
    }
}

fn transient_err(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::Interrupted, format!("injected: {what}"))
}

fn no_space_err() -> io::Error {
    io::Error::new(
        io::ErrorKind::WriteZero,
        "injected: no space left on device",
    )
}

fn flip(mut data: Vec<u8>, byte: usize, bit: u8) -> Vec<u8> {
    if !data.is_empty() {
        let i = byte % data.len();
        data[i] ^= 1 << (bit & 7);
    }
    data
}

/// An [`Fs`] wrapper that fires a [`FaultPlan`] on the matching operations.
///
/// Every trait call counts as one operation (in call order), whether or
/// not a fault is scheduled for it; the shared counter is what makes a
/// plan's "operation 7" well-defined. Faults map onto operations by what
/// they can physically affect — a `TornWrite` scheduled on a read fails
/// it transiently instead, keeping seeded plans meaningful on any
/// operation mix.
#[derive(Debug)]
pub struct FaultFs<F: Fs> {
    inner: F,
    state: Mutex<FaultState>,
}

impl<F: Fs> FaultFs<F> {
    /// Wraps `inner`, arming `plan`.
    pub fn new(inner: F, plan: FaultPlan) -> Self {
        Self {
            inner,
            state: Mutex::new(FaultState {
                plan,
                ops: 0,
                fired: Vec::new(),
            }),
        }
    }

    /// The wrapped filesystem.
    pub fn inner(&self) -> &F {
        &self.inner
    }

    /// Operations observed so far.
    pub fn ops(&self) -> u64 {
        self.state.lock().ops
    }

    /// The faults that actually fired, as `(operation index, kind)`.
    pub fn fired(&self) -> Vec<(u64, FaultKind)> {
        self.state.lock().fired.clone()
    }

    /// Replaces the armed plan (the operation counter keeps running).
    pub fn set_plan(&self, plan: FaultPlan) {
        self.state.lock().plan = plan;
    }

    fn arm(&self) -> Option<FaultKind> {
        self.state.lock().next_op()
    }
}

impl<F: Fs> Fs for FaultFs<F> {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self.arm() {
            Some(FaultKind::BitFlip { byte, bit }) => Ok(flip(self.inner.read(path)?, byte, bit)),
            Some(FaultKind::ShortRead | FaultKind::FailOnce) => Err(transient_err("short read")),
            Some(FaultKind::TornWrite { .. } | FaultKind::NoSpace) | None => self.inner.read(path),
        }
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<u64> {
        match self.arm() {
            Some(FaultKind::TornWrite { keep }) => {
                let keep = keep.min(data.len());
                let at = self.inner.append(path, &data[..keep])?;
                Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    format!(
                        "injected: torn append after {keep} of {} bytes at {at}",
                        data.len()
                    ),
                ))
            }
            Some(FaultKind::NoSpace) => Err(no_space_err()),
            Some(FaultKind::ShortRead | FaultKind::FailOnce) => {
                Err(transient_err("append interrupted"))
            }
            Some(FaultKind::BitFlip { byte, bit }) => {
                self.inner.append(path, &flip(data.to_vec(), byte, bit))
            }
            None => self.inner.append(path, data),
        }
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        match self.arm() {
            Some(FaultKind::TornWrite { keep }) => {
                let keep = keep.min(data.len());
                self.inner.write(path, &data[..keep])?;
                Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    format!("injected: torn write after {keep} of {} bytes", data.len()),
                ))
            }
            Some(FaultKind::NoSpace) => Err(no_space_err()),
            Some(FaultKind::ShortRead | FaultKind::FailOnce) => {
                Err(transient_err("write interrupted"))
            }
            Some(FaultKind::BitFlip { byte, bit }) => {
                self.inner.write(path, &flip(data.to_vec(), byte, bit))
            }
            None => self.inner.write(path, data),
        }
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        match self.arm() {
            Some(FaultKind::NoSpace) => Err(no_space_err()),
            Some(FaultKind::ShortRead | FaultKind::FailOnce) => {
                Err(transient_err("sync interrupted"))
            }
            _ => self.inner.sync(path),
        }
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        match self.arm() {
            Some(FaultKind::ShortRead | FaultKind::FailOnce) => {
                Err(transient_err("dir sync interrupted"))
            }
            _ => self.inner.sync_dir(dir),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.arm() {
            Some(FaultKind::NoSpace) => Err(no_space_err()),
            Some(FaultKind::ShortRead | FaultKind::FailOnce) => {
                Err(transient_err("rename interrupted"))
            }
            _ => self.inner.rename(from, to),
        }
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        match self.arm() {
            Some(FaultKind::ShortRead | FaultKind::FailOnce) => {
                Err(transient_err("remove interrupted"))
            }
            _ => self.inner.remove(path),
        }
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        match self.arm() {
            Some(FaultKind::ShortRead | FaultKind::FailOnce) => {
                Err(transient_err("list interrupted"))
            }
            _ => self.inner.list(dir),
        }
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        match self.arm() {
            Some(FaultKind::ShortRead | FaultKind::FailOnce) => {
                Err(transient_err("truncate interrupted"))
            }
            _ => self.inner.truncate(path, len),
        }
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        match self.arm() {
            Some(FaultKind::ShortRead | FaultKind::FailOnce) => {
                Err(transient_err("stat interrupted"))
            }
            _ => self.inner.len(path),
        }
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        match self.arm() {
            Some(FaultKind::NoSpace) => Err(no_space_err()),
            Some(FaultKind::ShortRead | FaultKind::FailOnce) => {
                Err(transient_err("mkdir interrupted"))
            }
            _ => self.inner.create_dir_all(dir),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsio::{RetryPolicy, StdFs};

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pv_fault_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d.join("f")
    }

    #[test]
    fn seeded_plans_replay_identically() {
        let a = FaultPlan::seeded(42, 100, 8);
        let b = FaultPlan::seeded(42, 100, 8);
        assert_eq!(a.faults, b.faults);
        let c = FaultPlan::seeded(43, 100, 8);
        assert_ne!(a.faults, c.faults, "different seeds, different plans");
        assert!(a.faults.iter().all(|f| f.op < 100));
    }

    #[test]
    fn torn_write_leaves_exact_prefix() {
        let p = tmp("torn");
        let fs = FaultFs::new(
            StdFs,
            FaultPlan::single(0, FaultKind::TornWrite { keep: 3 }),
        );
        let err = fs.append(&p, b"abcdef").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert_eq!(StdFs.read(&p).unwrap(), b"abc");
        assert_eq!(fs.fired().len(), 1);
        // The fault is spent: the next append succeeds.
        fs.append(&p, b"XYZ").unwrap();
        assert_eq!(StdFs.read(&p).unwrap(), b"abcXYZ");
    }

    #[test]
    fn transient_faults_are_absorbed_by_retry() {
        let p = tmp("transient");
        let fs = FaultFs::new(
            StdFs,
            FaultPlan::new(vec![
                ScheduledFault {
                    op: 0,
                    kind: FaultKind::FailOnce,
                },
                ScheduledFault {
                    op: 1,
                    kind: FaultKind::ShortRead,
                },
            ]),
        );
        let retry = RetryPolicy {
            max_retries: 2,
            backoff: std::time::Duration::ZERO,
        };
        retry.run(|| fs.append(&p, b"data")).unwrap();
        assert_eq!(retry.run(|| fs.read(&p)).unwrap(), b"data");
        assert_eq!(fs.fired().len(), 2);
    }

    #[test]
    fn no_space_is_persistent() {
        let p = tmp("enospc");
        let fs = FaultFs::new(StdFs, FaultPlan::single(0, FaultKind::NoSpace));
        let err = RetryPolicy::default()
            .run(|| fs.append(&p, b"data"))
            .unwrap_err();
        assert!(err.to_string().contains("no space"));
        assert_eq!(fs.ops(), 1, "persistent errors are not retried");
    }

    #[test]
    fn bit_flip_corrupts_reads_silently() {
        let p = tmp("flip");
        StdFs.write(&p, &[0u8; 8]).unwrap();
        let fs = FaultFs::new(
            StdFs,
            FaultPlan::single(0, FaultKind::BitFlip { byte: 3, bit: 2 }),
        );
        assert_eq!(fs.read(&p).unwrap()[3], 0b100);
        // Spent: clean on the next read.
        assert_eq!(fs.read(&p).unwrap(), [0u8; 8]);
    }
}
