//! Coordinated checkpoint/restart for the stencil recovery stack.
//!
//! Every `checkpoint_every` iterations the application takes a coordinated
//! snapshot: each rank packs its interior (through the interposed
//! `MPI_Pack`, so the same kernels that accelerate the halo exchange also
//! accelerate the snapshot), stages the bytes to the host, frames them
//! with a content checksum, and mirrors the frame at a *buddy* rank. A
//! two-phase commit on the generation number — stage, barrier, commit —
//! guarantees that a rank dying mid-snapshot never yields a torn restore:
//! either every survivor committed the generation, or nobody did and
//! recovery uses the previous one.
//!
//! After a revoke/agree/shrink, survivors re-decompose the grid and
//! rebuild every subdomain from the newest generation *all* survivors
//! committed (a p2p min-agreement over the shrunken communicator), served
//! by a deterministic provider rule: the frame's owner if it survived,
//! else its buddy, else the spill directory on disk.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use mpi_sim::{payload_checksum, FaultInjector, FaultSite, MpiError, MpiResult};

/// Frame magic: `b"TPCKPT1\0"` as a little-endian u64.
pub const FRAME_MAGIC: u64 = u64::from_le_bytes(*b"TPCKPT1\0");

/// Encoded frame header length in bytes (12 little-endian u64 words:
/// magic, generation, epoch, comm_rank, world_rank, dims×3, local×3,
/// payload_len).
pub const HEADER_LEN: usize = 12 * 8;

/// One rank's snapshot of its interior at a checkpoint generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Checkpoint generation this frame belongs to.
    pub generation: u64,
    /// Communicator epoch at snapshot time.
    pub epoch: u64,
    /// The owner's rank in the communicator at snapshot time.
    pub comm_rank: usize,
    /// The owner's immutable world rank.
    pub world_rank: usize,
    /// Process-grid dimensions of the decomposition at snapshot time.
    pub dims: [usize; 3],
    /// Interior extent per rank (same on every rank).
    pub local: [usize; 3],
    /// The packed interior bytes (x fastest, `local[0]·local[1]·local[2]`
    /// f32 cells).
    pub payload: Vec<u8>,
}

impl Frame {
    /// Serialize: header, payload, then a [`payload_checksum`] over both.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len() + 8);
        for word in [
            FRAME_MAGIC,
            self.generation,
            self.epoch,
            self.comm_rank as u64,
            self.world_rank as u64,
            self.dims[0] as u64,
            self.dims[1] as u64,
            self.dims[2] as u64,
            self.local[0] as u64,
            self.local[1] as u64,
            self.local[2] as u64,
            self.payload.len() as u64,
        ] {
            out.extend_from_slice(&word.to_le_bytes());
        }
        out.extend_from_slice(&self.payload);
        let sum = payload_checksum(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Deserialize and verify. Any mismatch — magic, length, checksum — is
    /// an error: a frame that fails verification must never be restored.
    pub fn decode(bytes: &[u8]) -> MpiResult<Frame> {
        let bad = |what: &str| MpiError::Internal(format!("checkpoint frame {what}"));
        if bytes.len() < HEADER_LEN + 8 {
            return Err(bad("too short"));
        }
        let word = |i: usize| -> MpiResult<u64> {
            let w: [u8; 8] = bytes
                .get(i * 8..(i + 1) * 8)
                .and_then(|s| s.try_into().ok())
                .ok_or_else(|| bad("header is truncated"))?;
            Ok(u64::from_le_bytes(w))
        };
        if word(0)? != FRAME_MAGIC {
            return Err(bad("has bad magic"));
        }
        let payload_len = word(11)? as usize;
        if bytes.len() != HEADER_LEN + payload_len + 8 {
            return Err(bad("length does not match its header"));
        }
        let body = &bytes[..HEADER_LEN + payload_len];
        let stored: [u8; 8] = bytes[HEADER_LEN + payload_len..]
            .try_into()
            .map_err(|_| bad("trailer is malformed"))?;
        if payload_checksum(body) != u64::from_le_bytes(stored) {
            return Err(bad("failed checksum verification"));
        }
        Ok(Frame {
            generation: word(1)?,
            epoch: word(2)?,
            comm_rank: word(3)? as usize,
            world_rank: word(4)? as usize,
            dims: [word(5)? as usize, word(6)? as usize, word(7)? as usize],
            local: [word(8)? as usize, word(9)? as usize, word(10)? as usize],
            payload: bytes[HEADER_LEN..HEADER_LEN + payload_len].to_vec(),
        })
    }
}

/// What the communicator looked like when a generation was taken —
/// everything restore needs to map a post-shrink subdomain back to the
/// frame that holds its bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenRecord {
    /// World rank at each communicator rank at snapshot time (so comm rank
    /// `q`'s frame owner is `members[q]`, and its buddy mirror lives at
    /// world rank `members[(q + 1) % members.len()]`).
    pub members: Vec<usize>,
    /// Process-grid dimensions at snapshot time.
    pub dims: [usize; 3],
    /// Interior extent per rank.
    pub local: [usize; 3],
}

/// One committed generation: the record plus the frames this rank holds
/// (its own and its buddy's).
#[derive(Debug, Clone)]
struct GenEntry {
    record: GenRecord,
    /// Frames held in memory, keyed by owner world rank.
    frames: BTreeMap<usize, Frame>,
}

/// Per-rank checkpoint storage with two-phase generation commit.
///
/// `stage` parks a generation as *pending*; `commit` — called only after
/// the snapshot barrier succeeded on every member — promotes it to
/// *committed* (and spills it to disk when a spill directory is set).
/// A failure between the two leaves the pending generation to be dropped
/// by [`CheckpointStore::abort`], so [`CheckpointStore::latest_committed`]
/// never names a generation some survivor lacks... unless the failure hit
/// exactly between two `commit` calls, which the restore-time
/// min-agreement over survivors absorbs.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    pending: Option<(u64, GenEntry)>,
    committed: BTreeMap<u64, GenEntry>,
    spill_dir: Option<PathBuf>,
    next_generation: u64,
}

impl CheckpointStore {
    /// An in-memory-only store.
    pub fn new() -> CheckpointStore {
        CheckpointStore::default()
    }

    /// A store that also spills committed frames to `dir` (one file per
    /// frame), so restore can serve a frame even when both its owner and
    /// its buddy died.
    pub fn with_spill(dir: impl Into<PathBuf>) -> CheckpointStore {
        CheckpointStore {
            spill_dir: Some(dir.into()),
            ..CheckpointStore::default()
        }
    }

    /// The spill directory, if spilling is enabled.
    pub fn spill_dir(&self) -> Option<&Path> {
        self.spill_dir.as_deref()
    }

    /// The generation number the next snapshot will use. Deterministic and
    /// identical on every rank because snapshots are collective.
    pub fn next_generation(&self) -> u64 {
        self.next_generation
    }

    /// Phase one: park `frames` (this rank's own and its buddy's) for
    /// `generation` as pending. Nothing is visible to restore yet.
    pub fn stage(&mut self, generation: u64, record: GenRecord, frames: Vec<Frame>) {
        let frames = frames.into_iter().map(|f| (f.world_rank, f)).collect();
        self.pending = Some((generation, GenEntry { record, frames }));
    }

    /// Drop a pending generation (the snapshot barrier failed — some rank
    /// died mid-snapshot, so *nobody* commits).
    pub fn abort(&mut self) {
        self.pending = None;
    }

    /// Phase two: promote the pending `generation` to committed and spill
    /// it if configured. Errors if no matching generation is pending.
    pub fn commit(&mut self, generation: u64) -> MpiResult<()> {
        self.commit_faulted(generation, None)
    }

    /// [`CheckpointStore::commit`] under fault injection: when the plan's
    /// `spill` site fires for a write, one deterministic byte of the frame
    /// flips on its way to disk. The in-memory copy stays intact — only a
    /// later [`CheckpointStore::load_spilled`] of that file notices, via
    /// the frame checksum, exactly like real silent disk corruption.
    pub fn commit_faulted(
        &mut self,
        generation: u64,
        faults: Option<&FaultInjector>,
    ) -> MpiResult<()> {
        match self.pending.take() {
            Some((g, entry)) if g == generation => {
                if let Some(dir) = &self.spill_dir {
                    std::fs::create_dir_all(dir)
                        .map_err(|e| MpiError::Internal(format!("checkpoint spill dir: {e}")))?;
                    for frame in entry.frames.values() {
                        let path = Self::spill_path(dir, g, frame.world_rank);
                        let mut bytes = frame.encode();
                        let flip = faults.and_then(|inj| inj.flip(FaultSite::Spill, bytes.len()));
                        if let Some((idx, mask)) = flip {
                            bytes[idx] ^= mask;
                        }
                        std::fs::write(&path, bytes).map_err(|e| {
                            MpiError::Internal(format!("checkpoint spill {}: {e}", path.display()))
                        })?;
                    }
                }
                self.committed.insert(g, entry);
                self.next_generation = self.next_generation.max(g + 1);
                Ok(())
            }
            other => {
                self.pending = other;
                Err(MpiError::Internal(format!(
                    "commit of generation {generation} without a matching stage"
                )))
            }
        }
    }

    /// The newest committed generation, if any.
    pub fn latest_committed(&self) -> Option<u64> {
        self.committed.keys().next_back().copied()
    }

    /// The communicator record of a committed generation.
    pub fn record(&self, generation: u64) -> Option<&GenRecord> {
        self.committed.get(&generation).map(|e| &e.record)
    }

    /// An in-memory frame of a committed generation, by owner world rank.
    pub fn frame(&self, generation: u64, world_rank: usize) -> Option<&Frame> {
        self.committed
            .get(&generation)
            .and_then(|e| e.frames.get(&world_rank))
    }

    /// Read a spilled frame back from disk, re-verifying its checksum.
    pub fn load_spilled(&self, generation: u64, world_rank: usize) -> MpiResult<Frame> {
        self.load_spilled_faulted(generation, world_rank, None)
    }

    /// [`CheckpointStore::load_spilled`] under fault injection: when the
    /// plan's `spill` site fires for a read, one deterministic byte flips
    /// between `fs::read` and decode, and the checksum turns it into a
    /// typed error instead of silently restoring bad data.
    pub fn load_spilled_faulted(
        &self,
        generation: u64,
        world_rank: usize,
        faults: Option<&FaultInjector>,
    ) -> MpiResult<Frame> {
        let dir = self.spill_dir.as_ref().ok_or_else(|| {
            MpiError::Internal("no spill directory configured for checkpoint restore".into())
        })?;
        let path = Self::spill_path(dir, generation, world_rank);
        let mut bytes = std::fs::read(&path)
            .map_err(|e| MpiError::Internal(format!("checkpoint read {}: {e}", path.display())))?;
        if let Some((idx, mask)) = faults.and_then(|inj| inj.flip(FaultSite::Spill, bytes.len())) {
            bytes[idx] ^= mask;
        }
        Frame::decode(&bytes)
    }

    fn spill_path(dir: &Path, generation: u64, world_rank: usize) -> PathBuf {
        dir.join(format!("gen{generation:08}_rank{world_rank:04}.ckpt"))
    }
}

/// The deterministic provider rule: which *world rank* serves old comm
/// rank `q`'s frame during restore, given the survivors. The owner if it
/// survived, else the buddy that mirrors it, else `None` (spill or fail).
pub fn provider_for(record: &GenRecord, q: usize, alive: &[usize]) -> Option<usize> {
    let owner = record.members[q];
    if alive.contains(&owner) {
        return Some(owner);
    }
    let buddy = record.members[(q + 1) % record.members.len()];
    if alive.contains(&buddy) {
        return Some(buddy);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(generation: u64, world_rank: usize, fill: u8) -> Frame {
        Frame {
            generation,
            epoch: 0,
            comm_rank: world_rank,
            world_rank,
            dims: [2, 2, 2],
            local: [4, 4, 4],
            payload: vec![fill; 4 * 4 * 4 * 4],
        }
    }

    fn record() -> GenRecord {
        GenRecord {
            members: (0..8).collect(),
            dims: [2, 2, 2],
            local: [4, 4, 4],
        }
    }

    #[test]
    fn frame_roundtrips_byte_exactly() {
        let f = frame(3, 5, 0xAB);
        let enc = f.encode();
        assert_eq!(enc.len(), HEADER_LEN + f.payload.len() + 8);
        assert_eq!(Frame::decode(&enc).unwrap(), f);
    }

    #[test]
    fn frame_rejects_any_flipped_byte() {
        let enc = frame(1, 2, 7).encode();
        // header, payload and trailer corruption must all be caught
        for idx in [0, 8, HEADER_LEN + 10, enc.len() - 1] {
            let mut bad = enc.clone();
            bad[idx] ^= 0x40;
            assert!(Frame::decode(&bad).is_err(), "flip at {idx} undetected");
        }
        assert!(Frame::decode(&enc[..enc.len() - 1]).is_err(), "truncation");
        assert!(Frame::decode(&[]).is_err());
    }

    #[test]
    fn two_phase_commit_is_atomic() {
        let mut store = CheckpointStore::new();
        assert_eq!(store.latest_committed(), None);
        assert_eq!(store.next_generation(), 0);

        store.stage(0, record(), vec![frame(0, 1, 1), frame(0, 2, 2)]);
        // staged ≠ visible
        assert_eq!(store.latest_committed(), None);
        assert!(store.frame(0, 1).is_none());

        store.commit(0).unwrap();
        assert_eq!(store.latest_committed(), Some(0));
        assert_eq!(store.next_generation(), 1);
        assert_eq!(store.frame(0, 1).unwrap().payload[0], 1);
        assert_eq!(store.frame(0, 2).unwrap().payload[0], 2);
        assert!(store.frame(0, 3).is_none());

        // a mid-snapshot failure: stage then abort → prior generation wins
        store.stage(1, record(), vec![frame(1, 1, 9)]);
        store.abort();
        assert_eq!(store.latest_committed(), Some(0));
        // committing an aborted generation is an error
        assert!(store.commit(1).is_err());
    }

    #[test]
    fn spill_roundtrips_and_detects_disk_corruption() {
        let dir = std::env::temp_dir().join(format!("tempi-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = CheckpointStore::with_spill(&dir);
        store.stage(2, record(), vec![frame(2, 4, 0x5A)]);
        store.commit(2).unwrap();

        let loaded = store.load_spilled(2, 4).unwrap();
        assert_eq!(loaded, frame(2, 4, 0x5A));
        assert!(store.load_spilled(2, 5).is_err(), "never spilled");

        // flip one byte on disk: the reload must refuse it
        let path = dir.join("gen00000002_rank0004.ckpt");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HEADER_LEN + 3] ^= 1;
        std::fs::write(&path, bytes).unwrap();
        assert!(store.load_spilled(2, 4).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scripted_write_corruption_is_caught_at_reload() {
        use mpi_sim::{FaultInjector, FaultPlan};
        let dir = std::env::temp_dir().join(format!("tempi-ckpt-wfault-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Two frames spill in world-rank order (BTreeMap), so spill call
        // 0 writes rank 1's frame and call 1 writes rank 2's; the plan
        // corrupts only call 1.
        let inj = FaultInjector::new(&FaultPlan::parse("spill@1").unwrap(), 0);
        let mut store = CheckpointStore::with_spill(&dir);
        store.stage(0, record(), vec![frame(0, 1, 1), frame(0, 2, 2)]);
        store.commit_faulted(0, Some(&inj)).unwrap();

        assert_eq!(store.load_spilled(0, 1).unwrap(), frame(0, 1, 1));
        let err = store.load_spilled(0, 2).unwrap_err();
        assert!(
            err.to_string().contains("checkpoint frame"),
            "corrupted spill must fail frame verification, got: {err}"
        );
        // the in-memory copy is untouched: only the disk byte flipped
        assert_eq!(store.frame(0, 2).unwrap(), &frame(0, 2, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scripted_read_corruption_is_caught_by_the_checksum() {
        use mpi_sim::{FaultInjector, FaultPlan};
        let dir = std::env::temp_dir().join(format!("tempi-ckpt-rfault-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = CheckpointStore::with_spill(&dir);
        store.stage(0, record(), vec![frame(0, 3, 7)]);
        store.commit(0).unwrap(); // clean write: spill call 0 is the read
        let inj = FaultInjector::new(&FaultPlan::parse("spill@0").unwrap(), 0);
        let err = store.load_spilled_faulted(0, 3, Some(&inj)).unwrap_err();
        assert!(err.to_string().contains("checkpoint frame"), "got: {err}");
        // the next read (spill call 1) is clean and verifies again
        assert_eq!(
            store.load_spilled_faulted(0, 3, Some(&inj)).unwrap(),
            frame(0, 3, 7)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn provider_rule_prefers_owner_then_buddy_then_none() {
        let rec = record();
        let all: Vec<usize> = (0..8).collect();
        assert_eq!(provider_for(&rec, 3, &all), Some(3));
        // owner 3 dead → buddy 4 mirrors it
        let no3: Vec<usize> = all.iter().copied().filter(|&r| r != 3).collect();
        assert_eq!(provider_for(&rec, 3, &no3), Some(4));
        // owner and buddy dead → spill territory
        let no34: Vec<usize> = all.iter().copied().filter(|&r| r != 3 && r != 4).collect();
        assert_eq!(provider_for(&rec, 3, &no34), None);
        // buddy wraps around the ring
        let only0: Vec<usize> = vec![0];
        assert_eq!(provider_for(&rec, 7, &only0), Some(0));
    }
}
