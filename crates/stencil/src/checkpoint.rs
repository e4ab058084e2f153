//! Coordinated checkpoint/restart for the stencil recovery stack.
//!
//! Every `checkpoint_every` iterations the application takes a coordinated
//! snapshot: each rank packs its interior (through the interposed
//! `MPI_Pack`, so the same kernels that accelerate the halo exchange also
//! accelerate the snapshot), stages the bytes to the host, frames them
//! with a content checksum, and mirrors the frame at a *buddy* rank. The
//! snapshot is part of a round of work that ends in one agreement
//! ([`mpi_sim::RankCtx::agree`]), and a rank commits the generation only
//! when that agreement finds nobody dead and every round clean — so every
//! survivor holds the same committed generations, and a rank dying
//! mid-snapshot never yields a torn restore.
//!
//! After the agreement of a failed round, survivors shrink, re-decompose
//! the grid and rebuild every subdomain from the generation the agreement
//! carried (the minimum newest generation over the members), served by a
//! deterministic provider rule: the frame's owner if it survived, else
//! its buddy, else the spill directory on disk.

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

/// One rank's share of a checkpoint generation: the frames it holds (its
/// own and its buddy's) and the communicator they were taken on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// The generation the frames belong to.
    pub generation: u64,
    /// The communicator at snapshot time.
    pub record: GenRecord,
    /// This rank's own frame and its ring predecessor's mirror (in
    /// world-rank order once committed).
    pub frames: Vec<Frame>,
}

/// Per-rank checkpoint storage: the committed generations, each spilled
/// to disk as it commits when a spill directory is set. Callers commit
/// only after a clean agreement, so [`CheckpointStore::latest_committed`]
/// names the same generation on every survivor.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    committed: BTreeMap<u64, Snapshot>,
    spill_dir: Option<PathBuf>,
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

    /// The generation number the next snapshot will use: identical on
    /// every survivor, because they all commit the same generations.
    pub fn next_generation(&self) -> u64 {
        self.latest_committed().map_or(0, |g| g + 1)
    }

    /// Commit a snapshot's generation and spill its frames if configured,
    /// in world-rank order. When the plan's `spill` site fires for a write,
    /// one deterministic byte of the frame flips on its way to disk. The
    /// in-memory copy stays intact — only a later
    /// [`CheckpointStore::load_spilled`] of that file notices, via the
    /// frame checksum, exactly like real silent disk corruption.
    pub fn commit(
        &mut self,
        mut snapshot: Snapshot,
        faults: Option<&FaultInjector>,
    ) -> MpiResult<()> {
        snapshot.frames.sort_by_key(|f| f.world_rank);
        if let Some(dir) = &self.spill_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| MpiError::Internal(format!("checkpoint spill dir: {e}")))?;
            for frame in &snapshot.frames {
                let path = Self::spill_path(dir, snapshot.generation, frame.world_rank);
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
        self.committed.insert(snapshot.generation, snapshot);
        Ok(())
    }

    /// The newest committed generation, if any.
    pub fn latest_committed(&self) -> Option<u64> {
        self.committed.keys().next_back().copied()
    }

    /// The communicator record of a committed generation.
    pub fn record(&self, generation: u64) -> Option<&GenRecord> {
        self.committed.get(&generation).map(|s| &s.record)
    }

    /// An in-memory frame of a committed generation, by owner world rank.
    pub fn frame(&self, generation: u64, world_rank: usize) -> Option<&Frame> {
        let frames = &self.committed.get(&generation)?.frames;
        frames.iter().find(|f| f.world_rank == world_rank)
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

    fn snapshot(generation: u64, frames: Vec<Frame>) -> Snapshot {
        Snapshot {
            generation,
            record: record(),
            frames,
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
    fn commit_makes_a_generation_and_its_frames_visible() {
        let mut store = CheckpointStore::new();
        assert_eq!(store.latest_committed(), None);
        assert_eq!(store.next_generation(), 0);

        let frames = vec![frame(0, 1, 1), frame(0, 2, 2)];
        store.commit(snapshot(0, frames), None).unwrap();
        assert_eq!(store.latest_committed(), Some(0));
        assert_eq!(store.next_generation(), 1);
        assert_eq!(store.record(0), Some(&record()));
        assert_eq!(store.frame(0, 1).unwrap().payload[0], 1);
        assert_eq!(store.frame(0, 2).unwrap().payload[0], 2);
        assert!(store.frame(0, 3).is_none());
        assert!(store.record(1).is_none());

        // a newer generation leaves the older one restorable
        store
            .commit(snapshot(1, vec![frame(1, 1, 9)]), None)
            .unwrap();
        assert_eq!(store.latest_committed(), Some(1));
        assert_eq!(store.frame(0, 1).unwrap().payload[0], 1);
        assert_eq!(store.frame(1, 1).unwrap().payload[0], 9);
    }

    #[test]
    fn spill_roundtrips_and_detects_disk_corruption() {
        let dir = std::env::temp_dir().join(format!("tempi-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = CheckpointStore::with_spill(&dir);
        store
            .commit(snapshot(2, vec![frame(2, 4, 0x5A)]), None)
            .unwrap();

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
        let frames = vec![frame(0, 1, 1), frame(0, 2, 2)];
        store.commit(snapshot(0, frames), Some(&inj)).unwrap();

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
        // clean write: spill call 0 is the read
        store
            .commit(snapshot(0, vec![frame(0, 3, 7)]), None)
            .unwrap();
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
