//! Reference CPU pack/unpack over host byte slices.
//!
//! This is the semantics oracle: `MPI_Pack`/`MPI_Unpack` on host buffers is
//! implemented by walking the datatype's [`Segment`] list in typemap order.
//! Every GPU packing path in the repository (TEMPI's kernels, the vendor
//! baselines, the DMA path) is tested against this implementation.

use super::typemap::{segments, Segment};
use super::{Datatype, TypeRegistry};
use crate::error::{MpiError, MpiResult};

/// Bytes required to pack `incount` items of `dt` (`MPI_Pack_size`).
pub fn pack_size(reg: &TypeRegistry, incount: usize, dt: Datatype) -> MpiResult<usize> {
    Ok(reg.size(dt)? as usize * incount)
}

fn src_range(
    origin: i64,
    seg_off: i64,
    len: u64,
    buf_len: usize,
) -> MpiResult<std::ops::Range<usize>> {
    let start = origin + seg_off;
    if start < 0 {
        return Err(MpiError::InvalidArg(format!(
            "datatype reaches {start} bytes before the start of the buffer"
        )));
    }
    let start = start as usize;
    let end = start + len as usize;
    if end > buf_len {
        return Err(MpiError::BufferTooSmall {
            required: end,
            available: buf_len,
            envelope: None,
        });
    }
    Ok(start..end)
}

/// Pack `incount` items of `dt` from `inbuf` (item `i` at byte
/// `origin + i × extent(dt)`) into `outbuf` starting at `*position`.
/// Advances `*position` by the packed size, like `MPI_Pack`.
pub fn pack(
    reg: &TypeRegistry,
    inbuf: &[u8],
    origin: i64,
    incount: usize,
    dt: Datatype,
    outbuf: &mut [u8],
    position: &mut usize,
) -> MpiResult<()> {
    let segs = segments(reg, dt)?;
    pack_with_segments(reg, &segs, inbuf, origin, incount, dt, outbuf, position)
}

/// Pack with a precomputed segment list (hot loops reuse the list).
#[allow(clippy::too_many_arguments)]
pub fn pack_with_segments(
    reg: &TypeRegistry,
    segs: &[Segment],
    inbuf: &[u8],
    origin: i64,
    incount: usize,
    dt: Datatype,
    outbuf: &mut [u8],
    position: &mut usize,
) -> MpiResult<()> {
    let (_, extent) = reg.extent(dt)?;
    let total = pack_size(reg, incount, dt)?;
    if *position + total > outbuf.len() {
        return Err(MpiError::BufferTooSmall {
            required: *position + total,
            available: outbuf.len(),
            envelope: reg.get_envelope(dt).ok(),
        });
    }
    let mut pos = *position;
    for i in 0..incount {
        let item_origin = origin + i as i64 * extent;
        for seg in segs {
            let r = src_range(item_origin, seg.off, seg.len, inbuf.len())?;
            outbuf[pos..pos + seg.len as usize].copy_from_slice(&inbuf[r]);
            pos += seg.len as usize;
        }
    }
    *position = pos;
    Ok(())
}

/// Unpack from `inbuf` starting at `*position` into `outcount` items of
/// `dt` in `outbuf` (item `i` at byte `origin + i × extent(dt)`).
/// Advances `*position`, like `MPI_Unpack`.
pub fn unpack(
    reg: &TypeRegistry,
    inbuf: &[u8],
    position: &mut usize,
    outbuf: &mut [u8],
    origin: i64,
    outcount: usize,
    dt: Datatype,
) -> MpiResult<()> {
    let segs = segments(reg, dt)?;
    unpack_with_segments(reg, &segs, inbuf, position, outbuf, origin, outcount, dt)
}

/// Unpack with a precomputed segment list.
#[allow(clippy::too_many_arguments)]
pub fn unpack_with_segments(
    reg: &TypeRegistry,
    segs: &[Segment],
    inbuf: &[u8],
    position: &mut usize,
    outbuf: &mut [u8],
    origin: i64,
    outcount: usize,
    dt: Datatype,
) -> MpiResult<()> {
    let (_, extent) = reg.extent(dt)?;
    let total = pack_size(reg, outcount, dt)?;
    if *position + total > inbuf.len() {
        return Err(MpiError::BufferTooSmall {
            required: *position + total,
            available: inbuf.len(),
            envelope: reg.get_envelope(dt).ok(),
        });
    }
    let mut pos = *position;
    for i in 0..outcount {
        let item_origin = origin + i as i64 * extent;
        for seg in segs {
            let r = src_range(item_origin, seg.off, seg.len, outbuf.len())?;
            outbuf[r].copy_from_slice(&inbuf[pos..pos + seg.len as usize]);
            pos += seg.len as usize;
        }
    }
    *position = pos;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::registry::consts::*;
    use super::super::Order;
    use super::*;
    use crate::{RankCtx, WorldConfig};

    /// A rank to build types through.
    fn rank() -> RankCtx {
        RankCtx::standalone(&WorldConfig::summit(1))
    }

    fn fill(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn pack_contiguous_is_memcpy() {
        let mut ctx = rank();
        let t = ctx.type_contiguous(16, MPI_BYTE).unwrap();
        let r = ctx.registry().read();
        let src = fill(16);
        let mut dst = vec![0u8; 16];
        let mut pos = 0;
        pack(&r, &src, 0, 1, t, &mut dst, &mut pos).unwrap();
        assert_eq!(pos, 16);
        assert_eq!(dst, src);
    }

    #[test]
    fn pack_vector_gathers_blocks() {
        let mut ctx = rank();
        // 3 blocks of 2 bytes, stride 4 bytes
        let t = ctx.type_vector(3, 2, 4, MPI_BYTE).unwrap();
        let r = ctx.registry().read();
        let src = fill(12);
        let mut dst = vec![0u8; 6];
        let mut pos = 0;
        pack(&r, &src, 0, 1, t, &mut dst, &mut pos).unwrap();
        assert_eq!(dst, vec![0, 1, 4, 5, 8, 9]);
    }

    #[test]
    fn unpack_inverts_pack() {
        let mut ctx = rank();
        let t = ctx
            .type_create_subarray(&[8, 8], &[3, 4], &[2, 1], Order::C, MPI_BYTE)
            .unwrap();
        let r = ctx.registry().read();
        let src = fill(64);
        let size = pack_size(&r, 1, t).unwrap();
        let mut packed = vec![0u8; size];
        let mut pos = 0;
        pack(&r, &src, 0, 1, t, &mut packed, &mut pos).unwrap();
        assert_eq!(pos, 12);

        let mut dst = vec![0xFFu8; 64];
        let mut pos = 0;
        unpack(&r, &packed, &mut pos, &mut dst, 0, 1, t).unwrap();
        // unpacked positions match source; others untouched
        for row in 0..3 {
            for col in 0..4 {
                let off = (2 + row) * 8 + 1 + col;
                assert_eq!(dst[off], src[off], "byte {off}");
            }
        }
        assert_eq!(dst[0], 0xFF);
        assert_eq!(dst.iter().filter(|&&b| b != 0xFF).count(), 12);
    }

    #[test]
    fn incount_packs_repeated_items_at_extent() {
        let mut ctx = rank();
        // vector extent: (2-1)*4+2 = 6 bytes
        let t = ctx.type_vector(2, 2, 4, MPI_BYTE).unwrap();
        let r = ctx.registry().read();
        let src = fill(32);
        let mut dst = vec![0u8; 16];
        let mut pos = 0;
        pack(&r, &src, 0, 2, t, &mut dst, &mut pos).unwrap();
        // item 0 at origin 0: bytes 0,1,4,5 ; item 1 at origin 6: 6,7,10,11
        assert_eq!(&dst[..8], &[0, 1, 4, 5, 6, 7, 10, 11]);
        assert_eq!(pos, 8);
    }

    #[test]
    fn position_appends() {
        let mut ctx = rank();
        let t = ctx.type_contiguous(4, MPI_BYTE).unwrap();
        let r = ctx.registry().read();
        let src = fill(4);
        let mut dst = vec![0u8; 12];
        let mut pos = 4;
        pack(&r, &src, 0, 1, t, &mut dst, &mut pos).unwrap();
        assert_eq!(pos, 8);
        assert_eq!(&dst[4..8], &src[..]);
        assert_eq!(&dst[..4], &[0; 4]);
    }

    #[test]
    fn buffer_too_small_detected() {
        let mut ctx = rank();
        let t = ctx.type_contiguous(16, MPI_BYTE).unwrap();
        let r = ctx.registry().read();
        let src = fill(16);
        let mut dst = vec![0u8; 8];
        let mut pos = 0;
        assert!(matches!(
            pack(&r, &src, 0, 1, t, &mut dst, &mut pos),
            Err(MpiError::BufferTooSmall {
                required: 16,
                available: 8,
                ..
            })
        ));
        // input buffer shorter than the type's reach
        let short = fill(8);
        let mut dst = vec![0u8; 16];
        assert!(matches!(
            pack(&r, &short, 0, 1, t, &mut dst, &mut pos),
            Err(MpiError::BufferTooSmall { .. })
        ));
    }

    #[test]
    fn negative_reach_detected() {
        let mut ctx = rank();
        let t = ctx.type_create_hindexed(&[1], &[-4], MPI_INT).unwrap();
        let r = ctx.registry().read();
        let src = fill(16);
        let mut dst = vec![0u8; 4];
        let mut pos = 0;
        assert!(matches!(
            pack(&r, &src, 0, 1, t, &mut dst, &mut pos),
            Err(MpiError::InvalidArg(_))
        ));
        // with origin shifted into range it works
        let mut pos = 0;
        pack(&r, &src, 8, 1, t, &mut dst, &mut pos).unwrap();
        assert_eq!(dst, &src[4..8]);
    }

    #[test]
    fn pack_size_matches_type_size() {
        let mut ctx = rank();
        let t = ctx.type_vector(13, 100, 128, MPI_FLOAT).unwrap();
        let r = ctx.registry().read();
        assert_eq!(pack_size(&r, 3, t).unwrap(), 3 * 5200);
    }

    #[test]
    fn hindexed_packs_in_typemap_order() {
        let mut ctx = rank();
        let t = ctx
            .type_create_hindexed(&[2, 2], &[8, 0], MPI_BYTE)
            .unwrap();
        let r = ctx.registry().read();
        let src = fill(16);
        let mut dst = vec![0u8; 4];
        let mut pos = 0;
        pack(&r, &src, 0, 1, t, &mut dst, &mut pos).unwrap();
        // block at 8 comes first in the typemap
        assert_eq!(dst, vec![8, 9, 0, 1]);
    }
}
