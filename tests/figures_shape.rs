//! Shape regression tests: the qualitative findings each paper figure
//! rests on, asserted at small scale so CI catches any calibration or
//! logic change that would break the reproduction's conclusions.

mod common;

use mpi_sim::MpiResult;
use tempi_bench::{Construction, Obj2d, Platform, Side};
use tempi_core::config::{Method, TempiConfig};
use tempi_core::model::SendModel;

// ---- Fig. 6 shapes -------------------------------------------------------

#[test]
fn fig6_commit_slowdown_ordering_mv_op_sp() -> MpiResult<()> {
    let o = Obj2d::strided(1 << 10, 64);
    let slow = |p| {
        o.cell(p, Construction::Subarray)?
            .commit()
            .map(|b| b.slowdown())
    };
    let (mv, op, sp) = (
        slow(Platform::Mvapich)?,
        slow(Platform::OpenMpi)?,
        slow(Platform::Summit)?,
    );
    assert!(mv < op && op < sp, "mv {mv} < op {op} < sp {sp}");
    // the paper's outer envelope: 2.1x .. 11.6x
    assert!(mv > 1.5 && sp < 15.0, "mv {mv}, sp {sp}");
    Ok(())
}

// ---- Fig. 7 shapes -------------------------------------------------------

#[test]
fn fig7_speedup_grows_as_blocks_shrink() -> MpiResult<()> {
    let mut last = 0.0f64;
    for block in [4096usize, 256, 16, 1] {
        let o = Obj2d::strided(1 << 20, block);
        let s = o
            .cell(Platform::Summit, Construction::Hvector)?
            .pack_speedup()?;
        assert!(
            s > last,
            "block {block}: {s} should exceed larger-block speedup {last}"
        );
        last = s;
    }
    Ok(())
}

#[test]
fn fig7_speedup_grows_with_object_size() -> MpiResult<()> {
    let speedup = |total| {
        let cell = Obj2d::strided(total, 16).cell(Platform::Summit, Construction::Vector);
        cell?.pack_speedup()
    };
    let (small, large) = (speedup(1 << 10)?, speedup(1 << 20)?);
    assert!(large > small * 5.0, "1 MiB {large} vs 1 KiB {small}");
    Ok(())
}

#[test]
fn fig7_platform_ordering_spectrum_worst() -> MpiResult<()> {
    let o = Obj2d::strided(1 << 18, 32);
    let speedup = |p| o.cell(p, Construction::Hvector)?.pack_speedup();
    let mv = speedup(Platform::Mvapich)?;
    let op = speedup(Platform::OpenMpi)?;
    let sp = speedup(Platform::Summit)?;
    assert!(sp > op && op > mv, "sp {sp} > op {op} > mv {mv}");
    Ok(())
}

#[test]
fn fig7_contiguous_speedup_near_one() -> MpiResult<()> {
    for platform in [Platform::OpenMpi, Platform::Summit] {
        let o = Obj2d {
            incount: 1,
            block: 1 << 16,
            count: 1,
            stride: 1 << 16,
        };
        let s = o.cell(platform, Construction::Contiguous)?.pack_speedup()?;
        assert!(s > 0.85 && s < 1.5, "{platform:?} contiguous speedup {s}");
    }
    Ok(())
}

#[test]
fn fig7_mvapich_vector_near_one_but_subarray_huge() -> MpiResult<()> {
    let o = Obj2d::strided(1 << 18, 16);
    let speedup = |c| o.cell(Platform::Mvapich, c)?.pack_speedup();
    let vec = speedup(Construction::Vector)?;
    let sub = speedup(Construction::Subarray)?;
    assert!(vec > 0.85 && vec < 1.1, "specialized vector path {vec}");
    assert!(sub > 100.0, "subarray fallback {sub}");
    Ok(())
}

// ---- Fig. 8 / §5 model shapes -------------------------------------------

#[test]
fn fig8_floors() {
    let m = SendModel::summit_internode();
    assert!((m.t_cpu_cpu(1).as_us_f64() - 2.6).abs() < 0.2);
    assert!((m.t_gpu_gpu(1).as_us_f64() - 11.4).abs() < 0.5);
    assert!((m.t_d2h(1).as_us_f64() - 11.0).abs() < 0.5);
}

#[test]
fn fig8_staged_never_wins_anywhere() {
    let m = SendModel::summit_internode();
    for p in 8..27 {
        let bytes = 1usize << p;
        for block in [16usize, 256, 4096] {
            let st = m.t_staged(bytes, block, 4).total();
            let dev = m.t_device(bytes, block, 4).total();
            let osh = m.t_oneshot(bytes, block, 4).total();
            assert!(
                st >= dev.min(osh),
                "staged won at 2^{p} B / {block} B blocks"
            );
        }
    }
}

// ---- Fig. 10 shapes ------------------------------------------------------

#[test]
fn fig10_crossover_oneshot_1mib_device_4mib() {
    let m = SendModel::summit_internode();
    // the figure ranks the paper's three one-piece methods
    let three = [Method::Device, Method::OneShot, Method::Staged];
    let pick = |bytes, block, word| m.choose_among(&three, bytes, block, word, &|_| 1.0).method;
    // large blocks (the regime the paper's figure sweeps)
    assert_eq!(pick(1 << 20, 4096, 8), Method::OneShot);
    assert_eq!(pick(4 << 20, 4096, 8), Method::Device);
    // tiny blocks always device
    assert_eq!(pick(1 << 20, 8, 4), Method::Device);
}

// ---- Fig. 11 shapes ------------------------------------------------------

#[test]
fn fig11_send_speedup_far_below_pack_speedup() -> MpiResult<()> {
    let o = Obj2d::strided(1 << 20, 64).cell(Platform::Summit, Construction::Vector)?;
    let pack = o.pack_speedup()?;
    let t = o.send_pair(&Side::tempi())?;
    let s = o.send_pair(&Side::System)?;
    let send = s.as_ns_f64() / t.as_ns_f64();
    assert!(send > 10.0, "send speedup {send} must still be large");
    assert!(
        send < pack / 2.0,
        "send speedup {send} must sit well below pack speedup {pack} \
         (the un-accelerated contiguous transfer dominates)"
    );
    Ok(())
}

// ---- §8 pipelining shape -------------------------------------------------

#[test]
fn pipelining_beats_all_methods_at_16mib() -> MpiResult<()> {
    let o = Obj2d::strided(16 << 20, 4096).cell(Platform::Summit, Construction::Vector)?;
    let pipe = Side::Tempi(TempiConfig {
        force_method: Some(Method::Pipelined),
        pipeline_chunk: Some(256 << 10),
        ..TempiConfig::default()
    });
    let pipe = o.send_pair(&pipe)?;
    for m in [Method::OneShot, Method::Device, Method::Staged] {
        let t = o.send_pair(&Side::forced(m))?;
        assert!(pipe < t, "pipelined {pipe} must beat {m:?} {t}");
    }
    Ok(())
}
