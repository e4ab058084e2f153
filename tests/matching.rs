//! MPI's point-to-point matching rules, checked over generated programs:
//! every message is received exactly once, two messages from one sender to
//! one receiver with one tag match in the order they were posted (MPI-3.1
//! §3.5), and a program replays its matches and clocks exactly.
//!
//! A program gives each rank a list of sends, host or device, each after a
//! compute gap. A rank posts its sends, then receives everything sent to
//! it: each receive names the source, the tag, both or neither of some
//! message still due, and one in three is a probe followed by a receive of
//! what it found. The receiver draws its choices from its own seeded
//! stream, so a choice depends only on the program and on what the earlier
//! receives returned, and every receive has a message due that it matches.

mod common;

use common::{for_each_case, Rng};
use gpu_sim::{GpuPtr, SimTime};
use mpi_sim::{MpiResult, RankCtx, World, WorldConfig};

/// The most bytes one message carries.
const MAX_LEN: usize = 8 + 4096;

/// One send of a program.
#[derive(Debug, Clone, Copy)]
struct Post {
    dest: usize,
    tag: i32,
    /// At least the 8 bytes that name the sender and its post.
    len: usize,
    device: bool,
    /// Compute time before the send.
    gap_ns: u64,
}

/// Each rank's sends, in posting order, and the seed of its receives.
#[derive(Debug)]
struct Program {
    sends: Vec<Vec<Post>>,
    seed: u64,
}

fn arb_program(rng: &mut Rng) -> Program {
    let n = 2 + rng.below(5) as usize;
    let sends = (0..n)
        .map(|_| {
            (0..rng.below(9))
                .map(|_| {
                    let spread = 1 << rng.below(13);
                    Post {
                        dest: rng.below(n as u64) as usize,
                        tag: rng.below(3) as i32,
                        len: 8 + rng.below(spread) as usize,
                        device: rng.below(2) == 0,
                        gap_ns: rng.below(3_000),
                    }
                })
                .collect()
        })
        .collect();
    Program {
        sends,
        seed: rng.next_u64(),
    }
}

/// The bytes post `seq` of rank `src` carries: its name, then a pattern of
/// both.
fn body(src: usize, seq: usize, len: usize) -> Vec<u8> {
    let mut bytes = [(src as u32).to_le_bytes(), (seq as u32).to_le_bytes()].concat();
    bytes.extend((8..len).map(|i| (src * 31 + seq * 7 + i) as u8));
    bytes
}

fn alloc(ctx: &RankCtx, len: usize, device: bool) -> MpiResult<GpuPtr> {
    Ok(match device {
        true => ctx.gpu.malloc(len)?,
        false => ctx.gpu.host_alloc(len)?,
    })
}

/// One receive: source, tag, the sender's post index, and the clock after.
type Match = (usize, i32, usize, SimTime);

/// Each rank's matches in receive order, and its clock at the end.
fn run(p: &Program) -> Vec<(Vec<Match>, SimTime)> {
    World::run(&WorldConfig::summit(p.sends.len()), |ctx| {
        let me = ctx.rank;
        for (seq, post) in p.sends[me].iter().enumerate() {
            ctx.clock.advance(SimTime::from_ns(post.gap_ns));
            let buf = alloc(ctx, post.len, post.device)?;
            ctx.gpu.memory().poke(buf, &body(me, seq, post.len))?;
            ctx.send_bytes(buf, post.len, post.dest, post.tag)?;
            ctx.gpu.free(buf)?;
        }
        // what is due here: (source, post index, tag, length)
        let mut due: Vec<(usize, usize, i32, usize)> = (p.sends.iter().enumerate())
            .flat_map(|(src, posts)| posts.iter().enumerate().map(move |(seq, m)| (src, seq, m)))
            .filter(|(_, _, m)| m.dest == me)
            .map(|(src, seq, m)| (src, seq, m.tag, m.len))
            .collect();
        let mut rng = Rng::new(p.seed ^ me as u64);
        let mut matches = Vec::new();
        while !due.is_empty() {
            let (src, _, tag, _) = due[rng.below(due.len() as u64) as usize];
            let src = (rng.below(2) == 0).then_some(src);
            let tag = (rng.below(2) == 0).then_some(tag);
            let probed = match rng.below(3) {
                0 => Some(ctx.probe(src, tag)?),
                _ => None,
            };
            let (want_src, want_tag) = probed.map_or((src, tag), |i| (Some(i.source), Some(i.tag)));
            let buf = alloc(ctx, MAX_LEN, rng.below(2) == 0)?;
            let st = ctx.recv_bytes(buf, MAX_LEN, want_src, want_tag)?;
            if let Some(info) = probed {
                assert_eq!(
                    (info.source, info.tag, info.bytes),
                    (st.source, st.tag, st.bytes)
                );
            }
            assert!(src.is_none_or(|s| s == st.source) && tag.is_none_or(|t| t == st.tag));
            let got = ctx.gpu.memory().peek(buf, st.bytes)?;
            let seq = u32::from_le_bytes(got[4..8].try_into().unwrap()) as usize;
            let at = due
                .iter()
                .position(|&(s, q, ..)| (s, q) == (st.source, seq));
            let (.., tag, len) = due.remove(at.expect("a message received twice or never sent"));
            assert_eq!((tag, len), (st.tag, st.bytes));
            assert!(got == body(st.source, seq, len), "corrupt payload");
            matches.push((st.source, st.tag, seq, ctx.clock.now()));
            ctx.gpu.free(buf)?;
            ctx.clock.advance(SimTime::from_ns(rng.below(3_000)));
        }
        assert_eq!(ctx.pending_messages() + ctx.inbox_backlog(), 0);
        Ok((matches, ctx.clock.now()))
    })
    .expect("every receive of a program has a message due")
}

#[test]
fn generated_programs_match_each_message_once_in_posting_order_and_replay() {
    for_each_case(0x6d61_7463, 200, arb_program, |p| {
        let ranks = run(p);
        for (matches, _) in &ranks {
            for (i, &(src, tag, seq, _)) in matches.iter().enumerate() {
                let overtaken = matches[..i]
                    .iter()
                    .any(|&(s, t, q, _)| (s, t) == (src, tag) && q > seq);
                assert!(
                    !overtaken,
                    "post {seq} of rank {src}, tag {tag}, was overtaken"
                );
            }
        }
        assert_eq!(ranks, run(p), "a second run matched differently");
    });
}
