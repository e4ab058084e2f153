//! Online calibration of the §5 send-method model.
//!
//! The paper picks device vs one-shot from *fixed*, machine-calibrated
//! constants (§5, Fig. 10). Hunold & Träff and Adefemi both observe that
//! the winning strategy shifts with message size, layout and
//! implementation, so a static table leaves speedup on the table. This
//! module keeps the analytical model as the *prior* and corrects it with
//! measurements taken on the virtual clock:
//!
//! - Every send is keyed into a **bucket**: (shape class, log₂ payload
//!   size, peer class). Shape class folds the plan kind and log₂ block
//!   bytes so "same layout, different count" sends share observations.
//! - Per GPU **component ratios** (measured ÷ modeled, EWMA-smoothed)
//!   calibrate each model [`Term`] separately: pack/unpack per target,
//!   copy-engine per direction, wire per (transport, peer class).
//!   Component ratios — not per-bucket totals — let one measured pack on a
//!   misaligned layout re-rank *every* bucket that shares the component.
//! - The per-bucket choice is the **argmin of the calibrated model**
//!   ([`SendModel::choose_among_runs`], the same ranking every mode uses,
//!   fed [`Tuner::ratio`]) and is memoized; with probability ε (decaying
//!   per bucket visit) or after a virtual-time re-probe interval, a
//!   non-best method is chosen instead so its component ratios stay fresh.
//!
//! Everything is deterministic: the exploration RNG is a seeded
//! xorshift64*, and "time" is the rank's virtual clock, so the same seed
//! in a fault-free world replays the exact method sequence.

use std::collections::HashMap;

use gpu_sim::SimTime;

use crate::config::{Method, TunerMode};
use crate::model::{Choice, SendModel, Term};

/// Initial exploration probability for a warm bucket.
pub const EPSILON_0: f64 = 0.10;
/// Visits after which ε has halved (ε = ε₀ / (1 + visits / decay)).
pub const EPSILON_DECAY: f64 = 32.0;
/// Virtual-time interval after which a bucket re-probes a non-best method
/// even when ε says exploit. Long enough that steady-state benchmarks are
/// not perturbed.
pub const REPROBE_INTERVAL: SimTime = SimTime::from_ms(250);

/// Deterministic xorshift64* generator (no external RNG dependency; `rand`
/// is a dev-dependency only).
#[derive(Debug, Clone)]
struct XorShift64Star {
    state: u64,
}

impl XorShift64Star {
    fn new(seed: u64) -> Self {
        // The all-zero state is absorbing; xor with an odd constant keeps
        // distinct seeds distinct and maps only one seed to zero.
        let mixed = seed ^ 0x9E37_79B9_7F4A_7C15;
        XorShift64Star {
            state: if mixed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                mixed
            },
        }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in [0, 1).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in [0, n). `n` must be positive.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Exponentially weighted moving average of a measured/modeled ratio.
/// Starts at 1.0 (trust the model) and jumps to the first observation so a
/// single sample already corrects an obviously-wrong constant.
#[derive(Debug, Clone, Copy)]
struct Ewma {
    value: f64,
    samples: u32,
}

impl Ewma {
    const ALPHA: f64 = 0.25;

    fn new() -> Self {
        Ewma {
            value: 1.0,
            samples: 0,
        }
    }

    fn observe(&mut self, ratio: f64) {
        if !ratio.is_finite() || ratio <= 0.0 {
            return;
        }
        if self.samples == 0 {
            self.value = ratio;
        } else {
            self.value = (1.0 - Self::ALPHA) * self.value + Self::ALPHA * ratio;
        }
        self.samples = self.samples.saturating_add(1);
    }
}

/// The raw numbers one send presents to the model: total payload bytes,
/// contiguous block length, and the kernel word size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Total payload bytes.
    pub bytes: usize,
    /// Contiguous block length in bytes.
    pub block: usize,
    /// Kernel word size `W`.
    pub word: usize,
}

/// A send's calibration bucket: the shape class of its datatype, the log₂
/// size class of its payload, and the peer class of its destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BucketKey {
    /// Shape-class discriminant: 0 = contiguous, 1 = strided, 2 = block
    /// list, 3 = fallback/other.
    pub shape: u8,
    /// log₂ of the layout's contiguous block length in bytes.
    pub block_log2: u8,
    /// log₂ of the total payload bytes.
    pub size_log2: u8,
    /// Whether the peer shares this rank's node.
    pub intra_node: bool,
}

impl BucketKey {
    /// Build a key from raw layout numbers.
    pub fn new(shape: u8, block_bytes: usize, payload_bytes: usize, intra_node: bool) -> Self {
        BucketKey {
            shape,
            block_log2: block_bytes.max(1).ilog2() as u8,
            size_log2: payload_bytes.max(1).ilog2() as u8,
            intra_node,
        }
    }
}

/// The outcome of one [`Tuner::choose`] call, with the bookkeeping the
/// caller folds into `TempiStats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// The method to run.
    pub method: Method,
    /// For [`Method::Pipelined`], the tuned chunk size; for
    /// [`Method::Device`], the run length when it is the run cut.
    pub chunk: Option<usize>,
    /// True when this call is an exploration probe (a deliberately
    /// non-best method run to refresh its component ratios).
    pub probe: bool,
    /// True when the decision came from a memoized bucket.
    pub bucket_hit: bool,
    /// True when the calibrated argmin differs from the bucket's previous
    /// memoized choice.
    pub switched: bool,
}

impl Decision {
    /// Where this decision came from, for trace instants: an exploration
    /// `"probe"`, a warm `"memo"` bucket, or a `"cold"` first evaluation.
    pub fn origin(&self) -> &'static str {
        if self.probe {
            "probe"
        } else if self.bucket_hit {
            "memo"
        } else {
            "cold"
        }
    }
}

#[derive(Debug, Clone)]
struct Bucket {
    memo: Choice,
    visits: u64,
    last_probe: SimTime,
}

/// The per-rank autotuner: component calibration plus the per-bucket
/// memoized decisions.
#[derive(Debug, Clone)]
pub struct Tuner {
    mode: TunerMode,
    rng: XorShift64Star,
    /// One EWMA ratio per [`Term`], at [`Term::index`]: indexed rather
    /// than mapped, as the hot path reads them per send.
    calib: [Ewma; 8],
    buckets: HashMap<BucketKey, Bucket>,
}

impl Tuner {
    /// A tuner in `mode` whose exploration stream is driven by `seed`.
    pub fn new(mode: TunerMode, seed: u64) -> Self {
        Tuner {
            mode,
            rng: XorShift64Star::new(seed),
            calib: [Ewma::new(); 8],
            buckets: HashMap::new(),
        }
    }

    /// The configured decision mode.
    pub fn mode(&self) -> TunerMode {
        self.mode
    }

    /// Number of distinct buckets observed so far.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// The memoized (method, chunk) for a bucket, if it is warm.
    pub fn memoized(&self, key: &BucketKey) -> Option<(Method, Option<usize>)> {
        self.buckets.get(key).map(|b| (b.memo.method, b.memo.chunk))
    }

    /// Current calibration ratio (measured ÷ modelled) of a model term.
    pub fn ratio(&self, term: Term) -> f64 {
        self.calib[term.index()].value
    }

    /// Record a measured duration of a model term against its modelled
    /// one. Wire time is only visible on the *receiving* clock in the
    /// simulator (senders pay just the send overhead), so a wire term is
    /// fed from the receive path and calibrates this rank's future sends —
    /// exact under the symmetric traffic of ping-pong workloads, a prior
    /// elsewhere. No-op unless the tuner is in [`TunerMode::Online`].
    pub fn observe(&mut self, term: Term, modeled: SimTime, measured: SimTime) {
        let m = modeled.as_ns_f64();
        if self.mode == TunerMode::Online && m > 0.0 {
            self.calib[term.index()].observe(measured.as_ns_f64() / m);
        }
    }

    /// Decide the method (and, for pipelined, the chunk) for one send.
    ///
    /// `allowed` is the candidate set after the caller's quarantine filter;
    /// it must be non-empty and ordered by the caller's preference for
    /// tie-stability. `now` is the rank's virtual clock, which drives the
    /// re-probe schedule.
    pub fn choose(
        &mut self,
        key: BucketKey,
        wl: Workload,
        model: &SendModel,
        allowed: &[Method],
        now: SimTime,
    ) -> Decision {
        self.choose_runs(key, wl, false, model, allowed, now)
    }

    /// [`Tuner::choose`] with the run cut among the candidates when `runs`
    /// says every run of the object is `wl.block` bytes long (see
    /// [`SendModel::choose_among_runs`]).
    ///
    /// Every mode decides by one rule: the calibrated argmin. `Off`
    /// returns it; `Model` and `Online` memoize it per bucket, and only
    /// `Online` may turn a warm visit into a probe of another method.
    pub(crate) fn choose_runs(
        &mut self,
        key: BucketKey,
        wl: Workload,
        runs: bool,
        model: &SendModel,
        allowed: &[Method],
        now: SimTime,
    ) -> Decision {
        debug_assert!(!allowed.is_empty());
        let Workload { bytes, block, word } = wl;
        let calib = &self.calib;
        let ratio = |term: Term| calib[term.index()].value;
        let best = model.choose_among_runs(allowed, runs, bytes, block, word, &ratio);
        let mut d = Decision {
            method: best.method,
            chunk: best.chunk,
            probe: false,
            bucket_hit: false,
            switched: false,
        };
        if self.mode == TunerMode::Off {
            return d;
        }
        let Some(b) = self.buckets.get_mut(&key) else {
            // Cold bucket: the ratios are 1.0 (or whatever other buckets
            // already taught us), so this is the analytical model's
            // choice. No exploration on first contact.
            let bucket = Bucket {
                memo: best,
                visits: 1,
                last_probe: now,
            };
            self.buckets.insert(key, bucket);
            return d;
        };
        b.visits += 1;
        d.bucket_hit = true;
        if self.mode == TunerMode::Online {
            // ε decays with visits and a re-probe falls due on the
            // virtual clock; the RNG is drawn only if another method is
            // allowed, and for ε only if no re-probe is due
            let mut others = allowed.iter().copied().filter(|&m| m != best.method);
            let n = others.clone().count();
            let eps = EPSILON_0 / (1.0 + b.visits as f64 / EPSILON_DECAY);
            let reprobe_due = now.saturating_sub(b.last_probe) >= REPROBE_INTERVAL;
            let explore = n > 0 && (reprobe_due || self.rng.next_f64() < eps);
            if let Some(method) = explore
                .then(|| self.rng.below(n))
                .and_then(|i| others.nth(i))
            {
                // a probe leaves the memo alone; one of the pipelined
                // method runs at the chunk the model would give it, so the
                // observation is representative
                b.last_probe = now;
                let only = [Method::Pipelined];
                let chunk = (method == Method::Pipelined)
                    .then(|| model.choose_among(&only, bytes, block, word, &ratio).chunk)
                    .flatten();
                return Decision {
                    method,
                    chunk,
                    probe: true,
                    ..d
                };
            }
        }
        d.switched = b.memo.method != best.method;
        b.memo = best;
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CHUNK_CANDIDATES;
    use gpu_sim::PackTarget;
    use mpi_sim::Transport;

    fn model() -> SendModel {
        SendModel::summit_internode()
    }

    const KEY: BucketKey = BucketKey {
        shape: 1,
        block_log2: 5,
        size_log2: 20,
        intra_node: false,
    };

    const fn wl(bytes: usize, block: usize, word: usize) -> Workload {
        Workload { bytes, block, word }
    }

    /// The uncalibrated model's pick among the paper's three methods.
    fn section5(m: &SendModel, bytes: usize, block: usize, word: usize) -> Method {
        let three = [Method::Device, Method::OneShot, Method::Staged];
        m.choose_among(&three, bytes, block, word, &|_| 1.0).method
    }

    #[test]
    fn cold_bucket_matches_analytical_model() {
        let m = model();
        let mut t = Tuner::new(TunerMode::Online, 7);
        let bytes = 1 << 20;
        let d = t.choose(
            KEY,
            wl(bytes, 4096, 8),
            &m,
            &[Method::Device, Method::OneShot],
            SimTime::ZERO,
        );
        assert_eq!(d.method, section5(&m, bytes, 4096, 8));
        assert!(!d.bucket_hit);
        assert!(!d.probe);
    }

    #[test]
    fn model_mode_memoizes_without_consuming_rng() {
        let m = model();
        let mut a = Tuner::new(TunerMode::Model, 1);
        let mut b = Tuner::new(TunerMode::Model, 2);
        let allowed = [Method::Device, Method::OneShot];
        // Different seeds, identical decisions for many visits: Model mode
        // must never consult the RNG.
        for i in 0..64 {
            let now = SimTime::from_us(i);
            let da = a.choose(KEY, wl(1 << 20, 4096, 8), &m, &allowed, now);
            let db = b.choose(KEY, wl(1 << 20, 4096, 8), &m, &allowed, now);
            assert_eq!(da.method, db.method);
            assert!(!da.probe && !db.probe);
        }
        assert_eq!(a.bucket_count(), 1);
    }

    #[test]
    fn same_seed_replays_identical_decision_sequence() {
        let m = model();
        let mut a = Tuner::new(TunerMode::Online, 42);
        let mut b = Tuner::new(TunerMode::Online, 42);
        let allowed = [Method::Device, Method::OneShot, Method::Staged];
        for i in 0..256u64 {
            let now = SimTime::from_us(i * 10);
            let da = a.choose(KEY, wl(1 << 20, 64, 4), &m, &allowed, now);
            let db = b.choose(KEY, wl(1 << 20, 64, 4), &m, &allowed, now);
            assert_eq!(da, db, "diverged at visit {i}");
        }
    }

    #[test]
    fn probes_happen_and_decay() {
        let m = model();
        let mut t = Tuner::new(TunerMode::Online, 1337);
        let allowed = [Method::Device, Method::OneShot];
        let mut probes = 0;
        for i in 0..512u64 {
            // Tight loop in virtual time: only ε-exploration triggers, not
            // the interval re-probe.
            let d = t.choose(KEY, wl(1 << 20, 64, 4), &m, &allowed, SimTime::from_us(i));
            probes += d.probe as u32;
        }
        assert!(probes > 0, "epsilon-greedy never explored");
        assert!(probes < 64, "explored too much: {probes}");
    }

    #[test]
    fn interval_reprobe_fires_on_the_virtual_clock() {
        let m = model();
        let mut t = Tuner::new(TunerMode::Online, 5);
        let allowed = [Method::Device, Method::OneShot];
        t.choose(KEY, wl(1 << 20, 64, 4), &m, &allowed, SimTime::ZERO);
        // Far past the re-probe interval: the next warm-bucket call must
        // be a probe regardless of what the RNG says.
        let d = t.choose(KEY, wl(1 << 20, 64, 4), &m, &allowed, SimTime::from_ms(500));
        assert!(d.probe);
    }

    #[test]
    fn calibration_flips_the_decision_when_a_component_is_slow() {
        // Oracle: at 1 MiB / 4 KiB blocks the model picks OneShot. Teach
        // the tuner that mapped-host packing actually runs 6x slower than
        // modeled; the calibrated argmin must flip to Device.
        let m = model();
        let bytes = 1 << 20;
        assert_eq!(section5(&m, bytes, 4096, 8), Method::OneShot);
        let mut t = Tuner::new(TunerMode::Online, 9);
        let modeled = SimTime::from_us(10);
        for _ in 0..8 {
            let measured = SimTime::from_us(60);
            t.observe(Term::Pack(PackTarget::MappedHost), modeled, measured);
        }
        assert!(t.ratio(Term::Pack(PackTarget::MappedHost)) > 5.0);
        let d = t.choose(
            KEY,
            wl(bytes, 4096, 8),
            &m,
            &[Method::Device, Method::OneShot],
            SimTime::ZERO,
        );
        assert_eq!(d.method, Method::Device);
    }

    #[test]
    fn a_slow_intra_node_wire_moves_only_the_intra_node_decision() {
        // Two Summit placements (6 ranks per node): rank 1 shares rank 0's
        // node, rank 6 does not. At 64 KiB in 4 KiB blocks both send over
        // the CPU wire; eight slow intra-node CPU-wire observations must
        // move the intra-node send off it and leave the inter-node one.
        let (intra, inter) = (SendModel { dst: 1, ..model() }, model());
        let (bytes, block, word) = (64 << 10, 4096, 8);
        let key = |intra_node| BucketKey::new(1, block, bytes, intra_node);
        let decide = |t: &mut Tuner, m: &SendModel, intra_node| {
            let d = t.choose(
                key(intra_node),
                wl(bytes, block, word),
                m,
                &Method::LADDER,
                SimTime::ZERO,
            );
            (d.method, d.chunk)
        };
        let mut t = Tuner::new(TunerMode::Model, 13);
        let before = (decide(&mut t, &intra, true), decide(&mut t, &inter, false));
        for (method, _) in [before.0, before.1] {
            assert_eq!(method.recipe().wire, Transport::Cpu, "{method:?}");
        }
        let mut t = Tuner::new(TunerMode::Online, 13);
        for _ in 0..8 {
            let wire = Term::Wire(Transport::Cpu, true);
            t.observe(wire, SimTime::from_us(10), SimTime::from_us(100));
        }
        let after = decide(&mut t, &intra, true);
        assert_eq!(after.0.recipe().wire, Transport::Gpu, "{after:?}");
        assert_eq!(decide(&mut t, &inter, false), before.1);
    }

    #[test]
    fn convergence_memoizes_the_oracle_best_method() {
        // With no observations the ratios are exactly 1.0, so after any
        // number of visits the memoized choice equals the oracle model's
        // fastest method — probes refresh ratios but never overwrite the
        // memo with a probed method.
        let m = model();
        let allowed = [Method::Device, Method::OneShot, Method::Staged];
        for (bytes, block, word) in [(1usize << 20, 4096usize, 8usize), (4 << 20, 16, 4)] {
            let mut t = Tuner::new(TunerMode::Online, 21);
            let key = BucketKey::new(1, block * word, bytes, false);
            for i in 0..128u64 {
                t.choose(
                    key,
                    wl(bytes, block, word),
                    &m,
                    &allowed,
                    SimTime::from_us(i),
                );
            }
            let oracle = section5(&m, bytes, block, word);
            assert_eq!(t.memoized(&key).unwrap().0, oracle);
        }
    }

    #[test]
    fn pipelined_chunk_tracks_the_calibrated_crossover() {
        let m = model();
        let only = [Method::Pipelined];
        // Large coarse object: pipelined must propose a chunk from the
        // candidate table, strictly smaller than the payload.
        let mut t = Tuner::new(TunerMode::Online, 3);
        let d = t.choose(KEY, wl(4 << 20, 4096, 8), &m, &only, SimTime::ZERO);
        let c = d.chunk.unwrap();
        assert!(CHUNK_CANDIDATES.contains(&c) && c < (4 << 20));
        // Teach it that the wire runs 4x slower than modelled: per-part
        // overheads matter less, so the chunk must not grow.
        let mut slow = Tuner::new(TunerMode::Online, 3);
        for _ in 0..8 {
            let wire = Term::Wire(Transport::Cpu, false);
            slow.observe(wire, SimTime::from_us(10), SimTime::from_us(40));
        }
        let ds = slow.choose(KEY, wl(4 << 20, 4096, 8), &m, &only, SimTime::ZERO);
        assert!(ds.chunk.unwrap() <= c, "{:?} vs {c}", ds.chunk);
        // Small payload: no candidate fits, pipelined is never proposed.
        let d = t.choose(KEY, wl(16 << 10, 64, 4), &m, &only, SimTime::ZERO);
        assert_eq!(d.chunk, None);
    }

    #[test]
    fn quarantined_methods_are_simply_absent_from_allowed() {
        // The caller expresses quarantine by shrinking `allowed`; with a
        // single candidate the tuner must return it and never probe.
        let m = model();
        let mut t = Tuner::new(TunerMode::Online, 11);
        for i in 0..64u64 {
            let d = t.choose(
                KEY,
                wl(1 << 20, 64, 4),
                &m,
                &[Method::OneShot],
                SimTime::from_ms(i * 300),
            );
            assert_eq!(d.method, Method::OneShot);
            assert!(!d.probe);
        }
    }

    #[test]
    fn online_replays_its_recorded_decision_sequence() {
        // Recorded from an earlier build, not this one: a change in what
        // `Online` draws from its RNG, or when, moves it.
        // Each token is the method's initial, `?` for a probe, the chunk
        // and `xN` for N visits in a row.
        const RECORDED: &str = "P131072x1 O?x1 D?x1 P131072x12 O?x1 P131072x80 D?x1 \
            P131072x12 D?x1 P131072x76 S?x1 P131072x38 D?x1 P131072x14 S?x1 P131072x15 \
            O?x1 D?x1 S?x2 O?x1 S?x2 D?x1";
        let m = model();
        let mut t = Tuner::new(TunerMode::Online, 42);
        let late = (1..=8).map(|i| SimTime::from_us(2550) + SimTime::from_ms(i * 300));
        let mut runs: Vec<(String, usize)> = Vec::new();
        for now in (0..256).map(|i| SimTime::from_us(i * 10)).chain(late) {
            let d = t.choose(KEY, wl(1 << 20, 64, 4), &m, &Method::LADDER, now);
            let chunk = d.chunk.map_or(String::new(), |c| c.to_string());
            let tok = format!(
                "{}{}{chunk}",
                &d.method.name()[..1],
                ["", "?"][d.probe as usize]
            );
            match runs.last_mut() {
                Some((last, k)) if *last == tok => *k += 1,
                _ => runs.push((tok, 1)),
            }
        }
        let got: Vec<String> = runs.iter().map(|(tok, k)| format!("{tok}x{k}")).collect();
        assert_eq!(got.join(" "), RECORDED);
    }
}
