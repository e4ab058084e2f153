//! The DDT performance-guidelines harness behind the `bench guidelines`
//! CI gate.
//!
//! Hunold/Träff ("MPI Derived Datatypes: Performance Expectations and
//! Status Quo") formulate testable *performance guidelines*: an MPI
//! implementation should never make a derived-datatype communication
//! slower than the semantically equivalent operation the user could
//! write by hand. This module states four of those guidelines over the
//! expanded datatype zoo ([`zoo`]) and evaluates them per
//! (pattern, vendor) cell, with TEMPI interposed — as
//! `TempiConfig::default()`, what a user gets with no knob set — and not:
//!
//! * **G1** — a DDT send must not lose to packing the same bytes and
//!   sending them contiguously (`MPI_Pack` + send + `MPI_Unpack`),
//!   beyond the tolerance.
//! * **G2** — a DDT send must not lose to the naive element-wise loop
//!   (one byte-typed message per contiguous block).
//! * **G3** — interposing TEMPI must never violate a guideline the
//!   system MPI alone satisfies (the gate CI fails the build on).
//! * **G4** — canonicalization must not regress any layout it claims to
//!   normalize: with TEMPI interposed, committing through the
//!   canonicalization pass must not make the typed send slower than the
//!   ablated (`canonicalize = false`) commit of the same type.
//!
//! All times are virtual nanoseconds from the simulator clock, measured
//! receiver-side with the same barrier-per-round, minimum-over-rounds
//! protocol as [`Cell::one_way`] ([`timed_rounds`] under both) — fully
//! deterministic, so verdicts are exact and the baseline gate needs no
//! flake budget. The gate's tolerance is [`GUIDELINE_TOL`].

use gpu_sim::SimTime;
use mpi_sim::consts::MPI_BYTE;
use mpi_sim::datatype::typemap::segments;
use mpi_sim::datatype::TypeTree;
use mpi_sim::{MpiError, MpiResult, RankCtx, World};
use tempi_core::config::TempiConfig;
use tempi_core::tempi::{PlanKind, Tempi};
use tempi_trace::json::{self, FromJson, ToJson, Value};

use crate::baseline::GatedSuite;
use crate::measure::{timed_rounds, Cell, Platform, Side};
use crate::workloads::zoo;

/// Relative slack the gate allows before a guideline counts as violated: a
/// derived-datatype send may be up to `1 + GUIDELINE_TOL` times slower than
/// the pack-then-send / naive reference before G1/G2 flag it. 10% absorbs
/// modeling asymmetries between the composed and fused paths (an extra
/// dispatch, one barrier's skew) while catching method-choice regressions,
/// which move cells by integer factors.
pub const GUIDELINE_TOL: f64 = 0.10;

/// Warm-up / measured rounds of the typed DDT send (the quantity under
/// test: it gets the most rounds).
const TYPED_WARMUP: usize = 2;
/// Measured typed rounds (minimum is reported).
const TYPED_ROUNDS: usize = 3;
/// Warm-up rounds of the pack-then-send reference.
const PACK_WARMUP: usize = 1;
/// Measured pack-then-send rounds.
const PACK_ROUNDS: usize = 2;
/// Warm-up rounds of the naive element-wise reference (one message per
/// block — expensive, so one warm-up and one measured round suffice in
/// virtual time).
const NAIVE_WARMUP: usize = 1;
/// Measured naive rounds.
const NAIVE_ROUNDS: usize = 1;

/// The three one-way delivery times of one (pattern, vendor, mode) cell,
/// virtual nanoseconds, receiver-side, minimum over measured rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellTimes {
    /// Typed DDT send: `MPI_Send(buf, 1, ddt)` → typed `MPI_Recv`.
    pub ddt_ns: f64,
    /// Pack-then-send of the same bytes: `MPI_Pack` + byte send →
    /// byte recv + `MPI_Unpack` (receiver time spans recv + unpack, so
    /// the sender's pack delay is visible through the wire wait).
    pub pack_send_ns: f64,
    /// Naive element-wise loop: one `MPI_BYTE` message per contiguous
    /// block of the type map.
    pub naive_ns: f64,
}

/// The per-cell guideline verdicts plus the worst violation ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Eval {
    /// G1 with plain system MPI.
    pub g1_off: bool,
    /// G2 with plain system MPI.
    pub g2_off: bool,
    /// G1 with TEMPI interposed.
    pub g1_on: bool,
    /// G2 with TEMPI interposed.
    pub g2_on: bool,
    /// G3: TEMPI-on satisfies every guideline TEMPI-off satisfies.
    pub g3: bool,
    /// G4: canonicalization does not regress a normalized layout.
    pub g4: bool,
    /// Largest `time / reference` ratio among the violated guidelines
    /// (1.0 when every guideline holds).
    pub worst_ratio: f64,
}

impl Eval {
    /// The six verdicts by their column names.
    pub fn verdicts(&self) -> [(&'static str, bool); 6] {
        [
            ("g1_off", self.g1_off),
            ("g2_off", self.g2_off),
            ("g1_on", self.g1_on),
            ("g2_on", self.g2_on),
            ("g3", self.g3),
            ("g4", self.g4),
        ]
    }

    /// Does every guideline hold?
    pub fn clean(&self) -> bool {
        self.verdicts().iter().all(|&(_, holds)| holds)
    }
}

/// Evaluate the guidelines for one cell from its measured times.
///
/// `limit = 1 + tol`: a guideline `a ≤ b` is satisfied when
/// `a ≤ b · limit`, so exact ties and anything inside the tolerance
/// pass. G4 is vacuously true when the plan is not `normalized`
/// (fallback/empty plans make no canonicalization claim).
pub fn evaluate(
    off: CellTimes,
    on: CellTimes,
    on_nocanon_ddt_ns: f64,
    normalized: bool,
    tol: f64,
) -> Eval {
    let limit = 1.0 + tol;
    // (time, reference) of G1[off], G2[off], G1[on], G2[on] and G4
    let pairs = [
        (off.ddt_ns, off.pack_send_ns),
        (off.ddt_ns, off.naive_ns),
        (on.ddt_ns, on.pack_send_ns),
        (on.ddt_ns, on.naive_ns),
        (on.ddt_ns, on_nocanon_ddt_ns),
    ];
    let [g1_off, g2_off, g1_on, g2_on, g4] = pairs.map(|(t, reference)| t <= reference * limit);
    let g4 = !normalized || g4;
    let violated = (pairs.iter().zip([g1_off, g2_off, g1_on, g2_on, g4])).filter(|(_, ok)| !ok);
    Eval {
        g1_off,
        g2_off,
        g1_on,
        g2_on,
        g3: (!g1_off || g1_on) && (!g2_off || g2_on),
        g4,
        worst_ratio: violated.map(|((t, r), _)| t / r).fold(1.0, f64::max),
    }
}

/// One (pattern, vendor) cell of `BENCH_guidelines.json`: the raw
/// virtual times of both deployments, the plan TEMPI built, the six
/// verdicts, and the worst violation ratio. The file keeps one flat object
/// per row (`off_ddt_ns`, …, `g1_off`, …, `worst_ratio`).
#[derive(Debug, Clone)]
pub struct GuidelineRow {
    /// Zoo pattern label (the row's name in [`zoo`]).
    pub pattern: String,
    /// Vendor profile label ([`mpi_sim::VendorId::label`]).
    pub vendor: String,
    /// Data bytes the pattern denotes.
    pub size_bytes: usize,
    /// Contiguous blocks (= naive-loop messages).
    pub nblocks: usize,
    /// What TEMPI's commit resolved the type to (`contiguous`,
    /// `strided`, `blocklist`, `fallback(...)`, `empty`).
    pub plan: String,
    /// Does the plan claim canonical handling (G4 applies)?
    pub normalized: bool,
    /// The three schemes with TEMPI off.
    pub off: CellTimes,
    /// The three schemes with TEMPI on.
    pub on: CellTimes,
    /// Typed send, TEMPI on with `canonicalize = false`, virtual ns.
    pub on_nocanon_ddt_ns: f64,
    /// The verdicts and the worst violation ratio.
    pub eval: Eval,
}

impl ToJson for GuidelineRow {
    fn to_json(&self) -> Value {
        let GuidelineRow { off, on, eval, .. } = self;
        Value::object([
            ("pattern", self.pattern.to_json()),
            ("vendor", self.vendor.to_json()),
            ("size_bytes", self.size_bytes.to_json()),
            ("nblocks", self.nblocks.to_json()),
            ("plan", self.plan.to_json()),
            ("normalized", self.normalized.to_json()),
            ("off_ddt_ns", off.ddt_ns.to_json()),
            ("off_pack_send_ns", off.pack_send_ns.to_json()),
            ("off_naive_ns", off.naive_ns.to_json()),
            ("on_ddt_ns", on.ddt_ns.to_json()),
            ("on_pack_send_ns", on.pack_send_ns.to_json()),
            ("on_naive_ns", on.naive_ns.to_json()),
            ("on_nocanon_ddt_ns", self.on_nocanon_ddt_ns.to_json()),
            ("g1_off", eval.g1_off.to_json()),
            ("g2_off", eval.g2_off.to_json()),
            ("g1_on", eval.g1_on.to_json()),
            ("g2_on", eval.g2_on.to_json()),
            ("g3", eval.g3.to_json()),
            ("g4", eval.g4.to_json()),
            ("worst_ratio", eval.worst_ratio.to_json()),
        ])
    }
}

impl FromJson for GuidelineRow {
    fn from_json(v: &Value) -> Result<GuidelineRow, json::Error> {
        let times = |ddt: &str, pack_send: &str, naive: &str| -> Result<CellTimes, json::Error> {
            Ok(CellTimes {
                ddt_ns: v.field(ddt)?,
                pack_send_ns: v.field(pack_send)?,
                naive_ns: v.field(naive)?,
            })
        };
        Ok(GuidelineRow {
            pattern: v.field("pattern")?,
            vendor: v.field("vendor")?,
            size_bytes: v.field("size_bytes")?,
            nblocks: v.field("nblocks")?,
            plan: v.field("plan")?,
            normalized: v.field("normalized")?,
            off: times("off_ddt_ns", "off_pack_send_ns", "off_naive_ns")?,
            on: times("on_ddt_ns", "on_pack_send_ns", "on_naive_ns")?,
            on_nocanon_ddt_ns: v.field("on_nocanon_ddt_ns")?,
            eval: Eval {
                g1_off: v.field("g1_off")?,
                g2_off: v.field("g2_off")?,
                g1_on: v.field("g1_on")?,
                g2_on: v.field("g2_on")?,
                g3: v.field("g3")?,
                g4: v.field("g4")?,
                worst_ratio: v.field("worst_ratio")?,
            },
        })
    }
}

impl GatedSuite for GuidelineRow {
    const SUITE: &'static str = "guidelines";
    const TOLERANCE: f64 = crate::baseline::TOLERANCE;

    fn row_key(&self) -> String {
        format!("{} [{}]", self.pattern, self.vendor)
    }

    fn timings(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("off_ddt_ns", self.off.ddt_ns),
            ("off_pack_send_ns", self.off.pack_send_ns),
            ("off_naive_ns", self.off.naive_ns),
            ("on_ddt_ns", self.on.ddt_ns),
            ("on_pack_send_ns", self.on.pack_send_ns),
            ("on_naive_ns", self.on.naive_ns),
            ("on_nocanon_ddt_ns", self.on_nocanon_ddt_ns),
        ]
    }

    fn verdicts(&self) -> Vec<(&'static str, bool)> {
        self.eval.verdicts().into()
    }
}

/// One violated guideline on one cell, for the worst-first report.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// `"pattern [vendor]"` of the offending cell.
    pub row: String,
    /// Which guideline: `"G1[off]"`, `"G2[on]"`, `"G3"`, `"G4"`, …
    pub guideline: &'static str,
    /// `time / reference` of the violated comparison (G3 reports the
    /// worst ratio of the TEMPI-on guidelines it derives from).
    pub ratio: f64,
    /// Human-readable explanation with the two times.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {}: {:.2}x — {}",
            self.row, self.guideline, self.ratio, self.detail
        )
    }
}

/// Collect every violated guideline across `rows`, worst ratio first.
pub fn violations(rows: &[GuidelineRow]) -> Vec<Violation> {
    let mut out = Vec::new();
    for r in rows {
        let key = r.row_key();
        let (off, on, eval) = (r.off, r.on, r.eval);
        let mut push = |guideline, t: f64, reference: f64, what: &str| {
            out.push(Violation {
                row: key.clone(),
                guideline,
                ratio: t / reference,
                detail: format!("{what} ({t:.0} ns vs {reference:.0} ns)"),
            });
        };
        if !eval.g1_off {
            let what = "system DDT send loses to pack-then-send";
            push("G1[off]", off.ddt_ns, off.pack_send_ns, what);
        }
        if !eval.g2_off {
            let what = "system DDT send loses to the naive loop";
            push("G2[off]", off.ddt_ns, off.naive_ns, what);
        }
        if !eval.g1_on {
            let what = "TEMPI DDT send loses to pack-then-send";
            push("G1[on]", on.ddt_ns, on.pack_send_ns, what);
        }
        if !eval.g2_on {
            let what = "TEMPI DDT send loses to the naive loop";
            push("G2[on]", on.ddt_ns, on.naive_ns, what);
        }
        if !eval.g3 {
            // report the worse of the TEMPI-on comparisons whose off-side
            // counterpart held
            let (reference, what) = if eval.g1_off && !eval.g1_on {
                let what = "TEMPI-on violates G1 where TEMPI-off satisfies it";
                (on.pack_send_ns, what)
            } else {
                let what = "TEMPI-on violates G2 where TEMPI-off satisfies it";
                (on.naive_ns, what)
            };
            push("G3", on.ddt_ns, reference, what);
        }
        if !eval.g4 {
            let what = format!("canonicalization regresses a {} plan", r.plan);
            push("G4", on.ddt_ns, r.on_nocanon_ddt_ns, &what);
        }
    }
    out.sort_by(|a, b| b.ratio.total_cmp(&a.ratio));
    out
}

/// Render the human-readable violations report (worst first), ending
/// with a one-line clean/violated summary.
pub fn render_report(rows: &[GuidelineRow], tol: f64) -> String {
    let v = violations(rows);
    let mut s = format!(
        "performance-guidelines report: {} cells, tolerance {:.0}%\n",
        rows.len(),
        tol * 100.0
    );
    if v.is_empty() {
        s.push_str("all guidelines satisfied on every cell\n");
        return s;
    }
    s.push_str(&format!("{} violation(s), worst first:\n", v.len()));
    for violation in &v {
        s.push_str(&format!("  {violation}\n"));
    }
    let g3 = v.iter().filter(|v| v.guideline == "G3").count();
    s.push_str(&format!(
        "{g3} G3 violation(s) — TEMPI-on worse than TEMPI-off fails the build\n"
    ));
    s
}

/// Probe what TEMPI's commit pipeline resolves `pattern` to on
/// `platform`: a plan label and whether the plan claims canonical
/// handling (strided or block-list — the layouts G4 ranges over).
pub fn plan_label(platform: Platform, pattern: &TypeTree) -> MpiResult<(String, bool)> {
    let mut ctx = RankCtx::standalone(&platform.world(1));
    let mut tempi = Tempi::default();
    let dt = pattern.build(&mut ctx)?;
    let plan = tempi.type_commit(&mut ctx, dt)?;
    Ok(match &plan.kind {
        PlanKind::Empty => ("empty".to_string(), false),
        PlanKind::Strided(_) if plan.is_contiguous() => ("contiguous".to_string(), true),
        PlanKind::Strided(_) => ("strided".to_string(), true),
        PlanKind::Blocks(_) => ("blocklist".to_string(), true),
        PlanKind::Multi(_) => ("memberlist".to_string(), true),
        PlanKind::Fallback(c) => (format!("fallback({c:?})"), false),
    })
}

/// The fastest measured round on this rank.
fn fastest<T>(rounds: Vec<(SimTime, T)>) -> SimTime {
    let times = rounds.iter().map(|&(t, _)| t);
    times.min().expect("at least one measured round")
}

/// Measure the three delivery times of one cell against `side`: a 2-rank
/// world (one rank per node), the three sending schemes one after another
/// under [`timed_rounds`], receiver-side minimum over measured rounds.
/// With `typed_only` the two reference measurements are skipped (the G4
/// ablation needs only the typed time).
pub fn measure_cell(cell: &Cell, side: &Side, typed_only: bool) -> MpiResult<CellTimes> {
    let per_rank = World::run(&cell.platform.pair(), |ctx| {
        let mut end = cell.endpoint(ctx, side)?;
        let typed = fastest(timed_rounds(ctx, TYPED_WARMUP, TYPED_ROUNDS, |ctx| {
            end.deliver(ctx)
        })?);
        if typed_only {
            return Ok([typed, SimTime::ZERO, SimTime::ZERO]);
        }
        let (mpi, dt, buf) = (&mut end.mpi, end.dt, end.buf);

        // pack-then-send of the same bytes
        let total = ctx.attrs(dt)?.size as usize;
        let packed = ctx.gpu.malloc(total.max(1))?;
        let pack_send = fastest(timed_rounds(ctx, PACK_WARMUP, PACK_ROUNDS, |ctx| {
            let mut pos = 0;
            if ctx.rank == 0 {
                mpi.pack(ctx, buf, 1, dt, packed, total, &mut pos)?;
                mpi.send(ctx, packed, total, MPI_BYTE, 1, 1)?;
            } else {
                mpi.recv(ctx, packed, total, MPI_BYTE, Some(0), Some(1))?;
                mpi.unpack(ctx, packed, total, &mut pos, buf, 1, dt)?;
            }
            Ok(())
        })?);

        // naive element-wise loop: one byte message per contiguous block
        let segs = segments(&ctx.registry().read(), dt)?;
        let at = |off: i64| {
            buf.offset_by(off)
                .ok_or_else(|| MpiError::InvalidArg("segment reaches before buffer".to_string()))
        };
        let naive = fastest(timed_rounds(ctx, NAIVE_WARMUP, NAIVE_ROUNDS, |ctx| {
            for seg in &segs {
                let (block, len) = (at(seg.off)?, seg.len as usize);
                if ctx.rank == 0 {
                    mpi.send(ctx, block, len, MPI_BYTE, 1, 2)?;
                } else {
                    mpi.recv(ctx, block, len, MPI_BYTE, Some(0), Some(2))?;
                }
            }
            Ok(())
        })?);
        Ok([typed, pack_send, naive])
    })?;
    // the receiver's clock measured the deliveries
    let [typed, pack_send, naive] = per_rank[1].map(SimTime::as_ns_f64);
    Ok(CellTimes {
        ddt_ns: typed,
        pack_send_ns: pack_send,
        naive_ns: naive,
    })
}

/// Measure and judge one (pattern, vendor) cell: both deployments, the
/// G4 ablation, the plan probe, and the guideline evaluation at
/// tolerance `tol`. The row's size and block count are read off the built
/// type.
pub fn run_cell(
    platform: Platform,
    label: &str,
    pattern: &TypeTree,
    tol: f64,
) -> MpiResult<GuidelineRow> {
    let cell = Cell::of(platform, pattern.clone(), 1)?;
    let nocanon = Side::Tempi(TempiConfig {
        canonicalize: false,
        ..TempiConfig::default()
    });
    let off = measure_cell(&cell, &Side::System, false)?;
    let on = measure_cell(&cell, &Side::tempi(), false)?;
    let on_nocanon_ddt_ns = measure_cell(&cell, &nocanon, true)?.ddt_ns;
    let (plan, normalized) = plan_label(platform, pattern)?;
    let mut probe = RankCtx::standalone(&platform.world(1));
    let dt = pattern.build(&mut probe)?;
    let nblocks = segments(&probe.registry().read(), dt)?.len();
    Ok(GuidelineRow {
        pattern: label.to_string(),
        vendor: platform.world(1).vendor.id.label().to_string(),
        size_bytes: probe.attrs(dt)?.size as usize,
        nblocks,
        plan,
        normalized,
        off,
        on,
        on_nocanon_ddt_ns,
        eval: evaluate(off, on, on_nocanon_ddt_ns, normalized, tol),
    })
}

/// Run the whole zoo on the given platforms at tolerance `tol`; all three
/// ([`Platform::ALL`]) is what `bench guidelines` and the committed baseline
/// cover.
pub fn run_zoo(platforms: &[Platform], tol: f64) -> MpiResult<Vec<GuidelineRow>> {
    let mut rows = Vec::new();
    for &platform in platforms {
        for (label, pattern) in zoo() {
            rows.push(run_cell(platform, label, &pattern, tol)?);
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(ddt: f64, pack: f64, naive: f64) -> CellTimes {
        CellTimes {
            ddt_ns: ddt,
            pack_send_ns: pack,
            naive_ns: naive,
        }
    }

    #[test]
    fn clean_cell_satisfies_everything() {
        let t = cell(900.0, 1000.0, 5000.0);
        let e = evaluate(t, t, 900.0, true, 0.10);
        assert!(e.clean(), "{e:?}");
        assert_eq!(e.worst_ratio, 1.0);
    }

    #[test]
    fn g1_violation_is_detected_per_mode() {
        // off loses to pack-then-send, on does not
        let off = cell(2000.0, 1000.0, 5000.0);
        let on = cell(900.0, 1000.0, 5000.0);
        let e = evaluate(off, on, 900.0, true, 0.10);
        assert!(!e.g1_off && e.g1_on && e.g2_off && e.g2_on);
        // G3 holds: the violated guideline was already violated off
        assert!(e.g3);
        assert!((e.worst_ratio - 2.0).abs() < 1e-12);
    }

    #[test]
    fn g2_violation_flags_the_naive_loss() {
        let off = cell(900.0, 1000.0, 5000.0);
        let on = cell(9000.0, 10000.0, 5000.0); // slower than naive, not pack
        let e = evaluate(off, on, 9000.0, true, 0.10);
        assert!(e.g1_on && !e.g2_on && e.g2_off);
        assert!(!e.g3, "on violates G2 that off satisfied");
    }

    #[test]
    fn g3_catches_tempi_introduced_violations_only() {
        let off = cell(900.0, 1000.0, 5000.0); // off satisfies G1+G2
        let on = cell(1500.0, 1000.0, 5000.0); // on violates G1
        let e = evaluate(off, on, 1500.0, true, 0.10);
        assert!(!e.g1_on && !e.g3);
        // if off also violated G1, G3 would hold
        let off_bad = cell(1500.0, 1000.0, 5000.0);
        let e2 = evaluate(off_bad, on, 1500.0, true, 0.10);
        assert!(!e2.g1_off && !e2.g1_on && e2.g3);
    }

    #[test]
    fn g4_only_applies_to_normalized_plans() {
        let t = cell(2000.0, 3000.0, 5000.0);
        // canonicalized send 2x the ablated send: a G4 violation...
        let e = evaluate(t, t, 1000.0, true, 0.10);
        assert!(!e.g4);
        assert!((e.worst_ratio - 2.0).abs() < 1e-12);
        // ...unless the plan made no canonicalization claim
        let e2 = evaluate(t, t, 1000.0, false, 0.10);
        assert!(e2.g4 && e2.clean());
    }

    #[test]
    fn tolerance_edges_are_inclusive() {
        // exactly at the limit: satisfied
        let at = cell(1100.0, 1000.0, 1000.0 / 1.1);
        let e = evaluate(at, at, 1000.0, true, 0.10);
        assert!(e.g1_off && e.g1_on && e.g4);
        // a hair past it: violated
        let past = cell(1100.1, 1000.0, 10_000.0);
        let e2 = evaluate(past, past, 1000.0, true, 0.10);
        assert!(!e2.g1_off && !e2.g1_on && !e2.g4);
        // zero tolerance gates exact ties only
        let tie = cell(1000.0, 1000.0, 1000.0);
        let e3 = evaluate(tie, tie, 1000.0, true, 0.0);
        assert!(e3.clean());
    }

    fn row(pattern: &str, vendor: &str) -> GuidelineRow {
        let t = cell(900.0, 1000.0, 5000.0);
        GuidelineRow {
            pattern: pattern.to_string(),
            vendor: vendor.to_string(),
            size_bytes: 1024,
            nblocks: 16,
            plan: "strided".to_string(),
            normalized: true,
            off: t,
            on: t,
            on_nocanon_ddt_ns: 900.0,
            eval: evaluate(t, t, 900.0, true, 0.10),
        }
    }

    #[test]
    fn violations_sort_worst_first_and_name_the_cell() {
        let mut a = row("col/256x8@2048", "mvapich");
        a.eval.g1_on = false;
        a.eval.g3 = false;
        a.on.ddt_ns = 1500.0; // 1.5x
        let mut b = row("soa/8x2048@65536", "spectrum");
        b.eval.g4 = false;
        b.on.ddt_ns = 3000.0;
        b.on_nocanon_ddt_ns = 1000.0; // 3.0x
        let v = violations(&[a, b]);
        assert_eq!(v.len(), 3);
        assert_eq!(v[0].guideline, "G4");
        assert!((v[0].ratio - 3.0).abs() < 1e-12);
        assert!(
            v[0].row.contains("soa/8x2048@65536 [spectrum]"),
            "{}",
            v[0].row
        );
        assert!(v.iter().any(|x| x.guideline == "G3"));
        let report = render_report(&[row("row/65536", "openmpi")], 0.10);
        assert!(report.contains("all guidelines satisfied"), "{report}");
    }

    #[test]
    fn rows_round_trip_through_json_and_key_by_pattern_and_vendor() {
        let r = row("nested/32@8192x16x64@256", "openmpi");
        let back: Vec<GuidelineRow> = json::from_str(&[r].to_json().to_string()).unwrap();
        assert_eq!(back[0].row_key(), "nested/32@8192x16x64@256 [openmpi]");
        assert_eq!(back[0].timings().len(), 7);
        assert_eq!(back[0].verdicts().len(), 6);
    }

    #[test]
    fn plan_probe_classifies_the_zoo_families() {
        let plan = |spec: &str| plan_label(Platform::Summit, &spec.parse().unwrap()).unwrap();
        assert_eq!(
            plan("contiguous(4096, byte)"),
            ("contiguous".to_string(), true)
        );
        assert_eq!(
            plan("vector(16, 8, 64, byte)"),
            ("strided".to_string(), true)
        );
    }

    #[test]
    fn measure_cell_reproduces_the_paper_status_quo() {
        let pattern = "vector(64, 8, 256, byte)".parse().unwrap();
        let cell = &Cell::of(Platform::Summit, pattern, 1).unwrap();
        let off = measure_cell(cell, &Side::System, false).unwrap();
        let on = measure_cell(cell, &Side::tempi(), false).unwrap();
        for t in [&off, &on] {
            assert!(
                t.ddt_ns > 0.0 && t.pack_send_ns > 0.0 && t.naive_ns > 0.0,
                "{t:?}"
            );
        }
        // TEMPI's typed send satisfies both guidelines on this cell:
        // no slower than pack-then-send, faster than the naive loop
        assert!(on.ddt_ns <= on.pack_send_ns * 1.10, "{on:?}");
        assert!(on.ddt_ns < on.naive_ns, "{on:?}");
        // and it beats the vendor's typed path (the paper's headline)
        assert!(on.ddt_ns < off.ddt_ns, "on {on:?} vs off {off:?}");
        // typed-only measurement returns the same typed time, cheaper
        let typed = measure_cell(cell, &Side::tempi(), true).unwrap();
        assert_eq!(typed.ddt_ns, on.ddt_ns);
    }
}
