//! TEMPI runtime configuration.
//!
//! The real library is configured through environment variables; here the
//! same switches are a plain struct so experiments and ablations can set
//! them programmatically and deterministically.

use serde::{Deserialize, Serialize};
use tempi_trace::TraceLevel;

/// Which Section-5 communication method a datatype send uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    /// Pack to an intermediate *device* buffer, CUDA-aware send,
    /// device unpack (Eq. 1).
    Device,
    /// Pack directly into *mapped host* memory, CPU send, unpack from
    /// mapped memory (Eq. 2) — the method prior work preferred.
    OneShot,
    /// Device pack, explicit D2H, CPU send, H2D, device unpack (Eq. 3);
    /// never competitive per Fig. 8b, included for completeness.
    Staged,
    /// The §8 extension: the staged composition executed in chunks so the
    /// pack kernels, the PCIe/NVLink copies, the wire, and the unpack
    /// kernels all overlap. The model picks it, and its chunk size, where
    /// it wins (large objects); [`TempiConfig::pipeline_chunk`] pins the
    /// chunk.
    Pipelined,
}

impl Method {
    /// Every method, most GPU-dependent first: the order the degradation
    /// ladder steps down in after a transient fault, and the order in
    /// which the model breaks ties.
    pub const LADDER: [Method; 4] = [
        Method::Pipelined,
        Method::Device,
        Method::OneShot,
        Method::Staged,
    ];
}

/// How the per-send method decision is made.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TunerMode {
    /// Legacy behavior: evaluate the §5 analytical model from scratch on
    /// every send. No memoization, no measurement.
    Off,
    /// Memoize the analytical model's decision per (shape, size, peer)
    /// bucket. Identical choices to `Off`, amortized lookup cost. The
    /// default.
    #[default]
    Model,
    /// Full online calibration: virtual-time measurements of pack, copy
    /// and wire stages EWMA-correct the model's constants per bucket, and
    /// the memoized choice is revisited epsilon-greedily under a seeded
    /// RNG. The candidate set is the same as in the other modes.
    Online,
}

/// TEMPI configuration switches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TempiConfig {
    /// Run the canonicalization fixed point (Alg. 5) at commit. Disabling
    /// this is the canonicalization ablation: kernels are parameterized by
    /// the *raw translated* tree, so equivalent constructions stop being
    /// treated equally.
    pub canonicalize: bool,
    /// Force the kernel word size `W` (the word-size ablation).
    pub force_word: Option<usize>,
    /// Force the send method instead of consulting the performance model
    /// (the method-selection ablation).
    pub force_method: Option<Method>,
    /// Use the DMA engine (`cudaMemcpy2DAsync` / `cudaMemcpy3DAsync`)
    /// instead of the 2-D/3-D kernels where applicable (paper §8 future
    /// work: "CUDA provides native APIs to handle 2D and 3D objects using
    /// the DMA engine").
    pub use_dma: bool,
    /// Translate top-level `MPI_Type_create_struct` to a block list served
    /// by the block-list kernel instead of falling back to copy-per-block
    /// (paper §8 future work: "extended to cover indexed and struct types
    /// with some additional kernels").
    pub extend_struct: bool,
    /// Chunk size in bytes for pipelined sends (paper §8 future work:
    /// "prior work also suggests that pipelining packing operations with
    /// MPI send operations is optimal"), replacing the one the model picks
    /// from its candidate table. Whether a send is pipelined at all stays
    /// the model's decision (or [`TempiConfig::force_method`]'s). A
    /// pipelined transfer arrives as tagged parts; any matching receive
    /// reassembles them, TEMPI's own overlaps the unpack with the wire.
    pub pipeline_chunk: Option<usize>,
    /// Take a coordinated checkpoint every N halo-exchange iterations
    /// (`None` disables checkpointing). Snapshots are packed with the
    /// interposed `MPI_Pack`, framed with a content checksum, mirrored at
    /// a buddy rank, and committed with a two-phase generation protocol so
    /// recovery can rebuild dead ranks' subdomains without re-running.
    pub checkpoint_every: Option<usize>,
    /// How the per-send method decision is made: fresh model evaluation
    /// (`Off`), memoized model decision (`Model`, default), or online
    /// calibration with epsilon-greedy re-probing (`Online`).
    pub tuner: TunerMode,
    /// Seed for the tuner's exploration RNG. Same seed + same fault-free
    /// world ⇒ identical method sequence, so tuned runs replay exactly.
    pub tuner_seed: u64,
    /// Observability level (`TEMPI_TRACE`): `Off` keeps every tracer call
    /// a single branch, `Spans` records begin/end/GPU-complete events,
    /// `Full` adds per-call instants (tuner decisions, pool takes, wire
    /// departures) and live metrics. The level here configures the tracer
    /// the harness builds; the library itself only consults the
    /// [`tempi_trace::Tracer`] handed to each rank.
    pub trace: TraceLevel,
    /// Relative slack the performance-guidelines gate (`check_guidelines`)
    /// allows before a Hunold/Träff guideline counts as violated
    /// (`TEMPI_GUIDELINE_TOL`): a derived-datatype send may be up to
    /// `1 + guideline_tol` times slower than the pack-then-send / naive
    /// reference before G1/G2 flag it. The default 0.10 absorbs modeling
    /// asymmetries between the composed and fused paths (an extra
    /// dispatch, one barrier's skew) while catching method-choice
    /// regressions, which move cells by integer factors.
    pub guideline_tol: f64,
}

impl Default for TempiConfig {
    fn default() -> Self {
        TempiConfig {
            canonicalize: true,
            force_word: None,
            force_method: None,
            use_dma: false,
            extend_struct: false,
            pipeline_chunk: None,
            checkpoint_every: None,
            tuner: TunerMode::Model,
            tuner_seed: 0x7e3a_11c5,
            trace: TraceLevel::Off,
            guideline_tol: 0.10,
        }
    }
}

impl TempiConfig {
    /// Build a configuration from `TEMPI_*` environment variables, the way
    /// the real library is configured on a cluster where the application
    /// binary cannot be modified:
    ///
    /// | variable | effect |
    /// |---|---|
    /// | `TEMPI_NO_CANONICALIZE=1` | skip Algorithms 5–7 |
    /// | `TEMPI_FORCE_WORD=N` | force kernel word size (1/2/4/8/16) |
    /// | `TEMPI_METHOD=device\|oneshot\|staged\|pipelined` | force the §5 method |
    /// | `TEMPI_USE_DMA=1` | use the 2-D/3-D DMA engine where applicable |
    /// | `TEMPI_EXTEND_STRUCT=1` | enable the §8 struct block-list extension |
    /// | `TEMPI_PIPELINE_CHUNK=BYTES` | chunk size of pipelined sends (default: the model's pick) |
    /// | `TEMPI_CHECKPOINT_EVERY=N` | coordinated checkpoint every N iterations |
    /// | `TEMPI_TUNER=off\|model\|online` | method decision mode (default `model`) |
    /// | `TEMPI_TUNER_SEED=N` | seed for the tuner's exploration RNG |
    /// | `TEMPI_TRACE=off\|spans\|full` | observability level (default `off`) |
    /// | `TEMPI_GUIDELINE_TOL=F` | relative slack of the performance-guidelines gate (default `0.10`) |
    ///
    /// Unknown or malformed values are rejected with a message naming the
    /// variable, rather than silently ignored.
    pub fn from_env() -> Result<Self, String> {
        let mut cfg = TempiConfig::default();
        let flag = |name: &str| -> bool {
            std::env::var(name).is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
        };
        cfg.canonicalize = !flag("TEMPI_NO_CANONICALIZE");
        cfg.use_dma = flag("TEMPI_USE_DMA");
        cfg.extend_struct = flag("TEMPI_EXTEND_STRUCT");
        if let Ok(v) = std::env::var("TEMPI_FORCE_WORD") {
            let w: usize = v
                .parse()
                .map_err(|_| format!("TEMPI_FORCE_WORD must be an integer, got `{v}`"))?;
            if ![1, 2, 4, 8, 16].contains(&w) {
                return Err(format!("TEMPI_FORCE_WORD must be 1/2/4/8/16, got {w}"));
            }
            cfg.force_word = Some(w);
        }
        if let Ok(v) = std::env::var("TEMPI_METHOD") {
            cfg.force_method = Some(match v.to_ascii_lowercase().as_str() {
                "device" => Method::Device,
                "oneshot" | "one-shot" => Method::OneShot,
                "staged" => Method::Staged,
                "pipelined" => Method::Pipelined,
                other => {
                    return Err(format!(
                        "TEMPI_METHOD must be device/oneshot/staged/pipelined, got `{other}`"
                    ))
                }
            });
        }
        if let Ok(v) = std::env::var("TEMPI_PIPELINE_CHUNK") {
            let c: usize = v
                .parse()
                .map_err(|_| format!("TEMPI_PIPELINE_CHUNK must be bytes, got `{v}`"))?;
            if c == 0 {
                return Err("TEMPI_PIPELINE_CHUNK must be positive".to_string());
            }
            cfg.pipeline_chunk = Some(c);
        }
        if let Ok(v) = std::env::var("TEMPI_CHECKPOINT_EVERY") {
            let n: usize = v
                .parse()
                .map_err(|_| format!("TEMPI_CHECKPOINT_EVERY must be an integer, got `{v}`"))?;
            if n == 0 {
                return Err("TEMPI_CHECKPOINT_EVERY must be positive".to_string());
            }
            cfg.checkpoint_every = Some(n);
        }
        if let Ok(v) = std::env::var("TEMPI_TUNER") {
            cfg.tuner = match v.to_ascii_lowercase().as_str() {
                "off" => TunerMode::Off,
                "model" => TunerMode::Model,
                "online" => TunerMode::Online,
                other => {
                    return Err(format!(
                        "TEMPI_TUNER must be off/model/online, got `{other}`"
                    ))
                }
            };
        }
        if let Ok(v) = std::env::var("TEMPI_TUNER_SEED") {
            cfg.tuner_seed = v
                .parse()
                .map_err(|_| format!("TEMPI_TUNER_SEED must be an integer, got `{v}`"))?;
        }
        if let Ok(v) = std::env::var("TEMPI_TRACE") {
            cfg.trace = TraceLevel::parse(&v)?;
        }
        if let Ok(v) = std::env::var("TEMPI_GUIDELINE_TOL") {
            let tol: f64 = v
                .parse()
                .map_err(|_| format!("TEMPI_GUIDELINE_TOL must be a number, got `{v}`"))?;
            if !tol.is_finite() || !(0.0..1.0).contains(&tol) {
                return Err(format!("TEMPI_GUIDELINE_TOL must be in [0, 1), got {tol}"));
            }
            cfg.guideline_tol = tol;
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: env-var tests mutate process environment; they run in one test
    // to avoid interference under the parallel test runner.
    #[test]
    fn from_env_parses_and_validates() {
        // SAFETY: single-threaded within this test; keys are unique to it.
        unsafe {
            std::env::set_var("TEMPI_NO_CANONICALIZE", "1");
            std::env::set_var("TEMPI_FORCE_WORD", "8");
            std::env::set_var("TEMPI_METHOD", "oneshot");
            std::env::set_var("TEMPI_PIPELINE_CHUNK", "262144");
            std::env::set_var("TEMPI_CHECKPOINT_EVERY", "5");
            std::env::set_var("TEMPI_TUNER", "online");
            std::env::set_var("TEMPI_TUNER_SEED", "12345");
        }
        let cfg = TempiConfig::from_env().unwrap();
        assert!(!cfg.canonicalize);
        assert_eq!(cfg.force_word, Some(8));
        assert_eq!(cfg.force_method, Some(Method::OneShot));
        assert_eq!(cfg.pipeline_chunk, Some(262144));
        assert_eq!(cfg.checkpoint_every, Some(5));
        assert_eq!(cfg.tuner, TunerMode::Online);
        assert_eq!(cfg.tuner_seed, 12345);

        unsafe {
            std::env::set_var("TEMPI_TUNER", "clairvoyant");
        }
        let err = TempiConfig::from_env().unwrap_err();
        assert!(err.contains("TEMPI_TUNER"), "{err}");
        unsafe {
            std::env::set_var("TEMPI_TUNER", "model");
            std::env::set_var("TEMPI_TUNER_SEED", "not-a-number");
        }
        let err = TempiConfig::from_env().unwrap_err();
        assert!(err.contains("TEMPI_TUNER_SEED"), "{err}");
        unsafe {
            std::env::remove_var("TEMPI_TUNER");
            std::env::remove_var("TEMPI_TUNER_SEED");
        }

        unsafe {
            std::env::set_var("TEMPI_FORCE_WORD", "3");
        }
        let err = TempiConfig::from_env().unwrap_err();
        assert!(err.contains("TEMPI_FORCE_WORD"), "{err}");

        unsafe {
            std::env::set_var("TEMPI_FORCE_WORD", "8");
            std::env::set_var("TEMPI_CHECKPOINT_EVERY", "0");
        }
        let err = TempiConfig::from_env().unwrap_err();
        assert!(err.contains("TEMPI_CHECKPOINT_EVERY"), "{err}");
        unsafe {
            std::env::set_var("TEMPI_CHECKPOINT_EVERY", "soon");
        }
        let err = TempiConfig::from_env().unwrap_err();
        assert!(err.contains("TEMPI_CHECKPOINT_EVERY"), "{err}");
        unsafe {
            std::env::remove_var("TEMPI_CHECKPOINT_EVERY");
        }

        unsafe {
            std::env::set_var("TEMPI_FORCE_WORD", "8");
            std::env::set_var("TEMPI_METHOD", "warp-drive");
        }
        let err = TempiConfig::from_env().unwrap_err();
        assert!(err.contains("TEMPI_METHOD"), "{err}");

        // forced pipelining needs no chunk: the model supplies one
        unsafe {
            std::env::set_var("TEMPI_METHOD", "pipelined");
            std::env::remove_var("TEMPI_PIPELINE_CHUNK");
        }
        let cfg = TempiConfig::from_env().unwrap();
        assert_eq!(cfg.force_method, Some(Method::Pipelined));
        assert_eq!(cfg.pipeline_chunk, None);

        unsafe {
            std::env::set_var("TEMPI_METHOD", "device");
            std::env::set_var("TEMPI_TRACE", "full");
        }
        let cfg = TempiConfig::from_env().unwrap();
        assert_eq!(cfg.trace, TraceLevel::Full);
        unsafe {
            std::env::set_var("TEMPI_TRACE", "loud");
        }
        let err = TempiConfig::from_env().unwrap_err();
        assert!(err.contains("TEMPI_TRACE"), "{err}");
        unsafe {
            std::env::remove_var("TEMPI_TRACE");
        }

        unsafe {
            std::env::set_var("TEMPI_GUIDELINE_TOL", "0.05");
        }
        let cfg = TempiConfig::from_env().unwrap();
        assert!((cfg.guideline_tol - 0.05).abs() < 1e-12);
        for bad in ["snug", "-0.1", "1.5", "inf"] {
            unsafe {
                std::env::set_var("TEMPI_GUIDELINE_TOL", bad);
            }
            let err = TempiConfig::from_env().unwrap_err();
            assert!(err.contains("TEMPI_GUIDELINE_TOL"), "{bad}: {err}");
        }
        unsafe {
            std::env::remove_var("TEMPI_GUIDELINE_TOL");
        }

        unsafe {
            std::env::remove_var("TEMPI_NO_CANONICALIZE");
            std::env::remove_var("TEMPI_FORCE_WORD");
            std::env::remove_var("TEMPI_METHOD");
        }
        let cfg = TempiConfig::from_env().unwrap();
        assert_eq!(cfg, TempiConfig::default());
    }

    #[test]
    fn defaults_enable_the_paper_pipeline() {
        let c = TempiConfig::default();
        assert!(c.canonicalize);
        assert!(c.force_word.is_none());
        assert!(c.force_method.is_none());
        assert!(!c.use_dma);
        assert!(!c.extend_struct);
        assert!(c.pipeline_chunk.is_none());
        assert!(c.checkpoint_every.is_none());
        assert_eq!(c.tuner, TunerMode::Model);
        assert!((c.guideline_tol - 0.10).abs() < 1e-12);
    }
}
