//! TEMPI runtime configuration.
//!
//! The real library is configured through environment variables; here the
//! same switches are a plain struct so experiments and ablations can set
//! them programmatically and deterministically. The send methods live here
//! too, with what each one is, as data: [`Method`] and its [`Recipe`].

use gpu_sim::{MemSpace, PackTarget};
use mpi_sim::Transport;

/// Which Section-5 communication method a datatype send uses. What each one
/// does, stage by stage, is its [`Recipe`] ([`Method::recipe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Eq. 1: the packed object stays on the device and is sent CUDA-aware.
    Device,
    /// Eq. 2: packed straight into mapped host memory — the method prior
    /// work preferred.
    OneShot,
    /// Eq. 3: packed on the device and bounced through pinned host memory;
    /// never competitive per Fig. 8b, included for completeness.
    Staged,
    /// The §8 extension: the staged recipe executed in chunks, so that the
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

    /// What the method does with a packed object. The pipelined method is
    /// the staged recipe cut into chunks; the other three run it in one
    /// piece.
    pub const fn recipe(self) -> Recipe {
        let (pack, bounce, wire) = match self {
            Method::Device => (PackTarget::Device, false, Transport::Gpu),
            Method::OneShot => (PackTarget::MappedHost, false, Transport::Cpu),
            Method::Staged | Method::Pipelined => (PackTarget::Device, true, Transport::Cpu),
        };
        Recipe { pack, bounce, wire }
    }

    /// The one-piece method whose payload left a sender buffer in `space`
    /// ([`Recipe::wire_space`] read backwards): what a receiver unpacks a
    /// probed message with.
    pub fn landing(space: MemSpace) -> Method {
        match space {
            MemSpace::Device => Method::Device,
            MemSpace::Pinned => Method::Staged,
            _ => Method::OneShot,
        }
    }

    /// The name degradation events and trace arguments carry.
    pub fn name(self) -> &'static str {
        match self {
            Method::Device => "Device",
            Method::OneShot => "OneShot",
            Method::Staged => "Staged",
            Method::Pipelined => "Pipelined",
        }
    }
}

/// The one spelling table of `TEMPI_METHOD` and `tempi-cli send --method`:
/// `device`, `oneshot` (or `one-shot`), `staged`, `pipelined`, in any case.
impl std::str::FromStr for Method {
    type Err = String;

    fn from_str(s: &str) -> Result<Method, String> {
        match s.to_ascii_lowercase().as_str() {
            "device" => Ok(Method::Device),
            "oneshot" | "one-shot" => Ok(Method::OneShot),
            "staged" => Ok(Method::Staged),
            "pipelined" => Ok(Method::Pipelined),
            _ => Err(format!(
                "expected device, oneshot, one-shot, staged or pipelined, got `{s}`"
            )),
        }
    }
}

/// A send method as data ([`Method::recipe`] is the table): the one
/// description the send and receive executors ([`crate::tempi`]) walk stage
/// by stage and the §5 model ([`crate::model::SendModel::terms`]) prices
/// term by term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recipe {
    /// Memory the pack kernel writes and the unpack kernel reads.
    pub pack: PackTarget,
    /// Whether the packed bytes bounce through pinned host memory: an
    /// engine D2H copy before the wire, an H2D copy after it.
    pub bounce: bool,
    /// The system-MPI transport that carries them.
    pub wire: Transport,
}

impl Recipe {
    /// The space of the staging buffer the kernels work against.
    pub fn pack_space(self) -> MemSpace {
        match self.pack {
            PackTarget::Device => MemSpace::Device,
            PackTarget::MappedHost => MemSpace::Mapped,
        }
    }

    /// The space of the buffer handed to the system MPI.
    pub fn wire_space(self) -> MemSpace {
        if self.bounce {
            MemSpace::Pinned
        } else {
            self.pack_space()
        }
    }
}

/// How the per-send method decision is made.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum TunerMode {
    /// Legacy behavior: evaluate the §5 analytical model from scratch on
    /// every send. No memoization, no measurement.
    Off,
    /// Record the analytical model's decision per (shape, size, peer)
    /// bucket. The model is still evaluated on every send, so the choices
    /// and their cost are `Off`'s; the buckets only feed the
    /// `tuner_bucket_hits` / `tuner_method_switches` counters. The default.
    #[default]
    Model,
    /// Full online calibration: virtual-time measurements of pack, copy
    /// and wire stages EWMA-correct the model's constants per bucket, and
    /// the memoized choice is revisited epsilon-greedily under a seeded
    /// RNG. The candidate set is the same as in the other modes.
    Online,
}

/// The one spelling table of `TEMPI_TUNER` and `tempi-cli send --tuner`:
/// `off`, `model`, `online`, in any case.
impl std::str::FromStr for TunerMode {
    type Err = String;

    fn from_str(s: &str) -> Result<TunerMode, String> {
        match s.to_ascii_lowercase().as_str() {
            "off" => Ok(TunerMode::Off),
            "model" => Ok(TunerMode::Model),
            "online" => Ok(TunerMode::Online),
            _ => Err(format!("expected off, model or online, got `{s}`")),
        }
    }
}

/// TEMPI configuration switches.
#[derive(Debug, Clone, PartialEq)]
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
    /// Chunk size in bytes for pipelined sends (paper §8 future work:
    /// "prior work also suggests that pipelining packing operations with
    /// MPI send operations is optimal"), replacing the one the model picks
    /// from its candidate table. Whether a send is pipelined at all stays
    /// the model's decision (or [`TempiConfig::force_method`]'s). A
    /// pipelined transfer arrives as tagged parts; any matching receive
    /// reassembles them, TEMPI's own overlaps the unpack with the wire.
    pub pipeline_chunk: Option<usize>,
    /// How the per-send method decision is made: model evaluation alone
    /// (`Off`), the same with per-bucket bookkeeping (`Model`, default),
    /// or online calibration with epsilon-greedy re-probing (`Online`).
    pub tuner: TunerMode,
    /// Seed for the tuner's exploration RNG. Same seed + same fault-free
    /// world ⇒ identical method sequence, so tuned runs replay exactly.
    pub tuner_seed: u64,
}

impl Default for TempiConfig {
    fn default() -> Self {
        TempiConfig {
            canonicalize: true,
            force_word: None,
            force_method: None,
            pipeline_chunk: None,
            tuner: TunerMode::Model,
            tuner_seed: 0x7e3a_11c5,
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
    /// | `TEMPI_PIPELINE_CHUNK=BYTES` | chunk size of pipelined sends (default: the model's pick) |
    /// | `TEMPI_TUNER=off\|model\|online` | method decision mode (default `model`) |
    /// | `TEMPI_TUNER_SEED=N` | seed for the tuner's exploration RNG |
    ///
    /// Unknown or malformed values are rejected with a message naming the
    /// variable, rather than silently ignored.
    pub fn from_env() -> Result<Self, String> {
        Self::from_vars(|name| std::env::var(name).ok())
    }

    /// [`TempiConfig::from_env`] over any source of variables: `var`
    /// returns the value of a `TEMPI_*` name, or `None` when it is unset.
    pub fn from_vars(var: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let mut cfg = TempiConfig::default();
        let flag = |name: &str| -> bool {
            var(name).is_some_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
        };
        cfg.canonicalize = !flag("TEMPI_NO_CANONICALIZE");
        if let Some(v) = var("TEMPI_FORCE_WORD") {
            let w: usize = v
                .parse()
                .map_err(|_| format!("TEMPI_FORCE_WORD must be an integer, got `{v}`"))?;
            if ![1, 2, 4, 8, 16].contains(&w) {
                return Err(format!("TEMPI_FORCE_WORD must be 1/2/4/8/16, got {w}"));
            }
            cfg.force_word = Some(w);
        }
        if let Some(v) = var("TEMPI_METHOD") {
            cfg.force_method = Some(v.parse().map_err(|e| format!("TEMPI_METHOD: {e}"))?);
        }
        if let Some(v) = var("TEMPI_PIPELINE_CHUNK") {
            let c: usize = v
                .parse()
                .map_err(|_| format!("TEMPI_PIPELINE_CHUNK must be bytes, got `{v}`"))?;
            if c == 0 {
                return Err("TEMPI_PIPELINE_CHUNK must be positive".to_string());
            }
            cfg.pipeline_chunk = Some(c);
        }
        if let Some(v) = var("TEMPI_TUNER") {
            cfg.tuner = v.parse().map_err(|e| format!("TEMPI_TUNER: {e}"))?;
        }
        if let Some(v) = var("TEMPI_TUNER_SEED") {
            cfg.tuner_seed = v
                .parse()
                .map_err(|_| format!("TEMPI_TUNER_SEED must be an integer, got `{v}`"))?;
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse a configuration from exactly the variables in `set`.
    fn parse(set: &[(&str, &str)]) -> Result<TempiConfig, String> {
        TempiConfig::from_vars(|name| {
            set.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn from_vars_parses_every_variable() {
        let cfg = parse(&[
            ("TEMPI_NO_CANONICALIZE", "1"),
            ("TEMPI_FORCE_WORD", "8"),
            ("TEMPI_METHOD", "oneshot"),
            ("TEMPI_PIPELINE_CHUNK", "262144"),
            ("TEMPI_TUNER", "online"),
            ("TEMPI_TUNER_SEED", "12345"),
        ])
        .unwrap();
        assert!(!cfg.canonicalize);
        assert_eq!(cfg.force_word, Some(8));
        assert_eq!(cfg.force_method, Some(Method::OneShot));
        assert_eq!(cfg.pipeline_chunk, Some(262144));
        assert_eq!(cfg.tuner, TunerMode::Online);
        assert_eq!(cfg.tuner_seed, 12345);

        // forced pipelining needs no chunk: the model supplies one
        let cfg = parse(&[("TEMPI_METHOD", "pipelined")]).unwrap();
        assert_eq!(cfg.force_method, Some(Method::Pipelined));
        assert_eq!(cfg.pipeline_chunk, None);

        assert_eq!(parse(&[]).unwrap(), TempiConfig::default());
    }

    #[test]
    fn from_vars_rejects_malformed_values_naming_the_variable() {
        for (name, bad) in [
            ("TEMPI_TUNER", "clairvoyant"),
            ("TEMPI_TUNER_SEED", "not-a-number"),
            ("TEMPI_FORCE_WORD", "3"),
            ("TEMPI_FORCE_WORD", "wide"),
            ("TEMPI_PIPELINE_CHUNK", "0"),
            ("TEMPI_METHOD", "warp-drive"),
        ] {
            // a valid neighbour does not mask the bad one
            let err = parse(&[(name, bad), ("TEMPI_TUNER_SEED", "7")]).unwrap_err();
            assert!(err.contains(name), "{name}={bad}: {err}");
        }
    }

    #[test]
    fn recipes_invert_to_their_method_on_the_receiver() {
        for m in [Method::Device, Method::OneShot, Method::Staged] {
            assert_eq!(Method::landing(m.recipe().wire_space()), m);
        }
        // a pipelined transfer is the staged recipe, told apart by its parts
        assert_eq!(Method::Pipelined.recipe(), Method::Staged.recipe());
        for m in Method::LADDER {
            let r = m.recipe();
            assert_eq!(r.wire == Transport::Gpu, r.wire_space() == MemSpace::Device);
        }
    }

    #[test]
    fn defaults_enable_the_paper_pipeline() {
        // every settable value, by name: a new knob has to be written into
        // this pattern. Which combiners take the kernel path is not one —
        // struct and the indexed family do, always.
        let TempiConfig {
            canonicalize,
            force_word,
            force_method,
            pipeline_chunk,
            tuner,
            tuner_seed: _,
        } = TempiConfig::default();
        assert!(canonicalize);
        assert!(force_word.is_none());
        assert!(force_method.is_none());
        assert!(pipeline_chunk.is_none());
        assert_eq!(tuner, TunerMode::Model);
    }
}
