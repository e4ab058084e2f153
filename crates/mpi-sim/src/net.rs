//! Inter-rank network timing model.
//!
//! Encodes the paper's Fig. 8a raw measurements on Summit as model
//! parameters:
//!
//! * CPU–CPU `MPI_Send`/`MPI_Recv` between nodes: **2.2 µs** latency floor;
//! * CUDA-aware GPU–GPU transfers: **≈ 11 µs** floor ("almost exactly
//!   equals the floor for CUDA device-to-host and host-to-device
//!   transfers");
//! * bandwidths chosen so the modeled curves cross where the paper's do.
//!
//! Transfers are point-to-point with a LogGP-style cost
//! `arrival = depart + floor + bytes / bandwidth`; rank-to-node placement
//! decides intra- vs inter-node parameters.

use gpu_sim::{MemSpace, SimTime};

/// Which transport a message uses, decided by the endpoint buffer spaces
/// (CUDA-aware MPI takes the GPU path if either endpoint is device memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// Both endpoints in host memory.
    Cpu,
    /// At least one endpoint in device memory (CUDA-aware path).
    Gpu,
}

impl Transport {
    /// Transport for a transfer between buffers in the given spaces.
    pub fn for_spaces(a: MemSpace, b: MemSpace) -> Transport {
        if a == MemSpace::Device || b == MemSpace::Device {
            Transport::Gpu
        } else {
            Transport::Cpu
        }
    }
}

/// Latency/bandwidth parameters of the simulated fabric.
#[derive(Debug, Clone, PartialEq)]
pub struct NetModel {
    /// Ranks per node (Summit: 6 GPUs/node; experiments in the paper place
    /// the two ping-pong ranks on *different* nodes).
    pub ranks_per_node: usize,
    /// CPU-path latency floor between nodes (2.2 µs on Summit).
    pub cpu_latency_inter: SimTime,
    /// CPU-path latency floor within a node.
    pub cpu_latency_intra: SimTime,
    /// CPU-path bandwidth between nodes, bytes/ns.
    pub cpu_bw_inter_bpns: f64,
    /// CPU-path bandwidth within a node, bytes/ns.
    pub cpu_bw_intra_bpns: f64,
    /// GPU-path (CUDA-aware) latency floor between nodes (≈ 11 µs).
    pub gpu_latency_inter: SimTime,
    /// GPU-path latency floor within a node.
    pub gpu_latency_intra: SimTime,
    /// GPU-path bandwidth between nodes, bytes/ns — the *pre-pipelining*
    /// rate that applies up to [`NetModel::gpu_pipeline_threshold`].
    pub gpu_bw_inter_bpns: f64,
    /// Message size at which the CUDA-aware path starts pipelining its
    /// staging with the wire (Fig. 8a: the gpu-gpu vs cpu-cpu gap is
    /// *largest* at ~1 MiB, then stops growing).
    pub gpu_pipeline_threshold: usize,
    /// GPU-path bandwidth beyond the threshold, bytes/ns.
    pub gpu_bw_pipelined_bpns: f64,
    /// GPU-path bandwidth within a node (NVLink), bytes/ns.
    pub gpu_bw_intra_bpns: f64,
    /// Sender-side CPU overhead per send (o_s).
    pub send_overhead: SimTime,
    /// Receiver-side CPU overhead per matched receive (o_r).
    pub recv_overhead: SimTime,
    /// Cost of a barrier release beyond waiting for the slowest rank.
    pub barrier_cost: SimTime,
}

impl NetModel {
    /// OLCF Summit: dual-rail EDR InfiniBand between nodes, NVLink2 within.
    pub fn summit() -> Self {
        NetModel {
            ranks_per_node: 6,
            cpu_latency_inter: SimTime::from_ns(2200),
            cpu_latency_intra: SimTime::from_ns(800),
            cpu_bw_inter_bpns: 12.5,
            cpu_bw_intra_bpns: 30.0,
            gpu_latency_inter: SimTime::from_us(11),
            gpu_latency_intra: SimTime::from_us(10),
            // CUDA-aware GPU-GPU transfers move markedly less data per
            // second than CPU-CPU on Summit (Fig. 8a/8b: T_gpu-gpu exceeds
            // T_cpu-cpu by ~80+ µs around 1 MiB) — this asymmetry is what
            // gives the one-shot method its winning region.
            gpu_bw_inter_bpns: 6.0,
            gpu_pipeline_threshold: 1 << 20,
            gpu_bw_pipelined_bpns: 12.5,
            gpu_bw_intra_bpns: 50.0,
            send_overhead: SimTime::from_ns(200),
            recv_overhead: SimTime::from_ns(200),
            barrier_cost: SimTime::from_us(3),
        }
    }

    /// Single-node workstation (the paper's openmpi/mvapich platform): all
    /// ranks share one node; "inter-node" parameters are never exercised
    /// but set to the intra values for safety.
    pub fn workstation() -> Self {
        NetModel {
            ranks_per_node: usize::MAX,
            cpu_latency_inter: SimTime::from_ns(600),
            cpu_latency_intra: SimTime::from_ns(600),
            cpu_bw_inter_bpns: 20.0,
            cpu_bw_intra_bpns: 20.0,
            gpu_latency_inter: SimTime::from_us(9),
            gpu_latency_intra: SimTime::from_us(9),
            gpu_bw_inter_bpns: 10.0,
            gpu_pipeline_threshold: 1 << 20,
            gpu_bw_pipelined_bpns: 10.0,
            gpu_bw_intra_bpns: 10.0,
            send_overhead: SimTime::from_ns(150),
            recv_overhead: SimTime::from_ns(150),
            barrier_cost: SimTime::from_us(2),
        }
    }

    /// Node index of a rank.
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.ranks_per_node.max(1)
    }

    /// Are two ranks on the same node?
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// Fixed virtual-time cost of one completed agreement
    /// ([`RankCtx::agree`](crate::RankCtx::agree)): two barrier-equivalents,
    /// one to gather the members' values and failure sets and one to flood
    /// the decision. Charged
    /// once per agreement regardless of how many coordinator candidates
    /// were tried, so virtual time stays independent of wall-clock races
    /// in the protocol.
    pub fn agree_cost(&self) -> SimTime {
        self.barrier_cost * 2
    }

    /// Wire time of one message: latency floor plus serialization.
    pub fn transfer_time(
        &self,
        bytes: usize,
        transport: Transport,
        src: usize,
        dst: usize,
    ) -> SimTime {
        self.latency(transport, src, dst) + self.serialization_time(bytes, transport, src, dst)
    }

    /// The latency floor of [`NetModel::transfer_time`]: what a message
    /// pays once, however many bytes follow.
    pub fn latency(&self, transport: Transport, src: usize, dst: usize) -> SimTime {
        if src == dst {
            // self-message: a memcpy, no fabric
            return SimTime::ZERO;
        }
        match (transport, self.same_node(src, dst)) {
            (Transport::Cpu, false) => self.cpu_latency_inter,
            (Transport::Cpu, true) => self.cpu_latency_intra,
            (Transport::Gpu, false) => self.gpu_latency_inter,
            (Transport::Gpu, true) => self.gpu_latency_intra,
        }
    }

    /// The bandwidth term of [`NetModel::transfer_time`]: how long `bytes`
    /// occupy the link. Parts of one pipelined transfer share the link, so
    /// they queue on this term (and only on this term) one after another.
    pub fn serialization_time(
        &self,
        bytes: usize,
        transport: Transport,
        src: usize,
        dst: usize,
    ) -> SimTime {
        if src == dst {
            return SimTime::from_ns_f64(bytes as f64 / self.cpu_bw_intra_bpns);
        }
        let bw = match (transport, self.same_node(src, dst)) {
            (Transport::Gpu, false) => {
                // CUDA-aware inter-node: slow staging rate up to the pipeline
                // threshold, pipelined wire rate beyond it.
                let head = bytes.min(self.gpu_pipeline_threshold) as f64;
                let tail = bytes.saturating_sub(self.gpu_pipeline_threshold) as f64;
                return SimTime::from_ns_f64(
                    head / self.gpu_bw_inter_bpns + tail / self.gpu_bw_pipelined_bpns,
                );
            }
            (Transport::Cpu, false) => self.cpu_bw_inter_bpns,
            (Transport::Cpu, true) => self.cpu_bw_intra_bpns,
            (Transport::Gpu, true) => self.gpu_bw_intra_bpns,
        };
        SimTime::from_ns_f64(bytes as f64 / bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_floor_is_2_2us() {
        let n = NetModel::summit();
        let t = n.transfer_time(1, Transport::Cpu, 0, 6); // different nodes
        assert!((t.as_us_f64() - 2.2).abs() < 0.01, "{t}");
    }

    #[test]
    fn gpu_floor_is_11us() {
        let n = NetModel::summit();
        let t = n.transfer_time(1, Transport::Gpu, 0, 6);
        assert!((t.as_us_f64() - 11.0).abs() < 0.01, "{t}");
    }

    #[test]
    fn bandwidth_term_dominates_large_messages() {
        let n = NetModel::summit();
        let t = n.transfer_time(64 << 20, Transport::Cpu, 0, 6);
        // 64 MiB / 12.5 B/ns ≈ 5.37 ms
        assert!(t.as_secs_f64() > 5e-3 && t.as_secs_f64() < 6e-3, "{t}");
    }

    #[test]
    fn node_placement() {
        let n = NetModel::summit();
        assert!(n.same_node(0, 5));
        assert!(!n.same_node(5, 6));
        assert_eq!(n.node_of(13), 2);
    }

    #[test]
    fn intra_node_is_faster() {
        let n = NetModel::summit();
        let intra = n.transfer_time(1 << 20, Transport::Gpu, 0, 1);
        let inter = n.transfer_time(1 << 20, Transport::Gpu, 0, 6);
        assert!(intra < inter);
    }

    #[test]
    fn self_transfer_has_no_floor() {
        let n = NetModel::summit();
        let t = n.transfer_time(0, Transport::Cpu, 3, 3);
        assert_eq!(t, SimTime::ZERO);
    }

    #[test]
    fn transport_selection() {
        use MemSpace::*;
        assert_eq!(Transport::for_spaces(Device, Device), Transport::Gpu);
        assert_eq!(Transport::for_spaces(Device, Host), Transport::Gpu);
        assert_eq!(Transport::for_spaces(Mapped, Pinned), Transport::Cpu);
        assert_eq!(Transport::for_spaces(Host, Host), Transport::Cpu);
    }

    #[test]
    fn workstation_is_single_node() {
        let n = NetModel::workstation();
        assert!(n.same_node(0, 63));
    }
}
