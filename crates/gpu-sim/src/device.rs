//! Simulated device descriptions.
//!
//! A [`DeviceProps`] captures the architectural limits and headline rates of
//! one GPU model. Two presets match the paper's evaluation platforms
//! (Table 1): an NVIDIA V100 (OLCF Summit node) and a GTX 1070 (the
//! single-node openmpi/mvapich workstation).

/// Architectural description of a simulated GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProps {
    /// Marketing name, e.g. `"Tesla V100-SXM2-16GB"`.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// Threads per warp (32 on all NVIDIA parts).
    pub warp_size: u32,
    /// Maximum threads per block (1024 on all recent parts).
    pub max_threads_per_block: u32,
    /// Maximum block dimension in x, y, z.
    pub max_block_dim: [u32; 3],
    /// Maximum grid dimension in x, y, z.
    pub max_grid_dim: [u32; 3],
    /// Total device (global) memory in bytes.
    pub global_mem_bytes: usize,
    /// Peak global-memory bandwidth, bytes per nanosecond (== GB/s × 1e9/1e9,
    /// i.e. numerically GB/s with GB = 1e9).
    pub mem_bandwidth_bpns: f64,
    /// Host link (PCIe / NVLink) bandwidth per direction, bytes per ns.
    pub host_link_bpns: f64,
    /// Size of one global-memory transaction in bytes (coalescing granule).
    pub transaction_bytes: usize,
}

impl DeviceProps {
    /// NVIDIA Tesla V100 as deployed in an OLCF Summit node (NVLink2 to the
    /// POWER9 host: 50 GB/s per direction per GPU; 900 GB/s HBM2).
    pub fn v100() -> Self {
        DeviceProps {
            name: "Tesla V100-SXM2-16GB".to_string(),
            sm_count: 80,
            warp_size: 32,
            max_threads_per_block: 1024,
            max_block_dim: [1024, 1024, 64],
            max_grid_dim: [2_147_483_647, 65_535, 65_535],
            global_mem_bytes: 16 * (1 << 30),
            mem_bandwidth_bpns: 900.0,
            host_link_bpns: 50.0,
            transaction_bytes: 32,
        }
    }

    /// NVIDIA GTX 1070 (the paper's openmpi/mvapich workstation platform;
    /// PCIe 3.0 x16 host link, GDDR5).
    pub fn gtx1070() -> Self {
        DeviceProps {
            name: "GeForce GTX 1070".to_string(),
            sm_count: 15,
            warp_size: 32,
            max_threads_per_block: 1024,
            max_block_dim: [1024, 1024, 64],
            max_grid_dim: [2_147_483_647, 65_535, 65_535],
            global_mem_bytes: 8 * (1 << 30),
            mem_bandwidth_bpns: 256.0,
            host_link_bpns: 12.0,
            transaction_bytes: 32,
        }
    }

    /// Validate a launch geometry against this device's limits.
    ///
    /// Returns a human-readable reason on failure, mirroring
    /// `cudaErrorInvalidConfiguration`.
    pub fn validate_launch(
        &self,
        grid: crate::kernel::Dim3,
        block: crate::kernel::Dim3,
    ) -> Result<(), String> {
        let threads = block.x as u64 * block.y as u64 * block.z as u64;
        if threads == 0 {
            return Err("block has zero threads".to_string());
        }
        if threads > self.max_threads_per_block as u64 {
            return Err(format!(
                "block of {threads} threads exceeds limit of {}",
                self.max_threads_per_block
            ));
        }
        for (i, (&d, &lim)) in [block.x, block.y, block.z]
            .iter()
            .zip(self.max_block_dim.iter())
            .enumerate()
        {
            if d > lim {
                return Err(format!("block dim {i} = {d} exceeds limit {lim}"));
            }
        }
        if grid.x == 0 || grid.y == 0 || grid.z == 0 {
            return Err("grid has a zero dimension".to_string());
        }
        for (i, (&d, &lim)) in [grid.x, grid.y, grid.z]
            .iter()
            .zip(self.max_grid_dim.iter())
            .enumerate()
        {
            if d > lim {
                return Err(format!("grid dim {i} = {d} exceeds limit {lim}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Dim3;

    #[test]
    fn presets_have_sane_limits() {
        for d in [DeviceProps::v100(), DeviceProps::gtx1070()] {
            assert_eq!(d.warp_size, 32);
            assert_eq!(d.max_threads_per_block, 1024);
            assert!(d.mem_bandwidth_bpns > d.host_link_bpns);
            assert_eq!(d.transaction_bytes, 32);
        }
    }

    #[test]
    fn launch_validation_accepts_typical_geometry() {
        let d = DeviceProps::v100();
        assert!(d
            .validate_launch(Dim3::new(1024, 13, 47), Dim3::new(256, 4, 1))
            .is_ok());
    }

    #[test]
    fn launch_validation_rejects_oversized_block() {
        let d = DeviceProps::v100();
        let err = d
            .validate_launch(Dim3::new(1, 1, 1), Dim3::new(1024, 2, 1))
            .unwrap_err();
        assert!(err.contains("2048 threads"), "{err}");
    }

    #[test]
    fn launch_validation_rejects_zero_dims() {
        let d = DeviceProps::v100();
        assert!(d
            .validate_launch(Dim3::new(0, 1, 1), Dim3::new(32, 1, 1))
            .is_err());
        assert!(d
            .validate_launch(Dim3::new(1, 1, 1), Dim3::new(0, 1, 1))
            .is_err());
    }

    #[test]
    fn launch_validation_rejects_oversized_block_z() {
        let d = DeviceProps::v100();
        // z block dimension limit is 64
        assert!(d
            .validate_launch(Dim3::new(1, 1, 1), Dim3::new(1, 1, 128))
            .is_err());
    }

    #[test]
    fn launch_validation_rejects_oversized_grid_y() {
        let d = DeviceProps::v100();
        assert!(d
            .validate_launch(Dim3::new(1, 70_000, 1), Dim3::new(32, 1, 1))
            .is_err());
    }
}
