//! GPU device specifications.
//!
//! The presets mirror the paper's evaluation platforms (Sec. 6.1 and 6.4):
//! a single RTX 4090 as the primary edge device, with RTX 4070 Ti and
//! RTX 3070 Ti for the constrained-hardware study (Fig. 15), plus a
//! datacenter A100 used only as the cloud reference point in Fig. 1.

use serde::{Deserialize, Serialize};

use crate::units::GIB;

/// Broad deployment class of a device, used for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceClass {
    /// Consumer / edge GPU (the paper's target).
    Edge,
    /// Datacenter GPU (cloud reference only).
    Cloud,
}

impl std::fmt::Display for DeviceClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceClass::Edge => write!(f, "edge"),
            DeviceClass::Cloud => write!(f, "cloud"),
        }
    }
}

/// Specification of a single GPU.
///
/// Peak numbers are dense BF16/FP16 tensor-core throughput; achievable
/// fractions are modeled separately by the kernel-efficiency factors so
/// that the roofline stays honest about real transformer kernels.
///
/// # Example
///
/// ```
/// use ftts_hw::GpuDevice;
/// let dev = GpuDevice::rtx4090();
/// assert_eq!(dev.vram_bytes, 24 * (1u64 << 30));
/// assert!(dev.effective_flops() < dev.peak_flops);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuDevice {
    /// Marketing name, e.g. `"RTX 4090"`.
    pub name: String,
    /// Deployment class.
    pub class: DeviceClass,
    /// Peak dense BF16 tensor throughput, in FLOP/s.
    pub peak_flops: f64,
    /// Peak memory bandwidth, in bytes/s.
    pub mem_bandwidth: f64,
    /// Total VRAM, in bytes.
    pub vram_bytes: u64,
    /// Effective host link (PCIe) bandwidth for offloading, in bytes/s.
    pub pcie_bandwidth: f64,
    /// Fraction of peak compute achievable by fused transformer kernels.
    pub compute_efficiency: f64,
    /// Fraction of peak bandwidth achievable by streaming kernels.
    pub bandwidth_efficiency: f64,
}

impl GpuDevice {
    /// NVIDIA GeForce RTX 4090 (24 GB) — the paper's primary platform.
    pub fn rtx4090() -> Self {
        Self {
            name: "RTX 4090".to_string(),
            class: DeviceClass::Edge,
            peak_flops: 165.2e12,
            mem_bandwidth: 1008.0e9,
            vram_bytes: 24 * GIB,
            pcie_bandwidth: 22.0e9,
            compute_efficiency: 0.55,
            bandwidth_efficiency: 0.80,
        }
    }

    /// NVIDIA GeForce RTX 4070 Ti (12 GB) — constrained-hardware study.
    pub fn rtx4070ti() -> Self {
        Self {
            name: "RTX 4070 Ti".to_string(),
            class: DeviceClass::Edge,
            peak_flops: 80.1e12,
            mem_bandwidth: 504.2e9,
            vram_bytes: 12 * GIB,
            pcie_bandwidth: 22.0e9,
            compute_efficiency: 0.55,
            bandwidth_efficiency: 0.80,
        }
    }

    /// NVIDIA GeForce RTX 3070 Ti (8 GB) — the most constrained device;
    /// the paper enables KV offloading here (Fig. 15).
    pub fn rtx3070ti() -> Self {
        Self {
            name: "RTX 3070 Ti".to_string(),
            class: DeviceClass::Edge,
            peak_flops: 43.5e12,
            mem_bandwidth: 608.3e9,
            vram_bytes: 8 * GIB,
            pcie_bandwidth: 12.0e9,
            compute_efficiency: 0.50,
            bandwidth_efficiency: 0.78,
        }
    }

    /// NVIDIA Jetson AGX Orin (64 GB, unified) — embedded-edge class
    /// for heterogeneous-fleet studies. The Ampere iGPU peaks around
    /// 10.6 dense BF16 TFLOPS with 204.8 GB/s LPDDR5; the "PCIe" link
    /// models the effective host-copy path through the unified memory
    /// controller.
    pub fn jetson_orin() -> Self {
        Self {
            name: "Jetson AGX Orin".to_string(),
            class: DeviceClass::Edge,
            peak_flops: 10.6e12,
            mem_bandwidth: 204.8e9,
            vram_bytes: 32 * GIB,
            pcie_bandwidth: 10.0e9,
            compute_efficiency: 0.45,
            bandwidth_efficiency: 0.72,
        }
    }

    /// NVIDIA A100-SXM4-80GB — cloud reference for Fig. 1.
    pub fn a100_80g() -> Self {
        Self {
            name: "A100 80GB".to_string(),
            class: DeviceClass::Cloud,
            peak_flops: 312.0e12,
            mem_bandwidth: 2039.0e9,
            vram_bytes: 80 * GIB,
            pcie_bandwidth: 55.0e9,
            compute_efficiency: 0.55,
            bandwidth_efficiency: 0.82,
        }
    }

    /// All edge presets evaluated by the paper, largest first.
    pub fn edge_presets() -> Vec<Self> {
        vec![Self::rtx4090(), Self::rtx4070ti(), Self::rtx3070ti()]
    }

    /// Achievable compute throughput (`peak_flops * compute_efficiency`).
    pub fn effective_flops(&self) -> f64 {
        self.peak_flops * self.compute_efficiency
    }

    /// Achievable memory bandwidth
    /// (`mem_bandwidth * bandwidth_efficiency`).
    pub fn effective_bandwidth(&self) -> f64 {
        self.mem_bandwidth * self.bandwidth_efficiency
    }

    /// Time to move `bytes` across the host link (used by KV offloading).
    pub fn pcie_transfer_seconds(&self, bytes: u64) -> f64 {
        bytes as f64 / self.pcie_bandwidth
    }
}

impl std::fmt::Display for GpuDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({:.0} GB, {:.0} TFLOPS, {:.0} GB/s)",
            self.name,
            self.vram_bytes as f64 / GIB as f64,
            self.peak_flops / 1e12,
            self.mem_bandwidth / 1e9
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_vram_ordering() {
        let devices = GpuDevice::edge_presets();
        assert_eq!(devices.len(), 3);
        for pair in devices.windows(2) {
            assert!(pair[0].vram_bytes > pair[1].vram_bytes);
        }
    }

    /// Machine balance in FLOPs per byte: operational intensities
    /// above it are compute-bound on `dev`.
    fn ridge_point(dev: &GpuDevice) -> f64 {
        dev.effective_flops() / dev.effective_bandwidth()
    }

    #[test]
    fn ridge_point_is_positive_and_finite() {
        for dev in GpuDevice::edge_presets() {
            assert!(ridge_point(&dev) > 0.0);
            assert!(ridge_point(&dev).is_finite());
        }
    }

    #[test]
    fn efficiency_factors_reduce_peaks() {
        let dev = GpuDevice::rtx4090();
        assert!(dev.effective_flops() < dev.peak_flops);
        assert!(dev.effective_bandwidth() < dev.mem_bandwidth);
    }

    #[test]
    fn pcie_transfer_scales_linearly() {
        let dev = GpuDevice::rtx3070ti();
        let one = dev.pcie_transfer_seconds(1_000_000_000);
        let two = dev.pcie_transfer_seconds(2_000_000_000);
        assert!((two - 2.0 * one).abs() < 1e-12);
    }

    #[test]
    fn cloud_devices_are_classed_cloud() {
        assert_eq!(GpuDevice::a100_80g().class, DeviceClass::Cloud);
        assert_eq!(GpuDevice::rtx4090().class, DeviceClass::Edge);
    }

    #[test]
    fn jetson_orin_is_the_slowest_edge_part() {
        let orin = GpuDevice::jetson_orin();
        assert_eq!(orin.class, DeviceClass::Edge);
        for dev in GpuDevice::edge_presets() {
            assert!(orin.effective_flops() < dev.effective_flops());
            assert!(orin.effective_bandwidth() < dev.effective_bandwidth());
        }
        assert!(ridge_point(&orin) > 0.0 && ridge_point(&orin).is_finite());
    }

    #[test]
    fn display_mentions_name() {
        let s = GpuDevice::rtx4070ti().to_string();
        assert!(s.contains("RTX 4070 Ti"));
        assert_eq!(DeviceClass::Edge.to_string(), "edge");
    }
}
