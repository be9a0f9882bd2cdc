//! The simulated device of the sharded engine and the inter-device
//! [`Interconnect`] link model.
//!
//! A [`SimDevice`] is one GPU of a multi-device solve as the cost model
//! sees it: the [`CostModel`] roofline of its [`DeviceSpec`], a PCIe-4
//! host link, and its own [`Timeline`]. It holds no data — the sharded
//! engine (`mf_solver::sharded`) keeps each shard's vectors on the host
//! and charges the device for every kernel, host transfer and wait, while
//! halo messages and reduction combines are priced on an [`Interconnect`].

use crate::cost::CostModel;
use crate::device::DeviceSpec;
use crate::timeline::{Phase, Timeline};

/// One simulated device: roofline pricing, a host link, a phase ledger.
#[derive(Clone, Debug)]
pub struct SimDevice {
    cost: CostModel,
    host_link: Interconnect,
    timeline: Timeline,
}

impl SimDevice {
    /// A simulated device modeling `spec`, with host transfers charged
    /// over PCIe 4.0.
    pub fn new(spec: DeviceSpec) -> SimDevice {
        SimDevice {
            cost: CostModel::new(spec),
            host_link: Interconnect::pcie4(),
            timeline: Timeline::new(),
        }
    }

    /// Adds `us` modeled microseconds to `phase` on this device's ledger.
    pub fn charge(&mut self, phase: Phase, us: f64) {
        self.timeline.add(phase, us);
    }

    /// Prices one kernel-shaped operation (`flops` FP64-equivalents,
    /// `bytes` of traffic, `warps` in flight) on the device's roofline and
    /// charges it to `phase`. Returns the modeled microseconds.
    pub fn charge_kernel(&mut self, phase: Phase, flops: f64, bytes: f64, warps: usize) -> f64 {
        let us = self.cost.roofline_us(flops, bytes, warps);
        self.timeline.add(phase, us);
        us
    }

    /// Charges one host ↔ device copy of `elems` `f64` values to
    /// [`Phase::Transfer`] over the device's host link.
    pub fn charge_host_transfer(&mut self, elems: usize) {
        let us = self.host_link.transfer_us(8 * elems as u64);
        self.timeline.add(Phase::Transfer, us);
    }

    /// The accumulated per-phase ledger.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }
}

/// Inter-device link model: a transfer of `b` bytes costs
/// `link_latency_us + b / (link_gbs · 10³)` microseconds (1 GB/s moves
/// 10³ bytes per µs). The sharded engine charges every halo message and
/// every reduction combine through one of these.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interconnect {
    /// Unidirectional link bandwidth in GB/s.
    pub link_gbs: f64,
    /// Per-message latency in µs (launch + routing, paid once per message).
    pub link_latency_us: f64,
}

impl Interconnect {
    /// NVLink 3.0-class link: 50 GB/s per direction, ~1.3 µs latency.
    pub fn nvlink3() -> Interconnect {
        Interconnect {
            link_gbs: 50.0,
            link_latency_us: 1.3,
        }
    }

    /// PCIe 4.0 x16-class link: 25 GB/s effective, ~2.5 µs latency.
    pub fn pcie4() -> Interconnect {
        Interconnect {
            link_gbs: 25.0,
            link_latency_us: 2.5,
        }
    }

    /// Modeled microseconds to move `bytes` over this link as one message.
    pub fn transfer_us(&self, bytes: u64) -> f64 {
        assert!(self.link_gbs > 0.0, "zero-bandwidth interconnect");
        self.link_latency_us + bytes as f64 / (self.link_gbs * 1e3)
    }
}

impl Default for Interconnect {
    fn default() -> Interconnect {
        Interconnect::nvlink3()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_transfer_prices_the_pcie4_link() {
        let mut d = SimDevice::new(DeviceSpec::a100());
        d.charge_host_transfer(3);
        assert_eq!(
            d.timeline().get(Phase::Transfer),
            Interconnect::pcie4().transfer_us(24)
        );
    }

    #[test]
    fn charge_kernel_prices_roofline() {
        let mut d = SimDevice::new(DeviceSpec::a100());
        let us = d.charge_kernel(Phase::Spmv, 1e6, 1e6, 32);
        assert!(us > 0.0);
        assert_eq!(d.timeline().get(Phase::Spmv), us);
    }

    #[test]
    fn interconnect_prices_latency_plus_bandwidth() {
        let link = Interconnect {
            link_gbs: 10.0,
            link_latency_us: 2.0,
        };
        // 10 GB/s = 1e4 bytes/µs → 1e4 bytes take 1 µs + 2 µs latency.
        assert!((link.transfer_us(10_000) - 3.0).abs() < 1e-12);
        assert_eq!(link.transfer_us(0), 2.0);
        assert!(Interconnect::nvlink3().transfer_us(1 << 20) > 0.0);
        assert!(Interconnect::pcie4().transfer_us(1 << 20) > 0.0);
    }
}
