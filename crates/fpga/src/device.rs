//! FPGA device database.

use crate::resources::Resources;
use serde::{Deserialize, Serialize};

/// An FPGA device: its name and available resources.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Device {
    /// Part name.
    pub name: String,
    /// Available resources.
    pub capacity: Resources,
    /// Nominal clock used by the paper's designs (Hz).
    pub clock_hz: u64,
}

impl Device {
    /// The paper's device: Virtex-7 xc7vx485t on the VC707 board, run at
    /// 100 MHz (§V-A). Capacities from the Xilinx 7-series product table:
    /// 607,200 flip-flops, 303,600 LUTs, 1,030 BRAM36 (= 2,060 BRAM18),
    /// 2,800 DSP48E1 slices.
    pub fn xc7vx485t() -> Self {
        Device {
            name: "xc7vx485t (VC707)".to_string(),
            capacity: Resources {
                ff: 607_200,
                lut: 303_600,
                bram18: 2_060,
                dsp: 2_800,
            },
            clock_hz: 100_000_000,
        }
    }

    /// Whether a design of the given size fits on this device.
    pub fn fits(&self, used: &Resources) -> bool {
        used.ff <= self.capacity.ff
            && used.lut <= self.capacity.lut
            && used.bram18 <= self.capacity.bram18
            && used.dsp <= self.capacity.dsp
    }

    /// Utilisation of each resource as a fraction of capacity
    /// `(ff, lut, bram, dsp)`.
    pub fn utilisation(&self, used: &Resources) -> [f64; 4] {
        [
            used.ff as f64 / self.capacity.ff as f64,
            used.lut as f64 / self.capacity.lut as f64,
            used.bram18 as f64 / self.capacity.bram18 as f64,
            used.dsp as f64 / self.capacity.dsp as f64,
        ]
    }

    /// The single most-utilised resource as `(name, fraction)` — the
    /// binding constraint for design-space exploration.
    pub fn binding_constraint(&self, used: &Resources) -> (&'static str, f64) {
        const NAMES: [&str; 4] = ["FF", "LUT", "BRAM", "DSP"];
        let u = self.utilisation(used);
        let (i, v) = u
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        (NAMES[i], *v)
    }

    /// Clock period in seconds.
    pub fn clock_period(&self) -> f64 {
        1.0 / self.clock_hz as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtex7_capacities() {
        let d = Device::xc7vx485t();
        assert_eq!(d.capacity.dsp, 2800);
        assert_eq!(d.capacity.bram36(), 1030);
        assert_eq!(d.clock_hz, 100_000_000);
    }

    #[test]
    fn fits_checks_every_resource() {
        let d = Device::xc7vx485t();
        let mut r = Resources::zero();
        assert!(d.fits(&r));
        r.dsp = 2801;
        assert!(!d.fits(&r));
        r.dsp = 2800;
        assert!(d.fits(&r));
        r.bram18 = 9999;
        assert!(!d.fits(&r));
    }

    #[test]
    fn utilisation_fractions() {
        let d = Device::xc7vx485t();
        let r = Resources {
            ff: 303_600,
            lut: 151_800,
            bram18: 206,
            dsp: 1400,
        };
        let u = d.utilisation(&r);
        assert!((u[0] - 0.5).abs() < 1e-9);
        assert!((u[1] - 0.5).abs() < 1e-9);
        assert!((u[2] - 0.1).abs() < 1e-9);
        assert!((u[3] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn binding_constraint_picks_max() {
        let d = Device::xc7vx485t();
        let r = Resources {
            ff: 100,
            lut: 100,
            bram18: 100,
            dsp: 2000,
        };
        let (name, v) = d.binding_constraint(&r);
        assert_eq!(name, "DSP");
        assert!((v - 2000.0 / 2800.0).abs() < 1e-9);
    }

    #[test]
    fn clock_period_is_10ns() {
        assert!((Device::xc7vx485t().clock_period() - 1e-8).abs() < 1e-20);
    }
}
