//! Node capacity and placement fitting.

/// A node's total resources — what the Migration Module weighs a
/// destination against (§3.2: *"The decision of where to redeploy the
/// virtual instance shall take into account its resource requirements and
/// the resources available on the destination node"*).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeCapacity {
    /// Number of CPU cores.
    pub cpu_cores: f64,
    /// Total memory, bytes.
    pub memory_bytes: u64,
    /// Total disk, bytes.
    pub disk_bytes: u64,
}

impl NodeCapacity {
    /// A typical 2008-class cluster node: 4 cores, 8 GiB RAM, 500 GiB disk.
    pub fn standard() -> Self {
        NodeCapacity {
            cpu_cores: 4.0,
            memory_bytes: 8 << 30,
            disk_bytes: 500 << 30,
        }
    }

    /// Fraction of CPU capacity used (`0.0..=1.0+`).
    pub fn cpu_utilization(&self, used_cpu_share: f64) -> f64 {
        used_cpu_share / self.cpu_cores
    }

    /// Fraction of memory capacity used.
    pub fn memory_utilization(&self, used_memory: u64) -> f64 {
        used_memory as f64 / self.memory_bytes as f64
    }
}

impl Default for NodeCapacity {
    fn default() -> Self {
        NodeCapacity::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosgi_net::SimDuration;

    impl NodeCapacity {
        /// True if a workload needing `cpu_per_sec` CPU (per second of wall
        /// clock), `memory` and `disk` fits inside the *remaining* capacity
        /// after `used_*` are subtracted.
        fn fits(
            &self,
            used_cpu_share: f64,
            used_memory: u64,
            used_disk: u64,
            need_cpu_per_sec: SimDuration,
            need_memory: u64,
            need_disk: u64,
        ) -> bool {
            let need_share = need_cpu_per_sec.as_secs_f64();
            used_cpu_share + need_share <= self.cpu_cores
                && used_memory.saturating_add(need_memory) <= self.memory_bytes
                && used_disk.saturating_add(need_disk) <= self.disk_bytes
        }
    }

    #[test]
    fn fits_checks_all_dimensions() {
        let cap = NodeCapacity {
            cpu_cores: 2.0,
            memory_bytes: 1000,
            disk_bytes: 1000,
        };
        // Plenty of room.
        assert!(cap.fits(0.5, 100, 100, SimDuration::from_millis(500), 100, 100));
        // CPU exhausted: 1.8 + 0.5 > 2.0.
        assert!(!cap.fits(1.8, 0, 0, SimDuration::from_millis(500), 0, 0));
        // Memory exhausted.
        assert!(!cap.fits(0.0, 950, 0, SimDuration::ZERO, 100, 0));
        // Disk exhausted.
        assert!(!cap.fits(0.0, 0, 950, SimDuration::ZERO, 0, 100));
        // Exact fit is a fit.
        assert!(cap.fits(1.0, 500, 500, SimDuration::from_secs(1), 500, 500));
    }

    #[test]
    fn utilization_fractions() {
        let cap = NodeCapacity {
            cpu_cores: 4.0,
            memory_bytes: 100,
            disk_bytes: 1,
        };
        assert_eq!(cap.cpu_utilization(1.0), 0.25);
        assert_eq!(cap.memory_utilization(50), 0.5);
    }

    #[test]
    fn presets() {
        assert_eq!(NodeCapacity::default(), NodeCapacity::standard());
    }
}
