//! Instance sizing and the Performance-Schema overhead model.

/// The Performance-Schema configuration knobs of the Table IV study.
///
/// Overheads are modelled as a multiplicative CPU surcharge per query.
/// The coefficients were chosen so the *relative* QPS declines match the
/// shape of Table IV: `pfs` alone costs ~8–13 %, adding all instruments or
/// all consumers costs a few points more, and both together interact
/// super-additively to ~26–30 %.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PfsConfig {
    /// `performance_schema = ON`.
    pub enabled: bool,
    /// All instrumentation switched on.
    pub instruments: bool,
    /// All consumers switched on.
    pub consumers: bool,
}

impl PfsConfig {
    /// Performance Schema off (the `normal` row of Table IV).
    pub const OFF: PfsConfig =
        PfsConfig { enabled: false, instruments: false, consumers: false };
    /// `pfs` row.
    pub const PFS: PfsConfig = PfsConfig { enabled: true, instruments: false, consumers: false };
    /// `pfs+ins` row.
    pub const PFS_INS: PfsConfig =
        PfsConfig { enabled: true, instruments: true, consumers: false };
    /// `pfs+con` row.
    pub const PFS_CON: PfsConfig =
        PfsConfig { enabled: true, instruments: false, consumers: true };
    /// `pfs+con+ins` row.
    pub const PFS_CON_INS: PfsConfig =
        PfsConfig { enabled: true, instruments: true, consumers: true };

    /// Multiplicative CPU overhead factor applied to every query.
    pub fn cpu_overhead_factor(&self) -> f64 {
        if !self.enabled {
            return 1.0;
        }
        let mut f: f64 = 1.10; // turning pfs on
        if self.instruments {
            f += 0.035;
        }
        if self.consumers {
            f += 0.045;
        }
        if self.instruments && self.consumers {
            // Events flow all the way from instrumentation points into
            // consumer tables: the combination is super-additive.
            f += 0.22;
        }
        f
    }

    /// The label used in Table IV.
    pub fn label(&self) -> &'static str {
        match (self.enabled, self.instruments, self.consumers) {
            (false, _, _) => "normal",
            (true, false, false) => "pfs",
            (true, true, false) => "pfs+ins",
            (true, false, true) => "pfs+con",
            (true, true, true) => "pfs+con+ins",
        }
    }
}

/// Database-instance sizing and simulator options.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// CPU cores (processor-sharing capacity of the CPU resource).
    pub cores: f64,
    /// Concurrent IO channels (capacity of the IO resource).
    pub io_channels: f64,
    /// Maximum concurrently admitted sessions; arrivals beyond this queue
    /// at admission. Keep high for open-loop anomaly studies.
    pub max_sessions: usize,
    /// Performance-Schema configuration.
    pub pfs: PfsConfig,
    /// RNG seed for cost sampling, slot selection, and the probe instant.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        // 16 cores / 8 IO channels approximates the paper's average
        // instance (15.9 cores).
        Self { cores: 16.0, io_channels: 8.0, max_sessions: 100_000, pfs: PfsConfig::OFF, seed: 0 }
    }
}

impl SimConfig {
    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style core-count override.
    pub fn with_cores(mut self, cores: f64) -> Self {
        self.cores = cores;
        self
    }

    /// Builder-style Performance-Schema override.
    pub fn with_pfs(mut self, pfs: PfsConfig) -> Self {
        self.pfs = pfs;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_ordering_matches_table_iv_shape() {
        let normal = PfsConfig::OFF.cpu_overhead_factor();
        let pfs = PfsConfig::PFS.cpu_overhead_factor();
        let ins = PfsConfig::PFS_INS.cpu_overhead_factor();
        let con = PfsConfig::PFS_CON.cpu_overhead_factor();
        let both = PfsConfig::PFS_CON_INS.cpu_overhead_factor();
        assert_eq!(normal, 1.0);
        assert!(pfs > 1.05 && pfs < 1.15);
        assert!(ins > pfs);
        assert!(con > pfs);
        assert!(both > 1.25 && both < 1.45, "super-additive: {both}");
    }

    #[test]
    fn labels_match_paper_rows() {
        assert_eq!(PfsConfig::OFF.label(), "normal");
        assert_eq!(PfsConfig::PFS.label(), "pfs");
        assert_eq!(PfsConfig::PFS_INS.label(), "pfs+ins");
        assert_eq!(PfsConfig::PFS_CON.label(), "pfs+con");
        assert_eq!(PfsConfig::PFS_CON_INS.label(), "pfs+con+ins");
    }

    #[test]
    fn default_config_is_reasonable() {
        let c = SimConfig::default();
        assert!(c.cores > 0.0);
        assert!(c.max_sessions > 1000);
        assert_eq!(c.pfs, PfsConfig::OFF);
        let c2 = c.with_seed(9).with_cores(4.0).with_pfs(PfsConfig::PFS);
        assert_eq!(c2.seed, 9);
        assert_eq!(c2.cores, 4.0);
        assert!(c2.pfs.enabled);
    }
}
