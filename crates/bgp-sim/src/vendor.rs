//! Router implementation behavior profiles.
//!
//! The paper's §3 lab experiments use real images of Cisco IOS 12.4(20)T,
//! Cisco IOS-XR 6.0.1, Juniper Junos (Olive 12.1R1.9), BIRD 1.6.6 and
//! BIRD 2.0.7, and find one behavioral split that matters for update
//! volume: **by default, only Junos suppresses duplicate updates** (it
//! compares the fully-built egress announcement against what the peer
//! already has). Everything else — internal next-hop changes, egress
//! community cleaning — leaks an unchanged announcement on the other
//! implementations, violating RFC 4271 §9.2 ("a BGP speaker ... SHALL NOT
//! advertise a route that was not selected" / advertisements must reflect
//! changes).
//!
//! [`VendorProfile`] encodes that split plus per-vendor MRAI defaults.

use std::fmt;

use crate::time::SimDuration;

/// Default behavior profile of one router implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VendorProfile {
    /// Human-readable name (image/version as used in the paper's lab).
    pub name: &'static str,
    /// True if the implementation compares a candidate egress announcement
    /// against the Adj-RIB-Out entry and stays silent when equal.
    /// Per the paper: Junos yes, Cisco IOS / IOS-XR / BIRD no.
    pub suppresses_duplicates: bool,
    /// Default MRAI (minimum route advertisement interval) on eBGP
    /// sessions. Withdrawals are exempt (RFC 4271 §9.2.1.1).
    pub mrai_ebgp: SimDuration,
    /// Default MRAI on iBGP sessions.
    pub mrai_ibgp: SimDuration,
}

impl VendorProfile {
    /// Cisco IOS 12.4(20)T: duplicates by default, classic 30 s eBGP MRAI.
    pub const CISCO_IOS: VendorProfile = VendorProfile {
        name: "Cisco IOS 12.4(20)T",
        suppresses_duplicates: false,
        mrai_ebgp: SimDuration::from_secs(30),
        mrai_ibgp: SimDuration::ZERO,
    };

    /// Cisco IOS-XR 6.0.1: duplicates by default, no MRAI by default.
    pub const CISCO_IOS_XR: VendorProfile = VendorProfile {
        name: "Cisco IOS XR 6.0.1",
        suppresses_duplicates: false,
        mrai_ebgp: SimDuration::ZERO,
        mrai_ibgp: SimDuration::ZERO,
    };

    /// Junos (Olive 12.1R1.9): the only tested implementation that
    /// prevents duplicates by default.
    pub const JUNOS: VendorProfile = VendorProfile {
        name: "Junos OS Olive 12.1R1.9",
        suppresses_duplicates: true,
        mrai_ebgp: SimDuration::ZERO,
        mrai_ibgp: SimDuration::ZERO,
    };

    /// BIRD 1.6.6: duplicates by default.
    pub(crate) const BIRD_1: VendorProfile = VendorProfile {
        name: "BIRD 1.6.6",
        suppresses_duplicates: false,
        mrai_ebgp: SimDuration::ZERO,
        mrai_ibgp: SimDuration::ZERO,
    };

    /// BIRD 2.0.7: duplicates by default.
    pub const BIRD_2: VendorProfile = VendorProfile {
        name: "BIRD 2.0.7",
        suppresses_duplicates: false,
        mrai_ebgp: SimDuration::ZERO,
        mrai_ibgp: SimDuration::ZERO,
    };

    /// All profiles the paper tests, for sweep experiments.
    pub const ALL: [VendorProfile; 5] =
        [Self::CISCO_IOS, Self::CISCO_IOS_XR, Self::JUNOS, Self::BIRD_1, Self::BIRD_2];

    /// The MRAI for a session kind.
    pub fn mrai(&self, ebgp: bool) -> SimDuration {
        if ebgp {
            self.mrai_ebgp
        } else {
            self.mrai_ibgp
        }
    }
}

impl Default for VendorProfile {
    /// BIRD 2 — a common collector-peer daemon with no MRAI, which keeps
    /// default simulations fast and duplicate-visible.
    fn default() -> Self {
        Self::BIRD_2
    }
}

impl fmt::Display for VendorProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_junos_suppresses() {
        let suppressing: Vec<&str> =
            VendorProfile::ALL.iter().filter(|v| v.suppresses_duplicates).map(|v| v.name).collect();
        assert_eq!(suppressing, vec!["Junos OS Olive 12.1R1.9"]);
    }

    #[test]
    fn cisco_ios_has_classic_mrai() {
        assert_eq!(VendorProfile::CISCO_IOS.mrai(true), SimDuration::from_secs(30));
        assert_eq!(VendorProfile::CISCO_IOS.mrai(false), SimDuration::ZERO);
    }

    #[test]
    fn all_profiles_distinct_names() {
        let mut names: Vec<&str> = VendorProfile::ALL.iter().map(|v| v.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
    }
}
