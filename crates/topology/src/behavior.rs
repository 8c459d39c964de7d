//! Per-AS community handling behavior.
//!
//! The paper's central mechanism is the *combination* of behaviors along a
//! path: an upstream that geo-tags, a middle AS that blindly propagates,
//! and a peer that cleans on egress produce exactly the `nc`/`nn` bursts of
//! Figures 4 and 5. [`CommunityBehavior`] is the per-AS knob; the simulator
//! compiles it into import/export policies.

use std::fmt;

/// How an AS treats BGP communities, matching the classes the paper's
/// future-work section proposes to infer per AS: *tag*, *filter*, *ignore*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CommunityBehavior {
    /// Adds geolocation communities on ingress (informational tagging), the
    /// behavior of large transit networks such as the paper's AS3356
    /// example.
    pub tags_geo: bool,
    /// Strips *all* communities on egress announcements (the paper's Exp3
    /// configuration — prevents propagation but still leaks `nn`
    /// duplicates on most implementations).
    pub cleans_egress: bool,
    /// Strips all communities on ingress (Exp4 — suppresses the duplicate
    /// entirely because the RIB never holds them).
    pub cleans_ingress: bool,
}

impl CommunityBehavior {
    /// Neither tags nor cleans: communities pass through untouched. The
    /// paper finds this is the common default ("many ASes blindly
    /// propagate communities they do not recognize").
    pub const BLIND_PROPAGATOR: Self =
        CommunityBehavior { tags_geo: false, cleans_egress: false, cleans_ingress: false };

    /// True if the AS performs any community cleaning at all.
    pub fn cleans(&self) -> bool {
        self.cleans_egress || self.cleans_ingress
    }
}

impl Default for CommunityBehavior {
    fn default() -> Self {
        Self::BLIND_PROPAGATOR
    }
}

impl fmt::Display for CommunityBehavior {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<&str> = Vec::new();
        if self.tags_geo {
            parts.push("geo-tag");
        }
        if self.cleans_ingress {
            parts.push("clean-in");
        }
        if self.cleans_egress {
            parts.push("clean-out");
        }
        if parts.is_empty() {
            parts.push("blind");
        }
        f.write_str(&parts.join("+"))
    }
}

/// The mix of behaviors assigned when generating a topology; fields are
/// probabilities in `[0, 1]` applied independently per tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BehaviorMix {
    /// Probability a tier-1/transit AS geo-tags on ingress. Giotsas et al.
    /// (cited by the paper) found ~50% of announcements carry location
    /// communities, so large-transit tagging is common.
    pub transit_tags_geo: f64,
    /// Probability any AS cleans on egress.
    pub cleans_egress: f64,
    /// Probability any AS cleans on ingress.
    pub cleans_ingress: f64,
}

impl Default for BehaviorMix {
    /// Calibrated so the emergent announcement-type mix lands near the
    /// paper's Table 2 (most ASes propagate blindly; cleaning is rare).
    fn default() -> Self {
        BehaviorMix { transit_tags_geo: 0.5, cleans_egress: 0.15, cleans_ingress: 0.05 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_consistent() {
        let b = |tags_geo, cleans_egress, cleans_ingress| CommunityBehavior {
            tags_geo,
            cleans_egress,
            cleans_ingress,
        };
        assert!(!CommunityBehavior::BLIND_PROPAGATOR.cleans());
        assert!(b(false, true, false).cleans());
        assert!(b(false, false, true).cleans());
        assert!(!b(true, false, false).cleans());
    }

    #[test]
    fn default_is_blind() {
        assert_eq!(CommunityBehavior::default(), CommunityBehavior::BLIND_PROPAGATOR);
    }

    #[test]
    fn display_composes() {
        assert_eq!(CommunityBehavior::BLIND_PROPAGATOR.to_string(), "blind");
        let geo = CommunityBehavior { tags_geo: true, ..CommunityBehavior::BLIND_PROPAGATOR };
        assert_eq!(geo.to_string(), "geo-tag");
        let both = CommunityBehavior { tags_geo: true, cleans_egress: true, cleans_ingress: false };
        assert_eq!(both.to_string(), "geo-tag+clean-out");
    }

    #[test]
    fn default_mix_mostly_blind() {
        // Written as a runtime check over the struct (not consts) so the
        // invariant survives changes to the Default impl.
        let mixes = [BehaviorMix::default()];
        for m in mixes {
            assert!(m.cleans_egress < 0.5, "cleaning must be the minority behavior");
            assert!(m.cleans_ingress < m.cleans_egress, "ingress cleaning is rarer");
        }
    }
}
