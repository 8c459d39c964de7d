//! Import and export policy chains.
//!
//! Policies are the paper's experimental variables: where communities are
//! added (geo-tagging on ingress), and where they are removed (ingress vs.
//! egress cleaning — the difference between Exp3 and Exp4).

use std::sync::Arc;

use kcc_bgp_types::{AttrStore, Community, GeoTag, PathAttributes};
use kcc_topology::RouteSource;

/// Policy applied to routes *received* on a session, before they enter the
/// Adj-RIB-In. Order of operations: clean → strip own stale tags → tag →
/// add → local-pref.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ImportPolicy {
    /// Remove all communities on ingress (the paper's Exp4 configuration).
    pub clean_communities: bool,
    /// Add geolocation communities for the ingress router's location,
    /// owned by this 16-bit ASN (strips the ASN's previous geo tags
    /// first). The `GeoTag` is filled in per ingress router.
    pub geo_tag: Option<(u16, GeoTag)>,
    /// Explicitly added communities (the lab's `Y:300` / `Y:400` tags).
    pub add_communities: Vec<Community>,
    /// Local preference to set (Gao–Rexford by neighbor kind).
    pub local_pref: Option<u32>,
}

impl ImportPolicy {
    /// The conventional eBGP import policy for a neighbor of the given
    /// kind: Gao–Rexford local-pref, nothing else.
    pub fn for_neighbor(kind: RouteSource) -> Self {
        ImportPolicy { local_pref: Some(kind.conventional_local_pref()), ..Default::default() }
    }

    /// Applies the policy in place.
    pub fn apply(&self, attrs: &mut PathAttributes) {
        if self.clean_communities {
            attrs.communities.clear();
        }
        if let Some((asn16, tag)) = self.geo_tag {
            // A tagger owns its namespace: refresh rather than accumulate.
            attrs.communities.strip_owned_by(asn16);
            tag.tag(asn16, &mut attrs.communities);
        }
        for c in &self.add_communities {
            attrs.communities.insert(*c);
        }
        if let Some(lp) = self.local_pref {
            attrs.local_pref = Some(lp);
        }
    }

    /// True when applying the policy to `attrs` would change nothing —
    /// the no-op probe behind [`apply_interned`](Self::apply_interned).
    fn is_noop_for(&self, attrs: &PathAttributes) -> bool {
        if self.clean_communities && !attrs.communities.is_empty() {
            return false;
        }
        if self.geo_tag.is_some() {
            // Tagging always rewrites the tagger's namespace; treating it
            // as a change unconditionally is cheaper than re-deriving the
            // tag set to compare.
            return false;
        }
        if !self.add_communities.iter().all(|c| attrs.communities.contains(c)) {
            return false;
        }
        self.local_pref.is_none_or(|lp| attrs.local_pref == Some(lp))
    }

    /// Applies the policy on the interned path: when the policy would not
    /// change `attrs` at all, the same `Arc` comes back (identity
    /// preserved, zero allocation); otherwise the result is deep-cloned
    /// once, rewritten, and collapsed onto the store's canonical handle
    /// when a value-equal set is already interned.
    ///
    /// The returned handle carries **no** store refcount of its own —
    /// callers that retain it in a RIB slot must `acquire` it there.
    pub fn apply_interned(
        &self,
        attrs: &Arc<PathAttributes>,
        store: &AttrStore,
    ) -> Arc<PathAttributes> {
        if self.is_noop_for(attrs) {
            return Arc::clone(attrs);
        }
        let mut rewritten = PathAttributes::clone(attrs);
        self.apply(&mut rewritten);
        match store.canonical(&rewritten) {
            Some(shared) => shared,
            None => Arc::new(rewritten),
        }
    }
}

/// Policy applied to routes *sent* on a session, after the standard eBGP
/// egress transformations (prepend, next-hop-self, local-pref strip).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExportPolicy {
    /// Remove all communities on egress (the paper's Exp3 configuration).
    pub clean_communities: bool,
    /// Communities added on egress (action signaling to the neighbor).
    pub add_communities: Vec<Community>,
    /// MED to set toward this neighbor.
    pub med: Option<u32>,
    /// Extra prepends of our own ASN (beyond the mandatory one).
    pub extra_prepends: u8,
    /// Action communities honored on this session: a route carrying any of
    /// these is **not announced** toward this neighbor (the operator's
    /// "do-not-announce toward X" traffic-engineering knob — see
    /// ROADMAP 3(c)). Checked before all other egress transformations.
    pub deny_communities: Vec<Community>,
}

impl ExportPolicy {
    /// True when `attrs` carries one of this session's deny communities —
    /// the route must be withheld from this neighbor.
    pub fn denies(&self, attrs: &PathAttributes) -> bool {
        self.deny_communities.iter().any(|c| attrs.communities.contains(c))
    }

    /// Applies the policy in place.
    pub fn apply(&self, attrs: &mut PathAttributes) {
        if self.clean_communities {
            attrs.communities.clear();
        }
        for c in &self.add_communities {
            attrs.communities.insert(*c);
        }
        if let Some(m) = self.med {
            attrs.med = Some(m);
        }
        // extra_prepends is applied by the router (it owns its ASN).
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcc_bgp_types::CommunitySet;

    fn attrs_with(comms: &[(u16, u16)]) -> PathAttributes {
        PathAttributes {
            communities: CommunitySet::from_classic(
                comms.iter().map(|&(a, v)| Community::from_parts(a, v)),
            ),
            ..Default::default()
        }
    }

    #[test]
    fn ingress_cleaning_wipes_everything() {
        let p = ImportPolicy { clean_communities: true, ..Default::default() };
        let mut a = attrs_with(&[(3356, 2501), (174, 100)]);
        p.apply(&mut a);
        assert!(a.communities.is_empty());
    }

    #[test]
    fn geo_tag_refreshes_own_namespace() {
        let tag = GeoTag::new(4, 10, 80);
        let p = ImportPolicy { geo_tag: Some((3356, tag)), ..Default::default() };
        // Route arrives with a stale 3356 city tag and a foreign tag.
        let mut a = attrs_with(&[(174, 2501)]);
        GeoTag::new(5, 20, 160).tag(3356, &mut a.communities);
        p.apply(&mut a);
        // Foreign tag kept, own tags replaced with the new location.
        assert!(a.communities.contains(&Community::from_parts(174, 2501)));
        let own: Vec<_> =
            a.communities.iter_classic().filter(|c| c.asn_part() == 3356).copied().collect();
        assert_eq!(own.len(), 3);
        let expected = tag.to_communities(3356);
        for c in expected {
            assert!(a.communities.contains(&c));
        }
    }

    #[test]
    fn cleaning_then_tagging_composes() {
        // An AS that cleans on ingress AND tags: result is only its tags.
        let tag = GeoTag::new(4, 10, 80);
        let p = ImportPolicy {
            clean_communities: true,
            geo_tag: Some((20_000, tag)),
            ..Default::default()
        };
        let mut a = attrs_with(&[(174, 2501), (3356, 901)]);
        p.apply(&mut a);
        assert_eq!(a.communities.len(), 3);
        assert!(a.communities.iter_classic().all(|c| c.asn_part() == 20_000));
    }

    #[test]
    fn explicit_communities_and_local_pref() {
        let p = ImportPolicy {
            add_communities: vec![Community::from_parts(65_000, 300)],
            local_pref: Some(300),
            ..Default::default()
        };
        let mut a = PathAttributes::default();
        p.apply(&mut a);
        assert!(a.communities.contains(&Community::from_parts(65_000, 300)));
        assert_eq!(a.local_pref, Some(300));
    }

    #[test]
    fn neighbor_policy_sets_gao_rexford_pref() {
        assert_eq!(ImportPolicy::for_neighbor(RouteSource::Customer).local_pref, Some(300));
        assert_eq!(ImportPolicy::for_neighbor(RouteSource::Provider).local_pref, Some(100));
    }

    #[test]
    fn egress_cleaning() {
        let p = ExportPolicy { clean_communities: true, ..Default::default() };
        let mut a = attrs_with(&[(3356, 2501)]);
        p.apply(&mut a);
        assert!(a.communities.is_empty());
    }

    #[test]
    fn interned_noop_keeps_arc_identity() {
        // The Gao–Rexford hot path: local-pref already matches, so the
        // import must hand back the *same* allocation, not a value-equal
        // copy — RIB dedup and the store's byte accounting rely on it.
        let p = ImportPolicy { local_pref: Some(300), ..Default::default() };
        let store = AttrStore::new();
        let a = Arc::new(PathAttributes { local_pref: Some(300), ..attrs_with(&[(174, 100)]) });
        let out = p.apply_interned(&a, &store);
        assert!(Arc::ptr_eq(&a, &out));

        // Same for an add_communities policy whose community is already
        // present.
        let p = ImportPolicy {
            add_communities: vec![Community::from_parts(174, 100)],
            ..Default::default()
        };
        let out = p.apply_interned(&a, &store);
        assert!(Arc::ptr_eq(&a, &out));
    }

    #[test]
    fn interned_rewrite_collapses_onto_canonical() {
        // When the rewritten attribute set is already interned, the store's
        // canonical Arc comes back instead of a fresh allocation.
        let mut store = AttrStore::new();
        let target =
            Arc::new(PathAttributes { local_pref: Some(300), ..PathAttributes::default() });
        let canonical = store.acquire(&target);

        let p = ImportPolicy { local_pref: Some(300), ..Default::default() };
        let input = Arc::new(PathAttributes { local_pref: Some(100), ..PathAttributes::default() });
        let out = p.apply_interned(&input, &store);
        assert!(!Arc::ptr_eq(&input, &out));
        assert!(Arc::ptr_eq(&canonical, &out));
        assert_eq!(out.local_pref, Some(300));

        // With an empty store the rewrite still happens, just freshly
        // allocated.
        let empty = AttrStore::new();
        let out = p.apply_interned(&input, &empty);
        assert_eq!(out.local_pref, Some(300));
        assert!(!Arc::ptr_eq(&input, &out));
    }

    #[test]
    fn cleaning_policy_is_noop_on_empty_communities() {
        // Exp4-style ingress cleaning of an already-bare route changes
        // nothing, so identity must be preserved there too.
        let p = ImportPolicy { clean_communities: true, ..Default::default() };
        let store = AttrStore::new();
        let bare = Arc::new(PathAttributes::default());
        assert!(Arc::ptr_eq(&bare, &p.apply_interned(&bare, &store)));

        let tagged = Arc::new(attrs_with(&[(3356, 2501)]));
        let out = p.apply_interned(&tagged, &store);
        assert!(!Arc::ptr_eq(&tagged, &out));
        assert!(out.communities.is_empty());
    }

    #[test]
    fn deny_communities_gate_export() {
        let dna = Community::from_parts(65_001, 111);
        let p = ExportPolicy { deny_communities: vec![dna], ..Default::default() };
        assert!(p.denies(&attrs_with(&[(65_001, 111)])));
        assert!(p.denies(&attrs_with(&[(174, 100), (65_001, 111)])));
        assert!(!p.denies(&attrs_with(&[(65_001, 112)])));
        assert!(!p.denies(&PathAttributes::default()));
        // No deny list: nothing is ever withheld.
        assert!(!ExportPolicy::default().denies(&attrs_with(&[(65_001, 111)])));
    }

    #[test]
    fn egress_add_and_med() {
        let p = ExportPolicy {
            add_communities: vec![Community::from_parts(65_535, 666)],
            med: Some(10),
            ..Default::default()
        };
        let mut a = PathAttributes::default();
        p.apply(&mut a);
        assert_eq!(a.med, Some(10));
        assert_eq!(a.communities.len(), 1);
    }
}
