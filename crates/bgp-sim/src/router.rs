//! The simulated BGP router: RIBs, import/export, MRAI, vendor behavior.
//!
//! ## Memory model
//!
//! Every retained attribute set — Adj-RIB-In entries, the Loc-RIB,
//! Adj-RIB-Out, MRAI-pending queues and originated routes — is an
//! `Arc<PathAttributes>` interned through the network-wide
//! [`AttrStore`]: one attribute set announced to 75k neighbors is one
//! allocation. Each slot that retains a handle holds exactly one store
//! refcount (`acquire` on insert, `release` on remove/replace); in-flight
//! messages and captures carry plain `Arc` clones that the store does not
//! count, so capture retention never distorts the byte accounting. Every
//! handle a slot retains is the store's canonical allocation, so its
//! `acquire` and `release` are one probe on the allocation's address —
//! no deep hash, no deep compare.
//!
//! A changed decision builds each outbound attribute set once: one for
//! iBGP, one per distinct eBGP [`ExportPolicy`] (compared by value;
//! almost every session of a router shares one). The per-session filters
//! — source session, valley-free export, `NO_EXPORT`, deny communities —
//! still run per session; nothing else about a session shapes what is
//! sent. Handlers append their [`Action`]s to one buffer the
//! [`Network`](crate::Network) owns and reuses across events.
//!
//! ## Layout
//!
//! The RIBs are keyed for their access patterns: Adj-RIB-In is
//! prefix-first (the decision process reads exactly the candidate set for
//! one prefix), Adj-RIB-Out and the MRAI queue are session-first (route
//! refresh and MRAI expiry replay exactly one session's slice).

use std::collections::BTreeMap;
use std::net::IpAddr;
use std::sync::Arc;

use kcc_bgp_types::community::well_known::NO_EXPORT;
use kcc_bgp_types::{AttrStore, FastHashMap, PathAttributes, Prefix};
use kcc_topology::{may_export, IgpMap, RouteSource, RouterId};

use crate::dampening::{DampeningConfig, DampeningState};
use crate::decision;
use crate::policy::ExportPolicy;
use crate::route::{RibEntry, SimUpdate, UpdateBody};
use crate::session::{Session, SessionId, SessionKind};
use crate::time::SimTime;
use crate::vendor::VendorProfile;

/// An effect the router wants the network to carry out.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Transmit an update on a session.
    Send {
        /// The session to send on.
        session: SessionId,
        /// The update.
        update: SimUpdate,
    },
    /// Arrange an `MraiExpire` event at `at`.
    ScheduleMrai {
        /// The paced session.
        session: SessionId,
        /// The deadline.
        at: SimTime,
    },
    /// Arrange a dampening reuse check at `at`.
    ScheduleDampReuse {
        /// The dampened session.
        session: SessionId,
        /// The dampened prefix.
        prefix: Prefix,
        /// When the penalty is predicted to cross the reuse threshold.
        at: SimTime,
    },
}

/// Per-router message counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterCounters {
    /// Updates received (announcements + withdrawals).
    pub updates_received: u64,
    /// Updates sent.
    pub updates_sent: u64,
    /// Duplicate advertisements suppressed (Junos-style).
    pub duplicates_suppressed: u64,
    /// Duplicate advertisements transmitted anyway (non-suppressing
    /// vendors) — the paper's unnecessary-update counter.
    pub duplicates_sent: u64,
    /// Updates ignored because the route is dampening-suppressed.
    pub dampened: u64,
}

/// One simulated router.
#[derive(Debug, Clone)]
pub struct Router {
    /// Identity (AS + index).
    pub id: RouterId,
    /// Loopback/session address, used as next-hop-self.
    pub ip: IpAddr,
    /// Implementation profile.
    pub vendor: VendorProfile,
    /// IGP cost map of the owning AS.
    pub igp: IgpMap,
    /// Sessions attached to this router.
    pub sessions: Vec<SessionId>,
    /// True for route collectors: capture only, never export.
    pub is_collector: bool,
    /// Route-flap dampening configuration (None = disabled, the default).
    pub dampening: Option<DampeningConfig>,
    /// Message counters.
    pub counters: RouterCounters,
    /// Prefix-first: the candidate set the decision process reads. Each
    /// slot is kept sorted by `SessionId` so candidate iteration — and
    /// therefore tie-breaking — is independent of arrival order.
    adj_rib_in: FastHashMap<Prefix, Vec<(SessionId, RibEntry)>>,
    damp_states: FastHashMap<(SessionId, Prefix), DampeningState>,
    loc_rib: FastHashMap<Prefix, RibEntry>,
    /// Session-first: route-refresh replay reads one session's slice.
    adj_rib_out: FastHashMap<SessionId, FastHashMap<Prefix, Arc<PathAttributes>>>,
    originated: BTreeMap<Prefix, Arc<PathAttributes>>,
    mrai_deadline: FastHashMap<SessionId, SimTime>,
    mrai_pending: FastHashMap<SessionId, FastHashMap<Prefix, Arc<PathAttributes>>>,
}

impl Router {
    /// Creates a router.
    pub fn new(id: RouterId, ip: IpAddr, vendor: VendorProfile, igp: IgpMap) -> Self {
        Router {
            id,
            ip,
            vendor,
            igp,
            sessions: Vec::new(),
            is_collector: false,
            dampening: None,
            counters: RouterCounters::default(),
            adj_rib_in: FastHashMap::default(),
            damp_states: FastHashMap::default(),
            loc_rib: FastHashMap::default(),
            adj_rib_out: FastHashMap::default(),
            originated: BTreeMap::new(),
            mrai_deadline: FastHashMap::default(),
            mrai_pending: FastHashMap::default(),
        }
    }

    /// The best route currently installed for `prefix`.
    pub fn best_route(&self, prefix: &Prefix) -> Option<&RibEntry> {
        self.loc_rib.get(prefix)
    }

    /// Number of Loc-RIB entries.
    pub fn loc_rib_len(&self) -> usize {
        self.loc_rib.len()
    }

    /// Everything last transmitted on `session`, sorted by prefix — the
    /// Adj-RIB-Out slice a route-refresh request replays. O(routes on
    /// this session): the Adj-RIB-Out is maintained per session, so no
    /// other session's state is scanned.
    pub fn advertised_on(&self, session: SessionId) -> Vec<(Prefix, Arc<PathAttributes>)> {
        let mut out: Vec<(Prefix, Arc<PathAttributes>)> = self
            .adj_rib_out
            .get(&session)
            .into_iter()
            .flatten()
            .map(|(p, a)| (*p, Arc::clone(a)))
            .collect();
        out.sort_unstable_by_key(|(p, _)| *p);
        out
    }

    /// Iterates the Adj-RIB-In (post-import-policy routes per session) —
    /// the per-peer state a collector's TABLE_DUMP_V2 snapshot records.
    /// Order is unspecified.
    pub fn adj_rib_in(&self) -> impl Iterator<Item = ((SessionId, Prefix), &RibEntry)> {
        self.adj_rib_in.iter().flat_map(|(p, slot)| slot.iter().map(move |(s, e)| ((*s, *p), e)))
    }

    /// Starts originating `prefix`.
    pub(crate) fn originate(
        &mut self,
        now: SimTime,
        prefix: Prefix,
        sessions: &[Session],
        store: &mut AttrStore,
        out: &mut Vec<Action>,
    ) {
        let attrs = store.acquire_owned(Arc::new(PathAttributes::originated(self.ip)));
        if let Some(old) = self.originated.insert(prefix, attrs) {
            store.release(&old);
        }
        self.run_decision(now, prefix, sessions, store, out);
    }

    /// Stops originating `prefix`.
    pub(crate) fn withdraw_origin(
        &mut self,
        now: SimTime,
        prefix: Prefix,
        sessions: &[Session],
        store: &mut AttrStore,
        out: &mut Vec<Action>,
    ) {
        match self.originated.remove(&prefix) {
            None => return,
            Some(old) => store.release(&old),
        }
        self.run_decision(now, prefix, sessions, store, out);
    }

    /// Processes an update arriving on `session_id`.
    pub(crate) fn handle_update(
        &mut self,
        now: SimTime,
        session_id: SessionId,
        sessions: &[Session],
        update: &SimUpdate,
        store: &mut AttrStore,
        out: &mut Vec<Action>,
    ) {
        self.counters.updates_received += 1;
        let session = &sessions[session_id.0];
        match &update.body {
            UpdateBody::Announce { attrs, source_hint } => {
                // eBGP loop prevention (RFC 4271 §9.1.2).
                if session.is_ebgp() && attrs.as_path.contains(self.id.asn) {
                    return;
                }
                let (source, egress) = if session.is_ebgp() {
                    let kind = session.neighbor_kind_for(self.id).unwrap_or(RouteSource::Peer);
                    (kind, self.id)
                } else {
                    (source_hint.unwrap_or(RouteSource::Customer), session.other(self.id))
                };
                let post = session.import_for(self.id).apply_interned(attrs, store);
                let entry =
                    RibEntry { attrs: post, source, from_session: Some(session_id), egress };
                let slot = self.adj_rib_in.entry(update.prefix).or_default();
                let replaced = match slot.binary_search_by_key(&session_id, |(s, _)| *s) {
                    Ok(i) => {
                        // Post-policy no-change: the update was received
                        // (and counted) but routing state is untouched —
                        // the Exp4 suppression point.
                        if slot[i].1 == entry {
                            return;
                        }
                        let retained = store.acquire(&entry.attrs);
                        let old = std::mem::replace(
                            &mut slot[i].1,
                            RibEntry { attrs: retained, ..entry },
                        );
                        store.release(&old.attrs);
                        true
                    }
                    Err(i) => {
                        let retained = store.acquire(&entry.attrs);
                        slot.insert(i, (session_id, RibEntry { attrs: retained, ..entry }));
                        false
                    }
                };
                // RFC 2439: an attribute change on an existing route is a
                // flap; a fresh announcement after a withdrawal was already
                // penalized by the withdrawal.
                if replaced && session.is_ebgp() {
                    out.extend(self.record_flap(now, session_id, update.prefix));
                }
            }
            UpdateBody::Withdraw => {
                let Some(slot) = self.adj_rib_in.get_mut(&update.prefix) else {
                    return;
                };
                let Ok(i) = slot.binary_search_by_key(&session_id, |(s, _)| *s) else {
                    return;
                };
                let (_, old) = slot.remove(i);
                if slot.is_empty() {
                    self.adj_rib_in.remove(&update.prefix);
                }
                store.release(&old.attrs);
                if session.is_ebgp() {
                    // Withdrawal of a suppressed route changes nothing
                    // visible, but the penalty still accrues. No reuse
                    // check is scheduled: there is no route left to reuse.
                    self.record_flap(now, session_id, update.prefix);
                }
            }
        }
        self.run_decision(now, update.prefix, sessions, store, out);
    }

    /// Records a dampening flap. When the route just became (or remains)
    /// suppressed it is hidden from decisions, and the returned action
    /// schedules — or, if the penalty grew, pushes out — its reuse check.
    fn record_flap(
        &mut self,
        now: SimTime,
        session_id: SessionId,
        prefix: Prefix,
    ) -> Option<Action> {
        let cfg = self.dampening?;
        let state = self
            .damp_states
            .entry((session_id, prefix))
            .or_insert_with(|| DampeningState::new(now));
        // Lift a suppression that has decayed past reuse before the new
        // penalty lands.
        state.is_suppressed(now, &cfg);
        if !state.record_flap(now, &cfg) {
            return None;
        }
        self.counters.dampened += 1;
        Some(Action::ScheduleDampReuse { session: session_id, prefix, at: state.reuse_time(&cfg) })
    }

    /// Handles a scheduled dampening reuse check.
    pub(crate) fn handle_damp_reuse(
        &mut self,
        now: SimTime,
        session_id: SessionId,
        prefix: Prefix,
        sessions: &[Session],
        store: &mut AttrStore,
        out: &mut Vec<Action>,
    ) {
        let Some(cfg) = self.dampening else { return };
        let Some(state) = self.damp_states.get_mut(&(session_id, prefix)) else {
            return;
        };
        if state.is_suppressed(now, &cfg) {
            // Penalty grew since this check was scheduled; try again later.
            out.push(Action::ScheduleDampReuse {
                session: session_id,
                prefix,
                at: state.reuse_time(&cfg),
            });
            return;
        }
        // Route is reusable: re-run the decision with it visible again.
        self.run_decision(now, prefix, sessions, store, out);
    }

    /// True if the route from `session_id` for `prefix` is currently
    /// hidden by dampening.
    fn is_dampened(&self, now: SimTime, session_id: SessionId, prefix: Prefix) -> bool {
        let Some(cfg) = self.dampening else { return false };
        self.damp_states
            .get(&(session_id, prefix))
            .map(|s| {
                let mut s = *s;
                s.is_suppressed(now, &cfg)
            })
            .unwrap_or(false)
    }

    /// Handles loss of a session: flush all state tied to it and re-run
    /// decisions for affected prefixes.
    pub(crate) fn handle_session_down(
        &mut self,
        now: SimTime,
        session_id: SessionId,
        sessions: &[Session],
        store: &mut AttrStore,
        out: &mut Vec<Action>,
    ) {
        let mut affected: Vec<Prefix> = Vec::new();
        self.adj_rib_in.retain(|p, slot| {
            if let Ok(i) = slot.binary_search_by_key(&session_id, |(s, _)| *s) {
                let (_, old) = slot.remove(i);
                store.release(&old.attrs);
                affected.push(*p);
            }
            !slot.is_empty()
        });
        if let Some(out) = self.adj_rib_out.remove(&session_id) {
            for attrs in out.values() {
                store.release(attrs);
            }
        }
        self.mrai_deadline.remove(&session_id);
        if let Some(pending) = self.mrai_pending.remove(&session_id) {
            for attrs in pending.values() {
                store.release(attrs);
            }
        }
        self.damp_states.retain(|(s, _), _| *s != session_id);
        affected.sort_unstable();
        for p in affected {
            self.run_decision(now, p, sessions, store, out);
        }
    }

    /// Handles a session (re-)establishing: advertise the current Loc-RIB.
    pub(crate) fn handle_session_up(
        &mut self,
        now: SimTime,
        session_id: SessionId,
        sessions: &[Session],
        store: &mut AttrStore,
        out: &mut Vec<Action>,
    ) {
        if self.is_collector {
            return;
        }
        let session = &sessions[session_id.0];
        let mut prefixes: Vec<Prefix> = self.loc_rib.keys().copied().collect();
        prefixes.sort_unstable();
        for p in prefixes {
            let desired = self.loc_rib.get(&p).and_then(|best| {
                self.desired_advertisement(best, session, store, &mut Outbound::default())
            });
            self.export_to_session(now, p, session, desired, store, out);
        }
    }

    /// MRAI expiry: flush pending advertisements for the session.
    pub(crate) fn handle_mrai_expire(
        &mut self,
        now: SimTime,
        session_id: SessionId,
        sessions: &[Session],
        store: &mut AttrStore,
        out: &mut Vec<Action>,
    ) {
        self.mrai_deadline.remove(&session_id);
        let Some(pending) = self.mrai_pending.remove(&session_id) else {
            return;
        };
        if pending.is_empty() {
            return;
        }
        let session = &sessions[session_id.0];
        let mut batch: Vec<(Prefix, Arc<PathAttributes>)> = pending.into_iter().collect();
        batch.sort_unstable_by_key(|(p, _)| *p);
        let sent = self.adj_rib_out.entry(session_id).or_default();
        for (prefix, attrs) in batch {
            // The store refcount moves from the pending slot to the
            // Adj-RIB-Out slot; only a replaced entry is released.
            if let Some(old) = sent.insert(prefix, Arc::clone(&attrs)) {
                store.release(&old);
            }
            self.counters.updates_sent += 1;
            out.push(Action::Send {
                session: session_id,
                update: SimUpdate::announce(prefix, attrs),
            });
        }
        // Restart the timer to pace the next batch.
        let mrai = self.vendor.mrai(session.is_ebgp());
        if !mrai.is_zero() {
            let at = now + mrai;
            self.mrai_deadline.insert(session_id, at);
            out.push(Action::ScheduleMrai { session: session_id, at });
        }
    }

    /// Re-selects the best route for `prefix` and exports any change.
    fn run_decision(
        &mut self,
        now: SimTime,
        prefix: Prefix,
        sessions: &[Session],
        store: &mut AttrStore,
        out: &mut Vec<Action>,
    ) {
        let originated_entry = self.originated.get(&prefix).map(|attrs| RibEntry {
            attrs: Arc::clone(attrs),
            source: RouteSource::Originated,
            from_session: None,
            egress: self.id,
        });
        let new_best = {
            let candidates = self
                .adj_rib_in
                .get(&prefix)
                .map(|v| v.as_slice())
                .unwrap_or(&[])
                .iter()
                .filter(|(s, _)| !self.is_dampened(now, *s, prefix))
                .map(|(_, e)| e)
                .chain(originated_entry.as_ref());
            decision::best(candidates, self.id, &self.igp).cloned()
        };
        let old_best = self.loc_rib.get(&prefix);
        if old_best == new_best.as_ref() {
            return;
        }
        let best = match new_best {
            Some(e) => {
                let installed = RibEntry { attrs: store.acquire(&e.attrs), ..e };
                if let Some(old) = self.loc_rib.insert(prefix, installed.clone()) {
                    store.release(&old.attrs);
                }
                Some(installed)
            }
            None => {
                if let Some(old) = self.loc_rib.remove(&prefix) {
                    store.release(&old.attrs);
                }
                None
            }
        };
        if self.is_collector {
            return;
        }
        // Every session exporting through the same policy is sent the
        // same attribute set: build each once per decision.
        let mut outbound = Outbound::default();
        for i in 0..self.sessions.len() {
            let session = &sessions[self.sessions[i].0];
            if !session.up {
                continue;
            }
            let desired = best
                .as_ref()
                .and_then(|b| self.desired_advertisement(b, session, store, &mut outbound));
            self.export_to_session(now, prefix, session, desired, store, out);
        }
    }

    /// The announcement we would send for the installed `best` route on
    /// `session`, or `None` if the route must not (or cannot) be
    /// advertised there. The per-session filters run here; the outbound
    /// attribute set depends only on `best`, this router and — on eBGP —
    /// the session's export policy, so it is built once per distinct
    /// policy and taken from `outbound` after that. When the egress
    /// transformations change nothing (iBGP at the learning border), the
    /// Loc-RIB's `Arc` is reused as-is; otherwise the result collapses
    /// onto the store's canonical allocation when one exists.
    fn desired_advertisement<'s>(
        &self,
        best: &RibEntry,
        session: &'s Session,
        store: &AttrStore,
        outbound: &mut Outbound<'s>,
    ) -> Option<(Arc<PathAttributes>, Option<RouteSource>)> {
        // Never advertise back onto the session the route came from.
        if best.from_session == Some(session.id) {
            return None;
        }
        match session.kind {
            SessionKind::Ibgp => {
                // Full mesh: iBGP-learned routes are not reflected.
                if best.from_session.is_some() && !best.is_ebgp(self.id) {
                    return None;
                }
                if best.attrs.next_hop == self.ip {
                    // next-hop-self is already true (originated here):
                    // share the installed allocation.
                    return Some((Arc::clone(&best.attrs), Some(best.source)));
                }
                let attrs = outbound.ibgp.get_or_insert_with(|| {
                    let mut a = PathAttributes::clone(&best.attrs);
                    a.next_hop = self.ip; // next-hop-self at the border
                    collapse(store, a)
                });
                Some((Arc::clone(attrs), Some(best.source)))
            }
            SessionKind::Ebgp => {
                let to_kind = session.neighbor_kind_for(self.id).unwrap_or(RouteSource::Peer);
                if !may_export(best.source, to_kind) {
                    return None;
                }
                if best.attrs.communities.contains(&NO_EXPORT) {
                    return None;
                }
                let export = session.export_for(self.id);
                // Action communities: the neighbor asked us not to hear
                // about routes tagged with its deny set.
                if export.denies(&best.attrs) {
                    return None;
                }
                if let Some((_, attrs)) = outbound.ebgp.iter().find(|(p, _)| *p == export) {
                    return Some((Arc::clone(attrs), None));
                }
                let mut a = PathAttributes::clone(&best.attrs);
                a.as_path = a.as_path.prepend(self.id.asn, 1 + export.extra_prepends as usize);
                a.next_hop = self.ip;
                a.local_pref = None;
                a.med = None; // MED is not propagated onward by default
                export.apply(&mut a);
                let attrs = collapse(store, a);
                outbound.ebgp.push((export, Arc::clone(&attrs)));
                Some((attrs, None))
            }
        }
    }

    /// Compares the desired advertisement with the Adj-RIB-Out and emits
    /// send/withdraw/pending actions, applying vendor duplicate policy and
    /// MRAI pacing.
    fn export_to_session(
        &mut self,
        now: SimTime,
        prefix: Prefix,
        session: &Session,
        desired: Option<(Arc<PathAttributes>, Option<RouteSource>)>,
        store: &mut AttrStore,
        out: &mut Vec<Action>,
    ) {
        let session_id = session.id;
        match desired {
            None => {
                // Withdraw if the peer (or the pending queue) holds state.
                if let Some(pending) = self.mrai_pending.get_mut(&session_id) {
                    if let Some(old) = pending.remove(&prefix) {
                        store.release(&old);
                        // Never transmitted: nothing to withdraw (unless
                        // the peer also holds earlier state, below).
                    }
                }
                if let Some(sent) = self.adj_rib_out.get_mut(&session_id) {
                    if let Some(old) = sent.remove(&prefix) {
                        store.release(&old);
                        self.counters.updates_sent += 1;
                        // Withdrawals bypass MRAI (RFC 4271 §9.2.1.1).
                        out.push(Action::Send {
                            session: session_id,
                            update: SimUpdate::withdraw(prefix),
                        });
                    }
                }
            }
            Some((attrs, source_hint)) => {
                let last_sent = self.adj_rib_out.get(&session_id).and_then(|m| m.get(&prefix));
                let equal_to_sent = last_sent.is_some_and(|l| **l == *attrs);
                let has_pending =
                    self.mrai_pending.get(&session_id).is_some_and(|m| m.contains_key(&prefix));
                if has_pending {
                    // Replace the queued advertisement with the newest state.
                    // If it now equals what was last sent, drop the queue
                    // entry only when the vendor suppresses duplicates.
                    let pending =
                        self.mrai_pending.get_mut(&session_id).expect("pending map exists");
                    if equal_to_sent && self.vendor.suppresses_duplicates {
                        if let Some(old) = pending.remove(&prefix) {
                            store.release(&old);
                        }
                        self.counters.duplicates_suppressed += 1;
                    } else {
                        let retained = store.acquire(&attrs);
                        if let Some(old) = pending.insert(prefix, retained) {
                            store.release(&old);
                        }
                    }
                    return;
                }
                if equal_to_sent {
                    if self.vendor.suppresses_duplicates {
                        self.counters.duplicates_suppressed += 1;
                        return;
                    }
                    self.counters.duplicates_sent += 1;
                }
                // MRAI gate (announcements only).
                let mrai = self.vendor.mrai(session.is_ebgp());
                let timer_running =
                    self.mrai_deadline.get(&session_id).map(|&d| d > now).unwrap_or(false);
                if timer_running {
                    let retained = store.acquire(&attrs);
                    if let Some(old) =
                        self.mrai_pending.entry(session_id).or_default().insert(prefix, retained)
                    {
                        store.release(&old);
                    }
                    return;
                }
                let retained = store.acquire(&attrs);
                let shared = Arc::clone(&retained);
                if let Some(old) =
                    self.adj_rib_out.entry(session_id).or_default().insert(prefix, retained)
                {
                    store.release(&old);
                }
                self.counters.updates_sent += 1;
                out.push(Action::Send {
                    session: session_id,
                    update: SimUpdate {
                        prefix,
                        body: UpdateBody::Announce { attrs: shared, source_hint },
                    },
                });
                if !mrai.is_zero() {
                    let at = now + mrai;
                    self.mrai_deadline.insert(session_id, at);
                    out.push(Action::ScheduleMrai { session: session_id, at });
                }
            }
        }
    }
}

/// The outbound attribute sets one decision has built so far: one for
/// iBGP, one per distinct eBGP export policy (compared by value — almost
/// every session of a router shares one).
#[derive(Default)]
struct Outbound<'s> {
    ibgp: Option<Arc<PathAttributes>>,
    ebgp: Vec<(&'s ExportPolicy, Arc<PathAttributes>)>,
}

/// The store's canonical allocation for a freshly built attribute set, or
/// a new `Arc` when the value was never seen. No refcount is taken —
/// retention happens where the handle lands in a RIB slot.
fn collapse(store: &AttrStore, attrs: PathAttributes) -> Arc<PathAttributes> {
    match store.canonical(&attrs) {
        Some(shared) => shared,
        None => Arc::new(attrs),
    }
}
