//! The RFC 4271 §8 session state machine, as a pure transition function.
//!
//! The FSM owns no sockets, threads or clocks: callers feed it
//! [`FsmEvent`]s together with the current time and execute the
//! [`Action`]s it returns (write a message, dial, deliver an UPDATE,
//! close the transport). Timers are explicit deadlines in milliseconds;
//! [`Fsm::next_deadline`] tells the driving loop how long it may block,
//! and a [`FsmEvent::Timer`] at or after a deadline fires the transition.
//! This makes every edge — hold expiry mid-Established, NOTIFICATION in
//! OpenSent, reconnect after Cease, keepalive cadence — deterministic and
//! unit-testable without a single real sleep.
//!
//! Simplifications relative to the full RFC: no DelayOpen, no connection
//! collision resolution (the collector is the passive side and its
//! clients the active side, so simultaneous opens cannot arise here),
//! and decode errors on UPDATEs tear the session down with the matching
//! NOTIFICATION rather than RFC 7606 treat-as-withdraw; the
//! [`WireError`] is kept in [`DownReason::DecodeError`] for operators.

use std::net::Ipv4Addr;

use kcc_bgp_types::Asn;
use kcc_bgp_wire::{
    Message, Notification, NotificationCode, OpenMessage, SessionConfig, UpdatePacket, WireError,
    BGP_VERSION,
};

/// RFC 4271 session states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// Nothing happening; waiting for a start event.
    Idle,
    /// Actively dialing the peer.
    Connect,
    /// Waiting for an inbound connection (or for the connect retry timer).
    Active,
    /// OPEN sent; waiting for the peer's OPEN.
    OpenSent,
    /// OPENs exchanged; waiting for the first KEEPALIVE.
    OpenConfirm,
    /// The session is up and UPDATEs flow.
    Established,
}

/// Static configuration for one session endpoint.
#[derive(Debug, Clone)]
pub struct FsmConfig {
    /// Our AS number (announced via the 4-octet capability).
    pub local_asn: Asn,
    /// Our BGP identifier.
    pub bgp_id: Ipv4Addr,
    /// Proposed hold time in seconds (0 = no keepalives; RFC default 90).
    pub hold_time: u16,
    /// Passive endpoints (collectors) never dial; they wait in `Active`
    /// for the transport to hand them an inbound connection.
    pub passive: bool,
}

/// Delay before re-dialing after a failed connect (ms).
const CONNECT_RETRY_MS: u64 = 5_000;
/// How long to wait in OpenSent/OpenConfirm before giving up (the RFC's
/// "large value" hold timer while the session is half-open).
const OPEN_HOLD_MS: u64 = 240_000;

impl FsmConfig {
    /// A conventional configuration for one endpoint.
    pub fn new(local_asn: Asn, bgp_id: Ipv4Addr) -> Self {
        FsmConfig { local_asn, bgp_id, hold_time: 90, passive: false }
    }

    /// Marks this endpoint passive (collector side).
    pub fn passive(mut self) -> Self {
        self.passive = true;
        self
    }

    /// Sets the proposed hold time (seconds).
    pub fn with_hold_time(mut self, seconds: u16) -> Self {
        self.hold_time = seconds;
        self
    }
}

/// What the FSM consumed.
#[derive(Debug)]
pub enum FsmEvent {
    /// Administrative start.
    Start,
    /// Administrative stop (sends Cease if the session got far enough).
    Stop,
    /// The transport connected (outbound dial completed, or an inbound
    /// connection was accepted for a passive endpoint).
    TcpConnected,
    /// The transport failed or closed.
    TcpFailed,
    /// A complete message arrived.
    Message(Message),
    /// The transport could not decode the byte stream.
    DecodeError(WireError),
    /// Clock tick: fire any deadline at or before `now_ms`.
    Timer,
}

/// What the driving loop must do, in order.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Write this message to the transport.
    Send(Message),
    /// Dial the peer (active endpoints only).
    StartConnect,
    /// The session reached Established.
    Up(EstablishedInfo),
    /// An UPDATE arrived on an Established session.
    Deliver(UpdatePacket),
    /// The session went down; close the transport. Any NOTIFICATION to
    /// send first appears as a preceding [`Action::Send`].
    Down(DownReason),
}

/// Negotiated session parameters, emitted with [`Action::Up`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EstablishedInfo {
    /// The peer's real AS (4-octet capability value if announced).
    pub peer_asn: Asn,
    /// The peer's BGP identifier.
    pub peer_bgp_id: Ipv4Addr,
    /// Negotiated hold time (min of both proposals; 0 = timers off).
    pub hold_time: u16,
    /// Negotiated codec configuration (4-octet AS iff both announced it).
    pub config: SessionConfig,
}

/// Why a session left Established (or never got there).
#[derive(Debug, Clone, PartialEq)]
pub enum DownReason {
    /// Our hold timer expired (we sent the NOTIFICATION).
    HoldTimerExpired,
    /// The peer sent a NOTIFICATION.
    PeerNotification(Notification),
    /// Administrative stop (we sent Cease).
    AdminStop,
    /// The transport failed or closed underneath us.
    TcpFailed,
    /// The peer violated the protocol (we sent the NOTIFICATION).
    ProtocolError(&'static str),
    /// The byte stream could not be decoded (we sent the NOTIFICATION).
    DecodeError(WireError),
}

/// The session FSM. One instance per session endpoint; drive it with
/// [`Fsm::handle`].
#[derive(Debug)]
pub struct Fsm {
    cfg: FsmConfig,
    state: State,
    /// Deadline for the hold timer (half-open: `OPEN_HOLD_MS`;
    /// Established: negotiated hold time). `None` = disarmed.
    hold_deadline: Option<u64>,
    /// Next keepalive send deadline (Established/OpenConfirm, hold > 0).
    keepalive_deadline: Option<u64>,
    /// Next reconnect attempt after a failed dial.
    connect_deadline: Option<u64>,
    /// Negotiated parameters, set when the peer's OPEN is accepted.
    info: Option<EstablishedInfo>,
    keepalives_sent: u64,
}

impl Fsm {
    /// A fresh FSM in `Idle`.
    pub fn new(cfg: FsmConfig) -> Self {
        Fsm {
            cfg,
            state: State::Idle,
            hold_deadline: None,
            keepalive_deadline: None,
            connect_deadline: None,
            info: None,
            keepalives_sent: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> State {
        self.state
    }

    /// Negotiated parameters, once the peer's OPEN was accepted.
    pub fn info(&self) -> Option<&EstablishedInfo> {
        self.info.as_ref()
    }

    /// KEEPALIVEs sent so far (cadence tests and stats).
    pub fn keepalives_sent(&self) -> u64 {
        self.keepalives_sent
    }

    /// The earliest armed deadline — how long the driving loop may block
    /// before it must feed [`FsmEvent::Timer`].
    pub fn next_deadline(&self) -> Option<u64> {
        [self.hold_deadline, self.keepalive_deadline, self.connect_deadline]
            .into_iter()
            .flatten()
            .min()
    }

    /// The keepalive interval for a negotiated hold time: one third,
    /// rounded down, at least one second (RFC 4271 §4.4 suggests a third
    /// of the Hold Time).
    fn keepalive_interval_ms(hold_time: u16) -> u64 {
        ((hold_time as u64 * 1_000) / 3).max(1_000)
    }

    fn our_open(&self) -> OpenMessage {
        OpenMessage::standard(self.cfg.local_asn, self.cfg.bgp_id, self.cfg.hold_time)
    }

    fn disarm_all(&mut self) {
        self.hold_deadline = None;
        self.keepalive_deadline = None;
        self.connect_deadline = None;
    }

    /// Tears down with an optional outgoing NOTIFICATION.
    fn down(&mut self, notify: Option<Notification>, reason: DownReason) -> Vec<Action> {
        let mut actions = Vec::new();
        if let Some(n) = notify {
            actions.push(Action::Send(Message::Notification(n)));
        }
        actions.push(Action::Down(reason));
        self.state = State::Idle;
        self.disarm_all();
        self.info = None;
        actions
    }

    /// Feeds one event at time `now_ms`; returns the actions to execute,
    /// in order.
    pub fn handle(&mut self, event: FsmEvent, now_ms: u64) -> Vec<Action> {
        match event {
            FsmEvent::Start => self.on_start(now_ms),
            FsmEvent::Stop => self.on_stop(),
            FsmEvent::TcpConnected => self.on_tcp_connected(now_ms),
            FsmEvent::TcpFailed => self.on_tcp_failed(now_ms),
            FsmEvent::Message(m) => self.on_message(m, now_ms),
            FsmEvent::DecodeError(e) => self.on_decode_error(e),
            FsmEvent::Timer => self.on_timer(now_ms),
        }
    }

    fn on_start(&mut self, now_ms: u64) -> Vec<Action> {
        match self.state {
            State::Idle => {
                if self.cfg.passive {
                    self.state = State::Active;
                    Vec::new()
                } else {
                    self.state = State::Connect;
                    self.connect_deadline = Some(now_ms + CONNECT_RETRY_MS);
                    vec![Action::StartConnect]
                }
            }
            _ => Vec::new(), // start is idempotent elsewhere
        }
    }

    fn on_stop(&mut self) -> Vec<Action> {
        match self.state {
            State::Idle => Vec::new(),
            State::Connect | State::Active => self.down(None, DownReason::AdminStop),
            State::OpenSent | State::OpenConfirm | State::Established => {
                self.down(Some(Notification::cease_admin_shutdown()), DownReason::AdminStop)
            }
        }
    }

    fn on_tcp_connected(&mut self, now_ms: u64) -> Vec<Action> {
        match self.state {
            State::Connect | State::Active => {
                // Both sides send OPEN as soon as the transport is up
                // (RFC 4271 events 16/17).
                self.state = State::OpenSent;
                self.connect_deadline = None;
                self.hold_deadline = Some(now_ms + OPEN_HOLD_MS);
                vec![Action::Send(Message::Open(self.our_open()))]
            }
            _ => Vec::new(),
        }
    }

    fn on_tcp_failed(&mut self, now_ms: u64) -> Vec<Action> {
        match self.state {
            State::Idle => Vec::new(),
            State::Connect | State::Active if !self.cfg.passive => {
                // Back off and re-dial when the retry timer fires.
                self.state = State::Active;
                self.connect_deadline = Some(now_ms + CONNECT_RETRY_MS);
                Vec::new()
            }
            _ => self.down(None, DownReason::TcpFailed),
        }
    }

    fn on_message(&mut self, message: Message, now_ms: u64) -> Vec<Action> {
        match (self.state, message) {
            (State::OpenSent, Message::Open(open)) => self.on_open(open, now_ms),
            (State::OpenSent | State::OpenConfirm, Message::Notification(n)) => {
                // The peer rejected us; no answer is sent back.
                self.down(None, DownReason::PeerNotification(n))
            }
            (State::OpenConfirm, Message::Keepalive) => {
                let info = self.info.clone().expect("OpenConfirm implies negotiated info");
                self.arm_established_timers(info.hold_time, now_ms);
                self.state = State::Established;
                vec![Action::Up(info)]
            }
            (State::Established, Message::Update(packet)) => {
                self.reset_hold(now_ms);
                vec![Action::Deliver(packet)]
            }
            (State::Established, Message::Keepalive) => {
                self.reset_hold(now_ms);
                Vec::new()
            }
            // We advertise the route-refresh capability, so the message
            // must be accepted. A collector has no Adj-RIB-Out to replay;
            // the request only proves the peer is alive.
            (State::Established, Message::RouteRefresh(_)) => {
                self.reset_hold(now_ms);
                Vec::new()
            }
            (State::Established, Message::Notification(n)) => {
                self.down(None, DownReason::PeerNotification(n))
            }
            (State::Established | State::OpenConfirm, Message::Open(_)) => self.down(
                Some(Notification::fsm_error()),
                DownReason::ProtocolError("OPEN after negotiation"),
            ),
            (_, _) => self.down(
                Some(Notification::fsm_error()),
                DownReason::ProtocolError("message in unexpected state"),
            ),
        }
    }

    fn on_open(&mut self, open: OpenMessage, now_ms: u64) -> Vec<Action> {
        // The codec already rejects 1–2 s at decode; guard anyway so a
        // hand-built OpenMessage cannot sneak one in.
        if open.hold_time == 1 || open.hold_time == 2 {
            return self.down(
                Some(Notification::unacceptable_hold_time(open.hold_time)),
                DownReason::ProtocolError("unacceptable hold time"),
            );
        }
        let hold_time = self.cfg.hold_time.min(open.hold_time);
        // 4-octet AS iff both sides announced the capability; our
        // standard OPEN always does.
        let config = SessionConfig { four_octet_as: open.supports_four_octet() };
        self.info = Some(EstablishedInfo {
            peer_asn: open.real_asn(),
            peer_bgp_id: open.bgp_id,
            hold_time,
            config,
        });
        // Keep the large half-open hold deadline until Established; send
        // our KEEPALIVE to confirm.
        self.hold_deadline = Some(now_ms + OPEN_HOLD_MS);
        self.state = State::OpenConfirm;
        self.keepalives_sent += 1;
        vec![Action::Send(Message::Keepalive)]
    }

    fn arm_established_timers(&mut self, hold_time: u16, now_ms: u64) {
        if hold_time == 0 {
            self.hold_deadline = None;
            self.keepalive_deadline = None;
        } else {
            self.hold_deadline = Some(now_ms + hold_time as u64 * 1_000);
            self.keepalive_deadline = Some(now_ms + Self::keepalive_interval_ms(hold_time));
        }
    }

    fn reset_hold(&mut self, now_ms: u64) {
        if let Some(info) = &self.info {
            if info.hold_time > 0 {
                self.hold_deadline = Some(now_ms + info.hold_time as u64 * 1_000);
            }
        }
    }

    /// Records that the driver sent a message at `now_ms` (to the peer,
    /// UPDATEs count as liveness just like KEEPALIVEs), pushing our
    /// keepalive cadence out — RFC 4271 restarts the KeepaliveTimer on
    /// every KEEPALIVE/UPDATE sent.
    pub fn note_message_sent(&mut self, now_ms: u64) {
        if let (Some(info), Some(_)) = (&self.info, self.keepalive_deadline) {
            self.keepalive_deadline = Some(now_ms + Self::keepalive_interval_ms(info.hold_time));
        }
    }

    /// Records that the peer was heard from at `now_ms` (liveness seen by
    /// an external reader), resetting the hold timer.
    pub fn note_message_received(&mut self, now_ms: u64) {
        self.reset_hold(now_ms);
    }

    fn on_decode_error(&mut self, e: WireError) -> Vec<Action> {
        let notification = match &e {
            WireError::BadVersion(_) => Notification::unsupported_version(BGP_VERSION),
            WireError::BadValue { what: "hold time", value } => {
                Notification::unacceptable_hold_time(*value as u16)
            }
            WireError::BadMarker | WireError::BadLength(_) | WireError::UnknownMessageType(_) => {
                Notification { code: NotificationCode::MessageHeader, subcode: 0, data: vec![] }
            }
            WireError::Truncated { .. } => Notification {
                code: NotificationCode::MessageHeader,
                subcode: 2, // Bad Message Length
                data: vec![],
            },
            _ => Notification { code: NotificationCode::UpdateMessage, subcode: 0, data: vec![] },
        };
        self.down(Some(notification), DownReason::DecodeError(e))
    }

    fn on_timer(&mut self, now_ms: u64) -> Vec<Action> {
        // Connect retry: re-dial.
        if self.connect_deadline.is_some_and(|d| now_ms >= d) {
            self.connect_deadline = Some(now_ms + CONNECT_RETRY_MS);
            if matches!(self.state, State::Connect | State::Active) && !self.cfg.passive {
                self.state = State::Connect;
                return vec![Action::StartConnect];
            }
        }
        // Hold timer: the peer went silent.
        if self.hold_deadline.is_some_and(|d| now_ms >= d) {
            return self
                .down(Some(Notification::hold_timer_expired()), DownReason::HoldTimerExpired);
        }
        // Keepalive timer: prove we are alive.
        if self.keepalive_deadline.is_some_and(|d| now_ms >= d) {
            let hold = self.info.as_ref().map(|i| i.hold_time).unwrap_or(self.cfg.hold_time);
            self.keepalive_deadline = Some(now_ms + Self::keepalive_interval_ms(hold));
            self.keepalives_sent += 1;
            return vec![Action::Send(Message::Keepalive)];
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> FsmConfig {
        FsmConfig::new(Asn(3333), "198.51.100.1".parse().unwrap()).with_hold_time(30)
    }

    fn peer_open(hold: u16) -> Message {
        Message::Open(OpenMessage::standard(Asn(20_205), "192.0.2.9".parse().unwrap(), hold))
    }

    /// Drives a fresh FSM to Established at t=0 and returns it.
    fn established(config: FsmConfig) -> Fsm {
        let mut fsm = Fsm::new(config.passive());
        assert!(fsm.handle(FsmEvent::Start, 0).is_empty());
        assert_eq!(fsm.state(), State::Active);
        let a = fsm.handle(FsmEvent::TcpConnected, 0);
        assert!(matches!(a[0], Action::Send(Message::Open(_))));
        assert_eq!(fsm.state(), State::OpenSent);
        let a = fsm.handle(FsmEvent::Message(peer_open(30)), 0);
        assert_eq!(a, vec![Action::Send(Message::Keepalive)]);
        assert_eq!(fsm.state(), State::OpenConfirm);
        let a = fsm.handle(FsmEvent::Message(Message::Keepalive), 0);
        assert!(matches!(a[0], Action::Up(_)));
        assert_eq!(fsm.state(), State::Established);
        fsm
    }

    #[test]
    fn happy_path_reaches_established_with_negotiated_parameters() {
        let fsm = established(cfg());
        let info = fsm.info().unwrap();
        assert_eq!(info.peer_asn, Asn(20_205));
        assert_eq!(info.hold_time, 30);
        assert!(info.config.four_octet_as);
    }

    #[test]
    fn hold_time_negotiates_to_minimum() {
        let mut fsm = Fsm::new(cfg().passive());
        fsm.handle(FsmEvent::Start, 0);
        fsm.handle(FsmEvent::TcpConnected, 0);
        fsm.handle(FsmEvent::Message(peer_open(9)), 0);
        assert_eq!(fsm.info().unwrap().hold_time, 9, "min(30, 9)");
    }

    #[test]
    fn active_side_dials_and_establishes() {
        let mut fsm = Fsm::new(cfg());
        let a = fsm.handle(FsmEvent::Start, 0);
        assert_eq!(a, vec![Action::StartConnect]);
        assert_eq!(fsm.state(), State::Connect);
        fsm.handle(FsmEvent::TcpConnected, 0);
        fsm.handle(FsmEvent::Message(peer_open(30)), 0);
        let a = fsm.handle(FsmEvent::Message(Message::Keepalive), 0);
        assert!(matches!(a[0], Action::Up(_)));
    }

    #[test]
    fn hold_timer_expiry_mid_established_notifies_and_tears_down() {
        let mut fsm = established(cfg());
        // Negotiated hold 30 s: an UPDATE at t=5s pushes the deadline to
        // t=35s; silence until then trips it.
        let a = fsm.handle(
            FsmEvent::Message(Message::Update(UpdatePacket::withdraw(
                "10.0.0.0/8".parse().unwrap(),
            ))),
            5_000,
        );
        assert!(matches!(a[0], Action::Deliver(_)));
        assert!(
            fsm.handle(FsmEvent::Timer, 34_999).is_empty() || fsm.state() == State::Established
        );
        let a = fsm.handle(FsmEvent::Timer, 35_000);
        assert_eq!(
            a,
            vec![
                Action::Send(Message::Notification(Notification::hold_timer_expired())),
                Action::Down(DownReason::HoldTimerExpired),
            ]
        );
        assert_eq!(fsm.state(), State::Idle);
        assert_eq!(fsm.next_deadline(), None, "all timers disarmed after teardown");
    }

    #[test]
    fn keepalive_resets_hold_timer() {
        let mut fsm = established(cfg());
        fsm.handle(FsmEvent::Message(Message::Keepalive), 20_000);
        // Old deadline (t=30s) must not fire.
        let a = fsm.handle(FsmEvent::Timer, 31_000);
        assert!(a.iter().all(|x| !matches!(x, Action::Down(_))));
        assert_eq!(fsm.state(), State::Established);
    }

    #[test]
    fn notification_in_opensent_returns_to_idle_silently() {
        let mut fsm = Fsm::new(cfg().passive());
        fsm.handle(FsmEvent::Start, 0);
        fsm.handle(FsmEvent::TcpConnected, 0);
        assert_eq!(fsm.state(), State::OpenSent);
        let n = Notification::bad_peer_as();
        let a = fsm.handle(FsmEvent::Message(Message::Notification(n.clone())), 100);
        // No counter-NOTIFICATION: the peer already closed its side.
        assert_eq!(a, vec![Action::Down(DownReason::PeerNotification(n))]);
        assert_eq!(fsm.state(), State::Idle);
    }

    #[test]
    fn collision_free_reconnect_after_cease() {
        let mut fsm = established(cfg());
        // Peer ceases: down without any message from us.
        let cease = Notification::cease_admin_shutdown();
        let a = fsm.handle(FsmEvent::Message(Message::Notification(cease.clone())), 10_000);
        assert_eq!(a, vec![Action::Down(DownReason::PeerNotification(cease))]);
        assert_eq!(fsm.state(), State::Idle);
        assert_eq!(fsm.next_deadline(), None);

        // A fresh start establishes again with no residue from the first
        // life: no stale timers fire, negotiation runs from scratch.
        assert!(fsm.handle(FsmEvent::Start, 20_000).is_empty());
        let a = fsm.handle(FsmEvent::TcpConnected, 20_000);
        assert!(matches!(a[0], Action::Send(Message::Open(_))));
        fsm.handle(FsmEvent::Message(peer_open(30)), 20_000);
        let a = fsm.handle(FsmEvent::Message(Message::Keepalive), 20_000);
        assert!(matches!(a[0], Action::Up(_)));
        assert_eq!(fsm.state(), State::Established);
        // The re-established hold deadline is anchored at the new epoch.
        let a = fsm.handle(FsmEvent::Timer, 35_000);
        assert!(a.iter().all(|x| !matches!(x, Action::Down(_))), "no stale hold expiry");
    }

    #[test]
    fn keepalive_cadence_is_at_most_a_third_of_hold() {
        let mut fsm = established(cfg()); // hold 30 s → interval 10 s
        let sent_at_establish = fsm.keepalives_sent();
        let mut sends = Vec::new();
        // Feed peer keepalives (so our hold never trips) and tick every
        // second of a 30-second window.
        for t in 1..=30u64 {
            let now = t * 1_000;
            fsm.handle(FsmEvent::Message(Message::Keepalive), now);
            for a in fsm.handle(FsmEvent::Timer, now) {
                if a == Action::Send(Message::Keepalive) {
                    sends.push(now);
                }
            }
        }
        assert_eq!(sends, vec![10_000, 20_000, 30_000], "cadence = hold/3");
        assert_eq!(fsm.keepalives_sent() - sent_at_establish, 3);
        // ≤ hold/3 ⇒ at least 3 keepalives per hold interval.
        assert!(sends.windows(2).all(|w| w[1] - w[0] <= 10_000));
    }

    #[test]
    fn route_refresh_is_accepted_and_counts_as_liveness() {
        use kcc_bgp_wire::RouteRefresh;
        let mut fsm = established(cfg());
        let a = fsm.handle(
            FsmEvent::Message(Message::RouteRefresh(RouteRefresh { afi: 1, safi: 1 })),
            20_000,
        );
        assert!(a.is_empty(), "we advertised the capability; no teardown");
        assert_eq!(fsm.state(), State::Established);
        // And it reset the hold timer like any other message.
        let a = fsm.handle(FsmEvent::Timer, 31_000);
        assert!(a.iter().all(|x| !matches!(x, Action::Down(_))));
    }

    #[test]
    fn zero_hold_time_disables_timers() {
        let mut fsm = Fsm::new(cfg().with_hold_time(0).passive());
        fsm.handle(FsmEvent::Start, 0);
        fsm.handle(FsmEvent::TcpConnected, 0);
        fsm.handle(FsmEvent::Message(peer_open(0)), 0);
        fsm.handle(FsmEvent::Message(Message::Keepalive), 0);
        assert_eq!(fsm.state(), State::Established);
        assert_eq!(fsm.next_deadline(), None);
        let a = fsm.handle(FsmEvent::Timer, 1_000_000_000);
        assert!(a.is_empty(), "no timer ever fires with hold 0");
    }

    #[test]
    fn unacceptable_hold_time_in_open_rejected() {
        let mut fsm = Fsm::new(cfg().passive());
        fsm.handle(FsmEvent::Start, 0);
        fsm.handle(FsmEvent::TcpConnected, 0);
        let open = OpenMessage {
            asn: Asn(20_205),
            hold_time: 2,
            bgp_id: "192.0.2.9".parse().unwrap(),
            capabilities: vec![],
        };
        let a = fsm.handle(FsmEvent::Message(Message::Open(open)), 0);
        assert_eq!(
            a[0],
            Action::Send(Message::Notification(Notification::unacceptable_hold_time(2)))
        );
        assert_eq!(fsm.state(), State::Idle);
    }

    #[test]
    fn decode_error_maps_to_precise_notification() {
        let mut fsm = Fsm::new(cfg().passive());
        fsm.handle(FsmEvent::Start, 0);
        fsm.handle(FsmEvent::TcpConnected, 0);
        let a = fsm
            .handle(FsmEvent::DecodeError(WireError::BadValue { what: "hold time", value: 1 }), 0);
        assert_eq!(
            a[0],
            Action::Send(Message::Notification(Notification::unacceptable_hold_time(1)))
        );
        let mut fsm2 = established(cfg());
        let a = fsm2.handle(FsmEvent::DecodeError(WireError::BadVersion(3)), 0);
        assert_eq!(
            a[0],
            Action::Send(Message::Notification(Notification::unsupported_version(BGP_VERSION)))
        );
    }

    #[test]
    fn open_while_established_is_an_fsm_error() {
        let mut fsm = established(cfg());
        let a = fsm.handle(FsmEvent::Message(peer_open(30)), 1_000);
        assert_eq!(a[0], Action::Send(Message::Notification(Notification::fsm_error())));
        assert_eq!(fsm.state(), State::Idle);
    }

    #[test]
    fn admin_stop_sends_cease_when_half_open_or_up() {
        let mut fsm = established(cfg());
        let a = fsm.handle(FsmEvent::Stop, 1_000);
        assert_eq!(
            a,
            vec![
                Action::Send(Message::Notification(Notification::cease_admin_shutdown())),
                Action::Down(DownReason::AdminStop),
            ]
        );
        assert_eq!(fsm.state(), State::Idle);
    }

    #[test]
    fn connect_retry_redials_after_failure() {
        let mut fsm = Fsm::new(cfg());
        assert_eq!(fsm.handle(FsmEvent::Start, 0), vec![Action::StartConnect]);
        fsm.handle(FsmEvent::TcpFailed, 0);
        assert_eq!(fsm.state(), State::Active);
        assert_eq!(fsm.next_deadline(), Some(5_000));
        assert!(fsm.handle(FsmEvent::Timer, 4_999).is_empty());
        assert_eq!(fsm.handle(FsmEvent::Timer, 5_000), vec![Action::StartConnect]);
        assert_eq!(fsm.state(), State::Connect);
    }

    #[test]
    fn tcp_failure_mid_established_goes_down() {
        let mut fsm = established(cfg());
        let a = fsm.handle(FsmEvent::TcpFailed, 1_000);
        assert_eq!(a, vec![Action::Down(DownReason::TcpFailed)]);
        assert_eq!(fsm.state(), State::Idle);
    }

    #[test]
    fn open_hold_guards_the_half_open_session() {
        let mut fsm = Fsm::new(cfg().passive());
        fsm.handle(FsmEvent::Start, 0);
        fsm.handle(FsmEvent::TcpConnected, 0);
        // The peer never sends its OPEN; the large hold value trips.
        let a = fsm.handle(FsmEvent::Timer, 240_000);
        assert_eq!(a[0], Action::Send(Message::Notification(Notification::hold_timer_expired())));
        assert_eq!(fsm.state(), State::Idle);
    }

    #[test]
    fn two_octet_only_peer_negotiates_two_octet_config() {
        let mut fsm = Fsm::new(cfg().passive());
        fsm.handle(FsmEvent::Start, 0);
        fsm.handle(FsmEvent::TcpConnected, 0);
        let open = OpenMessage {
            asn: Asn(20_205),
            hold_time: 30,
            bgp_id: "192.0.2.9".parse().unwrap(),
            capabilities: vec![],
        };
        fsm.handle(FsmEvent::Message(Message::Open(open)), 0);
        assert!(!fsm.info().unwrap().config.four_octet_as);
    }
}
