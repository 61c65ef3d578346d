//! Phaser-style barriers with **dynamic membership** (ROADMAP item 2).
//!
//! A [`Phaser`] is a barrier whose team can change while it runs:
//! participants `register` to join, `deregister` to leave, and a crashed
//! member can be *evicted* by a survivor that proxy-arrives on its behalf
//! (the shyper hypervisor's `add_barrier_count` idiom — see SNIPPETS.md and
//! [`crate::robust::RobustPhaser`]). A victim that turns out to be merely
//! slow may race its own arrival against the proxy; a CAS on the slot's
//! `last_arrived` ledger arbitrates, so exactly one of the two is ever
//! counted (see `Slots::claim_arrival`). Membership changes never tear a
//! running episode: they are *requested* mid-epoch and **commit only at the
//! epoch boundary**, applied by the champion (the last arriver) before it
//! publishes the release. Within one epoch the member set is therefore
//! immutable — every arrival-counting and tree-shape decision an algorithm
//! makes is against a stable set — which is what makes the protocol safe
//! without locks (the same reason `java.util.concurrent.Phaser` defers
//! de/registration effects to phase boundaries).
//!
//! Two implementations, mirroring the paper's centralized-vs-tree split:
//!
//! * [`CentralPhaser`] — a counter phaser: `arrive` is one `fetch_add`;
//!   the champion commits the boundary. O(1) per arrival, O(capacity)
//!   boundary scan paid by the champion only; hot-spots like SENSE.
//! * [`TreePhaser`] — a 4-ary arrival tree over the *current* members. The
//!   champion recomputes the dense rank table at every boundary, so the
//!   tree **reparents** itself around joins/leaves/evictions; each epoch
//!   runs on a well-shaped tree of exactly the committed members.
//!
//! ## Word layout (all state in the shared arena, zero-initialized)
//!
//! * `membership` — `(epoch << 12) | count`, the epoch-stamped membership
//!   word. Only the all-zero word decodes as "epoch 1, the initial
//!   members", so a fresh arena is a valid phaser and a boundary that
//!   commits zero members leaves a *retired* one. Capacity: 4095 members
//!   (the count field) and [`EPOCH_LIMIT`] epochs, asserted at commit.
//! * `release` — monotonic completion clock: `release >= e` iff epoch `e`
//!   committed. Waiters spin here; re-entrant fast members can lap slow
//!   ones safely because the comparison is `>=`, never `==`.
//! * per-slot words: request `state`, `join_epoch` ack, `last_arrived`
//!   ledger, `entered` stamp, `evicted_at` one-shot report, `evict_claim`
//!   ticket. "Slot" is the thread id; a slot can leave and rejoin.
//!
//! Every word sits alone on a cache line, except in
//! [`CentralPhaser::packed`] (many small phasers, one per serve team).
//!
//! ## Boundary commit order
//!
//! The champion (1) applies the requested state transitions, (2) rebuilds
//! per-epoch tables (tree ranks / the central arrival counter), (3) stores
//! the new `membership` word, (4) acks joiners via `join_epoch`, and (5)
//! stores `release` **last**. Because every store is Release and every load
//! Acquire, a thread that observes the release (or its join ack) also
//! observes the fully committed membership it is about to run under.

use armbar_simcoh::{arena::padded_elem, Addr, Arena};
use armbar_topology::Topology;

use crate::env::{Barrier, MemCtx};
use crate::robust::BarrierError;

/// Slot-state machine. Requests (`JoinReq`/`LeaveReq`/`EvictReq`) are
/// stored mid-epoch by anyone; transitions commit only at the boundary.
/// The raw zero word means "never touched": initial members decode as
/// `Active`, everyone else as `Out`.
const OUT: u32 = 0;
const JOIN_REQ: u32 = 1;
const ACTIVE: u32 = 2;
const LEAVE_REQ: u32 = 3;
const EVICT_REQ: u32 = 4;
const EVICTED: u32 = 5;
/// Explicit post-leave state (distinct from the raw zero so an initial
/// member that left does not decode back to `Active`).
const LEFT: u32 = 6;

/// Bit position of the epoch field in an epoch-stamped word: the low 12
/// bits carry a count (members or arrivals), the high 20 bits the epoch.
pub const EPOCH_SHIFT: u32 = 12;
/// Mask of the count field of an epoch-stamped word (also the count
/// ceiling: at most 4095 members).
pub const COUNT_MASK: u32 = (1 << EPOCH_SHIFT) - 1;

/// Base of the phaser event mark labels (distinct from the `0xB00x` phase
/// marks): `0xC000_0000 | kind << 24 | slot << 12 | epoch`. The slot field
/// is meaningful for [`PH_EVICTED`] (the *evictor* emits it on the victim's
/// behalf); for the self-reported kinds the mark's own `tid` is the slot.
pub const MARK_PHASER: u32 = 0xC000_0000;
/// Event kind: this slot became a member from the encoded epoch on.
pub const PH_JOINED: u32 = 1;
/// Event kind: this slot arrived *and observed the release* of the epoch.
pub const PH_COMPLETED: u32 = 2;
/// Event kind: this slot's final arrival — member through the epoch, gone
/// after its boundary.
pub const PH_LEFT: u32 = 3;
/// Event kind: the encoded slot was evicted at the encoded epoch.
pub const PH_EVICTED: u32 = 4;

/// Largest epoch a phaser event mark can encode (the mark's epoch field
/// is 12 bits). [`phaser_mark`] **saturates** here: every event past this
/// epoch carries `PH_MARK_EPOCH_MAX`, so marks never alias back onto
/// earlier epochs. Ledger-replaying oracles must cap their episode
/// horizon strictly below this value (the conformance checker asserts
/// its configuration against it).
pub const PH_MARK_EPOCH_MAX: u32 = COUNT_MASK;

/// Encodes a phaser event mark (see [`MARK_PHASER`]). The epoch field
/// saturates at [`PH_MARK_EPOCH_MAX`] — a visible ceiling instead of
/// silent aliasing, which a ledger replay would misread as revisits of
/// ancient epochs.
pub fn phaser_mark(kind: u32, slot: usize, epoch: u32) -> u32 {
    MARK_PHASER | (kind << 24) | ((slot as u32) << 12) | epoch.min(PH_MARK_EPOCH_MAX)
}

/// Decodes a phaser event mark into `(kind, slot, epoch)`; `None` for
/// non-phaser labels (e.g. the `MARK_ENTER`/`MARK_EXIT` phase marks).
/// Decoded epochs are exact up to [`PH_MARK_EPOCH_MAX`] and pinned there
/// beyond it (see [`phaser_mark`]).
pub fn decode_phaser_mark(label: u32) -> Option<(u32, usize, u32)> {
    if label & 0xF000_0000 != MARK_PHASER {
        return None;
    }
    Some(((label >> 24) & 0xF, ((label >> 12) & COUNT_MASK) as usize, label & COUNT_MASK))
}

/// A barrier with episode-boundary dynamic membership.
///
/// Contract for callers: a member must not `arrive` again for a new epoch
/// until the epoch of its previous arrival has committed — interleave
/// arrivals with [`Phaser::wait_epoch`] (or use
/// [`Phaser::arrive_and_wait`]). A slot that deregistered may re-register
/// only after its final epoch committed (wait on `wait_epoch` first).
pub trait Phaser: Send + Sync {
    /// Requests membership for this thread's slot and blocks until a
    /// boundary commits it; returns the first epoch this slot is a member
    /// of (its first `arrive` must be for that epoch).
    fn register(&self, ctx: &dyn MemCtx) -> u32 {
        let token = self.request_join(ctx);
        self.await_join(ctx, token)
    }

    /// The non-blocking half of [`Phaser::register`]: stores the join
    /// request and returns a token for [`Phaser::await_join`]. Split so a
    /// caller can make the request visible to a peer (e.g. a scripted
    /// handshake word that keeps the team running boundaries until the
    /// join commits) *before* blocking on the ack.
    fn request_join(&self, ctx: &dyn MemCtx) -> u32;

    /// Blocks until the join requested with `token` commits; returns the
    /// first member epoch.
    fn await_join(&self, ctx: &dyn MemCtx, token: u32) -> u32;

    /// Arrives for the current epoch; returns that epoch. Does **not**
    /// wait for the release (split-phase). Idempotent per epoch: calling
    /// again before the epoch commits re-enters the same arrival, so a
    /// bounded wait that aborted mid-`arrive` can safely retry.
    ///
    /// Fails with [`BarrierError::Evicted`] (exactly once, consuming the
    /// report) if this slot was evicted by a survivor.
    fn arrive(&self, ctx: &dyn MemCtx) -> Result<u32, BarrierError>;

    /// Blocks until epoch `epoch` has committed.
    fn wait_epoch(&self, ctx: &dyn MemCtx, epoch: u32);

    /// [`Phaser::arrive`] then [`Phaser::wait_epoch`]; the normal episode.
    fn arrive_and_wait(&self, ctx: &dyn MemCtx) -> Result<u32, BarrierError> {
        let e = self.arrive(ctx)?;
        self.wait_epoch(ctx, e);
        ctx.mark(phaser_mark(PH_COMPLETED, ctx.tid(), e));
        Ok(e)
    }

    /// Leaves the team: requests the transition and makes this slot's
    /// *final* arrival (counting toward the current epoch so peers are not
    /// left short), without waiting for the release. Returns the final
    /// epoch; re-registration requires `wait_epoch(final)` first.
    ///
    /// When the **last** member leaves, the boundary commits zero members
    /// and the phaser *retires*: [`Phaser::members`] reads 0 from then on,
    /// the final epoch still releases, and nobody can arrive again.
    fn deregister(&self, ctx: &dyn MemCtx) -> Result<u32, BarrierError>;

    /// Scans for an evictable member of epoch `epoch`: a current member
    /// that has not even *begun* arriving for it — neither the entry
    /// stamp nor the arrival ledger has reached the epoch — (and, for
    /// tree phasers, whose subtree is otherwise complete, so the proxy
    /// arrival can propagate). A live member mid-`arrive` (e.g. spinning
    /// on its subtree) is therefore never named. `None`
    /// when every member has arrived, the stall is not yet attributable,
    /// or `epoch` is no longer current — a recoverer whose timeout
    /// straddled a boundary commit must not scan the *next* epoch, where
    /// every member trivially "has not arrived yet".
    fn find_victim(&self, ctx: &dyn MemCtx, epoch: u32) -> Option<usize>;

    /// Claims and executes the eviction of `victim` for epoch `epoch`:
    /// first-claim-wins ticket, the winner stamps `evicted_at`, requests
    /// the `Evicted` transition, and **proxy-arrives** on the victim's
    /// behalf (running the boundary itself if that was the last arrival).
    /// Returns what the proxy arrival did; `None` if another thread already
    /// claimed this victim or `epoch` already committed (the caller should
    /// simply re-enter its wait). Winning the ticket while `epoch` is still
    /// current proves the epoch cannot have committed (the unarrived,
    /// unclaimed victim's count is missing), so the proxy arrival lands in
    /// the right epoch.
    ///
    /// The victim is not required to be dead: a merely-slow member may be
    /// running its own `arrive` for the same epoch concurrently. The
    /// proxy arrival and the victim's own are arbitrated by a CAS on the
    /// slot's arrival ledger, so exactly one of them is counted — the
    /// epoch total can never overshoot. A wrongfully evicted live victim
    /// thus still completes the epoch (whichever side counted it), is out
    /// from the boundary on, and learns of the eviction exactly once at
    /// its next `arrive`. One liveness caveat for the tree variant: a
    /// straggler picked as victim *before it began arriving* may enter
    /// `arrive` concurrently with the proxy; if the proxy wins while the
    /// straggler is spinning on its subtree counter, the propagation
    /// resets that counter and the raw spin never terminates —
    /// wrongful-eviction recovery requires bounded waits (see
    /// `RobustPhaser`), which abort the spin and surface the eviction
    /// report on re-entry.
    fn evict(&self, ctx: &dyn MemCtx, victim: usize, epoch: u32) -> Option<Claim>;

    /// The current epoch (the one arrivals are counted against).
    fn epoch(&self, ctx: &dyn MemCtx) -> u32;

    /// The committed member count of the current epoch.
    fn members(&self, ctx: &dyn MemCtx) -> u32;

    /// Algorithm label (`"PH-CTR"` / `"PH-TREE"`).
    fn name(&self) -> &str;
}

/// The shared slot machinery: membership/release words plus the per-slot
/// request, ack, ledger, report and ticket arrays. Both phaser variants
/// embed one of these; the variant adds only its arrival structure.
/// Methods are generic over the context (static dispatch on the host).
///
/// The words are one block, `stride` bytes apart: `membership`, `release`,
/// then six arrays of `cap` words — `state`, `join_epoch`, `last_arrived`,
/// `entered`, `evicted_at`, `evict_claim` — so only the base is stored.
struct Slots {
    base: Addr,
    cap: u32,
    initial: u32,
    stride: u32,
}

impl Slots {
    /// Allocates every word `stride` bytes apart: the cache-line size for
    /// the padded layout, 4 for the packed one.
    fn new(arena: &mut Arena, cap: usize, initial: usize, stride: usize) -> Self {
        assert!(cap >= 1 && cap <= COUNT_MASK as usize, "capacity must be 1..=4095");
        assert!(initial >= 1 && initial <= cap, "need 1..=cap initial members");
        let base = arena.alloc_padded_u32_array(2 + 6 * cap, stride);
        // cap <= 4095 and initial <= cap (asserted), stride is a line size.
        Self { base, cap: cap as u32, initial: initial as u32, stride: stride as u32 }
    }

    fn membership(&self) -> Addr {
        self.base
    }
    fn release(&self) -> Addr {
        padded_elem(self.base, 1, self.stride as usize)
    }
    /// `slot`'s word in per-slot array `array` (0-based, in block order).
    fn of(&self, array: usize, slot: usize) -> Addr {
        padded_elem(self.base, 2 + array * self.cap as usize + slot, self.stride as usize)
    }
    fn state_of(&self, slot: usize) -> Addr {
        self.of(0, slot)
    }
    fn join_epoch_of(&self, slot: usize) -> Addr {
        self.of(1, slot)
    }
    /// The CAS-arbitrated arrival ledger (see [`Slots::claim_arrival`]).
    fn last_arrived_of(&self, slot: usize) -> Addr {
        self.of(2, slot)
    }
    /// Advisory entry stamp: the slot stores the epoch here the moment it
    /// *begins* `arrive`, before any blocking wait. Victim scans consult
    /// it so a live member mid-arrival (e.g. a tree rank spinning on its
    /// subtree, which claims the ledger only afterwards) is never
    /// mistaken for a stalled one. Self-stored only — safety never rests
    /// on it, the CAS claim does. The store must nevertheless stay
    /// release: a buffered (relaxed) stamp would stay invisible for the
    /// whole of a following subtree spin, exactly the window the stamp
    /// exists to cover, and a raw-spinning live member could be named as
    /// a victim.
    fn entered_of(&self, slot: usize) -> Addr {
        self.of(3, slot)
    }
    fn evicted_at_of(&self, slot: usize) -> Addr {
        self.of(4, slot)
    }
    fn evict_claim_of(&self, slot: usize) -> Addr {
        self.of(5, slot)
    }

    /// Decodes the raw state word: zero means "never touched", which is
    /// `Active` for the initial members and `Out` for everyone else.
    fn effective_state(&self, raw: u32, slot: usize) -> u32 {
        if raw == 0 {
            if slot < self.initial as usize {
                ACTIVE
            } else {
                OUT
            }
        } else {
            raw
        }
    }

    /// Is `slot` a member of the current epoch? Stable within the epoch:
    /// mid-epoch leave/evict *requests* keep the slot a member until the
    /// boundary commits them.
    fn is_member<C: MemCtx + ?Sized>(&self, ctx: &C, slot: usize) -> bool {
        matches!(
            self.effective_state(ctx.load(self.state_of(slot)), slot),
            ACTIVE | LEAVE_REQ | EVICT_REQ
        )
    }

    /// `(epoch, count)` of the current epoch. Only the all-zero word (a
    /// fresh arena) decodes as epoch 1 with the initial members.
    ///
    /// The load must stay acquire: a stale membership word read after the
    /// release would let a thread arrive against the previous epoch's
    /// count or tree shape.
    fn decode<C: MemCtx + ?Sized>(&self, ctx: &C) -> (u32, u32) {
        let m = ctx.load(self.membership());
        if m == 0 {
            (1, self.initial)
        } else {
            (m >> EPOCH_SHIFT, m & COUNT_MASK)
        }
    }

    /// One-shot eviction report: consumes and returns `Evicted` if a
    /// survivor evicted this slot.
    fn take_eviction<C: MemCtx + ?Sized>(&self, ctx: &C) -> Result<(), BarrierError> {
        let slot = ctx.tid();
        let at = ctx.load(self.evicted_at_of(slot));
        if at != 0 {
            ctx.store(self.evicted_at_of(slot), 0);
            return Err(BarrierError::Evicted { tid: slot, episode: at });
        }
        Ok(())
    }

    /// Applies the requested transitions for the boundary of `epoch`:
    /// hands each member slot of `epoch + 1` to `member` in slot order and
    /// returns the member count plus this boundary's joiners (no
    /// allocation without joiners). Only the champion calls this; `publish`
    /// stores after the variant rebuilt its arrival structure.
    fn apply_transitions<C: MemCtx + ?Sized>(
        &self,
        ctx: &C,
        mut member: impl FnMut(usize),
    ) -> (u32, Vec<usize>) {
        let mut members = 0;
        let mut joiners = Vec::new();
        for slot in 0..self.cap as usize {
            let raw = ctx.load(self.state_of(slot));
            match self.effective_state(raw, slot) {
                JOIN_REQ => {
                    ctx.store(self.state_of(slot), ACTIVE);
                    members += 1;
                    member(slot);
                    joiners.push(slot);
                }
                ACTIVE => {
                    members += 1;
                    member(slot);
                }
                LEAVE_REQ => ctx.store(self.state_of(slot), LEFT),
                EVICT_REQ => ctx.store(self.state_of(slot), EVICTED),
                _ => {}
            }
        }
        (members, joiners)
    }

    /// Publishes the boundary: the new membership word, the join acks (so
    /// a joiner that wakes also sees the committed membership stored
    /// before its ack), and the release **last**. Zero members retire the
    /// phaser: the word then decodes as zero members for good.
    fn publish<C: MemCtx + ?Sized>(&self, ctx: &C, epoch: u32, members: u32, joiners: &[usize]) {
        // Past the limit the word would wrap to epoch 0: every claim would
        // lose and every `wait_epoch` pass at once.
        assert!(epoch < EPOCH_LIMIT, "phaser exhausted its epoch space at epoch {epoch}");
        ctx.store(self.membership(), ((epoch + 1) << EPOCH_SHIFT) | members);
        for &slot in joiners {
            ctx.store(self.join_epoch_of(slot), epoch + 1);
        }
        ctx.store(self.release(), epoch);
    }

    fn request_join<C: MemCtx + ?Sized>(&self, ctx: &C) -> u32 {
        let slot = ctx.tid();
        debug_assert!(slot < self.cap as usize, "slot {slot} outside phaser capacity {}", self.cap);
        let cur = ctx.load(self.join_epoch_of(slot));
        ctx.store(self.state_of(slot), JOIN_REQ);
        cur
    }

    fn await_join<C: MemCtx + ?Sized>(&self, ctx: &C, token: u32) -> u32 {
        let slot = ctx.tid();
        let acked = ctx.spin_until_ge(self.join_epoch_of(slot), token + 1);
        ctx.mark(phaser_mark(PH_JOINED, slot, acked));
        acked
    }

    /// `epoch`'s member count while it is current: a vote pinned to a
    /// committed epoch must not scan the next, where nobody has arrived.
    fn current_count<C: MemCtx + ?Sized>(&self, ctx: &C, epoch: u32) -> Option<u32> {
        let (cur, count) = self.decode(ctx);
        (cur == epoch).then_some(count)
    }

    /// The eviction prologue: while `epoch` is current, the first-claim-
    /// wins ticket plus the report/transition stores; the winner gets the
    /// member count. The ticket never resets, so a slot that rejoined
    /// after an eviction cannot be evicted a second time — its next stall
    /// falls back to poisoning (documented limitation).
    fn claim_eviction<C: MemCtx + ?Sized>(
        &self,
        ctx: &C,
        victim: usize,
        epoch: u32,
    ) -> Option<u32> {
        let count = self.current_count(ctx, epoch)?;
        if ctx.fetch_add(self.evict_claim_of(victim), 1) != 0 {
            return None;
        }
        ctx.store(self.evicted_at_of(victim), epoch);
        ctx.store(self.state_of(victim), EVICT_REQ);
        ctx.mark(phaser_mark(PH_EVICTED, victim, epoch));
        Some(count)
    }

    /// The leave prologue: the eviction report, else the leave request.
    fn request_leave<C: MemCtx + ?Sized>(&self, ctx: &C) -> Result<(), BarrierError> {
        self.take_eviction(ctx)?;
        ctx.store(self.state_of(ctx.tid()), LEAVE_REQ);
        Ok(())
    }

    /// Atomically claims `slot`'s arrival for `epoch`: a CAS walks
    /// `last_arrived` up to `epoch` and only the caller whose exchange
    /// lands gets `true`. This is the arbitration the eviction race needs:
    /// a slow-but-alive victim's own `arrive` and the elected evictor's
    /// proxy can run concurrently, and with a plain load/store ledger both
    /// would count an arrival for the same slot in the same epoch — the
    /// count overshoots and the next epoch can release early (a barrier
    /// safety violation). With the CAS exactly one of them wins and does
    /// the counting; the loser observes `last_arrived >= epoch` and backs
    /// off (for the slot's own re-entry after a bounded-wait abort, that
    /// back-off is what makes `arrive` idempotent per epoch).
    fn claim_arrival<C: MemCtx + ?Sized>(&self, ctx: &C, slot: usize, epoch: u32) -> bool {
        let ledger = self.last_arrived_of(slot);
        let mut prev = ctx.load(ledger);
        loop {
            if prev >= epoch {
                return false; // already arrived: re-entry, or the rival won
            }
            let got = ctx.compare_exchange(ledger, prev, epoch);
            if got == prev {
                return true;
            }
            prev = got;
        }
    }

    /// The victim-scan predicate: `slot` has shown no sign of life for
    /// `epoch` — it neither *began* `arrive` (the entry stamp) nor has a
    /// counted arrival (the CAS ledger, which a tree rank claims only
    /// after its subtree spin). Checking the entry stamp keeps a live
    /// member mid-arrival off the victim list.
    fn unarrived<C: MemCtx + ?Sized>(&self, ctx: &C, slot: usize, epoch: u32) -> bool {
        ctx.load(self.entered_of(slot)) < epoch && ctx.load(self.last_arrived_of(slot)) < epoch
    }
}

/// Epochs a phaser can commit: the boundary of `e` publishes `e + 1`,
/// which must fit the 20-bit epoch field. The shared commit asserts it.
pub const EPOCH_LIMIT: u32 = (u32::MAX >> EPOCH_SHIFT) - 1;

/// What one arrival — a member's own or a proxy's — did to its epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Claim {
    /// The ledger already held this epoch (a re-entry, or a rival won).
    Lost,
    /// Counted; the epoch is still open.
    Counted,
    /// Counted, filled the epoch, and committed its boundary inline.
    Committed,
}

/// Centralized counter phaser: one `fetch_add` per arrival, champion
/// commits the boundary. The dynamic-membership analogue of SENSE.
///
/// The `*_claim` methods are generic over the context and report their
/// [`Claim`], so a host embedding (serve teams) dispatches statically.
pub struct CentralPhaser {
    slots: Slots,
    arrivals: Addr,
}

impl CentralPhaser {
    /// A phaser for up to `cap` slots of which `0..initial` start as
    /// members, every word alone on a cache line of `topo`. Allocate
    /// before the arena is materialized.
    pub fn new(arena: &mut Arena, cap: usize, initial: usize, topo: &Topology) -> Self {
        Self::with_stride(arena, cap, initial, topo.cacheline_bytes())
    }

    /// Fixed-membership construction (all `p` slots start as members), for
    /// the registry / `Barrier` uses.
    pub fn full(arena: &mut Arena, p: usize, topo: &Topology) -> Self {
        Self::new(arena, p, p, topo)
    }

    /// All `cap` slots start as members, with the words packed back to
    /// back: for many small phasers, each in its own host arena.
    pub fn packed(arena: &mut Arena, cap: usize) -> Self {
        Self::with_stride(arena, cap, cap, 4)
    }

    fn with_stride(arena: &mut Arena, cap: usize, initial: usize, stride: usize) -> Self {
        Self {
            slots: Slots::new(arena, cap, initial, stride),
            arrivals: arena.alloc_padded_u32(stride),
        }
    }

    fn commit_boundary<C: MemCtx + ?Sized>(&self, ctx: &C, epoch: u32) {
        let (members, joiners) = self.slots.apply_transitions(ctx, |_| {});
        ctx.store(self.arrivals, 0);
        self.slots.publish(ctx, epoch, members, &joiners);
    }

    /// Claims `slot`'s arrival for `epoch`; the winner counts it.
    fn count<C: MemCtx + ?Sized>(&self, ctx: &C, slot: usize, epoch: u32, count: u32) -> Claim {
        if !self.slots.claim_arrival(ctx, slot, epoch) {
            return Claim::Lost;
        }
        if ctx.fetch_add(self.arrivals, 1) + 1 == count {
            self.commit_boundary(ctx, epoch);
            return Claim::Committed;
        }
        Claim::Counted
    }

    /// [`Phaser::arrive`], reporting what the arrival did.
    pub fn arrive_claim<C: MemCtx + ?Sized>(&self, ctx: &C) -> Result<(u32, Claim), BarrierError> {
        let slot = ctx.tid();
        // Word first, report second: an eviction stores the report before
        // the boundary that drops the slot stores the word, so a word that
        // excludes this slot comes with a report that stops it here (in
        // the other order it could count into an epoch it is not part of).
        let (epoch, count) = self.slots.decode(ctx);
        self.slots.take_eviction(ctx)?;
        ctx.store(self.slots.entered_of(slot), epoch);
        // The CAS claim arbitrates this arrival against both the slot's
        // own re-entry (a bounded wait that aborted after counting must
        // not count twice) and a survivor's concurrent proxy arrival
        // ([`Phaser::evict`]); only the claim winner touches the counter.
        Ok((epoch, self.count(ctx, slot, epoch, count)))
    }

    /// [`Phaser::deregister`], reporting what the final arrival did.
    /// `arrived` is 0, or an epoch this slot arrived for and has not
    /// waited out: that arrival is its last, and the request races that
    /// epoch's boundary scan. A read-only `fetch_add` on the counter orders
    /// them: before the filling one, the scan sees the request; after it,
    /// the leaver waits out the commit and, if the scan missed the
    /// request, arrives once more in the next epoch.
    pub fn deregister_claim<C: MemCtx + ?Sized>(
        &self,
        ctx: &C,
        arrived: u32,
    ) -> Result<(u32, Claim), BarrierError> {
        let slot = ctx.tid();
        self.slots.request_leave(ctx)?;
        let (last, claim) = match arrived {
            0 => self.arrive_claim(ctx)?,
            e => self.leave_after(ctx, slot, e),
        };
        ctx.mark(phaser_mark(PH_LEFT, slot, last));
        Ok((last, claim))
    }

    fn leave_after<C: MemCtx + ?Sized>(&self, ctx: &C, slot: usize, e: u32) -> (u32, Claim) {
        let seen = ctx.fetch_add(self.arrivals, 0);
        let (cur, count) = self.slots.decode(ctx);
        // Before the filling arrival the counter is 1..count (this slot
        // counted); 0 or `count` mean the boundary is committing.
        if cur == e && seen != 0 && seen < count {
            return (e, Claim::Lost);
        }
        ctx.spin_until_ge(self.slots.release(), e);
        // Word first, state second, as in `arrive_claim`: a boundary that
        // applied the leave or an eviction stored the state before the word.
        let (next, count) = self.slots.decode(ctx);
        let raw = ctx.load(self.slots.state_of(slot));
        if self.slots.effective_state(raw, slot) != LEAVE_REQ {
            return (e, Claim::Lost); // the boundary of `e` applied the leave
        }
        ctx.mark(phaser_mark(PH_COMPLETED, slot, e));
        ctx.store(self.slots.entered_of(slot), next);
        (next, self.count(ctx, slot, next, count))
    }

    /// The slots this phaser was built for.
    pub fn capacity(&self) -> usize {
        self.slots.cap as usize
    }

    /// The last committed epoch: epoch `e` has released iff this is `>= e`.
    pub fn completed<C: MemCtx + ?Sized>(&self, ctx: &C) -> u32 {
        ctx.load(self.slots.release())
    }

    /// The address of the release word, which every waiter polls.
    pub fn release_word(&self) -> Addr {
        self.slots.release()
    }

    /// `slot`'s arrival ledger: the last epoch counted for it, by itself
    /// or by a proxy (0 before its first). A slot that is a member from
    /// epoch 1 and never rejoins has exactly this many counted arrivals.
    pub fn last_arrived<C: MemCtx + ?Sized>(&self, ctx: &C, slot: usize) -> u32 {
        ctx.load(self.slots.last_arrived_of(slot))
    }
}

impl Phaser for CentralPhaser {
    fn request_join(&self, ctx: &dyn MemCtx) -> u32 {
        self.slots.request_join(ctx)
    }

    fn await_join(&self, ctx: &dyn MemCtx, token: u32) -> u32 {
        self.slots.await_join(ctx, token)
    }

    fn arrive(&self, ctx: &dyn MemCtx) -> Result<u32, BarrierError> {
        self.arrive_claim(ctx).map(|(e, _)| e)
    }

    fn wait_epoch(&self, ctx: &dyn MemCtx, epoch: u32) {
        ctx.spin_until_ge(self.slots.release(), epoch);
    }

    fn deregister(&self, ctx: &dyn MemCtx) -> Result<u32, BarrierError> {
        self.deregister_claim(ctx, 0).map(|(e, _)| e)
    }

    fn find_victim(&self, ctx: &dyn MemCtx, epoch: u32) -> Option<usize> {
        self.slots.current_count(ctx, epoch)?;
        (0..self.slots.cap as usize).find(|&slot| {
            self.slots.is_member(ctx, slot)
                && self.slots.unarrived(ctx, slot, epoch)
                && slot != ctx.tid()
        })
    }

    fn evict(&self, ctx: &dyn MemCtx, victim: usize, epoch: u32) -> Option<Claim> {
        let count = self.slots.claim_eviction(ctx, victim, epoch)?;
        // Proxy arrival (shyper's `add_barrier_count`): the survivor
        // arrives on the victim's behalf — but only if it wins the CAS
        // claim. A slow-but-alive victim may be counting its own arrival
        // concurrently, and with both counted the total would overshoot
        // and the *next* epoch could release early. The eviction stands
        // either way: the victim is out from the boundary on.
        Some(self.count(ctx, victim, epoch, count))
    }

    fn epoch(&self, ctx: &dyn MemCtx) -> u32 {
        self.slots.decode(ctx).0
    }
    fn members(&self, ctx: &dyn MemCtx) -> u32 {
        self.slots.decode(ctx).1
    }
    fn name(&self) -> &str {
        "PH-CTR"
    }
}

impl Barrier for CentralPhaser {
    fn wait(&self, ctx: &dyn MemCtx) {
        self.arrive_and_wait(ctx).expect("fixed-membership phaser cannot be evicted");
    }
    fn name(&self) -> &str {
        Phaser::name(self)
    }
}

/// 4-ary arrival-tree phaser that **reparents** on membership change: the
/// champion recomputes the dense rank table (member slots in slot order →
/// ranks `0..count`) at every boundary, so each epoch's tree spans exactly
/// the committed members. Rank `r`'s children are ranks `4r+1..=4r+4`
/// (clamped to the member count); internal ranks aggregate child arrivals
/// through per-rank padded counters, rank 0 commits the boundary.
pub struct TreePhaser {
    slots: Slots,
    /// Per-slot rank table, written by the champion: `0` = "use the slot
    /// number" (valid only for the initial membership, where slots 0..p
    /// are ranks 0..p), otherwise `rank + 1`.
    rank_of: Addr,
    /// Per-rank child-arrival counters.
    counter: Addr,
}

const FANIN: usize = 4;

impl TreePhaser {
    /// See [`CentralPhaser::new`]; same slot semantics, tree arrivals.
    pub fn new(arena: &mut Arena, cap: usize, initial: usize, topo: &Topology) -> Self {
        let line = topo.cacheline_bytes();
        Self {
            slots: Slots::new(arena, cap, initial, line),
            rank_of: arena.alloc_padded_u32_array(cap, line),
            counter: arena.alloc_padded_u32_array(cap, line),
        }
    }

    /// Fixed-membership construction, for the registry / `Barrier` uses.
    pub fn full(arena: &mut Arena, p: usize, topo: &Topology) -> Self {
        Self::new(arena, p, p, topo)
    }

    fn rank_addr(&self, slot: usize) -> Addr {
        padded_elem(self.rank_of, slot, self.slots.stride as usize)
    }
    fn counter_addr(&self, rank: usize) -> Addr {
        padded_elem(self.counter, rank, self.slots.stride as usize)
    }

    fn rank(&self, ctx: &dyn MemCtx, slot: usize) -> usize {
        match ctx.load(self.rank_addr(slot)) {
            0 => slot,
            r => r as usize - 1,
        }
    }

    fn nchildren(rank: usize, count: u32) -> usize {
        let lo = FANIN * rank + 1;
        (count as usize).saturating_sub(lo).min(FANIN)
    }

    fn commit_boundary(&self, ctx: &dyn MemCtx, epoch: u32) {
        let mut members = Vec::with_capacity(self.slots.cap as usize);
        let (count, joiners) = self.slots.apply_transitions(ctx, |slot| members.push(slot));
        // Reparent: dense ranks over the new member set, in slot order.
        for (rank, &slot) in members.iter().enumerate() {
            ctx.store(self.rank_addr(slot), rank as u32 + 1);
        }
        self.slots.publish(ctx, epoch, count, &joiners);
    }

    /// Consumes a complete child set and propagates the arrival upward
    /// from `rank` (running the boundary at rank 0, which reports
    /// `Committed`). Shared by the normal arrival path and the eviction
    /// proxy. The counter reset is safe before the parent bump: every
    /// counter in the tree is reset before the root can commit, so
    /// next-epoch bumps always land on zero.
    fn propagate(&self, ctx: &dyn MemCtx, rank: usize, epoch: u32, count: u32) -> Claim {
        if Self::nchildren(rank, count) > 0 {
            ctx.store(self.counter_addr(rank), 0);
        }
        if rank == 0 {
            self.commit_boundary(ctx, epoch);
            return Claim::Committed;
        }
        ctx.fetch_add(self.counter_addr((rank - 1) / FANIN), 1);
        Claim::Counted
    }
}

impl Phaser for TreePhaser {
    fn request_join(&self, ctx: &dyn MemCtx) -> u32 {
        self.slots.request_join(ctx)
    }

    fn await_join(&self, ctx: &dyn MemCtx, token: u32) -> u32 {
        self.slots.await_join(ctx, token)
    }

    fn arrive(&self, ctx: &dyn MemCtx) -> Result<u32, BarrierError> {
        let slot = ctx.tid();
        // Word first, report second, as in `CentralPhaser::arrive_claim`.
        let (epoch, count) = self.slots.decode(ctx);
        self.slots.take_eviction(ctx)?;
        if ctx.load(self.slots.last_arrived_of(slot)) >= epoch {
            return Ok(epoch); // re-entry: this epoch's arrival is counted
        }
        ctx.store(self.slots.entered_of(slot), epoch);
        let rank = self.rank(ctx, slot);
        let nch = Self::nchildren(rank, count);
        // The only blocking point of `arrive`: a bounded wait that aborts
        // here consumed nothing, so re-entering `arrive` simply re-spins.
        if nch > 0 {
            ctx.spin_until_eq(self.counter_addr(rank), nch as u32);
        }
        // Claimed *after* the spin so the winner propagates immediately —
        // claim and propagate contain no blocking point, so an abort can
        // never strand a won-but-unpropagated claim. The loser (a
        // survivor proxied this arrival concurrently, see
        // [`Phaser::evict`]) must not propagate a second time.
        if self.slots.claim_arrival(ctx, slot, epoch) {
            self.propagate(ctx, rank, epoch, count);
        }
        Ok(epoch)
    }

    fn wait_epoch(&self, ctx: &dyn MemCtx, epoch: u32) {
        ctx.spin_until_ge(self.slots.release(), epoch);
    }

    fn deregister(&self, ctx: &dyn MemCtx) -> Result<u32, BarrierError> {
        self.slots.request_leave(ctx)?;
        let e = self.arrive(ctx)?;
        ctx.mark(phaser_mark(PH_LEFT, ctx.tid(), e));
        Ok(e)
    }

    fn find_victim(&self, ctx: &dyn MemCtx, epoch: u32) -> Option<usize> {
        let count = self.slots.current_count(ctx, epoch)?;
        // Deepest stalled member whose own subtree is complete, so the
        // proxy arrival can propagate without waiting in the victim's
        // stead. Ranks grow with depth, so scanning for the max rank
        // finds the deepest; a stalled member with an incomplete subtree
        // is not yet attributable (a descendant is the real stall).
        let mut best: Option<(usize, usize)> = None;
        for slot in 0..self.slots.cap as usize {
            if slot == ctx.tid()
                || !self.slots.is_member(ctx, slot)
                || !self.slots.unarrived(ctx, slot, epoch)
            {
                continue;
            }
            let rank = self.rank(ctx, slot);
            let nch = Self::nchildren(rank, count);
            if nch > 0 && ctx.load(self.counter_addr(rank)) != nch as u32 {
                continue;
            }
            if best.is_none_or(|(r, _)| rank > r) {
                best = Some((rank, slot));
            }
        }
        best.map(|(_, slot)| slot)
    }

    fn evict(&self, ctx: &dyn MemCtx, victim: usize, epoch: u32) -> Option<Claim> {
        let count = self.slots.claim_eviction(ctx, victim, epoch)?;
        // Proxy arrival gated on the CAS claim: a slow-but-alive victim
        // may be completing the same epoch itself, and exactly one of the
        // two may consume the subtree counter and bump the parent — a
        // double propagation would overshoot an upstream counter and let
        // the next epoch release early. The eviction stands either way.
        if !self.slots.claim_arrival(ctx, victim, epoch) {
            return Some(Claim::Lost);
        }
        Some(self.propagate(ctx, self.rank(ctx, victim), epoch, count))
    }

    fn epoch(&self, ctx: &dyn MemCtx) -> u32 {
        self.slots.decode(ctx).0
    }
    fn members(&self, ctx: &dyn MemCtx) -> u32 {
        self.slots.decode(ctx).1
    }
    fn name(&self) -> &str {
        "PH-TREE"
    }
}

impl Barrier for TreePhaser {
    fn wait(&self, ctx: &dyn MemCtx) {
        self.arrive_and_wait(ctx).expect("fixed-membership phaser cannot be evicted");
    }
    fn name(&self) -> &str {
        Phaser::name(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use armbar_simcoh::SimBuilder;
    use armbar_topology::Platform;
    use std::sync::Arc;

    fn topo() -> Arc<Topology> {
        Arc::new(Topology::preset(Platform::Kunpeng920))
    }

    fn build(
        which: &str,
        arena: &mut Arena,
        cap: usize,
        initial: usize,
        t: &Topology,
    ) -> Arc<dyn Phaser> {
        match which {
            "ctr" => Arc::new(CentralPhaser::new(arena, cap, initial, t)),
            "tree" => Arc::new(TreePhaser::new(arena, cap, initial, t)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn mark_encoding_round_trips() {
        for (kind, slot, epoch) in [(PH_JOINED, 0, 1), (PH_EVICTED, 4094, 4095), (PH_LEFT, 7, 9)] {
            assert_eq!(
                decode_phaser_mark(phaser_mark(kind, slot, epoch)),
                Some((kind, slot, epoch))
            );
        }
        assert_eq!(decode_phaser_mark(crate::env::MARK_ENTER), None);
        assert_eq!(decode_phaser_mark(0), None);
    }

    #[test]
    fn stale_epoch_recovery_cannot_evict() {
        // Regression: a recoverer whose timeout straddles a boundary
        // commit holds a victim search licensed by the *old* epoch. Once
        // the boundary moves, that license is dead — scanning the fresh
        // epoch (where nobody has arrived yet) must name no victim, and a
        // stale eviction claim must lose.
        for which in ["ctr", "tree"] {
            let t = topo();
            let mut arena = Arena::new();
            let ph = build(which, &mut arena, 4, 4, &t);
            SimBuilder::new(Arc::clone(&t), 4)
                .run({
                    let ph = Arc::clone(&ph);
                    move |ctx| {
                        ph.arrive_and_wait(ctx).unwrap();
                        if ctx.tid() == 0 {
                            // Epoch 1 committed; a vote still pinned to it
                            // must be inert.
                            assert_eq!(ph.find_victim(ctx, 1), None, "{which}");
                            assert_eq!(ph.evict(ctx, 1, 1), None, "{which}");
                            // The fresh epoch has no arrivals yet — that
                            // is not evidence of a stall either way; the
                            // scan may name a peer only for the *current*
                            // epoch, which a real detector reaches only
                            // after a timeout.
                        }
                        ph.arrive_and_wait(ctx).unwrap();
                    }
                })
                .unwrap();
        }
    }

    #[test]
    fn fixed_membership_phasers_run_as_barriers() {
        for which in ["ctr", "tree"] {
            let t = topo();
            let mut arena = Arena::new();
            let ph = build(which, &mut arena, 8, 8, &t);
            let stats = SimBuilder::new(Arc::clone(&t), 8)
                .run({
                    let ph = Arc::clone(&ph);
                    move |ctx| {
                        for e in 1..=5u32 {
                            assert_eq!(ph.arrive_and_wait(ctx).unwrap(), e, "{which}");
                        }
                    }
                })
                .unwrap();
            assert!(stats.max_time_ns() > 0.0);
        }
    }

    #[test]
    fn late_joiner_participates_from_its_ack_epoch() {
        for which in ["ctr", "tree"] {
            let t = topo();
            let mut arena = Arena::new();
            let ph = build(which, &mut arena, 6, 5, &t);
            SimBuilder::new(Arc::clone(&t), 6)
                .run({
                    let ph = Arc::clone(&ph);
                    move |ctx| {
                        if ctx.tid() == 5 {
                            let k = ph.register(ctx);
                            assert!(
                                (2..=6).contains(&k),
                                "{which}: join commits at a boundary, got {k}"
                            );
                            // A member must keep arriving until it leaves;
                            // run through the team's final epoch.
                            for e in k..=6 {
                                assert_eq!(ph.arrive_and_wait(ctx).unwrap(), e, "{which}");
                            }
                        } else {
                            let mut last = 0;
                            for _ in 0..6 {
                                last = ph.arrive_and_wait(ctx).unwrap();
                            }
                            assert_eq!(last, 6, "{which}");
                            assert_eq!(ph.members(ctx), 6, "{which}: joiner counted");
                        }
                    }
                })
                .unwrap();
        }
    }

    #[test]
    fn leaver_drops_out_at_the_boundary() {
        for which in ["ctr", "tree"] {
            let t = topo();
            let mut arena = Arena::new();
            let ph = build(which, &mut arena, 8, 8, &t);
            SimBuilder::new(Arc::clone(&t), 8)
                .run({
                    let ph = Arc::clone(&ph);
                    move |ctx| {
                        ph.arrive_and_wait(ctx).unwrap();
                        if ctx.tid() == 3 {
                            // Final arrival for epoch 2; gone afterwards.
                            assert_eq!(ph.deregister(ctx).unwrap(), 2, "{which}");
                        } else {
                            for e in 2..=4u32 {
                                assert_eq!(ph.arrive_and_wait(ctx).unwrap(), e, "{which}");
                            }
                            assert_eq!(ph.members(ctx), 7, "{which}: leaver dropped");
                        }
                    }
                })
                .unwrap();
        }
    }

    #[test]
    fn flap_leave_then_rejoin_same_slot() {
        for which in ["ctr", "tree"] {
            let t = topo();
            let mut arena = Arena::new();
            let ph = build(which, &mut arena, 4, 4, &t);
            SimBuilder::new(Arc::clone(&t), 4)
                .run({
                    let ph = Arc::clone(&ph);
                    move |ctx| {
                        if ctx.tid() == 1 {
                            let e = ph.deregister(ctx).unwrap();
                            ph.wait_epoch(ctx, e); // leave must commit first
                            let k = ph.register(ctx);
                            assert!(k > e, "{which}: rejoined for a later epoch");
                            assert!(k <= 6, "{which}: rejoin ack ran away: {k}");
                            for e in k..=6 {
                                assert_eq!(ph.arrive_and_wait(ctx).unwrap(), e, "{which}");
                            }
                        } else {
                            for _ in 0..6 {
                                ph.arrive_and_wait(ctx).unwrap();
                            }
                        }
                    }
                })
                .unwrap();
        }
    }

    #[test]
    fn mark_epoch_saturates_instead_of_aliasing() {
        let m = phaser_mark(PH_COMPLETED, 3, 70_000);
        assert_eq!(decode_phaser_mark(m), Some((PH_COMPLETED, 3, PH_MARK_EPOCH_MAX)));
        assert_eq!(m, phaser_mark(PH_COMPLETED, 3, PH_MARK_EPOCH_MAX));
        // One below the cap still round-trips exactly.
        assert_eq!(
            decode_phaser_mark(phaser_mark(PH_LEFT, 0, PH_MARK_EPOCH_MAX - 1)),
            Some((PH_LEFT, 0, PH_MARK_EPOCH_MAX - 1))
        );
    }

    #[test]
    fn arrival_claim_elects_exactly_one_winner() {
        let t = topo();
        let mut arena = Arena::new();
        let ph = Arc::new(CentralPhaser::new(&mut arena, 4, 4, &t));
        let wins = arena.alloc_padded_u32(t.cacheline_bytes());
        let done = arena.alloc_padded_u32(t.cacheline_bytes());
        SimBuilder::new(Arc::clone(&t), 2)
            .run({
                let ph = Arc::clone(&ph);
                move |ctx| {
                    if ph.slots.claim_arrival(ctx, 0, 5) {
                        ctx.fetch_add(wins, 1);
                    }
                    ctx.fetch_add(done, 1);
                    ctx.spin_until_eq(done, 2);
                    assert_eq!(ctx.load(wins), 1, "exactly one claimant may win");
                    // The ledger lands on the claimed epoch either way,
                    // and repeat claims for it (re-entries) lose.
                    assert_eq!(ctx.load(ph.slots.last_arrived_of(0)), 5);
                    assert!(!ph.slots.claim_arrival(ctx, 0, 5));
                }
            })
            .unwrap();
    }

    #[test]
    fn evictor_loses_the_arrival_race_to_a_live_victim() {
        // Eviction-vs-arrival race: the victim is alive and has *already*
        // arrived when a survivor evicts it. The proxy arrival must lose
        // the CAS claim — under a plain load/store ledger both sides
        // counted the same slot for the same epoch, the total overshot,
        // and the next epoch could release a member short.
        for which in ["ctr", "tree"] {
            let t = topo();
            let mut arena = Arena::new();
            let ph = build(which, &mut arena, 2, 2, &t);
            let aux = arena.alloc_padded_u32(t.cacheline_bytes());
            SimBuilder::new(Arc::clone(&t), 2)
                .run({
                    let ph = Arc::clone(&ph);
                    move |ctx| {
                        if ctx.tid() == 1 {
                            assert_eq!(ph.arrive(ctx).unwrap(), 1, "{which}");
                            ctx.store(aux, 1); // arrival is on the ledger
                            ph.wait_epoch(ctx, 1);
                            // The wrongful eviction still stands and
                            // reports exactly once at the next arrive.
                            assert_eq!(
                                ph.arrive(ctx).unwrap_err(),
                                BarrierError::Evicted { tid: 1, episode: 1 },
                                "{which}"
                            );
                        } else {
                            ctx.spin_until_ge(aux, 1);
                            assert_eq!(ph.evict(ctx, 1, 1), Some(Claim::Lost), "{which}");
                            // Had the proxy double-counted, epoch 1 would
                            // have committed on the evict alone and this
                            // arrival would land in epoch 2 (the tree
                            // variant would deadlock on an overshot
                            // counter instead).
                            assert_eq!(ph.arrive(ctx).unwrap(), 1, "{which}");
                            ph.wait_epoch(ctx, 1);
                            assert_eq!(ph.members(ctx), 1, "{which}: victim out");
                            assert_eq!(ph.epoch(ctx), 2, "{which}");
                        }
                    }
                })
                .unwrap();
        }
    }

    #[test]
    fn draining_the_last_member_retires_the_phaser() {
        // The boundary that commits zero members retires the phaser: the
        // final epoch still releases, the word reads zero members at the
        // next epoch, and it never decodes back to the initial members.
        for which in ["ctr", "tree"] {
            let t = topo();
            let mut arena = Arena::new();
            let ph = build(which, &mut arena, 2, 2, &t);
            SimBuilder::new(Arc::clone(&t), 2)
                .run({
                    let ph = Arc::clone(&ph);
                    move |ctx| {
                        ph.arrive_and_wait(ctx).unwrap();
                        let last = ph.deregister(ctx).unwrap();
                        assert_eq!(last, 2, "{which}");
                        ph.wait_epoch(ctx, last);
                        assert_eq!(ph.members(ctx), 0, "{which}: retired");
                        assert_eq!(ph.epoch(ctx), 3, "{which}");
                    }
                })
                .unwrap();
        }
    }

    #[test]
    fn eviction_completes_the_epoch_and_reports_once() {
        for which in ["ctr", "tree"] {
            let t = topo();
            let mut arena = Arena::new();
            let ph = build(which, &mut arena, 4, 4, &t);
            SimBuilder::new(Arc::clone(&t), 4)
                .run({
                    let ph = Arc::clone(&ph);
                    move |ctx| {
                        ph.arrive_and_wait(ctx).unwrap();
                        match ctx.tid() {
                            2 => {
                                // Deserts epoch 2. Waiting the release is
                                // legal without arriving; the next arrival
                                // then reports the eviction exactly once.
                                ph.wait_epoch(ctx, 2);
                                let err = ph.arrive_and_wait(ctx).unwrap_err();
                                assert_eq!(
                                    err,
                                    BarrierError::Evicted { tid: 2, episode: 2 },
                                    "{which}"
                                );
                            }
                            // Tid 3 detects: it is a leaf in the tree
                            // variant, so its own `arrive` never blocks and
                            // it is free to run the eviction.
                            3 => {
                                ph.arrive(ctx).unwrap();
                                loop {
                                    // Transient scans may blame a slow but
                                    // healthy peer; a real detector only
                                    // runs this after a timeout. Wait for
                                    // the stall to pin on the deserter.
                                    match ph.find_victim(ctx, 2) {
                                        Some(2) => break,
                                        _ => ctx.compute_ns(50.0),
                                    }
                                }
                                assert!(ph.evict(ctx, 2, 2).is_some(), "{which}");
                                ph.wait_epoch(ctx, 2);
                                assert_eq!(ph.members(ctx), 3, "{which}: reformed P-1");
                                ph.arrive_and_wait(ctx).unwrap();
                            }
                            _ => {
                                ph.arrive_and_wait(ctx).unwrap();
                                ph.arrive_and_wait(ctx).unwrap();
                            }
                        }
                    }
                })
                .unwrap();
        }
    }

    #[test]
    fn packed_phaser_fits_its_words_back_to_back() {
        let mut arena = Arena::new();
        let _ph = CentralPhaser::packed(&mut arena, 4);
        // membership, release, six per-slot arrays and the arrival counter.
        assert_eq!(arena.len(), 4 * (2 + 6 * 4 + 1));
        // Only the block's base is kept, not one address per array.
        assert_eq!(std::mem::size_of::<CentralPhaser>(), 20);
    }

    #[test]
    fn the_shared_commit_refuses_to_wrap_the_epoch_field() {
        let commit_at = |epoch: u32| {
            let mut arena = Arena::new();
            let ph = CentralPhaser::packed(&mut arena, 1);
            let mem = crate::host::HostMem::new(&arena);
            let ctx = mem.ctx(0, 1);
            ctx.store(ph.slots.membership(), (epoch << EPOCH_SHIFT) | 1);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ph.arrive_claim(&ctx).unwrap();
                ph.epoch(&ctx)
            }))
        };
        assert_eq!(commit_at(EPOCH_LIMIT - 1).ok(), Some(EPOCH_LIMIT));
        assert!(commit_at(EPOCH_LIMIT).is_err(), "publishing past the field must panic");
    }

    /// Runs `pause` once, right after the first load through it: the
    /// window between the first two loads of a victim's `arrive`.
    struct PauseAfterFirstLoad<'a> {
        inner: &'a dyn MemCtx,
        pause: std::cell::Cell<Option<Box<dyn FnOnce() + 'a>>>,
    }

    impl<'a> PauseAfterFirstLoad<'a> {
        fn new(inner: &'a dyn MemCtx, pause: impl FnOnce() + 'a) -> Self {
            Self { inner, pause: Some(Box::new(pause) as _).into() }
        }
    }

    impl crate::env::MemLayer for PauseAfterFirstLoad<'_> {
        fn inner(&self) -> &dyn MemCtx {
            self.inner
        }
        fn load(&self, addr: Addr) -> u32 {
            let value = self.inner.load(addr);
            if let Some(pause) = self.pause.take() {
                pause();
            }
            value
        }
    }

    #[test]
    fn an_eviction_inside_arrive_keeps_the_victim_out_of_the_next_epoch() {
        // The victim pauses after the first load of its `arrive` while the
        // survivor evicts it, proxies it and fills epoch 1. The victim must
        // then report its eviction, not count itself into epoch 2, whose
        // only member is the survivor.
        let mut arena = Arena::new();
        let ph = CentralPhaser::packed(&mut arena, 2);
        let mem = crate::host::HostMem::new(&arena);
        let (survivor, victim) = (mem.ctx(0, 2), mem.ctx(1, 2));
        let paused = PauseAfterFirstLoad::new(&victim, || {
            assert_eq!(ph.evict(&survivor, 1, 1), Some(Claim::Counted));
            assert_eq!(ph.arrive_claim(&survivor).unwrap(), (1, Claim::Committed));
        });
        let got = ph.arrive_claim(&paused as &dyn MemCtx);
        assert!(matches!(got, Err(BarrierError::Evicted { tid: 1, episode: 1 })), "got {got:?}");
        assert_eq!(
            (ph.epoch(&survivor), ph.members(&survivor), ph.completed(&survivor)),
            (2, 1, 1)
        );
    }

    #[test]
    fn an_eviction_inside_a_tree_arrive_keeps_the_victim_out_of_the_next_epoch() {
        // PH-TREE's form of the test above: the victim is the leaf rank 1,
        // so the survivor (rank 0) can evict it, proxy its propagation and
        // commit epoch 1 while the victim is paused inside `arrive`.
        let t = topo();
        let mut arena = Arena::new();
        let ph = TreePhaser::new(&mut arena, 2, 2, &t);
        let mem = crate::host::HostMem::new(&arena);
        let (survivor, victim) = (mem.ctx(0, 2), mem.ctx(1, 2));
        let paused = PauseAfterFirstLoad::new(&victim, || {
            assert_eq!(ph.evict(&survivor, 1, 1), Some(Claim::Counted));
            assert_eq!(ph.arrive(&survivor).unwrap(), 1);
        });
        let got = ph.arrive(&paused);
        assert!(matches!(got, Err(BarrierError::Evicted { tid: 1, episode: 1 })), "got {got:?}");
        assert_eq!(
            (ph.epoch(&survivor), ph.members(&survivor), survivor.load(ph.slots.release())),
            (2, 1, 1)
        );
        // Nothing propagated into epoch 2's tree: the root's counter is clear.
        assert_eq!(survivor.load(ph.counter_addr(0)), 0);
    }
}
