(** The data transfer unit (DTU) and its virtualized variant (vDTU).

    The DTU provides three interfaces (paper, section 3.4):

    - the {e unprivileged} interface used by activities to exercise existing
      communication channels (send/reply/fetch/ack, DMA reads and writes);
    - the {e external} interface used exclusively by the controller over the
      NoC to configure endpoints and thereby establish channels;
    - the {e privileged} interface (vDTU only) used by TileMux: the CUR_ACT
      register, the atomic activity switch, the software-loaded TLB and the
      core-request queue.

    Commands that move data complete asynchronously: the caller provides a
    completion continuation which the DTU invokes through the engine once
    the NoC transfer (and, for DMA, the DRAM access) has finished.  All
    transfers move real bytes. *)

type t

type completion = (unit, Dtu_types.error) result -> unit

(** A DTU with 128 endpoints and a 32-entry TLB. *)
val create :
  virtualized:bool ->
  tile:int ->
  M3v_sim.Engine.t ->
  M3v_noc.Noc.t ->
  t

(** Wire the DTU into the platform: how to find the DTU of another tile and
    the DRAM backing of a memory tile. *)
val connect : t -> lookup_dtu:(int -> t option) -> lookup_mem:(int -> Dram.t option) -> unit

val tile : t -> int
val virtualized : t -> bool
val ep_count : t -> int

(** {1 Unprivileged interface} *)

(** [send t ~ep ?reply_ep ?src_vaddr ~msg_size data ~k] issues a SEND.
    Consumes one credit; fails with [Recv_gone] (credit restored) if the
    remote receive endpoint is invalid or full.  [src_vaddr], when given on
    a vDTU, is translated through the TLB and must not cross a page.
    [issue_ts] (default: now) backdates the message's flow-start point to
    when software issued the command, so the profiler's sender-command
    segment covers MMIO overhead and credit-stall spins. *)
val send :
  t ->
  ep:int ->
  ?reply_ep:int ->
  ?src_vaddr:int ->
  ?issue_ts:int ->
  msg_size:int ->
  Msg.data ->
  k:completion ->
  unit

(** [spin_send t ~ep ... data ~poll_ps ~on_poll ~on_settle ~k] retries
    a SEND that failed with [No_credits] every [poll_ps], allocating
    nothing per retry (see {!M3v_sim.Engine.spin}).  Call it from the
    failed command's completion, with that command's arguments, in place
    of scheduling the SEND [poll_ps] later.  Each poll calls [on_poll ()]
    and then issues the SEND: its checks run and count as in {!send}.
    While it fails with [No_credits] again, the stalled command's
    completion follows the DTU's command time later: it records the
    [send] span and latency that [send] records, then calls
    [on_settle ()].  The first poll whose SEND does not stall ends the
    loop; that SEND completes through [k].  Everything simulated is as if
    each retry had been scheduled, the event count included. *)
val spin_send :
  t ->
  ep:int ->
  ?reply_ep:int ->
  ?src_vaddr:int ->
  ?issue_ts:int ->
  msg_size:int ->
  Msg.data ->
  poll_ps:M3v_sim.Time.t ->
  on_poll:(unit -> unit) ->
  on_settle:(unit -> unit) ->
  k:completion ->
  unit

(** [reply t ~to_msg ...] sends a reply through the reply endpoint recorded
    in [to_msg], without consuming credits, and implicitly acknowledges the
    message (freeing the receive slot and returning the sender's credit, as
    M3's REPLY does).  [recv_ep] is the endpoint the message was fetched
    from.  A classic gate's reply carries the credit; a shared ring owes it
    to its refund batch ({!Ep.batch}). *)
val reply :
  t ->
  recv_ep:int ->
  to_msg:Msg.t ->
  ?src_vaddr:int ->
  ?issue_ts:int ->
  msg_size:int ->
  Msg.data ->
  k:completion ->
  unit

(** Fetch the next unread message of a receive endpoint, if any. *)
val fetch : t -> ep:int -> (Msg.t option, Dtu_types.error) result

(** Acknowledge a fetched message without replying: frees the slot and
    returns the sender's credit, in its own credit packet on a classic
    gate and through the refund batch on a shared ring ({!Ep.batch}). *)
val ack : t -> ep:int -> Msg.t -> (unit, Dtu_types.error) result

(** DMA read from a memory endpoint's window into a local buffer.
    [dst_vaddr] is the local buffer's virtual address (translated on a
    vDTU). *)
val mem_read :
  t ->
  ep:int ->
  off:int ->
  len:int ->
  dst_vaddr:int option ->
  dst:bytes ->
  dst_off:int ->
  k:completion ->
  unit

(** DMA write from a local buffer into a memory endpoint's window. *)
val mem_write :
  t ->
  ep:int ->
  off:int ->
  len:int ->
  src_vaddr:int option ->
  src:bytes ->
  src_off:int ->
  k:completion ->
  unit

(** Whether [ep] is configured as a shared ring, a receive endpoint with a
    [batch] (any owner).  The tile runtime charges a ring's acks as a
    single MMIO store (the tail-counter bump) instead of a full command
    round trip. *)
val is_mpmc : t -> ep:int -> bool

(** {1 Privileged interface (vDTU)} *)

val cur_act : t -> Dtu_types.act_id
val unread_of : t -> Dtu_types.act_id -> int

(** Atomically switch to another activity; returns the old activity id and
    its unread count so TileMux can decide whether the old activity may
    block (paper, section 3.7). *)
val switch_act : t -> next:Dtu_types.act_id -> Dtu_types.act_id * int

val tlb_insert :
  t -> act:Dtu_types.act_id -> vpage:int -> ppage:int -> perm:Dtu_types.perm -> unit

val tlb_invalidate_act : t -> Dtu_types.act_id -> unit
val tlb : t -> Tlb.t

(** Head of the core-request queue (the activity that received a message
    while not running), without removing it. *)
val fetch_core_req : t -> Dtu_types.act_id option

(** Acknowledge the head core request.  If the queue remains non-empty the
    vDTU raises the interrupt again shortly after. *)
val ack_core_req : t -> unit

val core_req_depth : t -> int

(** The interrupt line into the core, handled by TileMux. *)
val set_core_req_irq : t -> (unit -> unit) -> unit

(** Notification that a message arrived for an activity on this tile
    (running or not); the runtime uses it to wake pollers. *)
val set_msg_arrived : t -> (Dtu_types.act_id -> unit) -> unit

(** {1 External interface (controller only)} *)

(** Configuring a memory endpoint backs the DRAM pages of its window
    ({!Dram.back}); putting one back with [ext_put] does not.
    [ext_config t ~ep ~owner:Dtu_types.invalid_act Ep.Invalid] invalidates
    slot [ep]. *)
val ext_config : t -> ep:int -> owner:Dtu_types.act_id -> Ep.config -> unit

(** The live record of slot [ep], not a copy, for callers that read its
    configuration or owner. *)
val ext_read_ep : t -> ep:int -> Ep.t

(** [ext_take t ~ep] moves slot [ep]'s own record out of the register
    file (M3x switches, migration flips) and leaves a fresh Invalid record
    in the slot, so a later [ext_config], delivery or refund on the slot
    never reaches the taken record.  A command already in flight on the
    endpoint still completes against the taken record.  Refunds that land
    while the slot is empty are parked there for [ext_put]. *)
val ext_take : t -> ep:int -> Ep.t

(** [ext_put t ~ep saved] installs a record taken with [ext_take],
    validated like an [ext_config] config.  Refunds parked at the slot are
    applied to a Send endpoint, capped at [max_credits]; any other config
    drops them. *)
val ext_put : t -> ep:int -> Ep.t -> unit

(** Deliver a message into a local receive endpoint on behalf of the
    controller (M3x slow path: the controller forwards messages to
    recipients once it has switched them in).  NoC timing is charged by the
    caller. *)
val ext_inject : t -> ep:int -> Msg.t -> (unit, Dtu_types.error) result

(** [ext_reclaim_credits t ~dst_tile ~dst_ep] resets every send endpoint of
    this DTU that targets the given receive endpoint back to full credits
    and returns how many credits were reclaimed.  Used by the controller
    during crash cleanup: messages the dead activity received but never
    acknowledged would otherwise leave its peers' credits orphaned. *)
val ext_reclaim_credits : t -> dst_tile:int -> dst_ep:int -> int

(** [ext_drain_recv t ~ep] drops every message still queued at a receive
    endpoint, freeing the slots and returning the senders' credits as an
    ack would (a shared ring flushes its batch at the end); returns how
    many messages were dropped.  Used by the
    controller when restarting a crashed activity in place: replies
    addressed to the dead incarnation must not pair with the first request
    of its successor. *)
val ext_drain_recv : t -> ep:int -> int

(** [ext_release_fetched t ~ep] frees receive slots held by messages that
    were fetched but never acknowledged — after a crash the restarted
    incarnation never saw them and will never ack them, so the slots would
    leak forever.  Returns how many slots were freed. *)
val ext_release_fetched : t -> ep:int -> int

(** {1 Migration support (controller only)} *)

(** Install a forwarding pointer on a vacated (Invalid) slot: in-flight
    packets and credit grants addressed to it chase the migrated activity
    to [dst_tile:dst_ep], one extra NoC leg per hop.  Cleared by
    [ext_config], [ext_take] and [ext_put]. *)
val ext_set_moved : t -> ep:int -> dst_tile:int -> dst_ep:int -> unit

(** [ext_retarget t ~old_tile ~new_tile ~eps] rewrites every send endpoint
    of this DTU targeting [(old_tile, ep)] for [ep] in [eps] to
    [(new_tile, ep)] — the receive gates behind them migrated with their
    slot indices preserved.  Credit balances are untouched.  Returns how
    many endpoints were rewritten. *)
val ext_retarget : t -> old_tile:int -> new_tile:int -> eps:int list -> int

(** Rebuild the unread counter of [act] from the messages queued at its
    receive endpoints (after putting its endpoints on a fresh tile);
    returns the seeded count. *)
val ext_seed_unread : t -> act:Dtu_types.act_id -> int

(** Drop the unread counter of a departed activity. *)
val ext_drop_unread : t -> act:Dtu_types.act_id -> unit

(** Credits visible at this DTU: send-endpoint balances plus refunds
    parked at Invalid slots or owed by the batches of shared rings.  Summed across all
    tiles at a quiescent instant, migration conserves it. *)
val ext_credit_inventory : t -> int

(** {1 Statistics} *)

(** Command counters, bumped in place on the command path.  [stats]
    returns a snapshot: later traffic does not change a value already
    taken. *)
type stats = private {
  mutable sends : int;
  mutable replies : int;
  mutable fetches : int;
  mutable acks : int;
  mutable dma_bytes : int;
  mutable core_reqs : int;
  mutable retries : int;
      (** retransmitted command attempts (fault injection) *)
  mutable timeouts : int;
      (** commands that exhausted their retransmit budget *)
  mutable dup_drops : int;
      (** deduplicated message copies dropped on receive *)
  mutable mpmc_deliveries : int;  (** messages delivered into shared rings *)
  mutable mpmc_doorbells_coalesced : int;
      (** shared-ring arrivals absorbed by an already-pending doorbell *)
  mutable mpmc_refund_flushes : int;
      (** batched credit packets sent by shared rings *)
  mutable mpmc_credits_refunded : int;  (** credits carried by those packets *)
  mutable credit_stalls : int;
      (** send attempts rejected with [No_credits]; each runtime retry spin
          counts once, so the total measures backpressure pressure, not
          unique messages *)
}

val stats : t -> stats
