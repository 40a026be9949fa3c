(** The communication controller (M3's "kernel").

    The controller runs on a dedicated tile, knows all activities, and is
    the only component allowed to establish communication channels: it
    configures endpoints through the DTUs' external interface, mediated by
    capability-based access control.  Activities reach it with "system
    calls" in the form of DTU messages to its receive endpoint 0; the
    controller is single-threaded and processes one request at a time — the
    property that makes M3x's remote multiplexing a bottleneck (paper,
    sections 2.2 and 6.4).

    In [`M3x] mode the controller additionally performs all context switches
    remotely: it saves/restores endpoint state over the NoC, keeps the
    per-tile scheduling state, and forwards slow-path messages to
    not-currently-running activities. *)

type mode = M3v | M3x

type t

(** Per-tile stub the M3x runtime registers so the controller can drive
    remote context switches.  The callbacks charge tile-side time and call
    [k] when done. *)
type mx_stub = {
  mx_save : k:(unit -> unit) -> unit;
      (** save the current activity's core state *)
  mx_restore : M3v_dtu.Dtu_types.act_id -> k:(unit -> unit) -> unit;
      (** install the activity as current and resume it *)
  mx_woken : M3v_dtu.Dtu_types.act_id -> bool;
      (** a message reached the blocked activity and the controller may not
          have seen its wake; read when a switch takes the activity's
          endpoint records, which then leaves it runnable *)
}

(** Opaque activity image carried from source to target runtime during a
    live migration.  Extended (and consumed) by the runtime library; the
    controller only moves it. *)
type mig_image = ..

(** What TileMux (M3v) registers for its tile. *)
type tilemux = {
  tm_rgate : int;
      (** TileMux's receive endpoint, to which the controller forwards
          mapping requests (paper, section 4.3) *)
  respawn : act:M3v_dtu.Dtu_types.act_id -> unit;
      (** restart a crashed activity in place (see {!set_restartable}) *)
  mig_quiesce :
    act:M3v_dtu.Dtu_types.act_id -> k:(mig_image option -> unit) -> unit;
      (** park the activity at its next TMCall boundary and extract its
          image; [k None] if it exited (or was killed) first *)
  mig_install : image:mig_image -> sys_sgate:int -> sys_rgate:int -> unit;
      (** materialize a parked image on this tile (not yet runnable) *)
  mig_resume : act:M3v_dtu.Dtu_types.act_id -> unit;
      (** make the installed activity runnable again *)
}

(** The runtime of a processing tile, as it registers with the
    controller. *)
type runtime = Tilemux of tilemux | Mx_stub of mx_stub

val create :
  mode:mode -> platform:M3v_tile.Platform.t -> tile:int -> unit -> t

(** Register the runtime of [tile] (one per tile; a later registration
    replaces it). *)
val register_runtime : t -> tile:int -> runtime -> unit

val platform : t -> M3v_tile.Platform.t

(** {1 Host-level (uncharged) setup API}

    Used by the experiment harness to build a system before measurement
    starts, mirroring what the boot process and initial syscalls would do. *)

val host_new_act : t -> tile:int -> name:string -> M3v_dtu.Dtu_types.act_id
val act_name : t -> M3v_dtu.Dtu_types.act_id -> string
val act_tile : t -> M3v_dtu.Dtu_types.act_id -> int

(** Allocate a fresh endpoint on [tile] for [act]. *)
val host_alloc_ep : t -> tile:int -> act:M3v_dtu.Dtu_types.act_id -> int

(** Allocate an endpoint that belongs to no activity (TileMux's own
    endpoints). *)
val host_alloc_ep_anon : t -> tile:int -> int

(** Allocate physical memory from a memory tile (first fit across memory
    tiles); returns (memory tile, base offset). *)
val host_alloc_mem : t -> size:int -> int * int

(** Create a classic receive gate ([rg_ack_batch = None]). *)
val host_new_rgate :
  t -> act:M3v_dtu.Dtu_types.act_id -> slots:int -> slot_size:int -> int

(** Create a shared multi-producer (MPMC) receive gate
    ([rg_ack_batch = Some ack_batch]): send gates delegated against it from
    many activities all target the same endpoint, and the receiver's acks
    batch credit refunds ([ack_batch] per flush, default 16). *)
val host_new_mpmc_rgate :
  t ->
  act:M3v_dtu.Dtu_types.act_id ->
  slots:int ->
  slot_size:int ->
  ?ack_batch:int ->
  unit ->
  int

val host_new_sgate :
  t ->
  owner:M3v_dtu.Dtu_types.act_id ->
  rgate_of:M3v_dtu.Dtu_types.act_id ->
  rgate_sel:int ->
  ?label:int ->
  credits:int ->
  unit ->
  int

val host_new_mgate :
  t ->
  act:M3v_dtu.Dtu_types.act_id ->
  mem_tile:int ->
  base:int ->
  size:int ->
  perm:M3v_dtu.Dtu_types.perm ->
  int

(** Configure an endpoint from a capability (immediately, uncharged).
    Returns the endpoint used. *)
val host_activate :
  t -> act:M3v_dtu.Dtu_types.act_id -> sel:int -> ?ep:int -> unit -> int

(** Set up the per-activity syscall channel; returns
    (send endpoint, reply receive endpoint) on the activity's tile. *)
val host_setup_syscall_channel : t -> act:M3v_dtu.Dtu_types.act_id -> int * int

(** Look up a capability (tests and services). *)
val find_cap : t -> act:M3v_dtu.Dtu_types.act_id -> sel:int -> Cap.t option

(** The owning activity of a receive endpoint, if known. *)
val ep_owner : t -> tile:int -> ep:int -> M3v_dtu.Dtu_types.act_id option

(** {1 Crash recovery (M3v)}

    A nonzero [Act_exit] code is treated as a crash.  A restartable
    activity (with budget left) is restarted in place by its tile's
    TileMux ([respawn]) — endpoints, capabilities and queued requests
    survive.  Anything else is torn down: all of its capabilities are
    revoked (cascading), orphaned send credits at peers are reclaimed, and
    its endpoints are invalidated so partners observe [Recv_gone] (EOF). *)

(** Last exit code the activity reported, if any ([None] while alive or
    after a successful restart). *)
val exit_code : t -> M3v_dtu.Dtu_types.act_id -> int option

(** How many times the activity has been restarted. *)
val restarts : t -> M3v_dtu.Dtu_types.act_id -> int

(** Allow up to [max_restarts] in-place restarts after crashes (services). *)
val set_restartable :
  t -> act:M3v_dtu.Dtu_types.act_id -> max_restarts:int -> unit

(** {1 Live migration (M3v)}

    Controller-orchestrated protocol: quiesce the activity at a TMCall
    boundary, drain in-flight state, then atomically flip its endpoints,
    TLB image and ownership tables to the target tile and resume it there.
    The vacated source slots keep forwarding pointers, so in-flight packets
    and late credit grants chase the activity; messages are delivered
    exactly once and the system-wide credit total is conserved (asserted).
    Fault injection ([mig_abort] in the plan spec) may abort the protocol
    before the flip — the activity is reinstalled on the source; after the
    flip it only rolls forward. *)

(** [migrate t ~act ~dst_tile ~k] moves a live activity to [dst_tile].
    [k (Error _)] on validation failure or an injected abort (the activity
    keeps running on the source); [k (Ok ())] once it is runnable on the
    target.  At most one migration is in flight at a time. *)
val migrate :
  t ->
  act:M3v_dtu.Dtu_types.act_id ->
  dst_tile:int ->
  k:((unit, string) result -> unit) ->
  unit

(** {1 M3x integration} *)

(** Register an activity with the M3x scheduler: its endpoint records are
    taken out of the register file and parked; the activity becomes ready
    and will be switched in when the controller decides. *)
val mx_register_act : t -> act:M3v_dtu.Dtu_types.act_id -> unit

(** Start M3x scheduling on a tile after boot (switches the first ready
    activity in). *)
val mx_kick : t -> tile:int -> unit

(** {1 Statistics} *)

(** Controller counters, bumped in place.  [stats] returns a snapshot:
    later work does not change a value already taken. *)
type stats = private {
  mutable syscalls : int;
  mutable mx_switches : int;
  mutable mx_forwards : int;
  mutable busy_ps : int;
      (** total simulated time the controller core was busy *)
  mutable crashes : int;  (** nonzero exit codes handled *)
  mutable restarts : int;  (** in-place activity restarts performed *)
  mutable credits_reclaimed : int;
      (** send credits recovered from dead receivers *)
  mutable migrations : int;  (** completed live migrations *)
  mutable mig_aborts : int;  (** migrations aborted before the flip *)
  mutable mig_downtime_ps : int;
      (** summed park-to-resume downtime across migrations (and aborts) *)
}

val stats : t -> stats
