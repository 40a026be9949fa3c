(** The per-tile runtime: TileMux (M3v) or the remote-mux stub (M3x).

    In [M3v_mode] this implements TileMux (paper, sections 3.3 and 4.2):
    a round-robin scheduler with time slices, TMCalls (blocking for
    messages, address translation, page faults, yield, exit), core-request
    handling, the lost-wakeup-safe atomic activity switch, and the
    TileMux -> pager -> controller -> TileMux page-fault path.

    In [M3x_mode] the tile cannot switch locally: every block and every
    message to a not-currently-running activity goes through the controller
    (slow path), which remotely saves/restores endpoint state — the
    behaviour M3v was designed to replace.

    Activity programs are [Proc] processes over {!Act_ops}; they run
    unchanged under both modes. *)

type mode = M3v_mode | M3x_mode

(** Page-fault request TileMux sends to the pager service.  The pager
    allocates a frame, issues a [Map_for] syscall, and replies to TileMux
    (paper, section 4.3). *)
type M3v_dtu.Msg.data +=
  | Pf_fault of {
      pf_act : M3v_dtu.Dtu_types.act_id;
      pf_vpage : int;
      pf_write : bool;
    }

type t

(** Create a runtime on a processing tile.  For [M3v_mode] this sets up
    TileMux's receive gate and registers it with the controller; for
    [M3x_mode] it registers the remote-switch stub. *)
val create :
  mode:mode ->
  controller:M3v_kernel.Controller.t ->
  tile:int ->
  ?timeslice:M3v_sim.Time.t ->
  unit ->
  t

val mode : t -> mode
val tile : t -> int

(** Create an activity on this tile.  [premap] (default true) maps pages
    eagerly at allocation; with [premap:false] the activity demand-faults
    through the pager (requires {!set_pager_sgate}).  The program starts
    running at {!boot}. *)
val spawn :
  t ->
  name:string ->
  ?premap:bool ->
  program:(Act_api.env -> unit M3v_sim.Proc.t) ->
  unit ->
  M3v_dtu.Dtu_types.act_id * Act_api.env

(** Endpoint (owned by TileMux) through which page faults are forwarded to
    the pager service. *)
val set_pager_sgate : t -> int -> unit

(** Start executing spawned activities (M3v: local scheduling; M3x:
    register with the controller's remote scheduler and kick it). *)
val boot : t -> unit

(** Restart a dead activity's program from the top on the same activity
    id (controller crash-recovery policy).  Endpoints, capabilities and
    address space are untouched; requests already queued in its receive
    gates are processed after the restart. *)
val respawn : t -> act:M3v_dtu.Dtu_types.act_id -> unit

(** Whether an activity has finished. *)
val finished : t -> M3v_dtu.Dtu_types.act_id -> bool

(** All spawned activities finished. *)
val all_finished : t -> bool

(** Simulated time this activity kept the core busy. *)
val busy_of : t -> M3v_dtu.Dtu_types.act_id -> M3v_sim.Time.t

(** Busy time by accounting bucket ("user" by default; programs switch with
    [Act_api.acct]). *)
val busy_of_bucket : t -> string -> float

(** Event counters, by key:
    - scheduling: "ctx_switch" (dispatches and M3x switch-ins), "preempt",
      "core_req", "poll" (receives that poll instead of blocking),
      "poll_wake" (pollers resumed in place);
    - operations: "log", "fault" (page faults), "tm_rpc" (TileMux -> pager
      requests);
    - M3x: "mx_block" (blocks and yields through the controller),
      "mx_slow_send" (sends and replies forwarded by it);
    - faults: "recv_timeout", "send_eof" and "watchdog_kill" (fault
      injection only), "respawn" (crash restarts);
    - migration: "mig_park", "mig_install", "mig_resume";
    - time: one "bucket/<name>" per accounting bucket, in picoseconds
      ("bucket/mux" is TileMux's own time; see {!busy_of_bucket}). *)
val counters : t -> M3v_sim.Stats.Counter.t
