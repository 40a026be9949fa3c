(** System assembly: platform + controller + per-tile runtimes.

    This is the top of the public API: it builds a complete M3v (or M3x)
    system, spawns activities with programs, establishes communication
    channels through the controller, and runs the simulation. *)

type variant = M3v | M3x

type t

(** A communication channel as seen by the two endpoints' activities. *)
type channel = {
  sgate : int;  (** send endpoint on the sender's tile *)
  rgate : int;  (** receive endpoint on the receiver's tile *)
  reply_ep : int;  (** receive endpoint for replies, on the sender's tile *)
}

(** Build a system.  [spec] defaults to the paper's FPGA platform
    ({!M3v_tile.Platform.fpga_spec}); the controller runs on the first
    [Ctrl] tile of the spec.  Runtimes are created for every processing
    tile. *)
val create :
  ?spec:M3v_tile.Platform.tile_spec list ->
  ?topology:M3v_noc.Topology.t ->
  ?timeslice:M3v_sim.Time.t ->
  variant:variant ->
  unit ->
  t

val variant : t -> variant
val engine : t -> M3v_sim.Engine.t
val platform : t -> M3v_tile.Platform.t
val controller : t -> M3v_kernel.Controller.t
val runtime : t -> tile:int -> M3v_mux.Runtime.t

(** Spawn an activity on a processing tile.  The program starts at
    {!boot}. *)
val spawn :
  t ->
  tile:int ->
  name:string ->
  ?premap:bool ->
  (M3v_mux.Act_api.env -> unit M3v_sim.Proc.t) ->
  M3v_dtu.Dtu_types.act_id * M3v_mux.Act_api.env

(** Establish a channel from [src] to [dst] (both spawned activities): a
    receive gate on [dst]'s tile, a send gate on [src]'s tile, and a reply
    gate for [src].  Mirrors the controller-mediated channel establishment
    activities would perform via syscalls. *)
val channel :
  t ->
  src:M3v_dtu.Dtu_types.act_id ->
  dst:M3v_dtu.Dtu_types.act_id ->
  ?slots:int ->
  ?credits:int ->
  unit ->
  channel

(** Allocate physical memory and hand [act] an activated memory endpoint
    over it.  Returns (capability selector, endpoint). *)
val mem_region :
  t ->
  act:M3v_dtu.Dtu_types.act_id ->
  size:int ->
  perm:M3v_dtu.Dtu_types.perm ->
  int * int

(** Create the pager service on [tile] and connect every runtime's TileMux
    to it.  Must be called before [boot]; only meaningful for M3v.  Returns
    the pager's activity id. *)
val with_pager : t -> tile:int -> M3v_dtu.Dtu_types.act_id

(** Start all spawned activities. *)
val boot : t -> unit

(** Run the simulation until the event queue drains (all activities
    finished or blocked forever) or [until] is reached.  Returns events
    processed. *)
val run : ?until:M3v_sim.Time.t -> t -> int

(** [run_while t cond] keeps running while [cond ()] holds and events
    remain. *)
val run_while : t -> (unit -> bool) -> unit
