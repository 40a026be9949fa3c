(** Platform builder: instantiates tiles, their (v)DTUs, DRAM backings and
    the NoC, and wires the DTUs' cross-tile lookups. *)

type tile_spec =
  | Proc of Core_model.t
  | Proc_with_nic of Core_model.t
  | Ctrl of Core_model.t
  | Mem of int  (** DRAM size in bytes *)
  | Accel of string  (** fixed-function accelerator tile *)

type t

(** [create engine ~virtualized ~tiles ()] builds a platform.

    [virtualized] selects vDTUs (M3v) or plain DTUs (M3/M3x) for processing
    tiles; controller and memory tiles always get plain DTUs, as in the
    paper's Figure 3.  The default topology is the 2x2 star-mesh. *)
val create :
  ?topology:M3v_noc.Topology.t ->
  virtualized:bool ->
  tiles:tile_spec list ->
  M3v_sim.Engine.t ->
  unit ->
  t

val engine : t -> M3v_sim.Engine.t
val noc : t -> M3v_noc.Noc.t
val tile_count : t -> int
val tile : t -> int -> Tile.t
val dtu : t -> int -> M3v_dtu.Dtu.t
val core_exn : t -> int -> Core_model.t

(** Ids of all memory tiles, in order. *)
val memory_tiles : t -> int list

(** Ids of all processing tiles, in order. *)
val processing_tiles : t -> int list

(** The controller tile's id.  Raises if the spec had none. *)
val controller_tile : t -> int

val dram_exn : t -> int -> M3v_dtu.Dram.t
val pp : Format.formatter -> t -> unit

(** The paper's FPGA platform (section 4.1): eight RISC-V processing tiles
    (one with a NIC), two DDR4 memory tiles; we reserve one additional
    Rocket tile for the controller, which the paper runs on a Rocket core
    (section 6.5.2).  [boom_tiles]/[rocket_tiles] override the processing
    mix (default 7 BOOM + 1 Rocket, NIC on the first BOOM tile). *)
val fpga_spec :
  ?boom_tiles:int -> ?rocket_tiles:int -> ?mem_size:int -> unit -> tile_spec list

(** The gem5 configuration of section 6.4: [user_tiles] x86-OOO tiles, one
    x86-OOO controller tile, one memory tile. *)
val gem5_spec : ?user_tiles:int -> ?mem_size:int -> unit -> tile_spec list
