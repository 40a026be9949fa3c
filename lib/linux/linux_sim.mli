(** Linux 5.11 running bare-metal on a single tile (paper, section 6).

    Linux cannot use multiple tiles of the platform (the tiles are not
    cache coherent), so the whole comparison runs on one core.  The model
    captures the structural costs that drive the paper's Linux results:

    - every file or socket operation is a system call (kernel entry/exit,
      fd lookup, and a kernel<->user copy of the data);
    - tmpfs writes allocate and clear pages;
    - the in-kernel UDP stack and NIC driver run per packet;
    - [yield] costs a scheduler pass plus a process context switch;
    - system-call time is accounted as system time, the remainder as user
      time (getrusage semantics, used by Figure 10).

    Processes are [Proc] programs over the generic compute/memcpy ops from
    {!M3v_mux.Act_ops} and the syscalls in {!Lx_ops} (wrapped by
    {!Lx_api}). *)

type t

val create :
  ?core:M3v_tile.Core_model.t ->
  ?tmpfs_blocks:int ->
  ?timeslice:M3v_sim.Time.t ->
  M3v_sim.Engine.t ->
  unit ->
  t

(** Attach a NIC; received frames are handled by the in-kernel stack. *)
val attach_nic : t -> M3v_os.Nic.t -> unit

val nic : t -> M3v_os.Nic.t option

type pid = int

(** Create a process running the program.  [name] only labels the call
    site: the model keeps no process names. *)
val spawn : t -> name:string -> unit M3v_sim.Proc.t -> pid

(** Start scheduling spawned processes. *)
val boot : t -> unit

val finished : t -> pid -> bool
val all_finished : t -> bool

(** getrusage: (user, system) time consumed by the process. *)
val rusage : t -> pid -> M3v_sim.Time.t * M3v_sim.Time.t

(** Direct access to the tmpfs core (host-level test setup). *)
val tmpfs : t -> M3v_os.Fs_core.t

(** Host-side file preload into tmpfs. *)
val preload_file : t -> path:string -> bytes -> unit

val peek_file : t -> path:string -> bytes option
