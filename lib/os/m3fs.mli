(** The m3fs service: the in-memory, extent-based file system as an
    activity.

    Metadata operations are RPCs over a DTU channel.  Data access follows
    the M3 model (paper, section 6.3): a read or write request grants the
    client {e direct} access to a whole extent — the service derives a
    memory capability over the extent into the client's capability table
    (one controller round trip), the client activates it on a data
    endpoint (another controller round trip) and then moves data with DMA
    through its own (v)DTU, not through the service.  Small reads/writes
    can be served inline for metadata-style traffic.

    Newly allocated blocks are cleared by the service through its own
    memory endpoint, which is why writes are substantially slower than
    reads on both m3fs and the paper's measurements. *)

type handle

(** Direct access to the file-system core (host-side setup of benchmark
    trees, invariant checks in tests). *)
val core : handle -> Fs_core.t

(** Service counters.  [stats] returns a snapshot: later requests do not
    change a value already taken. *)
type stats = private {
  mutable ops : int;
  mutable extents_granted : int;
  mutable blocks_cleared : int;
}

val stats : handle -> stats

val make_handle : ?max_extent_blocks:int -> blocks:int -> unit -> handle

(** The service program.

    [rgate] receives client requests; [mem_ep] is the service's own
    endpoint over the data region; [region_sel] is the capability selector
    of the data region (source of derived extent capabilities). *)
val program :
  handle ->
  rgate:int ref ->
  mem_ep:int ref ->
  region_sel:int ref ->
  unit ->
  M3v_mux.Act_api.env ->
  unit M3v_sim.Proc.t
