(** Convenience constructors for the OS services on top of {!System}. *)

(** A running m3fs instance. *)
type fs_instance = {
  fs_aid : M3v_dtu.Dtu_types.act_id;
  fs_handle : M3v_os.M3fs.handle;
  connect : M3v_dtu.Dtu_types.act_id -> M3v_mux.Act_api.env -> M3v_os.Fs_client.t;
      (** create a client handle for a spawned activity (host-level
          channel + data-endpoint setup; call before [System.boot]) *)
  fs_mem_tile : int;  (** memory tile holding the data region *)
  fs_mem_base : int;  (** base of the data region within that tile *)
}

(** Spawn an m3fs service on [tile] with a [blocks]-block data region
    allocated from a memory tile. *)
val make_fs :
  System.t ->
  tile:int ->
  blocks:int ->
  ?max_extent_blocks:int ->
  unit ->
  fs_instance

(** Host-side population of a file (uncharged setup): creates the file,
    allocates extents and writes real bytes into the service's DRAM
    region. *)
val preload_file : System.t -> fs_instance -> path:string -> bytes -> unit

(** Host-side read-back of a whole file (for end-to-end data checks). *)
val peek_file : System.t -> fs_instance -> path:string -> bytes option

(** A running net service with its NIC and remote peer. *)
type net_instance = {
  net_aid : M3v_dtu.Dtu_types.act_id;
  net_handle : M3v_os.Netserv.handle;
  nic : M3v_os.Nic.t;
  net_connect :
    M3v_dtu.Dtu_types.act_id -> M3v_mux.Act_api.env -> M3v_os.Net_client.t;
}

(** Spawn the net service on the first tile with a NIC, talking to a
    remote host with the given behaviour. *)
val make_net :
  System.t ->
  ?drop_probability:float ->
  host:M3v_os.Nic.host_behavior ->
  unit ->
  net_instance
