(** The cloud half of the voice-activation system (paper, 6.5.2).

    A database service hosting the LSM key-value store: it reads the
    request workload ahead of time from a file (the paper does this
    because TCP between the 80 MHz FPGA and the peer was not reliable),
    executes the YCSB operations, and ships requests and results to the
    peer machine via UDP.  Four components participate: the database, the
    file system backing it, the network stack, and the pager. *)

(** Binary encoding of a workload (load phase + operations). *)
val encode_workload : load:(string * bytes) list -> ops:Ycsb.op list -> bytes

val decode_workload : bytes -> (string * bytes) list * Ycsb.op list

type run_report = {
  elapsed : M3v_sim.Time.t;
  reads : int;
  inserts : int;
  updates : int;
  scans : int;
  scan_items : int;
}

(** The database program: for each repetition, reads the request file,
    loads the records, executes the operations against a fresh store and
    reports.  [results_to] is the peer address for UDP result packets. *)
val db_program :
  vfs:M3v_os.Vfs.t ->
  udp:M3v_os.Net_client.udp ->
  requests_path:string ->
  db_dir_base:string ->
  results_to:M3v_os.Net_proto.addr ->
  reps:int ->
  on_rep:(run_report -> unit) ->
  unit M3v_sim.Proc.t

