(** Figure 10: the cloud service (YCSB over the LSM store) vs Linux.

    Components: the database (LSM key-value store + YCSB execution), m3fs
    as its backend, the net service (results go to the peer machine via
    UDP), and the pager.  Workloads (paper, 6.5.2): read-, insert-,
    update-heavy (80-10-10), scan-heavy (80% scans), and mixed
    (50-10-30-10); 200 records loaded, then 200 operations, Zipfian keys;
    8 measured runs after 2 warmup runs.

    Configurations: M3v with each component on its own tile ("isolated",
    shown for completeness), M3v with all four on one tile ("shared",
    comparable to Linux), and Linux on a single tile.  Runtimes are split
    into user and system time: on Linux via getrusage, on M3v by counting
    the file system's and network stack's busy time as system time. *)

type row = {
  config : string;
  total_s : float;
  total_sd : float;
  user_s : float;
  sys_s : float;
}

type result = { workloads : (string * row list) list }

val run :
  ?pool:M3v_par.Par.Pool.t -> ?runs:int -> ?warmup:int -> ?records:int -> unit ->
  result
val print : result -> unit
