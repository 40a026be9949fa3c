(** System-call traces (paper, section 6.4).

    The paper's scalability benchmark replays Linux system-call traces of
    "find" and "SQLite" against a per-tile file-system instance, so that
    every file-system call forces a context switch between the traceplayer
    and m3fs.  We generate equivalent call sequences: "find" walks 24
    directories of 40 files each; "SQLite" performs 32 inserts and 32
    selects with write-ahead-log-style file traffic.  Compute bursts
    between calls are sized so the overall call density matches the
    regime the paper reports. *)

type op =
  | T_open of { path : string; write : bool }
  | T_close
  | T_stat of string
  | T_readdir of string
  | T_read of int  (** inline read of N bytes at the current offset *)
  | T_write of int  (** inline write of N bytes *)
  | T_seek of int
  | T_compute of int  (** cycles between calls *)

type t = {
  name : string;
  ops : op list;
  setup_dirs : string list;  (** directories to create before the run *)
  setup_files : (string * int) list;  (** files (path, size) to preload *)
}

(** Number of file-system RPCs a single run performs. *)
val rpc_count : t -> int

(** Total compute cycles per run. *)
val compute_cycles : t -> int

val find_trace : ?dirs:int -> ?files_per_dir:int -> unit -> t

val sqlite_trace : unit -> t
