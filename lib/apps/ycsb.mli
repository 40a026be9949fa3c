(** Yahoo! Cloud Serving Benchmark workload generation (paper, 6.5.2).

    All workloads draw keys from a Zipfian distribution over the loaded
    records, as in YCSB's default configuration.  The paper's setup: 200
    records are loaded, then 200 operations run with these mixes:

    - read-heavy / insert-heavy / update-heavy: 80-10-10 over the named
      operation and the other two (no scans);
    - scan-heavy: 80% scans, 10-10 over reads and inserts (no updates);
    - mixed: 50% reads, 10% inserts, 30% updates, 10% scans. *)

type op =
  | Read of string
  | Insert of string * bytes
  | Update of string * bytes
  | Scan of string * int

type workload = Read_heavy | Insert_heavy | Update_heavy | Scan_heavy | Mixed

val workload_name : workload -> string
val all_workloads : workload list

(** [record_key i] is YCSB's "user<i>" key. *)
val record_key : int -> string

(** [load ~records ~value_size rng] is the initial dataset. *)
val load : records:int -> value_size:int -> M3v_sim.Rng.t -> (string * bytes) list

(** [ops workload ~records ~count ~value_size rng] generates the operation
    sequence; each scan covers 20 records. *)
val ops :
  workload ->
  records:int ->
  count:int ->
  ?value_size:int ->
  M3v_sim.Rng.t ->
  op list

(** Zipfian sampler over [0, n) with exponent [theta] (default 0.99, the
    YCSB standard). *)
module Zipf : sig
  type t

  val create : ?theta:float -> n:int -> M3v_sim.Rng.t -> t
  val sample : t -> int
end
