module Rng = M3v_sim.Rng

type op =
  | Read of string
  | Insert of string * bytes
  | Update of string * bytes
  | Scan of string * int

type workload = Read_heavy | Insert_heavy | Update_heavy | Scan_heavy | Mixed

let workload_name = function
  | Read_heavy -> "read"
  | Insert_heavy -> "insert"
  | Update_heavy -> "update"
  | Scan_heavy -> "scan"
  | Mixed -> "mixed"

let all_workloads = [ Read_heavy; Insert_heavy; Update_heavy; Mixed; Scan_heavy ]

let record_key i = Printf.sprintf "user%08d" i

let value_for rng ~size =
  Bytes.init size (fun _ -> Char.chr (Rng.int rng 256))

let load ~records ~value_size rng =
  List.init records (fun i -> (record_key i, value_for rng ~size:value_size))

module Zipf = M3v_load.Sampler.Zipf

(* Proportions per workload: (read, insert, update, scan) summing to 100. *)
let mix = function
  | Read_heavy -> (80, 10, 10, 0)
  | Insert_heavy -> (10, 80, 10, 0)
  | Update_heavy -> (10, 10, 80, 0)
  | Scan_heavy -> (10, 10, 0, 80)
  | Mixed -> (50, 10, 30, 10)

type op_tag = T_read | T_insert | T_update | T_scan

let scan_length = 20

let ops workload ~records ~count ?(value_size = 1024) rng =
  let zipf = Zipf.create ~n:records rng in
  let next_insert = ref records in
  let r, i, u, s = mix workload in
  (* Weights sum to 100, so each sample is one [Rng.int rng 100] walked
     through the cumulative thresholds in read-insert-update-scan order —
     the same dice stream this generator has always consumed. *)
  let tag_mix =
    M3v_load.Sampler.Mix.create
      [ (T_read, r); (T_insert, i); (T_update, u); (T_scan, s) ]
      rng
  in
  List.init count (fun _ ->
      match M3v_load.Sampler.Mix.sample tag_mix with
      | T_read -> Read (record_key (Zipf.sample zipf))
      | T_insert ->
          let key = record_key !next_insert in
          incr next_insert;
          Insert (key, value_for rng ~size:value_size)
      | T_update ->
          Update (record_key (Zipf.sample zipf), value_for rng ~size:value_size)
      | T_scan -> Scan (record_key (Zipf.sample zipf), scan_length))
