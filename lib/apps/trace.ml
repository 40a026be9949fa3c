type op =
  | T_open of { path : string; write : bool }
  | T_close
  | T_stat of string
  | T_readdir of string
  | T_read of int
  | T_write of int
  | T_seek of int
  | T_compute of int

type t = {
  name : string;
  ops : op list;
  setup_dirs : string list;
  setup_files : (string * int) list;
}

let is_rpc = function
  | T_open _ | T_close | T_stat _ | T_readdir _ | T_read _ | T_write _ -> true
  | T_seek _ | T_compute _ -> false

let rpc_count t = List.length (List.filter is_rpc t.ops)

let compute_cycles t =
  List.fold_left (fun acc -> function T_compute c -> acc + c | _ -> acc) 0 t.ops

(* "find" searches through [dirs] directories with [files_per_dir] files
   each (paper defaults: 24 x 40): per directory one readdir, per file one
   stat, and every fourth file is opened and sampled. *)
let find_trace ?(dirs = 24) ?(files_per_dir = 40) () =
  let compute_per_op = 28_000 in
  let ops = ref [] in
  let push op = ops := op :: !ops in
  let dir_name d = Printf.sprintf "/find/d%02d" d in
  let file_name d f = Printf.sprintf "/find/d%02d/f%02d" d f in
  push (T_stat "/find");
  for d = 0 to dirs - 1 do
    push (T_compute compute_per_op);
    push (T_readdir (dir_name d));
    for f = 0 to files_per_dir - 1 do
      push (T_compute compute_per_op);
      push (T_stat (file_name d f));
      if f mod 4 = 0 then begin
        push (T_open { path = file_name d f; write = false });
        push (T_read 128);
        push T_close
      end
    done
  done;
  let setup_dirs =
    "/find" :: List.init dirs dir_name
  in
  let setup_files =
    List.concat_map
      (fun d -> List.init files_per_dir (fun f -> (file_name d f, 512)))
      (List.init dirs Fun.id)
  in
  { name = "find"; ops = List.rev !ops; setup_dirs; setup_files }

(* "SQLite": [inserts] transactions (rollback journal + page reads and
   writes + journal removal — SQLite issues dozens of file-system calls
   per transaction) and [selects] lookups (open + seeks + page reads). *)
let sqlite_trace () =
  let inserts = 32 and selects = 32 and compute_per_op = 120_000 in
  let ops = ref [] in
  let push op = ops := op :: !ops in
  push (T_open { path = "/sqlite/db"; write = false });
  push (T_read 100);
  (* page cache warmup reads *)
  for _ = 1 to 8 do
    push (T_compute (compute_per_op / 8));
    push (T_read 256)
  done;
  push T_close;
  for i = 0 to inserts - 1 do
    push (T_compute (3 * compute_per_op));
    (* rollback journal: header + original page images *)
    push (T_open { path = "/sqlite/db-journal"; write = true });
    for _ = 1 to 6 do
      push (T_write 200)
    done;
    push (T_stat "/sqlite/db-journal");
    push T_close;
    (* db page reads (btree descent) + page writes *)
    push (T_open { path = "/sqlite/db"; write = true });
    push (T_seek ((i mod 16) * 4096));
    for _ = 1 to 5 do
      push (T_read 256)
    done;
    for _ = 1 to 8 do
      push (T_write 256)
    done;
    push T_close;
    (* journal removal (commit) *)
    push (T_stat "/sqlite/db-journal");
    push (T_open { path = "/sqlite/db-journal"; write = true });
    push T_close;
    push (T_stat "/sqlite/db")
  done;
  for i = 0 to selects - 1 do
    push (T_compute (2 * compute_per_op));
    push (T_open { path = "/sqlite/db"; write = false });
    push (T_stat "/sqlite/db");
    push (T_seek ((i * 7 mod 16) * 4096));
    for _ = 1 to 11 do
      push (T_read 256)
    done;
    push T_close
  done;
  {
    name = "sqlite";
    ops = List.rev !ops;
    setup_dirs = [ "/sqlite" ];
    setup_files = [ ("/sqlite/db", 16 * 4096) ];
  }
