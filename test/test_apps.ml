(* Application-layer tests: FLAC compressor, YCSB/Zipfian, traces, the LSM
   key-value store (pure parts + end-to-end on m3fs), and the cloud
   workload codec. *)

open M3v_sim
open M3v_sim.Proc.Syntax
module Flac = M3v_apps.Flac
module Audio = M3v_apps.Audio
module Ycsb = M3v_apps.Ycsb
module Trace = M3v_apps.Trace
module Cloud = M3v_apps.Cloud
module Kvstore = M3v_apps.Kvstore
module System = M3v.System
module Services = M3v.Services

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- FLAC --- *)

let test_flac_roundtrip_audio () =
  let audio = Audio.room_audio (Rng.create ~seed:7) ~seconds:1.5 () in
  let compressed = Flac.compress audio.Audio.samples in
  let restored = Flac.decompress compressed in
  Alcotest.(check (array int)) "bit-exact round trip" audio.Audio.samples restored

let test_flac_compresses_audio () =
  let audio = Audio.room_audio (Rng.create ~seed:8) ~seconds:2.0 () in
  let r = Flac.ratio audio.Audio.samples in
  check_bool (Printf.sprintf "lossless ratio > 1.2 (got %.2f)" r) true (r > 1.2)

let test_flac_constant_signal_tiny () =
  let samples = Array.make 10_000 123 in
  let compressed = Flac.compress samples in
  (* Order-1 predictor makes a constant signal almost free. *)
  check_bool "constant signal compresses >5x" true
    (Bytes.length compressed * 5 < 2 * Array.length samples);
  Alcotest.(check (array int)) "round trip" samples (Flac.decompress compressed)

let test_flac_edge_cases () =
  Alcotest.(check (array int)) "empty" [||] (Flac.decompress (Flac.compress [||]));
  let extremes = [| 32767; -32768; 0; -1; 1; 32767; -32768 |] in
  Alcotest.(check (array int)) "extreme samples" extremes
    (Flac.decompress (Flac.compress extremes));
  let one = [| -17 |] in
  Alcotest.(check (array int)) "single sample" one (Flac.decompress (Flac.compress one))

let prop_flac_roundtrip =
  QCheck.Test.make ~name:"flac round trips arbitrary 16-bit signals" ~count:60
    QCheck.(list_of_size (Gen.int_range 1 3000) (int_range (-32768) 32767))
    (fun l ->
      let samples = Array.of_list l in
      Flac.decompress (Flac.compress samples) = samples)

let test_pcm_roundtrip () =
  let samples = [| 0; 1; -1; 32767; -32768; 1234; -4321 |] in
  Alcotest.(check (array int)) "pcm round trip" samples
    (Audio.of_pcm_bytes (Audio.to_pcm_bytes samples))

let test_audio_has_bursts () =
  let audio = Audio.room_audio (Rng.create ~seed:9) ~seconds:5.0 () in
  let loud = ref 0 and quiet = ref 0 in
  let frame = 256 in
  let n = Array.length audio.Audio.samples in
  let rec scan off =
    if off + frame <= n then begin
      let e = Audio.window_energy audio ~off ~len:frame in
      if e > 2000.0 then incr loud else incr quiet;
      scan (off + frame)
    end
  in
  scan 0;
  check_bool "has loud frames" true (!loud > 10);
  check_bool "has quiet frames" true (!quiet > !loud)

(* --- YCSB / Zipf --- *)

let test_zipf_skew () =
  let rng = Rng.create ~seed:5 in
  let z = Ycsb.Zipf.create ~n:100 rng in
  let counts = Array.make 100 0 in
  for _ = 1 to 20_000 do
    let v = Ycsb.Zipf.sample z in
    counts.(v) <- counts.(v) + 1
  done;
  check_bool "all in range" true (Array.for_all (fun c -> c >= 0) counts);
  (* Zipf(0.99): the most popular item dwarfs the median one. *)
  check_bool "head heavier than tail" true (counts.(0) > 10 * counts.(50));
  check_bool "head is a sizable share" true (counts.(0) > 20_000 / 20)

let test_ycsb_mixes () =
  let rng = Rng.create ~seed:6 in
  let ops = Ycsb.ops Ycsb.Mixed ~records:200 ~count:2_000 rng in
  let r = ref 0 and i = ref 0 and u = ref 0 and s = ref 0 in
  List.iter
    (function
      | Ycsb.Read _ -> incr r
      | Ycsb.Insert _ -> incr i
      | Ycsb.Update _ -> incr u
      | Ycsb.Scan _ -> incr s)
    ops;
  check_int "total" 2_000 (!r + !i + !u + !s);
  (* 50-10-30-10 within sampling noise. *)
  check_bool "reads ~50%" true (abs (!r - 1000) < 120);
  check_bool "updates ~30%" true (abs (!u - 600) < 120);
  check_bool "scans ~10%" true (abs (!s - 200) < 80)

let test_ycsb_scan_heavy_has_no_updates () =
  let rng = Rng.create ~seed:16 in
  let ops = Ycsb.ops Ycsb.Scan_heavy ~records:100 ~count:500 rng in
  check_bool "no updates in scan-heavy" true
    (List.for_all (function Ycsb.Update _ -> false | _ -> true) ops);
  let scans = List.length (List.filter (function Ycsb.Scan _ -> true | _ -> false) ops) in
  check_bool "mostly scans" true (scans > 350)

let test_ycsb_inserts_use_fresh_keys () =
  let rng = Rng.create ~seed:17 in
  let ops = Ycsb.ops Ycsb.Insert_heavy ~records:50 ~count:300 rng in
  let inserted = Hashtbl.create 64 in
  List.iter
    (function
      | Ycsb.Insert (k, _) ->
          check_bool "insert key is fresh" false (Hashtbl.mem inserted k);
          Hashtbl.replace inserted k ()
      | _ -> ())
    ops

(* --- traces --- *)

let test_trace_shapes () =
  let find = Trace.find_trace () in
  (* 24 readdirs + 960 stats + 240 open/read/close triples + root stat. *)
  check_int "find rpc count" (1 + 24 + 960 + (240 * 3)) (Trace.rpc_count find);
  check_bool "find has compute" true (Trace.compute_cycles find > 1_000_000);
  let sqlite = Trace.sqlite_trace () in
  check_bool "sqlite rpc-heavy" true (Trace.rpc_count sqlite > 1_000);
  check_int "find setup files" (24 * 40) (List.length find.Trace.setup_files)

let test_trace_custom_sizes () =
  let t = Trace.find_trace ~dirs:2 ~files_per_dir:4 () in
  check_int "small tree" 8 (List.length t.Trace.setup_files);
  check_int "small rpc count" (1 + 2 + 8 + (2 * 3)) (Trace.rpc_count t)

(* --- cloud codec --- *)

let test_cloud_codec_roundtrip () =
  let rng = Rng.create ~seed:11 in
  let load = Ycsb.load ~records:20 ~value_size:64 rng in
  let ops = Ycsb.ops Ycsb.Mixed ~records:20 ~count:50 rng in
  let encoded = Cloud.encode_workload ~load ~ops in
  let load', ops' = Cloud.decode_workload encoded in
  check_int "load size" 20 (List.length load');
  check_int "ops size" 50 (List.length ops');
  check_bool "load round trips" true
    (List.for_all2
       (fun (k, v) (k', v') -> k = k' && Bytes.equal v v')
       load load');
  List.iter2
    (fun a b ->
      match (a, b) with
      | Ycsb.Read x, Ycsb.Read y -> check_bool "read" true (x = y)
      | Ycsb.Insert (x, v), Ycsb.Insert (y, w) ->
          check_bool "insert" true (x = y && Bytes.equal v w)
      | Ycsb.Update (x, v), Ycsb.Update (y, w) ->
          check_bool "update" true (x = y && Bytes.equal v w)
      | Ycsb.Scan (x, c), Ycsb.Scan (y, d) ->
          check_bool "scan" true (x = y && c = d)
      | _ -> Alcotest.fail "op kind mismatch")
    ops ops'

(* --- kvstore end-to-end on m3fs --- *)

let run_db_system f =
  let sys = System.create ~variant:System.M3v () in
  ignore (System.with_pager sys ~tile:4);
  let fs = Services.make_fs sys ~tile:3 ~blocks:8192 () in
  let vfs_box = ref None in
  let aid, env =
    System.spawn sys ~tile:2 ~name:"db" ~premap:false (fun _ ->
        f (Option.get !vfs_box))
  in
  vfs_box := Some (M3v_os.Fs_client.to_vfs (fs.Services.connect aid env));
  System.boot sys;
  ignore (System.run sys);
  sys

let test_kvstore_put_get_scan () =
  let got = ref None and scanned = ref [] and tables = ref 0 in
  let _ =
    run_db_system (fun vfs ->
        let* store = Kvstore.create ~vfs ~dir:"/kv" ~memtable_limit:2048 () in
        let store = match store with Ok s -> s | Error e -> failwith e in
        let* () =
          Proc.repeat 50 (fun i ->
              Kvstore.put store ~key:(Ycsb.record_key i)
                ~value:(Bytes.make 100 (Char.chr (65 + (i mod 26)))))
        in
        let* v = Kvstore.get store ~key:(Ycsb.record_key 17) in
        got := v;
        let* items = Kvstore.scan store ~start:(Ycsb.record_key 10) ~count:5 in
        scanned := List.map fst items;
        tables := Kvstore.sstable_count store;
        Proc.return ())
  in
  (match !got with
  | Some v -> Alcotest.(check char) "value content" 'R' (Bytes.get v 0)
  | None -> Alcotest.fail "get missed");
  Alcotest.(check (list string)) "scan keys in order"
    (List.init 5 (fun i -> Ycsb.record_key (10 + i)))
    !scanned;
  check_bool "memtable spilled to tables" true (!tables >= 2)

let test_kvstore_update_wins () =
  let got = ref None in
  let _ =
    run_db_system (fun vfs ->
        let* store = Kvstore.create ~vfs ~dir:"/kv" ~memtable_limit:1024 () in
        let store = match store with Ok s -> s | Error e -> failwith e in
        let key = "user42" in
        let* () = Kvstore.put store ~key ~value:(Bytes.of_string "old") in
        (* Force the old version into an SSTable, then overwrite. *)
        let* () = Kvstore.flush store in
        let* () = Kvstore.put store ~key ~value:(Bytes.of_string "new") in
        let* () = Kvstore.flush store in
        let* v = Kvstore.get store ~key in
        got := v;
        Proc.return ())
  in
  match !got with
  | Some v -> Alcotest.(check string) "newest version wins" "new" (Bytes.to_string v)
  | None -> Alcotest.fail "key lost"

let test_kvstore_compaction_preserves_data () =
  let missing = ref [] and compactions = ref 0 in
  let _ =
    run_db_system (fun vfs ->
        let* store =
          Kvstore.create ~vfs ~dir:"/kv" ~memtable_limit:1024 ~compact_threshold:2 ()
        in
        let store = match store with Ok s -> s | Error e -> failwith e in
        let* () =
          Proc.repeat 60 (fun i ->
              Kvstore.put store ~key:(Ycsb.record_key i)
                ~value:(Bytes.make 64 (Char.chr (48 + (i mod 10)))))
        in
        compactions := Kvstore.compactions store;
        let* () =
          Proc.repeat 60 (fun i ->
              let* v = Kvstore.get store ~key:(Ycsb.record_key i) in
              (match v with
              | Some value when Bytes.get value 0 = Char.chr (48 + (i mod 10)) -> ()
              | Some _ -> missing := (i, "corrupt") :: !missing
              | None -> missing := (i, "lost") :: !missing);
              Proc.return ())
        in
        Proc.return ())
  in
  check_bool "compactions ran" true (!compactions >= 1);
  Alcotest.(check (list (pair int string))) "no data lost" [] !missing

(* --- kvstore file format against a reference model --- *)

module Smap = Map.Make (String)

(* The store's vfs, recording each write as the path of its fd and its
   length, newest first; [on_read path buf got] may alter what a read
   returns. *)
let recording_vfs ?(on_read = fun _ _ _ -> ()) (vfs : M3v_os.Vfs.t) writes =
  let paths = Hashtbl.create 8 in
  {
    vfs with
    open_ =
      (fun path flags ->
        let* r = vfs.open_ path flags in
        Result.iter (fun fd -> Hashtbl.replace paths fd path) r;
        Proc.return r);
    read =
      (fun fd buf n ->
        let* got = vfs.read fd buf n in
        on_read (Hashtbl.find paths fd) buf got;
        Proc.return got);
    write =
      (fun fd buf n ->
        writes := (Hashtbl.find paths fd, n) :: !writes;
        vfs.write fd buf n);
  }

(* The table format, encoded independently of the store: per key in
   order, klen:u16, vlen:u32, key, value. *)
let reference_table m =
  let b = Buffer.create 4096 in
  Smap.iter
    (fun key value ->
      Buffer.add_uint16_le b (String.length key);
      Buffer.add_int32_le b (Int32.of_int (Bytes.length value));
      Buffer.add_string b key;
      Buffer.add_bytes b value)
    m;
  Buffer.to_bytes b

let kv_key i = Printf.sprintf "k%03d" i

(* 1,000-byte values, distinct per (round, key), so entries straddle the
   4 KiB pages a table is written in. *)
let kv_value round i =
  Bytes.init 1000 (fun j -> Char.chr (97 + (((round * 7) + (i * 3) + j) mod 26)))

(* The sizes of the writes to [path], in order. *)
let sizes_written path writes =
  List.rev (List.filter_map (fun (p, n) -> if p = path then Some n else None) writes)

(* The one table file in [dir] after a flush or compaction (the others are
   unlinked), read back through the vfs. *)
let read_table vfs dir =
  let* names = vfs.M3v_os.Vfs.readdir dir in
  match List.filter (fun n -> n <> "wal") (Result.get_ok names) with
  | [ name ] ->
      let path = dir ^ "/" ^ name in
      let* data = M3v_os.Vfs.read_all vfs path in
      Proc.return (path, Result.get_ok data)
  | names -> failwith ("expected one table, found " ^ String.concat "," names)

(* The table at [path] holds [expect]'s reference encoding, written as
   full 4096-byte pages and then one shorter remainder. *)
let check_table what ~writes (path, data) expect =
  let reference = reference_table expect in
  check_bool (what ^ ": bytes equal the reference encoding") true
    (Bytes.equal reference data);
  let sizes = sizes_written path writes in
  let full = Bytes.length reference / 4096 and rest = Bytes.length reference mod 4096 in
  check_bool (what ^ ": the table ends mid-page") true (rest > 0);
  Alcotest.(check (list int)) (what ^ ": write sizes")
    (List.init full (fun _ -> 4096) @ [ rest ])
    sizes

let test_kvstore_flush_matches_reference () =
  let writes = ref [] and table = ref None and model = ref Smap.empty in
  let _ =
    run_db_system (fun vfs ->
        let vfs = recording_vfs vfs writes in
        let* store = Kvstore.create ~vfs ~dir:"/kv" ~memtable_limit:8192 () in
        let store = Result.get_ok store in
        let* () =
          Proc.iter_list
            (fun i ->
              model := Smap.add (kv_key i) (kv_value 0 i) !model;
              Kvstore.put store ~key:(kv_key i) ~value:(kv_value 0 i))
            [ 5; 1; 7; 0; 3; 6; 2; 4 ]
        in
        let* () = Kvstore.flush store in
        let* t = read_table vfs "/kv" in
        table := Some t;
        Proc.return ())
  in
  check_table "flush" ~writes:!writes (Option.get !table) !model

(* Four tables with updated keys and keys left only in old tables; the
   fourth flush compacts them.  The compacted table is the model's
   encoding with the newest value of every key, and each key reads back
   its newest value. *)
let test_kvstore_compaction_matches_reference () =
  let writes = ref [] and table = ref None and model = ref Smap.empty in
  let wrong = ref [] and tables = ref 0 in
  let rounds =
    [ [ 0; 1; 2; 3; 4; 5; 6; 7 ]; [ 4; 5; 6; 7; 8; 9 ]; [ 0; 2; 10; 11 ] ]
  in
  let _ =
    run_db_system (fun vfs ->
        let vfs = recording_vfs vfs writes in
        let* store =
          Kvstore.create ~vfs ~dir:"/kv" ~memtable_limit:8192 ~compact_threshold:3 ()
        in
        let store = Result.get_ok store in
        let put round i =
          model := Smap.add (kv_key i) (kv_value round i) !model;
          Kvstore.put store ~key:(kv_key i) ~value:(kv_value round i)
        in
        let* () =
          Proc.iter_list
            (fun (round, keys) ->
              let* () = Proc.iter_list (put round) keys in
              Kvstore.flush store)
            (List.mapi (fun r keys -> (r, keys)) rounds)
        in
        (* The ninth new key overflows the memtable: flush, then compact. *)
        let* () = Proc.iter_list (put 3) [ 5; 12; 13; 14; 15; 16; 17; 18; 19 ] in
        tables := Kvstore.sstable_count store;
        let* t = read_table vfs "/kv" in
        table := Some t;
        let* () =
          Proc.iter_list
            (fun (key, value) ->
              let* v = Kvstore.get store ~key in
              if not (Option.equal Bytes.equal v (Some value)) then
                wrong := key :: !wrong;
              Proc.return ())
            (Smap.bindings !model)
        in
        Proc.return ())
  in
  check_int "one table after compaction" 1 !tables;
  Alcotest.(check (list string)) "every key reads its newest value" [] !wrong;
  check_table "compaction" ~writes:!writes (Option.get !table) !model

(* A WAL record longer than a page is logged whole, in page-sized writes. *)
let test_kvstore_wal_logs_long_records () =
  let writes = ref [] in
  let key = "big" and value = Bytes.make 10240 'v' in
  let _ =
    run_db_system (fun vfs ->
        let vfs = recording_vfs vfs writes in
        let* store = Kvstore.create ~vfs ~dir:"/kv" () in
        Kvstore.put (Result.get_ok store) ~key ~value)
  in
  let wal = sizes_written "/kv/wal" !writes in
  check_int "WAL bytes = entry length" (6 + String.length key + Bytes.length value)
    (List.fold_left ( + ) 0 wal);
  Alcotest.(check (list int)) "page-sized WAL writes" [ 4096; 4096; 2057 ] wal

(* Compaction checks what it reads back against the table's index: a key
   byte flipped on the way fails the compaction instead of being
   rewritten. *)
let test_kvstore_compaction_checks_read_back () =
  let armed = ref false in
  let flip path buf got =
    if !armed && got > 6 && path <> "/kv/wal" then begin
      armed := false;
      let data = buf.M3v_mux.Act_ops.data in
      Bytes.set data 6 (Char.chr (Char.code (Bytes.get data 6) lxor 1))
    end
  in
  match
    run_db_system (fun vfs ->
        let vfs = recording_vfs ~on_read:flip vfs (ref []) in
        let* store =
          Kvstore.create ~vfs ~dir:"/kv" ~memtable_limit:2048 ~compact_threshold:2 ()
        in
        let store = Result.get_ok store in
        let put i = Kvstore.put store ~key:(kv_key i) ~value:(kv_value 0 i) in
        (* Every third new key flushes.  Two tables, then arm: the put that
           flushes a third compacts. *)
        let* () = Proc.iter_list put [ 0; 1; 2; 3; 4; 5 ] in
        check_int "two tables before the compaction" 2 (Kvstore.sstable_count store);
        armed := true;
        Proc.iter_list put [ 6; 7; 8 ])
  with
  | _ -> Alcotest.fail "compaction wrote a corrupted table"
  | exception Failure msg ->
      check_bool ("compaction failed: " ^ msg) true
        (String.starts_with ~prefix:"kvstore: table does not match its index" msg)

(* Regression test for the shared-data-endpoint bug: interleaving IO on
   two files must not corrupt either. *)
let test_interleaved_fds_no_corruption () =
  let a_ok = ref false and b_ok = ref false in
  let _ =
    run_db_system (fun vfs ->
        let open M3v_os in
        let* fa = vfs.Vfs.open_ "/a" Fs_proto.wronly in
        let fa = match fa with Ok fd -> fd | Error e -> failwith e in
        let* fb = vfs.Vfs.open_ "/b" Fs_proto.wronly in
        let fb = match fb with Ok fd -> fd | Error e -> failwith e in
        let* buf = M3v_mux.Act_api.alloc_buf 4096 in
        let write fd c =
          Bytes.fill buf.M3v_mux.Act_ops.data 0 4096 c;
          let* n = vfs.Vfs.write fd buf 4096 in
          if n <> 4096 then failwith "short write";
          Proc.return ()
        in
        (* Interleave writes so the data endpoint bounces between files. *)
        let* () =
          Proc.repeat 4 (fun _ ->
              let* () = write fa 'A' in
              write fb 'B')
        in
        let* () = vfs.Vfs.close fa in
        let* () = vfs.Vfs.close fb in
        let* ra = Vfs.read_all vfs "/a" in
        let* rb = Vfs.read_all vfs "/b" in
        (match ra with
        | Ok d ->
            a_ok :=
              Bytes.length d = 16384
              && Bytes.for_all (fun c -> c = 'A') d
        | Error e -> failwith e);
        (match rb with
        | Ok d ->
            b_ok :=
              Bytes.length d = 16384
              && Bytes.for_all (fun c -> c = 'B') d
        | Error e -> failwith e);
        Proc.return ())
  in
  check_bool "file A intact" true !a_ok;
  check_bool "file B intact" true !b_ok

let suite =
  [
    ("flac roundtrip audio", `Quick, test_flac_roundtrip_audio);
    ("flac compresses", `Quick, test_flac_compresses_audio);
    ("flac constant signal", `Quick, test_flac_constant_signal_tiny);
    ("flac edge cases", `Quick, test_flac_edge_cases);
    ("pcm roundtrip", `Quick, test_pcm_roundtrip);
    ("audio bursts", `Quick, test_audio_has_bursts);
    ("zipf skew", `Quick, test_zipf_skew);
    ("ycsb mixes", `Quick, test_ycsb_mixes);
    ("ycsb scan-heavy", `Quick, test_ycsb_scan_heavy_has_no_updates);
    ("ycsb fresh inserts", `Quick, test_ycsb_inserts_use_fresh_keys);
    ("trace shapes", `Quick, test_trace_shapes);
    ("trace custom sizes", `Quick, test_trace_custom_sizes);
    ("cloud codec roundtrip", `Quick, test_cloud_codec_roundtrip);
    ("kvstore put/get/scan", `Quick, test_kvstore_put_get_scan);
    ("kvstore update wins", `Quick, test_kvstore_update_wins);
    ("kvstore compaction", `Quick, test_kvstore_compaction_preserves_data);
    ("kvstore flush = reference encoding", `Quick, test_kvstore_flush_matches_reference);
    ("kvstore compaction = reference", `Quick, test_kvstore_compaction_matches_reference);
    ("kvstore WAL logs long records", `Quick, test_kvstore_wal_logs_long_records);
    ("kvstore compaction checks read-back", `Quick, test_kvstore_compaction_checks_read_back);
    ("interleaved fds (regression)", `Quick, test_interleaved_fds_no_corruption);
  ]
  @ [ QCheck_alcotest.to_alcotest prop_flac_roundtrip ]
