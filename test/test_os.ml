(* File-system tests: Fs_core unit + property tests, and end-to-end m3fs
   service/client runs over the full simulator. *)

open M3v_sim
open M3v_sim.Proc.Syntax
module A = M3v_mux.Act_api
module System = M3v.System
module Services = M3v.Services
module Fs_core = M3v_os.Fs_core
module Fs_client = M3v_os.Fs_client
module Fs_proto = M3v_os.Fs_proto

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let bs = Fs_core.block_size

(* --- Fs_core --- *)

let test_core_paths () =
  let fs = Fs_core.create ~blocks:128 () in
  (match Fs_core.mkdir fs "/a" with Ok _ -> () | Error e -> Alcotest.fail e);
  (match Fs_core.mkdir fs "/a/b" with Ok _ -> () | Error e -> Alcotest.fail e);
  (match Fs_core.create_file fs "/a/b/f.txt" with Ok _ -> () | Error e -> Alcotest.fail e);
  check_bool "lookup file" true (Fs_core.lookup fs "/a/b/f.txt" <> None);
  check_bool "lookup missing" true (Fs_core.lookup fs "/a/zzz" = None);
  (match Fs_core.readdir fs "/a" with
  | Ok [ "b" ] -> ()
  | Ok names -> Alcotest.failf "unexpected listing: %s" (String.concat "," names)
  | Error e -> Alcotest.fail e);
  (match Fs_core.mkdir fs "/a" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate mkdir must fail");
  match Fs_core.stat fs "/a/b/f.txt" with
  | Ok st ->
      check_bool "file not dir" false st.Fs_core.st_is_dir;
      check_int "empty" 0 st.Fs_core.st_size
  | Error e -> Alcotest.fail e

let test_core_extent_cap () =
  let fs = Fs_core.create ~max_extent_blocks:4 ~blocks:256 () in
  let ino =
    match Fs_core.create_file fs "/big" with Ok i -> i | Error e -> Alcotest.fail e
  in
  (* Force allocation of 10 blocks: extents must respect the 4-block cap. *)
  let _, fresh = Fs_core.ensure_write_extent fs ino ~off:(10 * bs - 1) in
  check_bool "several extents" true (List.length fresh >= 3);
  List.iter
    (fun e -> check_bool "cap respected" true (e.Fs_core.e_blocks <= 4))
    fresh;
  Fs_core.set_size fs ino (10 * bs);
  check_int "blocks accounted" 12
    ((Fs_core.fstat fs ino).Fs_core.st_blocks);
  match Fs_core.check_invariants fs with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_core_sequential_is_contiguous () =
  let fs = Fs_core.create ~blocks:256 () in
  let ino =
    match Fs_core.create_file fs "/seq" with Ok i -> i | Error e -> Alcotest.fail e
  in
  let _, fresh = Fs_core.ensure_write_extent fs ino ~off:(64 * bs - 1) in
  (* An empty allocator must serve 64 sequential blocks as one extent. *)
  check_int "one extent" 1 (List.length fresh);
  check_int "64 blocks" 64 (List.hd fresh).Fs_core.e_blocks

let test_core_unlink_frees () =
  let fs = Fs_core.create ~blocks:64 () in
  let free0 = Fs_core.free_blocks fs in
  let ino =
    match Fs_core.create_file fs "/f" with Ok i -> i | Error e -> Alcotest.fail e
  in
  ignore (Fs_core.ensure_write_extent fs ino ~off:(20 * bs - 1));
  check_bool "blocks consumed" true (Fs_core.free_blocks fs < free0);
  (match Fs_core.unlink fs "/f" with Ok () -> () | Error e -> Alcotest.fail e);
  check_int "all freed" free0 (Fs_core.free_blocks fs);
  match Fs_core.check_invariants fs with Ok () -> () | Error e -> Alcotest.fail e

let test_core_read_extent_clipping () =
  let fs = Fs_core.create ~blocks:256 () in
  let ino =
    match Fs_core.create_file fs "/c" with Ok i -> i | Error e -> Alcotest.fail e
  in
  ignore (Fs_core.ensure_write_extent fs ino ~off:0);
  Fs_core.set_size fs ino 100;
  (match Fs_core.read_extent fs ino ~off:0 with
  | Some (_, len, 0) -> check_int "clipped to size" 100 len
  | _ -> Alcotest.fail "no extent");
  check_bool "eof beyond size" true (Fs_core.read_extent fs ino ~off:100 = None)

let prop_core_random_ops =
  QCheck.Test.make ~name:"fs_core invariants hold under random op sequences"
    ~count:60
    QCheck.(list (pair (int_bound 4) (int_bound 40)))
    (fun ops ->
      let fs = Fs_core.create ~max_extent_blocks:8 ~blocks:512 () in
      let files = Array.init 8 (fun i -> Printf.sprintf "/f%d" i) in
      List.iter
        (fun (op, arg) ->
          let path = files.(arg mod 8) in
          match op with
          | 0 -> ignore (Fs_core.create_file fs path)
          | 1 -> (
              match Fs_core.lookup fs path with
              | Some ino when not (Fs_core.is_dir fs ino) ->
                  (try
                     ignore
                       (Fs_core.ensure_write_extent fs ino ~off:(arg * bs))
                   with Failure _ -> ())
              | _ -> ())
          | 2 -> ignore (Fs_core.unlink fs path)
          | 3 -> (
              match Fs_core.lookup fs path with
              | Some ino when not (Fs_core.is_dir fs ino) ->
                  Fs_core.set_size fs ino (arg * 100)
              | _ -> ())
          | _ -> ignore (Fs_core.stat fs path))
        ops;
      match Fs_core.check_invariants fs with Ok () -> true | Error _ -> false)

let prop_segments_cover =
  QCheck.Test.make ~name:"segments exactly tile requested ranges" ~count:60
    QCheck.(pair (int_range 0 40000) (int_range 1 20000))
    (fun (off, len) ->
      let fs = Fs_core.create ~max_extent_blocks:3 ~blocks:64 () in
      let ino =
        match Fs_core.create_file fs "/s" with Ok i -> i | Error _ -> assert false
      in
      (try ignore (Fs_core.ensure_write_extent fs ino ~off:(48 * bs - 1))
       with Failure _ -> ());
      Fs_core.set_size fs ino (48 * bs);
      let segs = Fs_core.segments fs ino ~off ~len in
      let expect = max 0 (min len ((48 * bs) - off)) in
      List.fold_left (fun acc (_, pos, l) -> if pos = acc then acc + l else -1) 0 segs
      = expect)

(* --- end-to-end service/client --- *)

let with_fs_system f =
  let sys = System.create ~variant:System.M3v () in
  let fs = Services.make_fs sys ~tile:2 ~blocks:4096 () in
  f sys fs

let run_client sys fs ~tile program =
  let client_box = ref None in
  let aid, env =
    System.spawn sys ~tile ~name:"fsclient" (fun env ->
        program (Option.get !client_box) env)
  in
  client_box := Some (fs.Services.connect aid env);
  System.boot sys;
  ignore (System.run sys);
  aid

let test_e2e_write_then_read () =
  with_fs_system (fun sys fs ->
      let payload =
        Bytes.init (3 * bs) (fun i -> Char.chr ((i * 7 + (i / 311)) land 0xff))
      in
      let got = ref Bytes.empty in
      ignore
        (run_client sys fs ~tile:1 (fun client _ ->
             let vfs = Fs_client.to_vfs client in
             let* r = M3v_os.Vfs.write_file vfs "/data.bin" payload in
             (match r with Ok () -> () | Error e -> failwith e);
             let* r = M3v_os.Vfs.read_all vfs "/data.bin" in
             (match r with Ok b -> got := b | Error e -> failwith e);
             Proc.return ()));
      check_int "length round trip" (Bytes.length payload) (Bytes.length !got);
      check_bool "content round trip" true (Bytes.equal payload !got);
      (* And the bytes really live in the service's DRAM region. *)
      match Services.peek_file sys fs ~path:"/data.bin" with
      | Some stored -> check_bool "stored in DRAM" true (Bytes.equal stored payload)
      | None -> Alcotest.fail "file missing")

let test_e2e_preload_and_read () =
  with_fs_system (fun sys fs ->
      let payload = Bytes.init 10_000 (fun i -> Char.chr (i land 0xff)) in
      Services.preload_file sys fs ~path:"/pre.bin" payload;
      let got = ref Bytes.empty in
      ignore
        (run_client sys fs ~tile:1 (fun client _ ->
             let vfs = Fs_client.to_vfs client in
             let* r = M3v_os.Vfs.read_all vfs "/pre.bin" in
             (match r with Ok b -> got := b | Error e -> failwith e);
             Proc.return ()));
      check_bool "preloaded content readable" true (Bytes.equal payload !got))

let test_e2e_extent_switch_counting () =
  with_fs_system (fun sys fs ->
      (* 2 MiB file with 64-block extents: 512 blocks = 8 extents.  A full
         sequential read must perform exactly 8 extent switches. *)
      let size = 2 * 1024 * 1024 in
      Services.preload_file sys fs ~path:"/big.bin" (Bytes.make size 'x');
      let switches = ref (-1) in
      ignore
        (run_client sys fs ~tile:1 (fun client _ ->
             let* fd = Fs_client.open_ client "/big.bin" Fs_proto.rdonly in
             let fd = match fd with Ok fd -> fd | Error e -> failwith e in
             let* buf = A.alloc_buf bs in
             let rec loop () =
               let* n = Fs_client.read client ~fd ~buf ~len:bs in
               if n = 0 then Proc.return () else loop ()
             in
             let* () = loop () in
             let* () = Fs_client.close client ~fd in
             switches := Fs_client.extent_switches client;
             Proc.return ()));
      check_int "8 extents for 2MiB/64-block extents" 8 !switches;
      (* Each extent grant = 1 derive syscall (fs) + 1 activate (client),
         plus the client's open/close: the controller was involved, but
         rarely. *)
      let scalls =
        (M3v_kernel.Controller.stats (System.controller sys))
          .M3v_kernel.Controller.syscalls
      in
      check_bool "controller rarely involved" true (scalls < 30))

let test_e2e_metadata_ops () =
  with_fs_system (fun sys fs ->
      let names = ref [] in
      ignore
        (run_client sys fs ~tile:1 (fun client _ ->
             let* r = Fs_client.mkdir client "/dir" in
             (match r with Ok () -> () | Error e -> failwith e);
             let* _ = Fs_client.open_ client "/dir/a" Fs_proto.wronly in
             let* _ = Fs_client.open_ client "/dir/b" Fs_proto.wronly in
             let* r = Fs_client.readdir client "/dir" in
             (match r with Ok n -> names := n | Error e -> failwith e);
             let* r = Fs_client.unlink client "/dir/a" in
             (match r with Ok () -> () | Error e -> failwith e);
             let* r = Fs_client.stat client "/dir/a" in
             (match r with
             | Error _ -> ()
             | Ok _ -> failwith "stat after unlink must fail");
             Proc.return ()));
      Alcotest.(check (list string)) "listing" [ "a"; "b" ] (List.sort compare !names))

let test_e2e_inline_io () =
  with_fs_system (fun sys fs ->
      Services.preload_file sys fs ~path:"/small" (Bytes.of_string "0123456789");
      let got = ref "" in
      ignore
        (run_client sys fs ~tile:1 (fun client _ ->
             let* fd = Fs_client.open_ client "/small" Fs_proto.rdonly in
             let fd = match fd with Ok fd -> fd | Error e -> failwith e in
             let* data = Fs_client.read_inline client ~fd ~off:2 ~len:5 in
             got := Bytes.to_string data;
             Fs_client.close client ~fd));
      Alcotest.(check string) "inline read" "23456" !got)

(* With one-block extents, an inline write across a block boundary
   allocates its head's extent and then its tail's: the service clears
   both fresh blocks and the bytes read back intact. *)
let test_e2e_inline_write_crosses_extent () =
  let sys = System.create ~variant:System.M3v () in
  let fs = Services.make_fs sys ~tile:2 ~blocks:64 ~max_extent_blocks:1 () in
  let data = Bytes.init 20 (fun i -> Char.chr (65 + i)) in
  let got = ref Bytes.empty in
  ignore
    (run_client sys fs ~tile:1 (fun client _ ->
         let* fd = Fs_client.open_ client "/x" Fs_proto.wronly in
         let fd = match fd with Ok fd -> fd | Error e -> failwith e in
         let* () = Fs_client.write_inline client ~fd ~off:(bs - 10) ~data in
         let* back = Fs_client.read_inline client ~fd ~off:(bs - 10) ~len:20 in
         got := back;
         Fs_client.close client ~fd));
  Alcotest.(check string) "read back" (Bytes.to_string data) (Bytes.to_string !got);
  (match Services.peek_file sys fs ~path:"/x" with
  | Some stored ->
      Alcotest.(check string) "stored" (Bytes.to_string data)
        (Bytes.sub_string stored (bs - 10) 20)
  | None -> Alcotest.fail "file missing");
  check_int "both fresh blocks cleared" 2
    (M3v_os.M3fs.stats fs.Services.fs_handle).M3v_os.M3fs.blocks_cleared

let test_e2e_shared_tile_fs () =
  (* Client and service on the same tile: every RPC needs TileMux context
     switches; data still round-trips correctly. *)
  let sys = System.create ~variant:System.M3v () in
  let fs = Services.make_fs sys ~tile:1 ~blocks:2048 () in
  let payload = Bytes.init (bs + 100) (fun i -> Char.chr ((i * 13) land 0xff)) in
  let got = ref Bytes.empty in
  let client_box = ref None in
  let aid, env =
    System.spawn sys ~tile:1 ~name:"fsclient" (fun env ->
        let client = Option.get !client_box in
        ignore env;
        let vfs = Fs_client.to_vfs client in
        let* r = M3v_os.Vfs.write_file vfs "/shared.bin" payload in
        (match r with Ok () -> () | Error e -> failwith e);
        let* r = M3v_os.Vfs.read_all vfs "/shared.bin" in
        (match r with Ok b -> got := b | Error e -> failwith e);
        Proc.return ())
  in
  client_box := Some (fs.Services.connect aid env);
  System.boot sys;
  ignore (System.run sys);
  check_bool "shared-tile round trip" true (Bytes.equal payload !got);
  let rt = System.runtime sys ~tile:1 in
  let switches = Stats.Counter.get (M3v_mux.Runtime.counters rt) "ctx_switch" in
  check_bool "context switches happened" true (switches > 4.0)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ("core paths", `Quick, test_core_paths);
    ("core extent cap", `Quick, test_core_extent_cap);
    ("core sequential contiguous", `Quick, test_core_sequential_is_contiguous);
    ("core unlink frees", `Quick, test_core_unlink_frees);
    ("core read extent clipping", `Quick, test_core_read_extent_clipping);
    ("e2e write then read", `Quick, test_e2e_write_then_read);
    ("e2e preload and read", `Quick, test_e2e_preload_and_read);
    ("e2e extent switches", `Quick, test_e2e_extent_switch_counting);
    ("e2e metadata ops", `Quick, test_e2e_metadata_ops);
    ("e2e inline io", `Quick, test_e2e_inline_io);
    ("e2e inline write crosses extent", `Quick, test_e2e_inline_write_crosses_extent);
    ("e2e shared tile", `Quick, test_e2e_shared_tile_fs);
  ]
  @ qsuite [ prop_core_random_ops; prop_segments_cover ]
