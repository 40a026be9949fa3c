(* Tests of the Linux single-tile model: syscall costs, tmpfs, UDP,
   scheduling, and getrusage accounting. *)

open M3v_sim
open M3v_sim.Proc.Syntax
module Lx = M3v_linux.Lx_api
module Linux_sim = M3v_linux.Linux_sim
module A = M3v_mux.Act_api
module Nic = M3v_os.Nic
module Fs_proto = M3v_os.Fs_proto
module Fs_core = M3v_os.Fs_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let run_lx ?nic_host f =
  let engine = Engine.create () in
  let lx = Linux_sim.create engine () in
  (match nic_host with
  | Some host ->
      let nic = Nic.create ~engine ~host () in
      Linux_sim.attach_nic lx nic
  | None -> ());
  let pid = Linux_sim.spawn lx ~name:"proc" (f lx) in
  Linux_sim.boot lx;
  ignore (Engine.run engine);
  (lx, pid)

let test_syscall_cost_regime () =
  let total = ref Time.zero in
  let lx, pid =
    run_lx (fun _ ->
        let* t0 = A.now in
        let* () = Proc.repeat 100 (fun _ -> Lx.noop_syscall) in
        let* t1 = A.now in
        total := Time.sub t1 t0;
        Proc.return ())
  in
  check_bool "finished" true (Linux_sim.finished lx pid);
  let per_call = Time.to_us (!total / 100) in
  (* ~950 cycles at 80 MHz is ~12 us. *)
  check_bool (Printf.sprintf "syscall ~12us (got %.1f)" per_call) true
    (per_call > 8.0 && per_call < 16.0)

let test_tmpfs_roundtrip () =
  let ok = ref false in
  let _ =
    run_lx (fun lx ->
        ignore lx;
        let payload = Bytes.init 10_000 (fun i -> Char.chr (i land 0xff)) in
        let* r = M3v_os.Vfs.write_file Lx.vfs "/t.bin" payload in
        (match r with Ok () -> () | Error e -> failwith e);
        let* r = M3v_os.Vfs.read_all Lx.vfs "/t.bin" in
        (match r with
        | Ok b -> ok := Bytes.equal b payload
        | Error e -> failwith e);
        Proc.return ())
  in
  check_bool "tmpfs content round trip" true !ok

let test_tmpfs_metadata () =
  let names = ref [] in
  let _ =
    run_lx (fun _ ->
        let* r = Lx.mkdir "/d" in
        (match r with Ok () -> () | Error e -> failwith e);
        let* _ = Lx.open_ "/d/x" Fs_proto.wronly in
        let* _ = Lx.open_ "/d/y" Fs_proto.wronly in
        let* r = Lx.readdir "/d" in
        (match r with Ok n -> names := n | Error e -> failwith e);
        let* r = Lx.unlink "/d/x" in
        (match r with Ok () -> () | Error e -> failwith e);
        let* r = Lx.stat "/d/x" in
        (match r with Error _ -> () | Ok _ -> failwith "stat after unlink");
        Proc.return ())
  in
  Alcotest.(check (list string)) "listing" [ "x"; "y" ] (List.sort compare !names)

let test_udp_echo () =
  let got = ref Bytes.empty in
  let _ =
    run_lx ~nic_host:(Nic.Echo { turnaround = Time.us 20 }) (fun _ ->
        let* sock = Lx.socket in
        let* () = Lx.bind ~sock ~port:5000 in
        let* () = Lx.sendto ~sock ~dst:(1, 7000) (Bytes.of_string "hello") in
        let* _src, data = Lx.recvfrom ~sock in
        got := data;
        Lx.sock_close ~sock)
  in
  Alcotest.(check string) "echo payload" "hello" (Bytes.to_string !got)

(* A write from 20 bytes before the end of a file's 64-block extent to
   20 bytes past it: the tail lands in a fresh extent, and the bytes read
   back intact. *)
let test_tmpfs_write_crosses_extent () =
  let engine = Engine.create () in
  let lx = Linux_sim.create engine () in
  let ext = 64 * Fs_core.block_size in
  let head = Bytes.init ext (fun i -> Char.chr (i land 0xff)) in
  Linux_sim.preload_file lx ~path:"/f" head;
  let tail = Bytes.init 40 (fun i -> Char.chr (97 + (i mod 26))) in
  let written = ref 0 and back = ref "" in
  ignore
    (Linux_sim.spawn lx ~name:"writer"
       (let rw = { Fs_proto.fl_write = true; fl_create = false; fl_trunc = false } in
        let* fd = Lx.open_ "/f" rw in
        let fd = match fd with Ok fd -> fd | Error e -> failwith e in
        let* buf = A.alloc_buf 40 in
        Bytes.blit tail 0 buf.M3v_mux.Act_ops.data 0 40;
        let* () = Lx.seek ~fd ~pos:(ext - 20) in
        let* n = Lx.write ~fd ~buf ~len:40 in
        written := n;
        let* buf2 = A.alloc_buf 40 in
        let* () = Lx.seek ~fd ~pos:(ext - 20) in
        let* n = Lx.read ~fd ~buf:buf2 ~len:40 in
        back := Bytes.sub_string buf2.M3v_mux.Act_ops.data 0 n;
        Lx.close ~fd));
  Linux_sim.boot lx;
  ignore (Engine.run engine);
  check_int "written" 40 !written;
  Alcotest.(check string) "read back" (Bytes.to_string tail) !back;
  (match Linux_sim.peek_file lx ~path:"/f" with
  | Some stored ->
      Alcotest.(check string) "stored"
        (Bytes.sub_string head 0 (ext - 20) ^ Bytes.to_string tail)
        (Bytes.to_string stored)
  | None -> Alcotest.fail "file missing");
  match Fs_core.check_invariants (Linux_sim.tmpfs lx) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* The echo lands while the process computes: it waits in the socket's
   queue, and recvfrom takes it from there. *)
let test_udp_queued_before_recvfrom () =
  let got = ref Bytes.empty in
  let _ =
    run_lx ~nic_host:(Nic.Echo { turnaround = Time.us 20 }) (fun _ ->
        let* sock = Lx.socket in
        let* () = Lx.bind ~sock ~port:5001 in
        let* () = Lx.sendto ~sock ~dst:(1, 7000) (Bytes.of_string "early") in
        let* () = A.compute 2_000_000 in
        let* _src, data = Lx.recvfrom ~sock in
        got := data;
        Lx.sock_close ~sock)
  in
  Alcotest.(check string) "queued payload" "early" (Bytes.to_string !got)

let test_rusage_split () =
  let lx, pid =
    run_lx (fun _ ->
        let* () = A.compute 200_000 in
        Proc.repeat 50 (fun _ -> Lx.noop_syscall))
  in
  let user, sys = Linux_sim.rusage lx pid in
  check_bool "user time from compute" true (user >= Time.of_cycles ~ps_per_cycle:12_500 200_000);
  check_bool "sys time from syscalls" true (sys > Time.us 100);
  check_bool "user dominates" true (user > sys)

let test_two_processes_share_core () =
  let engine = Engine.create () in
  let lx = Linux_sim.create engine () in
  let done_at = Array.make 2 Time.zero in
  let worker i =
    let* () = A.compute 1_000_000 in
    let* t = A.now in
    done_at.(i) <- t;
    Proc.return ()
  in
  let _ = Linux_sim.spawn lx ~name:"w0" (worker 0) in
  let _ = Linux_sim.spawn lx ~name:"w1" (worker 1) in
  Linux_sim.boot lx;
  ignore (Engine.run engine);
  check_bool "both ran" true (done_at.(0) > Time.zero && done_at.(1) > Time.zero);
  (* One core: total wall time ~ sum of both computes. *)
  let latest = Time.max done_at.(0) done_at.(1) in
  check_bool "serialized on one core" true
    (latest >= Time.of_cycles ~ps_per_cycle:12_500 2_000_000);
  (* Timeslicing: both finish close together. *)
  check_bool "round robin interleaves" true
    (Time.sub latest (Time.min done_at.(0) done_at.(1)) < Time.ms 3)

let test_icache_penalty_only_after_user_work () =
  (* A tight syscall loop must not pay the icache refill (Figure 6
     depends on this); syscalls after long user phases must. *)
  let tight = ref Time.zero and cold = ref Time.zero in
  let _ =
    run_lx (fun _ ->
        let* t0 = A.now in
        let* () = Proc.repeat 50 (fun _ -> Lx.noop_syscall) in
        let* t1 = A.now in
        tight := (Time.sub t1 t0) / 50;
        let* t2 = A.now in
        let* () =
          Proc.repeat 50 (fun _ ->
              let* () = A.compute 100_000 in
              Lx.noop_syscall)
        in
        let* t3 = A.now in
        cold := ((Time.sub t3 t2) / 50) - Time.of_cycles ~ps_per_cycle:12_500 100_000;
        Proc.return ())
  in
  check_bool
    (Printf.sprintf "cold syscalls cost more (%.1fus vs %.1fus)" (Time.to_us !cold)
       (Time.to_us !tight))
    true
    (!cold > !tight + Time.us 10)

let test_linux_single_tile_claim () =
  (* The model is one core by construction: this documents the paper's
     constraint that Linux cannot span the non-coherent tiles. *)
  let lx, _ = run_lx (fun _ -> Proc.return ()) in
  check_bool "tmpfs exists" true (M3v_os.Fs_core.total_blocks (Linux_sim.tmpfs lx) > 0)

let suite =
  [
    ("syscall cost regime", `Quick, test_syscall_cost_regime);
    ("tmpfs roundtrip", `Quick, test_tmpfs_roundtrip);
    ("tmpfs metadata", `Quick, test_tmpfs_metadata);
    ("udp echo", `Quick, test_udp_echo);
    ("tmpfs write crosses extent", `Quick, test_tmpfs_write_crosses_extent);
    ("udp queued before recvfrom", `Quick, test_udp_queued_before_recvfrom);
    ("rusage split", `Quick, test_rusage_split);
    ("two processes share core", `Quick, test_two_processes_share_core);
    ("icache penalty gating", `Quick, test_icache_penalty_only_after_user_work);
    ("single tile", `Quick, test_linux_single_tile_claim);
  ]
