(* Integration tests of the runtimes: M3v (TileMux + vDTU) and M3x (remote
   multiplexing via the controller).  These exercise the full stack:
   platform, NoC, DTUs, controller, runtime, activity programs. *)

open M3v_sim
open M3v_sim.Proc.Syntax
module A = M3v_mux.Act_api
module System = M3v.System
module Msg = M3v_dtu.Msg
module Proto = M3v_kernel.Protocol

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

type Msg.data += Req of int | Resp of int

(* An RPC server: answers [rounds] requests with x+1, then exits. *)
let server_program ~rgate ~rounds _env =
  Proc.repeat rounds (fun _ ->
      let* _ep, msg = A.recv ~eps:[ !rgate ] in
      let x = match msg.Msg.data with Req x -> x | _ -> -1 in
      let* () = A.compute 50 in
      A.reply ~recv_ep:!rgate ~msg ~size:8 (Resp (x + 1)))

(* An RPC client: [rounds] no-op-ish round trips; records total time. *)
let client_program ~chan ~rounds ~total _env =
  let* t0 = A.now in
  let* () =
    Proc.repeat rounds (fun i ->
        let* reply =
          A.call ~sgate:(fst !chan) ~reply_ep:(snd !chan) ~size:8 (Req i)
        in
        match reply.Msg.data with
        | Resp r when r = i + 1 -> Proc.return ()
        | _ -> failwith "bad RPC reply")
  in
  let* t1 = A.now in
  total := Time.sub t1 t0;
  Proc.return ()

(* Build a client/server pair; same tile if [local]. *)
let rpc_system ~variant ~local ~rounds =
  let sys = System.create ~variant () in
  let server_tile = 1 in
  let client_tile = if local then 1 else 2 in
  let rgate = ref (-1) in
  let chan = ref (-1, -1) in
  let total = ref Time.zero in
  let server, _ =
    System.spawn sys ~tile:server_tile ~name:"server"
      (server_program ~rgate ~rounds)
  in
  let client, _ =
    System.spawn sys ~tile:client_tile ~name:"client"
      (client_program ~chan ~rounds ~total)
  in
  let ch = System.channel sys ~src:client ~dst:server () in
  rgate := ch.System.rgate;
  chan := (ch.System.sgate, ch.System.reply_ep);
  (sys, client, server, total)

let run_rpc ~variant ~local ~rounds =
  let sys, client, server, total = rpc_system ~variant ~local ~rounds in
  System.boot sys;
  let events = System.run sys in
  check_bool "simulation progressed" true (events > 0);
  let client_tile = if local then 1 else 2 in
  let rt_client = System.runtime sys ~tile:client_tile in
  let rt_server = System.runtime sys ~tile:1 in
  check_bool "client finished" true (M3v_mux.Runtime.finished rt_client client);
  check_bool "server finished" true (M3v_mux.Runtime.finished rt_server server);
  !total

let test_m3v_remote_rpc () =
  let total = run_rpc ~variant:System.M3v ~local:false ~rounds:100 in
  let per_rpc = total / 100 in
  (* BOOM @ 80 MHz: a remote no-op RPC should land in the
     system-call-like regime: a handful of microseconds, well under the
     cost of tile-local RPCs (paper, Figure 6). *)
  check_bool "remote RPC completed" true (per_rpc > Time.us 1);
  check_bool
    (Printf.sprintf "remote RPC under 40us (got %.1fus)" (Time.to_us per_rpc))
    true (per_rpc < Time.us 40)

let test_m3v_local_rpc () =
  let remote = run_rpc ~variant:System.M3v ~local:false ~rounds:100 in
  let local = run_rpc ~variant:System.M3v ~local:true ~rounds:100 in
  (* Tile-local RPC involves TileMux twice (two context switches): it must
     be significantly more expensive than remote RPC (paper, Figure 6). *)
  check_bool
    (Printf.sprintf "local (%.1fus) > 2x remote (%.1fus)"
       (Time.to_us (local / 100))
       (Time.to_us (remote / 100)))
    true
    (local > 2 * remote);
  (* ... but still within the "two Linux yields" regime: < 150us. *)
  check_bool "local RPC bounded" true (local / 100 < Time.us 150)

let test_m3x_local_rpc_slow_path () =
  let m3v = run_rpc ~variant:System.M3v ~local:true ~rounds:50 in
  let m3x = run_rpc ~variant:System.M3x ~local:true ~rounds:50 in
  (* The M3x slow path through the controller must cost a multiple of the
     M3v TileMux path (paper reports ~27k vs ~5k cycles). *)
  check_bool
    (Printf.sprintf "M3x local (%.1fus) > 2x M3v local (%.1fus)"
       (Time.to_us (m3x / 50))
       (Time.to_us (m3v / 50)))
    true (m3x > 2 * m3v)

let test_m3x_remote_rpc_fast_path () =
  (* Remote RPC with one activity per tile: M3x uses the fast path and
     should be close to M3v. *)
  let m3v = run_rpc ~variant:System.M3v ~local:false ~rounds:50 in
  let m3x = run_rpc ~variant:System.M3x ~local:false ~rounds:50 in
  check_bool
    (Printf.sprintf "M3x remote (%.1fus) < 3x M3v remote (%.1fus)"
       (Time.to_us (m3x / 50))
       (Time.to_us (m3v / 50)))
    true (m3x < 3 * m3v)

let test_syscall_noop () =
  let sys = System.create ~variant:System.M3v () in
  let replies = ref 0 in
  let _aid, _ =
    System.spawn sys ~tile:1 ~name:"caller" (fun env ->
        Proc.repeat 10 (fun _ ->
            let* rep = A.syscall env Proto.Noop in
            (match rep with
            | Proto.Ok_unit -> incr replies
            | _ -> failwith "noop failed");
            Proc.return ()))
  in
  System.boot sys;
  ignore (System.run sys);
  check_int "all noop syscalls replied" 10 !replies;
  (* 10 noops + the activity's exit notification. *)
  check_int "controller counted them" 11
    (M3v_kernel.Controller.stats (System.controller sys)).M3v_kernel.Controller.syscalls

let test_three_activities_round_robin () =
  (* Three compute-heavy activities on one tile must all finish, and the
     tile must preempt them (timeslice round robin). *)
  let sys = System.create ~variant:System.M3v () in
  let cycles = 2_000_000 (* 25 ms at 80 MHz: several timeslices *) in
  let finish_times = Array.make 3 Time.zero in
  for i = 0 to 2 do
    ignore
      (System.spawn sys ~tile:1 ~name:(Printf.sprintf "worker%d" i) (fun _ ->
           let* () = A.compute cycles in
           let* t = A.now in
           finish_times.(i) <- t;
           Proc.return ()))
  done;
  System.boot sys;
  ignore (System.run sys);
  let rt = System.runtime sys ~tile:1 in
  check_bool "all finished" true (M3v_mux.Runtime.all_finished rt);
  let preempts = Stats.Counter.get (M3v_mux.Runtime.counters rt) "preempt" in
  check_bool "preemptions happened" true (preempts > 10.0);
  (* Round robin: finish times must be interleaved, i.e. all within the
     last ~two timeslices of each other. *)
  let fmin = Array.fold_left min finish_times.(0) finish_times in
  let fmax = Array.fold_left max finish_times.(0) finish_times in
  check_bool "finishes clustered (fair sharing)" true
    (Time.sub fmax fmin < Time.ms 4)

let test_pager_demand_paging () =
  let sys = System.create ~variant:System.M3v () in
  let pager = System.with_pager sys ~tile:3 in
  ignore pager;
  let touched = ref false in
  let _aid, _ =
    System.spawn sys ~tile:1 ~name:"faulter" ~premap:false (fun _ ->
        let* buf = A.alloc_buf (8 * 4096) in
        let* () = A.touch ~write:true buf in
        touched := true;
        Proc.return ())
  in
  System.boot sys;
  ignore (System.run sys);
  check_bool "program completed" true !touched;
  let rt = System.runtime sys ~tile:1 in
  let faults = Stats.Counter.get (M3v_mux.Runtime.counters rt) "fault" in
  check_int "eight demand faults" 8 (int_of_float faults);
  let tm_rpcs = Stats.Counter.get (M3v_mux.Runtime.counters rt) "tm_rpc" in
  check_int "eight TileMux->pager RPCs" 8 (int_of_float tm_rpcs)

let test_local_pager_shared_tile () =
  (* Pager co-located with the faulting activity: the fault path causes
     tile-local context switches and still completes. *)
  let sys = System.create ~variant:System.M3v () in
  ignore (System.with_pager sys ~tile:1);
  let done_ = ref false in
  let _aid, _ =
    System.spawn sys ~tile:1 ~name:"faulter" ~premap:false (fun _ ->
        let* buf = A.alloc_buf (4 * 4096) in
        let* () = A.touch ~write:false buf in
        done_ := true;
        Proc.return ())
  in
  System.boot sys;
  ignore (System.run sys);
  check_bool "shared-tile faulting works" true !done_

let test_vdtu_tlb_fill_path () =
  (* Sending from a virtually-addressed buffer: first send TLB-misses, the
     runtime translates via TileMux and retries transparently. *)
  let sys = System.create ~variant:System.M3v () in
  let rgate = ref (-1) in
  let chan = ref (-1, -1) in
  let got = ref 0 in
  let server, _ =
    System.spawn sys ~tile:2 ~name:"sink" (fun _ ->
        let* _ep, msg = A.recv ~eps:[ !rgate ] in
        (match msg.Msg.data with Req n -> got := n | _ -> ());
        A.ack ~ep:!rgate msg)
  in
  let client, _ =
    System.spawn sys ~tile:1 ~name:"source" (fun _ ->
        let* buf = A.alloc_buf 4096 in
        let* () = A.send ~ep:(fst !chan) ~vaddr:buf.M3v_mux.Act_ops.vaddr ~size:64 (Req 7) in
        Proc.return ())
  in
  let ch = System.channel sys ~src:client ~dst:server () in
  rgate := ch.System.rgate;
  chan := (ch.System.sgate, ch.System.reply_ep);
  System.boot sys;
  ignore (System.run sys);
  check_int "message with virtual buffer arrived" 7 !got;
  let tlb = M3v_dtu.Dtu.tlb (M3v_tile.Platform.dtu (System.platform sys) 1) in
  check_bool "vdtu recorded a miss" true
    ((M3v_dtu.Tlb.stats tlb).M3v_dtu.Tlb.misses > 0)

let test_dma_through_mem_region () =
  let sys = System.create ~variant:System.M3v () in
  let roundtrip = ref "" in
  let aid_box = ref (-1) in
  let ep_box = ref (-1) in
  let _aid, _ =
    System.spawn sys ~tile:1 ~name:"dma" (fun _ ->
        let src = Bytes.of_string "persistent payload" in
        let len = Bytes.length src in
        let* () = A.mem_write ~ep:!ep_box ~off:64 ~len ~src () in
        let dst = Bytes.create len in
        let* () = A.mem_read ~ep:!ep_box ~off:64 ~len ~dst () in
        roundtrip := Bytes.to_string dst;
        Proc.return ())
  in
  aid_box := _aid;
  let _sel, ep = System.mem_region sys ~act:!aid_box ~size:4096 ~perm:M3v_dtu.Dtu_types.RW in
  ep_box := ep;
  System.boot sys;
  ignore (System.run sys);
  Alcotest.(check string) "dma round trip through DRAM" "persistent payload" !roundtrip

let test_many_rpc_stress () =
  (* Longer ping-pong with small computes: checks no lost wakeups or
     stuck states over thousands of switches. *)
  let total = run_rpc ~variant:System.M3v ~local:true ~rounds:2_000 in
  check_bool "stress completed" true (total > Time.zero)

let test_m3x_stress () =
  let total = run_rpc ~variant:System.M3x ~local:true ~rounds:300 in
  check_bool "m3x stress completed" true (total > Time.zero)

(* One gem5 tile under M3x, shared by two yielders and an RPC pair: every
   yield is a remote switch, and every request and reply finds its
   receiver switched out, so the controller forwards it and delivers it at
   the receiver's next switch-in.  The counters, the final time and each
   activity's busy time are pinned (the hash-table scheduler gave the same
   values): a ready queue that reorders or duplicates an entry moves
   them. *)
let test_m3x_shared_tile_schedule () =
  let spec = M3v_tile.Platform.gem5_spec ~user_tiles:1 () in
  let sys = System.create ~spec ~variant:System.M3x () in
  let tile = 1 in
  let yielder rounds _env =
    Proc.repeat rounds (fun i ->
        let* () = A.compute (1_000 + (300 * i)) in
        A.yield)
  in
  let y1, e1 = System.spawn sys ~tile ~name:"yield1" (yielder 5) in
  let y2, e2 = System.spawn sys ~tile ~name:"yield2" (yielder 8) in
  let rgate = ref (-1) in
  let chan = ref (-1, -1) in
  let total = ref Time.zero in
  let server, e3 =
    System.spawn sys ~tile ~name:"server" (server_program ~rgate ~rounds:12)
  in
  let client, e4 =
    System.spawn sys ~tile ~name:"client" (client_program ~chan ~rounds:12 ~total)
  in
  let ch = System.channel sys ~src:client ~dst:server () in
  rgate := ch.System.rgate;
  chan := (ch.System.sgate, ch.System.reply_ep);
  let dtu = M3v_tile.Platform.dtu (System.platform sys) tile in
  let sys_eps (e : A.env) = [ e.A.sys_sgate; e.A.sys_rgate ] in
  let eps =
    [ ch.System.sgate; ch.System.rgate; ch.System.reply_ep ]
    @ List.concat_map sys_eps [ e1; e2; e3; e4 ]
  in
  let before = List.map (fun ep -> (ep, M3v_dtu.Dtu.ext_read_ep dtu ~ep)) eps in
  System.boot sys;
  ignore (System.run sys);
  let rt = System.runtime sys ~tile in
  let acts = [ y1; y2; server; client ] in
  List.iter
    (fun aid ->
      check_bool "activity finished" true (M3v_mux.Runtime.finished rt aid))
    acts;
  let s = M3v_kernel.Controller.stats (System.controller sys) in
  Alcotest.(check (list (pair string int)))
    "schedule"
    [
      ("mx_switches", 41);
      ("mx_forwards", 24);
      ("end_ps", 174_780_581);
      ("yield1", 3_223_440);
      ("yield2", 6_300_360);
      ("server", 4_149_360);
      ("client", 5_072_436);
    ]
    ([
       ("mx_switches", s.M3v_kernel.Controller.mx_switches);
       ("mx_forwards", s.M3v_kernel.Controller.mx_forwards);
       ("end_ps", Engine.now (System.engine sys));
     ]
    @ List.map
        (fun aid ->
          ( M3v_kernel.Controller.act_name (System.controller sys) aid,
            M3v_mux.Runtime.busy_of rt aid ))
        acts);
  (* Switches move the records out of the register file and back: after
     the run every slot holds the record it was configured with. *)
  List.iter
    (fun (ep, e) ->
      check_bool
        (Printf.sprintf "endpoint %d holds its own record" ep)
        true
        (M3v_dtu.Dtu.ext_read_ep dtu ~ep == e))
    before

(* A forward spends no credit: the SEND that failed refunded it.  So the
   ack of a forwarded message must return none.  The client on tile 1
   sends twice to a server on tile 2 (2 slots, 2 credits).  The first send
   finds the server switched out for a busy peer and is forwarded; the
   second finds it switched in and spends a credit.  The server acks the
   forward and looks at the client's credits while the second message is
   still unacked: one. *)
let test_m3x_forward_ack_returns_no_credit () =
  let spec = M3v_tile.Platform.gem5_spec ~user_tiles:2 () in
  let sys = System.create ~spec ~variant:System.M3x () in
  let sgate = ref (-1) and rgate = ref (-1) in
  let seen = ref (-1) in
  let credits () =
    let dtu = M3v_tile.Platform.dtu (System.platform sys) 1 in
    match (M3v_dtu.Dtu.ext_read_ep dtu ~ep:!sgate).M3v_dtu.Ep.cfg with
    | M3v_dtu.Ep.Send s -> s.M3v_dtu.Ep.credits
    | _ -> -1
  in
  let server, _ =
    System.spawn sys ~tile:2 ~name:"server" (fun _ ->
        let* ep, first = A.recv ~eps:[ !rgate ] in
        let* _, second = A.recv ~eps:[ !rgate ] in
        let* () = A.ack ~ep first in
        let* () = A.compute 10_000 in
        seen := credits ();
        A.ack ~ep second)
  in
  let _busy, _ =
    System.spawn sys ~tile:2 ~name:"busy" (fun _ -> A.compute 200_000)
  in
  let client, _ =
    System.spawn sys ~tile:1 ~name:"client" (fun _ ->
        let* () = A.compute 20_000 in
        let* () = A.send ~ep:!sgate ~size:16 (Req 1) in
        let* () = A.compute 400_000 in
        A.send ~ep:!sgate ~size:16 (Req 2))
  in
  let ch = System.channel sys ~src:client ~dst:server ~slots:2 ~credits:2 () in
  sgate := ch.System.sgate;
  rgate := ch.System.rgate;
  System.boot sys;
  ignore (System.run sys);
  let s = M3v_kernel.Controller.stats (System.controller sys) in
  check_int "the first send was forwarded" 1 s.M3v_kernel.Controller.mx_forwards;
  check_bool "server finished" true
    (M3v_mux.Runtime.finished (System.runtime sys ~tile:2) server);
  check_int "credits while the second message is unacked" 1 !seen;
  check_int "credits at the end" 2 (credits ())

let suite =
  [
    ("m3v remote rpc", `Quick, test_m3v_remote_rpc);
    ("m3v local rpc (TileMux)", `Quick, test_m3v_local_rpc);
    ("m3x local rpc (slow path)", `Quick, test_m3x_local_rpc_slow_path);
    ("m3x remote rpc (fast path)", `Quick, test_m3x_remote_rpc_fast_path);
    ("syscall noop", `Quick, test_syscall_noop);
    ("round robin", `Quick, test_three_activities_round_robin);
    ("pager demand paging", `Quick, test_pager_demand_paging);
    ("pager on shared tile", `Quick, test_local_pager_shared_tile);
    ("vdtu tlb fill path", `Quick, test_vdtu_tlb_fill_path);
    ("dma through mem region", `Quick, test_dma_through_mem_region);
    ("rpc stress m3v", `Slow, test_many_rpc_stress);
    ("rpc stress m3x", `Slow, test_m3x_stress);
    ("m3x shared tile schedule", `Quick, test_m3x_shared_tile_schedule);
    ("m3x forward ack returns no credit", `Quick,
     test_m3x_forward_ack_returns_no_credit);
  ]
