(* Cross-cutting integration tests: capability revocation end to end,
   credit backpressure under load, failure injection, determinism, the
   autonomous-accelerator engine, and smoke tests of the experiment
   harness asserting the paper's headline relations on tiny instances. *)

open M3v_sim
open M3v_sim.Proc.Syntax
module A = M3v_mux.Act_api
module Msg = M3v_dtu.Msg
module System = M3v.System
module Services = M3v.Services
module Controller = M3v_kernel.Controller
module Proto = M3v_kernel.Protocol
module Platform = M3v_tile.Platform

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

type Msg.data += Ping of int

(* --- capability revocation, end to end --- *)

let test_revoke_kills_channel () =
  let sys = System.create ~variant:System.M3v () in
  let ctrl = System.controller sys in
  let rgate = ref (-1) in
  let chan = ref (-1, -1) in
  let delivered = ref 0 and failed = ref false in
  let rgate_sel_box = ref (-1) in
  let server, _ =
    System.spawn sys ~tile:2 ~name:"server" (fun env ->
        let* _ep, msg = A.recv ~eps:[ !rgate ] in
        incr delivered;
        let* () = A.ack ~ep:!rgate msg in
        (* The gate's owner revokes the whole subtree: its own receive
           endpoint and every derived send gate must die. *)
        let* _ = A.syscall env (Proto.Revoke { sel = !rgate_sel_box }) in
        Proc.return ())
  in
  let rgate_sel = Controller.host_new_rgate ctrl ~act:server ~slots:4 ~slot_size:128 in
  rgate_sel_box := rgate_sel;
  rgate := Controller.host_activate ctrl ~act:server ~sel:rgate_sel ();
  let client, _ =
    System.spawn sys ~tile:3 ~name:"client" (fun _ ->
        let* () = A.send ~ep:(fst !chan) ~size:8 (Ping 1) in
        (* Give the revocation time to propagate, then finish. *)
        A.compute 200_000)
  in
  ignore client;
  let sgate_sel =
    Controller.host_new_sgate ctrl ~owner:client ~rgate_of:server ~rgate_sel
      ~credits:2 ()
  in
  chan := (Controller.host_activate ctrl ~act:client ~sel:sgate_sel (), -1);
  System.boot sys;
  ignore (System.run sys);
  check_int "first message delivered" 1 !delivered;
  ignore !failed;
  (* After revocation the endpoints are invalid on both tiles. *)
  let d2 = Platform.dtu (System.platform sys) 2 in
  (match (M3v_dtu.Dtu.ext_read_ep d2 ~ep:!rgate).M3v_dtu.Ep.cfg with
  | M3v_dtu.Ep.Invalid -> ()
  | _ -> Alcotest.fail "server rgate must be invalidated");
  let d3 = Platform.dtu (System.platform sys) 3 in
  match (M3v_dtu.Dtu.ext_read_ep d3 ~ep:(fst !chan)).M3v_dtu.Ep.cfg with
  | M3v_dtu.Ep.Invalid -> ()
  | _ -> Alcotest.fail "client sgate must be invalidated"

(* NOTE on the wait above: the client's revoke syscall runs after the
   send's completion, so the subtree revocation is race-free here. *)

(* --- credit backpressure: a fast producer against a slow consumer --- *)

let test_credit_backpressure () =
  let sys = System.create ~variant:System.M3v () in
  let rgate = ref (-1) in
  let chan = ref (-1, -1) in
  let rounds = 40 in
  let received = ref 0 in
  let server, _ =
    System.spawn sys ~tile:2 ~name:"slow-consumer" (fun _ ->
        Proc.repeat rounds (fun _ ->
            let* _ep, msg = A.recv ~eps:[ !rgate ] in
            (* Chew on each message for a while before acknowledging. *)
            let* () = A.compute 20_000 in
            incr received;
            A.ack ~ep:!rgate msg))
  in
  let client, _ =
    System.spawn sys ~tile:3 ~name:"fast-producer" (fun _ ->
        Proc.repeat rounds (fun i -> A.send ~ep:(fst !chan) ~size:8 (Ping i)))
  in
  (* Only 2 credits and 2 slots: the producer must repeatedly stall. *)
  let ch = System.channel sys ~src:client ~dst:server ~credits:2 ~slots:2 () in
  rgate := ch.System.rgate;
  chan := (ch.System.sgate, ch.System.reply_ep);
  System.boot sys;
  ignore (System.run sys);
  check_int "nothing lost under backpressure" rounds !received

(* --- determinism: identical runs produce identical simulated time --- *)

let test_determinism () =
  let run () =
    let sys = System.create ~variant:System.M3v () in
    let fs = Services.make_fs sys ~tile:3 ~blocks:512 () in
    Services.preload_file sys fs ~path:"/f" (Bytes.make 65536 'z');
    let elapsed = ref Time.zero in
    let cb = ref None in
    let aid, env =
      System.spawn sys ~tile:2 ~name:"reader" (fun _ ->
          let vfs = M3v_os.Fs_client.to_vfs (Option.get !cb) in
          let* t0 = A.now in
          let* r = M3v_os.Vfs.read_all vfs "/f" in
          (match r with Ok _ -> () | Error e -> failwith e);
          let* t1 = A.now in
          elapsed := Time.sub t1 t0;
          Proc.return ())
    in
    cb := Some (fs.Services.connect aid env);
    System.boot sys;
    let events = System.run sys in
    (!elapsed, events)
  in
  let t1, e1 = run () in
  let t2, e2 = run () in
  check_int "same simulated duration" t1 t2;
  check_int "same event count" e1 e2

(* --- failure injection: a lossy NIC drops frames, the sink counts --- *)

let test_nic_drop_injection () =
  let sys = System.create ~variant:System.M3v () in
  let net =
    Services.make_net sys ~drop_probability:0.5 ~host:M3v_os.Nic.Sink ()
  in
  let cb = ref None in
  let aid, env =
    System.spawn sys ~tile:2 ~name:"sender" (fun _ ->
        let udp = M3v_os.Net_client.to_udp (Option.get !cb) in
        let* sock = udp.M3v_os.Net_client.u_socket () in
        Proc.repeat 60 (fun _ ->
            udp.M3v_os.Net_client.u_sendto sock (1, 9000) (Bytes.make 100 'x')))
  in
  cb := Some (net.Services.net_connect aid env);
  System.boot sys;
  ignore (System.run sys);
  let s = M3v_os.Nic.stats net.Services.nic in
  check_int "all frames left the driver" 60 s.M3v_os.Nic.tx;
  check_bool "some frames dropped on the wire" true (s.M3v_os.Nic.dropped > 5);
  check_bool "not all frames dropped" true (s.M3v_os.Nic.dropped < 55)

(* --- autonomous accelerators --- *)

let test_accel_chain () =
  let spec =
    [
      Platform.Ctrl M3v_tile.Core_model.rocket;
      Platform.Proc M3v_tile.Core_model.boom;
      Platform.Accel "double";
      Platform.Accel "inc";
      Platform.Mem (4 * 1024 * 1024);
    ]
  in
  let sys = System.create ~spec ~variant:System.M3v () in
  let ctrl = System.controller sys in
  let result = ref Bytes.empty in
  let sink_rgate = ref (-1) in
  let src_sgate = ref (-1) in
  let app, _ =
    System.spawn sys ~tile:1 ~name:"app" (fun _ ->
        let* () = A.send ~ep:!src_sgate ~size:4 (M3v_os.Accel.Data (Bytes.of_string "\001\002\003\004")) in
        let* _ep, msg = A.recv ~eps:[ !sink_rgate ] in
        (match msg.Msg.data with
        | M3v_os.Accel.Data d -> result := d
        | _ -> failwith "bad result");
        A.ack ~ep:!sink_rgate msg)
  in
  (* app -> double -> inc -> app *)
  let slot = 128 in
  let mk_accel_rgate tile =
    let ep = Controller.host_alloc_ep_anon ctrl ~tile in
    M3v_dtu.Dtu.ext_config (Platform.dtu (System.platform sys) tile) ~ep ~owner:0
      (M3v_dtu.Ep.recv_config ~slots:2 ~slot_size:slot ());
    ep
  in
  let r2 = mk_accel_rgate 2 and r3 = mk_accel_rgate 3 in
  let app_rgate_sel = Controller.host_new_rgate ctrl ~act:app ~slots:2 ~slot_size:slot in
  sink_rgate := Controller.host_activate ctrl ~act:app ~sel:app_rgate_sel ();
  let mk_sgate ~tile ~owner (dst_tile, dst_ep) =
    let ep =
      if owner = M3v_dtu.Dtu_types.invalid_act then
        Controller.host_alloc_ep_anon ctrl ~tile
      else Controller.host_alloc_ep ctrl ~tile ~act:owner
    in
    M3v_dtu.Dtu.ext_config (Platform.dtu (System.platform sys) tile) ~ep ~owner
      (M3v_dtu.Ep.send_config ~dst_tile ~dst_ep ~max_msg_size:(slot - 16) ~credits:2 ());
    ep
  in
  src_sgate := mk_sgate ~tile:1 ~owner:app (2, r2);
  let a1 =
    M3v_os.Accel.attach ~engine:(System.engine sys)
      ~dtu:(Platform.dtu (System.platform sys) 2)
      ~rgate:r2
      ~out_ep:(mk_sgate ~tile:2 ~owner:M3v_dtu.Dtu_types.invalid_act (3, r3))
      ~ns_per_byte:10
      ~transform:(Bytes.map (fun c -> Char.chr (2 * Char.code c)))
      ()
  in
  let _a2 =
    M3v_os.Accel.attach ~engine:(System.engine sys)
      ~dtu:(Platform.dtu (System.platform sys) 3)
      ~rgate:r3
      ~out_ep:(mk_sgate ~tile:3 ~owner:M3v_dtu.Dtu_types.invalid_act (1, !sink_rgate))
      ~ns_per_byte:10
      ~transform:(Bytes.map (fun c -> Char.chr (Char.code c + 1)))
      ()
  in
  System.boot sys;
  ignore (System.run sys);
  Alcotest.(check string) "pipeline computed 2x+1" "\003\005\007\009"
    (Bytes.to_string !result);
  check_int "stage 1 processed one block" 1 (M3v_os.Accel.processed a1)

(* Source (tile 0) -> accelerator (tile 1) -> sink (tile 2) on bare DTUs.
   The source holds 8 credits to the stage, the stage 1 credit to the
   sink; the stage takes 300 ns per byte.  The source sends six one-byte
   blocks 100 ns apart. *)
let accel_line () =
  let eng = Engine.create () in
  let noc = M3v_noc.Noc.create eng (M3v_noc.Topology.star_mesh_2x2 ~tiles:3) in
  let dtus =
    Array.init 3 (fun tile -> M3v_dtu.Dtu.create ~virtualized:false ~tile eng noc)
  in
  Array.iter
    (fun d ->
      M3v_dtu.Dtu.connect d
        ~lookup_dtu:(fun i -> if i < 3 then Some dtus.(i) else None)
        ~lookup_mem:(fun _ -> None))
    dtus;
  let src = dtus.(0) and acc = dtus.(1) and sink = dtus.(2) in
  let recv_gate d =
    M3v_dtu.Dtu.ext_config d ~ep:1 ~owner:0
      (M3v_dtu.Ep.recv_config ~slots:8 ~slot_size:64 ())
  in
  recv_gate acc;
  recv_gate sink;
  M3v_dtu.Dtu.ext_config src ~ep:2 ~owner:0
    (M3v_dtu.Ep.send_config ~dst_tile:1 ~dst_ep:1 ~max_msg_size:32 ~credits:8 ());
  M3v_dtu.Dtu.ext_config acc ~ep:2 ~owner:0
    (M3v_dtu.Ep.send_config ~dst_tile:2 ~dst_ep:1 ~max_msg_size:32 ~credits:1 ());
  let _stage =
    M3v_os.Accel.attach ~engine:eng ~dtu:acc ~rgate:1 ~out_ep:2 ~ns_per_byte:300
      ~transform:Fun.id ()
  in
  for i = 0 to 5 do
    Engine.at eng ~time:(Time.ns (100 * i)) (fun () ->
        M3v_dtu.Dtu.send src ~ep:2 ~msg_size:1
          (M3v_os.Accel.Data (Bytes.make 1 (Char.chr i)))
          ~k:(fun _ -> ()))
  done;
  (eng, acc, sink)

(* A backpressured stage keeps its output in order.  The sink acks one
   message at 1 us and then every 7 us.  While a block waits for the
   credit, the stage must not take the next one: the blocks arrive in the
   order they were sent.  (A stage that went on to the next block while
   its retry waited delivered 0 2 1 3 5 4 here.) *)
let test_accel_backpressure_keeps_order () =
  let eng, _acc, sink = accel_line () in
  let got = ref [] in
  let rec drain () =
    (match M3v_dtu.Dtu.fetch sink ~ep:1 with
    | Ok (Some msg) ->
        (match msg.Msg.data with
        | M3v_os.Accel.Data b -> got := Char.code (Bytes.get b 0) :: !got
        | _ -> Alcotest.fail "unexpected payload");
        ignore (M3v_dtu.Dtu.ack sink ~ep:1 msg)
    | Ok None | Error _ -> ());
    if List.length !got < 6 then Engine.after eng ~delay:(Time.us 7) drain
  in
  Engine.at eng ~time:(Time.us 1) drain;
  ignore (Engine.run ~until:(Time.ms 1) eng);
  Alcotest.(check (list int)) "blocks arrive in order" [ 0; 1; 2; 3; 4; 5 ]
    (List.rev !got)

(* A retried output fails on the errors the first attempt fails on: the
   stage's output endpoint disappears while a block waits for credit, and
   the next retry fails loudly instead of retrying for ever. *)
let test_accel_retry_fails_on_permanent_error () =
  let eng, acc, _sink = accel_line () in
  Engine.at eng ~time:(Time.us 3) (fun () ->
      M3v_dtu.Dtu.ext_config acc ~ep:2 ~owner:M3v_dtu.Dtu_types.invalid_act
        M3v_dtu.Ep.Invalid);
  match Engine.run ~until:(Time.ms 1) eng with
  | _ -> Alcotest.fail "the stage kept retrying a send with no endpoint"
  | exception Failure msg ->
      Alcotest.(check string) "error" "Accel: forward failed: no such endpoint" msg

(* --- experiment harness smoke tests (tiny instances, shape asserts) --- *)

let test_fig9_shape_smoke () =
  let trace = M3v_apps.Trace.find_trace ~dirs:2 ~files_per_dir:6 () in
  let m3v1 =
    M3v.Exp_fig9.throughput ~variant:System.M3v ~trace ~tiles:1 ~runs:2 ~warmup:1 ()
  in
  let m3v2 =
    M3v.Exp_fig9.throughput ~variant:System.M3v ~trace ~tiles:2 ~runs:2 ~warmup:1 ()
  in
  let m3x1 =
    M3v.Exp_fig9.throughput ~variant:System.M3x ~trace ~tiles:1 ~runs:2 ~warmup:1 ()
  in
  check_bool "M3v beats M3x at one tile" true (m3v1 > 1.5 *. m3x1);
  check_bool "M3v scales with tiles" true (m3v2 > 1.7 *. m3v1)

let test_fig7_shape_smoke () =
  let r = M3v.Exp_fig7.run ~runs:1 ~warmup:0 ~file_size:(512 * 1024) () in
  let get label =
    (List.find (fun b -> b.M3v.Exp_common.label = label) r.M3v.Exp_fig7.bars)
      .M3v.Exp_common.mean
  in
  check_bool "reads faster than writes (Linux)" true (get "Linux read" > get "Linux write");
  check_bool "reads faster than writes (M3v)" true
    (get "M3v read (isolated)" > get "M3v write (isolated)");
  check_bool "M3v read beats Linux read" true (get "M3v read (shared)" > get "Linux read")

(* Fewer than four rounds still give the gem5 reference RPCs one timed
   call each. *)
let test_fig6_few_rounds () =
  let r = M3v.Exp_fig6.run ~rounds:3 () in
  check_int "four bars" 4 (List.length r.M3v.Exp_fig6.bars);
  List.iter
    (fun b ->
      check_bool (b.M3v.Exp_common.label ^ " is positive") true
        (b.M3v.Exp_common.mean > 0.0))
    r.M3v.Exp_fig6.bars

let test_ablation_extent_smoke () =
  let r = M3v.Ablations.extent_size ~caps:[ 1; 64 ] () in
  match r.M3v.Ablations.rows with
  | [ small; big ] ->
      check_bool "bigger extents mean more throughput" true
        (big.M3v.Ablations.value > 2.0 *. small.M3v.Ablations.value)
  | _ -> Alcotest.fail "unexpected row count"

let test_table1_consistency_smoke () =
  let r = M3v.Exp_table1.run () in
  check_bool "virtualization overhead ~6%" true
    (r.M3v.Exp_table1.virtualization_overhead_percent > 5.0
    && r.M3v.Exp_table1.virtualization_overhead_percent < 7.5)

let suite =
  [
    ("revoke kills channel", `Quick, test_revoke_kills_channel);
    ("credit backpressure", `Quick, test_credit_backpressure);
    ("determinism", `Quick, test_determinism);
    ("nic drop injection", `Quick, test_nic_drop_injection);
    ("accelerator chain", `Quick, test_accel_chain);
    ("accelerator backpressure keeps order", `Quick, test_accel_backpressure_keeps_order);
    ( "accelerator retry fails on a permanent error",
      `Quick,
      test_accel_retry_fails_on_permanent_error );
    ("fig9 shape (smoke)", `Slow, test_fig9_shape_smoke);
    ("fig7 shape (smoke)", `Slow, test_fig7_shape_smoke);
    ("fig6 with 3 rounds", `Quick, test_fig6_few_rounds);
    ("ablation extent (smoke)", `Slow, test_ablation_extent_smoke);
    ("table1 consistency (smoke)", `Quick, test_table1_consistency_smoke);
  ]
