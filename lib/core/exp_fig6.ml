open M3v_sim.Proc.Syntax
module Proc = M3v_sim.Proc
module Time = M3v_sim.Time
module Stats = M3v_sim.Stats
module A = M3v_mux.Act_api
module Msg = M3v_dtu.Msg
module Lx = M3v_linux.Lx_api
module Linux_sim = M3v_linux.Linux_sim
module Par = M3v_par.Par

type result = {
  bars : Exp_common.bar list;
  kcycles : (string * float) list;
  m3x_local_kcycles_3ghz : float;
  m3v_local_kcycles_3ghz : float;
}

type Msg.data += Noop_req | Noop_resp

let () =
  M3v_sim.Checkpoint.register_exts
    [ [%extension_constructor Noop_req]; [%extension_constructor Noop_resp] ]

(* Average time of one no-op RPC between a client and a server activity,
   over the [rounds - warmup] calls after [warmup] untimed ones. *)
let rpc_duration ?topology ~variant ~spec ~client_tile ~server_tile ~rounds
    ~warmup () =
  let sys = System.create ~spec ?topology ~variant () in
  let rgate = ref (-1) in
  let chan = ref (-1, -1) in
  let total = ref Time.zero in
  let server, _ =
    System.spawn sys ~tile:server_tile ~name:"echo" (fun _ ->
        let rec serve n =
          if n = 0 then Proc.return ()
          else
            let* _ep, msg = A.recv ~eps:[ !rgate ] in
            let* () = A.reply ~recv_ep:!rgate ~msg ~size:8 Noop_resp in
            serve (n - 1)
        in
        serve rounds)
  in
  let call _ =
    let* _ = A.call ~sgate:(fst !chan) ~reply_ep:(snd !chan) ~size:8 Noop_req in
    Proc.return ()
  in
  let client, _ =
    System.spawn sys ~tile:client_tile ~name:"caller" (fun _ ->
        let* () = Proc.repeat warmup call in
        let* t0 = A.now in
        let* () = Proc.repeat (rounds - warmup) call in
        let* t1 = A.now in
        total := Time.sub t1 t0;
        Proc.return ())
  in
  let ch = System.channel sys ~src:client ~dst:server () in
  rgate := ch.System.rgate;
  chan := (ch.System.sgate, ch.System.reply_ep);
  System.boot sys;
  ignore (System.run sys);
  !total / (rounds - warmup)

(* Average time of one Linux primitive [op] over [rounds] timed calls
   after [rounds / 10] untimed ones.  A [partner] process runs beside the
   timed one: with two processes yielding back and forth, each timed
   yield covers one yield pair (two context switches). *)
let linux_duration ?partner ~rounds op =
  let engine = M3v_sim.Engine.create () in
  let lx = Linux_sim.create engine () in
  let total = ref Time.zero in
  let _ =
    Linux_sim.spawn lx ~name:"timed" begin
      let* () = Proc.repeat (rounds / 10) (fun _ -> op) in
      let* t0 = A.now in
      let* () = Proc.repeat rounds (fun _ -> op) in
      let* t1 = A.now in
      total := Time.sub t1 t0;
      Proc.return ()
    end
  in
  Option.iter (fun p -> ignore (Linux_sim.spawn lx ~name:"partner" p)) partner;
  Linux_sim.boot lx;
  ignore (M3v_sim.Engine.run engine);
  !total / rounds

let boom_kcycles t =
  Time.to_us t *. 80.0 /. 1000.0 (* 80 cycles per us at 80 MHz *)

let x86_kcycles t = Time.to_us t *. 3000.0 /. 1000.0

let run ?(pool = Par.Pool.sequential) ?(rounds = 1000) () =
  (* Warm up before timing, as the paper does. *)
  let warmup = rounds / 10 in
  let fpga = M3v_tile.Platform.fpga_spec () in
  let gem5 = M3v_tile.Platform.gem5_spec ~user_tiles:2 () in
  (* Each measurement owns its engine/system, so the six of them fan out
     as independent tasks; awaiting in submission order keeps the result
     identical to a sequential run. *)
  let f_m3v_remote =
    Par.submit pool (fun () ->
        rpc_duration ~variant:System.M3v ~spec:fpga
          ~client_tile:Exp_common.boom_tile_b
          ~server_tile:Exp_common.boom_tile_c ~rounds ~warmup ())
  in
  let f_m3v_local =
    Par.submit pool (fun () ->
        rpc_duration ~variant:System.M3v ~spec:fpga
          ~client_tile:Exp_common.boom_tile_b
          ~server_tile:Exp_common.boom_tile_b ~rounds ~warmup ())
  in
  let f_lx_syscall =
    Par.submit pool (fun () -> linux_duration ~rounds Lx.noop_syscall)
  in
  let f_lx_yield2 =
    Par.submit pool (fun () ->
        linux_duration ~rounds Lx.yield
          ~partner:(Proc.repeat (rounds + (rounds / 10) + 4) (fun _ -> Lx.yield)))
  in
  (* gem5 3 GHz reference points (paper: M3x ~27k cycles, M3v ~5k), at
     least one call each. *)
  let gem5_rounds = max 1 (rounds / 4) in
  let f_m3x_local_3ghz =
    Par.submit pool (fun () ->
        rpc_duration ~variant:System.M3x ~spec:gem5 ~client_tile:1
          ~server_tile:1 ~rounds:gem5_rounds ~warmup:(gem5_rounds / 10) ())
  in
  let f_m3v_local_3ghz =
    Par.submit pool (fun () ->
        rpc_duration ~variant:System.M3v ~spec:gem5 ~client_tile:1
          ~server_tile:1 ~rounds:gem5_rounds ~warmup:(gem5_rounds / 10) ())
  in
  let m3v_remote = Par.await f_m3v_remote in
  let m3v_local = Par.await f_m3v_local in
  let lx_syscall = Par.await f_lx_syscall in
  let lx_yield2 = Par.await f_lx_yield2 in
  let m3x_local_3ghz = Par.await f_m3x_local_3ghz in
  let m3v_local_3ghz = Par.await f_m3v_local_3ghz in
  let entries =
    [
      ("Linux yield (2x)", lx_yield2);
      ("Linux syscall", lx_syscall);
      ("M3v local", m3v_local);
      ("M3v remote", m3v_remote);
    ]
  in
  {
    bars =
      List.map
        (fun (label, t) -> { Exp_common.label; mean = Time.to_us t; stddev = 0.0 })
        entries;
    kcycles = List.map (fun (label, t) -> (label, boom_kcycles t)) entries;
    m3x_local_kcycles_3ghz = x86_kcycles m3x_local_3ghz;
    m3v_local_kcycles_3ghz = x86_kcycles m3v_local_3ghz;
  }

let print r =
  Exp_common.print_bars ~title:"Figure 6: local/remote communication (BOOM, 80 MHz)"
    ~unit_label:"us" r.bars;
  Exp_common.print_kv ~title:"Figure 6 (right axis): kilo-cycles"
    (List.map (fun (l, v) -> (l, Printf.sprintf "%.2f kcycles" v)) r.kcycles);
  Exp_common.print_kv ~title:"Section 6.2 reference: tile-local RPC at 3 GHz (gem5 config)"
    [
      ("M3x (paper: ~27 kcycles)", Printf.sprintf "%.1f kcycles" r.m3x_local_kcycles_3ghz);
      ("M3v (paper: ~5 kcycles)", Printf.sprintf "%.1f kcycles" r.m3v_local_kcycles_3ghz);
    ]
