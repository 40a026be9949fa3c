(* Migration ablation: an echo server is live-migrated between tiles
   while a client drives a paced RPC stream at it, sweeping the message
   rate.  Each point reports the park-to-resume downtime and checks the
   protocol's delivery guarantee end to end: every request is answered
   exactly once (sequence numbers echoed and verified) even when the
   fault layer aborts migrations mid-protocol.  A blocking-call client
   over a lossless plan means any duplicate or lost message shows up as a
   sequence mismatch or a hung run — there is nothing to average away. *)

open M3v_sim.Proc.Syntax
module Proc = M3v_sim.Proc
module Time = M3v_sim.Time
module Engine = M3v_sim.Engine
module A = M3v_mux.Act_api
module Msg = M3v_dtu.Msg
module Fault = M3v_fault.Fault
module Controller = M3v_kernel.Controller
module Par = M3v_par.Par

type point = {
  rate : int;  (** target request rate, msgs/s *)
  migrations : int;  (** completed live migrations *)
  aborts : int;  (** attempts aborted before the flip *)
  downtime_us : float;  (** mean park-to-resume downtime per attempt *)
  replies : int;  (** in-order replies the client verified *)
  served : int;  (** requests the server handled *)
  mismatches : int;  (** out-of-sequence replies (duplicate/loss witness) *)
  completed : bool;  (** both sides ran to the end before the horizon *)
}

type result = {
  rounds : int;
  faulty : bool;  (** ran under a [mig_abort] fault plan *)
  points : point list;
}

type Msg.data += Mig_req of int | Mig_resp of int

let () =
  M3v_sim.Checkpoint.register_exts
    [ [%extension_constructor Mig_req]; [%extension_constructor Mig_resp] ]

let msg_size = 64
let horizon = Time.s 4
let max_attempts = 3
let retry_delay = Time.us 500

(* The server starts on [src] and is bounced [hops] times between [src]
   and [dst], spaced evenly through the client's expected run. *)
let src_tile = Exp_common.boom_tile_a
let dst_tile = Exp_common.boom_tile_b
let client_tile = Exp_common.boom_tile_c
let hops = 2

let one_point ~rate ~rounds () =
  let sys = System.create ~variant:System.M3v () in
  let ctrl = System.controller sys in
  let engine = System.engine sys in
  let rgate = ref (-1) in
  let chan = ref (-1, -1) in
  let served = ref 0 in
  let replies = ref 0 in
  let mismatches = ref 0 in
  let client_done = ref false in
  let server_done = ref false in
  let server, _ =
    System.spawn sys ~tile:src_tile ~name:"mig-echo" (fun _ ->
        let rec serve n =
          if n = rounds then begin
            server_done := true;
            Proc.return ()
          end
          else
            let* _ep, msg = A.recv ~eps:[ !rgate ] in
            let seq = match msg.Msg.data with Mig_req i -> i | _ -> -1 in
            let* () =
              A.reply ~recv_ep:!rgate ~msg ~size:msg_size (Mig_resp seq)
            in
            incr served;
            serve (n + 1)
        in
        serve 0)
  in
  (* Pace the stream with computed work between blocking calls; the knob
     is a target issue rate, the achieved rate is bounded by RPC latency
     (and by migration downtime — which is the point). *)
  let gap_cycles =
    let ps_per_msg = 1_000_000_000_000 / max 1 rate in
    max 1 (ps_per_msg / 12_500) (* BOOM: 80 MHz, 12.5 ns per cycle *)
  in
  let _client, _ =
    System.spawn sys ~tile:client_tile ~name:"mig-caller" (fun _ ->
        let rec go i =
          if i = rounds then begin
            client_done := true;
            Proc.return ()
          end
          else
            let* () = A.compute gap_cycles in
            let* resp =
              A.call ~sgate:(fst !chan) ~reply_ep:(snd !chan) ~size:msg_size
                (Mig_req i)
            in
            (match resp.Msg.data with
            | Mig_resp j when j = i -> incr replies
            | _ -> incr mismatches);
            go (i + 1)
        in
        go 0)
  in
  let ch = System.channel sys ~src:_client ~dst:server () in
  rgate := ch.System.rgate;
  chan := (ch.System.sgate, ch.System.reply_ep);
  (* Bounce the server between the two tiles at fixed fractions of the
     expected run; an aborted attempt (fault injection) is retried a
     bounded number of times, mirroring what an orchestrator would do. *)
  let expected_ps = rounds * (gap_cycles * 12_500 + 300_000) in
  List.iter
    (fun hop ->
      let at = Time.ps (expected_ps * (hop + 1) / (hops + 1)) in
      let dst = if hop mod 2 = 0 then dst_tile else src_tile in
      let rec attempt n () =
        Controller.migrate ctrl ~act:server ~dst_tile:dst ~k:(function
          | Ok () -> ()
          | Error _ when n + 1 < max_attempts ->
              Engine.after engine ~delay:retry_delay (attempt (n + 1))
          | Error _ -> ())
      in
      Engine.at engine ~time:at (attempt 0))
    (List.init hops Fun.id);
  System.boot sys;
  ignore (System.run ~until:horizon sys);
  let cstats = Controller.stats ctrl in
  let attempts = cstats.Controller.migrations + cstats.Controller.mig_aborts in
  let downtime_us =
    if attempts = 0 then 0.0
    else Time.to_us cstats.Controller.mig_downtime_ps /. float_of_int attempts
  in
  (* Standing migrate/* instruments, one category per sweep point.  They
     record inside this task's registry shard (points fan out over the
     pool), so --metrics output stays byte-identical across --jobs. *)
  if M3v_obs.Metrics.on () then begin
    let cat = Printf.sprintf "rate=%d" rate in
    let c name v = M3v_obs.Metrics.counter_add ~name ~cat (float_of_int v) in
    c "migrate/migrations" cstats.Controller.migrations;
    c "migrate/aborts" cstats.Controller.mig_aborts;
    c "migrate/replies" !replies;
    c "migrate/served" !served;
    c "migrate/mismatches" !mismatches;
    M3v_obs.Metrics.observe ~name:"migrate/downtime_us" ~cat downtime_us
  end;
  {
    rate;
    migrations = cstats.Controller.migrations;
    aborts = cstats.Controller.mig_aborts;
    downtime_us;
    replies = !replies;
    served = !served;
    mismatches = !mismatches;
    completed = !client_done && !server_done;
  }

(* mig_abort only: the delivery check must witness the migration
   machinery itself, not packet loss recovered by retransmission. *)
let faulty_spec = { Fault.none with Fault.mig_abort = 4 }

let default_rates = [ 2_000; 10_000; 40_000 ]

let run ?(pool = Par.Pool.sequential) ?(rounds = 300) ?(rates = default_rates)
    ?(seed = 11) () =
  (* Each point owns its system (and, when faulty, its domain-local fault
     plan), so points fan out as independent tasks and merge in
     submission order — byte-identical output across --jobs settings. *)
  List.map
    (fun faulty ->
      let points =
        Par.map pool
          (fun (i, rate) ->
            if faulty then
              let plan = Fault.create ~seed:(seed + i) faulty_spec in
              Fault.with_plan plan (fun () -> one_point ~rate ~rounds ())
            else one_point ~rate ~rounds ())
          (List.mapi (fun i r -> (i, r)) rates)
      in
      { rounds; faulty; points })
    [ false; true ]

let print r =
  Format.printf
    "@.== Live migration: downtime vs message rate (%d RPCs, %d hops%s) ==@."
    r.rounds hops
    (if r.faulty then ", mig_abort faults" else "");
  Format.printf "  %10s %6s %7s %13s %9s %8s %11s %6s@." "rate(/s)" "migs"
    "aborts" "downtime(us)" "replies" "served" "mismatches" "ok";
  List.iter
    (fun p ->
      Format.printf "  %10d %6d %7d %13.1f %9d %8d %11d %6s@." p.rate
        p.migrations p.aborts p.downtime_us p.replies p.served p.mismatches
        (if p.completed && p.mismatches = 0 && p.replies = r.rounds then "yes"
         else "NO"))
    r.points
