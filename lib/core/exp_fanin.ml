(* Fan-in ablation: N senders target one server, comparing a shared MPMC
   receive endpoint (one capability delegated to every sender, batched
   ack/credit refunds, coalesced doorbells) against the classic
   per-sender layout (one private receive gate and one ack round trip per
   message).  Per-sender endpoints burn an endpoint slot and a full ack
   command per message, which is exactly the scaling bottleneck the
   shared queue removes. *)

open M3v_sim.Proc.Syntax
module Proc = M3v_sim.Proc
module Time = M3v_sim.Time
module A = M3v_mux.Act_api
module Msg = M3v_dtu.Msg
module Controller = M3v_kernel.Controller
module Par = M3v_par.Par

type mode = Per_sender | Mpmc

type point = { senders : int; msgs_per_s : (mode * float) list }

type result = { msgs_per_sender : int; points : point list }

type Msg.data += Fan_ping

let () =
  M3v_sim.Checkpoint.register_exts [ [%extension_constructor Fan_ping] ]

let msg_size = 64
let slot_size = 128 (* payload + 16-byte header per slot *)
let sender_credits = 4
let ack_batch = 8
let server_tile = 7
let sender_tiles = [| 1; 2; 3; 4; 5; 6 |]

(* One run: [senders] activities spread over the sender tiles each push
   [msgs] messages; the server drains and acks them all.  Throughput is
   messages over the server's busy interval. *)
let throughput ~mode ~senders ~msgs () =
  let sys = System.create ~variant:System.M3v () in
  let ctrl = System.controller sys in
  let total = senders * msgs in
  let elapsed = ref Time.zero in
  let recv_eps = ref [] in
  let server, _ =
    System.spawn sys ~tile:server_tile ~name:"server" (fun _ ->
        let* t0 = A.now in
        let rec loop n =
          if n = 0 then Proc.return ()
          else
            let* ep, msg = A.recv ~eps:!recv_eps in
            let* () = A.ack ~ep msg in
            loop (n - 1)
        in
        let* () = loop total in
        let* t1 = A.now in
        elapsed := Time.sub t1 t0;
        Proc.return ())
  in
  let sgates = Array.make senders (-1) in
  let sender_aids =
    Array.init senders (fun i ->
        let tile = sender_tiles.(i mod Array.length sender_tiles) in
        let aid, _ =
          System.spawn sys ~tile ~name:(Printf.sprintf "sender%d" i) (fun _ ->
              Proc.repeat msgs (fun _ ->
                  A.send ~ep:sgates.(i) ~size:msg_size Fan_ping))
        in
        aid)
  in
  let new_rgate () =
    let rsel =
      match mode with
      | Mpmc ->
          (* The ring is provisioned for the worst case (all credits in
             flight) so delivery never finds it full — the Virtual-Link
             credit-provisioning invariant. *)
          Controller.host_new_mpmc_rgate ctrl ~act:server
            ~slots:(sender_credits * senders)
            ~slot_size ~ack_batch ()
      | Per_sender ->
          Controller.host_new_rgate ctrl ~act:server ~slots:sender_credits
            ~slot_size
    in
    let rep = Controller.host_activate ctrl ~act:server ~sel:rsel () in
    recv_eps := !recv_eps @ [ rep ];
    rsel
  in
  (* Mpmc: one shared receive gate, made at the first sender; every
     sender gets a send gate delegated against that capability.
     Per_sender: the classic layout, a private receive gate per sender. *)
  let shared = lazy (new_rgate ()) in
  Array.iteri
    (fun i aid ->
      let rgate_sel =
        match mode with Mpmc -> Lazy.force shared | Per_sender -> new_rgate ()
      in
      let ssel =
        Controller.host_new_sgate ctrl ~owner:aid ~rgate_of:server ~rgate_sel
          ~label:i ~credits:sender_credits ()
      in
      sgates.(i) <- Controller.host_activate ctrl ~act:aid ~sel:ssel ())
    sender_aids;
  System.boot sys;
  ignore (System.run sys);
  if Time.to_s !elapsed <= 0.0 then 0.0
  else float_of_int total /. Time.to_s !elapsed

let run ?(pool = Par.Pool.sequential) ?(msgs = 50)
    ?(sender_counts = [ 4; 16; 64 ]) () =
  (* One task per (N, mode) point; every [throughput] call builds its own
     System, so the points are independent. *)
  {
    msgs_per_sender = msgs;
    points =
      Exp_common.grid pool
        (fun senders mode -> (mode, throughput ~mode ~senders ~msgs ()))
        sender_counts [ Per_sender; Mpmc ]
      |> List.map (fun (senders, msgs_per_s) -> { senders; msgs_per_s });
  }

let print r =
  Format.printf
    "@.== Fan-in ablation: N senders -> 1 server (%d msgs/sender, %dB) ==@."
    r.msgs_per_sender msg_size;
  Format.printf "  %8s %18s %18s %10s@." "senders" "per-sender (msg/s)"
    "MPMC (msg/s)" "speedup";
  List.iter
    (fun p ->
      let per_sender = List.assoc Per_sender p.msgs_per_s in
      let mpmc = List.assoc Mpmc p.msgs_per_s in
      let speedup = if per_sender > 0.0 then mpmc /. per_sender else 0.0 in
      Format.printf "  %8d %18.0f %18.0f %9.2fx@." p.senders per_sender mpmc
        speedup)
    r.points
