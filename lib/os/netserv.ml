open M3v_sim.Proc.Syntax
module Proc = M3v_sim.Proc
module A = M3v_mux.Act_api
module Msg = M3v_dtu.Msg
open Net_proto

type sock_state = {
  mutable port : int;
  rx_queue : packet Queue.t;
  mutable parked : (int * Msg.t) option;  (** a tagged Recvfrom waiting for data *)
}

type handle = {
  socks : (int, sock_state) Hashtbl.t;
  mutable next_sock : int;
  mutable h_received : int;
}

type stats = { received : int }

let make_handle () = { socks = Hashtbl.create 8; next_sock = 1; h_received = 0 }
let stats h = { received = h.h_received }

(* Calibration: an 80 MHz BOOM core spends on the order of 100 us per
   packet in a small embedded IP stack; these counts land there. *)
let stack_tx_cycles = 9_500
let stack_rx_cycles = 11_000
let driver_cycles = 1_800

let program h ~rgate ~nic_rgate ~nic () (_env : A.env) =
  let sock_of id = Hashtbl.find_opt h.socks id in
  let find_by_port port =
    Hashtbl.fold
      (fun _ s acc -> if s.port = port then Some s else acc)
      h.socks None
  in
  let reply_pkt msg tag (pkt : packet) =
    let rep = N_pkt { src = pkt.src; data = pkt.payload } in
    A.reply ~recv_ep:!rgate ~msg ~size:(rep_size rep) (Net_rep (tag, rep))
  in
  let handle_client (msg : Msg.t) tag req =
    let reply rep =
      A.reply ~recv_ep:!rgate ~msg ~size:(rep_size rep) (Net_rep (tag, rep))
    in
    match req with
    | Socket ->
        let id = h.next_sock in
        h.next_sock <- id + 1;
        Hashtbl.replace h.socks id
          { port = 40_000 + id; rx_queue = Queue.create (); parked = None };
        reply (N_sock id)
    | Bind { sock; port } -> (
        match sock_of sock with
        | None -> reply (N_err "bad socket")
        | Some s ->
            s.port <- port;
            reply N_ok)
    | Sendto { sock; dst; data } -> (
        match sock_of sock with
        | None -> reply (N_err "bad socket")
        | Some s ->
            (* Header construction, checksums, enqueue for DMA, doorbell. *)
            let* () = A.compute stack_tx_cycles in
            let* () = A.memcpy (Bytes.length data) in
            let* () = A.compute driver_cycles in
            (match !nic with
            | Some nic ->
                Nic.transmit nic
                  { src = (0, s.port); dst; payload = Bytes.copy data }
            | None -> ());
            reply N_ok)
    | Recvfrom { sock } -> (
        match sock_of sock with
        | None -> reply (N_err "bad socket")
        | Some s -> (
            match Queue.take_opt s.rx_queue with
            | Some pkt ->
                let* () = A.memcpy (Bytes.length pkt.payload) in
                reply_pkt msg tag pkt
            | None ->
                (* Park until the NIC delivers something for this port. *)
                s.parked <- Some (tag, msg);
                Proc.return ()))
    | Close_sock { sock } ->
        Hashtbl.remove h.socks sock;
        reply N_ok
  in
  let handle_rx (nic_msg : Msg.t) (pkt : packet) =
    h.h_received <- h.h_received + 1;
    (* Interrupt handling, demux, checksum verification. *)
    let* () = A.compute (driver_cycles + stack_rx_cycles) in
    let* () = A.ack ~ep:!nic_rgate nic_msg in
    match find_by_port (snd pkt.dst) with
    | None -> Proc.return () (* no listener: drop *)
    | Some s -> (
        match s.parked with
        | Some (tag, waiting) ->
            s.parked <- None;
            let* () = A.memcpy (Bytes.length pkt.payload) in
            reply_pkt waiting tag pkt
        | None ->
            Queue.add pkt s.rx_queue;
            Proc.return ())
  in
  (* Network-stack time counts as system time (paper, 6.5.2). *)
  let* () = A.acct "sys" in
  let rec serve () =
    let* ep, msg = A.recv ~eps:[ !nic_rgate; !rgate ] in
    let* () =
      if ep = !rgate then
        match msg.Msg.data with
        | Net (tag, req) -> handle_client msg tag req
        | _ -> A.ack ~ep:!rgate msg
      else
        match msg.Msg.data with
        | Nic_rx pkt -> handle_rx msg pkt
        | _ -> A.ack ~ep:!nic_rgate msg
    in
    serve ()
  in
  serve ()
