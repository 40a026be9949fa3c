(* Protocol-level property tests: credit conservation on the DTU under
   random operation interleavings, address-space invariants, and the net
   service's demultiplexing. *)

open M3v_sim
open M3v_sim.Proc.Syntax
module Dtu = M3v_dtu.Dtu
module Ep = M3v_dtu.Ep
module Msg = M3v_dtu.Msg
module A = M3v_mux.Act_api
module System = M3v.System
module Services = M3v.Services

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

type Msg.data += P of int

(* --- credit conservation ---

   Invariant: at quiescence (no packets in flight), the sender's available
   credits plus the receiver's unacknowledged (occupied) slots equals the
   configured credit count.  We drive random interleavings of send, fetch
   and ack and check the invariant whenever the NoC is drained. *)

let prop_credit_conservation =
  QCheck.Test.make ~name:"credits + occupied slots are conserved" ~count:40
    QCheck.(pair small_int (list_of_size (Gen.int_range 1 60) (int_bound 2)))
    (fun (seed, script) ->
      ignore seed;
      let eng = Engine.create () in
      let topo = M3v_noc.Topology.star_mesh_2x2 ~tiles:2 in
      let noc = M3v_noc.Noc.create eng topo in
      let d0 = Dtu.create ~virtualized:true ~tile:0 eng noc in
      let d1 = Dtu.create ~virtualized:true ~tile:1 eng noc in
      let lookup_dtu = function 0 -> Some d0 | 1 -> Some d1 | _ -> None in
      let lookup_mem = fun _ -> None in
      Dtu.connect d0 ~lookup_dtu ~lookup_mem;
      Dtu.connect d1 ~lookup_dtu ~lookup_mem;
      let credits = 3 in
      Dtu.ext_config d1 ~ep:1 ~owner:7
        (Ep.recv_config ~slots:credits ~slot_size:128 ());
      Dtu.ext_config d0 ~ep:1 ~owner:5
        (Ep.send_config ~dst_tile:1 ~dst_ep:1 ~max_msg_size:64 ~credits ());
      ignore (Dtu.switch_act d0 ~next:5);
      ignore (Dtu.switch_act d1 ~next:7);
      let fetched = Queue.create () in
      let ok = ref true in
      List.iter
        (fun op ->
          (match op with
          | 0 -> Dtu.send d0 ~ep:1 ~msg_size:16 (P 0) ~k:(fun _ -> ())
          | 1 -> (
              match Dtu.fetch d1 ~ep:1 with
              | Ok (Some msg) -> Queue.add msg fetched
              | Ok None | Error _ -> ())
          | _ -> (
              match Queue.take_opt fetched with
              | Some msg -> ignore (Dtu.ack d1 ~ep:1 msg)
              | None -> ()));
          (* Drain in-flight packets, then check conservation. *)
          ignore (Engine.run eng);
          let avail =
            match (Dtu.ext_read_ep d0 ~ep:1).Ep.cfg with
            | Ep.Send s -> s.Ep.credits
            | _ -> -1
          in
          let occupied =
            match (Dtu.ext_read_ep d1 ~ep:1).Ep.cfg with
            | Ep.Recv r -> r.Ep.occupied
            | _ -> -1
          in
          if avail + occupied <> credits then ok := false)
        script;
      !ok)

(* --- address space invariants --- *)

let prop_addrspace_regions_disjoint =
  QCheck.Test.make ~name:"allocated regions never overlap" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 20) (int_range 1 50_000))
    (fun sizes ->
      let asp = M3v_mux.Addrspace.create () in
      let regions =
        List.map (fun size -> (M3v_mux.Addrspace.alloc_region asp ~size, size)) sizes
      in
      let sorted = List.sort compare regions in
      let rec disjoint = function
        | (a, sa) :: ((b, _) :: _ as rest) -> a + sa <= b && disjoint rest
        | _ -> true
      in
      let aligned = List.for_all (fun (a, _) -> a mod 4096 = 0) regions in
      disjoint sorted && aligned)

(* --- net service demux --- *)

let test_net_two_sockets_demux () =
  let sys = System.create ~variant:System.M3v () in
  let net =
    Services.make_net sys
      ~host:(M3v_os.Nic.Echo { turnaround = Time.us 10 })
      ()
  in
  let got_a = ref "" and got_b = ref "" in
  let cb = ref None in
  let aid, env =
    System.spawn sys ~tile:2 ~name:"two-socks" (fun _ ->
        let udp = M3v_os.Net_client.to_udp (Option.get !cb) in
        let* sa = udp.M3v_os.Net_client.u_socket () in
        let* sb = udp.M3v_os.Net_client.u_socket () in
        let* () = udp.M3v_os.Net_client.u_bind sa 5001 in
        let* () = udp.M3v_os.Net_client.u_bind sb 5002 in
        (* The echo peer swaps src/dst, so each reply returns to the
           socket that sent it. *)
        let* () = udp.M3v_os.Net_client.u_sendto sa (1, 7000) (Bytes.of_string "for-a") in
        let* () = udp.M3v_os.Net_client.u_sendto sb (1, 7000) (Bytes.of_string "for-b") in
        let* _, da = udp.M3v_os.Net_client.u_recvfrom sa in
        let* _, db = udp.M3v_os.Net_client.u_recvfrom sb in
        got_a := Bytes.to_string da;
        got_b := Bytes.to_string db;
        Proc.return ())
  in
  cb := Some (net.Services.net_connect aid env);
  System.boot sys;
  ignore (System.run sys);
  Alcotest.(check string) "socket A got its echo" "for-a" !got_a;
  Alcotest.(check string) "socket B got its echo" "for-b" !got_b

let test_net_unknown_port_dropped () =
  let sys = System.create ~variant:System.M3v () in
  let net = Services.make_net sys ~host:M3v_os.Nic.Sink () in
  let received = ref (-1) in
  let cb = ref None in
  let aid, env =
    System.spawn sys ~tile:2 ~name:"listener" (fun _ ->
        let udp = M3v_os.Net_client.to_udp (Option.get !cb) in
        let* s = udp.M3v_os.Net_client.u_socket () in
        let* () = udp.M3v_os.Net_client.u_bind s 5005 in
        (* Nothing ever arrives for us; the program ends without a recv. *)
        received := 0;
        Proc.return ())
  in
  cb := Some (net.Services.net_connect aid env);
  (* The peer sends to a port nobody listens on. *)
  M3v_os.Nic.host_send net.Services.nic
    { M3v_os.Net_proto.src = (1, 7000); dst = (0, 9999);
      payload = Bytes.of_string "stray" };
  System.boot sys;
  ignore (System.run sys);
  check_int "listener unaffected" 0 !received;
  let s = M3v_os.Netserv.stats net.Services.net_handle in
  check_int "stray frame was processed by the stack" 1
    s.M3v_os.Netserv.received

let test_net_rx_queue_buffers_early_packets () =
  (* A packet arriving before recvfrom must be queued, not lost. *)
  let sys = System.create ~variant:System.M3v () in
  let net = Services.make_net sys ~host:M3v_os.Nic.Sink () in
  let got = ref "" in
  let cb = ref None in
  let aid, env =
    System.spawn sys ~tile:2 ~name:"late-reader" (fun _ ->
        let udp = M3v_os.Net_client.to_udp (Option.get !cb) in
        let* s = udp.M3v_os.Net_client.u_socket () in
        let* () = udp.M3v_os.Net_client.u_bind s 5006 in
        (* Busy ourselves while the packet lands. *)
        let* () = A.compute 2_000_000 in
        let* _, data = udp.M3v_os.Net_client.u_recvfrom s in
        got := Bytes.to_string data;
        Proc.return ())
  in
  cb := Some (net.Services.net_connect aid env);
  (* Fire once the socket is bound but long before the recvfrom. *)
  Engine.after (System.engine sys) ~delay:(Time.ms 2) (fun () ->
      M3v_os.Nic.host_send net.Services.nic
        { M3v_os.Net_proto.src = (1, 7000); dst = (0, 5006);
          payload = Bytes.of_string "early bird" });
  System.boot sys;
  ignore (System.run sys);
  Alcotest.(check string) "early packet buffered" "early bird" !got

(* --- unread accounting ---

   Invariant: at quiescence, the per-activity unread count maintained for
   the lost-wakeup check (paper, section 3.7) equals the number of
   delivered-but-not-fetched messages sitting in that activity's receive
   endpoints.  Two activities with one receive endpoint each share a
   receiver DTU; the script interleaves sends, activity switches and
   fetch+ack rounds. *)

let prop_unread_matches_pending =
  QCheck.Test.make ~name:"unread counts match pending queues" ~count:40
    QCheck.(list_of_size (Gen.int_range 1 60) (int_bound 4))
    (fun script ->
      let eng = Engine.create () in
      let topo = M3v_noc.Topology.star_mesh_2x2 ~tiles:2 in
      let noc = M3v_noc.Noc.create eng topo in
      let d0 = Dtu.create ~virtualized:true ~tile:0 eng noc in
      let d1 = Dtu.create ~virtualized:true ~tile:1 eng noc in
      let lookup_dtu = function 0 -> Some d0 | 1 -> Some d1 | _ -> None in
      let lookup_mem = fun _ -> None in
      Dtu.connect d0 ~lookup_dtu ~lookup_mem;
      Dtu.connect d1 ~lookup_dtu ~lookup_mem;
      (* Activity 7 owns d1's ep 1, activity 8 owns d1's ep 2. *)
      Dtu.ext_config d1 ~ep:1 ~owner:7 (Ep.recv_config ~slots:4 ~slot_size:128 ());
      Dtu.ext_config d1 ~ep:2 ~owner:8 (Ep.recv_config ~slots:4 ~slot_size:128 ());
      Dtu.ext_config d0 ~ep:1 ~owner:5
        (Ep.send_config ~dst_tile:1 ~dst_ep:1 ~max_msg_size:64 ~credits:4 ());
      Dtu.ext_config d0 ~ep:2 ~owner:5
        (Ep.send_config ~dst_tile:1 ~dst_ep:2 ~max_msg_size:64 ~credits:4 ());
      ignore (Dtu.switch_act d0 ~next:5);
      ignore (Dtu.switch_act d1 ~next:7);
      let pending_of ep =
        match (Dtu.ext_read_ep d1 ~ep).Ep.cfg with
        | Ep.Recv r -> Queue.length r.Ep.pending
        | _ -> -1
      in
      let fetch_ack ep =
        match Dtu.fetch d1 ~ep with
        | Ok (Some msg) -> ignore (Dtu.ack d1 ~ep msg)
        | Ok None | Error _ -> ()
      in
      let ok = ref true in
      List.iter
        (fun op ->
          (match op with
          | 0 -> Dtu.send d0 ~ep:1 ~msg_size:16 (P 0) ~k:(fun _ -> ())
          | 1 -> Dtu.send d0 ~ep:2 ~msg_size:16 (P 1) ~k:(fun _ -> ())
          | 2 -> ignore (Dtu.switch_act d1 ~next:7)
          | 3 -> ignore (Dtu.switch_act d1 ~next:8)
          | _ ->
              (* Only the current activity's fetches succeed; foreign ones
                 fail and are ignored. *)
              fetch_ack 1;
              fetch_ack 2);
          ignore (Engine.run eng);
          ok :=
            !ok
            && Dtu.unread_of d1 7 = pending_of 1
            && Dtu.unread_of d1 8 = pending_of 2)
        script;
      !ok)

(* --- delivery under random schedules ---

   Two to four activities on up to [tiles] gem5 tiles.  Each sends its
   messages to random peers, with computes and yields in between (and, on
   M3v, sleeps), then receives exactly the messages addressed to it.  Under
   M3x a send to a peer that is switched out takes the controller's slow
   path and waits for the peer's next switch-in; under M3v a short
   timeslice preempts the computes, and a sleeper's timer must take the
   core from a peer that polls.  Every activity must finish, every message
   must arrive exactly once, and no receive endpoint may hold a message
   afterwards.  On every tile, TileMux must have handled each core request
   its vDTU raised exactly once.

   Each channel has [slots] slots and as many credits.  With 8, no send
   waits for a receiver.  With 2, a sender may forward more messages than
   the gate holds (a forward spends no credit): the rest must wait for
   room.  That instance runs on one M3x tile, where every send is a
   forward.  On two tiles the programs, which send everything before they
   receive, would deadlock by construction once two activities each owe
   the other more messages than they hold credits. *)

type mx_step = Send of int | Work of int | Yield | Sleep of int

type Msg.data += Mx_msg of int * int  (* sender index, sequence number *)

let gen_mx_system ~sleep ~tiles =
  let open QCheck2.Gen in
  let* tiles = int_range 1 tiles in
  let* n = int_range 2 4 in
  let* placement = list_repeat n (int_range 1 tiles) in
  let pause =
    oneof
      ([ map (fun c -> Work c) (int_range 1 3_000); return Yield ]
      @ if sleep then [ map (fun ns -> Sleep ns) (int_range 1 3_000) ] else [])
  in
  (* [Send p] goes to the p-th activity other than the sender. *)
  let step =
    frequency [ (3, map (fun p -> Send p) (int_bound (n - 2))); (2, pause) ]
  in
  let* sends = list_repeat n (list_size (int_bound 8) step) in
  let* pauses = list_repeat n (list_size (int_bound 3) pause) in
  return (placement, sends, pauses)

let print_mx_system (placement, sends, pauses) =
  let step = function
    | Send p -> Printf.sprintf "send %d" p
    | Work c -> Printf.sprintf "work %d" c
    | Yield -> "yield"
    | Sleep ns -> Printf.sprintf "sleep %d ns" ns
  in
  let steps l = "[" ^ String.concat "; " (List.map step l) ^ "]" in
  String.concat "\n"
    (List.mapi
       (fun i tile ->
         Printf.sprintf "act %d on tile %d: sends %s, pauses %s" i tile
           (steps (List.nth sends i)) (steps (List.nth pauses i)))
       placement)

let delivery_exact ~variant ?timeslice ~slots (placement, sends, pauses) =
  let n = List.length placement in
  let spec = M3v_tile.Platform.gem5_spec ~user_tiles:2 () in
  let sys = System.create ~spec ?timeslice ~variant () in
  let sends = Array.of_list sends and pauses = Array.of_list pauses in
  let peer i p = if p >= i then p + 1 else p in
  (* sgate.(i).(j): i's send endpoint to j; rgates.(j): j's receive
     endpoints, one per sender. *)
  let sgate = Array.make_matrix n n (-1) in
  let rgates = Array.make n [] in
  (* expected.(j): (sender, sequence number) of every message to j *)
  let expected = Array.make n [] in
  Array.iteri
    (fun i steps ->
      let seq = Array.make n 0 in
      List.iter
        (function
          | Send p ->
              let j = peer i p in
              expected.(j) <- (i, seq.(j)) :: expected.(j);
              seq.(j) <- seq.(j) + 1
          | Work _ | Yield | Sleep _ -> ())
        steps)
    sends;
  let received = Array.make n [] in
  let pause = function
    | Work c -> A.compute c
    | Yield -> A.yield
    | Sleep ns -> A.sleep (Time.ns ns)
    | Send _ -> Proc.return ()
  in
  let program i _env =
    let seq = Array.make n 0 in
    let* () =
      Proc.iter_list
        (function
          | Send p ->
              let j = peer i p in
              let data = Mx_msg (i, seq.(j)) in
              seq.(j) <- seq.(j) + 1;
              A.send ~ep:sgate.(i).(j) ~size:16 data
          | (Work _ | Yield | Sleep _) as s -> pause s)
        sends.(i)
    in
    let waits = Array.of_list pauses.(i) in
    Proc.repeat (List.length expected.(i)) (fun k ->
        let* () =
          if Array.length waits = 0 then Proc.return ()
          else pause waits.(k mod Array.length waits)
        in
        let* ep, msg = A.recv ~eps:rgates.(i) in
        (match msg.Msg.data with
        | Mx_msg (src, s) -> received.(i) <- (src, s) :: received.(i)
        | _ -> received.(i) <- (-1, -1) :: received.(i));
        A.ack ~ep msg)
  in
  let acts =
    List.mapi
      (fun i tile ->
        fst
          (System.spawn sys ~tile ~name:(Printf.sprintf "act%d" i)
             (program i)))
      placement
    |> Array.of_list
  in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let ch =
          System.channel sys ~src:acts.(i) ~dst:acts.(j) ~slots
            ~credits:slots ()
        in
        sgate.(i).(j) <- ch.System.sgate;
        rgates.(j) <- ch.System.rgate :: rgates.(j)
      end
    done
  done;
  System.boot sys;
  ignore (System.run ~until:(Time.s 1) sys);
  let finished =
    List.for_all2
      (fun aid tile ->
        M3v_mux.Runtime.finished (System.runtime sys ~tile) aid)
      (Array.to_list acts) placement
  in
  (* An activity exits switched in, so its records are back in place. *)
  let drained j =
    let tile = List.nth placement j in
    let dtu = M3v_tile.Platform.dtu (System.platform sys) tile in
    List.for_all
      (fun ep ->
        match (Dtu.ext_read_ep dtu ~ep).Ep.cfg with
        | Ep.Recv r -> Queue.is_empty r.Ep.pending
        | Ep.Invalid | Ep.Send _ | Ep.Mem _ -> false)
      rgates.(j)
  in
  let core_reqs_once tile =
    let handled =
      Stats.Counter.get
        (M3v_mux.Runtime.counters (System.runtime sys ~tile))
        "core_req"
    in
    let dtu = M3v_tile.Platform.dtu (System.platform sys) tile in
    int_of_float handled = (Dtu.stats dtu).Dtu.core_reqs
  in
  finished
  && Array.for_all2
       (fun got want -> List.sort compare got = List.sort compare want)
       received expected
  && List.for_all drained (List.init n Fun.id)
  && List.for_all core_reqs_once (List.sort_uniq compare placement)

let prop_delivery_exact ~name ~variant ?timeslice ?(tiles = 2) ?(slots = 8)
    () =
  QCheck2.Test.make ~name ~count:500 ~print:print_mx_system
    (gen_mx_system ~sleep:(variant = System.M3v) ~tiles)
    (delivery_exact ~variant ?timeslice ~slots)

let prop_m3x_delivery_exact =
  prop_delivery_exact ~name:"m3x schedules deliver every message once"
    ~variant:System.M3x ()

let prop_m3v_delivery_exact =
  prop_delivery_exact ~name:"m3v schedules deliver every message once"
    ~variant:System.M3v ()

let prop_m3v_preempted_delivery_exact =
  prop_delivery_exact ~name:"m3v 300 ns slices deliver every message once"
    ~variant:System.M3v ~timeslice:(Time.ns 300) ()

let prop_m3x_small_gates_delivery_exact =
  prop_delivery_exact
    ~name:"m3x 2-slot gates on one tile deliver every message once"
    ~variant:System.M3x ~tiles:1 ~slots:2 ()

(* A schedule QCheck shrank a failure to.  On an idle core, the vDTU
   re-raised the core-request interrupt 5 ns after TileMux acked a
   request, while TileMux's loop still charged for the next one; the
   interrupt started a second loop, which handled that request again. *)
let test_core_reqs_handled_once () =
  check_bool "every message delivered once, every core request handled once"
    true
    (delivery_exact ~variant:System.M3v ~slots:8
       ( [ 1; 2; 1; 2 ],
         [
           [ Send 0; Send 1; Yield ];
           [ Send 0 ];
           [];
           [ Work 157; Send 0; Send 0; Send 1 ];
         ],
         [ []; [ Work 19 ]; []; [] ] ))

(* The shrunk schedule of the 2-slot property: four forwards to a peer on
   the same tile, whose gate holds two.  The two that did not fit at the
   switch-in were lost, and the peer waited for ever. *)
let test_m3x_forwards_wait_for_room () =
  check_bool "all four messages delivered once" true
    (delivery_exact ~variant:System.M3x ~slots:2
       ([ 1; 1 ], [ [ Send 0; Send 0; Send 0; Send 0 ]; [] ], [ []; [] ]))

let suite =
  [
    ("net two sockets demux", `Quick, test_net_two_sockets_demux);
    ("net unknown port dropped", `Quick, test_net_unknown_port_dropped);
    ("net early packet buffered", `Quick, test_net_rx_queue_buffers_early_packets);
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_credit_conservation;
        prop_addrspace_regions_disjoint;
        prop_unread_matches_pending;
        prop_m3x_delivery_exact;
        prop_m3v_delivery_exact;
        prop_m3v_preempted_delivery_exact;
        prop_m3x_small_gates_delivery_exact;
      ]
  @ [
      ("m3v core requests handled once", `Quick, test_core_reqs_handled_once);
      ("m3x forwards wait for room", `Quick, test_m3x_forwards_wait_for_room);
    ]
