open M3v_sim
open M3v_dtu

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

type Msg.data += Ping of int

(* A two-processing-tile + one-memory-tile fabric without the platform
   layer, to exercise the DTU in isolation. *)
type fabric = {
  eng : Engine.t;
  noc : M3v_noc.Noc.t;
  d0 : Dtu.t;
  d1 : Dtu.t;
  dram : Dram.t;
}

let make_fabric ?(virtualized = true) () =
  let eng = Engine.create () in
  let topo = M3v_noc.Topology.star_mesh_2x2 ~tiles:3 in
  let noc = M3v_noc.Noc.create eng topo in
  let d0 = Dtu.create ~virtualized ~tile:0 eng noc in
  let d1 = Dtu.create ~virtualized ~tile:1 eng noc in
  let dram = Dram.create ~size:(1 lsl 20) () in
  let lookup_dtu = function 0 -> Some d0 | 1 -> Some d1 | _ -> None in
  let lookup_mem = function 2 -> Some dram | _ -> None in
  Dtu.connect d0 ~lookup_dtu ~lookup_mem;
  Dtu.connect d1 ~lookup_dtu ~lookup_mem;
  { eng; noc; d0; d1; dram }

(* Standard channel: d0 ep1 (send, owned by act 0) -> d1 ep1 (recv, act 7). *)
let setup_channel ?(credits = 2) ?(slots = 4) f =
  Dtu.ext_config f.d1 ~ep:1 ~owner:7 (Ep.recv_config ~slots ~slot_size:256 ());
  Dtu.ext_config f.d0 ~ep:1 ~owner:0
    (Ep.send_config ~dst_tile:1 ~dst_ep:1 ~label:99 ~max_msg_size:240 ~credits ());
  ignore (Dtu.switch_act f.d0 ~next:0);
  ignore (Dtu.switch_act f.d1 ~next:7)

let send_ok f ?reply_ep ~size data =
  let result = ref None in
  Dtu.send f.d0 ~ep:1 ?reply_ep ~msg_size:size data ~k:(fun r -> result := Some r);
  ignore (Engine.run f.eng);
  Option.get !result

let test_send_recv () =
  let f = make_fabric () in
  setup_channel f;
  (match send_ok f ~size:16 (Ping 42) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send failed: %s" (Dtu_types.error_to_string e));
  check_int "unread at receiver" 1 (Dtu.unread_of f.d1 7);
  match Dtu.fetch f.d1 ~ep:1 with
  | Ok (Some msg) ->
      check_int "label copied from send ep" 99 msg.Msg.label;
      check_int "size" 16 msg.Msg.size;
      check_int "src tile" 0 msg.Msg.src_tile;
      (match msg.Msg.data with
      | Ping 42 -> ()
      | _ -> Alcotest.fail "payload mismatch");
      check_int "unread consumed" 0 (Dtu.unread_of f.d1 7)
  | _ -> Alcotest.fail "no message fetched"

let test_credits_exhaust_and_return () =
  let f = make_fabric () in
  setup_channel ~credits:2 f;
  (match send_ok f ~size:8 (Ping 1) with Ok () -> () | Error _ -> Alcotest.fail "send 1");
  (match send_ok f ~size:8 (Ping 2) with Ok () -> () | Error _ -> Alcotest.fail "send 2");
  (match send_ok f ~size:8 (Ping 3) with
  | Error Dtu_types.No_credits -> ()
  | _ -> Alcotest.fail "third send should exhaust credits");
  (* Fetch + ack one message: the credit returns and sending works again. *)
  (match Dtu.fetch f.d1 ~ep:1 with
  | Ok (Some msg) -> (
      match Dtu.ack f.d1 ~ep:1 msg with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "ack failed")
  | _ -> Alcotest.fail "fetch failed");
  ignore (Engine.run f.eng);
  match send_ok f ~size:8 (Ping 4) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send after credit return: %s" (Dtu_types.error_to_string e)

let test_recv_gone_restores_credit () =
  let f = make_fabric () in
  setup_channel ~credits:1 f;
  (* Invalidate the remote receive endpoint: send must fail with Recv_gone
     and the credit must come back (enables the M3x slow-path retry). *)
  Dtu.ext_config f.d1 ~ep:1 ~owner:Dtu_types.invalid_act Ep.Invalid;
  (match send_ok f ~size:8 (Ping 1) with
  | Error Dtu_types.Recv_gone -> ()
  | _ -> Alcotest.fail "expected Recv_gone");
  Dtu.ext_config f.d1 ~ep:1 ~owner:7 (Ep.recv_config ~slots:2 ~slot_size:256 ());
  match send_ok f ~size:8 (Ping 2) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "credit was lost: %s" (Dtu_types.error_to_string e)

let test_buffer_full_is_recv_gone () =
  let f = make_fabric () in
  setup_channel ~credits:8 ~slots:1 f;
  (match send_ok f ~size:8 (Ping 1) with Ok () -> () | Error _ -> Alcotest.fail "send 1");
  match send_ok f ~size:8 (Ping 2) with
  | Error Dtu_types.Recv_gone -> ()
  | _ -> Alcotest.fail "second send must hit a full buffer"

let test_owner_isolation () =
  let f = make_fabric () in
  setup_channel f;
  (* Switch tile 0 to a different activity: its endpoint must look
     invalid (paper, section 3.5). *)
  ignore (Dtu.switch_act f.d0 ~next:5);
  (match send_ok f ~size:8 (Ping 1) with
  | Error Dtu_types.Unknown_ep -> ()
  | _ -> Alcotest.fail "foreign endpoint must be hidden");
  (* Fetch on a foreign receive endpoint is equally hidden. *)
  ignore (Dtu.switch_act f.d1 ~next:3);
  match Dtu.fetch f.d1 ~ep:1 with
  | Error Dtu_types.Unknown_ep -> ()
  | _ -> Alcotest.fail "foreign fetch must be hidden"

let test_non_virtualized_skips_owner_checks () =
  let f = make_fabric ~virtualized:false () in
  setup_channel f;
  ignore (Dtu.switch_act f.d0 ~next:5);
  match send_ok f ~size:8 (Ping 1) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "M3x DTU has no owner tags: %s" (Dtu_types.error_to_string e)

let test_delivery_to_non_running_sets_core_req () =
  let f = make_fabric () in
  setup_channel f;
  (* Receiver's current activity is someone else: message still lands
     (fast path!) but a core request is queued (paper, section 3.8). *)
  ignore (Dtu.switch_act f.d1 ~next:3);
  let irqs = ref 0 in
  Dtu.set_core_req_irq f.d1 (fun () -> incr irqs);
  (match send_ok f ~size:8 (Ping 9) with Ok () -> () | Error _ -> Alcotest.fail "send");
  check_int "one interrupt" 1 !irqs;
  check_int "unread for owner" 1 (Dtu.unread_of f.d1 7);
  (match Dtu.fetch_core_req f.d1 with
  | Some 7 -> ()
  | _ -> Alcotest.fail "core request must name the recipient");
  Dtu.ack_core_req f.d1;
  ignore (Engine.run f.eng);
  check_bool "queue drained" true (Dtu.fetch_core_req f.d1 = None)

let test_core_req_queue_reraises () =
  let f = make_fabric () in
  setup_channel ~credits:4 f;
  ignore (Dtu.switch_act f.d1 ~next:3);
  let irqs = ref 0 in
  Dtu.set_core_req_irq f.d1 (fun () -> incr irqs);
  (match send_ok f ~size:8 (Ping 1) with Ok () -> () | _ -> Alcotest.fail "s1");
  (match send_ok f ~size:8 (Ping 2) with Ok () -> () | _ -> Alcotest.fail "s2");
  check_int "second queued without new irq" 1 !irqs;
  check_int "queue depth" 2 (Dtu.core_req_depth f.d1);
  Dtu.ack_core_req f.d1;
  ignore (Engine.run f.eng);
  check_int "irq re-raised for queued request" 2 !irqs

let test_atomic_switch_returns_old_count () =
  let f = make_fabric () in
  setup_channel f;
  ignore (send_ok f ~size:8 (Ping 1));
  ignore (send_ok f ~size:8 (Ping 2));
  let old, old_unread = Dtu.switch_act f.d1 ~next:3 in
  check_int "old act" 7 old;
  check_int "old unread (lost-wakeup check)" 2 old_unread;
  check_int "new current" 3 (Dtu.cur_act f.d1)

let test_reply_roundtrip_and_autoack () =
  let f = make_fabric () in
  setup_channel f;
  (* Reply gate on the client side. *)
  Dtu.ext_config f.d0 ~ep:2 ~owner:0 (Ep.recv_config ~slots:2 ~slot_size:256 ());
  (match send_ok f ~reply_ep:2 ~size:8 (Ping 5) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "send");
  let msg =
    match Dtu.fetch f.d1 ~ep:1 with Ok (Some m) -> m | _ -> Alcotest.fail "fetch"
  in
  (match msg.Msg.reply_to with
  | Some (0, 2) -> ()
  | _ -> Alcotest.fail "reply_to not recorded");
  let done_ = ref false in
  Dtu.reply f.d1 ~recv_ep:1 ~to_msg:msg ~msg_size:4 (Ping 6) ~k:(fun r ->
      (match r with Ok () -> () | Error _ -> Alcotest.fail "reply");
      done_ := true);
  ignore (Engine.run f.eng);
  check_bool "reply completed" true !done_;
  (* The reply implicitly acked: sending twice more works with credits 2. *)
  (match send_ok f ~size:8 (Ping 7) with Ok () -> () | _ -> Alcotest.fail "s2");
  (match send_ok f ~size:8 (Ping 8) with Ok () -> () | _ -> Alcotest.fail "s3");
  match Dtu.fetch f.d0 ~ep:2 with
  | Ok (Some reply) -> (
      match reply.Msg.data with Ping 6 -> () | _ -> Alcotest.fail "reply payload")
  | _ -> Alcotest.fail "reply not delivered"

let test_dma_read_write () =
  let f = make_fabric () in
  Dtu.ext_config f.d0 ~ep:4 ~owner:0
    (Ep.mem_config ~mem_tile:2 ~base:0x100 ~size:0x1000 ~perm:Dtu_types.RW);
  ignore (Dtu.switch_act f.d0 ~next:0);
  let src = Bytes.of_string "hello, dram!" in
  let r = ref None in
  Dtu.mem_write f.d0 ~ep:4 ~off:8 ~len:(Bytes.length src) ~src_vaddr:None ~src
    ~src_off:0 ~k:(fun x -> r := Some x);
  ignore (Engine.run f.eng);
  (match !r with Some (Ok ()) -> () | _ -> Alcotest.fail "write failed");
  (* The bytes must really be in DRAM at base + off. *)
  Alcotest.(check string)
    "dram content" "hello, dram!"
    (Bytes.to_string (Dram.read f.dram ~off:(0x100 + 8) ~len:(Bytes.length src)));
  let dst = Bytes.create (Bytes.length src) in
  let r2 = ref None in
  Dtu.mem_read f.d0 ~ep:4 ~off:8 ~len:(Bytes.length src) ~dst_vaddr:None ~dst
    ~dst_off:0 ~k:(fun x -> r2 := Some x);
  ignore (Engine.run f.eng);
  (match !r2 with Some (Ok ()) -> () | _ -> Alcotest.fail "read failed");
  Alcotest.(check string) "round trip" "hello, dram!" (Bytes.to_string dst)

let test_dma_bounds_and_perms () =
  let f = make_fabric () in
  Dtu.ext_config f.d0 ~ep:4 ~owner:0
    (Ep.mem_config ~mem_tile:2 ~base:0 ~size:0x100 ~perm:Dtu_types.R);
  ignore (Dtu.switch_act f.d0 ~next:0);
  let buf = Bytes.create 64 in
  let r = ref None in
  Dtu.mem_read f.d0 ~ep:4 ~off:0xF0 ~len:64 ~dst_vaddr:None ~dst:buf ~dst_off:0
    ~k:(fun x -> r := Some x);
  ignore (Engine.run f.eng);
  (match !r with
  | Some (Error Dtu_types.Out_of_bounds) -> ()
  | _ -> Alcotest.fail "out-of-bounds read must fail");
  let r2 = ref None in
  Dtu.mem_write f.d0 ~ep:4 ~off:0 ~len:16 ~src_vaddr:None ~src:buf ~src_off:0
    ~k:(fun x -> r2 := Some x);
  ignore (Engine.run f.eng);
  match !r2 with
  | Some (Error Dtu_types.No_perm) -> ()
  | _ -> Alcotest.fail "write through read-only endpoint must fail"

(* Under a plan that duplicates every data packet, a 4 KiB write's
   second request copy reaches the memory tile while the first copy's
   DRAM access is pending.  It waits for that access instead of
   reserving the DRAM again: when the write completes, the DRAM is
   idle. *)
let test_dma_retransmit_reuses_access () =
  let module Fault = M3v_fault.Fault in
  let f = make_fabric () in
  Dtu.ext_config f.d0 ~ep:4 ~owner:0
    (Ep.mem_config ~mem_tile:2 ~base:0 ~size:0x1000 ~perm:Dtu_types.RW);
  ignore (Dtu.switch_act f.d0 ~next:0);
  let src = Bytes.make 4096 'w' in
  let done_at = ref (-1) in
  let plan = Fault.create { Fault.none with Fault.dup = 1.0 } in
  Fault.with_plan plan (fun () ->
      Dtu.mem_write f.d0 ~ep:4 ~off:0 ~len:4096 ~src_vaddr:None ~src ~src_off:0
        ~k:(function
          | Ok () -> done_at := Engine.now f.eng
          | Error e -> Alcotest.failf "write: %s" (Dtu_types.error_to_string e));
      ignore (Engine.run f.eng));
  check_bool "the request was duplicated" true
    ((Fault.stats plan).Fault.duplicated > 0);
  check_bool "written" true (Dram.read f.dram ~off:4095 ~len:1 = Bytes.of_string "w");
  (* A zero-byte probe issued at completion starts at once: it ends one
     access latency (90 ns) later. *)
  check_int "DRAM idle at completion" (!done_at + 90_000)
    (Dram.access_time f.dram ~now:!done_at ~bytes:0)

(* 100 back-to-back 4 KiB writes, each issued when the last completes.
   The retransmit window covers a command's own transfer, so under a
   plan that injects nothing no write is sent twice, and the last one
   ends when it does without a plan. *)
let test_ladder_window_covers_transfer () =
  let module Fault = M3v_fault.Fault in
  let writes plan =
    let f = make_fabric () in
    Dtu.ext_config f.d0 ~ep:4 ~owner:0
      (Ep.mem_config ~mem_tile:2 ~base:0 ~size:0x1000 ~perm:Dtu_types.RW);
    ignore (Dtu.switch_act f.d0 ~next:0);
    let src = Bytes.make 4096 'w' in
    let last = ref (-1) in
    let rec write i =
      if i < 100 then
        Dtu.mem_write f.d0 ~ep:4 ~off:0 ~len:4096 ~src_vaddr:None ~src ~src_off:0
          ~k:(function
            | Ok () ->
                last := Engine.now f.eng;
                write (i + 1)
            | Error e -> Alcotest.failf "write: %s" (Dtu_types.error_to_string e))
    in
    let run () =
      write 0;
      ignore (Engine.run f.eng)
    in
    (match plan with Some p -> Fault.with_plan p run | None -> run ());
    (!last, (Dtu.stats f.d0).Dtu.retries)
  in
  let plain_end, _ = writes None in
  let faulty_end, retries = writes (Some (Fault.create Fault.none)) in
  check_int "no write sent twice" 0 retries;
  check_int "last write ends as without a plan" plain_end faulty_end

let test_tlb_miss_fails_command () =
  let f = make_fabric () in
  setup_channel f;
  (* Sending with a virtual source address and a cold TLB must fail with a
     translation fault (paper, section 3.6). *)
  let r = ref None in
  Dtu.send f.d0 ~ep:1 ~src_vaddr:0x20_0000 ~msg_size:8 (Ping 1) ~k:(fun x ->
      r := Some x);
  ignore (Engine.run f.eng);
  (match !r with
  | Some (Error (Dtu_types.Translation_fault vpage)) ->
      check_int "faulting page" (0x20_0000 / 4096) vpage
  | _ -> Alcotest.fail "expected translation fault");
  (* Insert the translation through the privileged interface and retry. *)
  Dtu.tlb_insert f.d0 ~act:0 ~vpage:(0x20_0000 / 4096) ~ppage:33 ~perm:Dtu_types.RW;
  match send_ok f ~size:8 (Ping 1) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send after TLB fill: %s" (Dtu_types.error_to_string e)

(* A SEND stalled for credits, retried every 2 us until the receiver acks
   at 9 us: retried by [spin_send], it must count and complete exactly as
   when each retry is a [Dtu.send] scheduled with [Engine.after]. *)
let stalled_send ~parked =
  let reg = M3v_obs.Metrics.create () in
  M3v_obs.Metrics.with_registry reg (fun () ->
      let f = make_fabric () in
      setup_channel ~credits:1 f;
      let vpage = 0x20_0000 / Dtu_types.page_size in
      let vaddr = 0x20_0000 + 64 in
      Dtu.tlb_insert f.d0 ~act:0 ~vpage ~ppage:33 ~perm:Dtu_types.RW;
      let send ~k =
        Dtu.send f.d0 ~ep:1 ~src_vaddr:vaddr ~msg_size:16 (Ping 1) ~k
      in
      (* The first send takes the only credit. *)
      send ~k:(fun _ -> ());
      let polls = ref 0 and done_at = ref (-1) in
      let rec attempt () = send ~k:complete
      and complete = function
        | Ok () -> done_at := Engine.now f.eng
        | Error Dtu_types.No_credits ->
            if parked then
              Dtu.spin_send f.d0 ~ep:1 ~src_vaddr:vaddr ~msg_size:16 (Ping 1)
                ~poll_ps:(Time.us 2)
                ~on_poll:(fun () -> incr polls)
                ~on_settle:ignore ~k:complete
            else Engine.after f.eng ~delay:(Time.us 2) attempt
        | Error e -> Alcotest.failf "send: %s" (Dtu_types.error_to_string e)
      in
      attempt ();
      Engine.at f.eng ~time:(Time.us 9) (fun () ->
          match Dtu.fetch f.d1 ~ep:1 with
          | Ok (Some msg) -> ignore (Dtu.ack f.d1 ~ep:1 msg)
          | _ -> Alcotest.fail "the first message was not delivered");
      ignore (Engine.run f.eng);
      let st = Dtu.stats f.d0 in
      ( !polls,
        ( !done_at,
          st.Dtu.sends,
          st.Dtu.credit_stalls,
          (Tlb.stats (Dtu.tlb f.d0)).Tlb.hits,
          Engine.events_processed f.eng,
          M3v_obs.Metrics.to_json reg ) ))

let contains ~sub s =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

let test_spin_send_matches_retried_sends () =
  let _, heap = stalled_send ~parked:false in
  let polls, parked = stalled_send ~parked:true in
  let done_at, sends, stalls, hits, events, metrics = parked in
  check_int "parked polls, the last one sent" 5 polls;
  check_int "sends counted" 7 sends;
  check_int "credit stalls" 5 stalls;
  check_int "tlb hits" 7 hits;
  check_bool "completed after the ack" true (done_at > Time.us 9);
  let heap_done_at, heap_sends, heap_stalls, heap_hits, heap_events, heap_metrics =
    heap
  in
  check_int "completion time" heap_done_at done_at;
  check_int "sends" heap_sends sends;
  check_int "credit stalls" heap_stalls stalls;
  check_int "tlb hits" heap_hits hits;
  check_int "events" heap_events events;
  List.iter
    (fun name ->
      check_bool (name ^ " recorded") true
        (contains ~sub:("\"name\":\"" ^ name ^ "\"") metrics))
    [ "dtu/credit_stall"; "dtu/tlb_hit"; "dtu/cmd_ps" ];
  Alcotest.(check string) "metrics" heap_metrics metrics

let test_page_boundary_rejected () =
  let f = make_fabric () in
  setup_channel f;
  Dtu.tlb_insert f.d0 ~act:0 ~vpage:1 ~ppage:1 ~perm:Dtu_types.RW;
  let r = ref None in
  (* 8 bytes starting 4 bytes before a page end cross the boundary. *)
  Dtu.send f.d0 ~ep:1 ~src_vaddr:(4096 + 4092) ~msg_size:8 (Ping 1) ~k:(fun x ->
      r := Some x);
  ignore (Engine.run f.eng);
  match !r with
  | Some (Error Dtu_types.Page_boundary) -> ()
  | _ -> Alcotest.fail "cross-page command must be rejected"

let test_ep_snapshot_restore () =
  let f = make_fabric () in
  setup_channel f;
  ignore (send_ok f ~size:8 (Ping 77));
  (* Take the receiver's endpoint (with its buffered message) out of the
     register file, then put it back: the message must survive (M3x
     switch). *)
  let saved = Dtu.ext_take f.d1 ~ep:1 in
  (match Dtu.fetch f.d1 ~ep:1 with
  | Error Dtu_types.No_such_ep -> ()
  | _ -> Alcotest.fail "taken ep must be gone");
  (* While the endpoint is out, its slot is used: a credit refund lands on
     the empty slot and is parked, a different receive endpoint is
     configured into it (dropping the refund) and gets a message.  None of
     it may reach the taken record. *)
  Dtu.ext_config f.d0 ~ep:2 ~owner:0 (Ep.recv_config ~slots:1 ~slot_size:256 ());
  (match
     Dtu.ext_inject f.d0 ~ep:2
       (Msg.make ~src_tile:1 ~src_act:7 ~src_send_ep:1 ~size:8 (Ping 5))
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "inject");
  (match Dtu.fetch f.d0 ~ep:2 with
  | Ok (Some msg) -> ignore (Dtu.ack f.d0 ~ep:2 msg)
  | _ -> Alcotest.fail "fetch the refunding message");
  ignore (Engine.run f.eng);
  check_int "refund parked at the empty slot" 1 (Dtu.ext_credit_inventory f.d1);
  Dtu.ext_config f.d1 ~ep:1 ~owner:7 (Ep.recv_config ~slots:2 ~slot_size:256 ());
  check_int "reconfiguring drops the parked refund" 0
    (Dtu.ext_credit_inventory f.d1);
  (match send_ok f ~size:8 (Ping 88) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "send into the reused slot");
  (match saved with
  | { Ep.cfg = Ep.Recv r; owner = 7 } ->
      check_int "taken record keeps its slots" 4 r.Ep.slots;
      check_int "taken record keeps its occupancy" 1 r.Ep.occupied;
      check_int "taken record keeps its queue" 1 (Queue.length r.Ep.pending)
  | _ -> Alcotest.fail "the taken record changed");
  Dtu.ext_put f.d1 ~ep:1 saved;
  (match Dtu.fetch f.d1 ~ep:1 with
  | Ok (Some msg) -> (
      match msg.Msg.data with Ping 77 -> () | _ -> Alcotest.fail "payload lost")
  | _ -> Alcotest.fail "message lost across take/put");
  match Dtu.fetch f.d1 ~ep:1 with
  | Ok None -> ()
  | _ -> Alcotest.fail "the reused slot's message leaked into the put record"

let test_ext_inject () =
  let f = make_fabric () in
  setup_channel f;
  let msg = Msg.make ~src_tile:0 ~src_act:0 ~size:8 (Ping 123) in
  (match Dtu.ext_inject f.d1 ~ep:1 msg with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "inject failed");
  match Dtu.fetch f.d1 ~ep:1 with
  | Ok (Some m) -> (
      match m.Msg.data with Ping 123 -> () | _ -> Alcotest.fail "payload")
  | _ -> Alcotest.fail "injected message not readable"

(* The unread counters are keyed by activity id: TileMux's reserved id,
   an id far past the first ones and enough ids to grow the table count
   like any other, and [ext_drop_unread] clears each. *)
let test_unread_any_act_id () =
  let f = make_fabric () in
  let owners =
    (2, Dtu_types.tilemux_act) :: (3, 100_000)
    :: List.init 40 (fun i -> (10 + i, 20 + i))
  in
  List.iter
    (fun (ep, owner) ->
      Dtu.ext_config f.d1 ~ep ~owner
        (Ep.recv_config ~slots:8 ~slot_size:256 ()))
    owners;
  let msgs ep = 1 + (ep mod 3) in
  List.iter
    (fun (ep, _) ->
      for i = 1 to msgs ep do
        let msg = Msg.make ~src_tile:0 ~src_act:0 ~size:8 (Ping i) in
        match Dtu.ext_inject f.d1 ~ep msg with
        | Ok () -> ()
        | Error _ -> Alcotest.failf "inject into ep %d failed" ep
      done)
    owners;
  ignore (Engine.run f.eng);
  List.iter
    (fun (ep, owner) ->
      check_int (Printf.sprintf "unread of act %d" owner) (msgs ep)
        (Dtu.unread_of f.d1 owner))
    owners;
  List.iter (fun (_, owner) -> Dtu.ext_drop_unread f.d1 ~act:owner) owners;
  List.iter
    (fun (_, owner) ->
      check_int (Printf.sprintf "act %d cleared" owner) 0
        (Dtu.unread_of f.d1 owner))
    owners

(* --- Tlb unit tests --- *)

let test_tlb_eviction () =
  let tlb = Tlb.create ~capacity:2 in
  Tlb.insert tlb ~act:1 ~vpage:10 ~ppage:100 ~perm:Dtu_types.RW;
  Tlb.insert tlb ~act:1 ~vpage:11 ~ppage:101 ~perm:Dtu_types.RW;
  Tlb.insert tlb ~act:1 ~vpage:12 ~ppage:102 ~perm:Dtu_types.RW;
  check_int "capacity respected" 2 (Tlb.entry_count tlb);
  check_bool "oldest evicted" true
    (Tlb.lookup tlb ~act:1 ~vpage:10 ~write:false = None);
  check_bool "newest present" true
    (Tlb.lookup tlb ~act:1 ~vpage:12 ~write:false = Some 102)

let test_tlb_perms_and_act_tags () =
  let tlb = Tlb.create ~capacity:8 in
  Tlb.insert tlb ~act:1 ~vpage:5 ~ppage:50 ~perm:Dtu_types.R;
  check_bool "read allowed" true (Tlb.lookup tlb ~act:1 ~vpage:5 ~write:false = Some 50);
  check_bool "write refused" true (Tlb.lookup tlb ~act:1 ~vpage:5 ~write:true = None);
  check_bool "other act misses" true (Tlb.lookup tlb ~act:2 ~vpage:5 ~write:false = None);
  Tlb.invalidate_act tlb 1;
  check_bool "invalidate act" true (Tlb.lookup tlb ~act:1 ~vpage:5 ~write:false = None)

(* The TLB against a reference model: an association list of
   ((act, vpage), (ppage, perm)) in insertion order, oldest first, which
   FIFO eviction drops from the front.  Acts include TileMux's reserved
   id, two acts map the same vpages, and vpages reach past 2^32. *)
type tlb_op =
  | Insert of int * int * int * Dtu_types.perm
  | Lookup of int * int * bool
  | Invalidate_act of int
  | Invalidate_page of int * int

let tlb_acts = [ 0; 1; Dtu_types.tilemux_act ]
let tlb_vpages = [ 0; 1; 2; 5; 1 lsl 32; (1 lsl 32) + 1; (1 lsl 52) - 1 ]

let tlb_op_gen =
  let open QCheck.Gen in
  let act = oneofl tlb_acts and vpage = oneofl tlb_vpages in
  frequency
    [
      ( 4,
        map3
          (fun a v (p, perm) -> Insert (a, v, p, perm))
          act vpage
          (pair (int_bound 1000) (oneofl Dtu_types.[ R; W; RW ])) );
      (4, map3 (fun a v w -> Lookup (a, v, w)) act vpage bool);
      (1, map (fun a -> Invalidate_act a) act);
      (1, map2 (fun a v -> Invalidate_page (a, v)) act vpage);
    ]

let prop_tlb_matches_model =
  QCheck.Test.make ~name:"Tlb = association-list model" ~count:500
    QCheck.(
      make Gen.(pair (int_range 1 6) (list_size (int_bound 80) tlb_op_gen)))
    (fun (capacity, script) ->
      let tlb = Tlb.create ~capacity in
      let model = ref [] in
      let hits = ref 0 and misses = ref 0 in
      let upgrades = ref 0 and evictions = ref 0 in
      let step = function
        | Insert (act, vpage, ppage, perm) ->
            Tlb.insert tlb ~act ~vpage ~ppage ~perm;
            let key = (act, vpage) in
            if List.mem_assoc key !model then
              model :=
                List.map
                  (fun ((k, _) as b) ->
                    if k = key then (k, (ppage, perm)) else b)
                  !model
            else begin
              if List.length !model >= capacity then begin
                model := List.tl !model;
                incr evictions
              end;
              model := !model @ [ (key, (ppage, perm)) ]
            end;
            true
        | Lookup (act, vpage, write) ->
            let expected =
              match List.assoc_opt (act, vpage) !model with
              | Some (ppage, perm)
                when (not write) || Dtu_types.perm_allows_write perm ->
                  incr hits;
                  Some ppage
              | Some _ ->
                  incr upgrades;
                  None
              | None ->
                  incr misses;
                  None
            in
            Tlb.lookup tlb ~act ~vpage ~write = expected
        | Invalidate_act act ->
            Tlb.invalidate_act tlb act;
            model := List.filter (fun ((a, _), _) -> a <> act) !model;
            true
        | Invalidate_page (act, vpage) ->
            Tlb.invalidate_page tlb ~act ~vpage;
            model := List.remove_assoc (act, vpage) !model;
            true
      in
      let agrees () =
        let st = Tlb.stats tlb in
        Tlb.entry_count tlb = List.length !model
        && Tlb.fifo_length tlb = List.length !model
        && st.Tlb.hits = !hits && st.Tlb.misses = !misses
        && st.Tlb.perm_upgrades = !upgrades
        && st.Tlb.evictions = !evictions
        && List.for_all
             (fun act ->
               Tlb.entries_of_act tlb act
               = (List.filter_map
                    (fun ((a, v), (ppage, perm)) ->
                      if a = act then Some (v, { Tlb.ppage; perm }) else None)
                    !model
                 |> List.sort (fun (a, _) (b, _) -> compare a b)))
             tlb_acts
      in
      List.for_all (fun op -> step op && agrees ()) script)

(* A vDTU activity must not be able to reply through, or ack-free, a
   receive endpoint owned by another activity (the Unknown_ep rule of
   paper section 3.5 applies to the implicit-ack paths too). *)
let test_foreign_reply_and_ack_rejected () =
  let f = make_fabric () in
  setup_channel f;
  Dtu.ext_config f.d0 ~ep:2 ~owner:0 (Ep.recv_config ~slots:2 ~slot_size:256 ());
  (match send_ok f ~reply_ep:2 ~size:8 (Ping 1) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "send");
  let msg =
    match Dtu.fetch f.d1 ~ep:1 with Ok (Some m) -> m | _ -> Alcotest.fail "fetch"
  in
  (* Another activity takes over the receiver's core: the fetched message
     cannot be replied to or acked through the now-foreign endpoint. *)
  ignore (Dtu.switch_act f.d1 ~next:3);
  let r = ref None in
  Dtu.reply f.d1 ~recv_ep:1 ~to_msg:msg ~msg_size:4 (Ping 2) ~k:(fun x ->
      r := Some x);
  ignore (Engine.run f.eng);
  (match !r with
  | Some (Error Dtu_types.Unknown_ep) -> ()
  | _ -> Alcotest.fail "foreign reply must fail with Unknown_ep");
  (match Dtu.ack f.d1 ~ep:1 msg with
  | Error Dtu_types.Unknown_ep -> ()
  | _ -> Alcotest.fail "foreign ack must fail with Unknown_ep");
  (* The slot was left intact: back on the owner, the ack succeeds. *)
  ignore (Dtu.switch_act f.d1 ~next:7);
  match Dtu.ack f.d1 ~ep:1 msg with
  | Ok () -> ()
  | Error e -> Alcotest.failf "owner ack: %s" (Dtu_types.error_to_string e)

(* Acknowledging the same message twice must fail (Recv_gone) and must not
   mint an extra credit for the sender. *)
let test_double_ack_no_extra_credit () =
  let f = make_fabric () in
  setup_channel ~credits:2 f;
  (match send_ok f ~size:8 (Ping 1) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "send");
  let msg =
    match Dtu.fetch f.d1 ~ep:1 with Ok (Some m) -> m | _ -> Alcotest.fail "fetch"
  in
  (match Dtu.ack f.d1 ~ep:1 msg with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "first ack");
  ignore (Engine.run f.eng);
  (match Dtu.ack f.d1 ~ep:1 msg with
  | Error Dtu_types.Recv_gone -> ()
  | _ -> Alcotest.fail "double ack must fail with Recv_gone");
  ignore (Engine.run f.eng);
  match (Dtu.ext_read_ep f.d0 ~ep:1).Ep.cfg with
  | Ep.Send s ->
      check_int "credits restored exactly once" 2 s.Ep.credits;
      check_bool "never above max" true (s.Ep.credits <= s.Ep.max_credits)
  | _ -> Alcotest.fail "sender ep vanished"

(* Invalidations must purge the eviction FIFO: across repeated
   insert/invalidate cycles its length stays bounded by the capacity
   instead of accumulating stale keys. *)
let test_tlb_fifo_stays_bounded () =
  let tlb = Tlb.create ~capacity:4 in
  for round = 0 to 9 do
    for v = 0 to 3 do
      Tlb.insert tlb ~act:1 ~vpage:((round * 4) + v) ~ppage:v ~perm:Dtu_types.RW
    done;
    Tlb.invalidate_act tlb 1
  done;
  check_int "fifo empty after invalidate_act" 0 (Tlb.fifo_length tlb);
  for v = 0 to 99 do
    Tlb.insert tlb ~act:2 ~vpage:v ~ppage:v ~perm:Dtu_types.R;
    if v mod 2 = 0 then Tlb.invalidate_page tlb ~act:2 ~vpage:v
  done;
  check_bool "fifo bounded by capacity" true
    (Tlb.fifo_length tlb <= Tlb.capacity tlb);
  check_int "fifo matches live entries" (Tlb.entry_count tlb)
    (Tlb.fifo_length tlb)

(* Permission-upgrade lookups are counted separately from true misses. *)
let test_tlb_perm_upgrade_counted () =
  let tlb = Tlb.create ~capacity:4 in
  Tlb.insert tlb ~act:1 ~vpage:1 ~ppage:10 ~perm:Dtu_types.R;
  check_bool "write on R entry fails" true
    (Tlb.lookup tlb ~act:1 ~vpage:1 ~write:true = None);
  check_bool "absent page misses" true
    (Tlb.lookup tlb ~act:1 ~vpage:2 ~write:false = None);
  let st = Tlb.stats tlb in
  check_int "one perm upgrade" 1 st.Tlb.perm_upgrades;
  check_int "one true miss" 1 st.Tlb.misses

(* --- MPMC receive endpoints: shared fan-in rings --- *)

module Fault = M3v_fault.Fault

(* Receive endpoint [cfg] on d1 ep1 (owned by act 7); two send gates on
   d0 (ep1 and ep2, both act 0) target it — the minimal multi-producer
   setup. *)
let setup_two_senders ?(credits = 2) f cfg =
  Dtu.ext_config f.d1 ~ep:1 ~owner:7 cfg;
  Dtu.ext_config f.d0 ~ep:1 ~owner:0
    (Ep.send_config ~dst_tile:1 ~dst_ep:1 ~label:1 ~max_msg_size:240 ~credits ());
  Dtu.ext_config f.d0 ~ep:2 ~owner:0
    (Ep.send_config ~dst_tile:1 ~dst_ep:1 ~label:2 ~max_msg_size:240 ~credits ());
  ignore (Dtu.switch_act f.d0 ~next:0);
  ignore (Dtu.switch_act f.d1 ~next:7)

(* The same with a shared ring (MPMC) on d1 ep1. *)
let setup_mpmc ?credits ?(slots = 8) ?(ack_batch = 4) f =
  setup_two_senders ?credits f (Ep.mpmc_config ~slots ~slot_size:256 ~ack_batch ())

let send_from f ~ep ~size data =
  let result = ref None in
  Dtu.send f.d0 ~ep ~msg_size:size data ~k:(fun r -> result := Some r);
  ignore (Engine.run f.eng);
  Option.get !result

let sender_credits f ~ep =
  match (Dtu.ext_read_ep f.d0 ~ep).Ep.cfg with
  | Ep.Send s -> s.Ep.credits
  | _ -> Alcotest.fail "not a send endpoint"

let test_mpmc_multi_sender_fanin () =
  let f = make_fabric () in
  setup_mpmc ~credits:2 ~slots:8 ~ack_batch:4 f;
  List.iter
    (fun (ep, i) ->
      match send_from f ~ep ~size:16 (Ping i) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "send %d: %s" i (Dtu_types.error_to_string e))
    [ (1, 0); (2, 1); (1, 2); (2, 3) ];
  check_int "all unread for the owner" 4 (Dtu.unread_of f.d1 7);
  check_int "both senders exhausted" 0
    (sender_credits f ~ep:1 + sender_credits f ~ep:2);
  (* FIFO across producers; acks through the shared ring refund both. *)
  for i = 0 to 3 do
    match Dtu.fetch f.d1 ~ep:1 with
    | Ok (Some msg) ->
        (match msg.Msg.data with
        | Ping j -> check_int "fifo across producers" i j
        | _ -> Alcotest.fail "payload");
        (match Dtu.ack f.d1 ~ep:1 msg with
        | Ok () -> ()
        | Error e -> Alcotest.failf "ack: %s" (Dtu_types.error_to_string e))
    | _ -> Alcotest.fail "fetch"
  done;
  ignore (Engine.run f.eng);
  check_int "sender 1 replenished" 2 (sender_credits f ~ep:1);
  check_int "sender 2 replenished" 2 (sender_credits f ~ep:2);
  let st = Dtu.stats f.d1 in
  check_int "mpmc deliveries" 4 st.Dtu.mpmc_deliveries;
  check_bool "refunds travelled batched" true (st.Dtu.mpmc_refund_flushes >= 1);
  check_int "every credit refunded" 4 st.Dtu.mpmc_credits_refunded

let test_mpmc_doorbell_coalesced_while_backed_up () =
  let f = make_fabric () in
  setup_mpmc ~credits:4 ~slots:8 f;
  ignore (Dtu.switch_act f.d1 ~next:3);
  let irqs = ref 0 in
  Dtu.set_core_req_irq f.d1 (fun () -> incr irqs);
  for i = 0 to 2 do
    match send_from f ~ep:1 ~size:8 (Ping i) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "send: %s" (Dtu_types.error_to_string e)
  done;
  (* Only the empty->non-empty transition rings; the rest coalesce. *)
  check_int "single doorbell for a backed-up ring" 1 !irqs;
  check_int "one core request queued" 1 (Dtu.core_req_depth f.d1);
  check_int "every message still counted unread" 3 (Dtu.unread_of f.d1 7);
  check_int "two doorbells coalesced" 2
    (Dtu.stats f.d1).Dtu.mpmc_doorbells_coalesced;
  (match Dtu.fetch_core_req f.d1 with
  | Some 7 -> ()
  | _ -> Alcotest.fail "core request must name the ring owner");
  Dtu.ack_core_req f.d1;
  ignore (Engine.run f.eng);
  (* Drain the ring: the next delivery is a fresh transition and rings. *)
  ignore (Dtu.switch_act f.d1 ~next:7);
  for _ = 0 to 2 do
    match Dtu.fetch f.d1 ~ep:1 with
    | Ok (Some msg) -> ignore (Dtu.ack f.d1 ~ep:1 msg)
    | _ -> Alcotest.fail "drain fetch"
  done;
  ignore (Engine.run f.eng);
  ignore (Dtu.switch_act f.d1 ~next:3);
  (match send_from f ~ep:1 ~size:8 (Ping 9) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send: %s" (Dtu_types.error_to_string e));
  check_int "doorbell rings again after drain" 2 !irqs

let test_mpmc_full_ring_backpressure () =
  let f = make_fabric () in
  setup_mpmc ~credits:4 ~slots:1 ~ack_batch:1 f;
  (match send_from f ~ep:1 ~size:8 (Ping 1) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "send 1");
  (match send_from f ~ep:2 ~size:8 (Ping 2) with
  | Error Dtu_types.Recv_gone -> ()
  | _ -> Alcotest.fail "second send must find the ring full");
  check_int "failed send refunded its credit" 4 (sender_credits f ~ep:2);
  (match Dtu.fetch f.d1 ~ep:1 with
  | Ok (Some msg) -> ignore (Dtu.ack f.d1 ~ep:1 msg)
  | _ -> Alcotest.fail "fetch");
  ignore (Engine.run f.eng);
  match send_from f ~ep:2 ~size:8 (Ping 3) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send after drain: %s" (Dtu_types.error_to_string e)

(* A batched refund that lands while the sender's endpoint is taken out
   (an M3x switch; the slot is Invalid) must be parked and re-applied on
   [ext_put] — not dropped (credit leak) and never applied twice. *)
let test_mpmc_refund_survives_snapshot_window () =
  let f = make_fabric () in
  setup_mpmc ~credits:2 ~slots:8 ~ack_batch:100 f;
  (match send_from f ~ep:1 ~size:8 (Ping 1) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "send 1");
  (match send_from f ~ep:1 ~size:8 (Ping 2) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "send 2");
  let saved = Dtu.ext_take f.d0 ~ep:1 in
  (* Draining the ring flushes the batched refund into the Invalid slot. *)
  for _ = 1 to 2 do
    match Dtu.fetch f.d1 ~ep:1 with
    | Ok (Some msg) -> ignore (Dtu.ack f.d1 ~ep:1 msg)
    | _ -> Alcotest.fail "fetch"
  done;
  ignore (Engine.run f.eng);
  Dtu.ext_put f.d0 ~ep:1 saved;
  check_int "parked refunds applied on put" 2 (sender_credits f ~ep:1);
  match send_from f ~ep:1 ~size:8 (Ping 3) with
  | Ok () -> ()
  | Error e ->
      Alcotest.failf "send after put: %s" (Dtu_types.error_to_string e)

(* A send in flight when its endpoint is taken completes against the taken
   record: its failure refund comes back with the endpoint on [ext_put]. *)
let test_take_keeps_in_flight_refund () =
  let f = make_fabric () in
  setup_channel ~credits:2 ~slots:1 f;
  (match send_ok f ~size:8 (Ping 1) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "first send fills the only slot");
  let result = ref None in
  Dtu.send f.d0 ~ep:1 ~msg_size:8 (Ping 2) ~k:(fun r -> result := Some r);
  let saved = Dtu.ext_take f.d0 ~ep:1 in
  ignore (Engine.run f.eng);
  (match !result with
  | Some (Error Dtu_types.Recv_gone) -> ()
  | _ -> Alcotest.fail "second send must hit the full buffer");
  Dtu.ext_put f.d0 ~ep:1 saved;
  check_int "failure refund kept by the taken endpoint" 1
    (sender_credits f ~ep:1)

(* Reconfiguring the slot (revoke + re-delegate) must discard the parked
   refund: credits of the revoked gate are not minted into the new one. *)
let test_mpmc_refund_discarded_on_reconfigure () =
  let f = make_fabric () in
  setup_mpmc ~credits:2 ~slots:8 ~ack_batch:100 f;
  (match send_from f ~ep:1 ~size:8 (Ping 1) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "send 1");
  (match send_from f ~ep:1 ~size:8 (Ping 2) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "send 2");
  Dtu.ext_config f.d0 ~ep:1 ~owner:Dtu_types.invalid_act Ep.Invalid;
  for _ = 1 to 2 do
    match Dtu.fetch f.d1 ~ep:1 with
    | Ok (Some msg) -> ignore (Dtu.ack f.d1 ~ep:1 msg)
    | _ -> Alcotest.fail "fetch"
  done;
  ignore (Engine.run f.eng);
  Dtu.ext_config f.d0 ~ep:1 ~owner:0
    (Ep.send_config ~dst_tile:1 ~dst_ep:1 ~label:1 ~max_msg_size:240 ~credits:1 ());
  check_int "fresh gate keeps its own credits" 1 (sender_credits f ~ep:1);
  (match send_from f ~ep:1 ~size:8 (Ping 9) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "send through fresh gate");
  (match Dtu.fetch f.d1 ~ep:1 with
  | Ok (Some msg) -> ignore (Dtu.ack f.d1 ~ep:1 msg)
  | _ -> Alcotest.fail "fetch through fresh gate");
  ignore (Engine.run f.eng);
  check_int "never above the fresh gate's max" 1 (sender_credits f ~ep:1)

(* Regression: the owned-endpoint memo cache must not keep serving an
   MPMC endpoint whose capability was revoked or re-delegated mid-run. *)
let test_mpmc_stale_memo_after_revoke () =
  let f = make_fabric () in
  setup_mpmc f;
  (match send_from f ~ep:1 ~size:8 (Ping 1) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "send");
  (* Prime the memo with a successful owned lookup... *)
  (match Dtu.fetch f.d1 ~ep:1 with
  | Ok (Some _) -> ()
  | _ -> Alcotest.fail "fetch");
  (* ...then revoke: the stale memo must not serve the dead endpoint. *)
  Dtu.ext_config f.d1 ~ep:1 ~owner:Dtu_types.invalid_act Ep.Invalid;
  (match Dtu.fetch f.d1 ~ep:1 with
  | Error Dtu_types.No_such_ep -> ()
  | _ -> Alcotest.fail "stale memo served a revoked endpoint");
  (* Re-delegating the slot to another activity stays hidden from act 7. *)
  Dtu.ext_config f.d1 ~ep:1 ~owner:3 (Ep.mpmc_config ~slots:4 ~slot_size:256 ());
  (match Dtu.fetch f.d1 ~ep:1 with
  | Error Dtu_types.Unknown_ep -> ()
  | _ -> Alcotest.fail "foreign MPMC endpoint must be hidden");
  ignore (Dtu.switch_act f.d1 ~next:3);
  match Dtu.fetch f.d1 ~ep:1 with
  | Ok None -> ()
  | _ -> Alcotest.fail "new owner must see a fresh empty ring"

(* Crash recovery on either receive kind: the controller frees the slots
   the dead owner fetched but never acked ([ext_release_fetched]) and
   drops what is still queued ([ext_drain_recv]), returning each dropped
   message's credit to its sender — a classic gate in one packet per
   message, a shared ring in one batched packet per sender. *)
let test_drain_and_release cfg () =
  let f = make_fabric () in
  setup_two_senders ~credits:2 f cfg;
  List.iter
    (fun (ep, i) ->
      match send_from f ~ep ~size:8 (Ping i) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "send %d: %s" i (Dtu_types.error_to_string e))
    [ (1, 1); (2, 2); (1, 3) ];
  let recv () =
    match (Dtu.ext_read_ep f.d1 ~ep:1).Ep.cfg with
    | Ep.Recv r -> r
    | _ -> Alcotest.fail "receive endpoint vanished"
  in
  (match Dtu.fetch f.d1 ~ep:1 with
  | Ok (Some { Msg.data = Ping 1; _ }) -> ()
  | _ -> Alcotest.fail "fetch");
  check_int "fetched slot released" 1 (Dtu.ext_release_fetched f.d1 ~ep:1);
  check_int "occupancy is the queue" (Queue.length (recv ()).Ep.pending)
    (recv ()).Ep.occupied;
  let flushes () = (Dtu.stats f.d1).Dtu.mpmc_refund_flushes in
  let flushes0 = flushes () in
  let packets0 = (M3v_noc.Noc.stats f.noc).M3v_noc.Noc.packets in
  check_int "queued messages dropped" 2 (Dtu.ext_drain_recv f.d1 ~ep:1);
  check_int "nothing unread" 0 (Dtu.unread_of f.d1 7);
  check_int "no slot held" 0 (recv ()).Ep.occupied;
  ignore (Engine.run f.eng);
  (* Ping 2 and Ping 3 were dropped; the fetched Ping 1 keeps its credit
     spent (crash recovery reclaims that one at the sender). *)
  check_int "sender 1 got Ping 3's credit" 1 (sender_credits f ~ep:1);
  check_int "sender 2 got Ping 2's credit" 2 (sender_credits f ~ep:2);
  check_int "one credit packet per message or per sender" 2
    ((M3v_noc.Noc.stats f.noc).M3v_noc.Noc.packets - packets0);
  match (recv ()).Ep.batch with
  | None -> check_int "a classic gate never flushes a batch" flushes0 (flushes ())
  | Some b ->
      check_int "one flush per sender" (flushes0 + 2) (flushes ());
      check_int "batch empty" 0 b.Ep.refund_total

(* Exactly-once delivery and global credit conservation under random
   fault plans: at every quiescent point
       credits(s1) + credits(s2) + ring occupancy + batched refunds
   equals the total credit budget, and after a full drain every payload
   whose send was acknowledged arrived exactly once (retransmission
   recovers drops, receive-side dedup swallows duplicates). *)
let prop_mpmc_exactly_once_conserved =
  QCheck.Test.make
    ~name:"MPMC: exactly-once + credit conservation under random faults"
    ~count:25
    QCheck.(
      pair
        (pair small_int (pair (int_bound 25) (int_bound 25)))
        (list_of_size (Gen.int_range 1 40) (int_bound 3)))
    (fun ((seed, (drop100, dup100)), script) ->
      let spec =
        {
          Fault.none with
          drop = float_of_int drop100 /. 100.;
          dup = float_of_int dup100 /. 100.;
          delay = 0.05;
        }
      in
      let plan = Fault.create ~seed:(seed + 1) spec in
      Fault.with_plan plan (fun () ->
          let credits = 2 in
          let f = make_fabric () in
          setup_mpmc ~credits ~slots:8 ~ack_batch:3 f;
          let next = ref 0 in
          let sent_ok = ref [] in
          let fetched = Queue.create () in
          let got = ref [] in
          let ok = ref true in
          let payload m = match m.Msg.data with Ping i -> i | _ -> -1 in
          let credit_sum () =
            match (Dtu.ext_read_ep f.d1 ~ep:1).Ep.cfg with
            | Ep.Recv ({ Ep.batch = Some b; _ } as r) ->
                sender_credits f ~ep:1 + sender_credits f ~ep:2
                + r.Ep.occupied + b.Ep.refund_total
            | _ -> Alcotest.fail "mpmc ep vanished"
          in
          let send ep =
            let i = !next in
            incr next;
            Dtu.send f.d0 ~ep ~msg_size:16 (Ping i) ~k:(fun r ->
                if r = Ok () then sent_ok := i :: !sent_ok)
          in
          List.iter
            (fun op ->
              (match op with
              | 0 -> send 1
              | 1 -> send 2
              | 2 -> (
                  match Dtu.fetch f.d1 ~ep:1 with
                  | Ok (Some m) -> Queue.add m fetched
                  | Ok None | Error _ -> ())
              | _ -> (
                  match Queue.take_opt fetched with
                  | Some m ->
                      got := payload m :: !got;
                      ignore (Dtu.ack f.d1 ~ep:1 m)
                  | None -> ()));
              ignore (Engine.run f.eng);
              if credit_sum () <> 2 * credits then ok := false)
            script;
          (* Drain and ack everything still buffered; the ledger must
             balance and the delivered multiset must match the acked
             sends exactly. *)
          Queue.iter
            (fun m ->
              got := payload m :: !got;
              ignore (Dtu.ack f.d1 ~ep:1 m))
            fetched;
          ignore (Engine.run f.eng);
          let rec drain () =
            match Dtu.fetch f.d1 ~ep:1 with
            | Ok (Some m) ->
                got := payload m :: !got;
                ignore (Dtu.ack f.d1 ~ep:1 m);
                ignore (Engine.run f.eng);
                drain ()
            | Ok None | Error _ -> ()
          in
          drain ();
          !ok
          && List.sort compare !got = List.sort compare !sent_ok
          && sender_credits f ~ep:1 = credits
          && sender_credits f ~ep:2 = credits))

(* --- Dram --- *)

let test_dram_contention () =
  let dram = Dram.create ~size:4096 () in
  let t1 = Dram.access_time dram ~now:0 ~bytes:1024 in
  let t2 = Dram.access_time dram ~now:0 ~bytes:1024 in
  check_bool "second access serialized" true (t2 >= 2 * t1 - 1)

let page = Dtu_types.page_size
let zeros n = String.make n '\000'

let read_string dram ~off ~len =
  Bytes.to_string (Dram.read dram ~off ~len)

let write_string dram ~off s =
  Dram.write dram ~off ~src:(Bytes.of_string s) ~src_off:0 ~len:(String.length s)

(* A store of four pages, none of them backed yet. *)
let four_pages () = Dram.create ~size:(4 * page) ()

let test_dram_unbacked_reads_zero () =
  let dram = four_pages () in
  Alcotest.(check string) "whole store" (zeros (4 * page))
    (read_string dram ~off:0 ~len:(4 * page));
  let dst = Bytes.make 100 'x' in
  Dram.read_into dram ~off:(page - 50) ~dst ~dst_off:0 ~len:100;
  Alcotest.(check string) "read_into overwrites with zeros" (zeros 100)
    (Bytes.to_string dst)

let test_dram_write_across_page () =
  let dram = four_pages () in
  let data = String.init 300 (fun i -> Char.chr (1 + (i mod 255))) in
  write_string dram ~off:(2 * page - 100) data;
  Alcotest.(check string) "read back" data
    (read_string dram ~off:(2 * page - 100) ~len:300);
  Alcotest.(check string) "bytes before untouched" (zeros 16)
    (read_string dram ~off:(2 * page - 116) ~len:16);
  Alcotest.(check string) "bytes after untouched" (zeros 16)
    (read_string dram ~off:(2 * page + 200) ~len:16)

let test_dram_read_backed_then_unbacked () =
  let dram = four_pages () in
  write_string dram ~off:page (String.make page 'w');
  let dst = Bytes.make (2 * page) 'x' in
  Dram.read_into dram ~off:(page + (page / 2)) ~dst ~dst_off:(page / 2) ~len:page;
  Alcotest.(check string) "caller prefix kept" (String.make (page / 2) 'x')
    (Bytes.sub_string dst 0 (page / 2));
  Alcotest.(check string) "written half" (String.make (page / 2) 'w')
    (Bytes.sub_string dst (page / 2) (page / 2));
  Alcotest.(check string) "unbacked half" (zeros (page / 2))
    (Bytes.sub_string dst page (page / 2));
  Alcotest.(check string) "caller suffix kept" (String.make (page / 2) 'x')
    (Bytes.sub_string dst (3 * page / 2) (page / 2))

let test_dram_fill_across_page () =
  let dram = four_pages () in
  Dram.fill dram ~off:(page - 10) ~len:20 'f';
  Alcotest.(check string) "fill across the boundary"
    (zeros 6 ^ String.make 20 'f' ^ zeros 6)
    (read_string dram ~off:(page - 16) ~len:32);
  Dram.fill dram ~off:(2 * page) ~len:(2 * page) '\000';
  Alcotest.(check string) "zero fill of unbacked pages" (zeros (2 * page))
    (read_string dram ~off:(2 * page) ~len:(2 * page));
  Dram.fill dram ~off:(page - 5) ~len:10 '\000';
  Alcotest.(check string) "zero fill over written bytes"
    (String.make 5 'f' ^ zeros 10 ^ String.make 5 'f')
    (read_string dram ~off:(page - 10) ~len:20);
  check_int "fills counted as writes" 3 (Dram.stats dram).Dram.writes

let test_dram_out_of_range () =
  let dram = four_pages () in
  let outside = Invalid_argument "Dram: access [0x3ff0, 0x4010) outside store of 0x4000 bytes" in
  let buf = Bytes.create 32 in
  Alcotest.check_raises "read_into" outside (fun () ->
      Dram.read_into dram ~off:(4 * page - 16) ~dst:buf ~dst_off:0 ~len:32);
  Alcotest.check_raises "write" outside (fun () ->
      Dram.write dram ~off:(4 * page - 16) ~src:buf ~src_off:0 ~len:32);
  Alcotest.check_raises "fill" outside (fun () ->
      Dram.fill dram ~off:(4 * page - 16) ~len:32 'x');
  let s = Dram.stats dram in
  check_int "nothing counted" 0 (s.Dram.reads + s.Dram.writes);
  Alcotest.(check string) "the store's last bytes untouched" (zeros 16)
    (read_string dram ~off:(4 * page - 16) ~len:16)

let test_dram_fresh_marshals_small () =
  let bytes = String.length (Marshal.to_string (Dram.create ~size:(64 lsl 20) ()) []) in
  check_bool (Printf.sprintf "fresh 64 MiB store marshals to %d bytes < 1 MiB" bytes)
    true (bytes < 1 lsl 20)

let test_dram_rejects_zero_bandwidth () =
  Alcotest.check_raises "bytes_per_ns:0"
    (Invalid_argument "Dram.create: bytes_per_ns must be in [1, 1000]")
    (fun () -> ignore (Dram.create ~size:page ~bytes_per_ns:0 ()))

let test_dram_rejects_infinite_bandwidth () =
  Alcotest.check_raises "bytes_per_ns:1001"
    (Invalid_argument "Dram.create: bytes_per_ns must be in [1, 1000]")
    (fun () -> ignore (Dram.create ~size:page ~bytes_per_ns:1001 ()));
  (* 1,000 bytes/ns is the fastest the picosecond clock can express. *)
  let dram = Dram.create ~size:page ~access_latency_ps:0 ~bytes_per_ns:1000 () in
  check_int "one byte per ps" 4096 (Dram.access_time dram ~now:0 ~bytes:4096)

let test_dram_rejects_negative_latency () =
  Alcotest.check_raises "access_latency_ps:-1"
    (Invalid_argument "Dram.create: access_latency_ps must not be negative")
    (fun () -> ignore (Dram.create ~size:page ~access_latency_ps:(-1) ()))

let test_dram_read_into_checks_buffer_first () =
  let dram = four_pages () in
  write_string dram ~off:0 "abcdefgh";
  let dst = Bytes.make 4 'x' in
  Alcotest.check_raises "destination too short"
    (Invalid_argument "Dram.read_into: range [0, 8) outside buffer of 4 bytes")
    (fun () -> Dram.read_into dram ~off:0 ~dst ~dst_off:0 ~len:8);
  check_int "no read counted" 0 (Dram.stats dram).Dram.reads;
  Alcotest.(check string) "destination untouched" "xxxx" (Bytes.to_string dst)

let test_dram_write_checks_buffer_first () =
  let dram = four_pages () in
  let src = Bytes.make 4 's' in
  Alcotest.check_raises "source offset past its end"
    (Invalid_argument "Dram.write: range [2, 10) outside buffer of 4 bytes")
    (fun () -> Dram.write dram ~off:(page - 4) ~src ~src_off:2 ~len:8);
  check_int "no write counted" 0 (Dram.stats dram).Dram.writes;
  Alcotest.(check string) "store untouched" (zeros 8)
    (read_string dram ~off:(page - 4) ~len:8)

(* A checkpoint restore rebuilds the zero-length block that marks every
   unbacked page as one fresh block: unbacked pages must still read as
   zeros, and a first write to one must back that page alone. *)
type dram_state = { label : string; store : Dram.t }

let test_dram_checkpoint_round_trip () =
  let dram = four_pages () in
  write_string dram ~off:(page + 7) "written";
  let file = Filename.temp_file "m3v_dram" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Checkpoint.save ~path:file { label = "dram"; store = dram };
      match Checkpoint.load ~path:file with
      | Error msg -> Alcotest.failf "load: %s" msg
      | Ok { label; store = dram } ->
          Alcotest.(check string) "record" "dram" label;
          Alcotest.(check string) "written bytes" "written"
            (read_string dram ~off:(page + 7) ~len:7);
          Alcotest.(check string) "unbacked page" (zeros page)
            (read_string dram ~off:(2 * page) ~len:page);
          write_string dram ~off:(2 * page + 1) "first";
          Alcotest.(check string) "first write to an unbacked page" "first"
            (read_string dram ~off:(2 * page + 1) ~len:5);
          Alcotest.(check string) "other unbacked pages still zero"
            (zeros page ^ zeros page)
            (read_string dram ~off:0 ~len:page ^ read_string dram ~off:(3 * page) ~len:page))

let suite =
  [
    ("send/recv", `Quick, test_send_recv);
    ("credits exhaust and return", `Quick, test_credits_exhaust_and_return);
    ("recv_gone restores credit", `Quick, test_recv_gone_restores_credit);
    ("full buffer", `Quick, test_buffer_full_is_recv_gone);
    ("owner isolation", `Quick, test_owner_isolation);
    ("non-virtualized skips owner checks", `Quick, test_non_virtualized_skips_owner_checks);
    ("fast path + core request", `Quick, test_delivery_to_non_running_sets_core_req);
    ("core request queue re-raises", `Quick, test_core_req_queue_reraises);
    ("atomic switch old count", `Quick, test_atomic_switch_returns_old_count);
    ("reply round trip + auto-ack", `Quick, test_reply_roundtrip_and_autoack);
    ("dma read/write", `Quick, test_dma_read_write);
    ("dma bounds and perms", `Quick, test_dma_bounds_and_perms);
    ("dma retransmit reuses its DRAM access", `Quick, test_dma_retransmit_reuses_access);
    ("retransmit window covers the transfer", `Quick, test_ladder_window_covers_transfer);
    ("tlb miss fails command", `Quick, test_tlb_miss_fails_command);
    ("spin_send = sends retried by the engine", `Quick, test_spin_send_matches_retried_sends);
    ("page boundary rejected", `Quick, test_page_boundary_rejected);
    ("ep snapshot/restore", `Quick, test_ep_snapshot_restore);
    ("take keeps an in-flight refund", `Quick, test_take_keeps_in_flight_refund);
    ("ext inject", `Quick, test_ext_inject);
    ("unread counted for any act id", `Quick, test_unread_any_act_id);
    ("tlb eviction", `Quick, test_tlb_eviction);
    ("tlb perms and tags", `Quick, test_tlb_perms_and_act_tags);
    ("foreign reply/ack rejected", `Quick, test_foreign_reply_and_ack_rejected);
    ("double ack mints no credit", `Quick, test_double_ack_no_extra_credit);
    ("tlb fifo stays bounded", `Quick, test_tlb_fifo_stays_bounded);
    ("tlb perm upgrades counted", `Quick, test_tlb_perm_upgrade_counted);
    ("dram contention", `Quick, test_dram_contention);
    ("dram unbacked pages read zeros", `Quick, test_dram_unbacked_reads_zero);
    ("dram write across a page", `Quick, test_dram_write_across_page);
    ("dram read of backed + unbacked pages", `Quick, test_dram_read_backed_then_unbacked);
    ("dram fill across a page", `Quick, test_dram_fill_across_page);
    ("dram out-of-range access", `Quick, test_dram_out_of_range);
    ("dram fresh store marshals small", `Quick, test_dram_fresh_marshals_small);
    ("dram rejects zero bandwidth", `Quick, test_dram_rejects_zero_bandwidth);
    ("dram rejects infinite bandwidth", `Quick, test_dram_rejects_infinite_bandwidth);
    ("dram rejects negative latency", `Quick, test_dram_rejects_negative_latency);
    ("dram read_into checks buffer first", `Quick, test_dram_read_into_checks_buffer_first);
    ("dram write checks buffer first", `Quick, test_dram_write_checks_buffer_first);
    ("dram checkpoint round trip", `Quick, test_dram_checkpoint_round_trip);
    ("mpmc multi-sender fan-in", `Quick, test_mpmc_multi_sender_fanin);
    ( "mpmc doorbell coalescing",
      `Quick,
      test_mpmc_doorbell_coalesced_while_backed_up );
    ("mpmc full ring backpressure", `Quick, test_mpmc_full_ring_backpressure);
    ( "mpmc refund survives snapshot window",
      `Quick,
      test_mpmc_refund_survives_snapshot_window );
    ( "mpmc refund discarded on reconfigure",
      `Quick,
      test_mpmc_refund_discarded_on_reconfigure );
    ("mpmc stale memo after revoke", `Quick, test_mpmc_stale_memo_after_revoke);
    ( "drain and release: classic gate",
      `Quick,
      test_drain_and_release (Ep.recv_config ~slots:8 ~slot_size:256 ()) );
    ( "drain and release: shared ring",
      `Quick,
      test_drain_and_release (Ep.mpmc_config ~slots:8 ~slot_size:256 ~ack_batch:4 ()) );
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_tlb_matches_model; prop_mpmc_exactly_once_conserved ]
