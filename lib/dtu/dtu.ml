module Engine = M3v_sim.Engine
module Int_table = M3v_sim.Int_table
module Noc = M3v_noc.Noc
module Trace = M3v_obs.Trace
module Metrics = M3v_obs.Metrics
module Fault = M3v_fault.Fault
open Dtu_types

(* Causal-flow tracepoints: every message uid is a flow id, and each
   lifecycle point (issue → inject → deliver → fetch) is one flow event
   sharing the ("flow", "msg", uid) triple — Chrome/Perfetto match s/t/f
   arrows by that triple, so the point kind travels in args.  Replies
   carry a "req" arg naming the request uid, which lets the profiler pair
   the two legs of an RPC. *)

let flow_cat = "flow"
let flow_name = "msg"

let flow_issue ?req ~uid ~tile ~act ~ts () =
  let args =
    match req with
    | None -> [ ("kind", Trace.S "issue") ]
    | Some r -> [ ("kind", Trace.S "issue"); ("req", Trace.I r) ]
  in
  Trace.flow_start ~cat:flow_cat ~name:flow_name ~id:uid ~tile ~act ~ts ~args ()

let flow_inject ~uid ~tile ~act ~ts () =
  Trace.flow_step ~cat:flow_cat ~name:flow_name ~id:uid ~tile ~act ~ts
    ~args:[ ("kind", Trace.S "inject") ]
    ()

let flow_deliver ~uid ~tile ~act ~ts () =
  Trace.flow_step ~cat:flow_cat ~name:flow_name ~id:uid ~tile ~act ~ts
    ~args:[ ("kind", Trace.S "deliver") ]
    ()

let flow_fetch ~uid ~tile ~act ~ts () =
  Trace.flow_end ~cat:flow_cat ~name:flow_name ~id:uid ~tile ~act ~ts
    ~args:[ ("kind", Trace.S "fetch") ]
    ()

(* Metrics category label for a receive endpoint ("ep3"). *)
let ep_cat ep = "ep" ^ string_of_int ep

(* Occupancy gauge of a receive endpoint: shared rings and classic gates
   report under separate names. *)
let occupancy_gauge (r : Ep.recv) =
  match r.Ep.batch with
  | None -> "dtu/rbuf_occupancy"
  | Some _ -> "dtu/mpmc_occupancy"

type completion = (unit, Dtu_types.error) result -> unit

type stats = {
  mutable sends : int;
  mutable replies : int;
  mutable fetches : int;
  mutable acks : int;
  mutable dma_bytes : int;
  mutable core_reqs : int;
  mutable retries : int;
  mutable timeouts : int;
  mutable dup_drops : int;
  mutable mpmc_deliveries : int;
  mutable mpmc_doorbells_coalesced : int;
  mutable mpmc_refund_flushes : int;
  mutable mpmc_credits_refunded : int;
  mutable credit_stalls : int;
}

let fresh_stats () =
  {
    sends = 0;
    replies = 0;
    fetches = 0;
    acks = 0;
    dma_bytes = 0;
    core_reqs = 0;
    retries = 0;
    timeouts = 0;
    dup_drops = 0;
    mpmc_deliveries = 0;
    mpmc_doorbells_coalesced = 0;
    mpmc_refund_flushes = 0;
    mpmc_credits_refunded = 0;
    credit_stalls = 0;
  }

type t = {
  virtualized : bool;
  tile : int;
  engine : Engine.t;
  noc : Noc.t;
  eps : Ep.t array;
  tlb : Tlb.t;
  mutable cur : act_id;
  unread : int ref Int_table.t;  (* by activity *)
  core_reqs : act_id Queue.t;
  mutable core_req_irq : unit -> unit;
  mutable msg_arrived : act_id -> unit;
  mutable lookup_dtu : int -> t option;
  mutable lookup_mem : int -> Dram.t option;
  stats : stats;
  (* One-entry cache for [get_owned_ep], keyed by (endpoint index, current
     activity).  Send/reply/fetch/ack hammer the same endpoint for the
     same activity, so the hit rate is high and a hit skips validation and
     the [Ok _] allocation.  Invalidated by the ext_* config writes; an
     activity switch misses naturally through the key. *)
  mutable ep_cache_idx : int; (* -1: empty *)
  mutable ep_cache_act : act_id;
  mutable ep_cache_res : (Ep.t, Dtu_types.error) result;
  (* Credit refunds that arrived while the target send endpoint was
     Invalid (a refund racing a taken endpoint or a teardown).  Keyed by
     endpoint index; applied when [ext_put] installs a send config into
     that slot, discarded when the slot is reconfigured for a new
     purpose. *)
  pending_refunds : (int, int) Hashtbl.t;
  (* Migration forwarding pointers: after an activity migrates away, its
     old endpoint slots may still be named by in-flight packets and by
     peers whose send gates have not yet been retargeted.  [moved] maps
     such a slot to its new home; deliveries and credit grants landing on
     it are forwarded there (one extra NoC leg per hop).  An entry is
     cleared when the slot is reconfigured for a new purpose. *)
  moved : (int, int * int) Hashtbl.t;
}

(* Local command processing time inside the DTU's finite state machines
   (validation, register file access), independent of the core's MMIO cost
   which the tile runtime charges separately. *)
let cmd_process_ps = 10_000 (* 10 ns *)

(* Interval between a core-request acknowledgement and re-raising the
   interrupt for the next queued request. *)
let core_req_repost_ps = 5_000

let credit_packet_bytes = 8

let create ~virtualized ~tile engine noc =
  {
    virtualized;
    tile;
    engine;
    noc;
    eps = Array.init 128 (fun _ -> Ep.make_invalid ());
    tlb = Tlb.create ~capacity:32;
    cur = invalid_act;
    unread = Int_table.create 8;
    core_reqs = Queue.create ();
    core_req_irq = (fun () -> ());
    msg_arrived = (fun _ -> ());
    lookup_dtu = (fun _ -> None);
    lookup_mem = (fun _ -> None);
    stats = fresh_stats ();
    ep_cache_idx = -1;
    ep_cache_act = invalid_act;
    ep_cache_res = Error No_such_ep;
    pending_refunds = Hashtbl.create 8;
    moved = Hashtbl.create 4;
  }

let connect t ~lookup_dtu ~lookup_mem =
  t.lookup_dtu <- lookup_dtu;
  t.lookup_mem <- lookup_mem

let tile t = t.tile
let virtualized t = t.virtualized
let ep_count t = Array.length t.eps
let stats t = { t.stats with sends = t.stats.sends }
let tlb t = t.tlb

let unread_cell t act =
  match Int_table.find t.unread act with
  | r -> r
  | exception Not_found ->
      let r = ref 0 in
      Int_table.replace t.unread act r;
      r

let unread_of t act = !(unread_cell t act)
let cur_act t = t.cur

(* --- endpoint access helpers --- *)

let get_ep t ep =
  if ep < 0 || ep >= Array.length t.eps then Error No_such_ep
  else
    let e = t.eps.(ep) in
    match e.cfg with Ep.Invalid -> Error No_such_ep | _ -> Ok e

(* The vDTU hides endpoints of other activities behind the same error as an
   invalid endpoint (paper, section 3.5). *)
let get_owned_ep_slow t ep =
  match get_ep t ep with
  | Error _ as e -> e
  | Ok e ->
      if t.virtualized && e.Ep.owner <> t.cur then Error Unknown_ep else Ok e

let get_owned_ep t ep =
  if t.ep_cache_idx = ep && t.ep_cache_act = t.cur then t.ep_cache_res
  else begin
    let res = get_owned_ep_slow t ep in
    t.ep_cache_idx <- ep;
    t.ep_cache_act <- t.cur;
    t.ep_cache_res <- res;
    res
  end

let invalidate_ep_cache t = t.ep_cache_idx <- -1

(* TLB check for the local buffer of a command.  Only virtualized DTUs
   translate; plain DTUs (controller, memory, accelerator tiles) use
   physical addressing. *)
let check_vaddr t ~vaddr ~len ~write =
  match vaddr with
  | None -> Ok ()
  | Some addr ->
      if crosses_page addr len then Error Page_boundary
      else if not t.virtualized then Ok ()
      else
        let vpage = page_of_addr addr in
        (match Tlb.lookup t.tlb ~act:t.cur ~vpage ~write with
        | Some _ ->
            if Metrics.on () then
              Metrics.counter_incr ~name:"dtu/tlb_hit" ~tile:t.tile ();
            Ok ()
        | None ->
            if Trace.on () then
              Trace.instant ~cat:"dtu" ~name:"tlb_fault" ~tile:t.tile ~act:t.cur
                ~ts:(Engine.now t.engine)
                ~args:[ ("vpage", Trace.I vpage) ]
                ();
            if Metrics.on () then
              Metrics.counter_incr ~name:"dtu/tlb_miss" ~tile:t.tile ();
            Error (Translation_fault vpage))

let complete_local t ~k result =
  Engine.after_apply t.engine ~delay:cmd_process_ps k result

(* Record a command issued at [ts] for [act] that completes now with
   [result]: one span over its whole lifetime, and its duration in the
   per-command latency histogram. *)
let note_completion t ~name ~act ~ts result =
  if Trace.on () || Metrics.on () then begin
    let dur = Engine.now t.engine - ts in
    if Trace.on () then begin
      Trace.complete ~cat:"dtu" ~name ~tile:t.tile ~act ~ts ~dur
        ~args:
          [
            ( "result",
              Trace.S
                (match result with
                | Ok () -> "ok"
                | Error e -> error_to_string e) );
          ]
        ();
      Trace.latency_int ("dtu/" ^ name) dur
    end;
    if Metrics.on () then
      Metrics.observe ~name:"dtu/cmd_ps" ~tile:t.tile ~cat:name
        (float_of_int dur)
  end

(* Wrap a command's completion so that it records the command's span and
   latency ([note_completion]).  Identity when tracing is off. *)
let traced_completion t ~name ~k =
  if not (Trace.on () || Metrics.on ()) then k
  else begin
    let ts = Engine.now t.engine in
    let act = t.cur in
    fun result ->
      note_completion t ~name ~act ~ts result;
      k result
  end

(* --- delivery at the destination DTU --- *)

let push_core_req dst act =
  let was_empty = Queue.is_empty dst.core_reqs in
  Queue.add act dst.core_reqs;
  dst.stats.core_reqs <- dst.stats.core_reqs + 1;
  if Trace.on () then
    Trace.instant ~cat:"dtu" ~name:"core_req" ~tile:dst.tile ~act
      ~ts:(Engine.now dst.engine)
      ~args:[ ("depth", Trace.I (Queue.length dst.core_reqs)) ]
      ();
  if was_empty then dst.core_req_irq ()

(* [deliver dst msg ~dst_ep] stores [msg] in the receive buffer.  On a vDTU
   this always succeeds while a slot is free, independent of whether the
   owner is running — the defining difference from M3x (paper, section
   3.8).  Returns [Ok true] for a fresh delivery and [Ok false] for a
   retransmitted/duplicated copy of a message already delivered: the copy
   is dropped without consuming a slot, but the sender still gets its
   completion acknowledgement.  The only error is [Recv_gone]. *)
let deliver dst ~dst_ep (msg : Msg.t) =
  match get_ep dst dst_ep with
  | Error _ -> Error Recv_gone
  | Ok e -> (
      match e.Ep.cfg with
      | Ep.Recv r ->
          if Fault.on () && Ep.seen_before r msg.Msg.uid then begin
            dst.stats.dup_drops <- dst.stats.dup_drops + 1;
            if Trace.on () then
              Trace.instant ~cat:"dtu" ~name:"dup_drop" ~tile:dst.tile
                ~act:e.Ep.owner
                ~ts:(Engine.now dst.engine)
                ~args:[ ("ep", Trace.I dst_ep) ]
                ();
            Ok false
          end
          else if r.Ep.occupied >= r.Ep.slots then Error Recv_gone
          else if msg.Msg.size + Msg.header_bytes > r.Ep.slot_size then
            Error Recv_gone
          else begin
            let was_empty = Queue.is_empty r.Ep.pending in
            let shared = Option.is_some r.Ep.batch in
            Queue.add msg r.Ep.pending;
            r.Ep.occupied <- r.Ep.occupied + 1;
            if Fault.on () then Ep.note_seen r msg.Msg.uid;
            if shared then
              dst.stats.mpmc_deliveries <- dst.stats.mpmc_deliveries + 1;
            let owner = e.Ep.owner in
            if Trace.on () then
              flow_deliver ~uid:msg.Msg.uid ~tile:dst.tile ~act:owner
                ~ts:(Engine.now dst.engine) ();
            if Metrics.on () then
              Metrics.gauge_set ~name:(occupancy_gauge r) ~tile:dst.tile
                ~cat:(ep_cat dst_ep)
                ~ts:(Engine.now dst.engine)
                (float_of_int r.Ep.occupied);
            if dst.virtualized then incr (unread_cell dst owner);
            (* A shared ring coalesces doorbells: only the empty→non-empty
               transition raises one; arrivals behind an undrained queue
               are absorbed by it (the consumer drains until empty before
               blocking, and the per-message unread counters keep the
               lost-wakeup net intact). *)
            if was_empty || not shared then begin
              if dst.virtualized && owner <> dst.cur then
                push_core_req dst owner;
              dst.msg_arrived owner
            end
            else begin
              dst.stats.mpmc_doorbells_coalesced <-
                dst.stats.mpmc_doorbells_coalesced + 1;
              if Metrics.on () then
                Metrics.counter_incr ~name:"dtu/mpmc_doorbell_coalesced"
                  ~tile:dst.tile ()
            end;
            Ok true
          end
      | Ep.Invalid | Ep.Send _ | Ep.Mem _ -> Error Recv_gone)

(* --- credits --- *)

(* Where the endpoint slot [ep] forwards to after its activity migrated
   away.  No lookup while nothing migrated away from this tile. *)
let moved_to t ep =
  if Hashtbl.length t.moved = 0 then None else Hashtbl.find_opt t.moved ep

let add_count tbl key n =
  Hashtbl.replace tbl key (n + Option.value (Hashtbl.find_opt tbl key) ~default:0)

(* Give [s] [n] credits back, capped at [max_credits] (a crash-teardown
   reclaim may have reset it to full in the meantime). *)
let top_up ~ctx (s : Ep.send) n =
  s.Ep.credits <- min s.Ep.max_credits (s.Ep.credits + n);
  Ep.check_credits ~ctx s

(* [n] credits arrive for the send endpoint [ep] of [dtu].  If the
   endpoint is Invalid and its owner migrated away, the grant chases it;
   otherwise it is parked in [pending_refunds]: [ext_put] of the taken
   send endpoint re-applies it, while a reconfiguration discards it —
   either way no credit is minted for the wrong endpoint. *)
let rec apply_grant dtu ~ep n =
  if n > 0 && ep >= 0 && ep < Array.length dtu.eps then
    match dtu.eps.(ep).Ep.cfg with
    | Ep.Send s -> top_up ~ctx:"grant" s n
    | Ep.Invalid -> (
        match moved_to dtu ep with
        | Some (fwd_tile, fwd_ep) -> grant_credits dtu ~dst:fwd_tile ~ep:fwd_ep n
        | None -> add_count dtu.pending_refunds ep n)
    | Ep.Recv _ | Ep.Mem _ -> ()

(* Grant [n] credits to the send endpoint [ep] of tile [dst], in one
   packet from [t] on the lossless control sideband. *)
and grant_credits t ~dst ~ep n =
  Noc.send t.noc ~src:t.tile ~dst ~bytes:credit_packet_bytes ~on_delivered:(fun () ->
      match t.lookup_dtu dst with
      | Some d -> apply_grant d ~ep n
      | None -> ())

(* Return one credit to the sender of [msg] in its own packet: how a
   classic gate refunds an ack. *)
let return_credit t (msg : Msg.t) =
  match msg.Msg.src_send_ep with
  | Some sep -> grant_credits t ~dst:msg.Msg.src_tile ~ep:sep 1
  | None -> ()

(* The credit a message settles.  A SEND spent one of its endpoint's
   credits: if the message fails, the credit returns to that endpoint
   record (the taken record, if M3x took the endpoint meanwhile).  A
   REPLY that freed a classic gate's slot owes the requester's send
   endpoint [ep] on [tile] one credit: it is granted once, piggybacked on
   the first copy whose chase ends (where a migrated requester now
   lives), or at [tile] if the reply fails for good. *)
type credit =
  | No_credit
  | Spent of Ep.send
  | Grant of { tile : int; ep : int; mutable owed : bool }

let grant_once dtu = function
  | Grant g when g.owed ->
      g.owed <- false;
      apply_grant dtu ~ep:g.ep 1
  | Grant _ | Spent _ | No_credit -> ()

(* --- retransmission ---

   Data-plane packets are best-effort under fault injection, so every
   command that crosses the NoC runs inside a retransmit ladder: if no
   completion acknowledgement arrives within an exponentially growing
   window, which starts long enough to cover the command's own transfer,
   the command is reissued (same message uid, so the receiver
   deduplicates), and once the budget is exhausted it completes with
   [Timeout].  The ladder is armed only while a fault plan is installed;
   with faults off the first attempt is the only one and no timer is
   created, keeping the fault-free timeline untouched.

   A command's state is one [int ref]: [closed] once it has completed,
   and before that, for a DMA, the completion time of the DRAM access
   its copies share (0 before the first copy arrives).  In-flight copies
   of a closed command are discarded at arrival so they cannot perturb
   endpoint state that has already been settled, e.g. refunded
   credits. *)

let retry_base_ps = 2_000_000 (* 2 us: many worst-case NoC round trips *)

(* Per byte the command moves: above the 1.625 ns a byte takes through a
   NoC link (625 ps) and the DRAM (1 ns). *)
let retry_ps_per_byte = 2_000

let max_retries = 6
let closed = -1

(* Complete the command once.  A failed message settles its credit
   first.  For [Timeout] a SEND's refund is credit-safe because completion
   acknowledgements ride the lossless control sideband: had any copy
   occupied a slot, its ack would have completed the command.  A REPLY
   that never reached the requester never granted its credit; credit
   state is control-plane, so the requester gets it now, or its send gate
   wedges with zero credits. *)
let finish t st ~credit ~k result =
  if !st <> closed then begin
    st := closed;
    (match (result, credit) with
    | Error _, Spent s -> top_up ~ctx:"send_refund" s 1
    | Error _, Grant g -> (
        match t.lookup_dtu g.tile with
        | Some dst -> grant_once dst credit
        | None -> ())
    | Ok (), _ | Error _, No_credit -> ());
    k result
  end

(* Run [attempt] as try [n] of the command named [name], which moves
   [bytes], arming the timer that reissues it or, after [max_retries],
   completes it with [Timeout]. *)
let rec ladder t ~name st ~credit ~bytes ~k attempt n =
  if Fault.on () then
    Engine.after t.engine
      ~delay:((retry_base_ps + (bytes * retry_ps_per_byte)) lsl n)
      (fun () ->
        if !st <> closed then
          if n >= max_retries then begin
            t.stats.timeouts <- t.stats.timeouts + 1;
            if Trace.on () then
              Trace.instant ~cat:"dtu" ~name:(name ^ "_timeout") ~tile:t.tile
                ~ts:(Engine.now t.engine)
                ();
            finish t st ~credit ~k (Error Timeout)
          end
          else begin
            t.stats.retries <- t.stats.retries + 1;
            if Trace.on () then
              Trace.instant ~cat:"dtu" ~name:"retransmit" ~tile:t.tile
                ~ts:(Engine.now t.engine)
                ~args:[ ("cmd", Trace.S name); ("try", Trace.I (n + 1)) ]
                ();
            ladder t ~name st ~credit ~bytes ~k attempt (n + 1)
          end);
  (* A transient command glitch loses this attempt on the floor; the
     ladder reissues it. *)
  if not (Fault.on () && Fault.cmd_fails ~now:(Engine.now t.engine) ~tile:t.tile)
  then attempt ()

(* --- one transmit path for SEND and REPLY --- *)

(* Deliver a copy of [msg] at [tile:ep], chasing migration forwarding
   pointers.  Each hop re-emits the packet on the lossless sideband — it
   already survived its data-plane crossing, and the forwarding DTU holds
   it like a store-and-forward switch — so chasing cannot lose a message
   the sender was told arrived.  The tile that ends the chase sends the
   completion acknowledgement straight back to the sender, also for a
   deduplicated copy (the sender may have missed the first ack). *)
let fwd_max_hops = 4

let rec chase t st ~credit ~k ~bytes msg tile ep hops =
  if !st <> closed then
    match t.lookup_dtu tile with
    | None -> ack_to_sender t st ~credit ~k ~from:tile (Error Recv_gone)
    | Some dst -> (
        match moved_to dst ep with
        | Some (fwd_tile, fwd_ep) when hops > 0 ->
            if Trace.on () then
              Trace.instant ~cat:"dtu" ~name:"mig_forward" ~tile
                ~ts:(Engine.now dst.engine)
                ~args:[ ("ep", Trace.I ep); ("to", Trace.I fwd_tile) ]
                ();
            Noc.send t.noc ~src:tile ~dst:fwd_tile ~bytes ~on_delivered:(fun () ->
                chase t st ~credit ~k ~bytes msg fwd_tile fwd_ep (hops - 1))
        | _ ->
            let result = deliver dst ~dst_ep:ep msg in
            (* A fresh or failed delivery lands a REPLY's credit here: a
               migrated requester's send endpoint lives where the chase
               ended, and [apply_grant] chases any further moves. *)
            (match result with
            | Ok false -> ()
            | Ok true | Error _ -> grant_once dst credit);
            ack_to_sender t st ~credit ~k ~from:tile
              (match result with Ok _ -> Ok () | Error _ -> Error Recv_gone))

and ack_to_sender t st ~credit ~k ~from result =
  Noc.send t.noc ~src:from ~dst:t.tile ~bytes:credit_packet_bytes
    ~on_delivered:(fun () -> finish t st ~credit ~k result)

(* Carry [msg] to [dst_tile:dst_ep] under the ladder: the data packet, the
   chase, the completion acknowledgement, and the [credit] it settles. *)
let transmit t ~name ~dst_tile ~dst_ep ~credit (msg : Msg.t) ~k =
  let bytes = msg.Msg.size + Msg.header_bytes in
  let st = ref 0 in
  ladder t ~name st ~credit ~bytes ~k
    (fun () ->
      Noc.send ~kind:Noc.Data t.noc ~src:t.tile ~dst:dst_tile ~bytes
        ~on_delivered:(fun () ->
          chase t st ~credit ~k ~bytes msg dst_tile dst_ep fwd_max_hops))
    0

(* --- unprivileged commands --- *)

(* SEND's checks, in order, each counting what it counts (the command,
   the TLB lookup of its buffer, a credit stall); when all pass, the
   message leaves under the ladder and the result is [Ok ()].  Otherwise
   the result is the failed check's error, and the caller completes the
   command. *)
let start_send t ~ep ?reply_ep ?src_vaddr ?issue_ts ~msg_size data ~k =
  t.stats.sends <- t.stats.sends + 1;
  match get_owned_ep t ep with
  | Error e -> Error e
  | Ok { Ep.cfg = Ep.Invalid | Ep.Recv _ | Ep.Mem _; _ } -> Error Wrong_ep_type
  | Ok { Ep.cfg = Ep.Send s; _ } -> (
      if msg_size > s.Ep.max_msg_size then Error Msg_too_large
      else
        match check_vaddr t ~vaddr:src_vaddr ~len:msg_size ~write:false with
        | Error _ as err -> err
        | Ok () when s.Ep.credits <= 0 ->
            t.stats.credit_stalls <- t.stats.credit_stalls + 1;
            if Metrics.on () then
              Metrics.counter_incr ~name:"dtu/credit_stall" ~tile:t.tile ();
            Error No_credits
        | Ok () as ok ->
            s.Ep.credits <- s.Ep.credits - 1;
            Ep.check_credits ~ctx:"send" s;
            let reply_to =
              match reply_ep with Some rep -> Some (t.tile, rep) | None -> None
            in
            let msg =
              Msg.make ~src_tile:t.tile ~src_act:t.cur ~src_send_ep:ep
                ~label:s.Ep.label ?reply_to ~size:msg_size data
            in
            if Trace.on () then begin
              let now = Engine.now t.engine in
              (* [issue_ts] is when the software issued the command
                 (before MMIO overhead and credit-stall spins), so the
                 profiler's sender_cmd segment covers them. *)
              flow_issue ~uid:msg.Msg.uid ~tile:t.tile ~act:t.cur
                ~ts:(Option.value issue_ts ~default:now)
                ();
              flow_inject ~uid:msg.Msg.uid ~tile:t.tile ~act:t.cur ~ts:now ()
            end;
            transmit t ~name:"send" ~dst_tile:s.Ep.dst_tile ~dst_ep:s.Ep.dst_ep
              ~credit:(Spent s) msg
              ~k:(traced_completion t ~name:"send" ~k);
            ok)

let fail_send t ~k err = complete_local t ~k:(traced_completion t ~name:"send" ~k) err

let send t ~ep ?reply_ep ?src_vaddr ?issue_ts ~msg_size data ~k =
  match start_send t ~ep ?reply_ep ?src_vaddr ?issue_ts ~msg_size data ~k with
  | Ok () -> ()
  | Error _ as err -> fail_send t ~k err

(* A send stalled for credits, retried by an [Engine.spin] loop.  Each
   poll is a SEND: while it fails with [No_credits], the stalled
   command's completion is bookkeeping only (its span closes
   [cmd_process_ps] later), which the loop's completion step does. *)
let spin_send t ~ep ?reply_ep ?src_vaddr ?issue_ts ~msg_size data ~poll_ps
    ~on_poll ~on_settle ~k =
  (* The activity the stalled command was issued for, which its span
     names. *)
  let act = ref t.cur in
  Engine.spin t.engine ~gap:poll_ps ~settle:cmd_process_ps
    ~poll:(fun () ->
      on_poll ();
      match start_send t ~ep ?reply_ep ?src_vaddr ?issue_ts ~msg_size data ~k with
      | Error No_credits ->
          act := t.cur;
          true
      | Ok () -> false
      | Error _ as err ->
          fail_send t ~k err;
          false)
    ~settled:(fun () ->
      note_completion t ~name:"send" ~act:!act
        ~ts:(Engine.now t.engine - cmd_process_ps)
        (Error No_credits);
      on_settle ())

(* Owe the sender of [msg] one credit in a shared ring's batch. *)
let owe_refund (b : Ep.batch) (msg : Msg.t) =
  match msg.Msg.src_send_ep with
  | Some sep ->
      add_count b.Ep.refunds (msg.Msg.src_tile, sep) 1;
      b.Ep.refund_total <- b.Ep.refund_total + 1
  | None -> ()

(* Flush a shared ring's batched credit refunds: one credit packet per
   sender instead of one per message.  Entries are emitted in
   (tile, send_ep) order so the NoC timeline is independent of hash-table
   iteration order (required for --jobs byte-identity). *)
let flush_refunds t (b : Ep.batch) =
  if b.Ep.refund_total > 0 then begin
    let entries =
      Hashtbl.fold (fun key n acc -> (key, n) :: acc) b.Ep.refunds []
      |> List.sort compare
    in
    Hashtbl.reset b.Ep.refunds;
    b.Ep.refund_total <- 0;
    List.iter
      (fun ((src_tile, sep), n) ->
        let s = t.stats in
        s.mpmc_refund_flushes <- s.mpmc_refund_flushes + 1;
        s.mpmc_credits_refunded <- s.mpmc_credits_refunded + n;
        if Metrics.on () then
          Metrics.counter_incr ~name:"dtu/mpmc_refund_flush" ~tile:t.tile ();
        grant_credits t ~dst:src_tile ~ep:sep n)
      entries
  end

(* Free the receive slot a fetched message occupied.  Callers have checked
   that the current activity owns the endpoint (the vDTU hides foreign
   endpoints, paper section 3.5).  A slot can only be freed once: a second
   ack of the same message fails with [Recv_gone] instead of silently
   minting a send credit.  On a shared ring the sender's credit joins the
   batch, which flushes when it reaches [ack_batch] or the ring empties
   (so a quiescent sender is never starved of its credits); a classic
   gate leaves the refund to its caller. *)
let free_slot t ~ep (r : Ep.recv) (msg : Msg.t) =
  if r.Ep.occupied <= 0 then Error Recv_gone
  else begin
    r.Ep.occupied <- r.Ep.occupied - 1;
    if Metrics.on () then
      Metrics.gauge_set ~name:(occupancy_gauge r) ~tile:t.tile ~cat:(ep_cat ep)
        ~ts:(Engine.now t.engine)
        (float_of_int r.Ep.occupied);
    (match r.Ep.batch with
    | None -> ()
    | Some b ->
        owe_refund b msg;
        if b.Ep.refund_total >= b.Ep.ack_batch || r.Ep.occupied = 0 then
          flush_refunds t b);
    Ok ()
  end

let reply t ~recv_ep ~to_msg ?src_vaddr ?issue_ts ~msg_size data ~k =
  t.stats.replies <- t.stats.replies + 1;
  let k = traced_completion t ~name:"reply" ~k in
  match get_owned_ep t recv_ep with
  | Error e -> complete_local t ~k (Error e)
  | Ok { Ep.cfg = Ep.Invalid | Ep.Send _ | Ep.Mem _; _ } ->
      complete_local t ~k (Error Wrong_ep_type)
  | Ok { Ep.cfg = Ep.Recv r; _ } -> (
  match to_msg.Msg.reply_to with
  | None -> complete_local t ~k (Error Recv_gone)
  | Some (dst_tile, dst_ep) -> (
      match check_vaddr t ~vaddr:src_vaddr ~len:msg_size ~write:false with
      | Error err -> complete_local t ~k (Error err)
      | Ok () ->
          (* REPLY implicitly acknowledges the request: the slot frees and
             the sender's credit returns piggybacked on the reply.  If the
             slot was already freed (the message was acked separately) no
             credit may travel back a second time.  On a shared ring the
             refund instead joins the batch — nothing piggybacks. *)
          let credit =
            match (free_slot t ~ep:recv_ep r to_msg, r.Ep.batch, to_msg.Msg.src_send_ep) with
            | Ok (), None, Some ep -> Grant { tile = dst_tile; ep; owed = true }
            | _ -> No_credit
          in
          let msg =
            Msg.make ~src_tile:t.tile ~src_act:t.cur ~label:to_msg.Msg.label
              ~size:msg_size data
          in
          if Trace.on () then begin
            let now = Engine.now t.engine in
            flow_issue ~req:to_msg.Msg.uid ~uid:msg.Msg.uid ~tile:t.tile
              ~act:t.cur
              ~ts:(Option.value issue_ts ~default:now)
              ();
            flow_inject ~uid:msg.Msg.uid ~tile:t.tile ~act:t.cur ~ts:now ()
          end;
          transmit t ~name:"reply" ~dst_tile ~dst_ep ~credit msg ~k))

(* The next message queued at receive endpoint [e], taken off the queue
   and off its owner's unread count. *)
let take_pending t (e : Ep.t) (r : Ep.recv) =
  match Queue.take_opt r.Ep.pending with
  | None -> None
  | Some _ as m ->
      if t.virtualized then begin
        let cell = unread_cell t e.Ep.owner in
        if !cell > 0 then decr cell
      end;
      m

let fetch t ~ep =
  t.stats.fetches <- t.stats.fetches + 1;
  match get_owned_ep t ep with
  | Error e -> Error e
  | Ok ({ Ep.cfg = Ep.Recv r; _ } as e) -> (
      match take_pending t e r with
      | None -> Ok None
      | Some msg as m ->
          if Trace.on () then begin
            let now = Engine.now t.engine in
            Trace.instant ~cat:"dtu" ~name:"fetch" ~tile:t.tile ~act:t.cur
              ~ts:now
              ~args:[ ("ep", Trace.I ep) ]
              ();
            flow_fetch ~uid:msg.Msg.uid ~tile:t.tile ~act:t.cur ~ts:now ()
          end;
          Ok m)
  | Ok { Ep.cfg = Ep.Invalid | Ep.Send _ | Ep.Mem _; _ } -> Error Wrong_ep_type

let ack t ~ep msg =
  t.stats.acks <- t.stats.acks + 1;
  match get_owned_ep t ep with
  | Ok { Ep.cfg = Ep.Recv r; _ } -> (
      (* A shared ring's refund flush, and its credit packets, come before
         the ack instant; a classic gate's credit packet comes after it. *)
      match free_slot t ~ep r msg with
      | Error e -> Error e
      | Ok () ->
          if Trace.on () then
            Trace.instant ~cat:"dtu" ~name:"ack" ~tile:t.tile ~act:t.cur
              ~ts:(Engine.now t.engine)
              ~args:[ ("ep", Trace.I ep) ]
              ();
          if Option.is_none r.Ep.batch then return_credit t msg;
          Ok ())
  | Ok _ -> Error Wrong_ep_type
  | Error e -> Error e

(* Whether [ep] is configured as a shared ring (any owner); the tile
   runtime uses this to charge the cheaper ack cost — releasing a ring
   slot is a single MMIO tail-counter store, not a full command. *)
let is_mpmc t ~ep =
  ep >= 0
  && ep < Array.length t.eps
  &&
  match t.eps.(ep).Ep.cfg with
  | Ep.Recv { Ep.batch = Some _; _ } -> true
  | Ep.Invalid | Ep.Send _ | Ep.Recv _ | Ep.Mem _ -> false

(* --- DMA --- *)

let dma t ~ep ~off ~len ~vaddr ~write ~k ~action =
  let name = if write then "dma_write" else "dma_read" in
  let k = traced_completion t ~name ~k in
  match get_owned_ep t ep with
  | Error e -> complete_local t ~k (Error e)
  | Ok e -> (
      match e.Ep.cfg with
      | Ep.Mem m ->
          let perm_ok =
            if write then perm_allows_write m.Ep.perm
            else perm_allows_read m.Ep.perm
          in
          if not perm_ok then complete_local t ~k (Error No_perm)
          else if off < 0 || len < 0 || off + len > m.Ep.mem_size then
            complete_local t ~k (Error Out_of_bounds)
          else (
            (* The local buffer must stay within one page; the vDTU checks
               its TLB once per command (paper, section 3.6). *)
            match check_vaddr t ~vaddr ~len ~write:(not write) with
            | Error err -> complete_local t ~k (Error err)
            | Ok () -> (
                match t.lookup_mem m.Ep.mem_tile with
                | None -> complete_local t ~k (Error Out_of_bounds)
                | Some dram ->
                    t.stats.dma_bytes <- t.stats.dma_bytes + len;
                    let phys_off = m.Ep.base + off in
                    (* Request travels to the memory tile, the DRAM access
                       is serialized there, and the data crosses the NoC in
                       whichever direction the command needs.  Both legs
                       are data-plane packets; the command is idempotent
                       (same bytes, same window), so a retried attempt may
                       repeat the DRAM access safely.  A copy that arrives
                       while an earlier copy's access is pending waits
                       for that access instead of reserving the DRAM
                       again. *)
                    let request_bytes = if write then len + 16 else 16 in
                    let st = ref 0 in
                    ladder t ~name st ~credit:No_credit ~bytes:len ~k
                      (fun () ->
                        Noc.send ~kind:Noc.Data t.noc ~src:t.tile
                          ~dst:m.Ep.mem_tile ~bytes:request_bytes
                          ~on_delivered:(fun () ->
                            let now = Engine.now t.engine in
                            if !st <> closed then begin
                              if !st <= now then
                                st := Dram.access_time dram ~now ~bytes:len;
                              Engine.at t.engine ~time:!st (fun () ->
                                  if !st <> closed then begin
                                    action dram ~phys_off;
                                    let response_bytes =
                                      if write then 8 else len + 8
                                    in
                                    Noc.send ~kind:Noc.Data t.noc
                                      ~src:m.Ep.mem_tile ~dst:t.tile
                                      ~bytes:response_bytes
                                      ~on_delivered:(fun () ->
                                        finish t st ~credit:No_credit ~k (Ok ()))
                                  end)
                            end))
                      0))
      | Ep.Invalid | Ep.Send _ | Ep.Recv _ ->
          complete_local t ~k (Error Wrong_ep_type))

let mem_read t ~ep ~off ~len ~dst_vaddr ~dst ~dst_off ~k =
  dma t ~ep ~off ~len ~vaddr:dst_vaddr ~write:false ~k
    ~action:(fun dram ~phys_off ->
      Dram.read_into dram ~off:phys_off ~dst ~dst_off ~len)

let mem_write t ~ep ~off ~len ~src_vaddr ~src ~src_off ~k =
  dma t ~ep ~off ~len ~vaddr:src_vaddr ~write:true ~k
    ~action:(fun dram ~phys_off ->
      Dram.write dram ~off:phys_off ~src ~src_off ~len)

(* --- privileged interface --- *)

let switch_act t ~next =
  let old = t.cur in
  let old_unread = unread_of t old in
  t.cur <- next;
  (old, old_unread)

let tlb_insert t ~act ~vpage ~ppage ~perm = Tlb.insert t.tlb ~act ~vpage ~ppage ~perm
let tlb_invalidate_act t act = Tlb.invalidate_act t.tlb act
let fetch_core_req t = Queue.peek_opt t.core_reqs

let ack_core_req t =
  ignore (Queue.take_opt t.core_reqs);
  if not (Queue.is_empty t.core_reqs) then
    Engine.after t.engine ~delay:core_req_repost_ps (fun () ->
        if not (Queue.is_empty t.core_reqs) then t.core_req_irq ())

let core_req_depth t = Queue.length t.core_reqs
let set_core_req_irq t f = t.core_req_irq <- f
let set_msg_arrived t f = t.msg_arrived <- f

(* --- external interface --- *)

let check_ep_index t ep =
  if ep < 0 || ep >= Array.length t.eps then
    invalid_arg (Printf.sprintf "Dtu: endpoint %d out of range" ep)

let ext_config t ~ep ~owner cfg =
  check_ep_index t ep;
  (* Configs arriving over the external interface must satisfy the credit
     and occupancy invariants — a restore path must not resurrect an
     endpoint with credits > max_credits. *)
  Ep.validate_config ~ctx:"ext_config" cfg;
  invalidate_ep_cache t;
  (* Reconfiguring the slot for a new purpose discards refunds parked for
     its previous incarnation: a revoke racing an in-flight refund must
     not mint credits for the new endpoint.  Likewise a stale migration
     forwarding pointer must not hijack the new endpoint's traffic. *)
  Hashtbl.remove t.pending_refunds ep;
  Hashtbl.remove t.moved ep;
  (* A memory endpoint opens its window: back the window's DRAM pages now,
     at set-up, so that DMA through it never allocates one mid-run.  An
     endpoint put back by [ext_put] had its window backed when it was first
     configured. *)
  (match cfg with
  | Ep.Mem m -> (
      match t.lookup_mem m.Ep.mem_tile with
      | Some dram -> Dram.back dram ~off:m.Ep.base ~len:m.Ep.mem_size
      | None -> ())
  | Ep.Invalid | Ep.Send _ | Ep.Recv _ -> ());
  t.eps.(ep).Ep.cfg <- cfg;
  t.eps.(ep).Ep.owner <- owner

let ext_read_ep t ~ep =
  check_ep_index t ep;
  t.eps.(ep)

(* Move the record out of slot [ep]: the caller gets the endpoint itself
   and the slot a fresh Invalid record, so nothing done to the slot while
   the endpoint is out (a reconfiguration, a delivery, a refund) reaches
   the taken record.  Refunds that land on the empty slot are parked for
   [ext_put]; a configured slot has none parked.  Forwarding pointers
   exist only after a migration and parked refunds only while a send
   endpoint is out, so both calls test a table's size before hashing. *)
let ext_take t ~ep =
  check_ep_index t ep;
  invalidate_ep_cache t;
  if Hashtbl.length t.moved > 0 then Hashtbl.remove t.moved ep;
  let e = t.eps.(ep) in
  t.eps.(ep) <- Ep.make_invalid ();
  e

let ext_put t ~ep saved =
  check_ep_index t ep;
  Ep.validate_config ~ctx:"ext_put" saved.Ep.cfg;
  invalidate_ep_cache t;
  (* The slot is live again: a forwarding pointer left behind when a
     previous tenant vacated it must not hijack (and ping-pong) the
     endpoint's traffic.  Without this, the third hop of a migration that
     revisits a tile chases stale [moved] entries in a cycle until the hop
     budget runs out and delivers wherever the chase happens to stop. *)
  if Hashtbl.length t.moved > 0 then Hashtbl.remove t.moved ep;
  t.eps.(ep) <- saved;
  (* A refund that arrived while the endpoint was out was parked; apply it
     now so the send endpoint is not short of credits, capped at
     max_credits. *)
  if Hashtbl.length t.pending_refunds > 0 then
    match saved.Ep.cfg with
    | Ep.Send s -> (
        match Hashtbl.find_opt t.pending_refunds ep with
        | Some n ->
            Hashtbl.remove t.pending_refunds ep;
            top_up ~ctx:"ext_put" s n
        | None -> ())
    | Ep.Invalid | Ep.Recv _ | Ep.Mem _ -> Hashtbl.remove t.pending_refunds ep

let ext_inject t ~ep msg =
  (* Externally injected messages (kernel upcalls, NIC receive path) have
     no DTU SEND: their flow starts at the injection itself, so the
     sender-side segments profile as zero. *)
  if Trace.on () then
    flow_issue ~uid:msg.Msg.uid ~tile:t.tile ~act:(-1)
      ~ts:(Engine.now t.engine) ();
  Result.map ignore (deliver t ~dst_ep:ep msg)

(* Drop every message still queued at a receive endpoint, freeing the
   slots and returning senders' credits exactly as an ack would.  The
   controller uses this when restarting a crashed activity in place:
   replies addressed to the dead incarnation must not pair with the first
   request of its successor. *)
let ext_drain_recv t ~ep =
  check_ep_index t ep;
  let e = t.eps.(ep) in
  match e.Ep.cfg with
  | Ep.Recv r ->
      let rec loop dropped =
        match take_pending t e r with
        | None -> dropped
        | Some msg ->
            if r.Ep.occupied > 0 then r.Ep.occupied <- r.Ep.occupied - 1;
            (match r.Ep.batch with
            | None -> return_credit t msg
            | Some b -> owe_refund b msg);
            loop (dropped + 1)
      in
      let dropped = loop 0 in
      Option.iter (flush_refunds t) r.Ep.batch;
      dropped
  | Ep.Invalid | Ep.Send _ | Ep.Mem _ -> 0

(* Reconcile a receive endpoint's slot count with its queue after its
   owner crashed: slots held by messages the dead incarnation fetched but
   never acknowledged would leak forever (the restarted program never saw
   them, so it will never ack them).  Returns how many slots were freed. *)
let ext_release_fetched t ~ep =
  check_ep_index t ep;
  match t.eps.(ep).Ep.cfg with
  | Ep.Recv r ->
      let queued = Queue.length r.Ep.pending in
      let leaked = r.Ep.occupied - queued in
      r.Ep.occupied <- queued;
      max leaked 0
  | Ep.Invalid | Ep.Send _ | Ep.Mem _ -> 0

(* --- migration support --- *)

(* Install a forwarding pointer: packets and credit grants addressed to
   [ep] (which must be Invalid — the slot was just vacated) chase the
   activity to [dst_tile:dst_ep]. *)
let ext_set_moved t ~ep ~dst_tile ~dst_ep =
  check_ep_index t ep;
  Hashtbl.replace t.moved ep (dst_tile, dst_ep)

(* Rewrite every send endpoint of this DTU that targets (old_tile, ep) for
   ep in [eps] to target (new_tile, ep): the receive gates behind them
   migrated, slot indices preserved.  Credit balances are untouched —
   outstanding credits follow the channel, not the tile. *)
let ext_retarget t ~old_tile ~new_tile ~eps =
  let n = ref 0 in
  Array.iter
    (fun e ->
      match e.Ep.cfg with
      | Ep.Send s when s.Ep.dst_tile = old_tile && List.mem s.Ep.dst_ep eps ->
          incr n;
          e.Ep.cfg <- Ep.Send { s with Ep.dst_tile = new_tile }
      | _ -> ())
    t.eps;
  !n

(* Rebuild the unread counter for [act] from the messages queued at its
   receive endpoints — after migration puts its endpoints on a fresh tile
   no [deliver] ever incremented the counter there.  Returns the seeded
   count. *)
let ext_seed_unread t ~act =
  let n = ref 0 in
  Array.iter
    (fun e ->
      if e.Ep.owner = act then
        match e.Ep.cfg with
        | Ep.Recv r -> n := !n + Queue.length r.Ep.pending
        | Ep.Invalid | Ep.Send _ | Ep.Mem _ -> ())
    t.eps;
  let cell = unread_cell t act in
  cell := !n;
  !n

let ext_drop_unread t ~act = Int_table.remove t.unread act

(* Credit inventory as seen by this DTU: credits sitting at send
   endpoints, plus refunds parked for Invalid slots or batched at shared
   rings (owed to senders but not yet granted).  Summed across all tiles
   at a quiescent instant this is conserved by migration — the test suite
   and the controller's migration assert both rely on it. *)
let ext_credit_inventory t =
  let n = ref 0 in
  Array.iter
    (fun e ->
      match e.Ep.cfg with
      | Ep.Send s -> n := !n + s.Ep.credits
      | Ep.Recv { Ep.batch = Some b; _ } -> n := !n + b.Ep.refund_total
      | Ep.Invalid | Ep.Recv _ | Ep.Mem _ -> ())
    t.eps;
  Hashtbl.iter (fun _ c -> n := !n + c) t.pending_refunds;
  !n

(* Reset every send endpoint targeting [dst_tile:dst_ep] to full credits;
   returns the number of credits reclaimed.  The controller uses this when
   tearing down a crashed activity: credits spent on messages the dead
   activity received but never acknowledged would otherwise be orphaned at
   its peers. *)
let ext_reclaim_credits t ~dst_tile ~dst_ep =
  let reclaimed = ref 0 in
  Array.iter
    (fun e ->
      match e.Ep.cfg with
      | Ep.Send s when s.Ep.dst_tile = dst_tile && s.Ep.dst_ep = dst_ep ->
          reclaimed := !reclaimed + (s.Ep.max_credits - s.Ep.credits);
          s.Ep.credits <- s.Ep.max_credits;
          Ep.check_credits ~ctx:"ext_reclaim_credits" s
      | _ -> ())
    t.eps;
  !reclaimed
