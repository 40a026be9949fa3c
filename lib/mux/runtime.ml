module Engine = M3v_sim.Engine
module Time = M3v_sim.Time
module Proc = M3v_sim.Proc
module Stats = M3v_sim.Stats
module Dtu = M3v_dtu.Dtu
module Dtu_types = M3v_dtu.Dtu_types
module Ep = M3v_dtu.Ep
module Msg = M3v_dtu.Msg
module Core_model = M3v_tile.Core_model
module Platform = M3v_tile.Platform
module Controller = M3v_kernel.Controller
module Proto = M3v_kernel.Protocol
module Trace = M3v_obs.Trace
module Metrics = M3v_obs.Metrics
module Fault = M3v_fault.Fault
open Dtu_types
open Act_ops

type mode = M3v_mode | M3x_mode

(* Page-fault message from TileMux to the pager service. *)
type Msg.data +=
  | Pf_fault of { pf_act : act_id; pf_vpage : int; pf_write : bool }

let () =
  M3v_sim.Checkpoint.register_exts [ [%extension_constructor Pf_fault] ]

type astate =
  | Ready  (** runnable, waiting in the run queue *)
  | Running
  | Stalled  (** core is polling a DTU command to completion *)
  | Blocked_recv  (** waiting for a message *)
  | Blocked_fault  (** waiting for the pager *)
  | Polling  (** current and spinning on its receive endpoints *)
  | Migrating  (** installed from a migration image, not yet resumed *)
  | Dead

type arec = {
  aid : act_id;
  aname : string;
  env : Act_api.env;
  program : Act_api.env -> unit Proc.t;
  premap : bool;
  addr : Addrspace.t;
  mutable st : astate;
  mutable resume : (unit -> unit) option;
  mutable slice_left : Time.t;
  mutable busy_ps : int;
  mutable bucket : string;
  mutable bucket_cell : Stats.Counter.cell;
      (** the ["bucket/" ^ bucket] cell of the owning runtime's counters,
          resolved when the bucket changes so that time charging neither
          concatenates nor hashes per charge *)
  mutable started : bool;
  mutable wake_sent : bool;
      (** M3x: a message reached the activity while it was blocked; cleared
          when it resumes *)
  mutable stall_since : Time.t;
  mutable wait_token : int;
      (** invalidates stale recv-deadline timers (fault injection) *)
  mutable cur_action : Proc.action option;
      (** the pure action whose interpretation is in progress — what a
          migration parks when the activity is blocked in a receive *)
  mutable mig_park : (Controller.mig_image option -> unit) option;
      (** pending quiesce: park at the next TMCall boundary *)
  mutable mig_action : Proc.action option;
      (** parked continuation to replay after a migration installs us *)
}

(* The migration image: everything runtime-independent about an activity.
   The [Proc] continuation inside [im_action] is pure by construction
   (response -> action), so replaying it on another tile's runtime is
   sound; everything tile-bound (the syscall channel endpoints, the env)
   is rebuilt at install time. *)
type Controller.mig_image +=
  | Image of {
      im_aid : act_id;
      im_name : string;
      im_program : Act_api.env -> unit Proc.t;
      im_premap : bool;
      im_addr : Addrspace.t;
      im_action : Proc.action option;  (** [None]: never started *)
      im_started : bool;
      im_busy_ps : int;
      im_bucket : string;
    }

let () = M3v_sim.Checkpoint.register_exts [ [%extension_constructor Image] ]

type t = {
  rmode : mode;
  rtile : int;
  engine : Engine.t;
  dtu : Dtu.t;
  core : Core_model.t;
  ctrl : Controller.t;
  timeslice : Time.t;
  acts : (act_id, arec) Hashtbl.t;
  mutable spawn_order : act_id list;
  runq : act_id Queue.t;
  mutable current : act_id option;
  mutable irq_pending : bool;
  mutable dispatch_pending : bool;
  (* TileMux's own communication (page-fault RPCs to the pager) *)
  tm_rgate : int;  (** valid in M3v mode *)
  mutable pager_sgate : int option;
  mutable tm_cont : (Msg.t -> unit) option;
  tm_queue : (Msg.data * int * (Msg.t -> unit)) Queue.t;
  mutable next_ppage : int;
  counters : Stats.Counter.t;
  (* The cells of [counters] that the event path bumps, resolved once. *)
  mux_cell : Stats.Counter.cell;  (** ["bucket/mux"] *)
  ctx_switch_cell : Stats.Counter.cell;
  core_req_cell : Stats.Counter.cell;
  poll_cell : Stats.Counter.cell;
  poll_wake_cell : Stats.Counter.cell;
  mx_block_cell : Stats.Counter.cell;
  mx_slow_send_cell : Stats.Counter.cell;
  mutable mux_busy_ps : int;
  mutable run_since : Time.t;  (** when the current activity got the core *)
  mutable wd_epoch : int;
      (** dispatch epoch; invalidates stale watchdog timers (fault
          injection) *)
}

let mode t = t.rmode
let tile t = t.rtile
let counters t = t.counters
let mux_busy t = t.mux_busy_ps

let find t aid =
  match Hashtbl.find_opt t.acts aid with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Runtime: unknown activity %d on tile %d" aid t.rtile)

let busy_of t aid = (find t aid).busy_ps

let bucket_key bucket = "bucket/" ^ bucket
let busy_of_bucket t bucket = Stats.Counter.get t.counters (bucket_key bucket)

let bucket_cell t bucket = Stats.Counter.cell t.counters (bucket_key bucket)

let set_bucket t (a : arec) bucket =
  if not (String.equal a.bucket bucket) then begin
    a.bucket <- bucket;
    a.bucket_cell <- bucket_cell t bucket
  end

let finished t aid = (find t aid).st = Dead

let all_finished t =
  Hashtbl.fold (fun _ a acc -> acc && a.st = Dead) t.acts true

(* --- time charging --- *)

let charge_act t (a : arec) cycles k =
  if cycles <= 0 then k ()
  else begin
    let d = Core_model.cycles t.core cycles in
    a.busy_ps <- a.busy_ps + d;
    Stats.Counter.bump a.bucket_cell d;
    Engine.after t.engine ~delay:d k
  end

(* Multiplexer bookkeeping time: accounted separately from activities. *)
let charge_mux t cycles k =
  if cycles <= 0 then k ()
  else begin
    let d = Core_model.cycles t.core cycles in
    t.mux_busy_ps <- t.mux_busy_ps + d;
    Stats.Counter.bump t.mux_cell d;
    Engine.after t.engine ~delay:d k
  end

(* Observability hooks: an activity's occupancy of the core is reported as
   one "run" span from dispatch to the point it yields/blocks/faults/exits
   (the profiler uses these spans to split receive-buffer waits into
   scheduling delay vs. switch cost), and each mux decision point bumps a
   per-tile metrics counter. *)
let obs_on () = Trace.on () || Metrics.on ()

let note_run_start t = if obs_on () then t.run_since <- Engine.now t.engine

let note_run_end t (a : arec) ~why =
  if obs_on () then begin
    let ts = t.run_since in
    let dur = Time.sub (Engine.now t.engine) ts in
    if Trace.on () then begin
      Trace.complete ~cat:"mux" ~name:"run" ~tile:t.rtile ~act:a.aid ~ts ~dur
        ~args:[ ("act", Trace.S a.aname); ("why", Trace.S why) ] ();
      Trace.latency_int "mux/run_span" dur
    end;
    if Metrics.on () then
      Metrics.observe ~name:"mux/run_ps" ~tile:t.rtile (float_of_int dur)
  end

let mux_instant t name =
  if Trace.on () then
    Trace.instant ~cat:"mux" ~name ~tile:t.rtile
      ~ts:(Engine.now t.engine) ();
  if Metrics.on () then
    Metrics.counter_incr ~name:("mux/" ^ name) ~tile:t.rtile ()

let note_stall_start (a : arec) ~now = a.stall_since <- now

let note_stall_end (a : arec) ~now =
  let d = Time.sub now a.stall_since in
  if d > 0 then begin
    a.busy_ps <- a.busy_ps + d;
    Stats.Counter.bump a.bucket_cell d
  end

(* --- scheduling --- *)

let others_ready t = not (Queue.is_empty t.runq)

let make_ready t (a : arec) =
  match a.st with
  | Blocked_recv | Blocked_fault ->
      a.st <- Ready;
      Queue.add a.aid t.runq
  | Ready | Running | Stalled | Polling | Migrating | Dead -> ()

let rec schedule_dispatch t =
  if t.rmode = M3v_mode && not t.dispatch_pending then begin
    t.dispatch_pending <- true;
    Engine.after t.engine ~delay:0 (fun () ->
        t.dispatch_pending <- false;
        do_dispatch t)
  end

and do_dispatch t =
  if t.current = None && Dtu.core_req_depth t.dtu > 0 then
    handle_core_reqs t ~k:(fun () -> do_dispatch t)
  else if t.current = None then
    match Queue.take_opt t.runq with
    | None -> () (* idle *)
    | Some aid -> (
        match Hashtbl.find_opt t.acts aid with
        | None -> do_dispatch t (* migrated away; stale queue entry *)
        | Some a -> (
        match a.st with
        | Ready ->
            a.st <- Running;
            t.current <- Some aid;
            Stats.Counter.bump t.ctx_switch_cell 1;
            mux_instant t "ctx_switch";
            (* Schedule + register/address-space switch + the vDTU's atomic
               activity-switch command (2 MMIO accesses). *)
            charge_mux t
              (t.core.Core_model.sched_cycles + t.core.Core_model.ctx_switch_cycles
             + (2 * t.core.Core_model.mmio_cycles))
              (fun () ->
                let old, old_unread = Dtu.switch_act t.dtu ~next:aid in
                (* Lost-wakeup check (paper, section 3.7): if the departing
                   activity accumulated messages while blocking, keep it
                   ready. *)
                (if (not (is_reserved_act old)) && old_unread > 0 then
                   match Hashtbl.find_opt t.acts old with
                   | Some oa when oa.st = Blocked_recv -> make_ready t oa
                   | Some _ | None -> ());
                a.slice_left <- t.timeslice;
                note_run_start t;
                arm_watchdog t a;
                resume_act t a)
        | Running | Stalled | Blocked_recv | Blocked_fault | Polling
        | Migrating | Dead ->
            (* Stale queue entry; try the next one. *)
            do_dispatch t))

and resume_act t (a : arec) =
  (* Any resume invalidates a pending recv-deadline timer for this wait. *)
  a.wait_token <- a.wait_token + 1;
  if not a.started then begin
    a.started <- true;
    exec t a (Proc.run (a.program a.env))
  end
  else
    match a.resume with
    | Some f ->
        a.resume <- None;
        f ()
    | None -> (
        match a.mig_action with
        | Some action ->
            (* First dispatch after a migration: replay the op the source
               parked.  The op never half-ran — parking happens at the
               boundary, and a blocked receive consumed nothing — so the
               replay is exactly-once. *)
            a.mig_action <- None;
            exec t a action
        | None ->
            failwith
              (Printf.sprintf
                 "Runtime: activity %s resumed without continuation" a.aname))

(* --- core requests (vDTU -> TileMux interrupts, M3v only) --- *)

and handle_core_reqs t ~k =
  let rec loop ~first =
    match Dtu.fetch_core_req t.dtu with
    | None -> k ()
    | Some target ->
        Stats.Counter.bump t.core_req_cell 1;
        let entry = if first then t.core.Core_model.trap_cycles else 0 in
        charge_mux t (entry + t.core.Core_model.core_req_cycles) (fun () ->
            if target = tilemux_act then
              handle_tm_msg t ~k:(fun () ->
                  Dtu.ack_core_req t.dtu;
                  loop ~first:false)
            else begin
              (match Hashtbl.find_opt t.acts target with
              | Some a -> make_ready t a
              | None -> ());
              Dtu.ack_core_req t.dtu;
              loop ~first:false
            end)
  in
  loop ~first:true

(* TileMux's own receive gate got a message: either a mapping request from
   the controller or a reply from the pager.  TileMux must switch the vDTU
   to its own activity id to use its endpoints (paper, section 4.2). *)
and handle_tm_msg t ~k =
  charge_mux t (2 * t.core.Core_model.mmio_cycles) (fun () ->
      let prev, _ = Dtu.switch_act t.dtu ~next:tilemux_act in
      let restore_and k =
        ignore (Dtu.switch_act t.dtu ~next:prev);
        k ()
      in
      match Dtu.fetch t.dtu ~ep:t.tm_rgate with
      | Ok (Some msg) -> (
          match msg.Msg.data with
          | Proto.Tm_map { tm_req_id; tm_act; tm_vpage; tm_ppage; tm_perm } ->
              (* Apply the page-table entry on behalf of the controller
                 (paper, section 4.3), then confirm. *)
              charge_mux t t.core.Core_model.translate_cycles (fun () ->
                  (match Hashtbl.find_opt t.acts tm_act with
                  | Some a ->
                      Addrspace.map a.addr ~vpage:tm_vpage ~ppage:tm_ppage
                        ~perm:tm_perm
                  | None -> ());
                  Dtu.reply t.dtu ~recv_ep:t.tm_rgate ~to_msg:msg ~msg_size:16
                    (Proto.Tm_map_done { tm_req_id })
                    ~k:(fun _ -> ());
                  restore_and k)
          | _ -> (
              ignore (Dtu.ack t.dtu ~ep:t.tm_rgate msg);
              match t.tm_cont with
              | Some f ->
                  t.tm_cont <- None;
                  restore_and (fun () ->
                      f msg;
                      tm_pump t;
                      k ())
              | None -> restore_and k))
      | Ok None | Error _ -> restore_and k)

(* Send one TileMux RPC at a time; queue the rest. *)
and tm_rpc t data ~size ~on_reply =
  match t.tm_cont with
  | Some _ -> Queue.add (data, size, on_reply) t.tm_queue
  | None -> tm_rpc_now t data ~size ~on_reply

and tm_rpc_now t data ~size ~on_reply =
  match t.pager_sgate with
  | None -> failwith "Runtime: page fault but no pager channel configured"
  | Some sgate ->
      Stats.Counter.incr t.counters "tm_rpc";
      mux_instant t "tm_rpc";
      t.tm_cont <- Some on_reply;
      charge_mux t
        ((2 * t.core.Core_model.mmio_cycles) + Core_model.cmd_overhead_cycles t.core)
        (fun () ->
          let rec attempt () =
            let prev, _ = Dtu.switch_act t.dtu ~next:tilemux_act in
            Dtu.send t.dtu ~ep:sgate ~reply_ep:t.tm_rgate ~msg_size:size data
              ~k:(fun result ->
                match result with
                | Ok () -> ()
                | Error Timeout ->
                    (* Fault injection lost the RPC on the wire (credit
                       refunded): reissue it. *)
                    Engine.after t.engine ~delay:(Time.us 2) attempt
                | Error e ->
                    failwith
                      ("Runtime: TileMux -> pager send failed: "
                      ^ Dtu_types.error_to_string e));
            (* The send command is short; switch straight back so the
               scheduled activity's endpoints are visible again. *)
            ignore (Dtu.switch_act t.dtu ~next:prev)
          in
          attempt ())

and tm_pump t =
  match Queue.take_opt t.tm_queue with
  | None -> ()
  | Some (data, size, on_reply) -> tm_rpc_now t data ~size ~on_reply

(* --- page faults and translation --- *)

and pagefault t (a : arec) ~vpage ~write ~k =
  Addrspace.note_fault a.addr;
  Stats.Counter.incr t.counters "fault";
  if Trace.on () then
    Trace.instant ~cat:"mux" ~name:"fault" ~tile:t.rtile ~act:a.aid
      ~ts:(Engine.now t.engine)
      ~args:[ ("vpage", Trace.I vpage); ("write", Trace.S (string_of_bool write)) ]
      ();
  if a.premap then begin
    (* Eagerly-mapped activities never reach the pager: TileMux installs a
       fresh frame directly (boot-time mapping shortcut). *)
    let ppage = t.next_ppage in
    t.next_ppage <- ppage + 1;
    charge_mux t t.core.Core_model.pagefault_cycles (fun () ->
        Addrspace.map a.addr ~vpage ~ppage ~perm:RW;
        k ())
  end
  else
    charge_act t a
      (t.core.Core_model.trap_cycles + t.core.Core_model.pagefault_cycles)
      (fun () ->
        a.st <- Blocked_fault;
        a.resume <- Some k;
        let was_current = t.current = Some a.aid in
        if was_current then begin
          note_run_end t a ~why:"fault";
          t.current <- None
        end;
        tm_rpc t
          (Pf_fault { pf_act = a.aid; pf_vpage = vpage; pf_write = write })
          ~size:24
          ~on_reply:(fun _msg ->
            let a = find t a.aid in
            make_ready t a;
            schedule_dispatch t);
        if was_current then schedule_dispatch t)

and tm_translate t (a : arec) ~vpage ~write ~k =
  charge_act t a
    (t.core.Core_model.trap_cycles + t.core.Core_model.translate_cycles)
    (fun () ->
      match Addrspace.translate a.addr ~vpage with
      | Some (ppage, perm) ->
          charge_mux t (2 * t.core.Core_model.mmio_cycles) (fun () ->
              Dtu.tlb_insert t.dtu ~act:a.aid ~vpage ~ppage ~perm;
              k ())
      | None ->
          pagefault t a ~vpage ~write ~k:(fun () ->
              match Addrspace.translate a.addr ~vpage with
              | Some (ppage, perm) ->
                  charge_mux t (2 * t.core.Core_model.mmio_cycles) (fun () ->
                      Dtu.tlb_insert t.dtu ~act:a.aid ~vpage ~ppage ~perm;
                      k ())
              | None -> failwith "Runtime: page still unmapped after fault"))

(* --- M3x control messages --- *)

and send_ctl t (a : arec) data ~k =
  charge_act t a (Core_model.cmd_overhead_cycles t.core) (fun () ->
      let ep = a.env.Act_api.sys_sgate in
      let rec attempt () = Dtu.send t.dtu ~ep ~msg_size:16 data ~k:complete
      and complete = function
        | Ok () -> k ()
        | Error (No_credits | Recv_gone | Timeout) ->
            (* Controller busy — or, under fault injection, the wire
               timed out (credit already refunded, so the first poll
               sends again): retry every 2 us. *)
            Dtu.spin_send t.dtu ~ep ~msg_size:16 ~poll_ps:(Time.us 2)
              ~on_poll:ignore ~on_settle:ignore attempt
        | Error No_such_ep when t.rmode = M3x_mode && t.current <> Some a.aid ->
            (* M3x took the blocked activity's endpoints while its wake
               waited for a credit; the take read the wake ([mx_woken]). *)
            k ()
        | Error e ->
            failwith
              ("Runtime: control message failed: "
              ^ Dtu_types.error_to_string e)
      in
      attempt ())

and mx_slow_send t (a : arec) ~ep ~reply_ep ~size ~data ~k =
  Stats.Counter.bump t.mx_slow_send_cell 1;
  match (Dtu.ext_read_ep t.dtu ~ep).Ep.cfg with
  | Ep.Send s ->
      let reply_to =
        match reply_ep with Some re -> Some (t.rtile, re) | None -> None
      in
      let fwd =
        Msg.make ~src_tile:t.rtile ~src_act:a.aid ~src_send_ep:ep
          ~label:s.Ep.label ?reply_to ~size data
      in
      send_ctl t a
        (Proto.Mx_fwd
           { fwd_dst_tile = s.Ep.dst_tile; fwd_dst_ep = s.Ep.dst_ep; fwd;
             fwd_block = false })
        ~k
  | Ep.Invalid | Ep.Recv _ | Ep.Mem _ ->
      failwith "Runtime: slow-path send on a non-send endpoint"

and mx_slow_reply t (a : arec) ~(to_msg : Msg.t) ~size ~data ~k =
  Stats.Counter.bump t.mx_slow_send_cell 1;
  match to_msg.Msg.reply_to with
  | None -> failwith "Runtime: slow-path reply without reply endpoint"
  | Some (dst_tile, dst_ep) ->
      let fwd =
        Msg.make ~src_tile:t.rtile ~src_act:a.aid ~label:to_msg.Msg.label
          ~size data
      in
      send_ctl t a
        (Proto.Mx_fwd
           { fwd_dst_tile = dst_tile; fwd_dst_ep = dst_ep; fwd; fwd_block = false })
        ~k

(* --- activity exit --- *)

and act_finished t (a : arec) ~code =
  if Trace.on () then
    Trace.instant ~cat:"mux" ~name:"act_exit" ~tile:t.rtile ~act:a.aid
      ~ts:(Engine.now t.engine)
      ~args:[ ("act", Trace.S a.aname); ("code", Trace.I code) ] ();
  send_ctl t a (Proto.Sys (Proto.Act_exit { code })) ~k:(fun () ->
      a.st <- Dead;
      Dtu.tlb_invalidate_act t.dtu a.aid;
      (* A quiesce that raced the exit loses: tell the migration protocol
         there is nothing left to move. *)
      (match a.mig_park with
      | Some park ->
          a.mig_park <- None;
          park None
      | None -> ());
      if t.current = Some a.aid then begin
        note_run_end t a ~why:"exit";
        t.current <- None;
        if t.rmode = M3v_mode then schedule_dispatch t
      end)

(* --- migration: parking --- *)

(* Park the activity for migration: strip it off this runtime entirely and
   hand its image to the controller.  [action] is the pure continuation to
   replay on the target ([None] if the program never started).  Runs at a
   TMCall boundary, so no DTU command is in flight and no op has
   half-executed. *)
and mig_park_now t (a : arec) action =
  a.wait_token <- a.wait_token + 1;
  let park =
    match a.mig_park with Some k -> k | None -> assert false
  in
  a.mig_park <- None;
  a.resume <- None;
  let was_current = t.current = Some a.aid in
  if was_current then begin
    note_run_end t a ~why:"migrate";
    t.current <- None
  end;
  Hashtbl.remove t.acts a.aid;
  t.spawn_order <- List.filter (fun id -> id <> a.aid) t.spawn_order;
  Stats.Counter.incr t.counters "mig_park";
  mux_instant t "mig_park";
  if was_current && t.rmode = M3v_mode then schedule_dispatch t;
  park
    (Some
       (Image
          {
            im_aid = a.aid;
            im_name = a.aname;
            im_program = a.program;
            im_premap = a.premap;
            im_addr = a.addr;
            im_action = action;
            im_started = a.started;
            im_busy_ps = a.busy_ps;
            im_bucket = a.bucket;
          }))

(* --- watchdog (fault injection only) ---

   TileMux's time-slice timer doubles as a liveness monitor: if the
   current activity has held the core for several slices without charging
   a single cycle, it is wedged (an injected hang) and is reaped with the
   conventional SIGKILL-style code 137.  A [Stalled] activity is waiting
   on a DTU command — the DTU's own retransmit ladder owns that case, so
   the watchdog only re-arms.  It never re-arms on [Polling]: the poll
   wake-up rearms, and a timer chain under an idle poller would keep the
   engine queue non-empty forever. *)

and arm_watchdog t (a : arec) =
  if t.rmode = M3v_mode && Fault.on () then begin
    t.wd_epoch <- t.wd_epoch + 1;
    let epoch = t.wd_epoch and aid = a.aid and busy0 = a.busy_ps in
    Engine.after t.engine ~delay:(8 * t.timeslice) (fun () ->
        watchdog_fire t ~aid ~epoch ~busy0)
  end

and watchdog_fire t ~aid ~epoch ~busy0 =
  if t.wd_epoch = epoch && t.current = Some aid then
    match Hashtbl.find_opt t.acts aid with
    | None -> ()
    | Some a -> (
        match a.st with
        | Running when a.busy_ps = busy0 ->
            Stats.Counter.incr t.counters "watchdog_kill";
            mux_instant t "watchdog_kill";
            act_finished t a ~code:137
        | Running | Stalled -> arm_watchdog t a
        | Ready | Blocked_recv | Blocked_fault | Polling | Migrating | Dead ->
            ())

(* --- the interpreter --- *)

and exec t (a : arec) (action : Proc.action) =
  if a.st = Dead then ()
  else
    match (a.mig_park, action) with
    | Some _, (Proc.Request _ as req) ->
        (* A migration is waiting for us to reach a TMCall boundary — this
           is one.  (A [Finished] action falls through: exit wins over
           migration, and [act_finished] reports the lost race.) *)
        mig_park_now t a (Some req)
    | _ ->
        if t.irq_pending && t.rmode = M3v_mode then begin
          t.irq_pending <- false;
          handle_core_reqs t ~k:(fun () -> exec_steps t a action)
        end
        else exec_steps t a action

and exec_steps t (a : arec) = function
  | Proc.Finished -> act_finished t a ~code:0
  | Proc.Request (op, k) as action ->
      (* Remember the op being interpreted: if the activity blocks inside
         it and a migration parks it there, the target replays exactly
         this action. *)
      a.cur_action <- Some action;
      interp t a op (fun resp -> exec t a (k resp))

and interp t (a : arec) op (k : Proc.resp -> unit) =
  (* Every TMCall boundary is a crash/hang injection point. *)
  if Fault.on () then
    match Fault.act_fate ~now:(Engine.now t.engine) ~tile:t.rtile ~act:a.aid with
    | Some Fault.Crash -> act_finished t a ~code:139
    | Some Fault.Hang ->
        (* The activity wedges mid-call: nothing continues it.  The
           watchdog detects the frozen core occupancy and reaps it. *)
        ()
    | None -> interp_op t a op k
  else interp_op t a op k

and interp_op t (a : arec) op (k : Proc.resp -> unit) =
  match op with
  | Op_compute cycles -> compute_chunks t a cycles k
  | Op_memcpy bytes -> compute_chunks t a (Core_model.memcpy_cycles t.core bytes) k
  | Op_now -> charge_act t a 6 (fun () -> k (R_time (Engine.now t.engine)))
  | Op_log line ->
      Stats.Counter.incr t.counters "log";
      ignore line;
      k Proc.Unit
  | Op_acct bucket ->
      set_bucket t a bucket;
      k Proc.Unit
  | Op_alloc_buf size ->
      let vaddr = Addrspace.alloc_region a.addr ~size in
      let first = page_of_addr vaddr in
      let last = page_of_addr (vaddr + (max size 1) - 1) in
      if a.premap then begin
        for vpage = first to last do
          let ppage = t.next_ppage in
          t.next_ppage <- ppage + 1;
          Addrspace.map a.addr ~vpage ~ppage ~perm:RW
        done;
        charge_act t a (4 * (last - first + 1)) (fun () -> k (R_vaddr vaddr))
      end
      else charge_act t a 4 (fun () -> k (R_vaddr vaddr))
  | Op_touch { t_vaddr; t_len; t_write } ->
      let first = page_of_addr t_vaddr in
      let last = page_of_addr (t_vaddr + max t_len 1 - 1) in
      let rec touch_page vpage =
        if vpage > last then k Proc.Unit
        else if Addrspace.is_mapped a.addr ~vpage then
          charge_act t a 2 (fun () -> touch_page (vpage + 1))
        else pagefault t a ~vpage ~write:t_write ~k:(fun () -> touch_page (vpage + 1))
      in
      touch_page first
  | Op_yield -> interp_yield t a k
  | Op_sleep d ->
      (* A pure timer wait (TMCall, like a blocking receive, but with no
         endpoints to watch): the activity blocks as idle occupancy and a
         timer makes it ready again at the deadline.  Simulated clients
         use this to pace request schedules without burning core time.
         The wait token pins the timer to this wait; any other resume
         turns a stale timer into a no-op. *)
      if t.rmode <> M3v_mode then failwith "Runtime: sleep is M3v-only";
      if d <= 0 then k Proc.Unit
      else
        charge_act t a t.core.Core_model.trap_cycles (fun () ->
            a.st <- Blocked_recv;
            a.resume <- Some (fun () -> k Proc.Unit);
            let token = a.wait_token and aid = a.aid in
            Engine.after t.engine ~delay:d (fun () ->
                match Hashtbl.find_opt t.acts aid with
                | Some a when a.wait_token = token && a.st = Blocked_recv ->
                    make_ready t a;
                    schedule_dispatch t
                | Some _ | None -> ());
            mux_instant t "sleep";
            note_run_end t a ~why:"sleep";
            t.current <- None;
            schedule_dispatch t)
  | Op_send { s_ep; s_reply_ep; s_vaddr; s_size; s_data } ->
      do_send t a ~ep:s_ep ~reply_ep:s_reply_ep ~vaddr:s_vaddr ~size:s_size
        ~data:s_data ~k
  | Op_reply { rp_recv_ep; rp_msg; rp_vaddr; rp_size; rp_data } ->
      do_reply t a ~recv_ep:rp_recv_ep ~msg:rp_msg ~vaddr:rp_vaddr ~size:rp_size
        ~data:rp_data ~k
  | Op_ack { a_ep; a_msg } ->
      (* Acking a shared-ring slot is one MMIO store (the ring's tail
         bump); a classic ack is a full DTU command round trip. *)
      let ack_cost =
        if Dtu.is_mpmc t.dtu ~ep:a_ep then t.core.Core_model.mmio_cycles
        else Core_model.cmd_overhead_cycles t.core
      in
      charge_act t a ack_cost (fun () ->
          match Dtu.ack t.dtu ~ep:a_ep a_msg with
          | Ok () -> k Proc.Unit
          | Error e -> failwith ("Runtime: ack failed: " ^ Dtu_types.error_to_string e))
  | Op_try_recv { tr_eps } ->
      charge_act t a (fetch_cost t tr_eps) (fun () ->
          k (R_msg_opt (fetch_first t tr_eps)))
  | Op_recv { r_eps; r_timeout } ->
      let deadline =
        match r_timeout with
        | Some d when t.rmode = M3v_mode && Fault.on () ->
            Some (Time.add (Engine.now t.engine) d)
        | Some _ | None -> None
      in
      recv_loop t a ?deadline r_eps k
  | Op_exit code -> act_finished t a ~code
  | Op_mem_read { mr_ep; mr_off; mr_len; mr_vaddr; mr_dst; mr_dst_off } ->
      do_dma t a ~write:false ~ep:mr_ep ~off:mr_off ~len:mr_len ~vaddr:mr_vaddr
        ~buf:mr_dst ~buf_off:mr_dst_off ~k
  | Op_mem_write { mw_ep; mw_off; mw_len; mw_vaddr; mw_src; mw_src_off } ->
      do_dma t a ~write:true ~ep:mw_ep ~off:mw_off ~len:mw_len ~vaddr:mw_vaddr
        ~buf:mw_src ~buf_off:mw_src_off ~k
  | _ -> failwith "Runtime: unknown operation"

and interp_yield t (a : arec) k =
  match t.rmode with
  | M3v_mode ->
      if others_ready t then
        charge_act t a t.core.Core_model.trap_cycles (fun () ->
            a.st <- Ready;
            a.resume <- Some (fun () -> k Proc.Unit);
            Queue.add a.aid t.runq;
            note_run_end t a ~why:"yield";
            t.current <- None;
            schedule_dispatch t)
      else charge_act t a t.core.Core_model.trap_cycles (fun () -> k Proc.Unit)
  | M3x_mode ->
      Stats.Counter.bump t.mx_block_cell 1;
      send_ctl t a Proto.Mx_yield ~k:(fun () ->
          a.st <- Blocked_recv;
          a.resume <- Some (fun () -> k Proc.Unit))

and compute_chunks t (a : arec) cycles k =
  if cycles <= 0 then k Proc.Unit
  else begin
    let slice_cycles =
      max 1 (Time.to_cycles ~ps_per_cycle:t.core.Core_model.ps_per_cycle a.slice_left)
    in
    let run = min cycles slice_cycles in
    charge_act t a run (fun () ->
        a.slice_left <-
          Time.sub a.slice_left (Core_model.cycles t.core run);
        let rest = cycles - run in
        let continue () =
          if a.slice_left <= 0 then
            if t.rmode = M3v_mode && others_ready t then begin
              (* Timer preemption: round-robin to the next activity. *)
              Stats.Counter.incr t.counters "preempt";
              mux_instant t "preempt";
              charge_mux t t.core.Core_model.trap_cycles (fun () ->
                  a.st <- Ready;
                  a.resume <-
                    Some (fun () -> compute_chunks t a rest k);
                  Queue.add a.aid t.runq;
                  note_run_end t a ~why:"preempt";
                  t.current <- None;
                  schedule_dispatch t)
            end
            else begin
              a.slice_left <- t.timeslice;
              compute_chunks t a rest k
            end
          else compute_chunks t a rest k
        in
        if t.irq_pending && t.rmode = M3v_mode then begin
          t.irq_pending <- false;
          handle_core_reqs t ~k:continue
        end
        else continue ())
  end

and fetch_cost t eps = t.core.Core_model.mmio_cycles * max 1 (min 2 (List.length eps))

and fetch_first t eps =
  let rec try_eps = function
    | [] -> None
    | ep :: rest -> (
        match Dtu.fetch t.dtu ~ep with
        | Ok (Some msg) -> Some (ep, msg)
        | Ok None | Error _ -> try_eps rest)
  in
  try_eps eps

and recv_loop t (a : arec) ?deadline eps k =
  charge_act t a (fetch_cost t eps) (fun () ->
      match fetch_first t eps with
      | Some (ep, msg) -> k (R_msg (ep, msg))
      | None ->
          let expired =
            match deadline with
            | Some d -> Engine.now t.engine >= d
            | None -> false
          in
          if expired then begin
            Stats.Counter.incr t.counters "recv_timeout";
            mux_instant t "recv_timeout";
            k R_recv_timeout
          end
          else (
          match t.rmode with
          | M3v_mode ->
              if others_ready t then
                (* TMCall: block until a message arrives (paper, 3.7). *)
                charge_act t a t.core.Core_model.trap_cycles (fun () ->
                    a.st <- Blocked_recv;
                    a.resume <- Some (fun () -> recv_loop t a ?deadline eps k);
                    arm_recv_deadline t a ?deadline ();
                    mux_instant t "block";
                    note_run_end t a ~why:"block";
                    t.current <- None;
                    schedule_dispatch t)
              else begin
                (* Nothing else to run: poll the vDTU (paper, 3.7).  The
                   wait is not charged to the activity's accounting
                   bucket: it is idle occupancy, not attributable work. *)
                Stats.Counter.bump t.poll_cell 1;
                a.st <- Polling;
                a.resume <- Some (fun () -> recv_loop t a ?deadline eps k);
                arm_recv_deadline t a ?deadline ()
              end
          | M3x_mode ->
              if Hashtbl.length t.acts = 1 then begin
                (* Sole activity on the tile: the core sleeps and the DTU
                   wakes it on message arrival, without the controller —
                   M3x retains the fast path while the recipient is
                   running (paper, section 2.2). *)
                Stats.Counter.bump t.poll_cell 1;
                a.st <- Polling;
                a.resume <- Some (fun () -> recv_loop t a eps k)
              end
              else begin
                Stats.Counter.bump t.mx_block_cell 1;
                a.st <- Blocked_recv;
                a.resume <- Some (fun () -> recv_loop t a eps k);
                send_ctl t a Proto.Mx_block ~k:(fun () -> ())
              end))

(* Wake a deadlined receiver if nothing arrived in time.  The token
   pins the timer to this particular wait: any resume bumps it, turning
   stale timers into no-ops.  On expiry the stored resume re-runs
   [recv_loop], which re-checks the endpoints (a message that raced the
   deadline still wins) before resolving to [R_recv_timeout]. *)
and arm_recv_deadline t (a : arec) ?deadline () =
  match deadline with
  | None -> ()
  | Some d ->
      let token = a.wait_token and aid = a.aid in
      let delay = max 0 (Time.sub d (Engine.now t.engine)) in
      Engine.after t.engine ~delay (fun () ->
          match Hashtbl.find_opt t.acts aid with
          | Some a when a.wait_token = token -> (
              match a.st with
              | Blocked_recv ->
                  make_ready t a;
                  schedule_dispatch t
              | Polling when t.current = Some aid ->
                  Stats.Counter.bump t.poll_wake_cell 1;
                  a.st <- Running;
                  arm_watchdog t a;
                  charge_act t a (2 * t.core.Core_model.mmio_cycles) (fun () ->
                      resume_act t a)
              | Ready | Running | Stalled | Blocked_fault | Polling
              | Migrating | Dead ->
                  ())
          | Some _ | None -> ())

and do_send t (a : arec) ~ep ~reply_ep ~vaddr ~size ~data ~k =
  (* Captured before the MMIO charge so the flow's sender-command segment
     covers command overhead and any credit-stall spins. *)
  let issue_ts = Engine.now t.engine in
  charge_act t a (Core_model.cmd_overhead_cycles t.core) (fun () ->
      (* [attempt] and [complete] are one closure, allocated once per
         send: no attempt allocates its own completion. *)
      let rec attempt () =
        a.st <- Stalled;
        note_stall_start a ~now:(Engine.now t.engine);
        Dtu.send t.dtu ~ep ?reply_ep ?src_vaddr:vaddr ~issue_ts ~msg_size:size
          data ~k:complete
      and complete result =
        note_stall_end a ~now:(Engine.now t.engine);
        a.st <- Running;
        match result with
        | Ok () -> k Proc.Unit
        | Error (Translation_fault vpage) ->
            tm_translate t a ~vpage ~write:false ~k:attempt
        | Error No_credits ->
            (* Out of credits: spin until the receiver acknowledges.  Each
               poll and each failed completion does what a real attempt
               does around [Dtu.send], so the watchdog and the bucket
               counters see the same stall. *)
            Dtu.spin_send t.dtu ~ep ?src_vaddr:vaddr ~msg_size:size
              ~poll_ps:(Time.us 2)
              ~on_poll:(fun () ->
                a.st <- Stalled;
                note_stall_start a ~now:(Engine.now t.engine))
              ~on_settle:(fun () ->
                note_stall_end a ~now:(Engine.now t.engine);
                a.st <- Running)
              attempt
        | Error Recv_gone when t.rmode = M3x_mode ->
            mx_slow_send t a ~ep ~reply_ep ~size ~data ~k:(fun () -> k Proc.Unit)
        | Error (Recv_gone | Timeout) when t.rmode = M3v_mode && Fault.on () ->
            (* The peer died or the wire gave up: EOF semantics — the
               send is dropped and the program carries on (it observes
               the failure at the protocol level, e.g. a reply
               deadline). *)
            Stats.Counter.incr t.counters "send_eof";
            mux_instant t "send_eof";
            k Proc.Unit
        | Error e ->
            failwith ("Runtime: send failed: " ^ Dtu_types.error_to_string e)
      in
      attempt ())

and do_reply t (a : arec) ~recv_ep ~msg ~vaddr ~size ~data ~k =
  let issue_ts = Engine.now t.engine in
  charge_act t a (Core_model.cmd_overhead_cycles t.core) (fun () ->
      let rec attempt () =
        a.st <- Stalled;
        note_stall_start a ~now:(Engine.now t.engine);
        Dtu.reply t.dtu ~recv_ep ~to_msg:msg ?src_vaddr:vaddr ~issue_ts
          ~msg_size:size data
          ~k:(fun result ->
            note_stall_end a ~now:(Engine.now t.engine);
            a.st <- Running;
            match result with
            | Ok () -> k Proc.Unit
            | Error (Translation_fault vpage) ->
                tm_translate t a ~vpage ~write:false ~k:attempt
            | Error Recv_gone when t.rmode = M3x_mode ->
                mx_slow_reply t a ~to_msg:msg ~size ~data ~k:(fun () -> k Proc.Unit)
            | Error (Recv_gone | Timeout) when t.rmode = M3v_mode && Fault.on () ->
                (* Replying to a dead client: drop it (EOF semantics). *)
                Stats.Counter.incr t.counters "send_eof";
                mux_instant t "send_eof";
                k Proc.Unit
            | Error e ->
                failwith ("Runtime: reply failed: " ^ Dtu_types.error_to_string e))
      in
      attempt ())

and do_dma t (a : arec) ~write ~ep ~off ~len ~vaddr ~buf ~buf_off ~k =
  charge_act t a (Core_model.cmd_overhead_cycles t.core) (fun () ->
      let rec attempt () =
        a.st <- Stalled;
        note_stall_start a ~now:(Engine.now t.engine);
        let complete result =
          note_stall_end a ~now:(Engine.now t.engine);
          a.st <- Running;
          match result with
          | Ok () -> k Proc.Unit
          | Error (Translation_fault vpage) ->
              tm_translate t a ~vpage ~write:(not write) ~k:attempt
          | Error Timeout ->
              (* The DTU's retransmit ladder gave up on this transfer;
                 reissue the whole (idempotent) command. *)
              attempt ()
          | Error e ->
              failwith
                (Printf.sprintf
                   "Runtime: DMA %s failed on tile %d (act %s, ep %d, off %#x, len %d): %s"
                   (if write then "write" else "read")
                   t.rtile a.aname ep off len
                   (Dtu_types.error_to_string e))
        in
        if write then
          Dtu.mem_write t.dtu ~ep ~off ~len ~src_vaddr:vaddr ~src:buf
            ~src_off:buf_off ~k:complete
        else
          Dtu.mem_read t.dtu ~ep ~off ~len ~dst_vaddr:vaddr ~dst:buf
            ~dst_off:buf_off ~k:complete
      in
      attempt ())

(* --- wakeups --- *)

let on_msg_arrived t owner =
  match Hashtbl.find_opt t.acts owner with
  | None -> ()
  | Some a ->
      if t.current = Some owner && a.st = Polling then begin
        Stats.Counter.bump t.poll_wake_cell 1;
        mux_instant t "wake";
        a.st <- Running;
        arm_watchdog t a;
        (* Detecting the message costs a couple of MMIO reads. *)
        charge_act t a (2 * t.core.Core_model.mmio_cycles) (fun () ->
            resume_act t a)
      end
      else if t.rmode = M3x_mode && a.st = Blocked_recv && not a.wake_sent
      then begin
        (* Off the core, the activity is being switched in or out: the
           switch-in resumes it, and the switch-out's take reads the flag
           ([mx_woken]). *)
        a.wake_sent <- true;
        if t.current = Some owner then
          send_ctl t a Proto.Mx_wake ~k:(fun () -> ())
      end

let on_core_req_irq t =
  match t.current with
  | None -> handle_core_reqs t ~k:(fun () -> schedule_dispatch t)
  | Some aid -> (
      let a = find t aid in
      match a.st with
      | Polling ->
          (* The poller is interruptible; if the interrupt readied another
             activity, the poller goes back to blocking and we switch. *)
          handle_core_reqs t ~k:(fun () ->
              if others_ready t && a.st = Polling then begin
                a.st <- Blocked_recv;
                note_run_end t a ~why:"irq";
                t.current <- None;
                schedule_dispatch t
              end)
      | Running | Stalled | Ready | Blocked_recv | Blocked_fault | Migrating
      | Dead ->
          t.irq_pending <- true)

(* --- crash recovery: restart a dead service activity --- *)

(* Re-run a dead activity's program from the top on the same activity id.
   Its endpoints, capabilities and address space are untouched — service
   programs capture their gates by reference, so requests already sitting
   in the receive gate are processed after the restart.  Invoked by the
   controller's restart policy. *)
let respawn t ~act =
  let a = find t act in
  if a.st <> Dead then
    invalid_arg
      (Printf.sprintf "Runtime.respawn: activity %s is not dead" a.aname);
  a.st <- Ready;
  a.resume <- None;
  a.slice_left <- t.timeslice;
  a.started <- false;
  a.wake_sent <- false;
  a.wait_token <- a.wait_token + 1;
  Stats.Counter.incr t.counters "respawn";
  mux_instant t "respawn";
  Queue.add a.aid t.runq;
  if t.rmode = M3v_mode then schedule_dispatch t

(* --- migration stub (M3v) --- *)

let mig_quiesce t ~act ~k =
  match Hashtbl.find_opt t.acts act with
  | None -> k None
  | Some a -> (
      match a.st with
      | Dead -> k None
      | (Blocked_recv | Ready) when not a.started ->
          (* Never ran: nothing to park beyond the program itself. *)
          a.mig_park <- Some k;
          mig_park_now t a None
      | Blocked_recv | Polling ->
          (* Blocked inside a receive that consumed nothing: park the
             recorded [Op_recv] action and replay it on the target. *)
          a.mig_park <- Some k;
          mig_park_now t a a.cur_action
      | Ready | Running | Stalled | Blocked_fault | Migrating ->
          (* Mid-op (or mid-pager-round-trip): park at the next TMCall
             boundary the interpreter reaches. *)
          a.mig_park <- Some k)

let mig_install t ~image ~sys_sgate ~sys_rgate =
  match image with
  | Image
      {
        im_aid;
        im_name;
        im_program;
        im_premap;
        im_addr;
        im_action;
        im_started;
        im_busy_ps;
        im_bucket;
      } ->
      let env = { Act_api.aid = im_aid; tile = t.rtile; sys_sgate; sys_rgate } in
      let a =
        {
          aid = im_aid;
          aname = im_name;
          env;
          program = im_program;
          premap = im_premap;
          addr = im_addr;
          st = Migrating;
          resume = None;
          slice_left = t.timeslice;
          busy_ps = im_busy_ps;
          bucket = im_bucket;
          bucket_cell = bucket_cell t im_bucket;
          started = im_started;
          wake_sent = false;
          stall_since = Time.zero;
          wait_token = 0;
          cur_action = im_action;
          mig_park = None;
          mig_action = im_action;
        }
      in
      Hashtbl.replace t.acts im_aid a;
      t.spawn_order <- t.spawn_order @ [ im_aid ];
      Stats.Counter.incr t.counters "mig_install";
      mux_instant t "mig_install"
  | _ -> invalid_arg "Runtime: foreign migration image"

let mig_resume t ~act =
  let a = find t act in
  if a.st <> Migrating then
    invalid_arg
      (Printf.sprintf "Runtime.mig_resume: activity %s is not parked" a.aname);
  a.st <- Ready;
  Queue.add a.aid t.runq;
  Stats.Counter.incr t.counters "mig_resume";
  mux_instant t "mig_resume";
  if t.rmode = M3v_mode then schedule_dispatch t

let install_mig_stub t =
  Controller.register_mig_stub t.ctrl ~tile:t.rtile
    {
      Controller.mig_quiesce = (fun ~act ~k -> mig_quiesce t ~act ~k);
      mig_install =
        (fun ~image ~sys_sgate ~sys_rgate ->
          mig_install t ~image ~sys_sgate ~sys_rgate);
      mig_resume = (fun ~act -> mig_resume t ~act);
    }

(* --- M3x stub --- *)

let mx_resume_act t (a : arec) =
  a.wake_sent <- false;
  if not a.started then begin
    a.started <- true;
    a.st <- Running;
    exec t a (Proc.run (a.program a.env))
  end
  else begin
    a.st <- Running;
    match a.resume with
    | Some f ->
        a.resume <- None;
        f ()
    | None -> ()
  end

let install_mx_stub t =
  let stub =
    {
      Controller.mx_save =
        (fun ~k ->
          charge_mux t (t.core.Core_model.ctx_switch_cycles / 2) (fun () ->
              (match t.current with
              | Some aid -> note_run_end t (find t aid) ~why:"mx_save"
              | None -> ());
              t.current <- None;
              k ()));
      Controller.mx_restore =
        (fun aid ~k ->
          let a = find t aid in
          if t.current = Some aid then
            (* Light resume: the activity's endpoints are already live. *)
            charge_mux t t.core.Core_model.trap_cycles (fun () ->
                mx_resume_act t a;
                k ())
          else begin
            Stats.Counter.bump t.ctx_switch_cell 1;
            mux_instant t "ctx_switch";
            charge_mux t (t.core.Core_model.ctx_switch_cycles / 2) (fun () ->
                t.current <- Some aid;
                note_run_start t;
                mx_resume_act t a;
                k ())
          end);
      Controller.mx_woken = (fun aid -> (Hashtbl.find t.acts aid).wake_sent);
    }
  in
  Controller.register_mx_stub t.ctrl ~tile:t.rtile stub

(* --- construction --- *)

let create ~mode ~controller ~tile ?(timeslice = Time.ms 1) () =
  let platform = Controller.platform controller in
  let engine = Platform.engine platform in
  let dtu = Platform.dtu platform tile in
  let core = Platform.core_exn platform tile in
  let tm_rgate =
    match mode with
    | M3v_mode ->
        let ep = Controller.host_alloc_ep_anon controller ~tile in
        Dtu.ext_config dtu ~ep ~owner:tilemux_act
          (Ep.recv_config ~slots:16 ~slot_size:256 ());
        Controller.register_tm_rgate controller ~tile ~ep;
        ep
    | M3x_mode -> -1
  in
  let counters = Stats.Counter.create () in
  let cell = Stats.Counter.cell counters in
  let t =
    {
      rmode = mode;
      rtile = tile;
      engine;
      dtu;
      core;
      ctrl = controller;
      timeslice;
      acts = Hashtbl.create 8;
      spawn_order = [];
      runq = Queue.create ();
      current = None;
      irq_pending = false;
      dispatch_pending = false;
      tm_rgate;
      pager_sgate = None;
      tm_cont = None;
      tm_queue = Queue.create ();
      next_ppage = 0x1000;
      counters;
      mux_cell = cell "bucket/mux";
      ctx_switch_cell = cell "ctx_switch";
      core_req_cell = cell "core_req";
      poll_cell = cell "poll";
      poll_wake_cell = cell "poll_wake";
      mx_block_cell = cell "mx_block";
      mx_slow_send_cell = cell "mx_slow_send";
      mux_busy_ps = 0;
      run_since = Time.zero;
      wd_epoch = 0;
    }
  in
  Dtu.set_msg_arrived dtu (fun owner -> on_msg_arrived t owner);
  Dtu.set_core_req_irq dtu (fun () -> on_core_req_irq t);
  (match mode with
  | M3x_mode -> install_mx_stub t
  | M3v_mode ->
      Controller.register_restart_hook controller ~tile (fun act ->
          respawn t ~act);
      install_mig_stub t);
  t

let spawn t ~name ?(premap = true) ~program () =
  if t.rmode = M3x_mode && not premap then
    invalid_arg "Runtime.spawn: M3x supports only eagerly-mapped activities";
  let aid = Controller.host_new_act t.ctrl ~tile:t.rtile ~name in
  let sys_sgate, sys_rgate = Controller.host_setup_syscall_channel t.ctrl ~act:aid in
  let env = { Act_api.aid; tile = t.rtile; sys_sgate; sys_rgate } in
  let a =
    {
      aid;
      aname = name;
      env;
      program;
      premap;
      addr = Addrspace.create ();
      st = Blocked_recv;
      resume = None;
      slice_left = t.timeslice;
      busy_ps = 0;
      bucket = "user";
      bucket_cell = bucket_cell t "user";
      started = false;
      wake_sent = false;
      stall_since = Time.zero;
      wait_token = 0;
      cur_action = None;
      mig_park = None;
      mig_action = None;
    }
  in
  Hashtbl.replace t.acts aid a;
  t.spawn_order <- t.spawn_order @ [ aid ];
  (aid, env)

let set_pager_sgate t ep = t.pager_sgate <- Some ep

let boot t =
  match t.rmode with
  | M3v_mode ->
      List.iter
        (fun aid ->
          let a = find t aid in
          if a.st = Blocked_recv && not a.started then begin
            a.st <- Ready;
            Queue.add aid t.runq
          end)
        t.spawn_order;
      schedule_dispatch t
  | M3x_mode ->
      List.iter
        (fun aid -> Controller.mx_register_act t.ctrl ~act:aid)
        t.spawn_order;
      Controller.mx_kick t.ctrl ~tile:t.rtile
