module Engine = M3v_sim.Engine
module Time = M3v_sim.Time
module Proc = M3v_sim.Proc
module Int_table = M3v_sim.Int_table
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
  | Migrating
      (** parked by a migration: taken off the source tile, or installed
          on the target and not yet resumed *)
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
      (** invalidates stale sleep and recv-deadline timers *)
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
   is rebuilt at install time.  [spawn] installs a fresh image. *)
type image = {
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

type Controller.mig_image += Image of image

let () = M3v_sim.Checkpoint.register_exts [ [%extension_constructor Image] ]

type t = {
  rmode : mode;
  rtile : int;
  engine : Engine.t;
  dtu : Dtu.t;
  core : Core_model.t;
  ctrl : Controller.t;
  timeslice : Time.t;
  acts : arec Int_table.t;
      (** by id, for the ids the vDTU and the controller hand over *)
  mutable spawn_order : arec list;
  runq : arec Queue.t;
  mutable current : arec option;
  mutable irq_pending : bool;
  mutable dispatch_pending : bool;
  mutable core_req_loop : bool;  (** a [handle_core_reqs] loop is running *)
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
  mutable run_since : Time.t;  (** when the current activity got the core *)
  mutable wd_epoch : int;
      (** dispatch epoch; invalidates stale watchdog timers (fault
          injection) *)
}

let mode t = t.rmode
let tile t = t.rtile
let counters t = t.counters

let find t aid =
  match Int_table.find_opt t.acts aid with
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
let all_finished t = List.for_all (fun a -> a.st = Dead) t.spawn_order

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

(* The core stalls on a DTU command of [a], and stops: the stall is
   charged to [a]. *)
let stall_start t (a : arec) =
  a.st <- Stalled;
  a.stall_since <- Engine.now t.engine

let stall_end t (a : arec) =
  let d = Time.sub (Engine.now t.engine) a.stall_since in
  if d > 0 then begin
    a.busy_ps <- a.busy_ps + d;
    Stats.Counter.bump a.bucket_cell d
  end;
  a.st <- Running

(* --- scheduling --- *)

let others_ready t = not (Queue.is_empty t.runq)

let is_current t (a : arec) =
  match t.current with Some c -> c == a | None -> false

let enqueue t (a : arec) =
  a.st <- Ready;
  Queue.add a t.runq

(* [a] gives the core up; the caller decides when the dispatcher runs. *)
let off_core t (a : arec) ~why =
  note_run_end t a ~why;
  t.current <- None

(* [a] becomes runnable.  A current activity that only polls gives the
   core up to it, whatever woke it: a core request, a timer, a restart or
   a migration (paper, section 3.7).  The caller runs the dispatcher. *)
let wake t (a : arec) =
  enqueue t a;
  match t.current with
  | Some p when p.st = Polling ->
      p.st <- Blocked_recv;
      off_core t p ~why:"irq"
  | Some _ | None -> ()

let make_ready t (a : arec) =
  match a.st with
  | Blocked_recv | Blocked_fault -> wake t a
  | Ready | Running | Stalled | Polling | Migrating | Dead -> ()

let rec schedule_dispatch t =
  if t.rmode = M3v_mode && not t.dispatch_pending then begin
    t.dispatch_pending <- true;
    Engine.after t.engine ~delay:0 (fun () ->
        t.dispatch_pending <- false;
        do_dispatch t)
  end

and do_dispatch t =
  (* A running core-request loop dispatches when it ends. *)
  if t.current <> None || t.core_req_loop then ()
  else if Dtu.core_req_depth t.dtu > 0 then
    handle_core_reqs t ~k:(fun () -> do_dispatch t)
  else
    match Queue.take_opt t.runq with
    | None -> () (* idle *)
    | Some a when a.st <> Ready ->
        (* Stale entry (a migration parked the activity); try the next. *)
        do_dispatch t
    | Some a ->
        a.st <- Running;
        t.current <- Some a;
        Stats.Counter.bump t.ctx_switch_cell 1;
        mux_instant t "ctx_switch";
        (* Schedule + register/address-space switch + the vDTU's atomic
           activity-switch command (2 MMIO accesses). *)
        charge_mux t
          (t.core.Core_model.sched_cycles + t.core.Core_model.ctx_switch_cycles
         + (2 * t.core.Core_model.mmio_cycles))
          (fun () ->
            let old, old_unread = Dtu.switch_act t.dtu ~next:a.aid in
            (* Lost-wakeup check (paper, section 3.7): if the departing
               activity accumulated messages while blocking, keep it
               ready. *)
            (if (not (is_reserved_act old)) && old_unread > 0 then
               match Int_table.find_opt t.acts old with
               | Some oa when oa.st = Blocked_recv -> wake t oa
               | Some _ | None -> ());
            a.slice_left <- t.timeslice;
            note_run_start t;
            arm_watchdog t a;
            resume_act t a)

(* [a] gives the core up, and the dispatcher picks the next activity. *)
and leave_core t (a : arec) ~why =
  off_core t a ~why;
  schedule_dispatch t

(* The current activity was polling and its wait is over (a message
   arrived or its deadline passed): noticing costs a couple of MMIO
   reads, then it resumes. *)
and poll_wake t (a : arec) =
  Stats.Counter.bump t.poll_wake_cell 1;
  a.st <- Running;
  arm_watchdog t a;
  charge_act t a (2 * t.core.Core_model.mmio_cycles) (fun () -> resume_act t a)

(* Continue [a], which the caller made [Running]: start its program, run
   its stored continuation or, on its first dispatch after a migration,
   replay the op the source parked. *)
and resume_act t (a : arec) =
  (* Any resume invalidates a pending timer for this wait. *)
  a.wait_token <- a.wait_token + 1;
  a.wake_sent <- false;
  if not a.started then begin
    a.started <- true;
    exec t a (Proc.run (a.program a.env))
  end
  else
    match (a.resume, a.mig_action) with
    | Some f, _ ->
        a.resume <- None;
        f ()
    | None, Some action ->
        (* The op never half-ran — parking happens at the boundary, and a
           blocked receive consumed nothing — so the replay is
           exactly-once. *)
        a.mig_action <- None;
        exec t a action
    | None, None ->
        (* M3x: a restore that finds nothing waiting to run is a no-op. *)
        if t.rmode = M3v_mode then
          failwith
            (Printf.sprintf
               "Runtime: activity %s resumed without continuation" a.aname)

(* --- core requests (vDTU -> TileMux interrupts, M3v only) --- *)

(* Handle the queued core requests, then continue with [k].  One loop runs
   at a time: two loops would peek the same request and handle it twice,
   and the second ack would drop the request behind it.  A call that
   finds a loop running (the vDTU re-raised the interrupt while the loop
   charges for its next request) continues with [k] at once. *)
and handle_core_reqs t ~k =
  let rec loop ~first =
    match Dtu.fetch_core_req t.dtu with
    | None ->
        t.core_req_loop <- false;
        k ()
    | Some target ->
        Stats.Counter.bump t.core_req_cell 1;
        let entry = if first then t.core.Core_model.trap_cycles else 0 in
        charge_mux t (entry + t.core.Core_model.core_req_cycles) (fun () ->
            if target = tilemux_act then
              handle_tm_msg t ~k:(fun () ->
                  Dtu.ack_core_req t.dtu;
                  loop ~first:false)
            else begin
              (match Int_table.find_opt t.acts target with
              | Some a -> make_ready t a
              | None -> ());
              Dtu.ack_core_req t.dtu;
              loop ~first:false
            end)
  in
  if t.core_req_loop then k ()
  else begin
    t.core_req_loop <- true;
    loop ~first:true
  end

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
                  (match Int_table.find_opt t.acts tm_act with
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
        if is_current t a then leave_core t a ~why:"fault";
        tm_rpc t
          (Pf_fault { pf_act = a.aid; pf_vpage = vpage; pf_write = write })
          ~size:24
          ~on_reply:(fun _msg ->
            make_ready t a;
            schedule_dispatch t))

and tm_translate t (a : arec) ~vpage ~write ~k =
  charge_act t a
    (t.core.Core_model.trap_cycles + t.core.Core_model.translate_cycles)
    (fun () ->
      if Addrspace.is_mapped a.addr ~vpage then tlb_fill t a ~vpage ~k
      else pagefault t a ~vpage ~write ~k:(fun () -> tlb_fill t a ~vpage ~k))

(* Insert [a]'s mapping of [vpage] into the vDTU's TLB. *)
and tlb_fill t (a : arec) ~vpage ~k =
  match Addrspace.translate a.addr ~vpage with
  | Some (ppage, perm) ->
      charge_mux t (2 * t.core.Core_model.mmio_cycles) (fun () ->
          Dtu.tlb_insert t.dtu ~act:a.aid ~vpage ~ppage ~perm;
          k ())
  | None -> failwith "Runtime: page still unmapped after fault"

(* --- M3x control messages --- *)

and send_ctl t (a : arec) data ~k =
  charge_act t a (Core_model.cmd_overhead_cycles t.core) (fun () ->
      let ep = a.env.Act_api.sys_sgate in
      let rec complete = function
        | Ok () -> k ()
        | Error (No_credits | Recv_gone | Timeout) ->
            (* Controller busy — or, under fault injection, the wire
               timed out (credit already refunded, so the first poll
               sends again): retry every 2 us. *)
            Dtu.spin_send t.dtu ~ep ~msg_size:16 data ~poll_ps:(Time.us 2)
              ~on_poll:ignore ~on_settle:ignore ~k:complete
        | Error No_such_ep when t.rmode = M3x_mode && not (is_current t a) ->
            (* M3x took the blocked activity's endpoints while its wake
               waited for a credit; the take read the wake ([mx_woken]). *)
            k ()
        | Error e ->
            failwith
              ("Runtime: control message failed: "
              ^ Dtu_types.error_to_string e)
      in
      Dtu.send t.dtu ~ep ~msg_size:16 data ~k:complete)

(* M3x slow path: the receiver of [a]'s send or reply [op] is switched
   out, so the controller forwards the message.  The failed SEND refunded
   its credit, so the forward carries none: its ack or reply grants
   nothing back. *)
and mx_forward t (a : arec) op ~k =
  Stats.Counter.bump t.mx_slow_send_cell 1;
  let fwd =
    match op with
    | Op_send { s_ep; s_reply_ep; s_size; s_data; _ } -> (
        match (Dtu.ext_read_ep t.dtu ~ep:s_ep).Ep.cfg with
        | Ep.Send s ->
            let reply_to =
              match s_reply_ep with Some re -> Some (t.rtile, re) | None -> None
            in
            let fwd =
              Msg.make ~src_tile:t.rtile ~src_act:a.aid ~label:s.Ep.label
                ?reply_to ~size:s_size s_data
            in
            Proto.Mx_fwd
              { fwd_dst_tile = s.Ep.dst_tile; fwd_dst_ep = s.Ep.dst_ep; fwd }
        | Ep.Invalid | Ep.Recv _ | Ep.Mem _ ->
            failwith "Runtime: slow-path send on a non-send endpoint")
    | Op_reply { rp_msg; rp_size; rp_data; _ } -> (
        match rp_msg.Msg.reply_to with
        | None -> failwith "Runtime: slow-path reply without reply endpoint"
        | Some (dst_tile, dst_ep) ->
            let fwd =
              Msg.make ~src_tile:t.rtile ~src_act:a.aid ~label:rp_msg.Msg.label
                ~size:rp_size rp_data
            in
            Proto.Mx_fwd { fwd_dst_tile = dst_tile; fwd_dst_ep = dst_ep; fwd })
    | _ -> invalid_arg "Runtime: slow path for a command that is not a message"
  in
  send_ctl t a fwd ~k

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
      if is_current t a then leave_core t a ~why:"exit")

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
  a.st <- Migrating;
  if is_current t a then leave_core t a ~why:"migrate";
  Int_table.remove t.acts a.aid;
  t.spawn_order <- List.filter (fun b -> b != a) t.spawn_order;
  Stats.Counter.incr t.counters "mig_park";
  mux_instant t "mig_park";
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
    let epoch = t.wd_epoch and busy0 = a.busy_ps in
    Engine.after t.engine ~delay:(8 * t.timeslice) (fun () ->
        watchdog_fire t a ~epoch ~busy0)
  end

and watchdog_fire t (a : arec) ~epoch ~busy0 =
  if t.wd_epoch = epoch && is_current t a then
    match a.st with
    | Running when a.busy_ps = busy0 ->
        Stats.Counter.incr t.counters "watchdog_kill";
        mux_instant t "watchdog_kill";
        act_finished t a ~code:137
    | Running | Stalled -> arm_watchdog t a
    | Ready | Blocked_recv | Blocked_fault | Polling | Migrating | Dead -> ()

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
        if t.irq_pending then begin
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
         timer wakes it at the deadline.  Simulated clients use this to
         pace request schedules without burning core time. *)
      if t.rmode <> M3v_mode then failwith "Runtime: sleep is M3v-only";
      if d <= 0 then k Proc.Unit
      else
        charge_act t a t.core.Core_model.trap_cycles (fun () ->
            a.st <- Blocked_recv;
            a.resume <- Some (fun () -> k Proc.Unit);
            arm_wait_timer t a ~delay:d;
            mux_instant t "sleep";
            leave_core t a ~why:"sleep")
  | Op_send _ | Op_reply _ | Op_mem_read _ | Op_mem_write _ -> dtu_cmd t a op k
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
  | _ -> failwith "Runtime: unknown operation"

and interp_yield t (a : arec) k =
  match t.rmode with
  | M3v_mode ->
      if others_ready t then
        charge_act t a t.core.Core_model.trap_cycles (fun () ->
            a.resume <- Some (fun () -> k Proc.Unit);
            enqueue t a;
            leave_core t a ~why:"yield")
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
            (* Only M3v fills the run queue; M3x switches through the
               controller. *)
            if others_ready t then begin
              (* Timer preemption: round-robin to the next activity. *)
              Stats.Counter.incr t.counters "preempt";
              mux_instant t "preempt";
              charge_mux t t.core.Core_model.trap_cycles (fun () ->
                  a.resume <-
                    Some (fun () -> compute_chunks t a rest k);
                  enqueue t a;
                  leave_core t a ~why:"preempt")
            end
            else begin
              a.slice_left <- t.timeslice;
              compute_chunks t a rest k
            end
          else compute_chunks t a rest k
        in
        if t.irq_pending then begin
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
          else begin
            a.resume <- Some (fun () -> recv_loop t a ?deadline eps k);
            if t.rmode = M3v_mode && others_ready t then
              (* TMCall: block until a message arrives (paper, 3.7). *)
              charge_act t a t.core.Core_model.trap_cycles (fun () ->
                  a.st <- Blocked_recv;
                  arm_recv_deadline t a ?deadline ();
                  mux_instant t "block";
                  leave_core t a ~why:"block")
            else if t.rmode = M3v_mode || Int_table.length t.acts = 1 then begin
              (* Nothing else to run (M3v), or the sole activity on an M3x
                 tile: the core polls the DTU, which wakes it when a
                 message arrives, without the controller — M3x keeps the
                 fast path while the recipient is running (paper, sections
                 2.2 and 3.7).  The wait is not charged to the activity's
                 accounting bucket: it is idle occupancy, not attributable
                 work. *)
              Stats.Counter.bump t.poll_cell 1;
              a.st <- Polling;
              arm_recv_deadline t a ?deadline ()
            end
            else begin
              Stats.Counter.bump t.mx_block_cell 1;
              a.st <- Blocked_recv;
              send_ctl t a Proto.Mx_block ~k:ignore
            end
          end)

and arm_recv_deadline t (a : arec) ?deadline () =
  match deadline with
  | None -> ()
  | Some d -> arm_wait_timer t a ~delay:(max 0 (Time.sub d (Engine.now t.engine)))

(* End [a]'s sleep or deadlined receive after [delay].  The token pins the
   timer to this wait: any resume bumps it, turning stale timers into
   no-ops.  A blocked activity is woken; a poller resumes in place.  A
   receiver re-runs [recv_loop], which re-checks the endpoints (a message
   that raced the deadline still wins) before resolving to
   [R_recv_timeout]. *)
and arm_wait_timer t (a : arec) ~delay =
  let token = a.wait_token in
  Engine.after t.engine ~delay (fun () ->
      if a.wait_token = token then
        match a.st with
        | Blocked_recv ->
            wake t a;
            schedule_dispatch t
        | Polling when is_current t a -> poll_wake t a
        | Ready | Running | Stalled | Blocked_fault | Polling | Migrating | Dead ->
            ())

(* One DTU command of [a]: its send, reply or DMA [op].  The core stalls
   until the command completes.  A translation fault is resolved and the
   command reissued; a send out of credits spins until the receiver
   acknowledges; under M3x a message to a switched-out receiver takes the
   controller's slow path; under fault injection a message to a dead peer
   is dropped (EOF semantics), and a DMA the retransmit ladder gave up on
   is reissued. *)
and dtu_cmd t (a : arec) op k =
  (* Captured before the MMIO charge so the flow's sender-command segment
     covers command overhead and any credit-stall spins. *)
  let issue_ts = Engine.now t.engine in
  charge_act t a (Core_model.cmd_overhead_cycles t.core) (fun () ->
      (* [attempt] and [complete] are one closure, allocated once per
         command: no attempt allocates its own completion. *)
      let rec attempt () =
        stall_start t a;
        match op with
        | Op_send { s_ep; s_reply_ep; s_vaddr; s_size; s_data } ->
            Dtu.send t.dtu ~ep:s_ep ?reply_ep:s_reply_ep ?src_vaddr:s_vaddr
              ~issue_ts ~msg_size:s_size s_data ~k:complete
        | Op_reply { rp_recv_ep; rp_msg; rp_vaddr; rp_size; rp_data } ->
            Dtu.reply t.dtu ~recv_ep:rp_recv_ep ~to_msg:rp_msg
              ?src_vaddr:rp_vaddr ~issue_ts ~msg_size:rp_size rp_data
              ~k:complete
        | Op_mem_read { mr_ep; mr_off; mr_len; mr_vaddr; mr_dst; mr_dst_off } ->
            Dtu.mem_read t.dtu ~ep:mr_ep ~off:mr_off ~len:mr_len
              ~dst_vaddr:mr_vaddr ~dst:mr_dst ~dst_off:mr_dst_off ~k:complete
        | Op_mem_write { mw_ep; mw_off; mw_len; mw_vaddr; mw_src; mw_src_off } ->
            Dtu.mem_write t.dtu ~ep:mw_ep ~off:mw_off ~len:mw_len
              ~src_vaddr:mw_vaddr ~src:mw_src ~src_off:mw_src_off ~k:complete
        | _ -> invalid_arg "Runtime: not a DTU command"
      and complete result =
        stall_end t a;
        match (result, op) with
        | Ok (), _ -> k Proc.Unit
        | Error (Translation_fault vpage), _ ->
            (* Only a DMA read writes the local buffer. *)
            let write = match op with Op_mem_read _ -> true | _ -> false in
            tm_translate t a ~vpage ~write ~k:attempt
        | Error No_credits, Op_send { s_ep; s_reply_ep; s_vaddr; s_size; s_data } ->
            (* Out of credits: spin until the receiver acknowledges.  Each
               poll stalls the core and each failed completion resumes
               it, as an attempt does, so the watchdog and the bucket
               counters see the same stall. *)
            Dtu.spin_send t.dtu ~ep:s_ep ?reply_ep:s_reply_ep ?src_vaddr:s_vaddr
              ~issue_ts ~msg_size:s_size s_data ~poll_ps:(Time.us 2)
              ~on_poll:(fun () -> stall_start t a)
              ~on_settle:(fun () -> stall_end t a)
              ~k:complete
        | Error Recv_gone, (Op_send _ | Op_reply _) when t.rmode = M3x_mode ->
            mx_forward t a op ~k:(fun () -> k Proc.Unit)
        | Error (Recv_gone | Timeout), (Op_send _ | Op_reply _)
          when t.rmode = M3v_mode && Fault.on () ->
            (* The peer died or the wire gave up: EOF semantics — the
               message is dropped and the program carries on (it observes
               the failure at the protocol level, e.g. a reply
               deadline). *)
            Stats.Counter.incr t.counters "send_eof";
            mux_instant t "send_eof";
            k Proc.Unit
        | Error Timeout, (Op_mem_read _ | Op_mem_write _) ->
            (* The transfer is idempotent: reissue the whole command. *)
            attempt ()
        | Error e, _ ->
            let what, ep =
              match op with
              | Op_send { s_ep; _ } -> ("send", s_ep)
              | Op_reply { rp_recv_ep; _ } -> ("reply", rp_recv_ep)
              | Op_mem_read { mr_ep; _ } -> ("DMA read", mr_ep)
              | Op_mem_write { mw_ep; _ } -> ("DMA write", mw_ep)
              | _ -> ("command", -1)
            in
            failwith
              (Printf.sprintf "Runtime: %s failed on tile %d (act %s, ep %d): %s"
                 what t.rtile a.aname ep (Dtu_types.error_to_string e))
      in
      attempt ())

(* --- wakeups --- *)

let on_msg_arrived t owner =
  match Int_table.find_opt t.acts owner with
  | None -> ()
  | Some a ->
      if is_current t a && a.st = Polling then begin
        mux_instant t "wake";
        poll_wake t a
      end
      else if t.rmode = M3x_mode && a.st = Blocked_recv && not a.wake_sent
      then begin
        (* Off the core, the activity is being switched in or out: the
           switch-in resumes it, and the switch-out's take reads the flag
           ([mx_woken]). *)
        a.wake_sent <- true;
        if is_current t a then send_ctl t a Proto.Mx_wake ~k:ignore
      end

let on_core_req_irq t =
  match t.current with
  | None -> handle_core_reqs t ~k:(fun () -> schedule_dispatch t)
  | Some a when a.st = Polling ->
      (* The poller is interruptible: if the interrupt readied another
         activity, the poller gave the core up ([wake]). *)
      handle_core_reqs t ~k:(fun () ->
          if t.current = None then schedule_dispatch t)
  | Some _ -> t.irq_pending <- true

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
  a.resume <- None;
  a.slice_left <- t.timeslice;
  a.started <- false;
  a.wake_sent <- false;
  a.wait_token <- a.wait_token + 1;
  Stats.Counter.incr t.counters "respawn";
  mux_instant t "respawn";
  wake t a;
  schedule_dispatch t

(* Build the record of the activity [im] describes, in state [st], and
   register it on this tile. *)
let install t (im : image) ~sys_sgate ~sys_rgate ~st =
  let a =
    {
      aid = im.im_aid;
      aname = im.im_name;
      env = { Act_api.aid = im.im_aid; tile = t.rtile; sys_sgate; sys_rgate };
      program = im.im_program;
      premap = im.im_premap;
      addr = im.im_addr;
      st;
      resume = None;
      slice_left = t.timeslice;
      busy_ps = im.im_busy_ps;
      bucket = im.im_bucket;
      bucket_cell = bucket_cell t im.im_bucket;
      started = im.im_started;
      wake_sent = false;
      stall_since = Time.zero;
      wait_token = 0;
      cur_action = im.im_action;
      mig_park = None;
      mig_action = im.im_action;
    }
  in
  Int_table.replace t.acts im.im_aid a;
  t.spawn_order <- t.spawn_order @ [ a ];
  a

(* --- migration stub (M3v) --- *)

let mig_quiesce t ~act ~k =
  match Int_table.find_opt t.acts act with
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
  | Image im ->
      ignore (install t im ~sys_sgate ~sys_rgate ~st:Migrating);
      Stats.Counter.incr t.counters "mig_install";
      mux_instant t "mig_install"
  | _ -> invalid_arg "Runtime: foreign migration image"

let mig_resume t ~act =
  let a = find t act in
  if a.st <> Migrating then
    invalid_arg
      (Printf.sprintf "Runtime.mig_resume: activity %s is not parked" a.aname);
  wake t a;
  Stats.Counter.incr t.counters "mig_resume";
  mux_instant t "mig_resume";
  schedule_dispatch t

(* --- M3x stub --- *)

let mx_stub t =
  {
    Controller.mx_save =
      (fun ~k ->
        charge_mux t (t.core.Core_model.ctx_switch_cycles / 2) (fun () ->
            (match t.current with
            | Some a -> off_core t a ~why:"mx_save"
            | None -> ());
            k ()));
    mx_restore =
      (fun aid ~k ->
        let a = find t aid in
        if is_current t a then
          (* Light resume: the activity's endpoints are already live. *)
          charge_mux t t.core.Core_model.trap_cycles (fun () ->
              a.st <- Running;
              resume_act t a;
              k ())
        else begin
          Stats.Counter.bump t.ctx_switch_cell 1;
          mux_instant t "ctx_switch";
          charge_mux t (t.core.Core_model.ctx_switch_cycles / 2) (fun () ->
              t.current <- Some a;
              note_run_start t;
              a.st <- Running;
              resume_act t a;
              k ())
        end);
    mx_woken = (fun aid -> (find t aid).wake_sent);
  }

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
      acts = Int_table.create 8;
      spawn_order = [];
      runq = Queue.create ();
      current = None;
      irq_pending = false;
      dispatch_pending = false;
      core_req_loop = false;
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
      run_since = Time.zero;
      wd_epoch = 0;
    }
  in
  Dtu.set_msg_arrived dtu (fun owner -> on_msg_arrived t owner);
  Dtu.set_core_req_irq dtu (fun () -> on_core_req_irq t);
  Controller.register_runtime controller ~tile
    (match mode with
    | M3x_mode -> Controller.Mx_stub (mx_stub t)
    | M3v_mode ->
        Controller.Tilemux
          {
            tm_rgate;
            respawn = respawn t;
            mig_quiesce = mig_quiesce t;
            mig_install = mig_install t;
            mig_resume = mig_resume t;
          });
  t

let spawn t ~name ?(premap = true) ~program () =
  if t.rmode = M3x_mode && not premap then
    invalid_arg "Runtime.spawn: M3x supports only eagerly-mapped activities";
  let aid = Controller.host_new_act t.ctrl ~tile:t.rtile ~name in
  let sys_sgate, sys_rgate = Controller.host_setup_syscall_channel t.ctrl ~act:aid in
  let a =
    install t ~sys_sgate ~sys_rgate ~st:Blocked_recv
      {
        im_aid = aid;
        im_name = name;
        im_program = program;
        im_premap = premap;
        im_addr = Addrspace.create ();
        im_action = None;
        im_started = false;
        im_busy_ps = 0;
        im_bucket = "user";
      }
  in
  (aid, a.env)

let set_pager_sgate t ep = t.pager_sgate <- Some ep

let boot t =
  match t.rmode with
  | M3v_mode ->
      List.iter
        (fun a -> if a.st = Blocked_recv && not a.started then enqueue t a)
        t.spawn_order;
      schedule_dispatch t
  | M3x_mode ->
      List.iter
        (fun a -> Controller.mx_register_act t.ctrl ~act:a.aid)
        t.spawn_order;
      Controller.mx_kick t.ctrl ~tile:t.rtile
