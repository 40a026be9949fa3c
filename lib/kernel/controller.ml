module Engine = M3v_sim.Engine
module Time = M3v_sim.Time
module Noc = M3v_noc.Noc
module Dtu = M3v_dtu.Dtu
module Dtu_types = M3v_dtu.Dtu_types
module Ep = M3v_dtu.Ep
module Msg = M3v_dtu.Msg
module Platform = M3v_tile.Platform
module Core_model = M3v_tile.Core_model
module Trace = M3v_obs.Trace
module Metrics = M3v_obs.Metrics
module Tlb = M3v_dtu.Tlb
module Fault = M3v_fault.Fault
open Dtu_types

type mode = M3v | M3x

type mx_stub = {
  mx_save : k:(unit -> unit) -> unit;
  mx_restore : act_id -> k:(unit -> unit) -> unit;
  mx_woken : act_id -> bool;
}

(* Opaque activity image carried from the source runtime to the target
   runtime during a live migration.  The runtime library extends it; the
   controller only moves it around. *)
type mig_image = ..

type tilemux = {
  tm_rgate : int;  (** TileMux's receive gate, for mapping requests *)
  respawn : act:act_id -> unit;  (** restart a crashed activity in place *)
  mig_quiesce : act:act_id -> k:(mig_image option -> unit) -> unit;
      (** park the activity at its next TMCall boundary and extract its
          image; [k None] if it died (or exited) first *)
  mig_install : image:mig_image -> sys_sgate:int -> sys_rgate:int -> unit;
      (** materialize the parked image on this tile (state [Migrating]) *)
  mig_resume : act:act_id -> unit;  (** make the installed activity runnable *)
}

type runtime = Tilemux of tilemux | Mx_stub of mx_stub

type act = {
  aid : act_id;
  name : string;
  mutable a_tile : int;  (* mutable: live migration moves activities *)
  caps : (int, Cap.t) Hashtbl.t;
  mutable next_sel : int;
  mutable alive : bool;
  mutable exit_code : int option;  (* last reported exit code *)
  mutable restarts : int;
  mutable max_restarts : int;  (* 0 = not restartable *)
  mutable ep_list : int list;  (* endpoints allocated for this activity *)
  mutable syscall_eps : (int * int) option;
  (* M3x scheduling state *)
  mutable mx_blocked : bool;
  mutable mx_wake_pending : bool;
  mutable mx_registered : bool;
  mutable mx_queued : bool;  (* the id is in its tile's ready queue *)
  mutable mx_saved : (int * Ep.t) list;
      (* endpoint records taken out at the last switch-out; [] while live *)
  mx_pending : (int * Msg.t) Queue.t;
      (* slow-path deliveries waiting for the next switch-in: (ep, msg) *)
}

type mx_tile_state = {
  mutable cur : act_id;  (* [invalid_act] when no activity is switched in *)
  ready : act_id Queue.t;
  mutable switching : bool;
}

type stats = {
  mutable syscalls : int;
  mutable mx_switches : int;
  mutable mx_forwards : int;
  mutable busy_ps : int;
  mutable crashes : int;
  mutable restarts : int;
  mutable credits_reclaimed : int;
  mutable migrations : int;
  mutable mig_aborts : int;
  mutable mig_downtime_ps : int;
}

type t = {
  mode : mode;
  platform : Platform.t;
  tile : int;
  engine : Engine.t;
  noc : Noc.t;
  dtu : Dtu.t;
  core : Core_model.t;
  mutable acts : act option array;  (* by id; ids are dense from 0 *)
  mutable next_act : act_id;
  ep_next : int array;  (* per-tile endpoint allocator *)
  mem_next : (int * int ref) list;  (* (memory tile, bump pointer) *)
  ep_owners : (int * int, act_id) Hashtbl.t;  (* (tile, recv ep) -> owner *)
  runtimes : runtime option array;  (* by tile *)
  mutable mig_busy : bool;  (* at most one migration in flight *)
  mx_tiles : mx_tile_state array;  (* by tile *)
  pending_maps : (int, Msg.t) Hashtbl.t;  (* map request id -> pager syscall *)
  mutable next_map_req : int;
  mutable busy : bool;
  stats : stats;
}

(* --- calibration constants (controller-side costs, in controller-core
   cycles).  See DESIGN.md section 5 and EXPERIMENTS.md for how these were
   chosen. --- *)
let syscall_cycles = 900
let activate_extra_cycles = 300
let revoke_per_cap_cycles = 250
let restart_cycles = 2_000
let mx_fwd_cycles = 1_150
let mx_save_phase_cycles = 2_100
let mx_restore_phase_cycles = 2_100
let mx_deliver_cycles = 580
let ep_save_bytes_per_ep = 32
let mig_prepare_cycles = 1_200
let mig_flip_cycles = 800
let mig_resume_cycles = 1_400

(* The controller's syscall receive endpoint. *)
let syscall_ep = 0

let fresh_stats () =
  {
    syscalls = 0;
    mx_switches = 0;
    mx_forwards = 0;
    busy_ps = 0;
    crashes = 0;
    restarts = 0;
    credits_reclaimed = 0;
    migrations = 0;
    mig_aborts = 0;
    mig_downtime_ps = 0;
  }

let find_act_opt t aid =
  if aid >= 0 && aid < Array.length t.acts then t.acts.(aid) else None

let find_act t aid =
  match find_act_opt t aid with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Controller: unknown activity %d" aid)

let platform t = t.platform
let stats t = { t.stats with syscalls = t.stats.syscalls }

let add_busy t d = t.stats.busy_ps <- t.stats.busy_ps + d

(* Charge controller compute time, then continue. *)
let charge t cycles k =
  let d = Core_model.cycles t.core cycles in
  add_busy t d;
  Engine.after t.engine ~delay:d k

(* Carry a [bytes]-byte controller packet from [src] to [dst] over the
   NoC, then continue; the controller is busy from [started] until the
   packet lands. *)
let transit t ~started ~src ~dst ~bytes k =
  Noc.send t.noc ~src ~dst ~bytes ~on_delivered:(fun () ->
      add_busy t (Time.sub (Engine.now t.engine) started);
      k ())

(* A synchronous access through a remote DTU's external interface: request
   over the NoC, apply, acknowledgement back.  The controller is busy for
   the whole round trip. *)
let ext_round_trip t ~dst ~bytes ~apply ~k =
  let started = Engine.now t.engine in
  Noc.send t.noc ~src:t.tile ~dst ~bytes ~on_delivered:(fun () ->
      apply ();
      transit t ~started ~src:dst ~dst:t.tile ~bytes:16 k)

(* --- host-level setup API --- *)

let host_new_act t ~tile ~name =
  let aid = t.next_act in
  t.next_act <- aid + 1;
  if aid = Array.length t.acts then begin
    let acts = Array.make (2 * aid) None in
    Array.blit t.acts 0 acts 0 aid;
    t.acts <- acts
  end;
  t.acts.(aid) <-
    Some
      {
        aid;
        name;
        a_tile = tile;
        caps = Hashtbl.create 16;
        next_sel = 0;
        alive = true;
        exit_code = None;
        restarts = 0;
        max_restarts = 0;
        ep_list = [];
        syscall_eps = None;
        mx_blocked = false;
        mx_wake_pending = false;
        mx_registered = false;
        mx_queued = false;
        mx_saved = [];
        mx_pending = Queue.create ();
      };
  aid

let act_name t aid = (find_act t aid).name
let act_tile t aid = (find_act t aid).a_tile
let exit_code t aid = (find_act t aid).exit_code
let restarts t aid = (find_act t aid).restarts

let set_restartable t ~act ~max_restarts =
  (find_act t act).max_restarts <- max_restarts

let register_runtime t ~tile rt = t.runtimes.(tile) <- Some rt

let tilemux_opt t tile =
  if tile < 0 || tile >= Array.length t.runtimes then None
  else
    match t.runtimes.(tile) with
    | Some (Tilemux tm) -> Some tm
    | Some (Mx_stub _) | None -> None

let tilemux t tile =
  match tilemux_opt t tile with
  | Some tm -> tm
  | None -> invalid_arg (Printf.sprintf "Controller: no TileMux on tile %d" tile)

let mx_stub t tile =
  match t.runtimes.(tile) with
  | Some (Mx_stub s) -> s
  | Some (Tilemux _) | None ->
      invalid_arg (Printf.sprintf "Controller: no M3x stub on tile %d" tile)

let host_alloc_ep_anon t ~tile =
  let ep = t.ep_next.(tile) in
  if ep >= Dtu.ep_count (Platform.dtu t.platform tile) then
    failwith (Printf.sprintf "Controller: tile %d out of endpoints" tile);
  t.ep_next.(tile) <- ep + 1;
  ep

let host_alloc_ep t ~tile ~act =
  let ep = host_alloc_ep_anon t ~tile in
  let a = find_act t act in
  a.ep_list <- a.ep_list @ [ ep ];
  ep

let host_alloc_mem t ~size =
  let rec try_tiles = function
    | [] -> failwith "Controller: out of physical memory"
    | (mtile, next) :: rest ->
        let dram = Platform.dram_exn t.platform mtile in
        if !next + size <= M3v_dtu.Dram.size dram then begin
          let base = !next in
          next := !next + size;
          (mtile, base)
        end
        else try_tiles rest
  in
  try_tiles t.mem_next

let new_sel a =
  let sel = a.next_sel in
  a.next_sel <- sel + 1;
  sel

let put_cap a cap = Hashtbl.replace a.caps cap.Cap.sel cap

let new_rgate t ~act ~slots ~slot_size ~ack_batch =
  let a = find_act t act in
  let sel = new_sel a in
  let cap =
    Cap.make ~sel ~owner:act
      (Cap.Rgate
         {
           rg_slots = slots;
           rg_slot_size = slot_size;
           rg_ack_batch = ack_batch;
           rg_loc = None;
         })
  in
  put_cap a cap;
  sel

let host_new_rgate t ~act ~slots ~slot_size =
  new_rgate t ~act ~slots ~slot_size ~ack_batch:None

(* A shared multi-producer receive gate: send gates delegated against it
   from any number of activities all target the same endpoint, and the
   receiver's acks batch credit refunds ([ack_batch] per flush). *)
let host_new_mpmc_rgate t ~act ~slots ~slot_size ?(ack_batch = 16) () =
  new_rgate t ~act ~slots ~slot_size ~ack_batch:(Some ack_batch)

let rgate_of_cap cap =
  match cap.Cap.obj with
  | Cap.Rgate rg -> rg
  | _ -> invalid_arg "Controller: capability is not a receive gate"

let host_new_sgate t ~owner ~rgate_of ~rgate_sel ?(label = 0) ~credits () =
  let rg_act = find_act t rgate_of in
  let rgate_cap =
    match Hashtbl.find_opt rg_act.caps rgate_sel with
    | Some c -> c
    | None -> invalid_arg "Controller: unknown rgate selector"
  in
  let rg = rgate_of_cap rgate_cap in
  let a = find_act t owner in
  let sel = new_sel a in
  let cap =
    Cap.derive rgate_cap ~sel ~owner
      (Cap.Sgate { sg_rgate = rg; sg_label = label; sg_credits = credits })
  in
  put_cap a cap;
  sel

let host_new_mgate t ~act ~mem_tile ~base ~size ~perm =
  let a = find_act t act in
  let sel = new_sel a in
  let cap =
    Cap.make ~sel ~owner:act
      (Cap.Mgate { mg_tile = mem_tile; mg_base = base; mg_size = size; mg_perm = perm })
  in
  put_cap a cap;
  sel

let find_cap t ~act ~sel =
  match find_act_opt t act with
  | None -> None
  | Some a -> Hashtbl.find_opt a.caps sel

(* Compute the endpoint configuration an activation implies. *)
let activation_config cap =
  match cap.Cap.obj with
  | Cap.Rgate { rg_slots = slots; rg_slot_size = slot_size; rg_ack_batch; _ } ->
      Ok
        (match rg_ack_batch with
        | None -> Ep.recv_config ~slots ~slot_size ()
        | Some ack_batch -> Ep.mpmc_config ~slots ~slot_size ~ack_batch ())
  | Cap.Sgate { sg_rgate; sg_label; sg_credits } -> (
      match sg_rgate.Cap.rg_loc with
      | None -> Error "receive gate not activated yet"
      | Some (dst_tile, dst_ep) ->
          Ok
            (Ep.send_config ~dst_tile ~dst_ep ~label:sg_label
               ~max_msg_size:(sg_rgate.Cap.rg_slot_size - Msg.header_bytes)
               ~credits:sg_credits ()))
  | Cap.Mgate m ->
      Ok (Ep.mem_config ~mem_tile:m.mg_tile ~base:m.mg_base ~size:m.mg_size ~perm:m.mg_perm)

let apply_activation t ~a ~cap ~ep cfg =
  let dtu = Platform.dtu t.platform a.a_tile in
  Dtu.ext_config dtu ~ep ~owner:a.aid cfg;
  Cap.note_activation cap ~tile:a.a_tile ~ep;
  (match cap.Cap.obj with
  | Cap.Rgate rg ->
      rg.Cap.rg_loc <- Some (a.a_tile, ep);
      Hashtbl.replace t.ep_owners (a.a_tile, ep) a.aid
  | Cap.Sgate _ | Cap.Mgate _ -> ())

let host_activate t ~act ~sel ?ep () =
  let a = find_act t act in
  let cap =
    match Hashtbl.find_opt a.caps sel with
    | Some c when c.Cap.live -> c
    | Some _ -> invalid_arg "Controller.host_activate: capability revoked"
    | None -> invalid_arg "Controller.host_activate: unknown selector"
  in
  let ep =
    match ep with Some e -> e | None -> host_alloc_ep t ~tile:a.a_tile ~act
  in
  (match activation_config cap with
  | Ok cfg -> apply_activation t ~a ~cap ~ep cfg
  | Error msg -> invalid_arg ("Controller.host_activate: " ^ msg));
  ep

(* Syscall channels: every activity gets a send gate to the controller's
   syscall receive gate (label = activity id) and a small reply receive
   gate. *)
let syscall_slot_size = 512

let host_setup_syscall_channel t ~act =
  let a = find_act t act in
  match a.syscall_eps with
  | Some pair -> pair
  | None ->
      let send_ep = host_alloc_ep t ~tile:a.a_tile ~act in
      let reply_ep = host_alloc_ep t ~tile:a.a_tile ~act in
      let dtu = Platform.dtu t.platform a.a_tile in
      Dtu.ext_config dtu ~ep:send_ep ~owner:act
        (Ep.send_config ~dst_tile:t.tile ~dst_ep:syscall_ep ~label:act
           ~max_msg_size:(syscall_slot_size - Msg.header_bytes) ~credits:1 ());
      Dtu.ext_config dtu ~ep:reply_ep ~owner:act
        (Ep.recv_config ~slots:2 ~slot_size:syscall_slot_size ());
      Hashtbl.replace t.ep_owners (a.a_tile, reply_ep) act;
      a.syscall_eps <- Some (send_ep, reply_ep);
      (send_ep, reply_ep)

let ep_owner t ~tile ~ep = Hashtbl.find_opt t.ep_owners (tile, ep)

(* --- M3x machinery --- *)

(* An M3x switch moves the outgoing activity's endpoint records out of the
   register file and the incoming one's back in; nothing is copied. *)
let snapshot_eps t a =
  let dtu = Platform.dtu t.platform a.a_tile in
  a.mx_saved <- List.map (fun ep -> (ep, Dtu.ext_take dtu ~ep)) a.ep_list

let restore_eps t a =
  let dtu = Platform.dtu t.platform a.a_tile in
  List.iter (fun (ep, saved) -> Dtu.ext_put dtu ~ep saved) a.mx_saved;
  a.mx_saved <- []

let mx_enqueue st a =
  a.mx_queued <- true;
  Queue.add a.aid st.ready

(* Take [a]'s records as a switch moves it off the core for [next].  If a
   message reached [a] after it blocked, its wake may not have reached the
   controller before the records left: [a] stays runnable, unless [next]
   is [a] itself and the switch brings it straight back. *)
let switch_out t a ~next =
  snapshot_eps t a;
  let st = t.mx_tiles.(a.a_tile) in
  if a != next && (mx_stub t a.a_tile).mx_woken a.aid && not a.mx_queued then
    mx_enqueue st a

let mx_register_act t ~act =
  let a = find_act t act in
  a.mx_registered <- true;
  snapshot_eps t a;
  mx_enqueue t.mx_tiles.(a.a_tile) a

(* Deliver [a]'s queued slow-path messages into its (now live)
   endpoints in order, charging controller compute and the
   controller->tile transfer for each.  A forward spends no credit, so its
   gate may be full: it then stays queued, with every forward behind it,
   until [a] blocks (see [Mx_block]). *)
let rec deliver_all t (a : act) k =
  match Queue.peek_opt a.mx_pending with
  | None -> k ()
  | Some (ep, msg) ->
      charge t mx_deliver_cycles (fun () ->
          transit t ~started:(Engine.now t.engine) ~src:t.tile ~dst:a.a_tile
            ~bytes:(msg.Msg.size + Msg.header_bytes) (fun () ->
              match
                Dtu.ext_inject (Platform.dtu t.platform a.a_tile) ~ep msg
              with
              | Ok () ->
                  ignore (Queue.take a.mx_pending);
                  deliver_all t a k
              | Error _ -> k ()))

let rec mx_try_switch t tile_id ~k =
  let st = t.mx_tiles.(tile_id) in
  if st.switching then k ()
  else
    let cur_act = find_act_opt t st.cur in
    let cur_busy =
      match cur_act with Some a -> a.alive && not a.mx_blocked | None -> false
    in
    if cur_busy || Queue.is_empty st.ready then k ()
    else begin
      let b = find_act t (Queue.take st.ready) in
      b.mx_queued <- false;
      st.switching <- true;
      t.stats.mx_switches <- t.stats.mx_switches + 1;
      let stub = mx_stub t tile_id in
      let save_phase k2 =
        match cur_act with
        | Some a when a.alive ->
            charge t mx_save_phase_cycles (fun () ->
                stub.mx_save ~k:(fun () ->
                    ext_round_trip t ~dst:tile_id
                      ~bytes:(List.length a.ep_list * ep_save_bytes_per_ep)
                      ~apply:(fun () -> switch_out t a ~next:b)
                      ~k:k2))
        | Some _ | None -> charge t (mx_save_phase_cycles / 4) k2
      in
      save_phase (fun () ->
          charge t mx_restore_phase_cycles (fun () ->
              ext_round_trip t ~dst:tile_id
                ~bytes:(List.length b.ep_list * ep_save_bytes_per_ep)
                ~apply:(fun () -> restore_eps t b)
                ~k:(fun () ->
                  st.cur <- b.aid;
                  b.mx_blocked <- false;
                  deliver_all t b (fun () ->
                      st.switching <- false;
                      stub.mx_restore b.aid ~k:(fun () ->
                          (* More ready work may have queued up. *)
                          mx_try_switch t tile_id ~k)))))
    end

let mx_kick t ~tile = mx_try_switch t tile ~k:(fun () -> ())

let mx_make_ready t a =
  let st = t.mx_tiles.(a.a_tile) in
  a.mx_blocked <- false;
  if a.alive && st.cur <> a.aid && not a.mx_queued then mx_enqueue st a

(* A wake-up for [a]: restore it in place if it is the tile's current,
   blocked activity, otherwise note the wake and queue it for a switch.
   [k] runs once the controller is done with the tile. *)
let mx_wake t a ~k =
  let st = t.mx_tiles.(a.a_tile) in
  if st.cur = a.aid && not st.switching then begin
    if a.mx_blocked then begin
      a.mx_blocked <- false;
      (mx_stub t a.a_tile).mx_restore a.aid ~k:(fun () -> ())
    end
    else a.mx_wake_pending <- true;
    k ()
  end
  else begin
    a.mx_wake_pending <- true;
    mx_make_ready t a;
    mx_try_switch t a.a_tile ~k
  end

(* Invalidate each (tile, endpoint) over the external interface, one
   charged round trip per endpoint, and forget its owner. *)
let rec invalidate_eps t eps ~k =
  match eps with
  | [] -> k ()
  | (tile, ep) :: rest ->
      charge t revoke_per_cap_cycles (fun () ->
          ext_round_trip t ~dst:tile ~bytes:32
            ~apply:(fun () ->
              Dtu.ext_config (Platform.dtu t.platform tile) ~ep
                ~owner:invalid_act Ep.Invalid;
              Hashtbl.remove t.ep_owners (tile, ep))
            ~k:(fun () -> invalidate_eps t rest ~k))

(* Revoke [cap]'s subtree, drop the killed capabilities from their
   owners' tables, and return the endpoints to invalidate. *)
let revoke_cap t cap =
  let killed, eps = Cap.revoke cap in
  List.iter
    (fun (c : Cap.t) ->
      match find_act_opt t c.Cap.owner with
      | Some owner -> Hashtbl.remove owner.caps c.Cap.sel
      | None -> ())
    killed;
  eps

(* --- crash recovery (M3v) --- *)

(* Reclaim send credits held against the dead activity's receive gates at
   every peer DTU.  The receiver will never return them; restoring the
   peers' full budgets lets them keep talking (to a restarted instance, or
   to observe EOF from an invalidated gate) instead of starving on credits
   that are gone for good. *)
let reclaim_credits_for t (a : act) ~k =
  let recv_eps =
    Hashtbl.fold
      (fun (tile, ep) owner acc ->
        if owner = a.aid then (tile, ep) :: acc else acc)
      t.ep_owners []
  in
  let tiles = Platform.processing_tiles t.platform @ [ t.tile ] in
  let rec per_ep = function
    | [] -> k ()
    | (dst_tile, dst_ep) :: rest ->
        let reclaimed =
          List.fold_left
            (fun acc tile ->
              acc
              + Dtu.ext_reclaim_credits
                  (Platform.dtu t.platform tile)
                  ~dst_tile ~dst_ep)
            0 tiles
        in
        if reclaimed > 0 then begin
          t.stats.credits_reclaimed <- t.stats.credits_reclaimed + reclaimed;
          if Trace.on () then
            Trace.instant ~cat:"kernel" ~name:"credits_reclaimed" ~tile:t.tile
              ~act:a.aid ~ts:(Engine.now t.engine)
              ~args:[ ("ep", Trace.I dst_ep); ("credits", Trace.I reclaimed) ]
              ()
        end;
        charge t revoke_per_cap_cycles (fun () -> per_ep rest)
  in
  per_ep recv_eps

(* Full cleanup of a crashed (or exited) activity that will not come back:
   revoke every capability it still owns (cascading into anything derived
   from them), reclaim orphaned send credits at its peers, and invalidate
   all of its endpoints — partners' subsequent sends observe [Recv_gone]
   and surface it as EOF. *)
let teardown_act t (a : act) ~k =
  let revoked_eps =
    Hashtbl.fold (fun _ c acc -> if c.Cap.live then c :: acc else acc) a.caps []
    |> List.concat_map (revoke_cap t)
  in
  reclaim_credits_for t a ~k:(fun () ->
      let own = List.map (fun ep -> (a.a_tile, ep)) a.ep_list in
      invalidate_eps t (revoked_eps @ own) ~k:(fun () ->
          a.ep_list <- [];
          a.syscall_eps <- None;
          k ()))

(* Policy for a nonzero exit code: restart the activity in place if it is
   marked restartable and has budget left (its endpoints, capabilities and
   pending requests survive), otherwise tear it down. *)
let handle_crash t (a : act) ~code ~k =
  t.stats.crashes <- t.stats.crashes + 1;
  if Trace.on () then
    Trace.instant ~cat:"kernel" ~name:"act_crash" ~tile:t.tile ~act:a.aid
      ~ts:(Engine.now t.engine)
      ~args:[ ("act", Trace.S a.name); ("code", Trace.I code) ]
      ();
  match tilemux_opt t a.a_tile with
  | Some tm when a.restarts < a.max_restarts ->
      a.restarts <- a.restarts + 1;
      a.alive <- true;
      a.exit_code <- None;
      t.stats.restarts <- t.stats.restarts + 1;
      if Trace.on () then
        Trace.instant ~cat:"kernel" ~name:"act_restart" ~tile:t.tile ~act:a.aid
          ~ts:(Engine.now t.engine)
          ~args:[ ("act", Trace.S a.name); ("try", Trace.I a.restarts) ]
          ();
      (* Requests the dead incarnation fetched but never answered leave
         their senders' credits and receive slots orphaned, exactly as a
         permanent death would — reclaim both, or a client blocks forever
         in send while retrying against the restarted instance.  Requests
         still queued survive and are served after the restart. *)
      reclaim_credits_for t a ~k:(fun () ->
          charge t restart_cycles (fun () ->
              ext_round_trip t ~dst:a.a_tile ~bytes:32
                ~apply:(fun () ->
                  let dtu = Platform.dtu t.platform a.a_tile in
                  List.iter
                    (fun ep -> ignore (Dtu.ext_release_fetched dtu ~ep))
                    a.ep_list;
                  (* Flush syscall replies the dead incarnation never
                     consumed: they would otherwise pair with the
                     successor's first syscall. *)
                  (match a.syscall_eps with
                  | Some (_, reply_ep) ->
                      let n = Dtu.ext_drain_recv dtu ~ep:reply_ep in
                      if n > 0 && Trace.on () then
                        Trace.instant ~cat:"kernel"
                          ~name:"stale_sys_replies_flushed" ~tile:t.tile
                          ~act:a.aid ~ts:(Engine.now t.engine)
                          ~args:[ ("count", Trace.I n) ]
                          ()
                  | None -> ());
                  tm.respawn ~act:a.aid)
                ~k))
  | Some _ | None -> teardown_act t a ~k

(* --- live activity migration (M3v) ---

   Controller-orchestrated, fault-tolerant protocol:

     prepare -> quiesce -> drain -> FLIP -> install -> resume

   [quiesce] asks the source runtime to park the activity at its next
   TMCall boundary and hand back an opaque image (program, continuation,
   address space).  [drain] charges the NoC round trips that read the
   endpoint state out and push the image to the target.  The FLIP is a
   single simulated instant: the endpoint records (with their queued
   messages), the TLB image and the ownership tables all move at once,
   and the vacated source slots get forwarding pointers so in-flight
   packets and late credit grants chase the activity.  Fault injection
   may abort the protocol at the phase boundaries {e before} the flip —
   the image is reinstalled on the source and the activity resumes as if
   nothing happened.  After the flip the protocol can only roll forward.
   Either way every message is delivered exactly once and the
   system-wide credit total is unchanged (asserted below). *)

let all_tiles t = List.init (Platform.tile_count t.platform) (fun i -> i)

(* System-wide credit total: send-endpoint balances plus refunds parked at
   invalid slots or batched at MPMC rings.  In-flight NoC packets are not
   counted, but the flip happens at one simulated instant, so they cancel
   out of the before/after comparison. *)
let credit_inventory t =
  List.fold_left
    (fun acc tile ->
      acc + Dtu.ext_credit_inventory (Platform.dtu t.platform tile))
    0 (all_tiles t)

let mig_trace t ~name ~(a : act) args =
  if Trace.on () then
    Trace.instant ~cat:"kernel" ~name ~tile:t.tile ~act:a.aid
      ~ts:(Engine.now t.engine) ~args ()

(* The atomic endpoint flip.  Runs synchronously inside one engine
   callback: no simulated time passes between vacating the source slots
   and restoring them on the target, so the activity is never unreachable
   — at worst a packet pays one forwarding hop. *)
let mig_flip t (a : act) ~dst_tile ~eps =
  let src_tile = a.a_tile in
  let sdtu = Platform.dtu t.platform src_tile in
  let tdtu = Platform.dtu t.platform dst_tile in
  let before = credit_inventory t in
  (* A configured slot never has refunds parked, so the records carry every
     credit; refunds parked at a slot that was already Invalid stay counted
     there. *)
  let moved =
    List.map
      (fun ep ->
        let e = Dtu.ext_take sdtu ~ep in
        Dtu.ext_set_moved sdtu ~ep ~dst_tile ~dst_ep:ep;
        (ep, e))
      eps
  in
  let tlb_entries = Tlb.entries_of_act (Dtu.tlb sdtu) a.aid in
  Dtu.tlb_invalidate_act sdtu a.aid;
  Dtu.ext_drop_unread sdtu ~act:a.aid;
  (* Same indices on the target: programs hold endpoint numbers in their
     closures, so migration preserves them (the target slots were checked
     Invalid before the protocol started). *)
  List.iter (fun (ep, e) -> Dtu.ext_put tdtu ~ep e) moved;
  ignore (Dtu.ext_seed_unread tdtu ~act:a.aid);
  List.iter
    (fun (vpage, (e : Tlb.entry)) ->
      Dtu.tlb_insert tdtu ~act:a.aid ~vpage ~ppage:e.Tlb.ppage ~perm:e.Tlb.perm)
    tlb_entries;
  (* Reserve the indices so the target's allocator never hands them out. *)
  t.ep_next.(dst_tile) <-
    max t.ep_next.(dst_tile) (1 + List.fold_left max (-1) eps);
  List.iter
    (fun ep ->
      match Hashtbl.find_opt t.ep_owners (src_tile, ep) with
      | Some owner when owner = a.aid ->
          Hashtbl.remove t.ep_owners (src_tile, ep);
          Hashtbl.replace t.ep_owners (dst_tile, ep) a.aid
      | Some _ | None -> ())
    eps;
  (* Future activations of send gates against the moved receive gates must
     resolve to the new location. *)
  Hashtbl.iter
    (fun _ (cap : Cap.t) ->
      match cap.Cap.obj with
      | Cap.Rgate rg -> (
          match rg.Cap.rg_loc with
          | Some (tl, ep) when tl = src_tile && List.mem ep eps ->
              rg.Cap.rg_loc <- Some (dst_tile, ep)
          | Some _ | None -> ())
      | Cap.Sgate _ | Cap.Mgate _ -> ())
    a.caps;
  (* Already-configured peer send gates are rewritten in place; the
     forwarding pointers only cover packets that left before this line. *)
  List.iter
    (fun tile ->
      ignore
        (Dtu.ext_retarget
           (Platform.dtu t.platform tile)
           ~old_tile:src_tile ~new_tile:dst_tile ~eps))
    (all_tiles t);
  a.a_tile <- dst_tile;
  let after = credit_inventory t in
  if after <> before then
    failwith
      (Printf.sprintf
         "Controller: migration of %s changed the credit total (%d -> %d)"
         a.name before after)

(* Materialize [a]'s parked image on [tile] behind its syscall channel. *)
let mig_install t (a : act) ~tile ~image =
  match a.syscall_eps with
  | Some (sgate, rgate) ->
      (tilemux t tile).mig_install ~image ~sys_sgate:sgate ~sys_rgate:rgate
  | None -> failwith "Controller: migrating activity has no syscall channel"

(* Abort before the flip with [err].  A [parked] image (with the time it
   parked) goes back onto the source, whose endpoints, TLB and unread
   state were never touched, and the activity resumes there. *)
let mig_abort t (a : act) ~phase ?parked ~k err =
  t.stats.mig_aborts <- t.stats.mig_aborts + 1;
  mig_trace t ~name:"mig_abort" ~a [ ("phase", Trace.S phase) ];
  let fail () =
    t.mig_busy <- false;
    k (Error err)
  in
  match parked with
  | None -> fail ()
  | Some (image, parked_at) ->
      mig_install t a ~tile:a.a_tile ~image;
      charge t mig_resume_cycles (fun () ->
          (tilemux t a.a_tile).mig_resume ~act:a.aid;
          t.stats.mig_downtime_ps <-
            t.stats.mig_downtime_ps + Time.sub (Engine.now t.engine) parked_at;
          fail ())

(* Continue with [next], unless the fault plan aborts at [phase]. *)
let mig_phase t (a : act) ~phase ?parked ~k next =
  if
    Fault.on ()
    && Fault.mig_fate ~now:(Engine.now t.engine) ~tile:a.a_tile ~act:a.aid
         ~phase
  then
    mig_abort t a ~phase ?parked ~k
      (Printf.sprintf "migration aborted (%s)" phase)
  else next ()

let mig_commit t (a : act) ~dst_tile ~eps ~image ~parked_at ~k =
  charge t mig_flip_cycles (fun () ->
      mig_flip t a ~dst_tile ~eps;
      mig_install t a ~tile:dst_tile ~image;
      charge t mig_resume_cycles (fun () ->
          ext_round_trip t ~dst:dst_tile ~bytes:64
            ~apply:(fun () -> (tilemux t dst_tile).mig_resume ~act:a.aid)
            ~k:(fun () ->
              let downtime = Time.sub (Engine.now t.engine) parked_at in
              let s = t.stats in
              s.migrations <- s.migrations + 1;
              s.mig_downtime_ps <- s.mig_downtime_ps + downtime;
              mig_trace t ~name:"mig_done" ~a
                [ ("to", Trace.I dst_tile); ("downtime_ps", Trace.I downtime) ];
              t.mig_busy <- false;
              k (Ok ()))))

(* Park the activity, then read its endpoint state out of the source and
   push the image to the target; retransmit windows and credit grants
   already on the wire get this long to land (late ones chase the
   forwarding pointers). *)
let mig_move t (a : act) ~dst_tile ~eps ~k =
  (tilemux t a.a_tile).mig_quiesce ~act:a.aid ~k:(function
    | None ->
        (* The activity exited (or was killed by fault injection) before it
           reached a parkable boundary: nothing moved, nothing to restore —
           crash handling owns whatever happens to it next. *)
        mig_abort t a ~phase:"quiesce" ~k "activity exited during quiesce"
    | Some image ->
        let parked_at = Engine.now t.engine in
        let parked = (image, parked_at) in
        mig_trace t ~name:"mig_parked" ~a [];
        mig_phase t a ~phase:"parked" ~parked ~k (fun () ->
            let bytes = 256 + (List.length eps * ep_save_bytes_per_ep) in
            ext_round_trip t ~dst:a.a_tile ~bytes ~apply:ignore ~k:(fun () ->
                ext_round_trip t ~dst:dst_tile ~bytes ~apply:ignore
                  ~k:(fun () ->
                    mig_phase t a ~phase:"drain" ~parked ~k (fun () ->
                        mig_commit t a ~dst_tile ~eps ~image ~parked_at ~k)))))

let migrate t ~act ~dst_tile ~k =
  match find_act_opt t act with
  | None -> k (Error "unknown activity")
  | Some a ->
      if t.mode <> M3v then k (Error "migration requires M3v mode")
      else if t.mig_busy then k (Error "another migration is in flight")
      else if not a.alive then k (Error "activity is not alive")
      else if dst_tile = a.a_tile then k (Error "target is the source tile")
      else if Option.is_none (tilemux_opt t a.a_tile) then
        k (Error "no migration-capable runtime on source tile")
      else if Option.is_none (tilemux_opt t dst_tile) then
        k (Error "no migration-capable runtime on target tile")
      else begin
        let eps = List.sort_uniq compare a.ep_list in
        let tdtu = Platform.dtu t.platform dst_tile in
        let clash =
          List.exists
            (fun ep ->
              ep >= Dtu.ep_count tdtu
              ||
              match (Dtu.ext_read_ep tdtu ~ep).Ep.cfg with
              | Ep.Invalid -> false
              | Ep.Send _ | Ep.Recv _ | Ep.Mem _ -> true)
            eps
        in
        if clash then k (Error "target endpoint slots are busy")
        else begin
          t.mig_busy <- true;
          mig_trace t ~name:"mig_start" ~a [ ("to", Trace.I dst_tile) ];
          charge t mig_prepare_cycles (fun () ->
              mig_phase t a ~phase:"prepare" ~k (fun () ->
                  mig_move t a ~dst_tile ~eps ~k))
        end
      end

(* --- syscall handling --- *)

let reply_sys t msg rep =
  let size = Protocol.sys_reply_size rep in
  Dtu.reply t.dtu ~recv_ep:syscall_ep ~to_msg:msg ~msg_size:size
    (Protocol.Sys_reply rep) ~k:(fun _ -> ())

let handle_sys t (msg : Msg.t) req ~k =
  t.stats.syscalls <- t.stats.syscalls + 1;
  let requester = find_act t msg.Msg.label in
  let incarnation = requester.restarts in
  let finish rep =
    (* The requester may have crashed while this syscall was in flight; a
       reply sent now would sit in the reply gate until the restarted
       incarnation's first syscall pairs with it (and acts on a stale
       [Ok_ep]/[Ok_sel]).  Drop the reply instead, but still free the
       request's slot and return its send credit — the successor reuses
       the same syscall channel. *)
    if requester.alive && requester.restarts = incarnation then
      reply_sys t msg rep
    else begin
      ignore (Dtu.ack t.dtu ~ep:syscall_ep msg);
      if Trace.on () then
        Trace.instant ~cat:"kernel" ~name:"stale_sys_reply_dropped" ~tile:t.tile
          ~act:requester.aid ~ts:(Engine.now t.engine) ()
    end;
    k ()
  in
  match req with
  | Protocol.Noop -> finish Protocol.Ok_unit
  | Protocol.Alloc_mem { size; perm } ->
      let mem_tile, base = host_alloc_mem t ~size in
      let sel =
        host_new_mgate t ~act:requester.aid ~mem_tile ~base ~size ~perm
      in
      finish (Protocol.Ok_sel sel)
  | Protocol.Create_rgate { slots; slot_size } ->
      let sel = host_new_rgate t ~act:requester.aid ~slots ~slot_size in
      finish (Protocol.Ok_sel sel)
  | Protocol.Derive_mem_for { target; src_sel; off; len; perm } -> (
      match find_cap t ~act:requester.aid ~sel:src_sel with
      | Some mcap when mcap.Cap.live -> (
          let b = find_act t target in
          let sel = new_sel b in
          match Cap.derive_mem mcap ~sel ~owner:target ~off ~len ~perm with
          | Ok cap ->
              put_cap b cap;
              finish (Protocol.Ok_sel sel)
          | Error e -> finish (Protocol.Sys_err e))
      | Some _ | None -> finish (Protocol.Sys_err "unknown memory selector"))
  | Protocol.Activate { sel; ep } -> (
      match find_cap t ~act:requester.aid ~sel with
      | Some cap when cap.Cap.live -> (
          match activation_config cap with
          | Error e -> finish (Protocol.Sys_err e)
          | Ok cfg ->
              let a = requester in
              let ep =
                match ep with
                | Some e -> e
                | None -> host_alloc_ep t ~tile:a.a_tile ~act:a.aid
              in
              charge t activate_extra_cycles (fun () ->
                  ext_round_trip t ~dst:a.a_tile ~bytes:64
                    ~apply:(fun () -> apply_activation t ~a ~cap ~ep cfg)
                    ~k:(fun () -> finish (Protocol.Ok_ep ep))))
      | Some _ | None -> finish (Protocol.Sys_err "unknown selector"))
  | Protocol.Revoke { sel } -> (
      match find_cap t ~act:requester.aid ~sel with
      | Some cap when cap.Cap.live ->
          invalidate_eps t (revoke_cap t cap) ~k:(fun () ->
              finish Protocol.Ok_unit)
      | Some _ | None -> finish (Protocol.Sys_err "unknown selector"))
  | Protocol.Map_for { target; vpage; ppage; perm } -> (
      let b = find_act t target in
      match tilemux_opt t b.a_tile with
      | None -> finish (Protocol.Sys_err "no TileMux on target tile")
      | Some { tm_rgate = tm_ep; _ } ->
          (* Forward the mapping request to the responsible TileMux; the
             reply to the pager is deferred until TileMux confirms, but the
             controller itself moves on (paper, section 4.3). *)
          let req_id = t.next_map_req in
          t.next_map_req <- req_id + 1;
          Hashtbl.replace t.pending_maps req_id msg;
          let tm_msg =
            Msg.make ~src_tile:t.tile ~src_act:invalid_act
              ~reply_to:(t.tile, syscall_ep) ~size:48
              (Protocol.Tm_map
                 {
                   tm_req_id = req_id;
                   tm_act = target;
                   tm_vpage = vpage;
                   tm_ppage = ppage;
                   tm_perm = perm;
                 })
          in
          transit t ~started:(Engine.now t.engine) ~src:t.tile ~dst:b.a_tile
            ~bytes:64 (fun () ->
              let dtu = Platform.dtu t.platform b.a_tile in
              (match Dtu.ext_inject dtu ~ep:tm_ep tm_msg with
              | Ok () -> ()
              | Error _ ->
                  (* TileMux gate full: fail the pager's request. *)
                  Hashtbl.remove t.pending_maps req_id;
                  reply_sys t msg (Protocol.Sys_err "TileMux gate full"));
              k ()))
  | Protocol.Act_exit { code } ->
      requester.alive <- false;
      requester.exit_code <- Some code;
      (* One-way: the activity is gone, nobody to reply to. *)
      ignore (Dtu.ack t.dtu ~ep:syscall_ep msg);
      (match t.mode with
      | M3x when requester.mx_registered ->
          let st = t.mx_tiles.(requester.a_tile) in
          if st.cur = requester.aid then st.cur <- invalid_act;
          mx_try_switch t requester.a_tile ~k
      | M3v when code <> 0 -> handle_crash t requester ~code ~k
      | M3x | M3v -> k ())

let handle_tm_map_done t (msg : Msg.t) ~req_id ~k =
  ignore (Dtu.ack t.dtu ~ep:syscall_ep msg);
  (match Hashtbl.find_opt t.pending_maps req_id with
  | Some pager_msg ->
      Hashtbl.remove t.pending_maps req_id;
      reply_sys t pager_msg Protocol.Ok_unit
  | None -> ());
  k ()

(* [a] waits for a message: switch to the next ready activity. *)
let mx_block t a ~k =
  a.mx_blocked <- true;
  (* A wake that overtook the block resumes [a] in place. *)
  if a.mx_wake_pending then begin
    a.mx_wake_pending <- false;
    mx_wake t a ~k:(fun () -> ())
  end;
  mx_try_switch t a.a_tile ~k

let handle_mx t (msg : Msg.t) ~k =
  let sender = find_act t msg.Msg.label in
  ignore (Dtu.ack t.dtu ~ep:syscall_ep msg);
  match msg.Msg.data with
  | Protocol.Mx_wake ->
      charge t (mx_fwd_cycles / 2) (fun () -> mx_wake t sender ~k)
  | Protocol.Mx_block ->
      charge t (mx_fwd_cycles / 2) (fun () ->
          (* A switched-in sender blocks only when a receive found nothing,
             so forwards left over for want of room fit now; the wake their
             delivery raises resumes it. *)
          let st = t.mx_tiles.(sender.a_tile) in
          if
            st.cur = sender.aid && (not st.switching)
            && not (Queue.is_empty sender.mx_pending)
          then deliver_all t sender (fun () -> mx_block t sender ~k)
          else mx_block t sender ~k)
  | Protocol.Mx_yield ->
      charge t (mx_fwd_cycles / 2) (fun () ->
          (* The yielder goes to the back of its tile's queue; it counts as
             blocked so the switch machinery may take it off the core, but
             it is immediately runnable again. *)
          sender.mx_blocked <- true;
          if not sender.mx_queued then
            mx_enqueue t.mx_tiles.(sender.a_tile) sender;
          mx_try_switch t sender.a_tile ~k)
  | Protocol.Mx_fwd { fwd_dst_tile; fwd_dst_ep; fwd } ->
      t.stats.mx_forwards <- t.stats.mx_forwards + 1;
      charge t mx_fwd_cycles (fun () ->
          match ep_owner t ~tile:fwd_dst_tile ~ep:fwd_dst_ep with
          | None ->
              (* Unknown destination: drop the message. *)
              k ()
          | Some recipient_id ->
              let recipient = find_act t recipient_id in
              let st = t.mx_tiles.(fwd_dst_tile) in
              Queue.add (fwd_dst_ep, fwd) recipient.mx_pending;
              if st.cur = recipient_id && not st.switching then begin
                (* Endpoints are live: deliver now and resume in place. *)
                let was_blocked = recipient.mx_blocked in
                recipient.mx_blocked <- false;
                deliver_all t recipient (fun () ->
                    if was_blocked then
                      (mx_stub t fwd_dst_tile).mx_restore recipient_id
                        ~k:(fun () -> ());
                    k ())
              end
              else begin
                mx_make_ready t recipient;
                mx_try_switch t fwd_dst_tile ~k
              end)
  | _ -> k ()

(* --- dispatcher --- *)

let req_name (data : Msg.data) =
  match data with
  | Protocol.Sys req -> (
      match req with
      | Protocol.Noop -> "sys/noop"
      | Protocol.Alloc_mem _ -> "sys/alloc_mem"
      | Protocol.Create_rgate _ -> "sys/create_rgate"
      | Protocol.Derive_mem_for _ -> "sys/derive_mem_for"
      | Protocol.Activate _ -> "sys/activate"
      | Protocol.Revoke _ -> "sys/revoke"
      | Protocol.Map_for _ -> "sys/map_for"
      | Protocol.Act_exit _ -> "sys/act_exit")
  | Protocol.Tm_map_done _ -> "tm_map_done"
  | Protocol.Mx_fwd _ -> "mx_fwd"
  | Protocol.Mx_block -> "mx_block"
  | Protocol.Mx_yield -> "mx_yield"
  | Protocol.Mx_wake -> "mx_wake"
  | _ -> "unknown"

let rec dispatch t =
  if not t.busy then
    match Dtu.fetch t.dtu ~ep:syscall_ep with
    | Ok (Some msg) ->
        t.busy <- true;
        if Metrics.on () then
          Metrics.counter_incr ~name:"kernel/requests" ~tile:t.tile
            ~cat:(req_name msg.Msg.data) ();
        let k =
          let k () =
            t.busy <- false;
            dispatch t
          in
          if not (Trace.on ()) then k
          else begin
            (* Span covers the whole controller-side handling, including
               the charged processing time and any nested forwarding. *)
            let ts = Engine.now t.engine in
            let name = req_name msg.Msg.data in
            fun () ->
              let dur = Time.sub (Engine.now t.engine) ts in
              Trace.complete ~cat:"kernel" ~name ~tile:t.tile
                ~act:msg.Msg.src_act ~ts ~dur
                ~args:[ ("src_tile", Trace.I msg.Msg.src_tile) ]
                ();
              Trace.latency_int "kernel/syscall" dur;
              k ()
          end
        in
        charge t syscall_cycles (fun () ->
            match msg.Msg.data with
            | Protocol.Sys req -> handle_sys t msg req ~k
            | Protocol.Tm_map_done { tm_req_id } ->
                handle_tm_map_done t msg ~req_id:tm_req_id ~k
            | Protocol.Mx_fwd _ | Protocol.Mx_block | Protocol.Mx_yield
            | Protocol.Mx_wake ->
                handle_mx t msg ~k
            | _ ->
                (* Unknown payload: acknowledge and move on. *)
                ignore (Dtu.ack t.dtu ~ep:syscall_ep msg);
                k ())
    | Ok None | Error _ -> ()

let create ~mode ~platform ~tile () =
  let engine = Platform.engine platform in
  let dtu = Platform.dtu platform tile in
  let core = Platform.core_exn platform tile in
  let mem_next =
    List.map (fun mtile -> (mtile, ref 0)) (Platform.memory_tiles platform)
  in
  let t =
    {
      mode;
      platform;
      tile;
      engine;
      noc = Platform.noc platform;
      dtu;
      core;
      acts = Array.make 32 None;
      next_act = 0;
      ep_next = Array.make (Platform.tile_count platform) 1;
      mem_next;
      ep_owners = Hashtbl.create 64;
      runtimes = Array.make (Platform.tile_count platform) None;
      mig_busy = false;
      mx_tiles =
        Array.init (Platform.tile_count platform) (fun _ ->
            { cur = invalid_act; ready = Queue.create (); switching = false });
      pending_maps = Hashtbl.create 8;
      next_map_req = 0;
      busy = false;
      stats = fresh_stats ();
    }
  in
  (* Endpoint 0 of the controller tile is the syscall receive gate. *)
  Dtu.ext_config dtu ~ep:syscall_ep ~owner:Dtu_types.invalid_act
    (Ep.recv_config ~slots:256 ~slot_size:syscall_slot_size ());
  t.ep_next.(tile) <- 1;
  Dtu.set_msg_arrived dtu (fun _ -> dispatch t);
  t
